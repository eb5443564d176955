#include "loadgen.h"

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "util/socket.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::chrono::microseconds kSpin(200);

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

double ServerCpuMsPerOp(double process_cpu_s, double generator_cpu_s,
                        size_t ops) {
  if (ops == 0) return 0.0;
  return (process_cpu_s - generator_cpu_s) * 1e3 / static_cast<double>(ops);
}

tps::StatusOr<WindowResult> RunOpenLoop(
    const std::string& socket_path, const Schedule& schedule,
    const std::function<std::string(const Event&)>& line_for) {
  const size_t n = schedule.events.size();
  std::vector<tps::Socket> sockets;
  for (int c = 0; c < schedule.connections; ++c) {
    TPS_ASSIGN_OR_RETURN(tps::Socket socket, tps::ConnectUnix(socket_path));
    sockets.push_back(std::move(socket));
  }
  // Lines are built before the window so the generator only sends.
  std::vector<std::string> lines(n);
  for (size_t i = 0; i < n; ++i) lines[i] = line_for(schedule.events[i]) + "\n";

  // Reloads, if any, travel on connection 0 alone, as an operator's admin
  // client would send them; selects share the other connections. One
  // connection means one server thread loads every version, so its
  // allocations reuse the memory the previous versions freed.
  const bool admin =
      sockets.size() > 1 &&
      std::any_of(schedule.events.begin(), schedule.events.end(),
                  [](const Event& e) { return e.reload; });
  std::vector<size_t> queues[2];  // [0] admin connection, [1] the others.
  for (size_t i = 0; i < n; ++i) {
    queues[admin && schedule.events[i].reload ? 0 : 1].push_back(i);
  }
  std::atomic<size_t> next[2] = {0, 0};

  WindowResult result;
  result.events.resize(n);
  std::vector<double> thread_cpu(sockets.size(), 0.0);
  // A short lead lets every thread reach its first sleep before event 0.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  const double cpu_before = ProcessCpuSeconds();

  std::vector<std::thread> threads;
  for (size_t c = 0; c < sockets.size(); ++c) {
    threads.emplace_back([&, c] {
      // The default 50 us timer slack would make every send late.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      const double cpu0 = ThreadCpuSeconds();
      tps::Socket& socket = sockets[c];
      std::string buffer;
      const size_t q = admin && c == 0 ? 0 : 1;
      const std::vector<size_t>& queue = queues[q];
      for (size_t k = next[q].fetch_add(1); k < queue.size();
           k = next[q].fetch_add(1)) {
        const size_t i = queue[k];
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            schedule.events[i].at_s));
        // Sleep to just short of the due time, then spin: a wake-up from
        // sleep alone lands tens of microseconds late, and that lateness
        // belongs to the generator, not the server.
        std::this_thread::sleep_until(due - kSpin);
        while (Clock::now() < due) {
        }
        const Clock::time_point sent = Clock::now();
        EventResult& out = result.events[i];
        if (socket.SendAll(lines[i]).ok()) {
          auto reply = socket.RecvLine(&buffer);
          if (reply.ok()) out.reply = std::move(reply).value();
        }
        const Clock::time_point done = Clock::now();
        out.latency_ms = Millis(done - due);
        out.late_ms = Millis(sent - due);
        out.service_ms = Millis(done - sent);
      }
      thread_cpu[c] = ThreadCpuSeconds() - cpu0;
    });
  }
  for (std::thread& t : threads) t.join();
  result.process_cpu_s = ProcessCpuSeconds() - cpu_before;
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (double cpu : thread_cpu) result.generator_cpu_s += cpu;
  return result;
}

}  // namespace perfbench
