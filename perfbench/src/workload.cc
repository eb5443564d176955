#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "data/registry.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// Independent streams per input kind, so adding events of one kind never
// shifts another kind's draws.
constexpr uint64_t kSelectStream = 0x5e1ec7;
constexpr uint64_t kReloadStream = 0x2e10ad;
constexpr uint64_t kTargetStream = 0x7a26e7;

}  // namespace

tps::StatusOr<Workload> ParseWorkload(const std::string& name) {
  for (Workload w :
       {Workload::kWarmNlp, Workload::kColdGen10k, Workload::kSwapCv}) {
    if (name == WorkloadName(w)) return w;
  }
  return tps::Status::InvalidArgument("unknown workload '" + name +
                                      "' (warm_nlp|cold_gen10k|swap_cv)");
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kWarmNlp:
      return "warm_nlp";
    case Workload::kColdGen10k:
      return "cold_gen10k";
    case Workload::kSwapCv:
      return "swap_cv";
  }
  return "?";
}

Schedule MakeSchedule(const ScheduleSpec& spec, uint64_t seed) {
  Schedule schedule;
  schedule.connections = std::clamp(spec.connections, 1, kMaxConnections);

  tps::Rng selects(seed ^ kSelectStream);
  size_t next = 0;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - selects.Uniform()) / spec.rate_qps;
    if (t >= spec.seconds) break;
    schedule.events.push_back({t, false, next});
    next = (next + 1) % std::max<size_t>(1, spec.mix_size);
  }

  if (spec.reload_every_s > 0.0) {
    tps::Rng reloads(seed ^ kReloadStream);
    const double every = spec.reload_every_s;
    size_t set = 1;
    for (double slot = 0.0; slot + every <= spec.seconds; slot += every) {
      const double at = slot + every * reloads.Uniform(0.3, 0.7);
      schedule.events.push_back({at, true, set});
      set = 1 - set;
    }
  }
  std::stable_sort(
      schedule.events.begin(), schedule.events.end(),
      [](const Event& a, const Event& b) { return a.at_s < b.at_s; });
  return schedule;
}

std::vector<tps::DatasetSpec> NovelNlpTargets(size_t count, uint64_t seed) {
  std::set<std::string> vocabulary_set;
  for (const tps::DatasetSpec& spec : tps::NlpBenchmarkSpecs()) {
    vocabulary_set.insert(spec.tags.begin(), spec.tags.end());
  }
  const std::vector<std::string> vocabulary(vocabulary_set.begin(),
                                            vocabulary_set.end());
  tps::Rng rng(seed ^ kTargetStream);
  std::vector<tps::DatasetSpec> specs;
  specs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    tps::DatasetSpec spec;
    spec.name = "novel_" + std::to_string(i);
    spec.domain = tps::TaskDomain::kNLP;
    spec.role = tps::DatasetRole::kTarget;
    spec.num_labels = static_cast<int>(rng.UniformInt(int64_t{2}, 5));
    spec.difficulty = rng.Uniform(0.25, 0.7);
    const size_t tags = static_cast<size_t>(rng.UniformInt(int64_t{2}, 4));
    for (size_t j : rng.SampleWithoutReplacement(vocabulary.size(), tags)) {
      spec.tags.push_back(vocabulary[j]);
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace perfbench
