// Reproduces Table V: total training epochs and speedup vs brute force for
// successive halving (SH) and fine-selection (FS), at two candidate-set
// sizes: the 10 coarse-recalled models and the whole zoo (40 NLP / 30 CV).
// The paper reports SH ~2.2-2.6x and FS ~2.4-4.6x over brute force.
//
// With --parallel-timing [--threads=N] the harness additionally measures
// wall-clock time of the full online two-phase pipeline serial vs on a
// shared N-thread pool (default: hardware concurrency) and verifies the
// parallel run selects the same model — the epoch tables above are the
// paper's cost unit; this section shows the real-time speedup the shared
// pool buys on this machine.

// Alongside the printed tables, machine-readable telemetry is written to
// BENCH_table5_time_comparison.json (see bench/telemetry.h): one phase per
// (target, method, candidate-set) cell with its wall time and training
// epochs, plus a recall phase per target with the proxy inference cost.

#include <algorithm>
#include <iostream>

#include "bench/harness.h"
#include "bench/telemetry.h"
#include "core/baselines.h"
#include "core/coarse_recall.h"
#include "core/convergence_trend.h"
#include "core/fine_selection.h"
#include "core/two_phase.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tps {
namespace bench {
namespace {

void Report(TaskDomain domain, const char* title,
            BenchTelemetry* telemetry) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  const Hyperparams hp = world.DefaultHp();

  CoarseRecall recall(world.zoo.get(), world.matrix.get(),
                      world.clustering.get());
  ConvergenceTrendMiner miner(world.matrix.get());
  SuccessiveHalvingSelector sh(world.zoo.get(), world.simulator.get());
  FineSelectionSelector fs(world.zoo.get(), world.simulator.get(), &miner);
  BruteForceSelector bf(world.zoo.get(), world.simulator.get());

  std::vector<size_t> all_models(world.zoo->size());
  for (size_t i = 0; i < all_models.size(); ++i) all_models[i] = i;

  std::cout << "=== Table V: selection time (" << title << ", "
            << hp.epochs << " epochs/model, zoo size " << world.zoo->size()
            << ") ===\n";
  SectionedTable table({"target", "method", "epochs@10", "speedup@10",
                        "epochs@all", "speedup@all"});

  for (const Dataset* target : world.Targets()) {
    const std::string prefix = std::string(title) + "/" + target->name();
    WallTimer timer;
    EpochBudget recall_budget;
    RecallResult rr = ExitIfError(
        recall.Recall(*target, RecallOptions(), &recall_budget),
        "recall " + target->name());
    telemetry->RecordPhase(prefix + "/recall", timer.ElapsedMillis(), 0.0,
                           recall_budget.inference_epochs());
    const std::vector<size_t> top10 = rr.TopModels(10);

    struct MethodRow {
      const char* name;
      double epochs10;
      double epochs_all;
    };
    std::vector<MethodRow> rows;

    // Runs one (method, candidate-set) cell, recording its wall time and
    // training-epoch cost as a telemetry phase.
    const auto run_cell = [&](const auto& selector, const char* cell,
                              const std::vector<size_t>& candidates) {
      timer.Restart();
      const SelectionOutcome outcome = ExitIfError(
          selector.Select(candidates, *target, hp, nullptr),
          std::string(cell) + " " + target->name());
      telemetry->RecordPhase(prefix + "/" + cell, timer.ElapsedMillis(),
                             outcome.training_epochs, 0.0);
      return outcome;
    };

    const SelectionOutcome bf10 = run_cell(bf, "bf@10", top10);
    const SelectionOutcome bf_all = run_cell(bf, "bf@all", all_models);
    rows.push_back({"BF", bf10.training_epochs, bf_all.training_epochs});

    const SelectionOutcome sh10 = run_cell(sh, "sh@10", top10);
    const SelectionOutcome sh_all = run_cell(sh, "sh@all", all_models);
    rows.push_back({"SH", sh10.training_epochs, sh_all.training_epochs});

    const SelectionOutcome fs10 = run_cell(fs, "fs@10", top10);
    const SelectionOutcome fs_all = run_cell(fs, "fs@all", all_models);
    rows.push_back({"FS", fs10.training_epochs, fs_all.training_epochs});

    for (const MethodRow& row : rows) {
      table.AddRow(
          {target->name(), row.name,
           strings::FormatDouble(row.epochs10, 0),
           strings::Format("%.2fx", bf10.training_epochs / row.epochs10),
           strings::FormatDouble(row.epochs_all, 0),
           strings::Format("%.2fx",
                           bf_all.training_epochs / row.epochs_all)});
    }
    table.AddSeparator();
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void ReportWallClock(TaskDomain domain, const char* title, int num_threads,
                     int repeats) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  const Hyperparams hp = world.DefaultHp();
  TwoPhaseSelector selector(world.zoo.get(), world.matrix.get(),
                            world.clustering.get(), world.simulator.get());
  ThreadPool pool(ThreadPool::ClampThreads(num_threads, world.zoo->size()));

  std::cout << "=== Serial vs parallel wall-clock (" << title << ", "
            << pool.num_threads() << " threads, best of " << repeats
            << ") ===\n";
  TablePrinter table(
      {"target", "serial ms", "parallel ms", "speedup", "same model"});
  for (const Dataset* target : world.Targets()) {
    double serial_ms = 0.0, parallel_ms = 0.0;
    TwoPhaseReport serial_report, parallel_report;
    for (int r = 0; r < repeats; ++r) {
      WallTimer timer;
      serial_report = ExitIfError(
          selector.Select(*target, TwoPhaseOptions(), hp, nullptr),
          "serial select " + target->name());
      const double s = timer.ElapsedMillis();
      serial_ms = r == 0 ? s : std::min(serial_ms, s);
      timer.Restart();
      parallel_report = ExitIfError(
          selector.Select(*target, TwoPhaseOptions(), hp, &pool),
          "parallel select " + target->name());
      const double p = timer.ElapsedMillis();
      parallel_ms = r == 0 ? p : std::min(parallel_ms, p);
    }
    table.AddRow({target->name(), strings::Format("%.2f", serial_ms),
                  strings::Format("%.2f", parallel_ms),
                  strings::Format("%.2fx", serial_ms / parallel_ms),
                  serial_report.selection.selected_model ==
                          parallel_report.selection.selected_model
                      ? "yes"
                      : "NO"});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main(int argc, char** argv) {
  auto flags = tps::FlagParser::Parse(argc, argv);
  tps::bench::ExitIfError(flags.status(), "parse flags");
  tps::bench::BenchTelemetry telemetry("table5_time_comparison");
  tps::bench::Report(tps::TaskDomain::kNLP, "NLP", &telemetry);
  tps::bench::Report(tps::TaskDomain::kCV, "CV", &telemetry);
  telemetry.WriteFileOrWarn();
  if (*flags->GetBool("parallel-timing", false)) {
    const int threads = static_cast<int>(
        *flags->GetInt("threads", tps::DefaultThreads()));
    const int repeats = static_cast<int>(*flags->GetInt("repeats", 3));
    tps::bench::ReportWallClock(tps::TaskDomain::kNLP, "NLP", threads,
                                repeats);
    tps::bench::ReportWallClock(tps::TaskDomain::kCV, "CV", threads, repeats);
  }
  return 0;
}
