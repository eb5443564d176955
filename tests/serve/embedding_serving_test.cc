#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/lib/bench_util.h"
#include "bench/lib/dispatch.h"
#include "recall/embed_trainer.h"
#include "serve/artifact_slot.h"
#include "serve/artifacts.h"
#include "serve/service.h"

namespace tps {
namespace serve {
namespace {

// End-to-end serving through the pluggable recall backends: requests route
// by name, artifacts without trained embeddings reject the embedding and
// hybrid backends with the right codes, a hot Reload can introduce
// embeddings to a running service, and a mid-flight swap between two
// different embedding artifacts never mixes versions.

class EmbeddingServingTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto base = ServiceArtifacts::Build(TaskDomain::kNLP);
    ASSERT_TRUE(base.ok()) << base.status().message();
    base_ = new ServiceArtifacts(*std::move(base));

    embedded_a_ = new ServiceArtifacts(WithEmbeddings(*base_, 7));
    embedded_b_ = new ServiceArtifacts(WithEmbeddings(*base_, 99));

    oracle_a_ = new std::map<std::string, SelectionResponse>(
        OracleAnswers(*embedded_a_));
    oracle_b_ = new std::map<std::string, SelectionResponse>(
        OracleAnswers(*embedded_b_));

    // The two embedding artifacts must rank differently somewhere, or the
    // version-mixing checks below are vacuous.
    bool differ = false;
    for (const auto& [target, a] : *oracle_a_) {
      const SelectionResponse& b = oracle_b_->at(target);
      if (a.report.recall.ranked.size() != b.report.recall.ranked.size()) {
        differ = true;  // Different embedding IVFs probed different lists.
        continue;
      }
      for (size_t i = 0; i < a.report.recall.ranked.size(); ++i) {
        if (a.report.recall.ranked[i].recall_score !=
                b.report.recall.ranked[i].recall_score ||
            a.report.recall.ranked[i].model_index !=
                b.report.recall.ranked[i].model_index) {
          differ = true;
        }
      }
    }
    ASSERT_TRUE(differ) << "seeds 7 and 99 trained identical embeddings";
  }

  /// A copy of `base` with two-tower embeddings trained at `seed` attached
  /// (short curve: serving only needs *an* artifact, not a converged one).
  static ServiceArtifacts WithEmbeddings(const ServiceArtifacts& base,
                                         uint64_t seed) {
    ServiceArtifacts artifacts = base;
    recall::EmbeddingConfig config;
    config.epochs = 60;
    config.seed = seed;
    auto trained = recall::TrainRecallEmbeddings(
        artifacts.matrix, artifacts.registry.Benchmarks(artifacts.domain),
        config);
    EXPECT_TRUE(trained.ok()) << trained.status().message();
    EXPECT_TRUE(
        artifacts.AttachEmbeddings(std::move(trained->embeddings)).ok());
    return artifacts;
  }

  static ServiceOptions LightOptions() {
    ServiceOptions options;
    options.worker_threads = 0;  // Handle() only.
    return options;
  }

  static SelectionRequest EmbeddingRequest(const std::string& target) {
    SelectionRequest request;
    request.target = target;
    request.recall_backend = "embedding";
    return request;
  }

  /// Ground truth per artifact set: a single-threaded service answers
  /// every target once through the embedding backend.
  static std::map<std::string, SelectionResponse> OracleAnswers(
      const ServiceArtifacts& artifacts) {
    auto service =
        SelectionService::Create(ServiceArtifacts(artifacts), LightOptions());
    EXPECT_TRUE(service.ok()) << service.status().message();
    std::map<std::string, SelectionResponse> answers;
    for (const Dataset* target :
         Targets(artifacts.registry, artifacts.domain)) {
      answers[target->name()] =
          (*service)->Handle(EmbeddingRequest(target->name()));
      EXPECT_TRUE(answers[target->name()].status.ok());
    }
    return answers;
  }

  /// Bit-identical answer check, recall ranking included. EXPECT_EQ on the
  /// doubles deliberately: an answer derived from the wrong artifact
  /// version must fail, not "be close".
  static void ExpectSameAnswer(const SelectionResponse& got,
                               const SelectionResponse& want) {
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.selected_model, want.selected_model);
    EXPECT_EQ(got.selected_accuracy, want.selected_accuracy);
    EXPECT_EQ(got.training_epochs, want.training_epochs);
    EXPECT_EQ(got.inference_epochs, want.inference_epochs);
    EXPECT_EQ(got.total_epochs, want.total_epochs);
    EXPECT_EQ(got.survivors_per_stage, want.survivors_per_stage);
    ASSERT_EQ(got.report.recall.ranked.size(),
              want.report.recall.ranked.size());
    for (size_t i = 0; i < got.report.recall.ranked.size(); ++i) {
      EXPECT_EQ(got.report.recall.ranked[i].model_index,
                want.report.recall.ranked[i].model_index);
      EXPECT_EQ(got.report.recall.ranked[i].recall_score,
                want.report.recall.ranked[i].recall_score);
    }
  }

  static const std::map<std::string, SelectionResponse>& OracleFor(
      uint64_t version) {
    // The swap test publishes a (v1) -> b (v2) -> a (v3).
    return version == 2 ? *oracle_b_ : *oracle_a_;
  }

  static ServiceArtifacts* base_;
  static ServiceArtifacts* embedded_a_;
  static ServiceArtifacts* embedded_b_;
  static std::map<std::string, SelectionResponse>* oracle_a_;
  static std::map<std::string, SelectionResponse>* oracle_b_;
};

ServiceArtifacts* EmbeddingServingTest::base_ = nullptr;
ServiceArtifacts* EmbeddingServingTest::embedded_a_ = nullptr;
ServiceArtifacts* EmbeddingServingTest::embedded_b_ = nullptr;
std::map<std::string, SelectionResponse>* EmbeddingServingTest::oracle_a_ =
    nullptr;
std::map<std::string, SelectionResponse>* EmbeddingServingTest::oracle_b_ =
    nullptr;

TEST_F(EmbeddingServingTest, EmbeddingBackendServesEndToEnd) {
  auto service = SelectionService::Create(ServiceArtifacts(*embedded_a_),
                                          LightOptions());
  ASSERT_TRUE(service.ok()) << service.status().message();
  const SelectionResponse response =
      (*service)->Handle(EmbeddingRequest("mnli"));
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.recall_backend, "embedding");
  EXPECT_FALSE(response.selected_model.empty());
  // No proxy forward passes: the whole inference half of the ledger is
  // zero, fine selection's training epochs are the only cost.
  EXPECT_EQ(response.inference_epochs, 0.0);
  EXPECT_GT(response.training_epochs, 0.0);
  EXPECT_EQ(response.report.recall.proxies_computed, 0u);
}

TEST_F(EmbeddingServingTest, RoutingErrorsCarryTheRightCodes) {
  auto service =
      SelectionService::Create(ServiceArtifacts(*base_), LightOptions());
  ASSERT_TRUE(service.ok()) << service.status().message();

  SelectionRequest unknown;
  unknown.target = "mnli";
  unknown.recall_backend = "no-such-backend";
  EXPECT_TRUE((*service)->Handle(unknown).status.IsNotFound());

  // Registered name, but these artifacts never trained embeddings.
  for (const char* needs_embeddings : {"embedding", "hybrid"}) {
    SelectionRequest request;
    request.target = "mnli";
    request.recall_backend = needs_embeddings;
    const SelectionResponse response = (*service)->Handle(request);
    EXPECT_TRUE(response.status.IsFailedPrecondition()) << needs_embeddings;
    EXPECT_TRUE(response.selected_model.empty());
  }
}

TEST_F(EmbeddingServingTest, RepresentativeRoutingMatchesUnrouted) {
  auto service = SelectionService::Create(ServiceArtifacts(*embedded_a_),
                                          LightOptions());
  ASSERT_TRUE(service.ok()) << service.status().message();
  SelectionRequest unrouted;
  unrouted.target = "mnli";
  SelectionRequest routed = unrouted;
  routed.recall_backend = "representative";
  const SelectionResponse want = (*service)->Handle(unrouted);
  const SelectionResponse got = (*service)->Handle(routed);
  ASSERT_TRUE(want.status.ok());
  EXPECT_EQ(got.recall_backend, "representative");
  EXPECT_TRUE(want.recall_backend.empty());
  ExpectSameAnswer(got, want);
}

// One CoarseRecall per snapshot: the backend set resolves "representative"
// to the selector's own, so unnamed and "representative" requests run the
// very same object.
TEST_F(EmbeddingServingTest, SnapshotRepresentativeIsTheSelectorsRecall) {
  for (const ServiceArtifacts* artifacts : {base_, embedded_a_}) {
    const auto snapshot =
        std::make_shared<const ArtifactSnapshot>(ServiceArtifacts(*artifacts),
                                                 1, 1);
    auto found = snapshot->backends.Find("representative");
    ASSERT_TRUE(found.ok()) << found.status().message();
    EXPECT_EQ(*found, &snapshot->selector.coarse_recall());
  }
}

TEST_F(EmbeddingServingTest, ReloadIntroducesEmbeddingsToARunningService) {
  auto service =
      SelectionService::Create(ServiceArtifacts(*base_), LightOptions());
  ASSERT_TRUE(service.ok()) << service.status().message();
  EXPECT_TRUE((*service)
                  ->Handle(EmbeddingRequest("mnli"))
                  .status.IsFailedPrecondition());

  ASSERT_TRUE((*service)->Reload(ServiceArtifacts(*embedded_a_)).ok());

  const SelectionResponse response =
      (*service)->Handle(EmbeddingRequest("mnli"));
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.artifact_version, 2u);
  ExpectSameAnswer(response, oracle_a_->at("mnli"));
}

// Open-loop clients hammer the embedding backend while two Reloads land
// mid-flight (a -> b -> a). Every answer must match the oracle of the
// version it reports — embeddings from one version must never rank a
// request admitted against another.
TEST_F(EmbeddingServingTest, SwapBetweenEmbeddingVersionsNeverMixes) {
  ServiceOptions options;
  options.worker_threads = 4;
  auto service_or = SelectionService::Create(ServiceArtifacts(*embedded_a_),
                                             options);
  ASSERT_TRUE(service_or.ok()) << service_or.status().message();
  SelectionService& service = **service_or;

  std::vector<std::string> targets;
  for (const auto& [target, unused] : *oracle_a_) targets.push_back(target);
  ASSERT_FALSE(targets.empty());

  constexpr int kClients = 8;
  std::atomic<bool> stop{false};
  // Latches, not sleeps: `warmed` opens once every client has answered
  // once (at version 1), `saw_b` once every client has answered at version
  // 2, so the second reload cannot land before artifact b was served to
  // all of them.
  std::latch warmed(kClients);
  std::latch saw_b(kClients);
  std::vector<std::vector<SelectionResponse>> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      bool counted_b = false;
      for (size_t i = 0;; ++i) {
        const std::string& target = targets[(c + i) % targets.size()];
        responses[c].push_back(
            Submit(service, EmbeddingRequest(target)).get());
        if (i == 0) warmed.count_down();
        if (!counted_b && responses[c].back().artifact_version == 2) {
          counted_b = true;
          saw_b.count_down();
        }
        if (stop.load()) break;
      }
    });
  }

  // Both Reloads land while every client is provably mid-loop.
  warmed.wait();
  ASSERT_TRUE(service.Reload(ServiceArtifacts(*embedded_b_)).ok());  // v2
  saw_b.wait();
  ASSERT_TRUE(service.Reload(ServiceArtifacts(*embedded_a_)).ok());  // v3
  stop.store(true);
  for (std::thread& client : clients) client.join();

  // Deterministic post-swap probe: the final version serves artifact a.
  const SelectionResponse probe =
      service.Handle(EmbeddingRequest(targets[0]));
  ASSERT_TRUE(probe.status.ok());
  EXPECT_EQ(probe.artifact_version, 3u);
  ExpectSameAnswer(probe, oracle_a_->at(targets[0]));

  size_t total = 0;
  std::set<uint64_t> versions_seen = {probe.artifact_version};
  for (int c = 0; c < kClients; ++c) {
    for (const SelectionResponse& response : responses[c]) {
      if (response.status.IsUnavailable()) continue;  // Backpressure.
      ++total;
      ASSERT_GE(response.artifact_version, 1u);
      ASSERT_LE(response.artifact_version, 3u);
      versions_seen.insert(response.artifact_version);
      EXPECT_EQ(response.recall_backend, "embedding");
      ExpectSameAnswer(response,
                       OracleFor(response.artifact_version)
                           .at(response.target));
    }
  }
  // Every client completed a request at version 1 and another at version 2.
  EXPECT_GE(total, static_cast<size_t>(kClients) * 2);
  // Version 1 (warm-up), version 2 (the saw_b latch) and version 3 (the
  // probe) are all guaranteed observed.
  EXPECT_EQ(versions_seen, (std::set<uint64_t>{1, 2, 3}));
  EXPECT_EQ(service.artifact_version(), 3u);
}

}  // namespace
}  // namespace serve
}  // namespace tps
