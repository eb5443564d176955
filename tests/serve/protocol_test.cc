// NDJSON wire protocol round-trips, malformed-input rejection, and Status
// code transport. The protocol is the contract between tps_serve and any
// client, so every branch of the parser gets pinned here.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include "util/json.h"

namespace tps {
namespace serve {
namespace {

TEST(ParseRequestLineTest, MinimalSelect) {
  auto request = ParseRequestLine(R"({"target": "mnli"})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->command, WireCommand::kSelect);
  EXPECT_EQ(request->select.target, "mnli");
  // Defaults survive when fields are absent.
  EXPECT_EQ(request->select.top_k, 10u);
  EXPECT_EQ(request->select.threshold, 0.0);
  EXPECT_EQ(request->select.proxy, "leep");
  EXPECT_TRUE(request->select.proxies.empty());
  EXPECT_EQ(request->select.deadline_ms, 0.0);
  EXPECT_FALSE(request->select.want_trace);
}

TEST(ParseRequestLineTest, FullSelect) {
  auto request = ParseRequestLine(
      R"({"target": "boolq", "k": 5, "threshold": 0.4, "proxy": "nce",)"
      R"( "proxies": ["leep", "nce"], "deadline_ms": 250.5, "trace": true})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->select.target, "boolq");
  EXPECT_EQ(request->select.top_k, 5u);
  EXPECT_EQ(request->select.threshold, 0.4);
  EXPECT_EQ(request->select.proxy, "nce");
  ASSERT_EQ(request->select.proxies.size(), 2u);
  EXPECT_EQ(request->select.proxies[0], "leep");
  EXPECT_EQ(request->select.proxies[1], "nce");
  EXPECT_EQ(request->select.deadline_ms, 250.5);
  EXPECT_TRUE(request->select.want_trace);
}

TEST(ParseRequestLineTest, Commands) {
  EXPECT_EQ(ParseRequestLine(R"({"cmd": "ping"})")->command,
            WireCommand::kPing);
  EXPECT_EQ(ParseRequestLine(R"({"cmd": "stats"})")->command,
            WireCommand::kStats);
  EXPECT_EQ(ParseRequestLine(R"({"cmd": "shutdown"})")->command,
            WireCommand::kShutdown);
  EXPECT_FALSE(ParseRequestLine(R"({"cmd": "reboot"})").ok());
}

TEST(ParseRequestLineTest, ReloadFromStoreOrFiles) {
  auto from_store = ParseRequestLine(
      R"({"cmd": "reload", "store": "store.log", "id": "nlp"})");
  ASSERT_TRUE(from_store.ok()) << from_store.status().ToString();
  EXPECT_EQ(from_store->command, WireCommand::kReload);
  EXPECT_EQ(from_store->reload.store, "store.log");
  EXPECT_EQ(from_store->reload.id, "nlp");

  // The retired plain-file keys name no source: a reload reads only a
  // model store.
  auto from_files = ParseRequestLine(
      R"({"cmd": "reload", "matrix": "m.txt", "clustering": "c.txt"})");
  EXPECT_TRUE(from_files.status().IsInvalidArgument())
      << from_files.status().ToString();

  // No source at all is rejected up front, before touching the service.
  auto sourceless = ParseRequestLine(R"({"cmd": "reload"})");
  EXPECT_FALSE(sourceless.ok());
  EXPECT_TRUE(sourceless.status().IsInvalidArgument());
  // Wrong field type too.
  EXPECT_FALSE(ParseRequestLine(R"({"cmd": "reload", "store": 7})").ok());
}

TEST(ControlLinesTest, ReloadAck) {
  auto ack = json::Parse(ReloadAckLine(4));
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(*ack->GetBool("ok"));
  EXPECT_TRUE(*ack->GetBool("reloaded"));
  EXPECT_EQ(*ack->GetNumber("artifact_version"), 4.0);
}

TEST(ParseRequestLineTest, MalformedInputRejected) {
  // Each of these must fail with InvalidArgument, never crash or accept.
  const char* bad[] = {
      "",                                  // Empty line.
      "not json at all",                   // Not JSON.
      "[1, 2, 3]",                         // Not an object.
      R"("just a string")",                // Not an object.
      "{}",                                // Select with no target.
      R"({"target": ""})",                 // Empty target.
      R"({"target": 42})",                 // Wrong type.
      R"({"target": "mnli", "k": 0})",     // k must be >= 1.
      R"({"target": "mnli", "k": -3})",    // Negative k.
      R"({"target": "mnli", "k": "x"})",   // Wrong type.
      R"({"target": "mnli", "threshold": -0.5})",    // Negative threshold.
      R"({"target": "mnli", "deadline_ms": -1})",    // Negative deadline.
      R"({"target": "mnli", "proxies": "leep"})",    // Not an array.
      R"({"target": "mnli", "proxies": [1, 2]})",    // Non-string entries.
      R"({"target": "mnli", "trace": "yes"})",       // Non-bool trace.
      R"({"cmd": 7})",                     // Non-string cmd.
  };
  for (const char* line : bad) {
    auto request = ParseRequestLine(line);
    EXPECT_FALSE(request.ok()) << "accepted: " << line;
    if (!request.ok()) {
      EXPECT_TRUE(request.status().IsInvalidArgument()) << line;
    }
  }
}

TEST(ParseRequestLineTest, HugeCountsSaturateToAll) {
  // 2^64 and beyond have no size_t; they mean "all", never a wrapped or
  // undefined cast.
  auto huge = ParseRequestLine(
      R"({"target": "mnli", "k": 1e300, "nprobe": 18446744073709551616})");
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  EXPECT_EQ(huge->select.top_k, SIZE_MAX);
  EXPECT_EQ(huge->select.nprobe, SIZE_MAX);
  // The largest double below 2^64 still converts exactly.
  auto below = ParseRequestLine(
      R"({"target": "mnli", "k": 18446744073709549568, "nprobe": 3.9})");
  ASSERT_TRUE(below.ok()) << below.status().ToString();
  EXPECT_EQ(below->select.top_k, 18446744073709549568u);
  EXPECT_EQ(below->select.nprobe, 3u);
  // The client writes SIZE_MAX as its digits, which read back as "all".
  SelectionRequest all;
  all.target = "mnli";
  all.top_k = SIZE_MAX;
  all.nprobe = SIZE_MAX;
  auto round_trip = ParseRequestLine(RequestToLine(all));
  ASSERT_TRUE(round_trip.ok()) << round_trip.status().ToString();
  EXPECT_EQ(round_trip->select.top_k, SIZE_MAX);
  EXPECT_EQ(round_trip->select.nprobe, SIZE_MAX);
}

TEST(ParseRequestLineTest, DuplicateKeysKeepTheLastValue) {
  auto request = ParseRequestLine(
      R"({"target": 7, "k": "x", "t\u0061rget": "mnli", "k": 4})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->select.target, "mnli");
  EXPECT_EQ(request->select.top_k, 4u);
  auto last_bad = ParseRequestLine(R"({"target": "mnli", "target": 7})");
  ASSERT_FALSE(last_bad.ok());
  EXPECT_EQ(last_bad.status().message(),
            "missing or non-string member: target");
}

TEST(ParseRequestLineTest, UnknownKeysIgnored) {
  auto request = ParseRequestLine(
      R"({"target": "mnli", "future_field": {"a": 1}, "v": 2})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->select.target, "mnli");
}

TEST(RequestRoundTripTest, SelectSurvivesSerializeParse) {
  SelectionRequest request;
  request.target = "tweet_eval";
  request.top_k = 7;
  request.threshold = 0.25;
  request.proxy = "logme";
  request.proxies = {"leep", "knn"};
  request.deadline_ms = 1500.0;
  request.want_trace = true;

  auto parsed = ParseRequestLine(RequestToLine(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->command, WireCommand::kSelect);
  EXPECT_EQ(parsed->select.target, request.target);
  EXPECT_EQ(parsed->select.top_k, request.top_k);
  EXPECT_EQ(parsed->select.threshold, request.threshold);
  EXPECT_EQ(parsed->select.proxy, request.proxy);
  EXPECT_EQ(parsed->select.proxies, request.proxies);
  EXPECT_EQ(parsed->select.deadline_ms, request.deadline_ms);
  EXPECT_EQ(parsed->select.want_trace, request.want_trace);
}

TEST(ResponseRoundTripTest, SuccessSurvivesSerializeParse) {
  SelectionResponse response;
  response.status = Status::OK();
  response.target = "mnli";
  response.selected_model = "bert-large";
  response.selected_accuracy = 0.8375;
  response.training_epochs = 17.0;
  response.inference_epochs = 3.5;
  response.total_epochs = 20.5;
  response.survivors_per_stage = {10, 5, 2, 1};
  response.wall_ms = 1.25;
  response.cache_hits = 7;
  response.cache_misses = 3;
  response.artifact_version = 3;

  const std::string line = ResponseToLine(response);
  // One line per reply: the framing newline is added by the transport.
  EXPECT_EQ(line.find('\n'), std::string::npos);

  auto parsed = ParseResponseLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->status.ok());
  EXPECT_EQ(parsed->target, response.target);
  EXPECT_EQ(parsed->selected_model, response.selected_model);
  EXPECT_EQ(parsed->selected_accuracy, response.selected_accuracy);
  EXPECT_EQ(parsed->training_epochs, response.training_epochs);
  EXPECT_EQ(parsed->inference_epochs, response.inference_epochs);
  EXPECT_EQ(parsed->total_epochs, response.total_epochs);
  EXPECT_EQ(parsed->survivors_per_stage, response.survivors_per_stage);
  EXPECT_EQ(parsed->wall_ms, response.wall_ms);
  EXPECT_EQ(parsed->cache_hits, response.cache_hits);
  EXPECT_EQ(parsed->cache_misses, response.cache_misses);
  EXPECT_EQ(parsed->artifact_version, response.artifact_version);
  EXPECT_FALSE(parsed->has_trace);
}

TEST(ResponseRoundTripTest, ErrorTransportsStatusCode) {
  SelectionResponse response;
  response.status = Status::NotFound("unknown dataset 'xyz'");
  response.target = "xyz";
  const std::string line = ResponseToLine(response);
  // Error form is {"ok":false,...} with the code name.
  EXPECT_NE(line.find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(line.find("NotFound"), std::string::npos);

  // The client surfaces the transported error as the call's own Status.
  auto parsed = ParseResponseLine(line);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsNotFound());
  EXPECT_NE(parsed.status().message().find("unknown dataset"),
            std::string::npos);
}

TEST(ResponseRoundTripTest, EveryCodeNameRestores) {
  const Status statuses[] = {
      Status::InvalidArgument("a"), Status::NotFound("b"),
      Status::AlreadyExists("c"),   Status::OutOfRange("d"),
      Status::FailedPrecondition("e"), Status::Internal("f"),
      Status::Unimplemented("g"),   Status::IOError("h"),
      Status::DeadlineExceeded("i"), Status::Unavailable("j"),
  };
  for (const Status& status : statuses) {
    auto parsed = ParseResponseLine(ErrorToLine(status));
    ASSERT_FALSE(parsed.ok()) << status.ToString();
    EXPECT_EQ(parsed.status().code(), status.code()) << status.ToString();
    EXPECT_EQ(parsed.status().message(), status.message());
  }
}

TEST(ResponseRoundTripTest, TraceEmbedsAsJsonNotString) {
  SelectionResponse response;
  response.status = Status::OK();
  response.target = "mnli";
  response.selected_model = "m";
  response.has_trace = true;
  response.trace.target = "mnli";

  const std::string line = ResponseToLine(response);
  auto doc = json::Parse(line);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* trace = doc->Find("trace");
  ASSERT_NE(trace, nullptr);
  // The trace is a JSON object spliced into the reply, not an escaped
  // string blob.
  ASSERT_TRUE(trace->is_object());

  auto parsed = ParseResponseLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->has_trace);
  EXPECT_EQ(parsed->trace.target, "mnli");
}

TEST(ControlLinesTest, PingStatsShutdown) {
  auto pong = json::Parse(PongLine());
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(*pong->GetBool("ok"));
  EXPECT_TRUE(*pong->GetBool("pong"));

  ServiceStats stats;
  stats.queue_depth = 3;
  stats.artifact_version = 2;
  stats.reloads = 1;
  stats.admitted = 10;
  stats.rejected = 2;
  stats.completed = 7;
  stats.deadline_exceeded = 1;
  stats.errors = 4;
  stats.cache_hits = 100;
  stats.cache_misses = 50;
  stats.cache_evictions = 5;
  stats.cache_entries = 45;
  auto parsed = json::Parse(StatsToLine(stats));
  ASSERT_TRUE(parsed.ok());
  const json::Value* object = parsed->Find("stats");
  ASSERT_NE(object, nullptr);
  EXPECT_EQ(*object->GetNumber("queue_depth"), 3.0);
  EXPECT_EQ(*object->GetNumber("artifact_version"), 2.0);
  EXPECT_EQ(*object->GetNumber("reloads"), 1.0);
  EXPECT_EQ(*object->GetNumber("admitted"), 10.0);
  EXPECT_EQ(*object->GetNumber("rejected"), 2.0);
  EXPECT_EQ(*object->GetNumber("completed"), 7.0);
  EXPECT_EQ(*object->GetNumber("deadline_exceeded"), 1.0);
  EXPECT_EQ(*object->GetNumber("errors"), 4.0);
  EXPECT_EQ(*object->GetNumber("cache_hits"), 100.0);
  EXPECT_EQ(*object->GetNumber("cache_misses"), 50.0);
  EXPECT_EQ(*object->GetNumber("cache_evictions"), 5.0);
  EXPECT_EQ(*object->GetNumber("cache_entries"), 45.0);

  auto ack = json::Parse(ShutdownAckLine());
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(*ack->GetBool("shutting_down"));
}

TEST(ParseResponseLineTest, MalformedReplyRejected) {
  EXPECT_FALSE(ParseResponseLine("").ok());
  EXPECT_FALSE(ParseResponseLine("garbage").ok());
  EXPECT_FALSE(ParseResponseLine("[]").ok());
  // Missing "ok" key.
  EXPECT_FALSE(ParseResponseLine(R"({"target": "mnli"})").ok());
  // Unknown code name falls back to Internal rather than crashing or
  // silently reading as OK.
  auto unknown = ParseResponseLine(
      R"({"ok": false, "code": "NoSuchCode", "error": "x"})");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInternal);

  // Counts must be integers in [0, 2^64), the range their casts are
  // defined on; anything else is refused, naming the key.
  const char* const kKeys[] = {"survivors", "artifact_version", "cache_hits",
                               "cache_misses"};
  const auto reply = [&](int bad_key, const std::string& bad) {
    const auto count = [&](int key) { return key == bad_key ? bad : "3"; };
    return R"({"ok":true,"target":"mnli","selected":"m","accuracy":0.5,)"
           R"("training_epochs":1,"inference_epochs":1,"total_epochs":2,)"
           R"("survivors":[2,)" + count(0) + R"(],"artifact_version":)" +
           count(1) + R"(,"wall_ms":1,"cache_hits":)" + count(2) +
           R"(,"cache_misses":)" + count(3) + "}";
  };
  for (int key = 0; key < 4; ++key) {
    SCOPED_TRACE(kKeys[key]);
    // The largest double below 2^64 is still a count.
    auto largest = ParseResponseLine(reply(key, "18446744073709549568"));
    ASSERT_TRUE(largest.ok()) << largest.status().message();
    for (const char* bad : {"-1", "1.5", "18446744073709551616", "1e300"}) {
      auto parsed = ParseResponseLine(reply(key, bad));
      ASSERT_TRUE(parsed.status().IsInvalidArgument()) << bad;
      EXPECT_NE(parsed.status().message().find(kKeys[key]),
                std::string::npos)
          << parsed.status().message();
    }
  }
}

// Counts go out as their decimal digits and come back from that text, so
// values a double would round (past 2^53) or an int64_t would turn
// negative (from 2^63) round-trip exactly.
TEST(ResponseRoundTripTest, CountsRoundTripExactly) {
  for (const uint64_t count :
       {(uint64_t{1} << 53) + 1, uint64_t{1} << 63, ~uint64_t{0}}) {
    SCOPED_TRACE(count);
    SelectionResponse response;
    response.status = Status::OK();
    response.target = "mnli";
    response.selected_model = "m";
    response.survivors_per_stage = {count, 1};
    response.artifact_version = count;
    response.cache_hits = count;
    response.cache_misses = count - 1;

    const std::string line = ResponseToLine(response);
    EXPECT_NE(line.find("\"cache_hits\":" + std::to_string(count)),
              std::string::npos)
        << line;
    auto parsed = ParseResponseLine(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->survivors_per_stage, response.survivors_per_stage);
    EXPECT_EQ(parsed->artifact_version, count);
    EXPECT_EQ(parsed->cache_hits, count);
    EXPECT_EQ(parsed->cache_misses, count - 1);

    EXPECT_EQ(ReloadAckLine(count),
              R"({"ok":true,"reloaded":true,"artifact_version":)" +
                  std::to_string(count) + "}");
  }
}

}  // namespace
}  // namespace serve
}  // namespace tps
