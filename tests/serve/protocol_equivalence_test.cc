// The production NDJSON codec (json::VisitMembers requests, json::Writer
// replies) against the DOM codec it replaced, kept as the test oracle in
// tests/serve/reference_protocol.*:
//
//  1. Every reply line — select (with and without a trace), error, ping,
//     stats, reload ack, shutdown ack — and every client request line is
//     byte-identical over 100k+ randomized values, including control
//     bytes, quotes, -0.0, +-2^53, non-finite numbers and subnormals.
//  2. Every request line — valid, mutated or truncated, with duplicate
//     keys, nested unknown values and "proxies" arrays — parses to the
//     same WireRequest fields or fails with the exact same Status.
//
// Seeded and deterministic; in `-L codec`, which CI runs under ASan.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"
#include "serve/reference_protocol.h"
#include "util/rng.h"

namespace tps {
namespace serve {
namespace {

constexpr int kResponses = 100'000;
constexpr int kRequestLines = 120'000;

/// Doubles where a formatter is most likely to differ from %.17g and the
/// integer rule: signed zero, the 2^53 boundary, the %g fixed/exponent
/// switch points, subnormals, extremes and non-finite values.
double SpecialDouble(Rng& rng) {
  static const double kSpecial[] = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, -2.5, 9007199254740992.0,
      -9007199254740992.0, 9007199254740991.0, -9007199254740991.0,
      9007199254740994.0, 9223372036854775808.0, -9223372036854775808.0,
      1e16, 1e17, 1e21, 1e22, 1e-4, 1e-5, 123456.789, 0.83041234567891234,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), 2.2250738585072009e-308,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  return kSpecial[rng.UniformInt(uint64_t{std::size(kSpecial)})];
}

double RandomDouble(Rng& rng) {
  switch (rng.UniformInt(uint64_t{5})) {
    case 0:
      return SpecialDouble(rng);
    case 1: {  // Any bit pattern: subnormals, NaN payloads, huge exponents.
      const uint64_t bits = rng.Next();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return d;
    }
    case 2:
      return static_cast<double>(rng.UniformInt(int64_t{-1000000},
                                                int64_t{1000000}));
    case 3:
      return rng.Uniform() * std::pow(10.0, rng.UniformInt(int64_t{-30},
                                                           int64_t{30}));
    default:
      return rng.Uniform();
  }
}

/// Counts over the whole uint64_t range, with the edges where a double
/// stops holding every integer (2^53) and where int64_t ends (2^63).
uint64_t RandomCount(Rng& rng) {
  switch (rng.UniformInt(uint64_t{5})) {
    case 0:
      return rng.Next();
    case 1:
      return (uint64_t{1} << 53) + rng.UniformInt(uint64_t{5}) - 2;
    case 2:
      return (rng.Bernoulli(0.5) ? uint64_t{1} << 63 : 0) -
             rng.UniformInt(uint64_t{3});
    default:
      return rng.UniformInt(uint64_t{100});
  }
}

/// Bytes a string escaper must get right: quotes, backslashes, every
/// control byte, DEL and non-ASCII bytes, mixed with plain text.
std::string RandomString(Rng& rng, size_t max_length = 16) {
  static const char kPlain[] = "abcxyz_-. /09";
  std::string s;
  const size_t length = rng.UniformInt(uint64_t{max_length + 1});
  for (size_t i = 0; i < length; ++i) {
    switch (rng.UniformInt(uint64_t{6})) {
      case 0:
        s.push_back(static_cast<char>(rng.UniformInt(uint64_t{0x20})));
        break;
      case 1:
        s.push_back("\"\\/\x7f"[rng.UniformInt(uint64_t{4})]);
        break;
      case 2:
        s.push_back(static_cast<char>(0x80 + rng.UniformInt(uint64_t{0x80})));
        break;
      default:
        s.push_back(kPlain[rng.UniformInt(uint64_t{sizeof(kPlain) - 1})]);
    }
  }
  return s;
}

Status RandomStatus(Rng& rng) {
  const uint64_t codes = static_cast<uint64_t>(StatusCode::kUnavailable) + 1;
  const auto code = static_cast<StatusCode>(rng.UniformInt(codes));
  return Status(code, RandomString(rng, 40));
}

SelectionTrace RandomTrace(Rng& rng) {
  SelectionTrace trace;
  trace.target = RandomString(rng);
  trace.domain = rng.Bernoulli(0.5) ? "NLP" : RandomString(rng, 4);
  const size_t scored = rng.UniformInt(uint64_t{4});
  for (size_t i = 0; i < scored; ++i) {
    trace.recall.scored.push_back(
        {rng.UniformInt(uint64_t{1000}),
         static_cast<int>(rng.UniformInt(uint64_t{32})), RandomDouble(rng)});
    trace.recall.ranked.push_back({rng.UniformInt(uint64_t{1000}),
                                   RandomDouble(rng), RandomDouble(rng),
                                   RandomDouble(rng), rng.Bernoulli(0.5)});
    trace.recall.recalled.push_back(rng.UniformInt(uint64_t{1000}));
  }
  trace.recall.proxies_computed = scored;
  trace.recall.inference_epochs = RandomDouble(rng);
  trace.recall.wall_ms = RandomDouble(rng);
  const size_t stages = rng.UniformInt(uint64_t{3});
  for (size_t s = 0; s < stages; ++s) {
    TraceStage stage;
    stage.stage = static_cast<int>(s);
    stage.entrants = {rng.UniformInt(uint64_t{1000}),
                      rng.UniformInt(uint64_t{1000})};
    stage.epochs_charged = RandomDouble(rng);
    if (rng.Bernoulli(0.5)) {
      stage.prunes.push_back({rng.UniformInt(uint64_t{1000}),
                              rng.UniformInt(uint64_t{1000}),
                              RandomDouble(rng), RandomDouble(rng),
                              RandomDouble(rng), RandomDouble(rng),
                              RandomDouble(rng)});
    }
    stage.survivors = {rng.UniformInt(uint64_t{1000})};
    trace.stages.push_back(std::move(stage));
  }
  trace.fine_wall_ms = RandomDouble(rng);
  trace.selected_model = rng.UniformInt(uint64_t{1000});
  trace.selected_accuracy = RandomDouble(rng);
  trace.training_epochs = RandomDouble(rng);
  trace.total_epochs = RandomDouble(rng);
  return trace;
}

SelectionResponse RandomResponse(Rng& rng) {
  SelectionResponse response;
  if (rng.Bernoulli(0.1)) {
    response.status = RandomStatus(rng);
    return response;  // The error form, whatever else is set.
  }
  response.status = Status::OK();
  response.target = RandomString(rng);
  response.selected_model = RandomString(rng, 24);
  response.selected_accuracy = RandomDouble(rng);
  response.training_epochs = RandomDouble(rng);
  response.inference_epochs = RandomDouble(rng);
  response.total_epochs = RandomDouble(rng);
  const size_t stages = rng.UniformInt(uint64_t{6});
  for (size_t s = 0; s < stages; ++s) {
    response.survivors_per_stage.push_back(RandomCount(rng));
  }
  response.artifact_version = RandomCount(rng);
  response.wall_ms = RandomDouble(rng);
  response.cache_hits = RandomCount(rng);
  response.cache_misses = RandomCount(rng);
  if (rng.Bernoulli(0.3)) response.index_backend = RandomString(rng, 6);
  if (rng.Bernoulli(0.3)) response.recall_backend = RandomString(rng, 6);
  if (rng.Bernoulli(0.15)) {
    response.has_trace = true;
    response.trace = RandomTrace(rng);
  }
  return response;
}

SelectionRequest RandomRequest(Rng& rng) {
  SelectionRequest request;
  request.target = RandomString(rng);
  request.top_k = RandomCount(rng);
  request.threshold = RandomDouble(rng);
  request.proxy = RandomString(rng, 6);
  const size_t proxies = rng.UniformInt(uint64_t{3});
  for (size_t i = 0; i < proxies; ++i) {
    request.proxies.push_back(RandomString(rng, 6));
  }
  request.deadline_ms = rng.Bernoulli(0.5) ? RandomDouble(rng) : 0.0;
  request.want_trace = rng.Bernoulli(0.5);
  request.nprobe = rng.Bernoulli(0.5) ? RandomCount(rng) : 0;
  if (rng.Bernoulli(0.5)) request.recall_backend = RandomString(rng, 6);
  return request;
}

TEST(ProtocolEquivalenceTest, ReplyLinesAreByteIdentical) {
  Rng rng(0xC0DEC);
  int traced = 0;
  int errors = 0;
  std::string appended = "prefix";  // The append form keeps what is there.
  for (int i = 0; i < kResponses; ++i) {
    const SelectionResponse response = RandomResponse(rng);
    traced += response.has_trace;
    errors += !response.status.ok();
    const std::string expected = reference::ResponseToLine(response);
    ASSERT_EQ(ResponseToLine(response), expected) << "response " << i;
    appended.resize(6);
    AppendResponse(response, &appended);
    ASSERT_EQ(appended, "prefix" + expected) << "response " << i;

    const Status status = RandomStatus(rng);
    ASSERT_EQ(ErrorToLine(status), reference::ErrorToLine(status));
    appended.resize(6);
    AppendError(status, &appended);
    ASSERT_EQ(appended, "prefix" + reference::ErrorToLine(status));

    ServiceStats stats;
    stats.queue_depth = RandomCount(rng);
    stats.artifact_version = RandomCount(rng);
    stats.reloads = RandomCount(rng);
    stats.admitted = RandomCount(rng);
    stats.rejected = RandomCount(rng);
    stats.completed = RandomCount(rng);
    stats.deadline_exceeded = RandomCount(rng);
    stats.errors = RandomCount(rng);
    stats.cache_hits = RandomCount(rng);
    stats.cache_misses = RandomCount(rng);
    stats.cache_evictions = RandomCount(rng);
    stats.cache_entries = RandomCount(rng);
    ASSERT_EQ(StatsToLine(stats), reference::StatsToLine(stats));
    const uint64_t version = RandomCount(rng);
    ASSERT_EQ(ReloadAckLine(version), reference::ReloadAckLine(version));

    const SelectionRequest request = RandomRequest(rng);
    ASSERT_EQ(RequestToLine(request), reference::RequestToLine(request))
        << "request " << i;
  }
  EXPECT_EQ(ErrorToLine(Status::OK()), reference::ErrorToLine(Status::OK()));
  EXPECT_EQ(PongLine(), reference::PongLine());
  EXPECT_EQ(ShutdownAckLine(), reference::ShutdownAckLine());
  // Both branches were exercised often enough to mean something.
  EXPECT_GT(traced, kResponses / 10);
  EXPECT_GT(errors, kResponses / 20);
}

// The client reads back every count of a reply exactly.
TEST(ProtocolEquivalenceTest, ReplyCountsRoundTripExactly) {
  Rng rng(0xC0C0A);
  for (int i = 0; i < kResponses; ++i) {
    SelectionResponse response;
    response.status = Status::OK();
    const size_t stages = rng.UniformInt(uint64_t{6});
    for (size_t s = 0; s < stages; ++s) {
      response.survivors_per_stage.push_back(RandomCount(rng));
    }
    response.artifact_version = RandomCount(rng);
    response.cache_hits = RandomCount(rng);
    response.cache_misses = RandomCount(rng);
    auto parsed = ParseResponseLine(ResponseToLine(response));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed->survivors_per_stage, response.survivors_per_stage);
    ASSERT_EQ(parsed->artifact_version, response.artifact_version);
    ASSERT_EQ(parsed->cache_hits, response.cache_hits);
    ASSERT_EQ(parsed->cache_misses, response.cache_misses);
  }
}

/// Every field of a parse outcome, doubles by bit pattern, so two outcomes
/// are equal exactly when these strings are.
std::string Describe(const StatusOr<WireRequest>& outcome) {
  if (!outcome.ok()) return "error " + outcome.status().ToString();
  const WireRequest& r = *outcome;
  auto bits = [](double d) {
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return std::to_string(b);
  };
  std::string out = "command " + std::to_string(static_cast<int>(r.command));
  const SelectionRequest& s = r.select;
  out += " target[" + s.target + "] k " + std::to_string(s.top_k) +
         " threshold " + bits(s.threshold) + " proxy[" + s.proxy + "]";
  for (const std::string& p : s.proxies) out += " proxies[" + p + "]";
  out += " deadline " + bits(s.deadline_ms) + " trace " +
         std::to_string(s.want_trace) + " nprobe " + std::to_string(s.nprobe) +
         " backend[" + s.recall_backend + "]";
  const ArtifactPaths& p = r.reload;
  out += " domain " + std::to_string(static_cast<int>(p.domain)) + " store[" +
         p.store + "] id[" + p.id + "]";
  return out;
}

/// Valid and near-valid lines to mutate: every command, every select key,
/// duplicates (last wins, even over a bad first value), escaped keys,
/// nested unknown values, "proxies" arrays of mixed types, huge and
/// overflowing numbers, non-object documents and over-deep nesting.
std::vector<std::string> SeedLines(Rng& rng) {
  std::vector<std::string> lines = {
      R"({"cmd":"ping"})",
      R"({"cmd":"stats","target":7})",
      R"({"cmd":"shutdown"})",
      R"({"cmd":"select","target":"mnli"})",
      R"({"cmd":"reload","store":"s.log","id":"nlp"})",
      R"({"cmd":"reload","matrix":"m.txt","clustering":"c.txt",)"
      R"("index":"i","embeddings":"e"})",
      R"({"cmd":"reload","store":"s.log","store":3})",
      R"({"cmd":"reload","id":"x"})",
      R"({"cmd":"reboot"})",
      R"({"cmd":["ping"]})",
      R"({"cmd":"ping","cmd":"stats"})",
      R"({"target":"a","target":"b","k":3,"k":"x"})",
      R"({"k":"x","k":2,"target":"mnli","target":"boolq"})",
      R"({"target":7,"target":"mnli","k":2,"trace":true})",
      R"({"target":"mnli","x":{"a":[1,{"b":null}],"c":"é"},"y":[[[]]],)"
      R"("z":{}})",
      R"({"target":"mnli","proxies":["leep",1,"nce"]})",
      R"({"target":"mnli","proxies":[]})",
      R"({"proxies":["a","b\n"],"target":"x","proxies":["c"]})",
      R"({"target":"mnli","proxies":[["leep"]]})",
      R"({"target":"mnli","proxies":{"a":"b"}})",
      R"({"target":"mnli","k":1e300,"nprobe":18446744073709551616,)"
      R"("deadline_ms":1e13})",
      R"({"target":"mnli","nprobe":1e400})",
      R"({"target":"mnli","k":0.5,"threshold":-0.0,"deadline_ms":-0.0})",
      R"({"target":"mnli","k":-1e-320,"nprobe":-0.0})",
      R"({"target":"mnli","threshold":-1,"k":0})",
      R"( { "target" : "mnli" , "trace" : true , "recall_backend" : "x" } )",
      "{\"target\":\"mnli\",\t\"trace\":false,\r\n\"x\":null,\"y\":true}",
      R"({"target":"a\"b\\c\n\u0001\/\ud800"})",
      R"({"target":"","k":"x"})",
      R"({"target":"mnli","trace":"yes"})",
      R"({"target":"mnli","trace":null})",
      R"({"target":"mnli","proxy":5})",
      R"({"target":"mnli","recall_backend":false})",
      R"({})",
      R"([1,2])",
      R"("mnli")",
      "3",
      "null",
      "",
      "{\"target\":\"mnli\",\"x\":" + std::string(120, '[') +
          std::string(120, ']') + "}",
      "{\"target\":\"mnli\",\"x\":" + std::string(95, '[') +
          std::string(95, ']') + "}",
  };
  for (int i = 0; i < 64; ++i) {
    lines.push_back(RequestToLine(RandomRequest(rng)));
  }
  return lines;
}

/// One to three edits: a random-byte flip, insert or delete, a
/// JSON-significant byte inserted, a truncation, a duplicated slice, or a
/// digit or whitespace edit that often keeps the line valid.
std::string Mutate(std::string line, Rng& rng) {
  static const char kSignificant[] = "{}[]\":,\\ 0123456789eE.-+ntfu";
  const int edits = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
  for (int e = 0; e < edits; ++e) {
    const size_t pos = rng.UniformInt(uint64_t{line.size() + 1});
    switch (rng.UniformInt(uint64_t{8})) {
      case 6:
        if (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
          line[pos] = static_cast<char>('0' + rng.UniformInt(uint64_t{10}));
        }
        break;
      case 7:
        line.insert(pos, 1, " \t\r\n"[rng.UniformInt(uint64_t{4})]);
        break;
      case 0:
        if (pos < line.size()) {
          line[pos] = static_cast<char>(rng.UniformInt(uint64_t{256}));
        }
        break;
      case 1:
        line.insert(pos, 1,
                    static_cast<char>(rng.UniformInt(uint64_t{256})));
        break;
      case 2:
        if (pos < line.size()) line.erase(pos, 1);
        break;
      case 3:
        line.insert(pos, 1,
                    kSignificant[rng.UniformInt(
                        uint64_t{sizeof(kSignificant) - 1})]);
        break;
      case 4:
        line.resize(pos);
        break;
      default: {
        const size_t length = rng.UniformInt(uint64_t{line.size() - pos + 1});
        line.insert(rng.UniformInt(uint64_t{line.size() + 1}),
                    line.substr(pos, length));
      }
    }
  }
  return line;
}

TEST(ProtocolEquivalenceTest, RequestLinesParseToTheSameOutcome) {
  Rng rng(0x11E5);
  const std::vector<std::string> seeds = SeedLines(rng);
  int accepted = 0;
  int mismatches = 0;
  auto check = [&](const std::string& line) {
    const StatusOr<WireRequest> expected = reference::ParseRequestLine(line);
    accepted += expected.ok();
    const std::string want = Describe(expected);
    const std::string got = Describe(ParseRequestLine(line));
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "line: " << line << "\n  want: " << want
                    << "\n  got:  " << got;
    }
  };
  for (const std::string& seed : seeds) {
    check(seed);
    for (size_t cut = 0; cut < seed.size(); ++cut) check(seed.substr(0, cut));
  }
  for (int i = 0; i < kRequestLines; ++i) {
    check(Mutate(seeds[rng.UniformInt(uint64_t{seeds.size()})], rng));
  }
  EXPECT_EQ(mismatches, 0);
  // Enough lines parsed clean (and enough failed) to cover both paths.
  EXPECT_GT(accepted, kRequestLines / 10);
  EXPECT_LT(accepted, kRequestLines * 9 / 10);
}

}  // namespace
}  // namespace serve
}  // namespace tps
