#include "util/logging.h"

#include <sstream>

#include <gtest/gtest.h>

namespace tps {
namespace {

/// Captures std::cerr for the scope of one test.
class CerrCapture {
 public:
  CerrCapture() : old_buffer_(std::cerr.rdbuf(captured_.rdbuf())) {}
  ~CerrCapture() { std::cerr.rdbuf(old_buffer_); }
  std::string text() const { return captured_.str(); }

 private:
  std::ostringstream captured_;
  std::streambuf* old_buffer_;
};

class LoggingTest : public testing::Test {};

TEST_F(LoggingTest, EmitsAtOrAboveThreshold) {
  CerrCapture capture;
  TPS_LOG(Info) << "visible info";
  TPS_LOG(Warning) << "visible warning";
  const std::string out = capture.text();
  EXPECT_NE(out.find("visible info"), std::string::npos);
  EXPECT_NE(out.find("visible warning"), std::string::npos);
  EXPECT_NE(out.find("[INFO"), std::string::npos);
  EXPECT_NE(out.find("[WARN"), std::string::npos);
}

TEST_F(LoggingTest, SuppressesBelowThreshold) {
  CerrCapture capture;
  TPS_LOG(Debug) << "hidden debug";
  TPS_LOG(Error) << "visible error";
  EXPECT_EQ(capture.text().find("hidden debug"), std::string::npos);
  EXPECT_NE(capture.text().find("visible error"), std::string::npos);
}

TEST_F(LoggingTest, MessageIncludesBasenameNotFullPath) {
  CerrCapture capture;
  TPS_LOG(Info) << "where am I";
  const std::string out = capture.text();
  EXPECT_NE(out.find("logging_test.cc:"), std::string::npos);
  EXPECT_EQ(out.find("/tests/"), std::string::npos);
}

TEST(CheckTest, PassingCheckIsSilentAndFatalAborts) {
  TPS_CHECK(1 + 1 == 2);  // Must not abort.
  EXPECT_DEATH({ TPS_CHECK(1 + 1 == 3); }, "Check failed");
  EXPECT_DEATH({ TPS_CHECK_OK(Status::Internal("boom")); }, "boom");
  TPS_CHECK_OK(Status::OK());  // Must not abort.
}

}  // namespace
}  // namespace tps
