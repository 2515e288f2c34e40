#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "util/md5.h"
#include "xrd/fault_injector.h"
#include "xrd/file_store.h"

namespace qserv::xrd {
namespace {

/// The path EchoPlugin answers a write of \p payload at.
std::string echoPath(const std::string& payload) {
  return "/echo/" + util::Md5::hex(payload);
}

/// Minimal inner plugin: every write is immediately answered with an echo
/// of its payload at echoPath(payload).
class EchoPlugin : public OfsPlugin {
 public:
  util::Status writeFile(const std::string& /*path*/,
                         std::string payload) override {
    store_.publish(echoPath(payload), "echo:" + payload);
    return util::Status::ok();
  }

  util::Result<std::string> readFile(const std::string& path) override {
    return store_.waitFor(path, std::chrono::milliseconds(200));
  }

  std::vector<std::int32_t> exportedChunks() const override { return {1}; }

 private:
  FileStore store_;
};

FaultPlan parsePlan(const std::string& spec) {
  auto plan = FaultPlan::parse(spec);
  EXPECT_TRUE(plan.isOk()) << plan.status().toString();
  return plan.isOk() ? *plan : FaultPlan{};
}

TEST(FaultPlan, ParsesFullSpec) {
  auto plan = parsePlan(
      "seed=42; write:p=0.25,fail=internal; read:p=0.5,corrupt=truncate; "
      "read:after=100,down; write:path=/batch/7,delay=5");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.rules.size(), 4u);
  EXPECT_EQ(plan.rules[0].op, FaultOp::kWrite);
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.25);
  EXPECT_TRUE(plan.rules[0].fail);
  EXPECT_EQ(plan.rules[0].errorCode, util::ErrorCode::kInternal);
  EXPECT_TRUE(plan.rules[1].corrupt);
  EXPECT_TRUE(plan.rules[1].truncate);
  EXPECT_EQ(plan.rules[2].afterOps, 100);
  EXPECT_TRUE(plan.rules[2].down);
  EXPECT_EQ(plan.rules[3].pathPattern, "/batch/7");
  EXPECT_EQ(plan.rules[3].delay, std::chrono::milliseconds(5));
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::parse("bogus").isOk());
  EXPECT_FALSE(FaultPlan::parse("write:p=2,fail").isOk());       // p out of range
  EXPECT_FALSE(FaultPlan::parse("write:fail,down").isOk());      // two actions
  EXPECT_FALSE(FaultPlan::parse("write:p=0.5").isOk());          // no action
  EXPECT_FALSE(FaultPlan::parse("write:corrupt").isOk());        // corrupt write
  EXPECT_FALSE(FaultPlan::parse("read:fail=nonsense").isOk());   // bad code
  EXPECT_FALSE(FaultPlan::parse("flush:fail").isOk());           // bad op
}

TEST(FaultPlan, EmptySpecMeansNoInjection) {
  EXPECT_TRUE(parsePlan("").empty());
  EXPECT_TRUE(parsePlan("seed=9").empty());
}

TEST(FaultyOfsPlugin, FailRuleInjectsChosenErrorCode) {
  FaultyOfsPlugin faulty(std::make_shared<EchoPlugin>(),
                         parsePlan("write:fail=internal"), "w0");
  auto s = faulty.writeFile("/w/1", "SELECT 1");
  EXPECT_EQ(s.code(), util::ErrorCode::kInternal);
  EXPECT_NE(s.message().find("injected"), std::string::npos);
  EXPECT_EQ(faulty.injectedWriteFaults(), 1u);
}

TEST(FaultyOfsPlugin, PathPatternScopesTheRule) {
  FaultyOfsPlugin faulty(std::make_shared<EchoPlugin>(),
                         parsePlan("write:path=/w/7,fail"), "w0");
  EXPECT_TRUE(faulty.writeFile("/w/1", "q").isOk());
  EXPECT_FALSE(faulty.writeFile("/w/7", "q").isOk());
}

TEST(FaultyOfsPlugin, AfterOpsArmsLate) {
  FaultyOfsPlugin faulty(std::make_shared<EchoPlugin>(),
                         parsePlan("write:after=2,fail"), "w0");
  EXPECT_TRUE(faulty.writeFile("/w/1", "a").isOk());
  EXPECT_TRUE(faulty.writeFile("/w/1", "b").isOk());
  EXPECT_FALSE(faulty.writeFile("/w/1", "c").isOk());
}

TEST(FaultyOfsPlugin, DownRuleIsPermanentUntilRevive) {
  FaultyOfsPlugin faulty(std::make_shared<EchoPlugin>(),
                         parsePlan("write:after=1,down"), "w0");
  EXPECT_TRUE(faulty.writeFile("/w/1", "a").isOk());
  EXPECT_EQ(faulty.writeFile("/w/1", "b").code(),
            util::ErrorCode::kUnavailable);
  EXPECT_TRUE(faulty.isDown());
  // Down blankets every operation, including reads of other paths.
  EXPECT_EQ(faulty.readFile("/r/" + std::string(32, 'a')).status().code(),
            util::ErrorCode::kUnavailable);
  faulty.revive();
  EXPECT_FALSE(faulty.isDown());
  EXPECT_TRUE(faulty.writeFile("/w/1", "c").isOk());
}

TEST(FaultyOfsPlugin, CorruptionMutatesTheReadPayload) {
  std::string query = "SELECT 2";
  std::string resultPath = echoPath(query);
  FaultyOfsPlugin faulty(std::make_shared<EchoPlugin>(),
                         parsePlan("read:corrupt"), "w0");
  ASSERT_TRUE(faulty.writeFile("/w/1", query).isOk());
  auto r = faulty.readFile(resultPath);
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_NE(*r, "echo:" + query);  // bits flipped
  EXPECT_EQ(r->size(), std::string("echo:" + query).size());
  EXPECT_EQ(faulty.injectedCorruptions(), 1u);
}

TEST(FaultyOfsPlugin, TruncationHalvesTheReadPayload) {
  std::string query = "SELECT 3";
  std::string resultPath = echoPath(query);
  FaultyOfsPlugin faulty(std::make_shared<EchoPlugin>(),
                         parsePlan("read:corrupt=truncate"), "w0");
  ASSERT_TRUE(faulty.writeFile("/w/1", query).isOk());
  auto r = faulty.readFile(resultPath);
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ(r->size(), std::string("echo:" + query).size() / 2);
}

TEST(FaultyOfsPlugin, DelayRuleSleepsAndCounts) {
  FaultyOfsPlugin faulty(std::make_shared<EchoPlugin>(),
                         parsePlan("write:delay=10"), "w0");
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(faulty.writeFile("/w/1", "q").isOk());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(10));
  EXPECT_EQ(faulty.injectedDelays(), 1u);
}

TEST(FaultyOfsPlugin, ProbabilisticDecisionsAreSeedDeterministic) {
  auto run = [](const std::string& id) {
    FaultyOfsPlugin faulty(std::make_shared<EchoPlugin>(),
                           parsePlan("seed=99; write:p=0.5,fail"), id);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(faulty.writeFile("/w/1", "q").isOk());
    }
    return outcomes;
  };
  auto a = run("w0");
  auto b = run("w0");
  EXPECT_EQ(a, b);  // same plan seed + same server id => same fault schedule
  auto other = run("w1");
  EXPECT_NE(a, other);  // per-server streams decorrelate
  // And p=0.5 actually fires a plausible fraction of the time.
  int fails = static_cast<int>(std::count(a.begin(), a.end(), false));
  EXPECT_GT(fails, 16);
  EXPECT_LT(fails, 48);
}

}  // namespace
}  // namespace qserv::xrd
