#include "util/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace qserv::util {
namespace {

TEST(Trace, ScopedSpanRecordsOnEnd) {
  auto trace = std::make_shared<Trace>(7, "SELECT 1");
  {
    ScopedSpan span(trace.get(), SpanKind::kChunkPrune);
    span->count = 42;
    span->worker = "w1";
    EXPECT_EQ(trace->spanCount(), 0u);  // not recorded until end
  }
  ASSERT_EQ(trace->spanCount(), 1u);
  auto spans = trace->spans();
  EXPECT_EQ(spans[0].kind, SpanKind::kChunkPrune);
  EXPECT_GE(spans[0].endUs, spans[0].startUs);
  EXPECT_EQ(spans[0].count, 42);
  EXPECT_EQ(spans[0].worker, "w1");
  EXPECT_EQ(spans[0].chunk, -1);
  EXPECT_TRUE(spans[0].error.empty());
}

TEST(Trace, ExplicitEndIsIdempotent) {
  auto trace = std::make_shared<Trace>(1, "q");
  ScopedSpan span(trace.get(), SpanKind::kExec);
  span.end();
  span.end();  // destructor will also call end()
  EXPECT_EQ(trace->spanCount(), 1u);
}

TEST(Trace, NullTraceIsNoOp) {
  ScopedSpan span(nullptr, SpanKind::kParse);
  EXPECT_FALSE(span);
  span->count = 1;
  span.fail(Status::internal("ignored"));
  span.end();  // must not crash
}

TEST(Trace, FailSetsErrorOnlyOnFailure) {
  auto trace = std::make_shared<Trace>(4, "q");
  {
    ScopedSpan ok(trace.get(), SpanKind::kBatchWrite);
    ScopedSpan bad(trace.get(), SpanKind::kFrameRead);
    bad.fail(Status::unavailable("worker gone"));
  }
  auto spans = trace->spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, SpanKind::kFrameRead);  // completion order
  EXPECT_NE(spans[0].error.find("worker gone"), std::string::npos);
  EXPECT_TRUE(spans[1].error.empty());
}

TEST(Trace, NestedSpansCoverChildWindows) {
  auto trace = std::make_shared<Trace>(2, "nested");
  {
    ScopedSpan outer(trace.get(), SpanKind::kDispatch);
    {
      ScopedSpan inner(trace.get(), SpanKind::kBatch);
      ScopedSpan innermost(trace.get(), SpanKind::kBatchWrite);
    }
  }
  auto spans = trace->spans();  // completion order: innermost first
  ASSERT_EQ(spans.size(), 3u);
  const TraceSpan& innermost = spans[0];
  const TraceSpan& inner = spans[1];
  const TraceSpan& outer = spans[2];
  EXPECT_EQ(outer.kind, SpanKind::kDispatch);
  EXPECT_EQ(inner.kind, SpanKind::kBatch);
  // A child span's window nests inside its parent's.
  EXPECT_LE(outer.startUs, inner.startUs);
  EXPECT_GE(outer.endUs, inner.endUs);
  EXPECT_LE(inner.startUs, innermost.startUs);
  EXPECT_GE(inner.endUs, innermost.endUs);
  auto components = trace->components();
  ASSERT_EQ(components.size(), 3u);  // sorted distinct
  EXPECT_EQ(components[0], spanComponent(SpanKind::kDispatch));
  EXPECT_EQ(components[1], spanComponent(SpanKind::kBatch));
  EXPECT_EQ(components[2], spanComponent(SpanKind::kBatchWrite));
}

TEST(Trace, EveryKindHasAComponentAndAName) {
  for (int k = 0; k <= static_cast<int>(SpanKind::kCopy); ++k) {
    auto kind = static_cast<SpanKind>(k);
    EXPECT_STRNE(spanComponent(kind), "unknown") << k;
    EXPECT_STRNE(spanName(kind), "unknown") << k;
  }
}

TEST(Trace, ConcurrentSpanRecording) {
  auto trace = std::make_shared<Trace>(3, "mt");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(trace.get(), SpanKind::kExec);
        span->rows = i;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(trace->spanCount(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(Trace, SpanBatchAppendsOnFlushAndWhenFull) {
  auto trace = std::make_shared<Trace>(5, "batch");
  {
    SpanBatch batch(*trace);
    batch.add(SpanKind::kFrameRead).chunk = 1;
    batch.add(SpanKind::kChunk).chunk = 1;
    EXPECT_EQ(trace->spanCount(), 0u);  // gathered, not yet appended
    batch.flush();
    EXPECT_EQ(trace->spanCount(), 2u);
    for (std::size_t i = 0; i <= SpanBatch::kCapacity; ++i) {
      batch.add(SpanKind::kMerge).rows = static_cast<std::int64_t>(i);
    }
    // The add past capacity appended the full batch first.
    EXPECT_EQ(trace->spanCount(), 2u + SpanBatch::kCapacity);
  }
  // The destructor appends the rest.
  auto spans = trace->spans();
  ASSERT_EQ(spans.size(), 3u + SpanBatch::kCapacity);
  EXPECT_EQ(spans[0].kind, SpanKind::kFrameRead);
  // Reused slots start from a fresh span.
  EXPECT_EQ(spans.back().kind, SpanKind::kMerge);
  EXPECT_EQ(spans.back().chunk, -1);
  EXPECT_EQ(spans.back().rows,
            static_cast<std::int64_t>(SpanBatch::kCapacity));
}

TEST(Trace, ChromeJsonExport) {
  auto trace = std::make_shared<Trace>(9, "SELECT \"x\" FROM t");
  {
    ScopedSpan a(trace.get(), SpanKind::kParse);
  }
  TraceSpan exec;
  exec.kind = SpanKind::kExec;
  exec.chunk = 1234;
  exec.worker = "w3";
  exec.rows = 17;
  exec.counters.vectorizedScans = 2;
  trace->add(exec);
  std::string json = trace->toChromeJson();
  // Chrome trace_event envelope.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"" + std::string(spanName(SpanKind::kParse)) +
                      "\""),
            std::string::npos);
  // A chunk span's name carries its chunk id.
  EXPECT_NE(json.find("\"name\":\"" + std::string(spanName(SpanKind::kExec)) +
                      " 1234\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"" +
                      std::string(spanComponent(SpanKind::kExec)) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"worker\":\"w3\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":\"17\""), std::string::npos);
  EXPECT_NE(json.find("\"vectorizedScans\":\"2\""), std::string::npos);
  // Zero counters and unset fields are left out.
  EXPECT_EQ(json.find("zoneMapPrunes"), std::string::npos);
  EXPECT_EQ(json.find("\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"traceId\":9"), std::string::npos);
  // The query label is escaped, not emitted raw.
  EXPECT_NE(json.find("SELECT \\\"x\\\" FROM t"), std::string::npos);
  // Balanced structure (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Trace, ChromeJsonEscapesControlCharacters) {
  auto trace = std::make_shared<Trace>(10, "label with \"quotes\"\\\n\ttab");
  {
    ScopedSpan s(trace.get(), SpanKind::kCopy);
    s->worker = "w\"x\n";
    s.fail(Status::internal("val\\ue\n\x01控"));
  }
  std::string json = trace->toChromeJson();
  // No raw control characters may survive into the JSON output.
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control char in JSON";
  }
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Trace, ClockIsMonotonic) {
  std::int64_t a = Trace::nowUs();
  std::int64_t b = Trace::nowUs();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace qserv::util
