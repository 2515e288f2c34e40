#include "util/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <thread>
#include <vector>

namespace qserv::util {
namespace {

TEST(Trace, ScopedSpanRecordsOnEnd) {
  auto trace = std::make_shared<Trace>(7, "SELECT 1");
  {
    ScopedSpan span(trace, "czar", "parse");
    span.attr("chunks", std::int64_t{42}).attr("mode", "full");
    EXPECT_EQ(trace->spanCount(), 0u);  // not recorded until end
  }
  ASSERT_EQ(trace->spanCount(), 1u);
  auto spans = trace->spans();
  EXPECT_EQ(spans[0].component, "czar");
  EXPECT_EQ(spans[0].name, "parse");
  EXPECT_GE(spans[0].endUs, spans[0].startUs);
  ASSERT_EQ(spans[0].attrs.size(), 2u);
  EXPECT_EQ(spans[0].attrs[0].first, "chunks");
  EXPECT_EQ(spans[0].attrs[0].second, "42");
  EXPECT_EQ(spans[0].attrs[1].second, "full");
}

TEST(Trace, ExplicitEndIsIdempotent) {
  auto trace = std::make_shared<Trace>(1, "q");
  ScopedSpan span(trace, "worker", "exec");
  span.end();
  span.end();  // destructor will also call end()
  EXPECT_EQ(trace->spanCount(), 1u);
}

TEST(Trace, NullTraceIsNoOp) {
  ScopedSpan span(nullptr, "czar", "parse");
  span.attr("k", "v").attr("n", std::int64_t{1});
  span.end();  // must not crash
}

TEST(Trace, NestedSpansCoverChildWindows) {
  auto trace = std::make_shared<Trace>(2, "nested");
  {
    ScopedSpan outer(trace, "czar", "dispatch");
    {
      ScopedSpan inner(trace, "dispatcher", "chunk 11");
      ScopedSpan innermost(trace, "xrd", "write /batch/11");
    }
  }
  auto spans = trace->spans();  // completion order: innermost first
  ASSERT_EQ(spans.size(), 3u);
  const TraceSpan& innermost = spans[0];
  const TraceSpan& inner = spans[1];
  const TraceSpan& outer = spans[2];
  EXPECT_EQ(outer.component, "czar");
  EXPECT_EQ(inner.component, "dispatcher");
  // A child span's window nests inside its parent's.
  EXPECT_LE(outer.startUs, inner.startUs);
  EXPECT_GE(outer.endUs, inner.endUs);
  EXPECT_LE(inner.startUs, innermost.startUs);
  EXPECT_GE(inner.endUs, innermost.endUs);
  auto components = trace->components();
  ASSERT_EQ(components.size(), 3u);  // sorted distinct
  EXPECT_EQ(components[0], "czar");
  EXPECT_EQ(components[1], "dispatcher");
  EXPECT_EQ(components[2], "xrd");
}

TEST(Trace, ConcurrentSpanRecording) {
  auto trace = std::make_shared<Trace>(3, "mt");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(trace, "worker", "exec");
        span.attr("i", static_cast<std::int64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(trace->spanCount(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(Trace, ChromeJsonExport) {
  auto trace = std::make_shared<Trace>(9, "SELECT \"x\" FROM t");
  {
    ScopedSpan a(trace, "czar", "parse");
  }
  {
    ScopedSpan b(trace, "worker", "exec 1234");
    b.attr("worker", std::int64_t{3});
  }
  std::string json = trace->toChromeJson();
  // Chrome trace_event envelope.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"worker\""), std::string::npos);
  EXPECT_NE(json.find("\"worker\":\"3\""), std::string::npos);
  EXPECT_NE(json.find("\"traceId\":9"), std::string::npos);
  // The query label is escaped, not emitted raw.
  EXPECT_NE(json.find("SELECT \\\"x\\\" FROM t"), std::string::npos);
  // Balanced structure (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Trace, RegistryCreateFindRelease) {
  auto& reg = TraceRegistry::instance();
  std::size_t before = reg.size();
  TracePtr trace = reg.create("registry test");
  EXPECT_EQ(reg.size(), before + 1);
  EXPECT_GT(trace->id(), 0u);
  EXPECT_EQ(reg.find(trace->id()), trace);

  // Ids are process-unique, never reused.
  TracePtr other = reg.create("another");
  EXPECT_NE(other->id(), trace->id());

  reg.release(trace->id());
  reg.release(other->id());
  EXPECT_EQ(reg.size(), before);
  EXPECT_EQ(reg.find(trace->id()), nullptr);
  // The released trace lives on for its owners.
  EXPECT_EQ(trace->label(), "registry test");
}

TEST(Trace, HeaderRoundTrip) {
  std::string header = traceHeaderLine(123456789);
  EXPECT_EQ(header, "-- QSERV-TRACE: 123456789\n");
  auto id = parseTraceHeader(header + "SELECT * FROM Object_1234;");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 123456789u);
}

TEST(Trace, HeaderParsingScansAllLeadingComments) {
  // The trace header may come before or after other comment headers
  // (e.g. -- SUBCHUNKS:); both orders must parse.
  std::string afterSubchunks =
      "-- SUBCHUNKS: 1,2,3\n-- QSERV-TRACE: 42\nSELECT 1;";
  auto id = parseTraceHeader(afterSubchunks);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 42u);

  std::string beforeSubchunks =
      "-- QSERV-TRACE: 42\n-- SUBCHUNKS: 1,2,3\nSELECT 1;";
  id = parseTraceHeader(beforeSubchunks);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 42u);
}

TEST(Trace, HeaderParsingRejectsNonHeaders) {
  EXPECT_FALSE(parseTraceHeader("SELECT 1;").has_value());
  // Comments stop at the first non-comment line: a trace marker inside the
  // SQL body (e.g. a string literal) is not a header.
  EXPECT_FALSE(
      parseTraceHeader("SELECT 1;\n-- QSERV-TRACE: 7\n").has_value());
  EXPECT_FALSE(parseTraceHeader("-- QSERV-TRACE: nope\nSELECT 1;").has_value());
  EXPECT_FALSE(parseTraceHeader("").has_value());
  EXPECT_FALSE(parseTraceHeader("-- QSERV-TRACE: ").has_value());
}

TEST(Trace, HeaderParsingRejectsGarbageAndOverflow) {
  // Mixed digits and letters anywhere in the id reject the whole header.
  EXPECT_FALSE(parseTraceHeader("-- QSERV-TRACE: 12x4\nSELECT 1;").has_value());
  EXPECT_FALSE(parseTraceHeader("-- QSERV-TRACE: -7\nSELECT 1;").has_value());
  EXPECT_FALSE(parseTraceHeader("-- QSERV-TRACE: 1 2\nSELECT 1;").has_value());

  // uint64 max parses; one more (and anything longer) must not wrap around
  // to a small id that would attach spans to an unrelated query.
  auto max = parseTraceHeader("-- QSERV-TRACE: 18446744073709551615\nSELECT 1;");
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(*max, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(
      parseTraceHeader("-- QSERV-TRACE: 18446744073709551616\nSELECT 1;")
          .has_value());
  EXPECT_FALSE(
      parseTraceHeader("-- QSERV-TRACE: 99999999999999999999\nSELECT 1;")
          .has_value());
}

TEST(Trace, HeaderParsingFirstDuplicateWins) {
  auto id = parseTraceHeader(
      "-- QSERV-TRACE: 11\n-- QSERV-TRACE: 22\nSELECT 1;");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 11u);
}

TEST(Trace, ChromeJsonEscapesControlCharacters) {
  auto trace = std::make_shared<Trace>(10, "label with \"quotes\"\\\n\ttab");
  {
    ScopedSpan s(trace, "czar", "name\nwith\x01控");
    s.attr("key\"x", "val\\ue\n");
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
