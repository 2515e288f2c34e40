#include "util/metrics.h"

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

namespace qserv::util {
namespace {

// Tests use their own registry instances (not MetricsRegistry::instance())
// so parallel test shards and the instrumented production code never skew
// each other's counts.

TEST(Metrics, CounterGaugeBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name -> same instrument.
  EXPECT_EQ(&reg.counter("test.counter"), &c);

  Gauge& g = reg.gauge("test.gauge");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(Metrics, HistogramSnapshotStats) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.hist");
  for (int i = 1; i <= 100; ++i) h.observe(i);
  auto s = h.snapshot();
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  // Bucket contract: rank p/100 * count, linear inside the bucket. 1..100
  // fill (25,50] and (50,100] evenly, so the answers land on the ranks.
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_NEAR(s.sum, 5050.0, 1e-6);
}

TEST(Metrics, EmptyHistogramSnapshotIsZero) {
  MetricsRegistry reg;
  auto s = reg.histogram("test.empty").snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(Metrics, ConcurrentIncrementsLoseNoUpdates) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter& c = reg.counter("test.concurrent");
  Gauge& g = reg.gauge("test.concurrent_gauge");
  Histogram& h = reg.histogram("test.concurrent_hist");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        g.add(1);
        h.observe(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(g.value(), kThreads * kPerThread);
  EXPECT_EQ(h.snapshot().count, kThreads * kPerThread);
}

TEST(Metrics, SnapshotConsistentWhileHammered) {
  // Readers snapshotting mid-flight must see internally consistent
  // histograms (no torn stats) and monotonically growing counters.
  MetricsRegistry reg;
  Counter& c = reg.counter("test.hammered");
  Histogram& h = reg.histogram("test.hammered_hist");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.add();
        h.observe(2.5);
      }
    });
  }
  std::uint64_t lastCount = 0;
  for (int i = 0; i < 200; ++i) {
    auto snap = reg.snapshot();
    std::uint64_t count = snap.counters.at("test.hammered");
    EXPECT_GE(count, lastCount);
    lastCount = count;
    const auto& hs = snap.histograms.at("test.hammered_hist");
    if (hs.count > 0) {
      // All observations are 2.5: every derived stat must agree.
      EXPECT_DOUBLE_EQ(hs.min, 2.5);
      EXPECT_DOUBLE_EQ(hs.max, 2.5);
      EXPECT_DOUBLE_EQ(hs.mean, 2.5);
      EXPECT_DOUBLE_EQ(hs.p50, 2.5);
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();
}

TEST(Metrics, ConcurrentInstrumentCreation) {
  // First-use creation of the same names from many threads must yield one
  // instrument per name and no lost increments.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 1000; ++i) {
        reg.counter("test.created").add();
        reg.histogram("test.created_hist").observe(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter("test.created").value(), 8000u);
  EXPECT_EQ(reg.histogram("test.created_hist").snapshot().count, 8000);
}

TEST(Metrics, TextAndJsonExport) {
  MetricsRegistry reg;
  reg.counter("a.count").add(3);
  reg.gauge("b.level").set(-2);
  reg.histogram("c.lat").observe(0.5);
  auto snap = reg.snapshot();

  std::string text = snap.toText();
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("3"), std::string::npos);
  EXPECT_NE(text.find("b.level"), std::string::npos);

  std::string json = snap.toJson();
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"b.level\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"c.lat\":{\"count\":1"), std::string::npos);
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Metrics, ResetZeroesEverythingButKeepsHandles) {
  MetricsRegistry reg;
  Counter& c = reg.counter("r.count");
  c.add(7);
  reg.histogram("r.hist").observe(1.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.histogram("r.hist").snapshot().count, 0);
  c.add();  // handle still valid
  EXPECT_EQ(reg.counter("r.count").value(), 1u);
}

TEST(Metrics, ProcessWideInstanceIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::instance(), &MetricsRegistry::instance());
}

TEST(Metrics, SnapshotP95AndCumulativeBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.hist");
  for (int i = 1; i <= 100; ++i) h.observe(i);
  auto s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.p95, 95.0);  // read off the (50,100] bucket

  const auto& bounds = Histogram::bucketBounds();
  ASSERT_EQ(s.cumulative.size(), bounds.size());
  // Cumulative counts are monotone and, with every observation within the
  // bucketed range, the last entry covers all of them.
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_GE(s.cumulative[i], prev);
    prev = s.cumulative[i];
    // Spot-check against the exact definition: observations <= bound.
    std::int64_t expected = 0;
    for (int v = 1; v <= 100; ++v) {
      if (v <= bounds[i]) ++expected;
    }
    EXPECT_EQ(s.cumulative[i], expected) << "bound " << bounds[i];
  }
  EXPECT_EQ(s.cumulative.back(), s.count);

  // Observations beyond the last bound live only in the implicit +Inf
  // bucket: cumulative stays short of count.
  Histogram& big = reg.histogram("t.big");
  big.observe(bounds.back() * 10.0);
  auto sb = big.snapshot();
  EXPECT_EQ(sb.count, 1);
  EXPECT_EQ(sb.cumulative.back(), 0);
}

TEST(Metrics, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("czar.queries").add(5);
  reg.gauge("worker.w0.queue_depth").set(3);
  Histogram& h = reg.histogram("worker.w0.queue_wait_seconds");
  h.observe(0.004);
  h.observe(0.04);
  h.observe(400.0);
  std::string prom = reg.snapshot().toPrometheus();

  // Dotted names sanitize to qserv_* with underscores.
  EXPECT_NE(prom.find("# TYPE qserv_czar_queries counter"), std::string::npos);
  EXPECT_NE(prom.find("qserv_czar_queries 5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE qserv_worker_w0_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("qserv_worker_w0_queue_depth 3"), std::string::npos);

  // Histogram: cumulative le buckets, +Inf, _sum, _count.
  const std::string hname = "qserv_worker_w0_queue_wait_seconds";
  EXPECT_NE(prom.find("# TYPE " + hname + " histogram"), std::string::npos);
  EXPECT_NE(prom.find(hname + "_bucket{le=\"0.005\"} 1"), std::string::npos);
  EXPECT_NE(prom.find(hname + "_bucket{le=\"0.05\"} 2"), std::string::npos);
  EXPECT_NE(prom.find(hname + "_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find(hname + "_count 3"), std::string::npos);
  EXPECT_NE(prom.find(hname + "_sum"), std::string::npos);

  // Every finite bound appears on every scrape (a stable series set), even
  // past the last observation: one line per bound plus +Inf.
  std::size_t bucketLines = 0;
  const std::string bucketPrefix = hname + "_bucket{";
  for (std::size_t pos = 0;
       (pos = prom.find(bucketPrefix, pos)) != std::string::npos;
       pos += bucketPrefix.size()) {
    ++bucketLines;
  }
  EXPECT_EQ(bucketLines, Histogram::bucketBounds().size() + 1);
  EXPECT_NE(prom.find(hname + "_bucket{le=\"5e+08\"} 3"), std::string::npos);

  // Buckets are the one representation: no companion quantile summary
  // repeats what they already say.
  EXPECT_EQ(prom.find("_quantiles"), std::string::npos);

  // An empty histogram still exposes the full zeroed bucket series.
  MetricsRegistry reg2;
  (void)reg2.histogram("empty.hist");
  std::string prom2 = reg2.snapshot().toPrometheus();
  EXPECT_NE(prom2.find("qserv_empty_hist_bucket{le=\"1e-06\"} 0"),
            std::string::npos);
  EXPECT_NE(prom2.find("qserv_empty_hist_bucket{le=\"+Inf\"} 0"),
            std::string::npos);

  // Exposition format: every non-comment line is `name[{labels}] value`.
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    EXPECT_EQ(line.find_first_not_of(
                  "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                  "0123456789_:"),
              line.find_first_of("{ "))
        << line;
  }
}

TEST(Metrics, JsonEscapesNamesAndNonFiniteValues) {
  MetricsRegistry reg;
  reg.counter("weird\"name\\with\nstuff").add(1);
  Histogram& h = reg.histogram("inf.hist");
  h.observe(std::numeric_limits<double>::infinity());
  std::string json = reg.snapshot().toJson();

  // Raw quote/backslash/newline in the instrument name must be escaped.
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nstuff"), std::string::npos);
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control char";
  }
  // Non-finite stats render as null, never bare inf/nan (invalid JSON).
  EXPECT_EQ(json.find("inf,"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Metrics, ResetRacesObserversSafely) {
  // reset() may interleave with observe()/add() from other threads without
  // data races (exercised under TSan) or broken invariants after the dust
  // settles.
  MetricsRegistry reg;
  Counter& c = reg.counter("race.count");
  Gauge& g = reg.gauge("race.gauge");
  Histogram& h = reg.histogram("race.hist");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.add();
        g.add(1);
        h.observe(0.5);
      }
    });
  }
  for (int i = 0; i < 100; ++i) {
    reg.reset();
    auto s = h.snapshot();
    // Snapshot invariants hold mid-race: a non-empty snapshot has fully
    // sized cumulative buckets that never exceed its count.
    if (s.count > 0) {
      ASSERT_EQ(s.cumulative.size(), Histogram::bucketBounds().size());
      EXPECT_LE(s.cumulative.back(), s.count);
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0);
}

// Percentiles are read off the fixed buckets: rank p/100 * count,
// interpolated linearly inside its bucket, bucket edges clamped to
// [min, max]. These pin that contract.

TEST(Percentiles, MedianAndExtremes) {
  Histogram h;
  for (int i = 1; i <= 101; ++i) h.observe(i);
  auto s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 101.0);
  // Rank 50.5 falls 0.5 into (50,100], which holds 51..100: the exact
  // median 51 lies in the same bucket.
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.5);
}

TEST(Percentiles, InterpolatesBetweenSamples) {
  // Both samples share the (25,50] bucket, clamped to [30, 40].
  Histogram h;
  h.observe(30.0);
  h.observe(40.0);
  auto s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.percentile(50), 35.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 32.5);
}

TEST(Percentiles, EmptyReturnsNan) {
  Histogram h;
  EXPECT_TRUE(std::isnan(h.snapshot().percentile(50)));
}

TEST(Percentiles, AddAfterQuerySeesNewSamples) {
  Histogram h;
  h.observe(3.0);
  h.observe(1.0);
  EXPECT_DOUBLE_EQ(h.snapshot().percentile(100), 3.0);
  // A later observation moves the extremes and the buckets the next
  // snapshot reads.
  h.observe(0.5);
  auto s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.5);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.75);  // half way through (0.5,1]
  h.observe(9.0);
  EXPECT_DOUBLE_EQ(h.snapshot().percentile(100), 9.0);
}

TEST(Percentiles, QueryThroughConstReference) {
  Histogram h;
  h.observe(2.0);
  h.observe(1.0);
  const Histogram& ch = h;
  auto s = ch.snapshot();
  EXPECT_DOUBLE_EQ(s.p50, 1.0);  // rank 1 ends the (0.5,1] bucket
  EXPECT_EQ(s.count, 2);
}

TEST(Percentiles, ClampsOutOfRangeP) {
  Histogram h;
  h.observe(1.0);
  h.observe(2.0);
  auto s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.percentile(-5), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(200), 2.0);
}

/// Heap bytes in use by this process (arena plus mmapped blocks).
std::size_t heapBytesInUse() {
  struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

TEST(Metrics, HistogramMemoryAndSnapshotTimeAreFlat) {
  // Observations must not be stored: heap growth and snapshot time are the
  // same after 10^3 and 10^7 observations.
  auto measure = [](int n, std::size_t* grown, double* snapSeconds) {
    std::size_t before = heapBytesInUse();
    auto h = std::make_unique<Histogram>();
    for (int i = 0; i < n; ++i) {
      h->observe(1e-6 * static_cast<double>(i % 100000));
    }
    *grown = heapBytesInUse() - before;
    *snapSeconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      auto s = h->snapshot();
      std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
      *snapSeconds = std::min(*snapSeconds, dt.count());
      EXPECT_EQ(s.count, n);
    }
  };
  std::size_t smallBytes = 0, bigBytes = 0;
  double smallSecs = 0, bigSecs = 0;
  measure(1000, &smallBytes, &smallSecs);
  measure(10000000, &bigBytes, &bigSecs);
  EXPECT_LE(bigBytes, smallBytes + 4096) << "small " << smallBytes;
  // Storing samples would sort 10^7 doubles per snapshot (~1 s).
  EXPECT_LE(bigSecs, std::max(10 * smallSecs, 1e-3)) << "small " << smallSecs;
}

}  // namespace
}  // namespace qserv::util
