/// \file metrics.h
/// \brief Process-wide registry of named counters, gauges, and latency
/// histograms.
///
/// Every Qserv layer records its behaviour here under dotted names
/// ("worker.queue_wait_seconds", "xrd.redirector.cache_hits", ...) so one
/// snapshot shows where a workload's time and work went. Handles returned by
/// the registry are stable for the life of the process — instrument once,
/// hammer from any thread:
///
///   static util::Counter& tasks =
///       util::MetricsRegistry::instance().counter("worker.tasks");
///   tasks.add();
///
/// Counters and gauges are single atomics (safe everywhere); histograms take
/// a short lock per observation. snapshot() is consistent per-instrument and
/// exports as aligned text or JSON (see DESIGN.md "Observability").
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.h"

namespace qserv::util {

/// Monotonically increasing event/quantity count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depth, busy slots); may go up and down.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Latency/size distribution: running moments + fixed log-spaced buckets
/// (1-2.5-5 decades, 1e-6 .. 5e8). Memory and snapshot cost are fixed by
/// the bucket count, not the number of observations; percentiles are read
/// off the buckets (see Snapshot::percentile).
class Histogram {
 public:
  /// Upper bounds of the fixed buckets (ascending). Values above the last
  /// bound land only in the implicit +Inf bucket (== count).
  static const std::vector<double>& bucketBounds();

  struct Snapshot {
    std::int64_t count = 0;
    double sum = 0.0, mean = 0.0, min = 0.0, max = 0.0;
    double p50 = 0.0, p90 = 0.0, p95 = 0.0, p99 = 0.0;
    /// Cumulative count per bucketBounds() entry: observations <= bound.
    std::vector<std::int64_t> cumulative;

    /// \p p in [0,100] (clamped). The value at rank p/100 * count,
    /// interpolated linearly inside its bucket, whose edges are clamped to
    /// [min, max]; so p0 is min, p100 is max, and any other answer lies in
    /// the bucket holding the exact one. NaN when empty.
    double percentile(double p) const;
  };

  void observe(double x);
  Snapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  RunningStats stats_;
  std::vector<std::int64_t> bucketCounts_;  ///< per-bucket (non-cumulative)
};

/// Point-in-time copy of every instrument in a registry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;

  /// Aligned human-readable listing (one instrument per line).
  std::string toText() const;
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,...}}}
  /// Names are JSON-escaped; non-finite values render as null.
  std::string toJson() const;
  /// Prometheus text exposition format. Dotted names become
  /// `qserv_<name with non-alphanumerics as _>`; counters/gauges emit one
  /// sample, histograms emit a cumulative `_bucket{le=...}` series for
  /// every fixed bound on every scrape (stable series set) plus
  /// `_sum`/`_count`. Quantiles are the scraper's to read off the buckets.
  std::string toPrometheus() const;
};

/// Named-instrument registry. Instruments are created on first use and never
/// destroyed, so returned references stay valid for the process lifetime.
class MetricsRegistry {
 public:
  /// The process-wide registry every Qserv component records into.
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Zero all counters and gauges and clear histograms (tests/benches).
  /// Existing handles remain valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace qserv::util
