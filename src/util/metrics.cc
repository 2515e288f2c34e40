#include "util/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace qserv::util {

namespace {
/// Render a double for JSON: non-finite values (which %g would print as
/// "nan"/"inf" — invalid JSON) become null.
std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return format("%.17g", v);
}

/// Prometheus metric name from a dotted registry name: qserv_ prefix, any
/// character outside [a-zA-Z0-9_:] replaced with '_'.
std::string promName(const std::string& name) {
  std::string out = "qserv_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// Prometheus sample values: non-finite renders as NaN (allowed there).
std::string promNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return format("%.17g", v);
}

/// Bucket-bound labels: short form so le="0.005", not the 17-digit repr of
/// the nearest double (labels are identifiers, and scrapes group by them).
std::string promBound(double v) { return format("%g", v); }
}  // namespace

const std::vector<double>& Histogram::bucketBounds() {
  // 1 / 2.5 / 5 per decade, 1e-6 .. 5e8: covers microsecond latencies
  // through multi-hundred-MB byte counts in 45 buckets.
  static const std::vector<double>* bounds = [] {
    auto* b = new std::vector<double>;
    for (int exp = -6; exp <= 8; ++exp) {
      double decade = std::pow(10.0, exp);
      b->push_back(decade);
      b->push_back(2.5 * decade);
      b->push_back(5.0 * decade);
    }
    return b;
  }();
  return *bounds;
}

void Histogram::observe(double x) {
  const auto& bounds = bucketBounds();
  std::lock_guard lock(mutex_);
  stats_.add(x);
  if (bucketCounts_.empty()) bucketCounts_.assign(bounds.size(), 0);
  auto it = std::lower_bound(bounds.begin(), bounds.end(), x);
  if (it != bounds.end()) {
    ++bucketCounts_[static_cast<std::size_t>(it - bounds.begin())];
  }
  // x above the last bound counts only toward the implicit +Inf bucket.
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot s;
  s.count = stats_.count();
  if (s.count == 0) return s;
  s.sum = stats_.sum();
  s.mean = stats_.mean();
  s.min = stats_.min();
  s.max = stats_.max();
  s.cumulative.assign(bucketBounds().size(), 0);
  std::int64_t running = 0;
  for (std::size_t i = 0; i < bucketCounts_.size(); ++i) {
    running += bucketCounts_[i];
    s.cumulative[i] = running;
  }
  s.p50 = s.percentile(50);
  s.p90 = s.percentile(90);
  s.p95 = s.percentile(95);
  s.p99 = s.percentile(99);
  return s;
}

double Histogram::Snapshot::percentile(double p) const {
  if (count == 0) return std::nan("");
  const auto& bounds = bucketBounds();
  double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count);
  // First bucket whose cumulative count reaches the rank; past the last
  // bound only the implicit +Inf bucket (== count) remains.
  std::size_t i = 0;
  while (i < cumulative.size() && static_cast<double>(cumulative[i]) < rank) {
    ++i;
  }
  std::int64_t below = i == 0 ? 0 : cumulative[i - 1];
  std::int64_t in = (i < cumulative.size() ? cumulative[i] : count) - below;
  double lo = std::max(min, i == 0 ? min : bounds[i - 1]);
  double hi = std::min(max, i < bounds.size() ? bounds[i] : max);
  if (in <= 0 || hi <= lo) return std::clamp(lo, min, max);
  double frac = (rank - static_cast<double>(below)) / static_cast<double>(in);
  return lo + (hi - lo) * frac;
}

void Histogram::reset() {
  std::lock_guard lock(mutex_);
  stats_ = RunningStats();
  bucketCounts_.clear();
}

std::string MetricsSnapshot::toText() const {
  std::string out;
  for (const auto& [name, v] : counters) {
    out += format("%-44s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
  }
  for (const auto& [name, v] : gauges) {
    out += format("%-44s %lld\n", name.c_str(), static_cast<long long>(v));
  }
  for (const auto& [name, h] : histograms) {
    out += format(
        "%-44s n=%lld mean=%.4g min=%.4g max=%.4g p50=%.4g p90=%.4g "
        "p95=%.4g p99=%.4g\n",
        name.c_str(), static_cast<long long>(h.count), h.mean, h.min, h.max,
        h.p50, h.p90, h.p95, h.p99);
  }
  return out;
}

std::string MetricsSnapshot::toJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ",";
    first = false;
    out += format("\"%s\":%llu", jsonEscape(name).c_str(),
                  static_cast<unsigned long long>(v));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ",";
    first = false;
    out += format("\"%s\":%lld", jsonEscape(name).c_str(),
                  static_cast<long long>(v));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ",";
    first = false;
    out += format(
        "\"%s\":{\"count\":%lld,\"sum\":%s,\"mean\":%s,\"min\":%s,"
        "\"max\":%s,\"p50\":%s,\"p90\":%s,\"p95\":%s,\"p99\":%s}",
        jsonEscape(name).c_str(), static_cast<long long>(h.count),
        jsonNumber(h.sum).c_str(), jsonNumber(h.mean).c_str(),
        jsonNumber(h.min).c_str(), jsonNumber(h.max).c_str(),
        jsonNumber(h.p50).c_str(), jsonNumber(h.p90).c_str(),
        jsonNumber(h.p95).c_str(), jsonNumber(h.p99).c_str());
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshot::toPrometheus() const {
  std::string out;
  for (const auto& [name, v] : counters) {
    std::string p = promName(name);
    out += format("# TYPE %s counter\n%s %llu\n", p.c_str(), p.c_str(),
                  static_cast<unsigned long long>(v));
  }
  for (const auto& [name, v] : gauges) {
    std::string p = promName(name);
    out += format("# TYPE %s gauge\n%s %lld\n", p.c_str(), p.c_str(),
                  static_cast<long long>(v));
  }
  const auto& bounds = Histogram::bucketBounds();
  for (const auto& [name, h] : histograms) {
    std::string p = promName(name);
    out += format("# TYPE %s histogram\n", p.c_str());
    // Every finite bound is emitted on every scrape (an empty histogram's
    // snapshot has no cumulative vector — all buckets are 0): the set of
    // `le` series must stay stable across scrapes, or downstream
    // rate()/histogram_quantile() sees series appear and disappear as
    // observations move between buckets.
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      std::int64_t c = i < h.cumulative.size() ? h.cumulative[i] : 0;
      out += format("%s_bucket{le=\"%s\"} %lld\n", p.c_str(),
                    promBound(bounds[i]).c_str(), static_cast<long long>(c));
    }
    out += format("%s_bucket{le=\"+Inf\"} %lld\n", p.c_str(),
                  static_cast<long long>(h.count));
    out += format("%s_sum %s\n", p.c_str(), promNumber(h.sum).c_str());
    out += format("%s_count %lld\n", p.c_str(),
                  static_cast<long long>(h.count));
  }
  return out;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_) out.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) out.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    out.histograms[name] = h->snapshot();
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->set(0);
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace qserv::util
