#include "util/trace.h"

#include <algorithm>
#include <chrono>

#include "util/logging.h"
#include "util/strings.h"

namespace qserv::util {

const char* spanComponent(SpanKind kind) {
  switch (kind) {
    case SpanKind::kParse:
    case SpanKind::kAnalyze:
    case SpanKind::kFrontendExecute:
    case SpanKind::kChunkPrune:
    case SpanKind::kRewrite:
    case SpanKind::kDispatch:
    case SpanKind::kFinalAggregation: return "czar";
    case SpanKind::kBatch:
    case SpanKind::kChunk:
    case SpanKind::kAttempt: return "dispatcher";
    case SpanKind::kBatchWrite:
    case SpanKind::kFrameRead: return "xrd";
    case SpanKind::kQueueWait:
    case SpanKind::kExec:
    case SpanKind::kSubchunks: return "worker";
    case SpanKind::kMerge: return "merger";
    case SpanKind::kRepairRun:
    case SpanKind::kRebalanceRun:
    case SpanKind::kCopy: return "repair";
  }
  return "unknown";
}

const char* spanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kParse: return "parse";
    case SpanKind::kAnalyze: return "analyze";
    case SpanKind::kFrontendExecute: return "frontend-execute";
    case SpanKind::kChunkPrune: return "chunk-prune";
    case SpanKind::kRewrite: return "rewrite";
    case SpanKind::kDispatch: return "dispatch";
    case SpanKind::kFinalAggregation: return "final-aggregation";
    case SpanKind::kBatch: return "batch";
    case SpanKind::kChunk: return "chunk";
    case SpanKind::kAttempt: return "attempt";
    case SpanKind::kBatchWrite: return "write /batch";
    case SpanKind::kFrameRead: return "read /bstream";
    case SpanKind::kQueueWait: return "queue-wait";
    case SpanKind::kExec: return "exec";
    case SpanKind::kSubchunks: return "subchunks";
    case SpanKind::kMerge: return "merge";
    case SpanKind::kRepairRun: return "repair-run";
    case SpanKind::kRebalanceRun: return "rebalance-run";
    case SpanKind::kCopy: return "copy";
  }
  return "unknown";
}

std::int64_t Trace::nowUs() {
  using namespace std::chrono;
  static const steady_clock::time_point epoch = steady_clock::now();
  return duration_cast<microseconds>(steady_clock::now() - epoch).count();
}

void Trace::reserve(std::size_t spans) {
  std::lock_guard lock(mutex_);
  spans_.reserve(spans);
}

void Trace::add(TraceSpan span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

void Trace::add(std::span<TraceSpan> spans) {
  std::lock_guard lock(mutex_);
  for (TraceSpan& span : spans) spans_.push_back(std::move(span));
}

std::size_t Trace::spanCount() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::vector<TraceSpan> Trace::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<std::string> Trace::components() const {
  std::vector<std::string> out;
  forEach([&](const TraceSpan& s) { out.push_back(spanComponent(s.kind)); });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

/// The span's Chrome event name: its kind's name and, when it has one, its
/// chunk.
std::string eventName(const TraceSpan& s) {
  std::string name = spanName(s.kind);
  if (s.chunk >= 0) name += " " + std::to_string(s.chunk);
  return name;
}

void addArg(std::string& out, const char* key, std::int64_t value) {
  out += format(",\"%s\":\"%lld\"", key, static_cast<long long>(value));
}

void addArg(std::string& out, const char* key, const std::string& value) {
  out += format(",\"%s\":\"%s\"", key, jsonEscape(value).c_str());
}

}  // namespace

std::string Trace::toChromeJson() const {
  std::vector<TraceSpan> spans = this->spans();
  // Stable timeline: earliest span first.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     return a.startUs < b.startUs;
                   });
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    if (!first) out += ",";
    first = false;
    const char* component = spanComponent(s.kind);
    out += format(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%lld,"
        "\"dur\":%lld,\"pid\":1,\"tid\":%llu",
        jsonEscape(eventName(s)).c_str(), component,
        static_cast<long long>(s.startUs),
        static_cast<long long>(std::max<std::int64_t>(s.endUs - s.startUs, 0)),
        static_cast<unsigned long long>(s.threadId));
    out += format(",\"args\":{\"component\":\"%s\"", component);
    if (!s.worker.empty()) addArg(out, "worker", s.worker);
    if (s.attempt != 0) addArg(out, "attempt", s.attempt);
    if (s.bytes != 0) addArg(out, "bytes", s.bytes);
    if (s.rows != 0) addArg(out, "rows", s.rows);
    if (s.count != 0) addArg(out, "count", s.count);
    for (const auto& [key, field] : kExecCounterFields) {
      std::uint64_t v = s.counters.*field;
      if (v != 0) addArg(out, key, static_cast<std::int64_t>(v));
    }
    if (!s.error.empty()) addArg(out, "error", s.error);
    out += "}}";
  }
  out += format(
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"traceId\":%llu,"
      "\"query\":\"%s\"}}",
      static_cast<unsigned long long>(id_), jsonEscape(label_).c_str());
  return out;
}

ScopedSpan::ScopedSpan(Trace* trace, SpanKind kind) : trace_(trace) {
  if (!trace_) return;
  span_.kind = kind;
  span_.threadId = threadId();
  span_.startUs = Trace::nowUs();
}

void ScopedSpan::fail(const Status& status) {
  if (trace_) span_.error = status.toString();
}

void ScopedSpan::end() {
  if (!trace_ || done_) return;
  done_ = true;
  span_.endUs = Trace::nowUs();
  trace_->add(std::move(span_));
}

TraceSpan& SpanBatch::add(SpanKind kind) {
  if (size_ == kCapacity) flush();
  TraceSpan& span = spans_[size_++];
  span = TraceSpan{};
  span.kind = kind;
  return span;
}

void SpanBatch::flush() {
  if (size_ == 0) return;
  trace_.add(std::span<TraceSpan>(spans_.data(), size_));
  size_ = 0;
}

}  // namespace qserv::util
