/// \file trace.h
/// \brief Per-query distributed tracing (czar -> dispatcher -> xrd -> worker
/// -> merger), opt-in per query.
///
/// A Trace collects typed spans from every component a query touches. The
/// czar creates one only for a query someone asked about (profiling on, or
/// EXPLAIN ANALYZE); an untraced query builds, formats and locks nothing.
/// A traced batch carries a nonzero trace id in its request envelope
/// (qserv/batch_codec.h), and the worker answers each chunk of it with its
/// own timings in a fixed-width block inside the result frame
/// (qserv/observables_codec.h). The dispatcher's collector turns that block
/// into worker spans and adds them, with its own spans for the frame, to
/// the query's trace. Nothing is looked up out of band.
///
/// A span is a kind plus fixed fields; its component and name are rendered
/// only when the trace is exported (toChromeJson) or summarized
/// (qserv/query_profile.h). All spans share one process clock
/// (microseconds since first use), so a finished trace renders as a single
/// aligned timeline: toChromeJson() emits Chrome trace_event format that
/// opens directly in chrome://tracing or https://ui.perfetto.dev.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace qserv::util {

/// What a span measures. The component a kind belongs to and its rendered
/// name come from spanComponent()/spanName().
enum class SpanKind : std::uint8_t {
  // czar: the stages of one query, in pipeline order (count: chunks after
  // pruning for kChunkPrune, chunk queries for kRewrite).
  kParse,
  kAnalyze,
  kFrontendExecute,
  kChunkPrune,
  kRewrite,
  kDispatch,
  kFinalAggregation,
  // dispatcher
  kBatch,    ///< one batch's write and stream: worker, attempt,
             ///< count = chunks, bytes = frame bytes read
  kChunk,    ///< one chunk from its batch write to delivery or final
             ///< failure: chunk, worker, attempt = attempts, bytes = result
  kAttempt,  ///< one retry of a chunk as a batch of one: chunk, worker,
             ///< attempt = its number
  // xrd
  kBatchWrite,  ///< the batch request write: worker, bytes
  kFrameRead,   ///< one result-frame read: worker, chunk, bytes
  // worker, from the in-band worker block
  kQueueWait,  ///< arrival to claim: chunk, worker
  kExec,       ///< execution: chunk, worker, rows = result rows, counters
  kSubchunks,  ///< subchunk table builds: chunk, worker, count = subchunks
  // merger
  kMerge,  ///< one chunk result appended to the merge table: chunk, rows
  // repair control plane
  kRepairRun,     ///< count = copies made
  kRebalanceRun,  ///< worker = destination, count = moves made
  kCopy,          ///< chunk, worker = destination, attempt, bytes
};

/// Layer a kind belongs to: czar, dispatcher, xrd, worker, merger, repair.
const char* spanComponent(SpanKind kind);
/// The kind's name, e.g. "parse", "chunk", "queue-wait".
const char* spanName(SpanKind kind);

/// Executor counters of one chunk execution (kExec spans; unscaled local
/// work, as in the worker.* metrics).
struct ExecCounters {
  std::uint64_t vectorizedScans = 0;
  std::uint64_t vectorRowsIn = 0;
  std::uint64_t vectorRowsOut = 0;
  std::uint64_t columnarAggregates = 0;
  std::uint64_t columnarAggRows = 0;
  std::uint64_t zoneMapPrunes = 0;
  std::uint64_t zoneMapRowsSkipped = 0;
  std::uint64_t spatialJoins = 0;
  std::uint64_t zoneJoinZonesBuilt = 0;
  std::uint64_t zoneJoinZonesProbed = 0;
  std::uint64_t zoneJoinCandidates = 0;
  std::uint64_t zoneJoinPairsPruned = 0;
};

/// Every ExecCounters field with its name, in declaration order: what the
/// worker block encodes and the Chrome export renders.
inline constexpr std::pair<const char*, std::uint64_t ExecCounters::*>
    kExecCounterFields[] = {
        {"vectorizedScans", &ExecCounters::vectorizedScans},
        {"vectorRowsIn", &ExecCounters::vectorRowsIn},
        {"vectorRowsOut", &ExecCounters::vectorRowsOut},
        {"columnarAggregates", &ExecCounters::columnarAggregates},
        {"columnarAggRows", &ExecCounters::columnarAggRows},
        {"zoneMapPrunes", &ExecCounters::zoneMapPrunes},
        {"zoneMapRowsSkipped", &ExecCounters::zoneMapRowsSkipped},
        {"spatialJoins", &ExecCounters::spatialJoins},
        {"zoneJoinZonesBuilt", &ExecCounters::zoneJoinZonesBuilt},
        {"zoneJoinZonesProbed", &ExecCounters::zoneJoinZonesProbed},
        {"zoneJoinCandidates", &ExecCounters::zoneJoinCandidates},
        {"zoneJoinPairsPruned", &ExecCounters::zoneJoinPairsPruned},
};

/// One timed operation inside a trace. Which fields a kind sets is listed
/// with SpanKind; the rest stay at their defaults.
struct TraceSpan {
  SpanKind kind = SpanKind::kParse;
  std::int32_t chunk = -1;   ///< chunk id; -1 = none
  std::int32_t attempt = 0;  ///< 0 = n/a
  std::int64_t startUs = 0;  ///< trace-clock microseconds (Trace::nowUs)
  std::int64_t endUs = 0;
  std::uint64_t threadId = 0;
  std::int64_t bytes = 0;
  std::int64_t rows = 0;
  std::int64_t count = 0;
  std::string worker;  ///< worker id; empty = none
  std::string error;   ///< the failure; empty on success
  ExecCounters counters;

  double durationSeconds() const {
    return static_cast<double>(endUs - startUs) * 1e-6;
  }
};

/// Thread-safe span collection for one user query.
class Trace {
 public:
  Trace(std::uint64_t id, std::string label)
      : id_(id), label_(std::move(label)) {}

  std::uint64_t id() const { return id_; }
  const std::string& label() const { return label_; }

  /// Make room for \p spans spans, so recording them does not reallocate.
  void reserve(std::size_t spans);
  void add(TraceSpan span);
  /// Append every span of \p spans under one lock (moving them out).
  void add(std::span<TraceSpan> spans);
  std::size_t spanCount() const;
  /// Snapshot of all spans recorded so far, in completion order.
  std::vector<TraceSpan> spans() const;
  /// Call \p fn on every span recorded so far, in completion order, under
  /// the trace's lock (no copy); \p fn must not record into this trace.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    std::lock_guard lock(mutex_);
    for (const TraceSpan& span : spans_) fn(span);
  }
  /// Distinct components seen, sorted.
  std::vector<std::string> components() const;

  /// Chrome trace_event JSON ("ph":"X" complete events). Loadable in
  /// chrome://tracing and Perfetto.
  std::string toChromeJson() const;

  /// Microseconds on the shared process trace clock (steady, starts at 0 on
  /// first use). All spans in all traces use this clock.
  static std::int64_t nowUs();

 private:
  const std::uint64_t id_;
  const std::string label_;
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
};

using TracePtr = std::shared_ptr<Trace>;

/// RAII span: starts timing at construction, records into the trace at
/// destruction (or end()). With a null trace every operation is a no-op and
/// nothing is timed or recorded; fields written through -> are dropped.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, SpanKind kind);
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Is a trace recording this span?
  explicit operator bool() const { return trace_ != nullptr; }
  TraceSpan* operator->() { return &span_; }
  /// Mark the span failed with \p status (no-op when untraced).
  void fail(const Status& status);

  /// Record the span now instead of at destruction.
  void end();

 private:
  Trace* trace_;
  TraceSpan span_;
  bool done_ = false;
};

/// Spans one thread gathers and then appends to a trace under one lock:
/// a dispatcher collector records each result frame's spans this way.
/// Fixed capacity, no heap allocation of its own.
class SpanBatch {
 public:
  static constexpr std::size_t kCapacity = 8;

  explicit SpanBatch(Trace& trace) : trace_(trace) {}
  ~SpanBatch() { flush(); }
  SpanBatch(const SpanBatch&) = delete;
  SpanBatch& operator=(const SpanBatch&) = delete;

  /// A fresh span of \p kind to fill in (flushes first when full).
  TraceSpan& add(SpanKind kind);
  /// Append the gathered spans to the trace and start over.
  void flush();

 private:
  Trace& trace_;
  std::array<TraceSpan, kCapacity> spans_;
  std::size_t size_ = 0;
};

}  // namespace qserv::util
