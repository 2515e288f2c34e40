/// \file trace.h
/// \brief Per-query distributed tracing (czar -> dispatcher -> xrd -> worker
/// -> merger).
///
/// A Trace collects timed spans from every component a query touches. The
/// czar creates one per user query and registers it in the process-wide
/// TraceRegistry under a fresh trace id; the dispatcher writes that id into
/// each batch request envelope (qserv/batch_codec.h) so workers — which
/// receive only the request through the xrd fabric, just like a remote node
/// would receive a request header — can look the trace up and attach their
/// queue-wait/execute spans. All spans share one process
/// clock (microseconds since first use), so a finished trace renders as a
/// single aligned timeline: toChromeJson() emits Chrome trace_event
/// format that opens directly in chrome://tracing or https://ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace qserv::util {

/// One timed operation inside a trace.
struct TraceSpan {
  std::string component;  ///< layer: czar, dispatcher, xrd, worker, merger
  std::string name;       ///< operation: parse, dispatch, "chunk 1234", ...
  std::int64_t startUs = 0;  ///< trace-clock microseconds (see Trace::nowUs)
  std::int64_t endUs = 0;
  std::uint64_t threadId = 0;
  std::vector<std::pair<std::string, std::string>> attrs;

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

  void addSpan(TraceSpan span);
  std::size_t spanCount() const;
  /// Snapshot of all spans recorded so far, in completion order.
  std::vector<TraceSpan> spans() const;
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
/// destruction (or end()). Safe to use with a null trace — all ops no-op.
class ScopedSpan {
 public:
  ScopedSpan(TracePtr trace, std::string component, std::string name);
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ScopedSpan& attr(std::string key, std::string value);
  ScopedSpan& attr(std::string key, std::int64_t value);

  /// Record the span now instead of at destruction.
  void end();

 private:
  TracePtr trace_;
  TraceSpan span_;
  bool done_ = false;
};

/// Process-wide id -> in-flight trace map. Components that receive a trace
/// id out-of-band (workers, via the batch request envelope) use it to find
/// the query's trace; ids of finished queries are released by the czar,
/// after which worker spans for them are silently dropped (the query is
/// gone).
class TraceRegistry {
 public:
  static TraceRegistry& instance();

  /// Create and register a trace with a fresh process-unique id.
  TracePtr create(std::string label);
  /// The registered trace, or nullptr.
  TracePtr find(std::uint64_t id) const;
  /// Unregister (the trace itself lives on with its owners).
  void release(std::uint64_t id);

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, TracePtr> traces_;
  std::uint64_t nextId_ = 1;
};

/// "-- QSERV-TRACE: <id>\n" — the trace id as a SQL comment line, for
/// carrying it inside SQL text (chunk queries carry it in a typed field).
std::string traceHeaderLine(std::uint64_t traceId);

/// Trace id from SQL text's leading comment lines, if present.
std::optional<std::uint64_t> parseTraceHeader(const std::string& payload);

}  // namespace qserv::util
