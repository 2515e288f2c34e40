/// \file query_profile.h
/// \brief Structured per-query resource accounting (EXPLAIN ANALYZE,
/// QueryStats, slow-query log).
///
/// A QueryProfile is the queryable distillation of one query's Trace: the
/// czar-side stages (parse, analyze, chunk-prune, rewrite, dispatch,
/// final-aggregation) become an ordered stage list, and the per-chunk
/// dispatcher/worker/xrd/merger spans collapse into queue-wait / execute /
/// transfer / merge distributions (min/p50/max over chunks). Spans are
/// told apart by kind (util::SpanKind), never by name. It is *derived
/// from* the trace —
/// spans stay the ground truth; the profile is the summary that outlives the
/// query in the frontend's QueryStats table and feeds `\profile`,
/// `\slowlog`, and the structured slow-query log line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sql/table.h"
#include "util/trace.h"

namespace qserv::core {

/// Distribution of one per-chunk quantity (seconds) across chunk queries.
struct ProfileDist {
  std::int64_t count = 0;
  double min = 0.0, p50 = 0.0, max = 0.0, sum = 0.0;

  /// Summarize \p samples (unsorted; empty leaves the zero state).
  static ProfileDist of(std::vector<double> samples);
};

/// One czar-side stage of the query pipeline, in execution order.
struct ProfileStage {
  std::string name;     ///< parse, analyze, chunk-prune, rewrite, ...
  double seconds = 0.0;
  std::int64_t items = 0;  ///< stage-specific count (chunks, rows); 0 = n/a
  std::string detail;      ///< human-readable annotation
};

/// Per-query resource accounting built from the query's Trace.
struct QueryProfile {
  std::uint64_t queryId = 0;
  std::string sql;
  std::string status = "ok";  ///< "ok" or the failure Status string
  /// Scheduler class ("interactive"/"scan"; the caller sets it — empty when
  /// the query failed before classification).
  std::string queryClass;
  double wallSeconds = 0.0;

  std::vector<ProfileStage> stages;  ///< czar stages, execution order

  ProfileDist queueWait;  ///< per-chunk worker queue wait
  ProfileDist execute;    ///< per-chunk worker execution
  ProfileDist transfer;   ///< per-chunk result read (xrd)
  /// Per-worker batch transfer: wall seconds of each batch's write+stream
  /// interval (retries count as batches of one).
  ProfileDist batchTransfer;
  ProfileDist merge;  ///< per-chunk merge into the merge table (czar)
  /// Wall seconds of the dispatch stage during which at least one chunk
  /// result was being merged: the czar's merge-busy time, as opposed to
  /// waiting on workers. Never more than the dispatch stage.
  double mergeBusySeconds = 0.0;

  std::int64_t batches = 0;   ///< batch requests written
  std::int64_t chunks = 0;    ///< chunk queries dispatched
  std::int64_t attempts = 0;  ///< total dispatch attempts across chunks
  std::int64_t retries = 0;   ///< attempts - chunks (0 when clean)
  std::int64_t faults = 0;    ///< spans that recorded an error
  std::int64_t rowsMerged = 0;
  std::int64_t resultRows = 0;
  std::int64_t bytesTransferred = 0;  ///< dump bytes read from workers

  /// Sum of the top-level stage times (the EXPLAIN ANALYZE acceptance
  /// check: within 10% of wallSeconds for a healthy query).
  double stageSeconds() const;

  /// Hierarchical breakdown as a result table: columns (stage, seconds,
  /// count, detail); per-chunk distributions and the merge-busy time render
  /// as indented sub-rows of the dispatch stage.
  sql::TablePtr toTable() const;

  /// One-line JSON summary (the slow-query-log payload and QueryStats
  /// mirror). SQL and status are JSON-escaped.
  std::string toJson() const;
};

/// Build a profile from \p trace's spans. Fills stages, distributions, and
/// the chunk/attempt/fault/byte tallies; the caller sets wallSeconds,
/// status, and the merge-side row counts it knows directly.
QueryProfile buildQueryProfile(const util::Trace& trace);

}  // namespace qserv::core
