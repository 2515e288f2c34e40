#include "qserv/merger.h"

#include "qserv/dump_integrity.h"
#include "qserv/observables_codec.h"
#include "sql/database.h"
#include "sql/rowcodec.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace qserv::core {

namespace {
struct MergerMetrics {
  util::Counter& rowsMerged;
  util::Counter& dumpsReplayed;
  /// Payloads refused by their MD5 trailer on the way into a merge table.
  /// VerifiedResult::decode is that way's only door, and the dispatcher
  /// counts its refusals as dispatch.checksum_mismatches (and re-fetches),
  /// so this stays zero; it is kept so dashboards reading it see the
  /// integrity gate hold.
  util::Counter& checksumRejects;
  util::Counter& finalSelects;
  util::Histogram& dumpReplaySeconds;

  static MergerMetrics& instance() {
    auto& reg = util::MetricsRegistry::instance();
    static MergerMetrics* m = new MergerMetrics{
        reg.counter("merger.rows_merged"),
        reg.counter("merger.dumps_replayed"),
        reg.counter("merger.checksum_rejects"),
        reg.counter("merger.final_selects"),
        reg.histogram("merger.dump_replay_seconds"),
    };
    return *m;
  }
};
}  // namespace

util::Result<VerifiedResult> VerifiedResult::decode(std::string_view payload,
                                                    bool traced) {
  QSERV_ASSIGN_OR_RETURN(std::string_view body, verifiedDumpBody(payload));
  QSERV_ASSIGN_OR_RETURN(ResultBodyParts parts, splitResultBody(body, traced));
  VerifiedResult out;
  QSERV_ASSIGN_OR_RETURN(out.observables_,
                         decodeObservables(parts.observables));
  if (traced) {
    QSERV_ASSIGN_OR_RETURN(out.workerTimings_, decodeWorkerBlock(parts.worker));
  }
  QSERV_ASSIGN_OR_RETURN(out.table_, sql::decodeTableBinary(parts.table));
  out.payloadBytes_ = payload.size();
  return out;
}

ResultMerger::ResultMerger(std::string mergeTable)
    : mergeTable_(std::move(mergeTable)) {}

util::Status ResultMerger::merge(VerifiedResult result) {
  auto& metrics = MergerMetrics::instance();
  util::Stopwatch watch;
  const sql::TablePtr& table = result.table();
  const std::size_t rows = table->numRows();
  util::Status status = util::Status::ok();
  {
    std::lock_guard lock(mutex_);
    if (!merge_) {
      // The first result's table becomes the merge table.
      table->rename(mergeTable_);
      merge_ = table;
    } else {
      status = merge_->appendFrom(*table);
    }
    if (status.isOk()) rowsMerged_ += rows;
  }
  if (status.isOk()) metrics.rowsMerged.add(rows);
  metrics.dumpsReplayed.add();
  metrics.dumpReplaySeconds.observe(watch.elapsedSeconds());
  return status;
}

std::uint64_t ResultMerger::rowsMerged() const {
  std::lock_guard lock(mutex_);
  return rowsMerged_;
}

util::Result<sql::TablePtr> ResultMerger::finalize(const MergePlan& plan) {
  std::lock_guard lock(mutex_);
  if (!merge_) {
    // No chunk produced anything (e.g. zero chunks dispatched): an empty
    // result with no schema.
    return std::make_shared<sql::Table>("result", sql::Schema{});
  }
  if (plan.identity) {
    // `SELECT * FROM <merge>` would copy every column to return the same
    // columns, types and rows in the same order.
    merge_->rename("result");
    return merge_;
  }
  MergerMetrics::instance().finalSelects.add();
  sql::Database db("merge");
  QSERV_RETURN_IF_ERROR(db.registerTable(merge_));
  return db.execute(plan.finalSelectSql);
}

}  // namespace qserv::core
