#include "qserv/merger.h"

#include "qserv/dump_integrity.h"
#include "sql/rowcodec.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace qserv::core {

namespace {
struct MergerMetrics {
  util::Counter& rowsMerged;
  util::Counter& dumpsReplayed;
  util::Counter& checksumRejects;
  util::Histogram& dumpReplaySeconds;

  static MergerMetrics& instance() {
    auto& reg = util::MetricsRegistry::instance();
    static MergerMetrics* m = new MergerMetrics{
        reg.counter("merger.rows_merged"),
        reg.counter("merger.dumps_replayed"),
        reg.counter("merger.checksum_rejects"),
        reg.histogram("merger.dump_replay_seconds"),
    };
    return *m;
  }
};
}  // namespace

ResultMerger::ResultMerger(std::string mergeTable, util::TracePtr trace)
    : db_("merge"), mergeTable_(std::move(mergeTable)),
      trace_(std::move(trace)) {}

util::Status ResultMerger::mergeResult(const std::string& payload) {
  auto& metrics = MergerMetrics::instance();
  util::Stopwatch watch;
  util::ScopedSpan span(trace_, "merger", "replay dump");
  span.attr("dumpBytes", static_cast<std::int64_t>(payload.size()));
  // Last line of defense: the dispatcher already verifies-and-retries, but a
  // corrupt result must never reach the merge table through any path.
  if (util::Status integrity = verifyDumpChecksum(payload);
      !integrity.isOk()) {
    metrics.checksumRejects.add();
    span.attr("error", integrity.toString());
    return integrity;
  }
  std::size_t rows = 0;
  util::Status status = util::Status::ok();
  if (!merge_) {
    // The first result's table becomes the merge table.
    util::Result<sql::TablePtr> decoded = sql::decodeTableBinary(payload);
    status = decoded.status();
    if (status.isOk()) {
      (*decoded)->rename(mergeTable_);
      status = db_.registerTable(*decoded);
      if (status.isOk()) {
        merge_ = *decoded;
        rows = merge_->numRows();
      }
    }
  } else {
    std::size_t before = merge_->numRows();
    status = sql::appendTableBinary(payload, *merge_);
    rows = merge_->numRows() - before;
  }
  rowsMerged_ += rows;
  metrics.rowsMerged.add(rows);
  metrics.dumpsReplayed.add();
  metrics.dumpReplaySeconds.observe(watch.elapsedSeconds());
  span.attr("rows", static_cast<std::int64_t>(rows));
  if (!status.isOk()) span.attr("error", status.toString());
  return status;
}

util::Result<sql::TablePtr> ResultMerger::finalize(
    const std::string& finalSelectSql) {
  util::ScopedSpan span(trace_, "merger", "finalize");
  if (!merge_) {
    // No chunk produced anything (e.g. zero chunks dispatched): an empty
    // result with no schema.
    return std::make_shared<sql::Table>("result", sql::Schema{});
  }
  return db_.execute(finalSelectSql);
}

}  // namespace qserv::core
