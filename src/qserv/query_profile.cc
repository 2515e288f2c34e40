#include "qserv/query_profile.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/strings.h"

namespace qserv::core {

namespace {

std::string distDetail(const ProfileDist& d) {
  if (d.count == 0) return "";
  return util::format("min/p50/max = %.4g/%.4g/%.4g s over %lld chunks",
                      d.min, d.p50, d.max, static_cast<long long>(d.count));
}

std::string jsonDist(const ProfileDist& d) {
  return util::format(
      "{\"count\":%lld,\"min\":%.6g,\"p50\":%.6g,\"max\":%.6g,\"sum\":%.6g}",
      static_cast<long long>(d.count), d.min, d.p50, d.max, d.sum);
}

/// Wall time covered by at least one of \p intervals (start, end µs):
/// concurrent merges on several collectors count once.
double coveredSeconds(std::vector<std::pair<std::int64_t, std::int64_t>>
                          intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = std::numeric_limits<std::int64_t>::min();
  for (const auto& [start, end] : intervals) {
    std::int64_t from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return static_cast<double>(covered) * 1e-6;
}

}  // namespace

ProfileDist ProfileDist::of(std::vector<double> samples) {
  ProfileDist d;
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.count = static_cast<std::int64_t>(samples.size());
  d.min = samples.front();
  d.max = samples.back();
  d.p50 = samples[samples.size() / 2];
  for (double s : samples) d.sum += s;
  return d;
}

double QueryProfile::stageSeconds() const {
  double total = 0.0;
  for (const auto& s : stages) total += s.seconds;
  return total;
}

QueryProfile buildQueryProfile(const util::Trace& trace) {
  using util::SpanKind;
  QueryProfile p;
  p.queryId = trace.id();
  p.sql = trace.label();

  std::vector<util::TraceSpan> czarSpans;
  std::vector<double> waitSamples, execSamples, transferSamples;
  std::vector<double> batchSamples, mergeSamples;
  std::vector<std::pair<std::int64_t, std::int64_t>> mergeIntervals;
  trace.forEach([&](const util::TraceSpan& span) {
    if (!span.error.empty()) ++p.faults;
    switch (span.kind) {
      case SpanKind::kParse:
      case SpanKind::kAnalyze:
      case SpanKind::kFrontendExecute:
      case SpanKind::kChunkPrune:
      case SpanKind::kRewrite:
      case SpanKind::kDispatch:
      case SpanKind::kFinalAggregation:
        czarSpans.push_back(span);
        break;
      case SpanKind::kQueueWait:
        waitSamples.push_back(span.durationSeconds());
        break;
      case SpanKind::kExec:
        execSamples.push_back(span.durationSeconds());
        p.resultRows += span.rows;
        break;
      case SpanKind::kFrameRead:
        // Each stream-frame read is one result transfer from a worker.
        transferSamples.push_back(span.durationSeconds());
        break;
      case SpanKind::kChunk:
        ++p.chunks;
        p.attempts += span.attempt;
        p.bytesTransferred += span.bytes;
        break;
      case SpanKind::kBatch:
        ++p.batches;
        batchSamples.push_back(span.durationSeconds());
        break;
      case SpanKind::kMerge:
        p.rowsMerged += span.error.empty() ? span.rows : 0;
        mergeSamples.push_back(span.durationSeconds());
        mergeIntervals.emplace_back(span.startUs, span.endUs);
        break;
      default:
        break;
    }
  });
  p.retries = std::max<std::int64_t>(0, p.attempts - p.chunks);
  p.queueWait = ProfileDist::of(std::move(waitSamples));
  p.execute = ProfileDist::of(std::move(execSamples));
  p.transfer = ProfileDist::of(std::move(transferSamples));
  p.batchTransfer = ProfileDist::of(std::move(batchSamples));
  p.merge = ProfileDist::of(std::move(mergeSamples));
  p.mergeBusySeconds = coveredSeconds(std::move(mergeIntervals));

  // Czar stages in execution (start-time) order.
  std::sort(czarSpans.begin(), czarSpans.end(),
            [](const util::TraceSpan& a, const util::TraceSpan& b) {
              return a.startUs < b.startUs;
            });
  for (const util::TraceSpan& span : czarSpans) {
    ProfileStage stage;
    stage.name = util::spanName(span.kind);
    stage.seconds = span.durationSeconds();
    if (span.kind == SpanKind::kChunkPrune) {
      stage.items = span.count;
      stage.detail = util::format("%lld chunks after pruning",
                                  static_cast<long long>(stage.items));
    } else if (span.kind == SpanKind::kRewrite) {
      stage.items = span.count;
      stage.detail = util::format("%lld chunk queries",
                                  static_cast<long long>(stage.items));
    }
    p.stages.push_back(std::move(stage));
  }
  return p;
}

sql::TablePtr QueryProfile::toTable() const {
  sql::Schema schema({{"stage", sql::ColumnType::kString},
                      {"seconds", sql::ColumnType::kDouble},
                      {"count", sql::ColumnType::kInt},
                      {"detail", sql::ColumnType::kString}});
  auto table = std::make_shared<sql::Table>(
      util::format("profile_%llu", static_cast<unsigned long long>(queryId)),
      schema);
  auto add = [&](const std::string& stage, double seconds, std::int64_t n,
                 const std::string& detail) {
    sql::Value row[] = {stage, seconds, n, detail};
    (void)table->appendRow(row);
  };
  for (const auto& s : stages) {
    add(s.name, s.seconds, s.items, s.detail);
    // The per-chunk distributions are children of the dispatch stage: that
    // is the wall interval in which workers queued, executed, and shipped.
    if (s.name == "dispatch") {
      if (batchTransfer.count > 0) {
        add("  worker batches", batchTransfer.sum, batchTransfer.count,
            util::format("min/p50/max = %.4g/%.4g/%.4g s over %lld batches",
                         batchTransfer.min, batchTransfer.p50,
                         batchTransfer.max,
                         static_cast<long long>(batchTransfer.count)));
      }
      add("  chunk queue-wait", queueWait.sum, queueWait.count,
          distDetail(queueWait));
      add("  chunk execute", execute.sum, execute.count, distDetail(execute));
      add("  chunk transfer", transfer.sum, transfer.count,
          distDetail(transfer));
      // Of the dispatch interval, the part the czar spent merging results
      // (the rest it waited on workers and the fabric).
      add("  merge (busy)", mergeBusySeconds, merge.count,
          distDetail(merge));
    }
  }
  add("total (stages)", stageSeconds(), 0, "");
  add("wall", wallSeconds, 0, util::format("status: %s", status.c_str()));
  if (!queryClass.empty()) add("class", 0.0, 0, queryClass);
  add("chunks", 0.0, chunks,
      util::format("%lld attempts, %lld retries, %lld faults",
                   static_cast<long long>(attempts),
                   static_cast<long long>(retries),
                   static_cast<long long>(faults)));
  add("rows", 0.0, resultRows,
      util::format("%lld merged, %lld bytes transferred",
                   static_cast<long long>(rowsMerged),
                   static_cast<long long>(bytesTransferred)));
  return table;
}

std::string QueryProfile::toJson() const {
  std::string stagesJson = "[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) stagesJson += ",";
    stagesJson += util::format(
        "{\"name\":\"%s\",\"seconds\":%.6g}",
        util::jsonEscape(stages[i].name).c_str(), stages[i].seconds);
  }
  stagesJson += "]";
  return util::format(
      "{\"queryId\":%llu,\"sql\":\"%s\",\"status\":\"%s\","
      "\"class\":\"%s\","
      "\"wallSeconds\":%.6g,\"stageSeconds\":%.6g,\"chunks\":%lld,"
      "\"batches\":%lld,\"attempts\":%lld,\"retries\":%lld,\"faults\":%lld,"
      "\"rowsMerged\":%lld,\"resultRows\":%lld,\"bytesTransferred\":%lld,"
      "\"queueWait\":%s,\"execute\":%s,\"transfer\":%s,"
      "\"batchTransfer\":%s,\"merge\":%s,\"mergeBusySeconds\":%.6g,"
      "\"stages\":%s}",
      static_cast<unsigned long long>(queryId),
      util::jsonEscape(sql).c_str(), util::jsonEscape(status).c_str(),
      util::jsonEscape(queryClass).c_str(),
      wallSeconds, stageSeconds(), static_cast<long long>(chunks),
      static_cast<long long>(batches), static_cast<long long>(attempts),
      static_cast<long long>(retries), static_cast<long long>(faults),
      static_cast<long long>(rowsMerged), static_cast<long long>(resultRows),
      static_cast<long long>(bytesTransferred), jsonDist(queueWait).c_str(),
      jsonDist(execute).c_str(), jsonDist(transfer).c_str(),
      jsonDist(batchTransfer).c_str(), jsonDist(merge).c_str(),
      mergeBusySeconds, stagesJson.c_str());
}

}  // namespace qserv::core
