#include "qserv/query_profile.h"

#include <algorithm>
#include <cstdlib>

#include "util/strings.h"

namespace qserv::core {

namespace {

/// Attribute value by key, or empty.
const std::string* findAttr(const util::TraceSpan& span,
                            std::string_view key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::int64_t intAttr(const util::TraceSpan& span, std::string_view key) {
  const std::string* v = findAttr(span, key);
  return v ? std::strtoll(v->c_str(), nullptr, 10) : 0;
}

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
  QueryProfile p;
  p.queryId = trace.id();
  p.sql = trace.label();

  std::vector<util::TraceSpan> spans = trace.spans();
  std::vector<const util::TraceSpan*> czarSpans;
  std::vector<double> waitSamples, execSamples, transferSamples;
  std::vector<double> batchSamples;
  for (const auto& span : spans) {
    if (findAttr(span, "error") != nullptr) ++p.faults;
    if (span.component == "czar") {
      czarSpans.push_back(&span);
    } else if (span.component == "worker") {
      if (util::startsWith(span.name, "queue-wait ")) {
        waitSamples.push_back(span.durationSeconds());
      } else if (util::startsWith(span.name, "exec ")) {
        execSamples.push_back(span.durationSeconds());
        p.resultRows += intAttr(span, "resultRows");
      }
    } else if (span.component == "xrd") {
      // Each stream-frame read is one result transfer from a worker.
      if (util::startsWith(span.name, "read /bstream/")) {
        transferSamples.push_back(span.durationSeconds());
      }
    } else if (span.component == "dispatcher") {
      if (util::startsWith(span.name, "chunk ")) {
        ++p.chunks;
        p.attempts += intAttr(span, "attempts");
        p.bytesTransferred += intAttr(span, "dumpBytes");
      } else if (util::startsWith(span.name, "batch ")) {
        ++p.batches;
        batchSamples.push_back(span.durationSeconds());
      }
    } else if (span.component == "merger") {
      if (span.name == "replay dump") p.rowsMerged += intAttr(span, "rows");
    }
  }
  p.retries = std::max<std::int64_t>(0, p.attempts - p.chunks);
  p.queueWait = ProfileDist::of(std::move(waitSamples));
  p.execute = ProfileDist::of(std::move(execSamples));
  p.transfer = ProfileDist::of(std::move(transferSamples));
  p.batchTransfer = ProfileDist::of(std::move(batchSamples));

  // Czar stages in execution (start-time) order.
  std::sort(czarSpans.begin(), czarSpans.end(),
            [](const util::TraceSpan* a, const util::TraceSpan* b) {
              return a->startUs < b->startUs;
            });
  for (const util::TraceSpan* span : czarSpans) {
    ProfileStage stage;
    stage.name = span->name;
    stage.seconds = span->durationSeconds();
    if (span->name == "chunk-prune") {
      stage.items = intAttr(*span, "chunks");
      stage.detail = util::format("%lld chunks after pruning",
                                  static_cast<long long>(stage.items));
    } else if (span->name == "rewrite") {
      stage.items = intAttr(*span, "chunkQueries");
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
      "\"batchTransfer\":%s,\"stages\":%s}",
      static_cast<unsigned long long>(queryId),
      util::jsonEscape(sql).c_str(), util::jsonEscape(status).c_str(),
      util::jsonEscape(queryClass).c_str(),
      wallSeconds, stageSeconds(), static_cast<long long>(chunks),
      static_cast<long long>(batches), static_cast<long long>(attempts),
      static_cast<long long>(retries), static_cast<long long>(faults),
      static_cast<long long>(rowsMerged), static_cast<long long>(resultRows),
      static_cast<long long>(bytesTransferred), jsonDist(queueWait).c_str(),
      jsonDist(execute).c_str(), jsonDist(transfer).c_str(),
      jsonDist(batchTransfer).c_str(), stagesJson.c_str());
}

}  // namespace qserv::core
