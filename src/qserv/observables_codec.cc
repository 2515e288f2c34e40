#include "qserv/observables_codec.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "util/strings.h"

namespace qserv::core {

namespace {
constexpr std::string_view kMarker = "-- QSERV-OBS ";
}

std::string encodeObservables(const simio::WorkObservables& w) {
  return util::format(
      "-- QSERV-OBS bytes=%.0f rows=%" PRIu64 " pairs=%" PRIu64
      " match=%" PRIu64 " built=%" PRIu64 " idx=%" PRIu64
      " rbytes=%.0f rrows=%" PRIu64 "\n",
      w.bytesScanned, w.rowsExamined, w.pairsEvaluated, w.joinMatches,
      w.rowsBuilt, w.indexLookups, w.resultBytes, w.resultRows);
}

ResultBodyParts splitObservables(std::string_view body) {
  std::size_t pos = body.rfind(kMarker);
  // The observables line must be the body's last line: one newline, at
  // the end.
  if (pos == std::string_view::npos || body.back() != '\n' ||
      body.find('\n', pos) != body.size() - 1) {
    return {body, {}};
  }
  return {body.substr(0, pos), body.substr(pos)};
}

std::optional<simio::WorkObservables> decodeObservables(
    std::string_view dump) {
  std::size_t pos = dump.rfind(kMarker);
  if (pos == std::string_view::npos) return std::nullopt;
  std::string line(dump.substr(pos + kMarker.size()));
  simio::WorkObservables w;
  if (std::sscanf(line.c_str(),
                  "bytes=%lf rows=%" SCNu64 " pairs=%" SCNu64
                  " match=%" SCNu64 " built=%" SCNu64 " idx=%" SCNu64
                  " rbytes=%lf rrows=%" SCNu64,
                  &w.bytesScanned, &w.rowsExamined, &w.pairsEvaluated,
                  &w.joinMatches, &w.rowsBuilt, &w.indexLookups,
                  &w.resultBytes, &w.resultRows) != 8) {
    return std::nullopt;
  }
  // Byte counts price simulated work: a NaN, infinite or negative one from
  // a damaged line must not reach the cost model.
  for (double bytes : {w.bytesScanned, w.resultBytes}) {
    if (!std::isfinite(bytes) || bytes < 0.0) return std::nullopt;
  }
  return w;
}

}  // namespace qserv::core
