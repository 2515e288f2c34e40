#include "qserv/observables_codec.h"

#include <bit>
#include <cmath>
#include <cstdint>

namespace qserv::core {

namespace {

void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>(v >> (8 * i));
}

std::uint64_t getU64(std::string_view in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[at + i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

std::string encodeObservables(const simio::WorkObservables& w) {
  std::string out;
  out.reserve(kObservablesBytes);
  // Whole bytes, rounded half-to-even: what the simulation has always been
  // fed (the observables were once printed with "%.0f").
  putU64(out, std::bit_cast<std::uint64_t>(std::nearbyint(w.bytesScanned)));
  putU64(out, w.rowsExamined);
  putU64(out, w.pairsEvaluated);
  putU64(out, w.joinMatches);
  putU64(out, w.rowsBuilt);
  putU64(out, w.indexLookups);
  putU64(out, std::bit_cast<std::uint64_t>(std::nearbyint(w.resultBytes)));
  putU64(out, w.resultRows);
  return out;
}

util::Result<ResultBodyParts> splitObservables(std::string_view body) {
  if (body.size() < kObservablesBytes) {
    return util::Status::invalidArgument(
        "chunk result too short to end in an observables block");
  }
  std::size_t cut = body.size() - kObservablesBytes;
  return ResultBodyParts{body.substr(0, cut), body.substr(cut)};
}

util::Result<simio::WorkObservables> decodeObservables(
    std::string_view block) {
  if (block.size() != kObservablesBytes) {
    return util::Status::invalidArgument(
        "observables block must be 64 bytes");
  }
  simio::WorkObservables w;
  w.bytesScanned = std::bit_cast<double>(getU64(block, 0));
  w.rowsExamined = getU64(block, 8);
  w.pairsEvaluated = getU64(block, 16);
  w.joinMatches = getU64(block, 24);
  w.rowsBuilt = getU64(block, 32);
  w.indexLookups = getU64(block, 40);
  w.resultBytes = std::bit_cast<double>(getU64(block, 48));
  w.resultRows = getU64(block, 56);
  for (double bytes : {w.bytesScanned, w.resultBytes}) {
    if (!std::isfinite(bytes) || bytes < 0.0) {
      return util::Status::invalidArgument(
          "observables carry a NaN, infinite or negative byte count");
    }
  }
  return w;
}

}  // namespace qserv::core
