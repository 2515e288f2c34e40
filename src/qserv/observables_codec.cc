#include "qserv/observables_codec.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>

namespace qserv::core {

namespace {

constexpr std::string_view kWorkerMagic = "QWB1";
// Magic and length, then the thread id, five times, result rows, subchunks
// and the executor counters, eight bytes each.
static_assert(8 + 8 * (8 + std::size(util::kExecCounterFields)) ==
              kWorkerBlockBytes);

void putLe(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out += static_cast<char>(v >> (8 * i));
}

void putU64(std::string& out, std::uint64_t v) { putLe(out, v, 8); }

std::uint64_t getLe(std::string_view in, std::size_t at, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[at + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t getU64(std::string_view in, std::size_t at) {
  return getLe(in, at, 8);
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

void appendWorkerBlock(std::string& out, const WorkerTimings& t) {
  out += kWorkerMagic;
  putLe(out, kWorkerBlockBytes, 4);
  putLe(out, t.threadId, 8);
  for (std::int64_t us : {t.arrivedUs, t.claimedUs, t.execStartUs,
                          t.buildEndUs, t.execEndUs}) {
    putLe(out, static_cast<std::uint64_t>(us), 8);
  }
  putLe(out, t.resultRows, 8);
  putLe(out, t.subchunks, 8);
  for (const auto& [name, field] : util::kExecCounterFields) {
    putLe(out, t.counters.*field, 8);
  }
}

util::Result<WorkerTimings> decodeWorkerBlock(std::string_view block) {
  auto bad = [](const char* what) {
    return util::Status::invalidArgument(std::string("worker block: ") + what);
  };
  if (block.size() != kWorkerBlockBytes) return bad("wrong size");
  if (block.substr(0, kWorkerMagic.size()) != kWorkerMagic) {
    return bad("missing magic");
  }
  if (getLe(block, 4, 4) != kWorkerBlockBytes) return bad("wrong length");
  WorkerTimings t;
  std::size_t at = 8;
  auto next = [&] {
    std::uint64_t v = getLe(block, at, 8);
    at += 8;
    return v;
  };
  t.threadId = next();
  std::int64_t* times[] = {&t.arrivedUs, &t.claimedUs, &t.execStartUs,
                           &t.buildEndUs, &t.execEndUs};
  std::int64_t previous = 0;
  for (std::int64_t* us : times) {
    *us = static_cast<std::int64_t>(next());
    if (*us < previous) return bad("times negative or out of order");
    previous = *us;
  }
  t.resultRows = next();
  t.subchunks = next();
  for (const auto& [name, field] : util::kExecCounterFields) {
    t.counters.*field = next();
  }
  return t;
}

util::Result<ResultBodyParts> splitResultBody(std::string_view body,
                                              bool traced) {
  const std::size_t tail =
      kObservablesBytes + (traced ? kWorkerBlockBytes : 0);
  if (body.size() < tail) {
    return util::Status::invalidArgument(
        traced ? "chunk result too short to end in observables and worker "
                 "blocks"
               : "chunk result too short to end in an observables block");
  }
  const std::size_t cut = body.size() - tail;
  ResultBodyParts parts{body.substr(0, cut),
                        body.substr(cut, kObservablesBytes), {}};
  if (traced) parts.worker = body.substr(cut + kObservablesBytes);
  return parts;
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
