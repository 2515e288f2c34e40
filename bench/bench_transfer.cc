/// \file bench_transfer.cc
/// \brief Ablation — result-transfer format (§5.4 / §7.1), at the codec.
///
/// "Using mysqldump introduces overheads, but is the only user-level method
/// provided by MySQL to transfer tables between database servers. ... its
/// costs in speed, disk, network, and database transactions are strong
/// motivations to explore a more efficient method." Chunk results travel in
/// the binary row codec; this bench keeps the paper's path as an ablation.
/// It executes one row-heavy query's chunk queries on the workers that hold
/// the chunks, then ships every chunk result both ways: the paper's
/// dumpTable + loadDump (format SQL text, then lex, parse and replay it) and
/// binary encode + decode. It compares shipped bytes and the measured
/// round-trip time of each codec, and checks both return the same rows.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "datagen/partitioner.h"
#include "sql/dump.h"
#include "sql/rowcodec.h"
#include "util/metrics.h"

namespace {

using namespace qserv;
using namespace qserv::bench;

/// Same cells, doubles compared bit for bit (the codecs must be lossless on
/// this data: it carries no NaN, which SQL text cannot express).
bool sameRows(const sql::Table& a, const sql::Table& b) {
  if (a.numRows() != b.numRows() || a.numColumns() != b.numColumns()) {
    return false;
  }
  for (std::size_t r = 0; r < a.numRows(); ++r) {
    for (std::size_t c = 0; c < a.numColumns(); ++c) {
      sql::Value x = a.cell(r, c), y = b.cell(r, c);
      if (x.isDouble() && y.isDouble()) {
        double dx = x.asDouble(), dy = y.asDouble();
        if (std::memcmp(&dx, &dy, sizeof dx) != 0) return false;
      } else if (!(x == y)) {
        return false;
      }
    }
  }
  return true;
}

struct CodecTotals {
  double bytes = 0;
  double seconds = 0;  ///< best-of-k round trip over all chunk results
};

}  // namespace

int main() {
  printBanner("Ablation — mysqldump-style vs binary result transfer",
              "§5.4 Query Results Transfer; §7.1 Latency",
              "binary codec cuts shipped bytes and master replay time");

  PaperSetupOptions opts;
  opts.basePatchObjects = 900;
  PaperSetup setup = makePaperSetup(opts);
  core::MiniCluster& cluster = *setup.cluster;

  // A row-heavy retrieval: every object in a band (lots of result traffic),
  // executed per chunk exactly as a worker would.
  const char* kColumns =
      "objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, "
      "zFlux_PS, yFlux_PS";
  std::vector<sql::TablePtr> results;
  std::uint64_t rows = 0;
  for (std::size_t w = 0; w < cluster.numWorkers(); ++w) {
    sql::Database& db = cluster.worker(w).database();
    for (std::int32_t chunk : cluster.chunksOfWorker(w)) {
      auto r = db.execute(util::format(
          "SELECT %s FROM %s WHERE decl_PS BETWEEN -2 AND 2", kColumns,
          datagen::chunkTableName("Object", chunk).c_str()));
      if (!r.isOk()) {
        std::fprintf(stderr, "chunk %d: %s\n", chunk,
                     r.status().toString().c_str());
        return 1;
      }
      if ((*r)->numRows() == 0) continue;
      rows += (*r)->numRows();
      results.push_back(*r);
    }
  }

  constexpr int kRepeats = 3;
  CodecTotals dump, binary;
  dump.seconds = binary.seconds = 1e300;
  for (int rep = 0; rep < kRepeats; ++rep) {
    CodecTotals d, b;
    for (const sql::TablePtr& t : results) {
      util::Stopwatch dumpWatch;
      std::string text = sql::dumpTable(*t, "r_chunk");
      sql::Database master;
      auto replayed = sql::loadDump(master, text);
      d.seconds += dumpWatch.elapsedSeconds();
      d.bytes += static_cast<double>(text.size());

      util::Stopwatch binWatch;
      std::string bin = sql::encodeTableBinary(*t, "r_chunk");
      auto decoded = sql::decodeTableBinary(bin);
      b.seconds += binWatch.elapsedSeconds();
      b.bytes += static_cast<double>(bin.size());

      if (!replayed.isOk() || !decoded.isOk() || !sameRows(**replayed, *t) ||
          !sameRows(**decoded, *t)) {
        std::fprintf(stderr, "codec round trip changed a chunk result!\n");
        return 1;
      }
    }
    dump = {d.bytes, std::min(dump.seconds, d.seconds)};
    binary = {b.bytes, std::min(binary.seconds, b.seconds)};
  }

  std::printf("\n  %zu chunk results, %llu rows (best of %d round trips)\n",
              results.size(), static_cast<unsigned long long>(rows),
              kRepeats);
  std::printf("\n  %-26s %14s %16s\n", "format", "bytes shipped",
              "round trip ms");
  std::printf("  %-26s %14s %16.1f\n", "SQL dump + replay (paper)",
              util::humanBytes(dump.bytes).c_str(), dump.seconds * 1e3);
  std::printf("  %-26s %14s %16.1f\n", "binary encode + decode",
              util::humanBytes(binary.bytes).c_str(), binary.seconds * 1e3);
  std::printf("\n");
  double bytesRatio = dump.bytes / binary.bytes;
  double collectSpeedup = dump.seconds / binary.seconds;
  printKeyValue("rows round-tripped (identical)",
                util::format("%llu", static_cast<unsigned long long>(rows)));
  printKeyValue("bytes saved", util::format("%.1fx", bytesRatio));
  printKeyValue("measured codec round-trip speedup",
                util::format("%.1fx", collectSpeedup));

  auto& reg = util::MetricsRegistry::instance();
  reg.gauge("bench.transfer.bytes_ratio_x100")
      .set(static_cast<std::int64_t>(bytesRatio * 100));
  reg.gauge("bench.transfer.collect_speedup_x100")
      .set(static_cast<std::int64_t>(collectSpeedup * 100));

  // Speedup floors: the binary codec must keep paying for itself.
  int violations = 0;
  if (bytesRatio < 2.0) {
    std::fprintf(stderr, "GATE: binary codec saves only %.2fx bytes (need "
                 ">= 2x)\n", bytesRatio);
    ++violations;
  }
  if (collectSpeedup < 2.0) {
    std::fprintf(stderr, "GATE: codec round-trip speedup only %.2fx (need "
                 ">= 2x)\n", collectSpeedup);
    ++violations;
  }
  return violations == 0 ? 0 : 1;
}
