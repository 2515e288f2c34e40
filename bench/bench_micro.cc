/// \file bench_micro.cc
/// \brief google-benchmark microbenchmarks for the hot primitives, the
/// per-operation costs that justify the cost model's CPU constants
/// (simio::CostParams) and the frontend's per-chunk overhead estimate.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "datagen/catalog_gen.h"
#include "datagen/partitioner.h"
#include "qserv/chunk_template.h"
#include "qserv/query_analysis.h"
#include "qserv/secondary_index.h"
#include "sql/dump.h"
#include "sql/rowcodec.h"
#include "qserv/query_rewriter.h"
#include "sphgeom/chunker.h"
#include "sphgeom/coords.h"
#include "sphgeom/htm.h"
#include "sql/database.h"
#include "sql/parser.h"
#include "util/md5.h"
#include "util/rng.h"

namespace {

using namespace qserv;

void BM_Md5ChunkQuery(benchmark::State& state) {
  std::string query(256, 'q');
  util::Stopwatch watch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Md5::hex(query));
  }
  qserv::bench::recordRate("bench.micro.md5_chunk_query_ns_per_iter", watch,
                          state.iterations());
}
BENCHMARK(BM_Md5ChunkQuery);

void BM_AngSep(benchmark::State& state) {
  util::Rng rng(1);
  double a = rng.uniform(0, 360), b = rng.uniform(-90, 90);
  double c = rng.uniform(0, 360), d = rng.uniform(-90, 90);
  util::Stopwatch watch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sphgeom::angSepDeg(a, b, c, d));
    a += 1e-9;
  }
  qserv::bench::recordRate("bench.micro.ang_sep_ns_per_iter", watch,
                          state.iterations());
}
BENCHMARK(BM_AngSep);

void BM_ChunkerPointLocation(benchmark::State& state) {
  sphgeom::Chunker chunker(85, 12);
  util::Rng rng(2);
  util::Stopwatch watch;
  for (auto _ : state) {
    double lon = rng.uniform(0, 360), lat = rng.uniform(-90, 90);
    auto chunk = chunker.chunkAt(lon, lat);
    benchmark::DoNotOptimize(chunker.subChunkAt(chunk, lon, lat));
  }
  qserv::bench::recordRate("bench.micro.chunker_point_location_ns_per_iter", watch,
                          state.iterations());
}
BENCHMARK(BM_ChunkerPointLocation);

void BM_ChunkerCover1Deg(benchmark::State& state) {
  sphgeom::Chunker chunker(85, 12);
  util::Rng rng(3);
  util::Stopwatch watch;
  for (auto _ : state) {
    double lon = rng.uniform(0, 359), lat = rng.uniform(-60, 59);
    benchmark::DoNotOptimize(chunker.chunksIntersecting(
        sphgeom::SphericalBox(lon, lat, lon + 1, lat + 1)));
  }
  qserv::bench::recordRate("bench.micro.chunker_cover_1deg_ns_per_iter", watch,
                          state.iterations());
}
BENCHMARK(BM_ChunkerCover1Deg);

void BM_HtmPointToTrixel(benchmark::State& state) {
  util::Rng rng(4);
  util::Stopwatch watch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sphgeom::htm::pointToTrixel(
        rng.uniform(0, 360), rng.uniform(-90, 90), 8));
  }
  qserv::bench::recordRate("bench.micro.htm_point_to_trixel_ns_per_iter", watch,
                          state.iterations());
}
BENCHMARK(BM_HtmPointToTrixel);

void BM_ParseLv3(benchmark::State& state) {
  const char* sql =
      "SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN 1 AND 2 "
      "AND decl_PS BETWEEN 3 AND 4 "
      "AND fluxToAbMag(zFlux_PS) BETWEEN 21 AND 21.5 "
      "AND fluxToAbMag(gFlux_PS)-fluxToAbMag(rFlux_PS) BETWEEN 0.3 AND 0.4";
  util::Stopwatch watch;
  for (auto _ : state) {
    auto stmt = sql::parseStatement(sql);
    benchmark::DoNotOptimize(stmt);
  }
  qserv::bench::recordRate("bench.micro.parse_lv3_ns_per_iter", watch,
                          state.iterations());
}
BENCHMARK(BM_ParseLv3);

// A 215-chunk full-sky query (e2ebench's fullsky shape): the czar rewrites
// it into one chunk-query template plus a chunk list. Reported per chunk.
std::vector<std::int32_t> fullSkyChunks(const sphgeom::Chunker& chunker) {
  std::vector<std::int32_t> all = chunker.allChunks();
  all.resize(std::min<std::size_t>(all.size(), 215));
  return all;
}

void BM_AnalyzeAndRewriteChunkQuery(benchmark::State& state) {
  core::CatalogConfig catalog = core::CatalogConfig::lsst(36, 6, 0.01667);
  sphgeom::Chunker chunker = catalog.makeChunker();
  core::QueryRewriter rewriter(catalog, chunker);
  auto analyzed = core::analyzeQuery(
      "SELECT COUNT(*), AVG(uFlux_SG) FROM Object WHERE uRadius_PS > 0.04",
      catalog);
  std::vector<std::int32_t> chunks = fullSkyChunks(chunker);
  util::Stopwatch watch;
  for (auto _ : state) {
    auto rewrite = rewriter.rewrite(*analyzed, chunks, "merged");
    benchmark::DoNotOptimize(rewrite);
  }
  const auto perChunk = static_cast<std::int64_t>(chunks.size());
  state.counters["ns_per_chunk"] = benchmark::Counter(
      static_cast<double>(state.iterations() * perChunk),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel("measured");
  qserv::bench::recordRate("bench.micro.rewrite_chunk_query_ns_per_chunk",
                           watch, state.iterations() * perChunk);
}
BENCHMARK(BM_AnalyzeAndRewriteChunkQuery);

// The worker's per-chunk cost of turning a shipped chunk query into an
// executable statement: parsing per-chunk text (the baseline, as when every
// chunk shipped its own statement) against binding a template parsed once
// per batch.
const char* kChunkTemplateSql =
    "SELECT COUNT(*) AS QS0_COUNT, SUM(uFlux_SG) AS QS1_SUM, "
    "COUNT(uFlux_SG) AS QS1_COUNT FROM Object AS Object "
    "WHERE (uRadius_PS > 0.04)";

void BM_ParseChunkQuery(benchmark::State& state) {
  core::ChunkQueryTemplate query{kChunkTemplateSql,
                                 {{0, core::TableBindingKind::kChunk}}};
  auto plan = core::ChunkPlan::parse(query);
  const std::string text = plan->boundSql(4000) + ";\n";
  util::Stopwatch watch;
  for (auto _ : state) {
    auto stmts = sql::parseScript(text);
    benchmark::DoNotOptimize(stmts);
  }
  state.SetLabel("measured");
  qserv::bench::recordRate("bench.micro.parse_chunk_query_ns_per_iter", watch,
                           state.iterations());
}
BENCHMARK(BM_ParseChunkQuery);

void BM_BindChunkTemplate(benchmark::State& state) {
  core::ChunkQueryTemplate query{kChunkTemplateSql,
                                 {{0, core::TableBindingKind::kChunk}}};
  auto plan = core::ChunkPlan::parse(query);
  std::int32_t chunk = 0;
  util::Stopwatch watch;
  for (auto _ : state) {
    std::vector<sql::TableRef> from = plan->stmt().from;
    plan->bind(4000 + (chunk++ & 255), 0, from);
    benchmark::DoNotOptimize(from);
  }
  state.SetLabel("measured");
  qserv::bench::recordRate("bench.micro.bind_chunk_template_ns_per_iter",
                           watch, state.iterations());
}
BENCHMARK(BM_BindChunkTemplate);

// The czar's merge of a 215-chunk full-sky row query: each chunk result's
// typed columns appended to the merge table in turn.
void BM_MergeAppend215Chunks(benchmark::State& state) {
  sql::Schema schema({{"objectId", sql::ColumnType::kInt},
                      {"ra_PS", sql::ColumnType::kDouble},
                      {"decl_PS", sql::ColumnType::kDouble}});
  sql::Table part("r", schema);
  for (int r = 0; r < 40; ++r) {
    std::vector<sql::Value> row = {sql::Value(r), sql::Value(r * 0.5),
                                   sql::Value(-r * 0.25)};
    (void)part.appendRow(row);
  }
  util::Stopwatch watch;
  for (auto _ : state) {
    sql::Table merge("m", schema);
    for (int c = 0; c < 215; ++c) (void)merge.appendFrom(part);
    benchmark::DoNotOptimize(merge.numRows());
  }
  state.SetLabel("measured");
  qserv::bench::recordRate("bench.micro.merge_append_215_chunks_ns_per_iter",
                           watch, state.iterations());
}
BENCHMARK(BM_MergeAppend215Chunks);

sql::Database* scanDb() {
  static sql::Database* db = [] {
    auto* d = new sql::Database("micro");
    datagen::BasePatchOptions opts;
    opts.objectCount = 100000;
    datagen::BasePatchGenerator gen(opts);
    auto objects = gen.objects();
    sphgeom::Chunker chunker(1, 1);
    auto cat = datagen::partitionCatalog(chunker, objects, {});
    (void)datagen::loadChunkIntoDatabase(*d, cat->chunks[0]);
    return d;
  }();
  return db;
}

void BM_ExecutorFilterScan100k(benchmark::State& state) {
  sql::Database* db = scanDb();
  std::string table = db->tableNames()[1];  // Object_0
  std::string sql = "SELECT COUNT(*) FROM Object_0 WHERE ra_PS > 0 AND "
                    "fluxToAbMag(gFlux_PS) - fluxToAbMag(rFlux_PS) > 0.5";
  std::uint64_t rows = 0;
  util::Stopwatch watch;
  for (auto _ : state) {
    sql::ExecStats stats;
    auto r = db->execute(sql, &stats);
    benchmark::DoNotOptimize(r);
    rows += stats.rowsScanned;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rows));
  (void)table;
  qserv::bench::recordRate("bench.micro.executor_filter_scan_100k_ns_per_iter", watch,
                          state.iterations());
}
BENCHMARK(BM_ExecutorFilterScan100k);

void BM_ExecutorIndexProbe(benchmark::State& state) {
  sql::Database* db = scanDb();
  util::Rng rng(7);
  util::Stopwatch watch;
  for (auto _ : state) {
    std::string sql = "SELECT * FROM Object_0 WHERE objectId = " +
                      std::to_string(rng.below(100000));
    auto r = db->execute(sql);
    benchmark::DoNotOptimize(r);
  }
  qserv::bench::recordRate("bench.micro.executor_index_probe_ns_per_iter", watch,
                          state.iterations());
}
BENCHMARK(BM_ExecutorIndexProbe);

// Building the objectId index of a 100k-row chunk table (every deploy-time
// createIndex and every replaceTable of an indexed table pays this).
void BM_IndexBuild100k(benchmark::State& state) {
  sql::TablePtr table = scanDb()->findTable("Object_0");
  std::size_t col = *table->schema().indexOf("objectId");
  util::Stopwatch watch;
  for (auto _ : state) {
    sql::OrderedIndex index(*table, col);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(table->numRows()));
  qserv::bench::recordRate("bench.micro.index_build_100k_ns_per_iter", watch,
                           state.iterations());
}
BENCHMARK(BM_IndexBuild100k)->Unit(benchmark::kMillisecond);

std::vector<datagen::SecondaryIndexEntry> indexEntries(std::int64_t from,
                                                       std::int64_t count) {
  std::vector<datagen::SecondaryIndexEntry> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::int64_t id = from; id < from + count; ++id) {
    out.push_back({id, static_cast<std::int32_t>(id % 8832),
                   static_cast<std::int32_t>(id % 64)});
  }
  return out;
}

// One ingest batch's publish (500 entries) onto an ObjectIndex of
// state.range(0) entries. A fixed iteration count bounds the growth of the
// index during the run to 10k entries.
void BM_SecondaryIndexPublish500(benchmark::State& state) {
  sql::Database db("publish");
  core::SecondaryIndex index(db);
  std::int64_t next = state.range(0);
  if (!index.load(indexEntries(0, next)).isOk()) {
    state.SkipWithError("initial load failed");
    return;
  }
  for (auto _ : state) {
    auto batch = indexEntries(next, 500);
    auto status = index.load(batch);
    benchmark::DoNotOptimize(status);
    next += 500;
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_SecondaryIndexPublish500)
    ->Arg(100000)
    ->Arg(400000)
    ->Iterations(20)
    ->Unit(benchmark::kMillisecond);

void BM_DumpAndReplay1kRows(benchmark::State& state) {
  sql::Database* db = scanDb();
  auto r = db->execute("SELECT * FROM Object_0 LIMIT 1000");
  util::Stopwatch watch;
  for (auto _ : state) {
    std::string dump = sql::dumpTable(**r, "replayed");
    sql::Database other;
    auto loaded = sql::loadDump(other, dump);
    benchmark::DoNotOptimize(loaded);
  }
  qserv::bench::recordRate("bench.micro.dump_and_replay_1k_rows_ns_per_iter", watch,
                          state.iterations());
}
BENCHMARK(BM_DumpAndReplay1kRows);

// The same 1k-row result through the chunk-result codec: what a worker
// encodes and the czar's merger decodes.
void BM_BinaryEncodeDecode1kRows(benchmark::State& state) {
  sql::Database* db = scanDb();
  auto r = db->execute("SELECT * FROM Object_0 LIMIT 1000");
  util::Stopwatch watch;
  for (auto _ : state) {
    std::string bin = sql::encodeTableBinary(**r, "decoded");
    auto decoded = sql::decodeTableBinary(bin);
    benchmark::DoNotOptimize(decoded);
  }
  qserv::bench::recordRate(
      "bench.micro.binary_encode_decode_1k_rows_ns_per_iter", watch,
      state.iterations());
}
BENCHMARK(BM_BinaryEncodeDecode1kRows);

// Writes the metrics snapshot at exit when QSERV_METRICS_JSON is set
// (perf-smoke's BENCH_micro.json baseline).
const bool kMetricsSnapshotHook =
    (qserv::bench::emitMetricsSnapshotAtExit(), true);

}  // namespace

BENCHMARK_MAIN();
