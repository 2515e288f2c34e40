/// \file bench_filter.cc
/// \brief Scan-filter benchmarks: vectorized kernels vs the row-at-a-time
/// path, zone-map pruning, and columnar vs boxed aggregation (see
/// sql/vector_eval.h and DESIGN.md "Scan pipeline").
///
/// Run as part of the `perf-smoke` CTest target with QSERV_METRICS_JSON set;
/// the exit snapshot (BENCH_filter.json) records the measured speedups and
/// aggregation rows/s as gauges so later PRs have a trajectory to compare
/// against. The process aborts if the two paths disagree on any result, if
/// the zone-prunable predicate fails to report a pruned scan with zero rows
/// scanned, or if an aggregate case does not run columnar.
#include <benchmark/benchmark.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "sql/database.h"
#include "sql/expr_eval.h"
#include "sql/parser.h"
#include "sql/vector_eval.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace qserv;

constexpr std::size_t kRows = 400000;

/// Scan table: objectId INT (0..N), subChunkId INT (0..99), ra/decl DOUBLE
/// positions, flux DOUBLE with ~5% NULLs. Mirrors the chunk-table shape the
/// paper's scan queries hit.
sql::Database* scanDb() {
  static sql::Database* db = [] {
    auto* d = new sql::Database("bench_filter");
    sql::Schema schema({{"objectId", sql::ColumnType::kInt},
                        {"subChunkId", sql::ColumnType::kInt},
                        {"ra", sql::ColumnType::kDouble},
                        {"decl", sql::ColumnType::kDouble},
                        {"flux", sql::ColumnType::kDouble}});
    auto table = std::make_shared<sql::Table>("ScanT", schema);
    util::Rng rng(42);
    std::vector<std::vector<sql::Value>> batch;
    batch.reserve(4096);
    for (std::size_t i = 0; i < kRows; ++i) {
      std::vector<sql::Value> row;
      row.reserve(5);
      row.emplace_back(static_cast<std::int64_t>(i));
      row.emplace_back(static_cast<std::int64_t>(i % 100));
      row.emplace_back(rng.uniform(0.0, 360.0));
      row.emplace_back(rng.uniform(-90.0, 90.0));
      if (rng.below(100) < 5) {
        row.emplace_back();  // NULL flux
      } else {
        row.emplace_back(rng.uniform(10.0, 30.0));
      }
      batch.push_back(std::move(row));
      if (batch.size() == 4096) {
        auto s = table->appendRows(batch);
        if (!s.isOk()) std::abort();
        batch.clear();
      }
    }
    if (!batch.empty() && !table->appendRows(batch).isOk()) std::abort();
    if (!d->registerTable(std::move(table)).isOk()) std::abort();
    return d;
  }();
  return db;
}

std::int64_t runCount(sql::Database& db, const std::string& query,
                      sql::ExecStats* stats = nullptr) {
  auto r = db.execute(query, stats);
  if (!r.isOk()) {
    std::fprintf(stderr, "bench_filter query failed: %s\n  for: %s\n",
                 r.status().toString().c_str(), query.c_str());
    std::abort();
  }
  return (*r)->cell(0, 0).asInt();
}

// The three predicate classes of the perf-smoke matrix.
const char* kNonSelective =
    "SELECT COUNT(*) FROM ScanT WHERE ra BETWEEN 0 AND 324";  // ~90% pass
const char* kSelective =
    "SELECT COUNT(*) FROM ScanT WHERE ra BETWEEN 100 AND 103.6";  // ~1% pass
const char* kConjunction =
    "SELECT COUNT(*) FROM ScanT WHERE ra BETWEEN 30 AND 300 "
    "AND decl BETWEEN -45 AND 45 AND flux > 12.5";
const char* kZonePrunable =
    "SELECT COUNT(*) FROM ScanT WHERE subChunkId = 999";  // table holds 0..99

// The two aggregate classes: an HV3-style density GROUP BY on an INT key,
// and an HV4-style filtered COUNT/MIN/MAX (plus a SUM).
const char* kAggGroupBy =
    "SELECT subChunkId, COUNT(*) FROM ScanT GROUP BY subChunkId";
const char* kAggFiltered =
    "SELECT COUNT(*), MIN(decl), MAX(decl), SUM(flux) FROM ScanT "
    "WHERE ra BETWEEN 30 AND 300";

void benchQuery(benchmark::State& state, const char* query, bool vectorized) {
  sql::Database* db = scanDb();
  sql::setVectorizedFilterEnabled(vectorized);
  std::uint64_t rows = 0;
  for (auto _ : state) {
    sql::ExecStats stats;
    benchmark::DoNotOptimize(runCount(*db, query, &stats));
    rows += stats.rowsScanned + stats.zoneMapRowsSkipped;
  }
  sql::setVectorizedFilterEnabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(rows));
}

void BM_RowScanNonSelective(benchmark::State& s) {
  benchQuery(s, kNonSelective, false);
}
void BM_VectorScanNonSelective(benchmark::State& s) {
  benchQuery(s, kNonSelective, true);
}
void BM_RowScanSelective(benchmark::State& s) {
  benchQuery(s, kSelective, false);
}
void BM_VectorScanSelective(benchmark::State& s) {
  benchQuery(s, kSelective, true);
}
void BM_RowScanConjunction(benchmark::State& s) {
  benchQuery(s, kConjunction, false);
}
void BM_VectorScanConjunction(benchmark::State& s) {
  benchQuery(s, kConjunction, true);
}
void BM_RowScanZonePrunable(benchmark::State& s) {
  benchQuery(s, kZonePrunable, false);
}
void BM_VectorScanZonePrunable(benchmark::State& s) {
  benchQuery(s, kZonePrunable, true);
}
BENCHMARK(BM_RowScanNonSelective);
BENCHMARK(BM_VectorScanNonSelective);
BENCHMARK(BM_RowScanSelective);
BENCHMARK(BM_VectorScanSelective);
BENCHMARK(BM_RowScanConjunction);
BENCHMARK(BM_VectorScanConjunction);
BENCHMARK(BM_RowScanZonePrunable);
BENCHMARK(BM_VectorScanZonePrunable);

/// Aggregate cases: items are table rows aggregated per second.
void benchAggregate(benchmark::State& state, const char* query,
                    bool columnar) {
  sql::Database* db = scanDb();
  sql::setVectorizedFilterEnabled(columnar);
  for (auto _ : state) benchmark::DoNotOptimize(runCount(*db, query));
  sql::setVectorizedFilterEnabled(true);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRows));
}

void BM_BoxedAggGroupBy(benchmark::State& s) {
  benchAggregate(s, kAggGroupBy, false);
}
void BM_ColumnarAggGroupBy(benchmark::State& s) {
  benchAggregate(s, kAggGroupBy, true);
}
void BM_BoxedAggFiltered(benchmark::State& s) {
  benchAggregate(s, kAggFiltered, false);
}
void BM_ColumnarAggFiltered(benchmark::State& s) {
  benchAggregate(s, kAggFiltered, true);
}
BENCHMARK(BM_BoxedAggGroupBy);
BENCHMARK(BM_ColumnarAggGroupBy);
BENCHMARK(BM_BoxedAggFiltered);
BENCHMARK(BM_ColumnarAggFiltered);

/// Kernel-level comparison, no SQL/executor overhead: ScanFilter::run vs a
/// CompiledExpr eval loop over the same predicate.
const sql::Expr* wherePredicate() {
  static sql::Statement* stmt = [] {
    auto r = sql::parseStatement(
        "SELECT * FROM ScanT WHERE ra BETWEEN 30 AND 300");
    if (!r.isOk()) std::abort();
    return new sql::Statement(std::move(*r));
  }();
  return std::get<sql::SelectStmt>(*stmt).where.get();
}

void BM_KernelDoubleRange400k(benchmark::State& state) {
  sql::Database* db = scanDb();
  sql::TablePtr table = db->findTable("ScanT");
  std::vector<sql::ScopeTable> scope{{"ScanT", table.get()}};
  const sql::Expr* pred = wherePredicate();
  std::vector<std::size_t> out;
  for (auto _ : state) {
    auto sf = sql::compileScanFilter({&pred, 1}, scope, 0, db->functions());
    if (!sf.isOk()) std::abort();
    out.clear();
    sf->run(*table, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_KernelDoubleRange400k);

void BM_ScalarExprDoubleRange400k(benchmark::State& state) {
  sql::Database* db = scanDb();
  sql::TablePtr table = db->findTable("ScanT");
  std::vector<sql::ScopeTable> scope{{"ScanT", table.get()}};
  auto compiled = sql::bindExpr(*wherePredicate(), scope, db->functions());
  if (!compiled.isOk()) std::abort();
  const sql::Table* raw = table.get();
  for (auto _ : state) {
    std::size_t cursor = 0;
    sql::EvalCtx ctx{{&raw, 1}, {&cursor, 1}, {}};
    std::size_t hits = 0;
    for (cursor = 0; cursor < kRows; ++cursor) {
      if ((*compiled)->eval(ctx).isTrue()) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_ScalarExprDoubleRange400k);

// ------------------------------------------------------- acceptance gates

void requireEqual(std::int64_t a, std::int64_t b, const char* what) {
  if (a != b) {
    std::fprintf(stderr, "PARITY FAILURE (%s): vector=%lld row=%lld\n", what,
                 static_cast<long long>(a), static_cast<long long>(b));
    std::abort();
  }
}

/// Run \p query on both aggregation paths; abort unless the result tables
/// match cell for cell (type and bit pattern) and the columnar run counted
/// exactly one columnar aggregate.
void requireAggregateParity(sql::Database& db, const char* query) {
  sql::ExecStats stats;
  sql::setVectorizedFilterEnabled(true);
  auto columnar = db.execute(query, &stats);
  sql::setVectorizedFilterEnabled(false);
  auto boxed = db.execute(query);
  sql::setVectorizedFilterEnabled(true);
  if (!columnar.isOk() || !boxed.isOk()) {
    std::fprintf(stderr, "AGGREGATE FAILURE: query failed: %s\n", query);
    std::abort();
  }
  const sql::Table& a = **columnar;
  const sql::Table& b = **boxed;
  bool same = a.numRows() == b.numRows() && a.numColumns() == b.numColumns();
  for (std::size_t c = 0; same && c < a.numColumns(); ++c) {
    same = a.schema().column(c).type == b.schema().column(c).type;
    for (std::size_t r = 0; same && r < a.numRows(); ++r) {
      sql::Value x = a.cell(r, c), y = b.cell(r, c);
      same = x.isDouble() && y.isDouble()
                 ? std::bit_cast<std::uint64_t>(x.asDouble()) ==
                       std::bit_cast<std::uint64_t>(y.asDouble())
                 : x == y;
    }
  }
  if (!same || stats.columnarAggregates != 1) {
    std::fprintf(stderr,
                 "AGGREGATE FAILURE (%s): parity=%d columnar_aggregates=%llu\n",
                 query, same ? 1 : 0,
                 static_cast<unsigned long long>(stats.columnarAggregates));
    std::abort();
  }
}

void verifyParityAndPruning() {
  sql::Database* db = scanDb();
  requireAggregateParity(*db, kAggGroupBy);
  requireAggregateParity(*db, kAggFiltered);
  for (const char* q :
       {kNonSelective, kSelective, kConjunction, kZonePrunable}) {
    sql::setVectorizedFilterEnabled(true);
    std::int64_t vec = runCount(*db, q);
    sql::setVectorizedFilterEnabled(false);
    std::int64_t row = runCount(*db, q);
    sql::setVectorizedFilterEnabled(true);
    requireEqual(vec, row, q);
  }
  sql::ExecStats stats;
  std::int64_t n = runCount(*db, kZonePrunable, &stats);
  if (n != 0 || stats.zoneMapPrunes != 1 || stats.rowsScanned != 0 ||
      stats.zoneMapRowsSkipped != kRows) {
    std::fprintf(stderr,
                 "ZONE-MAP FAILURE: count=%lld prunes=%llu scanned=%llu "
                 "skipped=%llu (want 0/1/0/%zu)\n",
                 static_cast<long long>(n),
                 static_cast<unsigned long long>(stats.zoneMapPrunes),
                 static_cast<unsigned long long>(stats.rowsScanned),
                 static_cast<unsigned long long>(stats.zoneMapRowsSkipped),
                 kRows);
    std::abort();
  }
  std::printf("zone-map prune check: 0 rows scanned, %zu skipped  [ok]\n",
              kRows);
}

double secondsPerExec(sql::Database& db, const char* query, bool vectorized,
                      int iters) {
  sql::setVectorizedFilterEnabled(vectorized);
  (void)runCount(db, query);  // warm up
  double best = 1e30;
  for (int i = 0; i < iters; ++i) {
    util::Stopwatch w;
    (void)runCount(db, query);
    best = std::min(best, w.elapsedSeconds());
  }
  sql::setVectorizedFilterEnabled(true);
  return best;
}

void reportSpeedups() {
  sql::Database* db = scanDb();
  auto& reg = util::MetricsRegistry::instance();
  struct Case {
    const char* label;
    const char* metric;
    const char* query;
  };
  const Case cases[] = {
      {"non-selective double range", "bench.filter.speedup_nonselective",
       kNonSelective},
      {"selective double range", "bench.filter.speedup_selective", kSelective},
      {"conjunction", "bench.filter.speedup_conjunction", kConjunction},
      {"zone-prunable", "bench.filter.speedup_zoneprune", kZonePrunable},
  };
  std::printf("---- vectorized vs row-at-a-time (end-to-end execute) ----\n");
  for (const Case& c : cases) {
    double rowSec = secondsPerExec(*db, c.query, false, 7);
    double vecSec = secondsPerExec(*db, c.query, true, 7);
    double speedup = rowSec / vecSec;
    reg.gauge(c.metric).set(speedup);
    std::printf("  %-28s row %8.3f ms   vector %8.3f ms   speedup %5.2fx\n",
                c.label, rowSec * 1e3, vecSec * 1e3, speedup);
    if (std::string(c.metric) == "bench.filter.speedup_nonselective" &&
        speedup < 3.0) {
      std::fprintf(stderr,
                   "SPEEDUP FAILURE: non-selective scan speedup %.2fx < 3x\n",
                   speedup);
      std::abort();
    }
  }

  const Case aggCases[] = {
      {"GROUP BY subChunkId COUNT(*)", "agg_groupby", kAggGroupBy},
      {"filtered COUNT/MIN/MAX/SUM", "agg_filtered", kAggFiltered},
  };
  // Gauges are integers: rows/s as is, speedups in hundredths.
  std::printf("---- columnar vs boxed aggregation (end-to-end execute) ----\n");
  for (const Case& c : aggCases) {
    double boxedSec = secondsPerExec(*db, c.query, false, 7);
    double columnarSec = secondsPerExec(*db, c.query, true, 7);
    double speedup = boxedSec / columnarSec;
    std::string prefix = std::string("bench.filter.") + c.metric;
    reg.gauge(prefix + "_boxed_rows_per_s")
        .set(static_cast<std::int64_t>(kRows / boxedSec));
    reg.gauge(prefix + "_columnar_rows_per_s")
        .set(static_cast<std::int64_t>(kRows / columnarSec));
    reg.gauge(prefix + "_speedup_x100")
        .set(static_cast<std::int64_t>(speedup * 100.0));
    std::printf("  %-28s boxed %8.3f ms   columnar %8.3f ms   speedup %5.2fx"
                "   (%.1f Mrows/s)\n",
                c.label, boxedSec * 1e3, columnarSec * 1e3, speedup,
                kRows / columnarSec / 1e6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::emitMetricsSnapshotAtExit();
  verifyParityAndPruning();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  reportSpeedups();
  benchmark::Shutdown();
  return 0;
}
