/// \file bench_observability.cc
/// \brief Overhead gate for query-level profiling (EXPLAIN ANALYZE,
/// QueryStats, slow-query log — see DESIGN.md "Observability").
///
/// Profiling must be cheap enough to leave on in production. A profiled
/// query is traced end to end: typed spans on every layer, the workers'
/// timings carried back in-band, the profile derivation and the QueryStats
/// append. An unprofiled query records no spans at all, so the off arm is
/// the untraced stack and the gap between the arms is the whole cost of
/// asking. This bench runs the same full-scan query with profiling
/// disabled and enabled, interleaved to cancel drift, and ABORTS (exit 1)
/// if the median wall-time overhead exceeds 5%.
///
/// It also smoke-checks the tentpole surface end to end: EXPLAIN returns a
/// plan table without executing, EXPLAIN ANALYZE returns a per-stage
/// breakdown whose stage sum is sane, and QueryStats retains one row per
/// profiled query. Run as part of `perf-smoke` with QSERV_METRICS_JSON set;
/// the exit snapshot (BENCH_observability.json) records both medians and the
/// overhead so later PRs see the trajectory.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sql/table.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace {

using namespace qserv;

constexpr int kPairs = 25;         // interleaved off/on measurement pairs
constexpr int kWarmup = 5;         // unmeasured runs per mode before timing
constexpr double kMaxOverhead = 0.05;

double medianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One timed execution through the real frontend; aborts on failure.
double timedRun(bench::PaperSetup& setup, const std::string& sql) {
  util::Stopwatch watch;
  bench::runQuery(setup, sql);
  return watch.elapsedSeconds();
}

void requireRows(const core::QservFrontend::Execution& exec,
                 const char* what) {
  if (!exec.result || exec.result->numRows() == 0) {
    std::fprintf(stderr, "OBSERVABILITY FAILURE: %s returned no rows\n", what);
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace qserv;

  bench::PaperSetupOptions opts;
  opts.basePatchObjects = 300;
  opts.realWorkers = 2;
  opts.numStripes = 18;
  opts.numSubStripes = 6;
  opts.objectRegion = sphgeom::SphericalBox(0, -7, 14, 7);
  auto setup = bench::makePaperSetup(opts);
  auto& frontend = setup.frontend();

  bench::printBanner(
      "observability: profiling overhead + EXPLAIN surface",
      "DESIGN.md Observability (per-query profiles from trace spans)",
      "profiled wall within 5% of unprofiled; EXPLAIN never dispatches");

  const std::string scan =
      "SELECT COUNT(*) FROM Object WHERE iFlux_PS > 0";

  // --- tentpole smoke checks ------------------------------------------------
  {
    auto before = frontend.processList().size();
    auto plan = frontend.query("EXPLAIN " + scan);
    if (!plan.isOk()) {
      std::fprintf(stderr, "EXPLAIN failed: %s\n",
                   plan.status().toString().c_str());
      return 1;
    }
    requireRows(*plan, "EXPLAIN");
    if (plan->chunksDispatched != 0) {
      std::fprintf(stderr,
                   "OBSERVABILITY FAILURE: EXPLAIN dispatched %zu chunks\n",
                   plan->chunksDispatched);
      return 1;
    }
    // EXPLAIN must not show up as an executed query.
    if (frontend.processList().size() != before) {
      std::fprintf(stderr,
                   "OBSERVABILITY FAILURE: EXPLAIN entered the process list\n");
      return 1;
    }
  }
  {
    auto analyzed = frontend.query("EXPLAIN ANALYZE " + scan);
    if (!analyzed.isOk()) {
      std::fprintf(stderr, "EXPLAIN ANALYZE failed: %s\n",
                   analyzed.status().toString().c_str());
      return 1;
    }
    requireRows(*analyzed, "EXPLAIN ANALYZE");
    if (!analyzed->profile || analyzed->profile->wallSeconds <= 0.0) {
      std::fprintf(stderr,
                   "OBSERVABILITY FAILURE: EXPLAIN ANALYZE has no profile\n");
      return 1;
    }
    bench::printKeyValue(
        "explain-analyze stages",
        util::format("%zu stages, wall %.2f ms",
                     analyzed->profile->stages.size(),
                     analyzed->profile->wallSeconds * 1e3));
  }
  {
    auto stats = frontend.query("SELECT COUNT(*) FROM QueryStats");
    if (!stats.isOk() || !stats->result || stats->result->numRows() != 1) {
      std::fprintf(stderr, "OBSERVABILITY FAILURE: QueryStats not queryable\n");
      return 1;
    }
  }

  // --- overhead gate --------------------------------------------------------
  // Warm both paths (subchunk caches, lazy table indexes, allocator) before
  // measuring; then interleave off/on so background drift hits both equally.
  for (int i = 0; i < kWarmup; ++i) {
    frontend.setProfilingEnabled(false);
    timedRun(setup, scan);
    frontend.setProfilingEnabled(true);
    timedRun(setup, scan);
  }

  std::vector<double> offSec, onSec;
  auto& reg = util::MetricsRegistry::instance();
  auto& offHist = reg.histogram("bench.observability.baseline_seconds");
  auto& onHist = reg.histogram("bench.observability.profiled_seconds");
  for (int i = 0; i < kPairs; ++i) {
    frontend.setProfilingEnabled(false);
    double off = timedRun(setup, scan);
    frontend.setProfilingEnabled(true);
    double on = timedRun(setup, scan);
    offSec.push_back(off);
    onSec.push_back(on);
    offHist.observe(off);
    onHist.observe(on);
    std::printf("  pair %3d   off %8.2f ms   on %8.2f ms\n", i, off * 1e3,
                on * 1e3);
  }
  frontend.setProfilingEnabled(true);

  double offMed = medianOf(offSec);
  double onMed = medianOf(onSec);
  double overhead = offMed > 0.0 ? (onMed - offMed) / offMed : 0.0;
  reg.gauge("bench.observability.baseline_us")
      .set(static_cast<std::int64_t>(offMed * 1e6));
  reg.gauge("bench.observability.profiled_us")
      .set(static_cast<std::int64_t>(onMed * 1e6));
  // Basis points so the int64 gauge keeps two decimal digits of percent.
  reg.gauge("bench.observability.overhead_bp")
      .set(static_cast<std::int64_t>(overhead * 1e4));

  bench::printKeyValue("baseline median",
                       util::format("%.3f ms", offMed * 1e3));
  bench::printKeyValue("profiled median",
                       util::format("%.3f ms", onMed * 1e3));
  bench::printKeyValue("overhead", util::format("%.2f%%", overhead * 100.0));

  if (overhead > kMaxOverhead) {
    std::fprintf(stderr,
                 "OVERHEAD FAILURE: profiling costs %.2f%% (> %.0f%%): "
                 "baseline %.3f ms, profiled %.3f ms\n",
                 overhead * 100.0, kMaxOverhead * 100.0, offMed * 1e3,
                 onMed * 1e3);
    return 1;
  }
  std::printf("observability overhead gate passed\n");
  return 0;
}
