/// \file e2ebench.cc
/// \brief Wall-clock end-to-end benchmark of the in-process Qserv cluster.
///
/// Builds a seeded synthetic sky, partitions it onto a MiniCluster (czar ->
/// dispatcher -> xrd fabric -> worker scheduler -> SQL executor -> merger),
/// then drives one workload in a closed loop for a fixed wall-clock window
/// and checks every answer against values computed directly from the
/// generated catalog.
///
///   e2ebench --workload <interactive|fullsky|contended|ingest> --seed <n>
///            --seconds <s> --trace <0|1> [--trace-file <path>]
///
/// Workloads (every client is closed-loop: it sends its next request only
/// after the previous one returned):
///   interactive  4 clients: objectId point lookups on Object and Source plus
///                1x1 deg area counts (secondary index, 1-4 chunks).
///   fullsky      1 client: full-sky scans over every chunk (COUNT, selective
///                row scan, GROUP BY chunk, filtered MIN/MAX, a scan
///                shipping ~3% of the rows to the czar).
///   contended    the interactive clients measured while 2 fullsky clients
///                keep the workers busy (the paper's Fig 14 mix).
///   ingest       1 client loads CSV batches into fresh chunks (CSV ->
///                partition -> install -> publish), reading each back, while
///                2 interactive clients keep querying.
///
/// The last stdout line is one JSON object:
///   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
/// With --trace 0 the metrics are the end-to-end ones: p50/p90 latency of
/// the workload's measured operation (interactive queries; full-sky queries;
/// interactive queries under scans; ingest batches), chunk queries completed
/// per second by all clients, and set-up time (median of several set-ups).
/// With --trace 1 per-query profiling is on and the metrics attribute query
/// time to the layers (czar planning, dispatch + pipelined merge, worker
/// queue wait and execution, xrd result transfer, final aggregation) and
/// report layer counters; --trace-file receives the Chrome trace of the
/// slowest attributed query.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "qserv/cluster.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace qserv;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- geometry
// 36 stripes x 6 sub-stripes (5 deg chunks), 3 arcmin overlap. The base sky
// covers RA 0..60, Dec -30..30: ~96k objects in ~215 chunks (duplicated
// patches spill past the region edge), so a full-sky query pays the
// per-chunk path hundreds of times. Source rows cover a central patch.
constexpr int kStripes = 36;
constexpr int kSubStripes = 6;
constexpr double kOverlapDeg = 0.05;
constexpr std::int64_t kBasePatchObjects = 2000;
constexpr int kNumWorkers = 4;
constexpr int kSetupRepeats = 7;
constexpr std::size_t kInteractivePool = 512;
constexpr int kScanParamsPerKind = 8;
constexpr int kIngestObjectsPerBatch = 500;
constexpr int kInteractiveClients = 4;
constexpr int kContendingScans = 2;
constexpr int kIngestReaders = 2;

const sphgeom::SphericalBox kBaseRegion(0.0, -30.0, 60.0, 30.0);
const sphgeom::SphericalBox kSourceRegion(0.0, -7.0, 14.0, 7.0);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string traceFile;
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "e2ebench: %s\n", msg.c_str());
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  if (argc % 2 == 0) die("arguments come in --name value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--trace-file") {
      o.traceFile = val;
    } else {
      die("unknown argument " + key);
    }
  }
  if (o.workload != "interactive" && o.workload != "fullsky" &&
      o.workload != "contended" && o.workload != "ingest") {
    die("--workload must be interactive|fullsky|contended|ingest");
  }
  if (!(o.seconds > 0.0)) die("--seconds must be positive");
  return o;
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- catalog view

std::size_t columnOf(const sql::Table& t, const char* name) {
  auto idx = t.schema().indexOf(name);
  if (!idx) die(std::string("catalog table lacks column ") + name);
  return *idx;
}

/// The generated catalog flattened (Object rows without overlap copies):
/// the ground truth every answer is checked against.
struct CatalogView {
  std::vector<std::int64_t> id, chunk;
  std::vector<double> ra, decl, uRadius, gFlux, rFlux;
  std::unordered_map<std::int64_t, std::int64_t> sourcesPerObject;
  std::set<std::int32_t> chunkIds;

  explicit CatalogView(const datagen::PartitionedCatalog& cat) {
    for (const auto& c : cat.chunks) {
      chunkIds.insert(c.chunkId);
      const sql::Table& t = *c.objects;
      auto append = [&](auto& dst, const auto& src) {
        dst.insert(dst.end(), src.begin(), src.end());
      };
      append(id, t.intColumn(columnOf(t, "objectId")));
      append(chunk, t.intColumn(columnOf(t, "chunkId")));
      append(ra, t.doubleColumn(columnOf(t, "ra_PS")));
      append(decl, t.doubleColumn(columnOf(t, "decl_PS")));
      append(uRadius, t.doubleColumn(columnOf(t, "uRadius_PS")));
      append(gFlux, t.doubleColumn(columnOf(t, "gFlux_PS")));
      append(rFlux, t.doubleColumn(columnOf(t, "rFlux_PS")));
      if (c.sources && c.sources->numRows() > 0) {
        for (std::int64_t oid :
             c.sources->intColumn(columnOf(*c.sources, "objectId"))) {
          ++sourcesPerObject[oid];
        }
      }
    }
  }
  std::size_t size() const { return id.size(); }
};

// ------------------------------------------------------------------ queries

using Check = std::function<bool(const sql::Table&)>;

struct Query {
  std::string sql;
  Check check;
};

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

bool cellIs(const sql::Table& t, std::size_t row, std::size_t col,
            double expected) {
  if (row >= t.numRows() || col >= t.numColumns()) return false;
  sql::Value v = t.cell(row, col);
  return v.isNumeric() && near(v.toDouble(), expected);
}

/// Value at quantile q of \p xs (copy sorted ascending).
double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  auto i = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1));
  return xs[i];
}

Query countQuery(const std::string& sql, std::int64_t expected) {
  return {sql, [expected](const sql::Table& t) {
            return t.numRows() == 1 &&
                   cellIs(t, 0, 0, static_cast<double>(expected));
          }};
}

std::string boxSql(const sphgeom::SphericalBox& b) {
  return util::format("qserv_areaspec_box(%.9f, %.9f, %.9f, %.9f)", b.lonMin(),
                      b.latMin(), b.lonMax(), b.latMax());
}

std::int64_t countInBox(const CatalogView& v, const sphgeom::SphericalBox& b) {
  std::int64_t n = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    n += v.ra[i] >= b.lonMin() && v.ra[i] <= b.lonMax() &&
         v.decl[i] >= b.latMin() && v.decl[i] <= b.latMax();
  }
  return n;
}

/// Point lookups (Object and Source by objectId) and small-area counts,
/// interleaved 2:1:1.
std::vector<Query> interactivePool(const CatalogView& v, util::Rng& rng) {
  std::vector<std::int64_t> withSources;
  for (const auto& [oid, n] : v.sourcesPerObject) withSources.push_back(oid);
  std::sort(withSources.begin(), withSources.end());
  if (withSources.empty()) die("catalog has no Source rows");

  std::vector<Query> pool;
  for (std::size_t i = 0; pool.size() < kInteractivePool; ++i) {
    switch (i % 4) {
      case 0:
      case 2: {
        std::size_t r = rng.below(v.size());
        std::int64_t oid = v.id[r];
        double ra = v.ra[r];
        pool.push_back(
            {util::format("SELECT objectId, ra_PS, decl_PS FROM Object "
                          "WHERE objectId = %lld",
                          static_cast<long long>(oid)),
             [oid, ra](const sql::Table& t) {
               return t.numRows() == 1 &&
                      cellIs(t, 0, 0, static_cast<double>(oid)) &&
                      cellIs(t, 0, 1, ra);
             }});
        break;
      }
      case 1: {
        std::int64_t oid = withSources[rng.below(withSources.size())];
        auto n = static_cast<std::size_t>(v.sourcesPerObject.at(oid));
        pool.push_back(
            {util::format("SELECT sourceId, taiMidPoint FROM Source "
                          "WHERE objectId = %lld",
                          static_cast<long long>(oid)),
             [n](const sql::Table& t) { return t.numRows() == n; }});
        break;
      }
      default: {
        constexpr double w = 1.0;
        double lon = rng.uniform(kBaseRegion.lonMin() + 1.0,
                                 kBaseRegion.lonMax() - 1.0 - w);
        double lat = rng.uniform(kBaseRegion.latMin() + 1.0,
                                 kBaseRegion.latMax() - 1.0 - w);
        sphgeom::SphericalBox box(lon, lat, lon + w, lat + w);
        pool.push_back(countQuery(
            "SELECT COUNT(*) FROM Object WHERE " + boxSql(box),
            countInBox(v, box)));
      }
    }
  }
  return pool;
}

/// Full-sky scans: every Object chunk is dispatched. Five shapes, each with
/// kScanParamsPerKind seeded parameterizations, interleaved.
std::vector<Query> fullSkyPool(const CatalogView& v, util::Rng& rng) {
  std::map<std::int64_t, std::int64_t> perChunk;
  for (std::int64_t c : v.chunk) ++perChunk[c];
  std::vector<std::vector<Query>> kinds(5);
  for (int p = 0; p < kScanParamsPerKind; ++p) {
    // HV1: whole-table count.
    kinds[0].push_back(countQuery("SELECT COUNT(*) FROM Object",
                                  static_cast<std::int64_t>(v.size())));

    // Parameters vary which rows qualify, not how many, so a query's cost
    // does not depend on the seed.
    // HV2: selective flux cut returning ~0.1% of rows.
    double fluxCut = quantile(v.rFlux, 1.0 - rng.uniform(0.0009, 0.0011));
    std::vector<std::int64_t> ids;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v.rFlux[i] > fluxCut) ids.push_back(v.id[i]);
    }
    std::sort(ids.begin(), ids.end());
    kinds[1].push_back(
        {util::format("SELECT objectId, ra_PS, decl_PS FROM Object "
                      "WHERE rFlux_PS > %.17g",
                      fluxCut),
         [ids](const sql::Table& t) {
           if (t.numRows() != ids.size()) return false;
           std::vector<std::int64_t> got;
           for (std::size_t r = 0; r < t.numRows(); ++r) {
             sql::Value c = t.cell(r, 0);
             if (!c.isInt()) return false;
             got.push_back(c.asInt());
           }
           std::sort(got.begin(), got.end());
           return got == ids;
         }});

    // HV3: per-chunk row counts.
    kinds[2].push_back(
        {"SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId",
         [perChunk](const sql::Table& t) {
           if (t.numRows() != perChunk.size()) return false;
           for (std::size_t r = 0; r < t.numRows(); ++r) {
             sql::Value c = t.cell(r, 0), k = t.cell(r, 1);
             if (!c.isInt() || !k.isNumeric()) return false;
             auto it = perChunk.find(c.asInt());
             if (it == perChunk.end() ||
                 !near(k.toDouble(), static_cast<double>(it->second))) {
               return false;
             }
           }
           return true;
         }});

    // HV4: filtered aggregate (count, min, max) over a 40% flux band.
    double loQ = rng.uniform(0.1, 0.5);
    double lo = quantile(v.gFlux, loQ);
    double hi = quantile(v.gFlux, loQ + 0.4);
    std::int64_t cnt = 0;
    double mn = 1e300, mx = -1e300;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v.gFlux[i] >= lo && v.gFlux[i] <= hi) {
        ++cnt;
        mn = std::min(mn, v.decl[i]);
        mx = std::max(mx, v.decl[i]);
      }
    }
    kinds[3].push_back(
        {util::format("SELECT COUNT(*), MIN(decl_PS), MAX(decl_PS) FROM Object "
                      "WHERE gFlux_PS BETWEEN %.17g AND %.17g",
                      lo, hi),
         [cnt, mn, mx](const sql::Table& t) {
           return t.numRows() == 1 &&
                  cellIs(t, 0, 0, static_cast<double>(cnt)) &&
                  cellIs(t, 0, 1, mn) && cellIs(t, 0, 2, mx);
         }});

    // HV5: a row-returning scan shipping ~3% of the table to the czar.
    double radiusCut = quantile(v.uRadius, 1.0 - rng.uniform(0.029, 0.031));
    std::int64_t rows = 0, idSum = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v.uRadius[i] > radiusCut) {
        ++rows;
        idSum += v.id[i];
      }
    }
    kinds[4].push_back(
        {util::format("SELECT objectId, ra_PS, decl_PS, uRadius_PS FROM "
                      "Object WHERE uRadius_PS > %.17g",
                      radiusCut),
         [rows, idSum](const sql::Table& t) {
           if (t.numRows() != static_cast<std::size_t>(rows)) return false;
           std::int64_t sum = 0;
           for (std::size_t r = 0; r < t.numRows(); ++r) {
             sql::Value c = t.cell(r, 0);
             if (!c.isInt()) return false;
             sum += c.asInt();
           }
           return sum == idSum;
         }});
  }
  std::vector<Query> pool;
  for (int p = 0; p < kScanParamsPerKind; ++p) {
    for (auto& k : kinds) pool.push_back(std::move(k[p]));
  }
  return pool;
}

// ------------------------------------------------------------------ cluster

struct Deployment {
  core::CatalogConfig catalog;
  std::unique_ptr<datagen::PartitionedCatalog> sky;
  std::unique_ptr<core::MiniCluster> cluster;
  double catalogSeconds = 0.0;
  double clusterSeconds = 0.0;
};

Deployment deploy(std::uint64_t seed) {
  Deployment d;
  d.catalog = core::CatalogConfig::lsst(kStripes, kSubStripes, kOverlapDeg);
  core::SkyDataOptions data;
  data.basePatchObjects = kBasePatchObjects;
  data.withSources = true;
  data.region = kBaseRegion;
  data.sourceRegion = kSourceRegion;
  data.basePatch.seed = 0x5eed0000ULL + seed;

  auto t0 = Clock::now();
  auto sky = core::buildSkyCatalog(d.catalog, data);
  if (!sky.isOk()) die("catalog: " + sky.status().toString());
  d.sky = std::make_unique<datagen::PartitionedCatalog>(std::move(*sky));
  d.catalogSeconds = secondsSince(t0);

  core::ClusterOptions opts;
  opts.numWorkers = kNumWorkers;
  opts.replication = 1;
  opts.worker.scheduler = core::SchedulerMode::kSharedScan;
  opts.frontend.catalog = d.catalog;
  opts.repair.replicationTarget = 1;
  auto t1 = Clock::now();
  auto cluster = core::MiniCluster::create(opts, *d.sky);
  if (!cluster.isOk()) die("cluster: " + cluster.status().toString());
  d.cluster = std::move(*cluster);
  d.clusterSeconds = secondsSince(t1);
  return d;
}

// ------------------------------------------------------------------ clients

/// One finished operation as the client saw it.
struct OpRecord {
  double latency = 0.0;    ///< seconds, client-side
  std::size_t chunks = 0;  ///< chunk queries it dispatched
  Clock::time_point end;
  std::shared_ptr<const core::QueryProfile> profile;  ///< --trace 1 only
};

/// What a client's operations are, and how they are reported.
enum class Role {
  kInteractive,  ///< interactive query stream
  kScan,         ///< full-sky query stream
  kIngest,       ///< CSV batch loads (ops are ingests, not queries)
  kReadBack,     ///< the ingest client's read-back queries
};

struct ClientLog {
  Role role = Role::kInteractive;
  std::vector<OpRecord> ops;  ///< ops started while recording
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;
  std::string firstError;
  double slowest = -1.0;  ///< latency of slowestTrace's query
  util::TracePtr slowestTrace;
};

struct RunControl {
  std::atomic<bool> recording{false};
  std::atomic<bool> stop{false};
};

void noteFailure(ClientLog& log, bool ok, bool right, const std::string& what) {
  if (!ok) {
    ++log.failed;
  } else if (!right) {
    ++log.wrong;
  }
  if (log.firstError.empty() && !(ok && right)) log.firstError = what;
}

/// Run one query, check its answer, and log it when recording started
/// before it was sent. Returns whether it succeeded with the right answer.
bool runQuery(core::QservFrontend& fe, const Query& q, const RunControl& ctl,
              ClientLog& log) {
  bool rec = ctl.recording.load(std::memory_order_acquire);
  auto t0 = Clock::now();
  auto r = fe.query(q.sql);
  auto t1 = Clock::now();
  bool ok = r.isOk() && r->result != nullptr;
  bool right = ok && q.check(*r->result);
  if (!rec) return right;
  ++log.attempted;
  noteFailure(log, ok, right,
              (r.isOk() ? std::string("wrong answer") : r.status().toString()) +
                  " for: " + q.sql);
  OpRecord op;
  op.latency = std::chrono::duration<double>(t1 - t0).count();
  op.end = t1;
  if (ok) {
    op.chunks = r->chunksDispatched;
    op.profile = r->profile;
    if (op.profile && op.latency > log.slowest) {
      log.slowest = op.latency;
      log.slowestTrace = r->trace;
    }
  }
  log.ops.push_back(std::move(op));
  return right;
}

void queryLoop(core::QservFrontend& fe, const std::vector<Query>& pool,
               std::size_t offset, const RunControl& ctl, ClientLog& log) {
  for (std::size_t i = offset; !ctl.stop.load(std::memory_order_acquire);
       ++i) {
    runQuery(fe, pool[i % pool.size()], ctl, log);
  }
}

/// A CSV batch of new objects inside one chunk that holds no data yet, kept
/// clear of the chunk edges so no overlap rows reach neighbouring chunks,
/// and the count query that must see exactly those objects afterwards.
struct IngestBatch {
  std::string csv;
  Query readBack;
};

IngestBatch makeIngestBatch(const sphgeom::Chunker& chunker,
                            std::int32_t chunkId, std::int64_t batchNo,
                            util::Rng& rng) {
  sphgeom::SphericalBox cb = chunker.chunkBox(chunkId);
  constexpr double kMargin = 0.25;
  sphgeom::SphericalBox inner(cb.lonMin() + kMargin, cb.latMin() + kMargin,
                              cb.lonMax() - kMargin, cb.latMax() - kMargin);
  IngestBatch b;
  b.csv.reserve(static_cast<std::size_t>(kIngestObjectsPerBatch) * 120);
  for (int i = 0; i < kIngestObjectsPerBatch; ++i) {
    long long oid = 1'000'000'000'000LL + batchNo * 100'000LL + i;
    double ra = rng.uniform(inner.lonMin(), inner.lonMax());
    double decl = rng.uniform(inner.latMin(), inner.latMax());
    b.csv += util::format("%lld,%.9f,%.9f,%.6f", oid, ra, decl,
                          rng.uniform(0.1, 2.0));
    for (int f = 0; f < 7; ++f) {
      b.csv += util::format(",%.6g", rng.uniform(1e-31, 1e-28));
    }
    b.csv += '\n';
  }
  b.readBack = countQuery("SELECT COUNT(*) FROM Object WHERE " + boxSql(inner),
                          kIngestObjectsPerBatch);
  return b;
}

/// Chunks with no base data, away from the poles, in seeded order.
std::vector<std::int32_t> freshChunks(const sphgeom::Chunker& chunker,
                                      const CatalogView& v, util::Rng& rng) {
  std::vector<std::int32_t> out;
  for (std::int32_t c : chunker.allChunks()) {
    sphgeom::SphericalBox b = chunker.chunkBox(c);
    if (v.chunkIds.count(c) || b.latMin() < -60.0 || b.latMax() > 60.0) {
      continue;
    }
    out.push_back(c);
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.below(i)]);
  }
  return out;
}

/// Closed loop of CSV -> partition -> install -> publish batches, each read
/// back (counted in \p readLog) before the next is sent.
void ingestLoop(core::MiniCluster& cluster, const sphgeom::Chunker& chunker,
                const std::vector<std::int32_t>& chunks, std::uint64_t seed,
                const RunControl& ctl, ClientLog& log, ClientLog& readLog) {
  util::Rng rng(seed);
  for (std::size_t k = 0; !ctl.stop.load(std::memory_order_acquire); ++k) {
    if (k >= chunks.size()) die("ingest ran out of fresh chunks");
    IngestBatch batch =
        makeIngestBatch(chunker, chunks[k], static_cast<std::int64_t>(k), rng);
    bool rec = ctl.recording.load(std::memory_order_acquire);
    auto t0 = Clock::now();
    auto r = cluster.repairController().ingestCsv(batch.csv);
    auto t1 = Clock::now();
    bool ok = r.isOk() && *r == 1;
    bool visible = ok && runQuery(cluster.frontend(), batch.readBack, ctl,
                                  readLog);
    if (!rec) continue;
    ++log.attempted;
    noteFailure(log, ok, visible,
                r.isOk() ? "ingested batch not visible to queries"
                         : r.status().toString());
    OpRecord op;
    op.latency = std::chrono::duration<double>(t1 - t0).count();
    op.end = t1;
    log.ops.push_back(std::move(op));
  }
}

// ------------------------------------------------------------------ metrics

/// Percentile by linear interpolation between closest ranks.
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  double pos = p * static_cast<double>(xs.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer attribution of \p queries' time from their profiles: czar
/// stages per query; worker queue-wait/execute and xrd result transfer per
/// chunk query.
void layerMetrics(const std::vector<const OpRecord*>& queries,
                  std::vector<MetricOut>& out) {
  double plan = 0, dispatch = 0, finalAgg = 0, other = 0;
  double waitSum = 0, execSum = 0, xferSum = 0;
  std::int64_t waitN = 0, execN = 0, xferN = 0;
  double chunks = 0, rows = 0, bytes = 0;
  std::int64_t retries = 0;
  std::size_t n = 0;
  for (const OpRecord* op : queries) {
    const core::QueryProfile* p = op->profile.get();
    if (p == nullptr) continue;
    ++n;
    for (const auto& s : p->stages) {
      if (s.name == "parse" || s.name == "analyze" ||
          s.name == "chunk-prune" || s.name == "rewrite") {
        plan += s.seconds;
      } else if (s.name == "dispatch") {
        dispatch += s.seconds;
      } else if (s.name == "final-aggregation") {
        finalAgg += s.seconds;
      }
    }
    other += std::max(0.0, p->wallSeconds - p->stageSeconds());
    waitSum += p->queueWait.sum;
    waitN += p->queueWait.count;
    execSum += p->execute.sum;
    execN += p->execute.count;
    xferSum += p->transfer.sum;
    xferN += p->transfer.count;
    chunks += static_cast<double>(p->chunks);
    rows += static_cast<double>(p->rowsMerged);
    bytes += static_cast<double>(p->bytesTransferred);
    retries += p->retries;
  }
  auto perQuery = [&](double x) {
    return n ? x / static_cast<double>(n) : 0.0;
  };
  auto perChunk = [](double x, std::int64_t k) {
    return k ? x / static_cast<double>(k) : 0.0;
  };
  out.push_back({"czar_plan_ms", perQuery(plan) * 1e3, "ms"});
  out.push_back({"czar_dispatch_merge_ms", perQuery(dispatch) * 1e3, "ms"});
  out.push_back({"czar_final_agg_ms", perQuery(finalAgg) * 1e3, "ms"});
  out.push_back({"czar_unattributed_ms", perQuery(other) * 1e3, "ms"});
  out.push_back(
      {"worker_queue_wait_ms", perChunk(waitSum, waitN) * 1e3, "ms"});
  out.push_back({"worker_execute_ms", perChunk(execSum, execN) * 1e3, "ms"});
  out.push_back({"xrd_transfer_ms", perChunk(xferSum, xferN) * 1e3, "ms"});
  out.push_back({"chunks_per_query", perQuery(chunks), "count"});
  out.push_back({"rows_merged_per_query", perQuery(rows), "count"});
  out.push_back({"result_bytes_per_query", perQuery(bytes), "bytes"});
  out.push_back({"dispatch_retries", static_cast<double>(retries), "count"});
}

/// Layer counters over the measured window (the registry is reset when the
/// window opens), per chunk query completed so runs of different speed
/// compare; installed chunks per second for the ingest path.
void counterMetrics(const util::MetricsSnapshot& snap, double chunkQueries,
                    double window, std::vector<MetricOut>& out) {
  auto counter = [&](const char* name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto perChunk = [&](const char* name) {
    return chunkQueries > 0 ? counter(name) / chunkQueries : 0.0;
  };
  out.push_back(
      {"xrd_writes_per_chunk", perChunk("xrd.write_transactions"), "count"});
  out.push_back(
      {"xrd_read_bytes_per_chunk", perChunk("xrd.bytes_read"), "bytes"});
  out.push_back(
      {"scan_joins_per_chunk", perChunk("worker.scan_joins"), "count"});
  out.push_back({"zone_map_prunes_per_chunk",
                 perChunk("worker.zone_map_prunes"), "count"});
  out.push_back(
      {"budget_waits", counter("worker.budget_waits"), "count"});
  out.push_back({"ingested_chunks_per_s",
                 counter("worker.chunks_installed") / window, "1/s"});
}

std::string jsonNumber(double v) {
  return std::isfinite(v) ? util::format("%.9g", v) : "0";
}

// --------------------------------------------------------------- workloads

/// Client mix per workload (all closed-loop).
struct Plan {
  int interactiveClients = 0;
  int scanClients = 0;
  bool ingest = false;
  Role measured = Role::kInteractive;  ///< whose latency is reported
  Role attributed = Role::kInteractive;  ///< whose queries get layer metrics
};

Plan planFor(const std::string& workload) {
  if (workload == "interactive") {
    return {kInteractiveClients, 0, false, Role::kInteractive,
            Role::kInteractive};
  }
  if (workload == "fullsky") {
    return {0, 1, false, Role::kScan, Role::kScan};
  }
  if (workload == "contended") {
    return {kInteractiveClients, kContendingScans, false, Role::kInteractive,
            Role::kInteractive};
  }
  return {kIngestReaders, 0, true, Role::kIngest, Role::kInteractive};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parseArgs(argc, argv);

  // ---- set-up: generate + partition + deploy, several times; keep the last.
  std::vector<double> setupSamples, catalogSamples, clusterSamples;
  Deployment dep;
  for (int i = 0; i < kSetupRepeats; ++i) {
    dep = Deployment{};  // tear the previous cluster down first
    auto t0 = Clock::now();
    dep = deploy(opt.seed);
    setupSamples.push_back(secondsSince(t0));
    catalogSamples.push_back(dep.catalogSeconds);
    clusterSamples.push_back(dep.clusterSeconds);
  }
  core::MiniCluster& cluster = *dep.cluster;
  core::QservFrontend& fe = cluster.frontend();
  fe.setProfilingEnabled(opt.trace);

  // ---- inputs and expected answers (seeded; not timed).
  CatalogView view(*dep.sky);
  util::Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 17);
  const std::vector<Query> interactive = interactivePool(view, rng);
  const std::vector<Query> scans = fullSkyPool(view, rng);
  const sphgeom::Chunker chunker = dep.catalog.makeChunker();
  const std::vector<std::int32_t> ingestChunks =
      freshChunks(chunker, view, rng);

  // ---- clients.
  const Plan plan = planFor(opt.workload);
  RunControl ctl;
  std::vector<ClientLog> logs(static_cast<std::size_t>(
      plan.interactiveClients + plan.scanClients + (plan.ingest ? 2 : 0)));
  std::vector<std::thread> threads;
  std::size_t next = 0;
  for (int c = 0; c < plan.interactiveClients; ++c) {
    ClientLog& log = logs[next++];
    log.role = Role::kInteractive;
    std::size_t offset = interactive.size() * static_cast<std::size_t>(c) /
                         static_cast<std::size_t>(plan.interactiveClients);
    threads.emplace_back(
        [&, offset] { queryLoop(fe, interactive, offset, ctl, log); });
  }
  for (int c = 0; c < plan.scanClients; ++c) {
    ClientLog& log = logs[next++];
    log.role = Role::kScan;
    std::size_t offset = scans.size() * static_cast<std::size_t>(c) /
                         static_cast<std::size_t>(plan.scanClients);
    threads.emplace_back(
        [&, offset] { queryLoop(fe, scans, offset, ctl, log); });
  }
  if (plan.ingest) {
    ClientLog& log = logs[next++];
    ClientLog& readLog = logs[next++];
    log.role = Role::kIngest;
    readLog.role = Role::kReadBack;
    threads.emplace_back([&] {
      ingestLoop(cluster, chunker, ingestChunks, opt.seed + 99, ctl, log,
                 readLog);
    });
  }

  // Warm up (caches, lazy structures, thread pools), then measure.
  double warmup = std::min(1.5, std::max(0.3, 0.15 * opt.seconds));
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  util::MetricsRegistry::instance().reset();
  auto windowStart = Clock::now();
  ctl.recording.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  auto windowEnd = Clock::now();
  ctl.stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  double window =
      std::chrono::duration<double>(windowEnd - windowStart).count();
  util::MetricsSnapshot snap = util::MetricsRegistry::instance().snapshot();

  // ---- tally.
  std::int64_t attempted = 0, failed = 0, wrong = 0;
  double chunksInWindow = 0;
  std::vector<double> latencies;
  std::vector<const OpRecord*> attributedQueries;
  const ClientLog* slowest = nullptr;
  for (const ClientLog& log : logs) {
    attempted += log.attempted;
    failed += log.failed;
    wrong += log.wrong;
    if (!log.firstError.empty()) {
      std::fprintf(stderr, "e2ebench: %s\n", log.firstError.c_str());
    }
    for (const OpRecord& op : log.ops) {
      if (op.end <= windowEnd) chunksInWindow += static_cast<double>(op.chunks);
      if (log.role == plan.measured) latencies.push_back(op.latency);
      if (log.role == plan.attributed) attributedQueries.push_back(&op);
    }
    if (log.role == plan.attributed && log.slowestTrace &&
        (slowest == nullptr || log.slowest > slowest->slowest)) {
      slowest = &log;
    }
  }
  bool correct = wrong == 0 && !latencies.empty();

  std::vector<MetricOut> metrics;
  if (!opt.trace) {
    metrics.push_back(
        {"latency_p50_ms", percentile(latencies, 0.5) * 1e3, "ms"});
    metrics.push_back(
        {"latency_p90_ms", percentile(latencies, 0.9) * 1e3, "ms"});
    metrics.push_back({"chunk_queries_per_s", chunksInWindow / window, "1/s"});
    metrics.push_back({"setup_s", median(setupSamples), "s"});
  } else {
    layerMetrics(attributedQueries, metrics);
    counterMetrics(snap, chunksInWindow, window, metrics);
    metrics.push_back({"setup_catalog_s", median(catalogSamples), "s"});
    metrics.push_back({"setup_cluster_s", median(clusterSamples), "s"});
    if (!opt.traceFile.empty() && slowest != nullptr) {
      std::ofstream(opt.traceFile) << slowest->slowestTrace->toChromeJson();
    }
  }

  std::string setupList;
  for (double x : setupSamples) setupList += util::format(" %.3f", x);
  std::fprintf(stderr, "e2ebench: set-up samples (s):%s\n", setupList.c_str());
  std::fprintf(stderr,
               "e2ebench: workload=%s seed=%llu window=%.2fs measured=%zu "
               "attempted=%lld failed=%lld wrong=%lld setup=%.3fs "
               "(catalog %.3f, cluster %.3f) objects=%zu chunks=%zu\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               window, latencies.size(), static_cast<long long>(attempted),
               static_cast<long long>(failed), static_cast<long long>(wrong),
               median(setupSamples), median(catalogSamples),
               median(clusterSamples), view.size(), view.chunkIds.size());

  std::string json = util::format(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += util::format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                         i ? ", " : "", metrics[i].name.c_str(),
                         jsonNumber(metrics[i].value).c_str(),
                         metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
