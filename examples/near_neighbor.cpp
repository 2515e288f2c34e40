/// \file near_neighbor.cpp
/// \brief The paper's flagship spatial workload (SHV1): find pairs of
/// objects within an angular radius, executed as a subchunked O(kn) join
/// with precomputed overlap — and verified against a brute-force O(n^2)
/// pass over the same region.
///
/// Demonstrates §4.4's mechanism end to end: the frontend writes the
/// self-join once as a chunk-query template and lists each chunk's
/// subchunks, workers build Object_CC_SS and ObjectFullOverlap_CC_SS on the
/// fly and run the template once per subchunk, and no inter-node data
/// exchange ever happens.
#include <cstdio>

#include "datagen/schemas.h"
#include "example_util.h"
#include "qserv/cluster.h"
#include "sphgeom/coords.h"
#include "util/stopwatch.h"
#include "util/strings.h"

int main() {
  using namespace qserv;
  using namespace qserv::examples;

  const double kRadiusDeg = 0.04;
  core::CatalogConfig catalog = core::CatalogConfig::lsst(18, 6,
                                                          /*overlapDeg=*/0.05);

  core::SkyDataOptions data;
  data.basePatchObjects = 4000;
  data.withSources = false;
  data.region = sphgeom::SphericalBox(0, -7, 14, 7);
  auto sky = core::buildSkyCatalog(catalog, data);
  if (!sky.isOk()) return 1;

  core::ClusterOptions opts;
  opts.numWorkers = 4;
  opts.frontend.catalog = catalog;
  auto cluster = core::MiniCluster::create(opts, *sky);
  if (!cluster.isOk()) return 1;
  core::QservFrontend& qserv = (*cluster)->frontend();

  std::string sql = util::format(
      "SELECT count(*) FROM Object o1, Object o2 "
      "WHERE qserv_areaspec_box(2, -5, 12, 5) "
      "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < %.17g",
      kRadiusDeg);
  std::printf("qserv> %s\n", sql.c_str());

  util::Stopwatch watch;
  auto result = qserv.query(sql);
  if (!result.isOk()) {
    std::fprintf(stderr, "error: %s\n", result.status().toString().c_str());
    return 1;
  }
  std::int64_t distributed = result->result->cell(0, 0).asInt();
  double distMs = watch.elapsedMillis();
  std::printf("  distributed O(kn) answer: %lld ordered pairs "
              "(%.1f ms, %zu chunk queries)\n",
              static_cast<long long>(distributed), distMs,
              result->chunksDispatched);

  // Brute force over the same region: gather every object from the chunk
  // tables, test o1 in box x all o2.
  watch.reset();
  sphgeom::SphericalBox box(2, -5, 12, 5);
  std::vector<std::pair<double, double>> all;
  std::vector<std::pair<double, double>> inBox;
  for (const auto& chunk : sky->chunks) {
    for (std::size_t r = 0; r < chunk.objects->numRows(); ++r) {
      double ra = chunk.objects->cell(r, datagen::kObjRaPs).asDouble();
      double dec = chunk.objects->cell(r, datagen::kObjDeclPs).asDouble();
      all.emplace_back(ra, dec);
      if (box.contains(ra, dec)) inBox.emplace_back(ra, dec);
    }
  }
  std::int64_t brute = 0;
  for (const auto& [ra1, dec1] : inBox) {
    for (const auto& [ra2, dec2] : all) {
      if (sphgeom::angSepDeg(ra1, dec1, ra2, dec2) < kRadiusDeg) ++brute;
    }
  }
  double bruteMs = watch.elapsedMillis();
  std::printf("  brute force O(n^2) answer:  %lld ordered pairs (%.1f ms, "
              "%zu x %zu candidates)\n",
              static_cast<long long>(brute), bruteMs, inBox.size(),
              all.size());

  if (distributed != brute) {
    std::fprintf(stderr, "MISMATCH — overlap handling is broken!\n");
    return 1;
  }
  std::printf("  answers match: overlap tables make the partitioned join "
              "exact (radius %.3f deg < overlap %.3f deg)\n",
              kRadiusDeg, catalog.overlapDeg);

  // Show what a chunk query actually looks like.
  auto analyzed = core::analyzeQuery(sql, catalog);
  sphgeom::Chunker chunker = catalog.makeChunker();
  core::QueryRewriter rw(catalog, chunker);
  auto chunks = qserv.chunksFor(sql);
  auto rewrite = rw.rewrite(*analyzed, {chunks->data(), 1}, "merged");
  std::printf("\nchunk-query template sent once per worker batch:\n  %s\n",
              rewrite->chunkTemplate.describe().c_str());
  const core::ChunkQuerySpec& first = rewrite->chunkQueries[0];
  auto plan = core::ChunkPlan::parse(rewrite->chunkTemplate);
  if (!plan.isOk()) {
    std::fprintf(stderr, "template: %s\n", plan.status().toString().c_str());
    return 1;
  }
  std::printf("chunk %d runs it once per subchunk (%zu of them), e.g.:\n"
              "  %s;\n",
              first.chunkId, first.subChunkIds.size(),
              plan->boundSql(first.chunkId, first.subChunkIds[0]).c_str());
  return 0;
}
