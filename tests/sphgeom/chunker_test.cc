#include "sphgeom/chunker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "sphgeom/angle.h"
#include "util/rng.h"
#include "util/stats.h"

namespace qserv::sphgeom {
namespace {

// The paper's test configuration (§6.1.2).
Chunker paperChunker() { return Chunker(85, 12, kArcminDeg); }

TEST(Chunker, PaperConfigurationGeometry) {
  Chunker c = paperChunker();
  // "85 stripes each with 12 sub-stripes giving a phi height of ~2.11 deg
  //  for stripes and 0.176 deg for sub-stripes" (§6.1.2).
  EXPECT_NEAR(c.stripeHeightDeg(), 2.1176, 1e-3);
  EXPECT_NEAR(c.subStripeHeightDeg(), 0.1765, 1e-3);
  // "This yielded 8983 chunks." Our segments() reproduces the paper's
  // construction exactly.
  EXPECT_EQ(c.totalChunkCount(), 8983);
}

TEST(Chunker, ChunkAreasRoughlyEqualAwayFromPoles) {
  Chunker c = paperChunker();
  util::RunningStats areas;
  for (std::int32_t id : c.allChunks()) {
    SphericalBox box = c.chunkBox(id);
    // Skip polar caps where distortion is expected (paper §7.5).
    if (box.latMin() < -80 || box.latMax() > 80) continue;
    areas.add(box.area());
  }
  // "~4.5 deg^2" per chunk.
  EXPECT_NEAR(areas.mean(), 4.5, 0.4);
  // Equal-area within a factor of ~2 between min and max.
  EXPECT_LT(areas.max() / areas.min(), 2.1);
}

TEST(Chunker, SubChunkAreasMatchPaper) {
  Chunker c = paperChunker();
  // Sample an equatorial chunk: subchunks ~0.031 deg^2 (§6.1.2).
  std::int32_t id = c.chunkAt(180.0, 0.0);
  util::RunningStats areas;
  for (std::int32_t sc : c.subChunksOf(id)) {
    areas.add(c.subChunkBox(id, sc).area());
  }
  EXPECT_NEAR(areas.mean(), 0.031, 0.006);
}

TEST(Chunker, EveryPointMapsToExactlyOneChunkContainingIt) {
  Chunker c(18, 6);
  util::Rng rng(101);
  for (int i = 0; i < 5000; ++i) {
    double lon = rng.uniform(0, 360);
    double lat = rng.uniform(-90, 90);
    std::int32_t id = c.chunkAt(lon, lat);
    ASSERT_TRUE(c.isValidChunk(id));
    EXPECT_TRUE(c.chunkBox(id).contains(lon, lat))
        << "point (" << lon << "," << lat << ") chunk " << id << " box "
        << c.chunkBox(id).toString();
  }
}

TEST(Chunker, SubChunkContainsItsPoint) {
  Chunker c(18, 6);
  util::Rng rng(102);
  for (int i = 0; i < 5000; ++i) {
    double lon = rng.uniform(0, 360);
    double lat = rng.uniform(-90, 90);
    std::int32_t id = c.chunkAt(lon, lat);
    std::int32_t sc = c.subChunkAt(id, lon, lat);
    ASSERT_TRUE(c.isValidSubChunk(id, sc));
    EXPECT_TRUE(c.subChunkBox(id, sc).contains(lon, lat));
  }
}

TEST(Chunker, SubChunksTileTheirChunk) {
  Chunker c(18, 6);
  util::Rng rng(103);
  // For random points in a chunk, exactly one subchunk contains them
  // (boundaries may double-count; use interior points).
  for (std::int32_t id : {c.chunkAt(0.1, 0.1), c.chunkAt(200, 45),
                          c.chunkAt(10, -80), c.chunkAt(359, 89)}) {
    SphericalBox box = c.chunkBox(id);
    for (int i = 0; i < 300; ++i) {
      double lon = normalizeLonDeg(
          box.lonMin() + rng.uniform(0.001, 0.999) * box.lonExtent());
      double lat =
          box.latMin() + rng.uniform(0.001, 0.999) * box.latExtent();
      int containing = 0;
      for (std::int32_t sc : c.subChunksOf(id)) {
        if (c.subChunkBox(id, sc).contains(lon, lat)) ++containing;
      }
      EXPECT_GE(containing, 1);
      EXPECT_LE(containing, 2) << "interior point in >2 subchunks";
      EXPECT_TRUE(c.subChunkBox(id, c.subChunkAt(id, lon, lat))
                      .contains(lon, lat));
    }
  }
}

TEST(Chunker, ChunkIdsAreUniqueAndValid) {
  Chunker c(18, 6);
  auto chunks = c.allChunks();
  std::set<std::int32_t> uniq(chunks.begin(), chunks.end());
  EXPECT_EQ(uniq.size(), chunks.size());
  EXPECT_EQ(static_cast<int>(chunks.size()), c.totalChunkCount());
  for (std::int32_t id : chunks) EXPECT_TRUE(c.isValidChunk(id));
  EXPECT_FALSE(c.isValidChunk(-1));
  EXPECT_FALSE(c.isValidChunk(c.numStripes() * 2 * c.numStripes()));
}

TEST(Chunker, ChunkBoxesCoverSphereWithoutOverlapInteriorly) {
  Chunker c(10, 3);
  util::Rng rng(104);
  for (int i = 0; i < 3000; ++i) {
    double lon = rng.uniform(0, 360);
    double lat = rng.uniform(-90, 90);
    int containing = 0;
    for (std::int32_t id : c.allChunks()) {
      if (c.chunkBox(id).contains(lon, lat)) ++containing;
    }
    // Interior points in exactly 1 box; boundary points may touch up to 4.
    EXPECT_GE(containing, 1);
    EXPECT_LE(containing, 4);
  }
}

TEST(Chunker, ChunksIntersectingFindsExactlyTheIntersectingOnes) {
  Chunker c(18, 6);
  util::Rng rng(105);
  for (int i = 0; i < 50; ++i) {
    double lonMin = rng.uniform(0, 360);
    double latMin = rng.uniform(-85, 75);
    SphericalBox box(lonMin, latMin, lonMin + rng.uniform(1, 40),
                     latMin + rng.uniform(1, 10));
    auto got = c.chunksIntersecting(box);
    std::set<std::int32_t> gotSet(got.begin(), got.end());
    for (std::int32_t id : c.allChunks()) {
      EXPECT_EQ(gotSet.count(id) > 0, box.intersects(c.chunkBox(id)))
          << "chunk " << id;
    }
  }
}

TEST(Chunker, ChunksIntersectingWrappingBox) {
  Chunker c = paperChunker();
  // The PT1.1 patch: RA 358..5, Dec -7..7.
  SphericalBox patch(358, -7, 5, 7);
  auto got = c.chunksIntersecting(patch);
  EXPECT_FALSE(got.empty());
  for (std::int32_t id : got) {
    EXPECT_TRUE(patch.intersects(c.chunkBox(id)));
  }
  // Ascending although the box wraps: the czar's chunk specs follow it.
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  // Sanity: the patch covers ~7x14 deg ~ 98 deg^2 => ~22+ chunks of 4.5 deg^2.
  EXPECT_GT(got.size(), 20u);
  EXPECT_LT(got.size(), 60u);
}

TEST(Chunker, FullSkySelectsAllChunks) {
  Chunker c(10, 3);
  auto got = c.chunksIntersecting(SphericalBox::fullSky());
  EXPECT_EQ(static_cast<int>(got.size()), c.totalChunkCount());
}

TEST(Chunker, SmallBoxSelectsFewChunks) {
  Chunker c = paperChunker();
  // 1 deg^2 box (the LV3 query) touches at most ~4 chunks.
  auto got = c.chunksIntersecting(SphericalBox(1, 3, 2, 4));
  EXPECT_GE(got.size(), 1u);
  EXPECT_LE(got.size(), 4u);
}

TEST(Chunker, SubChunksIntersecting) {
  Chunker c(18, 6);
  std::int32_t id = c.chunkAt(100, 20);
  SphericalBox cb = c.chunkBox(id);
  // A box covering the whole chunk selects all subchunks.
  auto all = c.subChunksIntersecting(id, cb);
  EXPECT_EQ(all.size(), c.subChunksOf(id).size());
  // A tiny box around one interior point selects >= 1 and <= 4.
  double lon = normalizeLonDeg(cb.lonMin() + 0.3 * cb.lonExtent());
  double lat = cb.latMin() + 0.3 * cb.latExtent();
  auto few = c.subChunksIntersecting(id, SphericalBox(lon, lat, lon, lat));
  EXPECT_GE(few.size(), 1u);
  EXPECT_LE(few.size(), 4u);
}

TEST(Chunker, StripeDecomposition) {
  Chunker c(18, 6);
  for (std::int32_t id : c.allChunks()) {
    int s = c.stripeOf(id);
    int ci = c.chunkInStripe(id);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 18);
    EXPECT_EQ(id, s * 36 + ci);
  }
}

TEST(Chunker, PolarChunksAreSingleOrFew) {
  Chunker c = paperChunker();
  // Topmost stripe should have very few chunks (meridian convergence).
  int topStripe = c.numStripes() - 1;
  int count = 0;
  for (std::int32_t id : c.allChunks()) {
    if (c.stripeOf(id) == topStripe) ++count;
  }
  EXPECT_LE(count, 8);
  EXPECT_GE(count, 1);
}

TEST(Chunker, InvalidConstructionThrows) {
  EXPECT_THROW(Chunker(0, 1), std::invalid_argument);
  EXPECT_THROW(Chunker(1, 0), std::invalid_argument);
  EXPECT_THROW(Chunker(10, 10, -0.5), std::invalid_argument);
}

TEST(Chunker, BoundaryPointsAtPolesAndMeridian) {
  Chunker c = paperChunker();
  EXPECT_TRUE(c.isValidChunk(c.chunkAt(0.0, 90.0)));
  EXPECT_TRUE(c.isValidChunk(c.chunkAt(0.0, -90.0)));
  EXPECT_TRUE(c.isValidChunk(c.chunkAt(360.0, 0.0)));
  EXPECT_EQ(c.chunkAt(360.0, 0.0), c.chunkAt(0.0, 0.0));
}

// Parameterized sweep: chunker invariants hold across configurations.
class ChunkerSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ChunkerSweep, PointLocationConsistent) {
  auto [stripes, subStripes] = GetParam();
  Chunker c(stripes, subStripes);
  util::Rng rng(1000 + stripes * 31 + subStripes);
  for (int i = 0; i < 800; ++i) {
    double lon = rng.uniform(0, 360);
    double lat = rng.uniform(-90, 90);
    std::int32_t id = c.chunkAt(lon, lat);
    ASSERT_TRUE(c.isValidChunk(id));
    ASSERT_TRUE(c.chunkBox(id).contains(lon, lat));
    std::int32_t sc = c.subChunkAt(id, lon, lat);
    ASSERT_TRUE(c.isValidSubChunk(id, sc));
    ASSERT_TRUE(c.subChunkBox(id, sc).contains(lon, lat));
  }
}

TEST_P(ChunkerSweep, TotalCountMatchesEnumeration) {
  auto [stripes, subStripes] = GetParam();
  Chunker c(stripes, subStripes);
  EXPECT_EQ(static_cast<int>(c.allChunks().size()), c.totalChunkCount());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ChunkerSweep,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 3}, std::pair{5, 2},
                      std::pair{10, 4}, std::pair{18, 6}, std::pair{45, 8},
                      std::pair{85, 12}, std::pair{170, 12}));

}  // namespace
}  // namespace qserv::sphgeom
