/// \file chunker.h
/// \brief Two-level spherical partitioning (paper §4.4, §5.2).
///
/// The sphere is divided into `numStripes` latitude stripes of equal height.
/// Each stripe is cut into chunks whose longitude width is chosen so a chunk
/// is roughly square (in great-circle terms) at the stripe's worst latitude;
/// chunks per stripe therefore shrink toward the poles, keeping chunk areas
/// roughly equal. Each stripe is further divided into
/// `numSubStripesPerStripe` sub-stripes, and each chunk into subchunk columns
/// the same way, yielding the two-level chunk/subchunk scheme Qserv uses for
/// query fragmentation (chunks) and near-neighbor joins (subchunks).
///
/// The paper's test configuration — 85 stripes, 12 sub-stripes — produces
/// stripes ~2.11 deg tall, chunks of ~4.5 deg^2, subchunks of ~0.031 deg^2
/// and ~9000 chunks over the full sky (the paper reports 8983).
///
/// Chunk ids are `stripe * 2 * numStripes + chunkInStripe` (a stripe never
/// holds more than 2*numStripes chunks). Subchunk ids are local to a chunk:
/// `subStripeInStripe * maxSubChunkColsInStripe + col`, matching the
/// Object_CC_SS naming used on workers.
#pragma once

#include <cstdint>
#include <vector>

#include "sphgeom/angle.h"
#include "sphgeom/spherical_box.h"

namespace qserv::sphgeom {

class Chunker {
 public:
  /// \param numStripes latitude stripes over [-90, 90]; must be >= 1.
  /// \param numSubStripesPerStripe sub-stripes per stripe; must be >= 1.
  /// \param overlapDeg overlap margin for near-neighbor joins, degrees.
  Chunker(int numStripes, int numSubStripesPerStripe,
          double overlapDeg = kArcminDeg);

  int numStripes() const { return numStripes_; }
  int numSubStripesPerStripe() const { return numSubStripes_; }
  double overlapDeg() const { return overlapDeg_; }
  double stripeHeightDeg() const { return stripeHeight_; }
  double subStripeHeightDeg() const { return stripeHeight_ / numSubStripes_; }

  /// Number of chunks over the whole sphere.
  int totalChunkCount() const { return totalChunks_; }

  /// Chunk containing (lon, lat) degrees.
  std::int32_t chunkAt(double lonDeg, double latDeg) const;

  /// Subchunk (within its chunk) containing (lon, lat). Precondition:
  /// the point lies in \p chunkId (callers may pass any point; the result is
  /// clamped to the chunk's subchunk grid).
  std::int32_t subChunkAt(std::int32_t chunkId, double lonDeg,
                          double latDeg) const;

  /// True when \p chunkId names an existing chunk.
  bool isValidChunk(std::int32_t chunkId) const;
  bool isValidSubChunk(std::int32_t chunkId, std::int32_t subChunkId) const;

  /// Bounding box of a chunk. Precondition: isValidChunk(chunkId).
  SphericalBox chunkBox(std::int32_t chunkId) const;

  /// Bounding box of a subchunk. Precondition: valid ids.
  SphericalBox subChunkBox(std::int32_t chunkId,
                           std::int32_t subChunkId) const;

  /// All chunk ids, ascending.
  std::vector<std::int32_t> allChunks() const;

  /// All subchunk ids of a chunk, ascending.
  std::vector<std::int32_t> subChunksOf(std::int32_t chunkId) const;

  /// Chunks whose boxes intersect \p box (conservative: exact for boxes),
  /// ascending. This implements areaspec-based chunk pruning (paper §5.3).
  std::vector<std::int32_t> chunksIntersecting(const SphericalBox& box) const;

  /// Subchunks of \p chunkId whose boxes intersect \p box.
  std::vector<std::int32_t> subChunksIntersecting(
      std::int32_t chunkId, const SphericalBox& box) const;

  /// Stripe index of a chunk id.
  int stripeOf(std::int32_t chunkId) const {
    return chunkId / (2 * numStripes_);
  }
  /// Position of a chunk within its stripe.
  int chunkInStripe(std::int32_t chunkId) const {
    return chunkId % (2 * numStripes_);
  }

 private:
  struct Stripe {
    double latMin = 0.0;
    double latMax = 0.0;
    int numChunks = 0;
    double chunkWidth = 0.0;  // degrees of longitude
    /// Subchunk columns per chunk, one entry per sub-stripe.
    std::vector<int> subChunkCols;
    int maxSubChunkCols = 0;
  };

  /// Number of equal segments of longitude at a stripe spanning latitudes
  /// [lat1, lat2] such that each segment subtends at least \p widthDeg of
  /// great-circle arc at the stripe's worst (most polar) latitude.
  static int segments(double lat1Deg, double lat2Deg, double widthDeg);

  int stripeIndexOf(double latDeg) const;

  int numStripes_;
  int numSubStripes_;
  double overlapDeg_;
  double stripeHeight_;
  std::vector<Stripe> stripes_;
  int totalChunks_ = 0;
};

}  // namespace qserv::sphgeom
