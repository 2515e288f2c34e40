#include "sphgeom/chunker.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "sphgeom/angle.h"

namespace qserv::sphgeom {

Chunker::Chunker(int numStripes, int numSubStripesPerStripe, double overlapDeg)
    : numStripes_(numStripes),
      numSubStripes_(numSubStripesPerStripe),
      overlapDeg_(overlapDeg) {
  if (numStripes < 1 || numSubStripesPerStripe < 1) {
    throw std::invalid_argument("Chunker: stripe counts must be >= 1");
  }
  if (overlapDeg < 0.0) {
    throw std::invalid_argument("Chunker: overlap must be >= 0");
  }
  stripeHeight_ = 180.0 / numStripes_;
  double subHeight = stripeHeight_ / numSubStripes_;
  stripes_.resize(static_cast<std::size_t>(numStripes_));
  for (int s = 0; s < numStripes_; ++s) {
    Stripe& st = stripes_[static_cast<std::size_t>(s)];
    st.latMin = -90.0 + s * stripeHeight_;
    st.latMax = (s + 1 == numStripes_) ? 90.0 : st.latMin + stripeHeight_;
    st.numChunks = segments(st.latMin, st.latMax, stripeHeight_);
    st.chunkWidth = 360.0 / st.numChunks;
    st.subChunkCols.resize(static_cast<std::size_t>(numSubStripes_));
    for (int t = 0; t < numSubStripes_; ++t) {
      double ssLatMin = st.latMin + t * subHeight;
      double ssLatMax = ssLatMin + subHeight;
      // Subchunk columns tile the chunk exactly: divide the global segment
      // count for this sub-stripe evenly over the stripe's chunks, rounding
      // up so subchunks are never wider than their target.
      int globalSegs = segments(ssLatMin, ssLatMax, subHeight);
      int cols = (globalSegs + st.numChunks - 1) / st.numChunks;
      st.subChunkCols[static_cast<std::size_t>(t)] = std::max(1, cols);
    }
    st.maxSubChunkCols =
        *std::max_element(st.subChunkCols.begin(), st.subChunkCols.end());
    totalChunks_ += st.numChunks;
  }
}

int Chunker::segments(double lat1Deg, double lat2Deg, double widthDeg) {
  double lat = std::max(std::fabs(degToRad(lat1Deg)),
                        std::fabs(degToRad(lat2Deg)));
  double width = degToRad(widthDeg);
  double cw = std::cos(width);
  double sl = std::sin(lat);
  double cl = std::cos(lat);
  // Longitude difference dlon at which two points on latitude `lat` are
  // separated by `width` of arc: cos(width) = sin^2(lat) + cos^2(lat) cos(dlon).
  double x = cw - sl * sl;
  double u = cl * cl;
  if (u < 1e-12 || x >= u) {
    // Polar cap (or width so small it exceeds the circle at this latitude
    // in the degenerate direction): a single segment.
    return 1;
  }
  double cosDlon = std::clamp(x / u, -1.0, 1.0);
  double dlon = std::acos(cosDlon);
  int n = static_cast<int>(std::floor(2.0 * kPi / dlon));
  return std::max(1, n);
}

int Chunker::stripeIndexOf(double latDeg) const {
  latDeg = clampLatDeg(latDeg);
  int s = static_cast<int>(std::floor((latDeg + 90.0) / stripeHeight_));
  return std::clamp(s, 0, numStripes_ - 1);
}

std::int32_t Chunker::chunkAt(double lonDeg, double latDeg) const {
  int s = stripeIndexOf(latDeg);
  const Stripe& st = stripes_[static_cast<std::size_t>(s)];
  double lon = normalizeLonDeg(lonDeg);
  int c = static_cast<int>(std::floor(lon / st.chunkWidth));
  c = std::clamp(c, 0, st.numChunks - 1);
  return static_cast<std::int32_t>(s * 2 * numStripes_ + c);
}

std::int32_t Chunker::subChunkAt(std::int32_t chunkId, double lonDeg,
                                 double latDeg) const {
  assert(isValidChunk(chunkId));
  int s = stripeOf(chunkId);
  int c = chunkInStripe(chunkId);
  const Stripe& st = stripes_[static_cast<std::size_t>(s)];
  double subHeight = stripeHeight_ / numSubStripes_;
  int t = static_cast<int>(
      std::floor((clampLatDeg(latDeg) - st.latMin) / subHeight));
  t = std::clamp(t, 0, numSubStripes_ - 1);
  int cols = st.subChunkCols[static_cast<std::size_t>(t)];
  double chunkLonMin = c * st.chunkWidth;
  double lon = normalizeLonDeg(lonDeg);
  double off = lon - chunkLonMin;
  if (off < 0.0) off += 360.0;
  double colWidth = st.chunkWidth / cols;
  int col = static_cast<int>(std::floor(off / colWidth));
  col = std::clamp(col, 0, cols - 1);
  return static_cast<std::int32_t>(t * st.maxSubChunkCols + col);
}

bool Chunker::isValidChunk(std::int32_t chunkId) const {
  if (chunkId < 0) return false;
  int s = chunkId / (2 * numStripes_);
  if (s >= numStripes_) return false;
  int c = chunkId % (2 * numStripes_);
  return c < stripes_[static_cast<std::size_t>(s)].numChunks;
}

bool Chunker::isValidSubChunk(std::int32_t chunkId,
                              std::int32_t subChunkId) const {
  if (!isValidChunk(chunkId) || subChunkId < 0) return false;
  const Stripe& st = stripes_[static_cast<std::size_t>(stripeOf(chunkId))];
  int t = subChunkId / st.maxSubChunkCols;
  if (t >= numSubStripes_) return false;
  int col = subChunkId % st.maxSubChunkCols;
  return col < st.subChunkCols[static_cast<std::size_t>(t)];
}

SphericalBox Chunker::chunkBox(std::int32_t chunkId) const {
  assert(isValidChunk(chunkId));
  int s = stripeOf(chunkId);
  int c = chunkInStripe(chunkId);
  const Stripe& st = stripes_[static_cast<std::size_t>(s)];
  double lonMin = c * st.chunkWidth;
  double lonMax = (c + 1 == st.numChunks) ? 360.0 : lonMin + st.chunkWidth;
  return SphericalBox(lonMin, st.latMin, lonMax, st.latMax);
}

SphericalBox Chunker::subChunkBox(std::int32_t chunkId,
                                  std::int32_t subChunkId) const {
  assert(isValidSubChunk(chunkId, subChunkId));
  int s = stripeOf(chunkId);
  int c = chunkInStripe(chunkId);
  const Stripe& st = stripes_[static_cast<std::size_t>(s)];
  int t = subChunkId / st.maxSubChunkCols;
  int col = subChunkId % st.maxSubChunkCols;
  int cols = st.subChunkCols[static_cast<std::size_t>(t)];
  double subHeight = stripeHeight_ / numSubStripes_;
  double latMin = st.latMin + t * subHeight;
  double latMax = (t + 1 == numSubStripes_) ? st.latMax : latMin + subHeight;
  double chunkLonMin = c * st.chunkWidth;
  double colWidth = st.chunkWidth / cols;
  double lonMin = chunkLonMin + col * colWidth;
  double lonMax = (col + 1 == cols) ? chunkLonMin + st.chunkWidth
                                    : lonMin + colWidth;
  return SphericalBox(lonMin, latMin, lonMax, latMax);
}

std::vector<std::int32_t> Chunker::allChunks() const {
  std::vector<std::int32_t> out;
  out.reserve(static_cast<std::size_t>(totalChunks_));
  for (int s = 0; s < numStripes_; ++s) {
    const Stripe& st = stripes_[static_cast<std::size_t>(s)];
    for (int c = 0; c < st.numChunks; ++c) {
      out.push_back(static_cast<std::int32_t>(s * 2 * numStripes_ + c));
    }
  }
  return out;
}

std::vector<std::int32_t> Chunker::subChunksOf(std::int32_t chunkId) const {
  assert(isValidChunk(chunkId));
  const Stripe& st = stripes_[static_cast<std::size_t>(stripeOf(chunkId))];
  std::vector<std::int32_t> out;
  for (int t = 0; t < numSubStripes_; ++t) {
    int cols = st.subChunkCols[static_cast<std::size_t>(t)];
    for (int col = 0; col < cols; ++col) {
      out.push_back(static_cast<std::int32_t>(t * st.maxSubChunkCols + col));
    }
  }
  return out;
}

std::vector<std::int32_t> Chunker::chunksIntersecting(
    const SphericalBox& box) const {
  std::vector<std::int32_t> out;
  if (box.isEmpty()) return out;
  for (int s = 0; s < numStripes_; ++s) {
    const Stripe& st = stripes_[static_cast<std::size_t>(s)];
    if (st.latMax < box.latMin() || st.latMin > box.latMax()) continue;
    auto emit = [&](int c) {
      out.push_back(static_cast<std::int32_t>(s * 2 * numStripes_ + c));
    };
    if (box.isFullLon() || st.numChunks == 1) {
      for (int c = 0; c < st.numChunks; ++c) emit(c);
      continue;
    }
    // Chunk-column range from the box's longitude interval (O(output),
    // needed when covering point neighborhoods over ~9000 chunks).
    int cMin = static_cast<int>(std::floor(box.lonMin() / st.chunkWidth));
    int cMax = static_cast<int>(std::floor(box.lonMax() / st.chunkWidth));
    cMin = std::clamp(cMin, 0, st.numChunks - 1);
    cMax = std::clamp(cMax, 0, st.numChunks - 1);
    // A box whose west edge sits exactly on a column boundary also touches
    // the previous column (closed-interval semantics).
    if (box.lonMin() == cMin * st.chunkWidth) {
      cMin = (cMin + st.numChunks - 1) % st.numChunks;
    }
    if (!box.wraps() && cMin <= cMax) {
      for (int c = cMin; c <= cMax; ++c) emit(c);
    } else {
      // The interval wraps (either the box wraps, or rounding produced
      // cMin > cMax): [0, cMax] then [cMin, end), keeping ids ascending.
      for (int c = 0; c <= cMax && c < cMin; ++c) emit(c);
      for (int c = cMin; c < st.numChunks; ++c) emit(c);
    }
  }
  return out;
}

std::vector<std::int32_t> Chunker::subChunksIntersecting(
    std::int32_t chunkId, const SphericalBox& box) const {
  std::vector<std::int32_t> out;
  if (box.isEmpty()) return out;
  for (std::int32_t sc : subChunksOf(chunkId)) {
    if (box.intersects(subChunkBox(chunkId, sc))) out.push_back(sc);
  }
  return out;
}

}  // namespace qserv::sphgeom
