/// \file md5.h
/// \brief Self-contained MD5 (RFC 1321) used for Qserv result addressing.
///
/// The paper's master read chunk-query results from Xrootd paths named by
/// the MD5 of the chunk-query text, "represented via 32 hexadecimal digits
/// in ASCII" (paper §5.4). Batch ids, chunk-result hashes and the integrity
/// trailers all use this digest. It is not used for any security purpose.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace qserv::util {

/// Incremental MD5 hasher.
class Md5 {
 public:
  Md5();

  /// Absorb \p data.
  void update(std::string_view data);
  void update(const void* data, std::size_t len);

  /// Finalize and return the 16-byte digest. The hasher must not be reused
  /// after calling digest().
  std::array<std::uint8_t, 16> digest();

  /// One-shot digest of \p data as 32 lowercase hex characters.
  static std::string hex(std::string_view data);

 private:
  void processBlock(const std::uint8_t* block);

  std::uint32_t a_, b_, c_, d_;
  std::uint64_t totalLen_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t bufferLen_ = 0;
  bool finalized_ = false;
};

/// Convert a binary digest to lowercase hex.
std::string toHex(const std::uint8_t* data, std::size_t len);

}  // namespace qserv::util
