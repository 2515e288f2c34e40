#include "qserv/dump_integrity.h"

#include "util/md5.h"
#include "util/strings.h"

namespace qserv::core {

namespace {
constexpr std::string_view kMarker = "-- QSERV-MD5: ";
constexpr std::size_t kHexLen = 32;
// marker + 32 hex digits + '\n'
constexpr std::size_t kTrailerLen = kMarker.size() + kHexLen + 1;

/// The trailer's offset in \p dump, or npos when absent/malformed.
std::size_t trailerPos(std::string_view dump) {
  if (dump.size() < kTrailerLen || dump.back() != '\n') {
    return std::string_view::npos;
  }
  std::size_t pos = dump.size() - kTrailerLen;
  if (dump.substr(pos, kMarker.size()) != kMarker) {
    return std::string_view::npos;
  }
  return pos;
}
}  // namespace

std::string dumpChecksumTrailer(std::string_view dump) {
  return std::string(kMarker) + util::Md5::hex(dump) + "\n";
}

void appendDumpChecksum(std::string& dump) {
  dump += dumpChecksumTrailer(dump);
}

util::Status verifyDumpChecksum(std::string_view dump) {
  return verifiedDumpBody(dump).status();
}

util::Result<std::string_view> verifiedDumpBody(std::string_view dump) {
  std::size_t pos = trailerPos(dump);
  if (pos == std::string_view::npos) {
    return util::Status::dataLoss(util::format(
        "dump checksum trailer missing or damaged (%zu bytes)", dump.size()));
  }
  std::string_view declared = dump.substr(pos + kMarker.size(), kHexLen);
  std::string_view body = dump.substr(0, pos);
  std::string actual = util::Md5::hex(body);
  if (declared == actual) return body;
  return util::Status::dataLoss(util::format(
      "dump checksum mismatch: envelope declares %s, content is %s "
      "(%zu bytes)",
      std::string(declared).c_str(), actual.c_str(), dump.size()));
}

}  // namespace qserv::core
