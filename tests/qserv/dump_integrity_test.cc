#include "qserv/dump_integrity.h"

#include <gtest/gtest.h>

#include <string>

#include "util/md5.h"

namespace qserv::core {
namespace {

const std::string kPayload =
    "-- qserv-dump v1\nDROP TABLE IF EXISTS `t`;\nCREATE TABLE `t` (a INT);\n"
    "INSERT INTO `t` VALUES (1),(2);\n";

std::string sealed(std::string payload) {
  appendDumpChecksum(payload);
  return payload;
}

TEST(DumpIntegrity, RoundTrip) {
  std::string dump = sealed(kPayload);
  EXPECT_EQ(dump, kPayload + "-- QSERV-MD5: " + util::Md5::hex(kPayload) +
                      "\n");
  EXPECT_EQ(dump, kPayload + dumpChecksumTrailer(kPayload));
  EXPECT_TRUE(verifyDumpChecksum(dump).isOk());
  // An empty payload seals and verifies too (an empty chunk result).
  EXPECT_TRUE(verifyDumpChecksum(sealed("")).isOk());
}

TEST(DumpIntegrity, MissingTrailerIsDataLoss) {
  for (const std::string& bare : {kPayload, std::string()}) {
    util::Status s = verifyDumpChecksum(bare);
    EXPECT_EQ(s.code(), util::ErrorCode::kDataLoss) << s.toString();
  }
}

TEST(DumpIntegrity, DamagedTrailerIsDataLoss) {
  const std::string dump = sealed(kPayload);
  // A flipped digest digit, a flipped content byte, a lost final newline and
  // a damaged marker are all refused.
  std::string digest = dump;
  digest[dump.size() - 2] = digest[dump.size() - 2] == '0' ? '1' : '0';
  std::string content = dump;
  content[3] ^= 0x20;
  std::string newline = dump.substr(0, dump.size() - 1) + " ";
  std::string marker = dump;
  marker[kPayload.size() + 3] = 'X';
  for (const std::string& bad : {digest, content, newline, marker}) {
    util::Status s = verifyDumpChecksum(bad);
    EXPECT_EQ(s.code(), util::ErrorCode::kDataLoss) << s.toString();
  }
}

TEST(DumpIntegrity, TruncatedTrailerIsDataLoss) {
  const std::string dump = sealed(kPayload);
  // Every cut inside the trailer, down to a cut exactly at the statement
  // boundary before it (still valid SQL, so only the trailer can tell).
  for (std::size_t cut = 1; cut <= dump.size() - kPayload.size(); ++cut) {
    util::Status s = verifyDumpChecksum(dump.substr(0, dump.size() - cut));
    EXPECT_EQ(s.code(), util::ErrorCode::kDataLoss) << "cut " << cut;
  }
}

}  // namespace
}  // namespace qserv::core
