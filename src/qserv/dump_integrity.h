/// \file dump_integrity.h
/// \brief Content checksums on chunk results and chunk snapshots.
///
/// The paper's result transfer replays a worker's dump byte stream straight
/// into the master's database (§5.4) — a flipped bit in transit silently
/// corrupts the merged result. Every producer of bytes another component
/// trusts therefore appends one trailing line `-- QSERV-MD5: <hex>\n`
/// carrying the MD5 of everything before it: the worker on each chunk result
/// (row codec plus observables line), and the chunk snapshot and ingest
/// paths on every SQL script they ship to /chunkload. The dispatcher verifies
/// the trailer on read and treats a mismatch as a retryable fault — the
/// result is re-fetched from another replica instead of being merged — and
/// the snapshot install refuses a script that fails it. The trailer is
/// mandatory: a payload without one is damaged (a snapshot cut at a
/// statement boundary is still valid SQL, so only the trailer tells a
/// partial chunk from a whole one).
#pragma once

#include <string>
#include <string_view>

#include "util/status.h"

namespace qserv::core {

/// The trailer line for \p dump: "-- QSERV-MD5: <md5 of dump>\n".
std::string dumpChecksumTrailer(std::string_view dump);

/// Append the checksum trailer to \p dump in place.
void appendDumpChecksum(std::string& dump);

/// Verify the trailing checksum: OK when the trailer matches the content
/// before it; kDataLoss when it is missing, damaged or does not match (a
/// corrupt or truncated payload).
util::Status verifyDumpChecksum(std::string_view dump);

/// verifyDumpChecksum that also returns the verified content: \p dump
/// without its trailer line.
util::Result<std::string_view> verifiedDumpBody(std::string_view dump);

}  // namespace qserv::core
