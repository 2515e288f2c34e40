/// \file rowcodec.h
/// \brief Compact binary table serialization: the one chunk-result format.
///
/// The paper ships chunk results as mysqldump SQL text and names it the
/// inefficiency to replace (§5.4, §7.1: mysqldump's "costs in speed, disk,
/// network, and database transactions are strong motivations to explore a
/// more efficient method"). Workers encode every chunk result with this
/// codec, straight from the result table's typed columns, and the czar's
/// merger decodes it straight into typed columns: no SQL text is formatted,
/// lexed, parsed or replayed per chunk.
///
/// Format (all integers little-endian):
///   magic  "QBN2"            4 bytes
///   name   u16 len + bytes
///   ncols  u16
///   per column: u8 type (0=int,1=double,2=string), u16 name len + bytes
///   nrows  u64
///   column data, one section per column in schema order:
///     nrows null flags, one byte each (0 or 1), then
///     int / double: nrows raw 8-byte values (0 at NULL rows);
///     string: nrows entries of u32 len + bytes (len 0 at NULL rows)
///
/// A payload is exactly one table: bytes after the last column section are
/// an error, like bytes missing from it. Workers append a binary
/// observables block and the `-- QSERV-MD5` trailer after the table, so the
/// reader splits those off first and hands the decoder only the table's
/// span (qserv/merger.h, VerifiedResult::decode).
#pragma once

#include <string>
#include <string_view>

#include "sql/table.h"
#include "util/status.h"

namespace qserv::sql {

/// Magic prefix of a binary table payload.
inline constexpr std::string_view kRowCodecMagic = "QBN2";

/// True when \p payload starts with the binary magic.
bool isBinaryTablePayload(std::string_view payload);

/// Serialize \p table under \p targetName.
std::string encodeTableBinary(const Table& table,
                              const std::string& targetName);

/// Decode a payload into a new table carrying the encoded name and schema.
/// The table is not registered in any database. kInvalidArgument on any
/// malformed or truncated payload, or one with bytes after the table;
/// memory is reserved only for counts the remaining bytes can back.
util::Result<TablePtr> decodeTableBinary(std::string_view payload);

/// Decode a payload and append its rows to \p dest under
/// Table::appendFrom's type rules. All-or-nothing: \p dest is untouched
/// when the payload is malformed, truncated, followed by trailing bytes, or
/// its columns do not fit.
util::Status appendTableBinary(std::string_view payload, Table& dest);

}  // namespace qserv::sql
