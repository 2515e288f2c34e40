/// \file observables_codec.h
/// \brief In-band encoding of work observables inside chunk results.
///
/// Every ok result body a worker publishes is the row-codec table followed
/// by one fixed-width block of the chunk's work observables, both covered
/// by the MD5 trailer that ends the body. The dispatcher splits the block
/// off the table bytes (the row decoder accepts exactly one table) and
/// decodes it to feed the virtual-time queue simulation; tests read a
/// worker's observables from the published result the same way.
///
/// Block layout, 64 bytes, little-endian: bytesScanned (IEEE double),
/// rowsExamined, pairsEvaluated, joinMatches, rowsBuilt, indexLookups (each
/// uint64), resultBytes (IEEE double), resultRows (uint64). The two byte
/// counts are rounded to whole bytes on encode.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "simio/cost_model.h"
#include "util/status.h"

namespace qserv::core {

/// Size of the observables block that ends every result body.
inline constexpr std::size_t kObservablesBytes = 64;

/// The observables block for \p w.
std::string encodeObservables(const simio::WorkObservables& w);

/// A verified result body cut into the row-codec table bytes and the
/// observables block that ends it.
struct ResultBodyParts {
  std::string_view table;
  std::string_view observables;  ///< exactly kObservablesBytes
};

/// Split \p body (a result without its MD5 trailer) before its final
/// observables block; kInvalidArgument when it is too short to hold one.
util::Result<ResultBodyParts> splitObservables(std::string_view body);

/// Decode an observables block; kInvalidArgument when \p block is not
/// kObservablesBytes long or a byte count is NaN, infinite or negative
/// (such a count would poison the cost model).
util::Result<simio::WorkObservables> decodeObservables(std::string_view block);

}  // namespace qserv::core
