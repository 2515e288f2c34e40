/// \file observables_codec.h
/// \brief In-band encoding of work observables inside chunk results.
///
/// The worker appends one `-- QSERV-OBS` text line after the binary result;
/// the dispatcher splits it off the table bytes (the row decoder accepts
/// exactly one table) and parses it to feed the virtual-time queue
/// simulation, and tests read a worker's observables from the published
/// result the same way.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "simio/cost_model.h"

namespace qserv::core {

/// "-- QSERV-OBS bytes=... rows=... pairs=... built=... idx=... rbytes=...
///  rrows=...\n"
std::string encodeObservables(const simio::WorkObservables& w);

/// A verified result body cut into the row-codec table bytes and the
/// observables line that ends it.
struct ResultBodyParts {
  std::string_view table;
  std::string_view observables;  ///< empty when the body ends without one
};

/// Split \p body (a result without its MD5 trailer) before its final
/// `-- QSERV-OBS` line. A body whose last line is not an observables line
/// is all table bytes.
ResultBodyParts splitObservables(std::string_view body);

/// Parse the observables line from a result; nullopt when absent or
/// malformed (including NaN, infinite or negative byte counts).
std::optional<simio::WorkObservables> decodeObservables(std::string_view dump);

}  // namespace qserv::core
