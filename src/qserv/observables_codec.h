/// \file observables_codec.h
/// \brief In-band encoding of work observables inside chunk results.
///
/// The worker appends one `-- QSERV-OBS` text line after the binary result
/// (the row decoder ignores trailing bytes); the dispatcher parses it to
/// feed the virtual-time queue simulation, and tests read a worker's
/// observables from the published result the same way.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "simio/cost_model.h"

namespace qserv::core {

/// "-- QSERV-OBS bytes=... rows=... pairs=... built=... idx=... rbytes=...
///  rrows=...\n"
std::string encodeObservables(const simio::WorkObservables& w);

/// Parse the observables line from a result; nullopt when absent or
/// malformed (including NaN, infinite or negative byte counts).
std::optional<simio::WorkObservables> decodeObservables(std::string_view dump);

}  // namespace qserv::core
