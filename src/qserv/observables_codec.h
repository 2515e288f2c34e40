/// \file observables_codec.h
/// \brief In-band encoding of work observables and worker timings inside
/// chunk results.
///
/// Every ok result body a worker publishes is the row-codec table followed
/// by one fixed-width block of the chunk's work observables, both covered
/// by the MD5 trailer that ends the body. The dispatcher splits the block
/// off the table bytes (the row decoder accepts exactly one table) and
/// decodes it to feed the virtual-time queue simulation; tests read a
/// worker's observables from the published result the same way.
///
/// Observables block, 64 bytes, little-endian: bytesScanned (IEEE double),
/// rowsExamined, pairsEvaluated, joinMatches, rowsBuilt, indexLookups (each
/// uint64), resultBytes (IEEE double), resultRows (uint64). The two byte
/// counts are rounded to whole bytes on encode.
///
/// A chunk of a traced batch (nonzero trace id in the request envelope)
/// carries one more block after the observables, still under the trailer:
/// the worker's timings of that chunk, which the dispatcher's collector
/// turns into the query's worker spans. Worker block, 168 bytes,
/// little-endian: "QWB1", u32 block length (168), u64 thread id, i64
/// arrival, claim, execution start, subchunk-build end and execution end
/// (trace-clock microseconds, in that order and non-decreasing), u64 result
/// rows, u64 subchunks built, then the twelve u64 executor counters of
/// util::kExecCounterFields. An untraced chunk's body has no worker block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "simio/cost_model.h"
#include "util/status.h"
#include "util/trace.h"

namespace qserv::core {

/// Size of the observables block that ends every result body.
inline constexpr std::size_t kObservablesBytes = 64;

/// The observables block for \p w.
std::string encodeObservables(const simio::WorkObservables& w);

/// A worker's timings of one traced chunk.
struct WorkerTimings {
  std::uint64_t threadId = 0;  ///< the executor slot's thread
  std::int64_t arrivedUs = 0;  ///< the batch arrived (trace clock)
  std::int64_t claimedUs = 0;  ///< an executor slot claimed the task
  std::int64_t execStartUs = 0;
  std::int64_t buildEndUs = 0;  ///< subchunk tables built (= execStartUs
                                ///< when there were none)
  std::int64_t execEndUs = 0;
  std::uint64_t resultRows = 0;
  std::uint64_t subchunks = 0;  ///< subchunk tables the task needed
  util::ExecCounters counters;
};

/// Size of the worker block that follows the observables of a traced chunk.
inline constexpr std::size_t kWorkerBlockBytes = 168;

/// Append the worker block for \p t to \p out.
void appendWorkerBlock(std::string& out, const WorkerTimings& t);

/// Decode a worker block; kInvalidArgument when \p block is not
/// kWorkerBlockBytes long, its magic or length field is wrong, or its
/// times are negative or out of order.
util::Result<WorkerTimings> decodeWorkerBlock(std::string_view block);

/// A verified result body cut into the row-codec table bytes, the
/// observables block after it and, for a traced chunk, the worker block
/// that ends it.
struct ResultBodyParts {
  std::string_view table;
  std::string_view observables;  ///< exactly kObservablesBytes
  std::string_view worker;       ///< kWorkerBlockBytes, or empty
};

/// Split \p body (a result without its MD5 trailer) before its final
/// observables block and, when \p traced, the worker block after it;
/// kInvalidArgument when it is too short to hold them.
util::Result<ResultBodyParts> splitResultBody(std::string_view body,
                                              bool traced);

/// Decode an observables block; kInvalidArgument when \p block is not
/// kObservablesBytes long or a byte count is NaN, infinite or negative
/// (such a count would poison the cost model).
util::Result<simio::WorkObservables> decodeObservables(std::string_view block);

}  // namespace qserv::core
