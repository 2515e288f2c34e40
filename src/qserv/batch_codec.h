/// \file batch_codec.h
/// \brief Wire format of batched per-worker dispatch (§7.6 remedy).
///
/// Production Qserv batches all chunk tasks destined for one worker into a
/// single "UberJob" request and streams per-chunk results back over one
/// shared channel. This codec defines both directions of that protocol.
///
/// Request (written once to /batch/<md5-of-request>): one typed binary
/// envelope carrying the query's chunk-query template once. All integers
/// are little-endian.
///
///   "QBR1"                          magic
///   u64  trace id                   0 = untraced; otherwise every ok
///                                   frame carries the worker block
///   u8   query class                0 interactive, 1 scan
///   u8   flags                      bit 0: aggregate; other bits zero
///   u32  stream window              max unread frames, 0 = unbounded
///   32   template MD5               lowercase hex of the template SQL
///   u32  template length, bytes     the chunk-query template (one SELECT)
///   u16  binding count, then per binding: u16 FROM index, u8 kind
///   u32  chunk count, then per chunk: i32 chunk id, u32 subchunk count,
///        i32 per subchunk id
///
/// Every count is checked against the bytes left before anything is sized
/// from it, and the envelope must end exactly after its last chunk. A
/// chunk's result identity is (template MD5, chunk id): the same whichever
/// batch carries it, so a failed batch member is retried as a batch of one
/// without re-deriving anything. Two runs of one untraced query encode
/// byte-identical requests; the dispatcher keeps their batch ids apart.
///
/// Result frames (each one FileStore entry at /bstream/<batchId>):
///   --#FRAME <chunkId> ok <bodyBytes>\n<body>     body = the row-codec
///       table, the fixed-width binary observables (observables_codec.h),
///       for a traced batch the fixed-width worker block of the chunk's
///       timings, and the MD5 integrity trailer over all of them, or
///   --#FRAME <chunkId> err <code> <bodyBytes>\n<body>   body = the worker's
///       failure Status message, <code> its numeric ErrorCode.
///
/// Integrity: the per-chunk MD5 trailer inside each ok-frame body is
/// preserved end to end; a frame whose header fails to parse is counted as
/// damaged and its chunk is re-fetched as a batch of one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qserv/chunk_template.h"
#include "util/status.h"

namespace qserv::core {

/// One batch: a query's chunk-query template and the chunks of it that one
/// worker runs.
struct BatchRequest {
  /// The query's trace id; 0 = untraced. The worker only tests it for
  /// zero: a traced batch's chunks report their timings in-band.
  std::uint64_t traceId = 0;
  /// Backpressure bound the worker applies to unread result frames
  /// (0 = unbounded).
  int streamWindow = 0;
  /// MD5 (32 lowercase hex digits) of query.sql; each result table is
  /// named "r_<templateHash>".
  std::string templateHash;
  ChunkQueryTemplate query;
  std::vector<ChunkQuerySpec> chunks;
};

/// Serialize \p request into one batch envelope.
std::string encodeBatchRequest(const BatchRequest& request);

/// Decode a batch envelope; kInvalidArgument on any framing violation,
/// without allocating more than the payload's bytes can back.
util::Result<BatchRequest> decodeBatchRequest(std::string_view payload);

/// One chunk's result frame on the batch stream.
struct BatchResultFrame {
  std::int32_t chunkId = 0;
  util::Status status;  ///< ok, or the worker-side failure
  std::string body;     ///< result with trailer; empty on error frames
};

/// Serialize an ok frame carrying \p body.
std::string encodeResultFrame(std::int32_t chunkId, const std::string& body);

/// Serialize an error frame carrying \p status.
std::string encodeErrorFrame(std::int32_t chunkId, const util::Status& status);

/// Decode one result frame; kDataLoss when the header is damaged.
util::Result<BatchResultFrame> decodeResultFrame(const std::string& frame);

}  // namespace qserv::core
