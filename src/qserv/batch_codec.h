/// \file batch_codec.h
/// \brief Wire format of batched per-worker dispatch (§7.6 remedy).
///
/// Production Qserv batches all chunk tasks destined for one worker into a
/// single "UberJob" request and streams per-chunk results back over one
/// shared channel. This codec defines both directions of that protocol:
///
/// Request (written once to /batch/<md5-of-request>):
///   -- QSERV-BATCH <nChunks> <streamWindow>\n
///   --#CHUNK <chunkId> <payloadBytes>\n
///   <payloadBytes bytes: the unchanged per-chunk query payload>\n
///   ... repeated nChunks times ...
///
/// Each embedded payload is the chunk query exactly as the dispatcher built
/// it (trace and class headers included), so a chunk's result hash — the MD5
/// of its payload — is the same whichever batch carries it, and a failed
/// batch member is retried verbatim as a batch of one.
///
/// Result frames (each one FileStore entry at /bstream/<batchId>):
///   --#FRAME <chunkId> ok <bodyBytes>\n<body>     body = the normal dump,
///       observables comment and MD5 integrity trailer included, or
///   --#FRAME <chunkId> err <code> <bodyBytes>\n<body>   body = the worker's
///       failure Status message, <code> its numeric ErrorCode.
///
/// Integrity: the per-chunk MD5 trailer inside each ok-frame body is
/// preserved end to end; a frame whose header fails to parse is counted as
/// damaged and its chunk is re-fetched as a batch of one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace qserv::core {

/// One chunk's slice of a batch request.
struct BatchChunkRequest {
  std::int32_t chunkId = 0;
  std::string payload;  ///< per-chunk query payload, unchanged
};

/// Serialize \p chunks into one batch request payload. \p streamWindow is
/// the backpressure bound the worker applies to unread result frames
/// (0 = unbounded).
std::string encodeBatchRequest(const std::vector<BatchChunkRequest>& chunks,
                               int streamWindow);

/// Parsed batch request.
struct BatchRequest {
  std::vector<BatchChunkRequest> chunks;
  int streamWindow = 0;
};

/// Decode a batch request; kInvalidArgument on any framing violation.
util::Result<BatchRequest> decodeBatchRequest(const std::string& payload);

/// One chunk's result frame on the batch stream.
struct BatchResultFrame {
  std::int32_t chunkId = 0;
  util::Status status;  ///< ok, or the worker-side failure
  std::string body;     ///< dump (ok) with trailer; empty on error frames
};

/// Serialize an ok frame carrying \p dump.
std::string encodeResultFrame(std::int32_t chunkId, const std::string& dump);

/// Serialize an error frame carrying \p status.
std::string encodeErrorFrame(std::int32_t chunkId, const util::Status& status);

/// Decode one result frame; kDataLoss when the header is damaged.
util::Result<BatchResultFrame> decodeResultFrame(const std::string& frame);

}  // namespace qserv::core
