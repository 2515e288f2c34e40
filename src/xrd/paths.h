/// \file paths.h
/// \brief Qserv's Xrootd path scheme.
///
/// The paper's master wrote each chunk query to its own partition-addressed
/// path and read the result back from a hash-addressed one, one write+read
/// transaction pair per chunk (§5.4). Chunk queries here travel in batches
/// (the §7.6 remedy), over three hash-addressed path kinds keyed by the MD5
/// of the batch request payload:
///   /batch/<batchId>    one write carries a chunk list for one worker
///   /bstream/<batchId>  per-chunk result frames stream back over this path
///   /bcancel/<batchId>  the master abandons the batch (stops the stream)
/// A chunk a batch could not deliver is retried as a batch of one.
///
/// The replication control plane adds four administrative path kinds, served
/// by the same data servers so fault injection and liveness apply to repair
/// traffic exactly as to query traffic:
///   /ping                health probe; read returns a liveness/load line
///   /chunk/<chunkId>     read a self-verifying snapshot of one chunk's tables
///   /chunkload/<chunkId> write a snapshot to install the chunk (new replica)
///   /chunkdrop/<chunkId> write to drop the chunk's replica (rebalance source)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace qserv::xrd {

inline constexpr std::string_view kBatchPrefix = "/batch/";
inline constexpr std::string_view kBatchStreamPrefix = "/bstream/";
inline constexpr std::string_view kBatchCancelPrefix = "/bcancel/";
inline constexpr std::string_view kPingPath = "/ping";
inline constexpr std::string_view kChunkPrefix = "/chunk/";
inline constexpr std::string_view kChunkLoadPrefix = "/chunkload/";
inline constexpr std::string_view kChunkDropPrefix = "/chunkdrop/";

/// "/batch/<batchId>"; \p batchId must be 32 lowercase hex digits.
std::string makeBatchPath(std::string_view batchId);

/// "/bstream/<batchId>" — the shared result-frame stream of one batch.
std::string makeBatchStreamPath(std::string_view batchId);

/// "/bcancel/<batchId>" — master-side abandonment of one batch.
std::string makeBatchCancelPath(std::string_view batchId);

/// Batch id from a batch path, or nullopt if \p path is not one.
std::optional<std::string> parseBatchPath(std::string_view path);

/// Batch id from a batch-stream path, or nullopt if \p path is not one.
std::optional<std::string> parseBatchStreamPath(std::string_view path);

/// Batch id from a batch-cancel path, or nullopt if \p path is not one.
std::optional<std::string> parseBatchCancelPath(std::string_view path);

/// "/chunk/<chunkId>" — chunk-snapshot read (replica copy source).
std::string makeChunkPath(std::int32_t chunkId);

/// "/chunkload/<chunkId>" — chunk-snapshot install write (new replica).
std::string makeChunkLoadPath(std::int32_t chunkId);

/// "/chunkdrop/<chunkId>" — replica drop write (rebalance source side).
std::string makeChunkDropPath(std::int32_t chunkId);

/// Chunk id from a chunk-snapshot path, or nullopt if \p path is not one.
std::optional<std::int32_t> parseChunkPath(std::string_view path);

/// Chunk id from a chunk-load path, or nullopt if \p path is not one.
std::optional<std::int32_t> parseChunkLoadPath(std::string_view path);

/// Chunk id from a chunk-drop path, or nullopt if \p path is not one.
std::optional<std::int32_t> parseChunkDropPath(std::string_view path);

}  // namespace qserv::xrd
