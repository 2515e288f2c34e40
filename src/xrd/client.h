/// \file client.h
/// \brief Client side of the batched chunk-query protocol (paper §5.4, §7.6).
///
/// The paper's master spent two file transactions per chunk query: "The
/// first transaction consists of opening a particular path for writing,
/// writing the chunk query, and closing the file. ... The second
/// transaction reads query results". Batched dispatch keeps the write/read
/// shape but amortizes it: one write carries every chunk query a worker
/// gets from one user query, and each read returns the next chunk's result
/// frame from the batch's stream. Both go straight to the data server the
/// dispatcher picked through the redirector (Redirector::locate), so the
/// dispatcher owns replica choice, exclusion and failure reporting. Reads
/// are deadline-bounded so a per-query time budget caps the blocking wait
/// for a result frame.
#pragma once

#include <memory>
#include <string>

#include "util/deadline.h"
#include "xrd/redirector.h"

namespace qserv::xrd {

class XrdClient {
 public:
  explicit XrdClient(RedirectorPtr redirector)
      : redirector_(std::move(redirector)) {}

  /// Write one batch request (a chunk list for one worker) to
  /// /batch/<batchId> on \p serverId.
  util::Status writeBatch(const std::string& serverId,
                          const std::string& batchId, std::string payload);

  /// Read the next result frame from /bstream/<batchId> on \p serverId.
  /// Each read consumes exactly one per-chunk frame.
  util::Result<std::string> readBatchFrame(
      const std::string& serverId, const std::string& batchId,
      const util::Deadline& deadline = util::Deadline::unlimited());

  /// Tell \p serverId the master has abandoned batch \p batchId so its
  /// executors stop producing (and stop waiting on) result frames.
  /// Best-effort: failures are swallowed — the worker's stream timeout is
  /// the fallback.
  void cancelBatch(const std::string& serverId, const std::string& batchId);

 private:
  RedirectorPtr redirector_;
};

}  // namespace qserv::xrd
