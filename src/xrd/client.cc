#include "xrd/client.h"

#include "xrd/paths.h"

namespace qserv::xrd {

util::Status XrdClient::writeBatch(const std::string& serverId,
                                   const std::string& batchId,
                                   std::string payload) {
  DataServerPtr server = redirector_->findServer(serverId);
  if (!server) {
    return util::Status::notFound("unknown data server " + serverId);
  }
  return server->write(makeBatchPath(batchId), std::move(payload));
}

util::Result<std::string> XrdClient::readBatchFrame(
    const std::string& serverId, const std::string& batchId,
    const util::Deadline& deadline) {
  DataServerPtr server = redirector_->findServer(serverId);
  if (!server) {
    return util::Status::notFound("unknown data server " + serverId);
  }
  return server->read(makeBatchStreamPath(batchId), deadline);
}

void XrdClient::cancelBatch(const std::string& serverId,
                            const std::string& batchId) {
  DataServerPtr server = redirector_->findServer(serverId);
  if (!server) return;
  util::Status status = server->write(makeBatchCancelPath(batchId), {});
  (void)status;
}

}  // namespace qserv::xrd
