#include "qserv/batch_codec.h"

#include "util/strings.h"

namespace qserv::core {

using util::Result;
using util::Status;

namespace {

constexpr std::string_view kBatchHeader = "-- QSERV-BATCH ";
constexpr std::string_view kChunkHeader = "--#CHUNK ";
constexpr std::string_view kFrameHeader = "--#FRAME ";

/// Parse a non-negative decimal integer starting at \p pos; advances \p pos
/// past it. Returns -1 when no digits are present or the value overflows.
std::int64_t parseInt(const std::string& s, std::size_t& pos) {
  std::size_t start = pos;
  std::int64_t value = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    value = value * 10 + (s[pos] - '0');
    if (value > INT32_MAX) return -1;
    ++pos;
  }
  return pos == start ? -1 : value;
}

bool skipChar(const std::string& s, std::size_t& pos, char c) {
  if (pos >= s.size() || s[pos] != c) return false;
  ++pos;
  return true;
}

}  // namespace

std::string encodeBatchRequest(const std::vector<BatchChunkRequest>& chunks,
                               int streamWindow) {
  std::size_t total = 64;
  for (const auto& c : chunks) total += c.payload.size() + 32;
  std::string out;
  out.reserve(total);
  out += util::format("%s%zu %d\n", std::string(kBatchHeader).c_str(),
                      chunks.size(), streamWindow);
  for (const auto& c : chunks) {
    out += util::format("%s%d %zu\n", std::string(kChunkHeader).c_str(),
                        c.chunkId, c.payload.size());
    out += c.payload;
    out += '\n';
  }
  return out;
}

Result<BatchRequest> decodeBatchRequest(const std::string& payload) {
  std::size_t pos = 0;
  if (payload.compare(0, kBatchHeader.size(), kBatchHeader) != 0) {
    return Status::invalidArgument("batch request: missing header");
  }
  pos = kBatchHeader.size();
  std::int64_t count = parseInt(payload, pos);
  if (count < 0 || !skipChar(payload, pos, ' ')) {
    return Status::invalidArgument("batch request: bad chunk count");
  }
  std::int64_t window = parseInt(payload, pos);
  if (window < 0 || !skipChar(payload, pos, '\n')) {
    return Status::invalidArgument("batch request: bad stream window");
  }
  // Every chunk frame takes at least its header, two one-digit numbers and
  // two separators: a count the remaining bytes cannot hold is a lie, and
  // must not size an allocation.
  if (static_cast<std::size_t>(count) >
      (payload.size() - pos) / (kChunkHeader.size() + 5)) {
    return Status::invalidArgument(
        "batch request: chunk count exceeds payload");
  }
  BatchRequest out;
  out.streamWindow = static_cast<int>(window);
  out.chunks.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    if (payload.compare(pos, kChunkHeader.size(), kChunkHeader) != 0) {
      return Status::invalidArgument(
          util::format("batch request: missing chunk frame %lld",
                       static_cast<long long>(i)));
    }
    pos += kChunkHeader.size();
    std::int64_t chunkId = parseInt(payload, pos);
    if (chunkId < 0 || !skipChar(payload, pos, ' ')) {
      return Status::invalidArgument("batch request: bad chunk id");
    }
    std::int64_t len = parseInt(payload, pos);
    if (len < 0 || !skipChar(payload, pos, '\n') ||
        pos + static_cast<std::size_t>(len) > payload.size()) {
      return Status::invalidArgument(
          util::format("batch request: bad payload length for chunk %lld",
                       static_cast<long long>(chunkId)));
    }
    BatchChunkRequest chunk;
    chunk.chunkId = static_cast<std::int32_t>(chunkId);
    chunk.payload = payload.substr(pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    if (!skipChar(payload, pos, '\n')) {
      return Status::invalidArgument("batch request: missing frame separator");
    }
    out.chunks.push_back(std::move(chunk));
  }
  if (pos != payload.size()) {
    return Status::invalidArgument("batch request: trailing bytes");
  }
  return out;
}

std::string encodeResultFrame(std::int32_t chunkId, const std::string& dump) {
  std::string out;
  out.reserve(dump.size() + 32);
  out += util::format("%s%d ok %zu\n", std::string(kFrameHeader).c_str(),
                      chunkId, dump.size());
  out += dump;
  return out;
}

std::string encodeErrorFrame(std::int32_t chunkId,
                             const util::Status& status) {
  const std::string& msg = status.message();
  std::string out;
  out.reserve(msg.size() + 32);
  out += util::format("%s%d err %d %zu\n", std::string(kFrameHeader).c_str(),
                      chunkId, static_cast<int>(status.code()), msg.size());
  out += msg;
  return out;
}

Result<BatchResultFrame> decodeResultFrame(const std::string& frame) {
  // Header damage is kDataLoss: the frame's chunk cannot be attributed and
  // must be re-fetched; body damage is caught by the per-chunk MD5 trailer.
  if (frame.compare(0, kFrameHeader.size(), kFrameHeader) != 0) {
    return Status::dataLoss("batch stream: damaged frame header");
  }
  std::size_t pos = kFrameHeader.size();
  std::int64_t chunkId = parseInt(frame, pos);
  if (chunkId < 0 || !skipChar(frame, pos, ' ')) {
    return Status::dataLoss("batch stream: damaged frame chunk id");
  }
  BatchResultFrame out;
  out.chunkId = static_cast<std::int32_t>(chunkId);
  bool ok;
  if (frame.compare(pos, 3, "ok ") == 0) {
    ok = true;
    pos += 3;
  } else if (frame.compare(pos, 4, "err ") == 0) {
    ok = false;
    pos += 4;
  } else {
    return Status::dataLoss("batch stream: damaged frame disposition");
  }
  std::int64_t code = 0;
  if (!ok) {
    code = parseInt(frame, pos);
    if (code < 0 ||
        code > static_cast<std::int64_t>(util::ErrorCode::kDataLoss) ||
        !skipChar(frame, pos, ' ')) {
      return Status::dataLoss("batch stream: damaged frame error code");
    }
  }
  std::int64_t len = parseInt(frame, pos);
  if (len < 0 || !skipChar(frame, pos, '\n') ||
      pos + static_cast<std::size_t>(len) != frame.size()) {
    return Status::dataLoss("batch stream: damaged frame length");
  }
  if (ok) {
    out.status = Status::ok();
    out.body = frame.substr(pos);
  } else {
    out.status = Status(static_cast<util::ErrorCode>(code), frame.substr(pos));
    if (out.status.isOk()) {
      // An error frame must not decode to OK (code damaged to 0).
      return Status::dataLoss("batch stream: error frame with ok code");
    }
  }
  return out;
}

}  // namespace qserv::core
