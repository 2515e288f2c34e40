#include "qserv/batch_codec.h"

#include <algorithm>
#include <charconv>

#include "util/strings.h"

namespace qserv::core {

using util::Result;
using util::Status;

namespace {

constexpr std::string_view kRequestMagic = "QBR1";
constexpr std::string_view kFrameHeader = "--#FRAME ";
constexpr std::size_t kHashBytes = 32;

void putLe(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out += static_cast<char>(v >> (8 * i));
}

/// Bounds-checked little-endian reader over a request envelope.
class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  std::size_t left() const { return in_.size() - pos_; }

  bool le(std::uint64_t& v, int bytes) {
    if (left() < static_cast<std::size_t>(bytes)) return false;
    v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(in_[pos_ + i]))
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(bytes);
    return true;
  }

  /// A non-negative int32 stored as a u32.
  bool id(std::int32_t& v) {
    std::uint64_t raw = 0;
    if (!le(raw, 4) || raw > static_cast<std::uint64_t>(INT32_MAX)) {
      return false;
    }
    v = static_cast<std::int32_t>(raw);
    return true;
  }

  bool bytes(std::size_t n, std::string_view& out) {
    if (left() < n) return false;
    out = in_.substr(pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::string_view in_;
  std::size_t pos_ = 0;
};

Status bad(const char* what) {
  return Status::invalidArgument(std::string("batch request: ") + what);
}

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

/// Append the decimal digits of \p v.
void appendDecimal(std::string& out, std::int64_t v) {
  char digits[24];
  auto end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
  out.append(digits, end);
}

}  // namespace

std::string encodeBatchRequest(const BatchRequest& request) {
  std::size_t total = 64 + request.query.sql.size() +
                      3 * request.query.bindings.size() +
                      8 * request.chunks.size();
  for (const ChunkQuerySpec& c : request.chunks) {
    total += 4 * c.subChunkIds.size();
  }
  std::string out;
  out.reserve(total);
  out += kRequestMagic;
  putLe(out, request.traceId, 8);
  putLe(out, request.query.queryClass == QueryClass::kInteractive ? 0 : 1, 1);
  putLe(out, request.query.aggregate ? 1 : 0, 1);
  putLe(out, static_cast<std::uint32_t>(std::max(0, request.streamWindow)),
        4);
  out += request.templateHash;  // 32 hex digits; the decoder checks them
  putLe(out, request.query.sql.size(), 4);
  out += request.query.sql;
  putLe(out, request.query.bindings.size(), 2);
  for (const TableBinding& b : request.query.bindings) {
    putLe(out, b.from, 2);
    putLe(out, static_cast<std::uint8_t>(b.kind), 1);
  }
  putLe(out, request.chunks.size(), 4);
  for (const ChunkQuerySpec& c : request.chunks) {
    putLe(out, static_cast<std::uint32_t>(c.chunkId), 4);
    putLe(out, c.subChunkIds.size(), 4);
    for (std::int32_t sc : c.subChunkIds) {
      putLe(out, static_cast<std::uint32_t>(sc), 4);
    }
  }
  return out;
}

Result<BatchRequest> decodeBatchRequest(std::string_view payload) {
  Reader in(payload);
  std::string_view magic;
  if (!in.bytes(kRequestMagic.size(), magic) || magic != kRequestMagic) {
    return bad("missing magic");
  }
  BatchRequest out;
  std::uint64_t classByte = 0, flags = 0, window = 0;
  if (!in.le(out.traceId, 8) || !in.le(classByte, 1) || !in.le(flags, 1) ||
      !in.le(window, 4)) {
    return bad("truncated header");
  }
  if (classByte > 1) return bad("unknown query class");
  if ((flags & ~std::uint64_t{1}) != 0) return bad("unknown flags");
  if (window > static_cast<std::uint64_t>(INT32_MAX)) {
    return bad("bad stream window");
  }
  out.query.queryClass =
      classByte == 0 ? QueryClass::kInteractive : QueryClass::kScan;
  out.query.aggregate = (flags & 1) != 0;
  out.streamWindow = static_cast<int>(window);

  std::string_view hash;
  if (!in.bytes(kHashBytes, hash)) return bad("truncated template hash");
  for (char c : hash) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) {
      return bad("template hash is not lowercase hex");
    }
  }
  out.templateHash = hash;

  std::uint64_t sqlBytes = 0;
  std::string_view sql;
  if (!in.le(sqlBytes, 4) ||
      !in.bytes(static_cast<std::size_t>(sqlBytes), sql)) {
    return bad("template length exceeds payload");
  }
  out.query.sql = sql;

  std::uint64_t bindings = 0;
  if (!in.le(bindings, 2) || bindings > in.left() / 3) {
    return bad("binding count exceeds payload");
  }
  out.query.bindings.reserve(static_cast<std::size_t>(bindings));
  for (std::uint64_t i = 0; i < bindings; ++i) {
    std::uint64_t from = 0, kind = 0;
    (void)in.le(from, 2);  // the count check above covers these bytes
    (void)in.le(kind, 1);
    if (kind > static_cast<std::uint64_t>(TableBindingKind::kFullOverlap)) {
      return bad("unknown table binding kind");
    }
    out.query.bindings.push_back(TableBinding{
        static_cast<std::uint16_t>(from), static_cast<TableBindingKind>(kind)});
  }

  // Every chunk takes at least its id and its subchunk count: a count the
  // remaining bytes cannot hold is a lie, and must not size an allocation.
  std::uint64_t chunks = 0;
  if (!in.le(chunks, 4) || chunks > in.left() / 8) {
    return bad("chunk count exceeds payload");
  }
  out.chunks.resize(static_cast<std::size_t>(chunks));
  for (ChunkQuerySpec& chunk : out.chunks) {
    std::uint64_t subChunks = 0;
    if (!in.id(chunk.chunkId)) return bad("bad chunk id");
    if (!in.le(subChunks, 4) || subChunks > in.left() / 4) {
      return bad("subchunk count exceeds payload");
    }
    chunk.subChunkIds.resize(static_cast<std::size_t>(subChunks));
    for (std::int32_t& sc : chunk.subChunkIds) {
      if (!in.id(sc)) return bad("bad subchunk id");
    }
  }
  if (in.left() != 0) return bad("trailing bytes");
  return out;
}

std::string encodeResultFrame(std::int32_t chunkId, const std::string& body) {
  // Built by hand, not formatted: this runs once per chunk.
  std::string out;
  out.reserve(body.size() + 32);
  out += kFrameHeader;
  appendDecimal(out, chunkId);
  out += " ok ";
  appendDecimal(out, static_cast<std::int64_t>(body.size()));
  out += '\n';
  out += body;
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
