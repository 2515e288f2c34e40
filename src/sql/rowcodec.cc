#include "sql/rowcodec.h"

#include <bit>
#include <cstring>

#include "util/strings.h"

namespace qserv::sql {

namespace {

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

void putU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>(v >> 8));
}

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

/// Append the first \p n 8-byte values of \p v, little-endian.
template <typename T>
void putWords(std::string& out, const std::vector<T>& v, std::size_t n) {
  static_assert(sizeof(T) == 8);
  if (n == 0) return;  // data() may be null
  if constexpr (kLittleEndian) {
    out.append(reinterpret_cast<const char*>(v.data()), n * 8);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t bits;
      std::memcpy(&bits, &v[i], 8);
      putU64(out, bits);
    }
  }
}

/// Bounds-checked cursor over a payload: every read fails instead of
/// running past the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }

  bool bytes(std::string_view& out, std::size_t n) {
    if (n > remaining()) return false;
    out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  bool u8(std::uint8_t& v) { return uint(v, 1); }
  bool u16(std::uint16_t& v) { return uint(v, 2); }
  bool u32(std::uint32_t& v) { return uint(v, 4); }
  bool u64(std::uint64_t& v) { return uint(v, 8); }

  /// Read \p n 8-byte little-endian values into \p out.
  template <typename T>
  bool words(std::vector<T>& out, std::size_t n) {
    if (n > remaining() / 8) return false;
    out.resize(n);
    if (n == 0) return true;  // memcpy's pointers must be non-null
    if constexpr (kLittleEndian) {
      std::memcpy(out.data(), data_.data() + pos_, n * 8);
      pos_ += n * 8;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits = 0;
        u64(bits);
        std::memcpy(&out[i], &bits, 8);
      }
    }
    return true;
  }

 private:
  template <typename T>
  bool uint(T& v, std::size_t n) {
    if (n > remaining()) return false;
    std::uint64_t x = 0;
    for (std::size_t i = n; i-- > 0;) {
      x = (x << 8) | static_cast<std::uint8_t>(data_[pos_ + i]);
    }
    v = static_cast<T>(x);
    pos_ += n;
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

util::Status trailing(std::size_t n) {
  return util::Status::invalidArgument(util::format(
      "binary table payload has %zu bytes after the table", n));
}

util::Status truncated() {
  return util::Status::invalidArgument("truncated binary table payload");
}

util::Status malformed(const char* why) {
  return util::Status::invalidArgument(
      util::format("malformed binary table payload: %s", why));
}

struct Header {
  std::string name;
  Schema schema;
  std::uint64_t rows = 0;
};

util::Result<Header> readHeader(Reader& reader) {
  std::string_view magic;
  if (!reader.bytes(magic, kRowCodecMagic.size()) || magic != kRowCodecMagic) {
    return util::Status::invalidArgument("not a binary table payload");
  }
  Header h;
  std::uint16_t len = 0;
  std::string_view text;
  if (!reader.u16(len) || !reader.bytes(text, len)) return truncated();
  h.name = std::string(text);
  std::uint16_t ncols = 0;
  if (!reader.u16(ncols)) return truncated();
  for (std::uint16_t c = 0; c < ncols; ++c) {
    std::uint8_t type = 0;
    if (!reader.u8(type) || !reader.u16(len) || !reader.bytes(text, len)) {
      return truncated();
    }
    if (type > 2) return malformed("unknown column type");
    ColumnType t = type == 0   ? ColumnType::kInt
                   : type == 1 ? ColumnType::kDouble
                               : ColumnType::kString;
    h.schema.addColumn(ColumnDef{std::string(text), t});
  }
  if (!reader.u64(h.rows)) return truncated();
  return h;
}

/// Decode the column sections of \p h.rows rows into typed blocks.
util::Result<std::vector<ColumnBlock>> readColumns(Reader& reader,
                                                   const Header& h) {
  // Every row costs at least a null flag plus an 8-byte value or a 4-byte
  // string length per column: refuse a declared row count the remaining
  // bytes cannot back before reserving anything for it.
  std::size_t minRowBytes = 0;
  for (const ColumnDef& col : h.schema.columns()) {
    minRowBytes += col.type == ColumnType::kString ? 5 : 9;
  }
  if (minRowBytes == 0 ? h.rows != 0
                       : h.rows > reader.remaining() / minRowBytes) {
    return truncated();
  }
  const auto n = static_cast<std::size_t>(h.rows);
  std::vector<ColumnBlock> blocks(h.schema.numColumns());
  for (std::size_t c = 0; c < blocks.size(); ++c) {
    ColumnBlock& b = blocks[c];
    b.type = h.schema.column(c).type;
    std::string_view flags;
    if (!reader.bytes(flags, n)) return truncated();
    b.nulls.assign(flags.begin(), flags.end());
    for (std::uint8_t f : b.nulls) {
      if (f > 1) return malformed("null flag is not 0 or 1");
    }
    switch (b.type) {
      case ColumnType::kInt:
        if (!reader.words(b.ints, n)) return truncated();
        for (std::size_t r = 0; r < n; ++r) {
          if (b.nulls[r]) b.ints[r] = 0;
        }
        break;
      case ColumnType::kDouble:
        if (!reader.words(b.doubles, n)) return truncated();
        for (std::size_t r = 0; r < n; ++r) {
          if (b.nulls[r]) b.doubles[r] = 0.0;
        }
        break;
      case ColumnType::kString:
        b.strings.resize(n);
        for (std::size_t r = 0; r < n; ++r) {
          std::uint32_t len = 0;
          std::string_view s;
          if (!reader.u32(len) || !reader.bytes(s, len)) return truncated();
          if (b.nulls[r] && len != 0) {
            return malformed("NULL string carries bytes");
          }
          b.strings[r].assign(s.data(), s.size());
        }
        break;
    }
  }
  if (reader.remaining() != 0) return trailing(reader.remaining());
  return blocks;
}

}  // namespace

bool isBinaryTablePayload(std::string_view payload) {
  return payload.substr(0, kRowCodecMagic.size()) == kRowCodecMagic;
}

std::string encodeTableBinary(const Table& table,
                              const std::string& targetName) {
  const std::size_t n = table.numRows();
  std::size_t size = kRowCodecMagic.size() + 2 + targetName.size() + 2 + 8;
  for (std::size_t c = 0; c < table.numColumns(); ++c) {
    const ColumnDef& col = table.schema().column(c);
    size += 3 + col.name.size() + n;
    if (col.type == ColumnType::kString) {
      for (const std::string& s : table.stringColumn(c)) size += 4 + s.size();
    } else {
      size += 8 * n;
    }
  }
  std::string out;
  out.reserve(size);
  out.append(kRowCodecMagic);
  putU16(out, static_cast<std::uint16_t>(targetName.size()));
  out.append(targetName);
  putU16(out, static_cast<std::uint16_t>(table.numColumns()));
  for (std::size_t c = 0; c < table.numColumns(); ++c) {
    const ColumnDef& col = table.schema().column(c);
    std::uint8_t type = col.type == ColumnType::kInt      ? 0
                        : col.type == ColumnType::kDouble ? 1
                                                          : 2;
    out.push_back(static_cast<char>(type));
    putU16(out, static_cast<std::uint16_t>(col.name.size()));
    out.append(col.name);
  }
  putU64(out, n);
  for (std::size_t c = 0; c < table.numColumns(); ++c) {
    const std::vector<std::uint8_t>& nulls = table.nullMask(c);
    if (n > 0) out.append(reinterpret_cast<const char*>(nulls.data()), n);
    switch (table.schema().column(c).type) {
      case ColumnType::kInt: putWords(out, table.intColumn(c), n); break;
      case ColumnType::kDouble: putWords(out, table.doubleColumn(c), n); break;
      case ColumnType::kString:
        for (const std::string& s : table.stringColumn(c)) {
          putU32(out, static_cast<std::uint32_t>(s.size()));
          out.append(s);
        }
        break;
    }
  }
  return out;
}

util::Result<TablePtr> decodeTableBinary(std::string_view payload) {
  Reader reader(payload);
  QSERV_ASSIGN_OR_RETURN(Header h, readHeader(reader));
  QSERV_ASSIGN_OR_RETURN(std::vector<ColumnBlock> blocks,
                         readColumns(reader, h));
  auto table = std::make_shared<Table>(std::move(h.name), std::move(h.schema));
  QSERV_RETURN_IF_ERROR(table->appendColumns(std::move(blocks)));
  return table;
}

util::Status appendTableBinary(std::string_view payload, Table& dest) {
  Reader reader(payload);
  QSERV_ASSIGN_OR_RETURN(Header h, readHeader(reader));
  QSERV_ASSIGN_OR_RETURN(std::vector<ColumnBlock> blocks,
                         readColumns(reader, h));
  return dest.appendColumns(std::move(blocks));
}

}  // namespace qserv::sql
