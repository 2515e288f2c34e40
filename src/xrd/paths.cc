#include "xrd/paths.h"

#include <cctype>

#include "util/strings.h"

namespace qserv::xrd {

namespace {

/// Shared shape of every chunk-addressed path kind: prefix + decimal id.
std::optional<std::int32_t> parseIdPath(std::string_view path,
                                        std::string_view prefix) {
  if (!util::startsWith(path, prefix)) return std::nullopt;
  std::string_view rest = path.substr(prefix.size());
  if (rest.empty() || rest.size() > 10) return std::nullopt;
  std::int64_t value = 0;
  for (char c : rest) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    value = value * 10 + (c - '0');
  }
  if (value > INT32_MAX) return std::nullopt;
  return static_cast<std::int32_t>(value);
}

}  // namespace

std::string makeChunkPath(std::int32_t chunkId) {
  return std::string(kChunkPrefix) + std::to_string(chunkId);
}

std::string makeChunkLoadPath(std::int32_t chunkId) {
  return std::string(kChunkLoadPrefix) + std::to_string(chunkId);
}

std::string makeChunkDropPath(std::int32_t chunkId) {
  return std::string(kChunkDropPrefix) + std::to_string(chunkId);
}

std::optional<std::int32_t> parseChunkPath(std::string_view path) {
  return parseIdPath(path, kChunkPrefix);
}

std::optional<std::int32_t> parseChunkLoadPath(std::string_view path) {
  return parseIdPath(path, kChunkLoadPrefix);
}

std::optional<std::int32_t> parseChunkDropPath(std::string_view path) {
  return parseIdPath(path, kChunkDropPrefix);
}

namespace {

/// Shared shape of every hash-addressed path kind: prefix + 32 hex digits.
std::optional<std::string> parseHashPath(std::string_view path,
                                         std::string_view prefix) {
  if (!util::startsWith(path, prefix)) return std::nullopt;
  std::string_view rest = path.substr(prefix.size());
  if (rest.size() != 32) return std::nullopt;
  for (char c : rest) {
    bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return std::nullopt;
  }
  return std::string(rest);
}

}  // namespace

std::string makeBatchPath(std::string_view batchId) {
  return std::string(kBatchPrefix) + std::string(batchId);
}

std::string makeBatchStreamPath(std::string_view batchId) {
  return std::string(kBatchStreamPrefix) + std::string(batchId);
}

std::string makeBatchCancelPath(std::string_view batchId) {
  return std::string(kBatchCancelPrefix) + std::string(batchId);
}

std::optional<std::string> parseBatchPath(std::string_view path) {
  return parseHashPath(path, kBatchPrefix);
}

std::optional<std::string> parseBatchStreamPath(std::string_view path) {
  return parseHashPath(path, kBatchStreamPrefix);
}

std::optional<std::string> parseBatchCancelPath(std::string_view path) {
  return parseHashPath(path, kBatchCancelPrefix);
}

}  // namespace qserv::xrd
