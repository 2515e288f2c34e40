/// \file file_store.h
/// \brief Blocking path -> bytes store with publish/wait semantics.
///
/// Backs result streams on workers: the master's read of /bstream/<batchId>
/// blocks until the worker finishes a chunk query of that batch and
/// publishes its result frame — the same observable behaviour as an Xrootd
/// file appearing when written.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/status.h"

namespace qserv::xrd {

/// Each path holds a QUEUE of published payloads: a batch stream carries one
/// frame per chunk, and identical batches from concurrent user queries hash
/// to the same stream, so readers consume one payload each — no publish can
/// be lost to an overwrite or a double read.
class FileStore {
 public:
  /// Append \p bytes at \p path and wake a waiter.
  void publish(const std::string& path, std::string bytes);

  /// Block until a payload is available at \p path, then consume it.
  util::Result<std::string> waitFor(
      const std::string& path,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(30000));

  /// Block until fewer than \p maxQueued payloads sit unconsumed at \p path
  /// (publisher-side backpressure for streamed batch results). Returns true
  /// when the queue drained below the bound, false on timeout or abort.
  bool awaitDrain(const std::string& path, std::size_t maxQueued,
                  std::chrono::milliseconds timeout);

  /// Non-blocking peek (does not consume).
  std::optional<std::string> tryGet(const std::string& path) const;

  /// Drop all payloads queued at \p path.
  void remove(const std::string& path);

  /// Number of paths with pending payloads.
  std::size_t size() const;

  /// Fail all current and future waits with kAborted (shutdown).
  void abortAll();

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::string, std::deque<std::string>> files_;
  bool aborted_ = false;
};

}  // namespace qserv::xrd
