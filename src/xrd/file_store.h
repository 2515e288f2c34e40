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
///
/// Wakeups are per path: a publish wakes one reader of its path (a payload
/// still queued after a read is handed on to the next reader), and a read
/// wakes only its path's window-blocked publishers. One worker serves many
/// concurrent streams, so a store-wide condition would wake every collector
/// and publisher on the worker for each frame.
class FileStore {
 public:
  /// Append \p bytes at \p path and wake one reader of \p path.
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

  /// Drop all payloads queued at \p path, releasing its window-blocked
  /// publishers.
  void remove(const std::string& path);

  /// Number of paths with pending payloads.
  std::size_t size() const;

  /// Fail all current and future waits with kAborted (shutdown).
  void abortAll();

 private:
  /// One path's queue and its waiters. It lives while it holds payloads or
  /// someone waits on it (node-based map: references to it survive other
  /// paths' inserts; iterators do not).
  struct Entry {
    std::deque<std::string> frames;
    std::condition_variable readable;  ///< a frame arrived
    std::condition_variable drained;   ///< a frame was consumed or dropped
    int readers = 0;                   ///< threads waiting in waitFor
    int publishers = 0;                ///< threads waiting in awaitDrain
  };
  /// Erase \p path's entry \p e once it holds nothing and nobody waits on
  /// it.
  void release(const std::string& path, const Entry& e);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> files_;
  std::size_t pending_ = 0;  ///< entries with a non-empty queue
  bool aborted_ = false;
};

}  // namespace qserv::xrd
