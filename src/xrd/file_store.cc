#include "xrd/file_store.h"

namespace qserv::xrd {

// Notifications are sent with the mutex held: a waiter that times out may
// erase its entry, condition variables included, as soon as it relocks.

void FileStore::publish(const std::string& path, std::string bytes) {
  std::lock_guard lock(mutex_);
  Entry& e = files_[path];
  if (e.frames.empty()) ++pending_;
  e.frames.push_back(std::move(bytes));
  if (e.readers > 0) e.readable.notify_one();
}

util::Result<std::string> FileStore::waitFor(const std::string& path,
                                             std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  Entry& e = files_[path];
  ++e.readers;
  bool ready = e.readable.wait_for(
      lock, timeout, [&] { return aborted_ || !e.frames.empty(); });
  --e.readers;
  if (aborted_) {
    release(path, e);
    return util::Status::aborted("file store shut down");
  }
  if (!ready) {
    release(path, e);
    return util::Status::unavailable("timed out waiting for " + path);
  }
  std::string bytes = std::move(e.frames.front());
  e.frames.pop_front();
  if (e.frames.empty()) {
    --pending_;
  } else if (e.readers > 0) {
    // A publish wakes one reader; hand what is left to the next one.
    e.readable.notify_one();
  }
  // Consumption opens window slots for this path's awaitDrain publishers.
  if (e.publishers > 0) e.drained.notify_all();
  release(path, e);
  return bytes;
}

bool FileStore::awaitDrain(const std::string& path, std::size_t maxQueued,
                           std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  if (aborted_) return false;
  auto it = files_.find(path);
  if (it == files_.end() || it->second.frames.size() < maxQueued) return true;
  Entry& e = it->second;  // iterators may not survive the wait; refs do
  ++e.publishers;
  bool drained = e.drained.wait_for(lock, timeout, [&] {
    return aborted_ || e.frames.size() < maxQueued;
  });
  --e.publishers;
  release(path, e);
  return drained && !aborted_;
}

std::optional<std::string> FileStore::tryGet(const std::string& path) const {
  std::lock_guard lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end() || it->second.frames.empty()) return std::nullopt;
  return it->second.frames.front();
}

void FileStore::remove(const std::string& path) {
  std::lock_guard lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return;
  Entry& e = it->second;
  if (!e.frames.empty()) --pending_;
  e.frames.clear();
  if (e.publishers > 0) e.drained.notify_all();
  release(path, e);
}

std::size_t FileStore::size() const {
  std::lock_guard lock(mutex_);
  return pending_;
}

void FileStore::abortAll() {
  std::lock_guard lock(mutex_);
  aborted_ = true;
  for (auto& [path, e] : files_) {
    e.readable.notify_all();
    e.drained.notify_all();
  }
}

void FileStore::release(const std::string& path, const Entry& e) {
  if (e.frames.empty() && e.readers == 0 && e.publishers == 0) {
    files_.erase(path);
  }
}

}  // namespace qserv::xrd
