#include "xrd/file_store.h"

namespace qserv::xrd {

void FileStore::publish(const std::string& path, std::string bytes) {
  {
    std::lock_guard lock(mutex_);
    files_[path].push_back(std::move(bytes));
  }
  cv_.notify_all();
}

util::Result<std::string> FileStore::waitFor(const std::string& path,
                                             std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  bool ready = cv_.wait_for(lock, timeout, [&] {
    auto it = files_.find(path);
    return aborted_ || (it != files_.end() && !it->second.empty());
  });
  if (aborted_) {
    return util::Status::aborted("file store shut down");
  }
  if (!ready) {
    return util::Status::unavailable("timed out waiting for " + path);
  }
  auto it = files_.find(path);
  std::string bytes = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) files_.erase(it);
  lock.unlock();
  // Consumption opens window slots for awaitDrain publishers.
  cv_.notify_all();
  return bytes;
}

bool FileStore::awaitDrain(const std::string& path, std::size_t maxQueued,
                           std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  return cv_.wait_for(lock, timeout, [&] {
    if (aborted_) return true;
    auto it = files_.find(path);
    return it == files_.end() || it->second.size() < maxQueued;
  }) && !aborted_;
}

std::optional<std::string> FileStore::tryGet(const std::string& path) const {
  std::lock_guard lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end() || it->second.empty()) return std::nullopt;
  return it->second.front();
}

void FileStore::remove(const std::string& path) {
  {
    std::lock_guard lock(mutex_);
    files_.erase(path);
  }
  cv_.notify_all();
}

std::size_t FileStore::size() const {
  std::lock_guard lock(mutex_);
  return files_.size();
}

void FileStore::abortAll() {
  {
    std::lock_guard lock(mutex_);
    aborted_ = true;
  }
  cv_.notify_all();
}

}  // namespace qserv::xrd
