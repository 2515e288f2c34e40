#include "xrd/redirector.h"

#include <algorithm>

#include "util/metrics.h"
#include "util/strings.h"

namespace qserv::xrd {

namespace {
struct RedirectorMetrics {
  util::Counter& lookups;
  util::Counter& cacheHits;
  util::Counter& cacheMisses;
  util::Counter& failureEvictions;
  util::Counter& breakerSkips;
  util::Counter& breakerOverrides;
  util::Counter& recoveryEvictions;
  util::Counter& quarantineSkips;
  util::Counter& exportRefreshes;

  static RedirectorMetrics& instance() {
    auto& reg = util::MetricsRegistry::instance();
    static RedirectorMetrics* m = new RedirectorMetrics{
        reg.counter("xrd.redirector.lookups"),
        reg.counter("xrd.redirector.cache_hits"),
        reg.counter("xrd.redirector.cache_misses"),
        reg.counter("xrd.redirector.failure_evictions"),
        reg.counter("xrd.redirector.breaker_skips"),
        reg.counter("xrd.redirector.breaker_overrides"),
        reg.counter("xrd.redirector.recovery_evictions"),
        reg.counter("xrd.redirector.quarantine_skips"),
        reg.counter("xrd.redirector.export_refreshes"),
    };
    return *m;
  }
};

bool contains(std::span<const std::string> ids, const std::string& id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}
}  // namespace

void Redirector::registerServer(DataServerPtr server) {
  std::lock_guard lock(mutex_);
  const std::string& id = server->id();
  servers_[id] = server;
  for (std::int32_t chunk : server->exportedChunks()) {
    auto& replicas = chunkMap_[chunk];
    bool present = std::any_of(replicas.begin(), replicas.end(),
                               [&](const auto& s) { return s->id() == id; });
    if (!present) replicas.push_back(server);
  }
}

void Redirector::deregisterServer(const std::string& serverId) {
  std::lock_guard lock(mutex_);
  servers_.erase(serverId);
  for (auto& [chunk, replicas] : chunkMap_) {
    std::erase_if(replicas,
                  [&](const auto& s) { return s->id() == serverId; });
  }
  std::erase_if(cache_,
                [&](const auto& kv) { return kv.second->id() == serverId; });
  breakers_.erase(serverId);
  quarantined_.erase(serverId);
}

DataServerPtr Redirector::findServer(const std::string& serverId) const {
  std::lock_guard lock(mutex_);
  auto it = servers_.find(serverId);
  return it == servers_.end() ? nullptr : it->second;
}

util::CircuitBreaker& Redirector::breakerFor(const std::string& serverId) {
  auto it = breakers_.find(serverId);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(serverId,
                      std::make_unique<util::CircuitBreaker>(breakerPolicy_))
             .first;
  }
  return *it->second;
}

util::Result<DataServerPtr> Redirector::locate(
    std::int32_t chunkId, std::span<const std::string> exclude) {
  auto& metrics = RedirectorMetrics::instance();
  std::lock_guard lock(mutex_);
  ++lookups_;
  metrics.lookups.add();
  auto cached = cache_.find(chunkId);
  if (cached != cache_.end()) {
    const std::string& id = cached->second->id();
    if (cached->second->isUp() && !contains(exclude, id) &&
        !quarantined_.contains(id) && breakerFor(id).allowRequest()) {
      ++cacheHits_;
      metrics.cacheHits.add();
      return cached->second;
    }
    cache_.erase(cached);  // dead, excluded, quarantined, or breaker-open
  }
  metrics.cacheMisses.add();
  auto it = chunkMap_.find(chunkId);
  if (it == chunkMap_.end() || it->second.empty()) {
    return util::Status::notFound(
        util::format("no data server exports chunk %d", chunkId));
  }
  const auto& replicas = it->second;
  std::size_t& rr = rrCounter_[chunkId];
  // First pass (round-robin): live, not excluded, not quarantined, breaker
  // allows.
  DataServerPtr degraded;  // sick-server fallback if no healthy replica
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    DataServerPtr candidate = replicas[(rr + i) % replicas.size()];
    if (!candidate->isUp() || contains(exclude, candidate->id())) continue;
    if (quarantined_.contains(candidate->id())) {
      metrics.quarantineSkips.add();
      if (!degraded) degraded = candidate;
      continue;
    }
    if (!breakerFor(candidate->id()).allowRequest()) {
      metrics.breakerSkips.add();
      if (!degraded) degraded = candidate;
      continue;
    }
    rr = (rr + i + 1) % replicas.size();
    cache_[chunkId] = candidate;
    return candidate;
  }
  // Every live, non-excluded replica has an open breaker: probing a sick
  // server beats returning nothing (and its outcome retrains the breaker).
  if (degraded) {
    metrics.breakerOverrides.add();
    return degraded;
  }
  bool anyUp = std::any_of(replicas.begin(), replicas.end(),
                           [](const auto& s) { return s->isUp(); });
  if (anyUp && !exclude.empty()) {
    return util::Status::unavailable(util::format(
        "all live replicas of chunk %d already failed this query", chunkId));
  }
  return util::Status::unavailable(
      util::format("all replicas of chunk %d are down", chunkId));
}

void Redirector::reportFailure(std::int32_t chunkId,
                               const std::string& serverId) {
  std::lock_guard lock(mutex_);
  auto cached = cache_.find(chunkId);
  if (cached != cache_.end() && cached->second->id() == serverId) {
    cache_.erase(cached);
    RedirectorMetrics::instance().failureEvictions.add();
  }
  breakerFor(serverId).recordFailure();
}

std::size_t Redirector::evictForeignPinsLocked(const std::string& serverId) {
  std::size_t evicted = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second->id() != serverId) {
      auto replicas = chunkMap_.find(it->first);
      bool exports =
          replicas != chunkMap_.end() &&
          std::any_of(replicas->second.begin(), replicas->second.end(),
                      [&](const auto& s) { return s->id() == serverId; });
      if (exports) {
        it = cache_.erase(it);
        ++evicted;
        continue;
      }
    }
    ++it;
  }
  if (evicted > 0) {
    RedirectorMetrics::instance().recoveryEvictions.add(evicted);
  }
  return evicted;
}

void Redirector::reportSuccess(const std::string& serverId) {
  std::lock_guard lock(mutex_);
  util::CircuitBreaker& breaker = breakerFor(serverId);
  bool wasClosed = breaker.state() == util::CircuitBreaker::State::kClosed;
  breaker.recordSuccess();
  // Recovery: a half-open probe success closed the breaker. The lookup
  // cache still pins this server's chunks to the replicas that covered for
  // it while it was sick — without eviction the recovered server never sees
  // traffic again (every lookup is a cache hit on the failover replica).
  if (!wasClosed &&
      breaker.state() == util::CircuitBreaker::State::kClosed) {
    evictForeignPinsLocked(serverId);
  }
}

util::CircuitBreaker::State Redirector::reportProbe(
    const std::string& serverId, bool ok) {
  std::lock_guard lock(mutex_);
  util::CircuitBreaker& breaker = breakerFor(serverId);
  util::CircuitBreaker::State before = breaker.state();
  if (before == util::CircuitBreaker::State::kClosed) {
    ok ? breaker.recordSuccess() : breaker.recordFailure();
  } else if (breaker.allowRequest()) {
    // The cooldown elapsed: this probe occupies the half-open slot and its
    // outcome closes or reopens the breaker.
    ok ? breaker.recordSuccess() : breaker.recordFailure();
    if (ok) evictForeignPinsLocked(serverId);
  }
  // Inside the open cooldown the probe outcome is dropped: the breaker's
  // own schedule decides when the server gets another chance.
  return breaker.state();
}

void Redirector::setServerHealth(const std::string& serverId, bool healthy) {
  std::lock_guard lock(mutex_);
  if (healthy) {
    if (quarantined_.erase(serverId) > 0) {
      evictForeignPinsLocked(serverId);
    }
  } else {
    quarantined_.insert(serverId);
    std::erase_if(cache_, [&](const auto& kv) {
      return kv.second->id() == serverId;
    });
  }
}

bool Redirector::isQuarantined(const std::string& serverId) const {
  std::lock_guard lock(mutex_);
  return quarantined_.contains(serverId);
}

void Redirector::refreshExports(const std::string& serverId) {
  std::lock_guard lock(mutex_);
  auto it = servers_.find(serverId);
  if (it == servers_.end()) return;
  DataServerPtr server = it->second;
  std::vector<std::int32_t> exports = server->exportedChunks();
  std::sort(exports.begin(), exports.end());
  // Add the server to newly exported chunks' replica lists.
  for (std::int32_t chunk : exports) {
    auto& replicas = chunkMap_[chunk];
    bool present =
        std::any_of(replicas.begin(), replicas.end(),
                    [&](const auto& s) { return s->id() == serverId; });
    if (!present) replicas.push_back(server);
  }
  // Remove it from chunks it no longer exports, evicting stale cache pins.
  for (auto& [chunk, replicas] : chunkMap_) {
    if (std::binary_search(exports.begin(), exports.end(), chunk)) continue;
    auto before = replicas.size();
    std::erase_if(replicas,
                  [&](const auto& s) { return s->id() == serverId; });
    if (replicas.size() != before) {
      auto cached = cache_.find(chunk);
      if (cached != cache_.end() && cached->second->id() == serverId) {
        cache_.erase(cached);
      }
    }
  }
  RedirectorMetrics::instance().exportRefreshes.add();
}

std::map<std::int32_t, std::vector<std::string>>
Redirector::placementSnapshot() const {
  std::lock_guard lock(mutex_);
  std::map<std::int32_t, std::vector<std::string>> out;
  for (const auto& [chunk, replicas] : chunkMap_) {
    auto& ids = out[chunk];
    ids.reserve(replicas.size());
    for (const auto& s : replicas) ids.push_back(s->id());
    std::sort(ids.begin(), ids.end());
  }
  return out;
}

util::CircuitBreaker::State Redirector::breakerState(
    const std::string& serverId) const {
  std::lock_guard lock(mutex_);
  auto it = breakers_.find(serverId);
  if (it == breakers_.end()) return util::CircuitBreaker::State::kClosed;
  return it->second->state();
}

std::vector<DataServerPtr> Redirector::replicasOf(std::int32_t chunkId) const {
  std::lock_guard lock(mutex_);
  auto it = chunkMap_.find(chunkId);
  if (it == chunkMap_.end()) return {};
  std::vector<DataServerPtr> out;
  for (const auto& s : it->second) {
    if (s->isUp()) out.push_back(s);
  }
  return out;
}

std::vector<std::string> Redirector::serverIds() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(servers_.size());
  for (const auto& [id, _] : servers_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace qserv::xrd
