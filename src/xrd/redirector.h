/// \file redirector.h
/// \brief The Scalla/Xrootd redirector: a caching namespace lookup service.
///
/// "A client connects to a redirector, which acts as a caching namespace
/// look-up service that redirects clients to appropriate data servers"
/// (paper §5.1.2). A chunk id resolves to a live server whose plugin
/// exports that chunk; with replication, several servers export the
/// same chunk and the redirector balances among them and fails over when a
/// server goes down.
///
/// Failure handling (the czar "manages transient errors", §5.2):
/// - locate() takes an exclude set so a retry never re-reads the cached
///   replica that just failed;
/// - reportFailure() evicts the failed server from the lookup cache (an
///   up-but-erroring replica used to be pinned there forever) and feeds a
///   per-server circuit breaker;
/// - the breaker (error-rate window -> open -> half-open probe) steers
///   lookups away from sick-but-up servers, falling back to them only when
///   no healthy replica remains.
///
/// Live placement (the replication control plane): the repair controller
/// quarantines servers it has declared down (setServerHealth) — they are
/// skipped like breaker-open servers, with the same degraded fallback — and
/// publishes placement changes through refreshExports(), which re-syncs a
/// server's chunk map entries from its plugin's current export list and
/// evicts stale cache pins. Both take effect atomically under the
/// redirector's lock: in-flight queries keep the replica they already
/// resolved, new lookups see the new placement.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/circuit_breaker.h"
#include "xrd/data_server.h"

namespace qserv::xrd {

class Redirector {
 public:
  explicit Redirector(util::CircuitBreakerPolicy breakerPolicy = {})
      : breakerPolicy_(breakerPolicy) {}

  /// Register \p server and index its exported chunks.
  void registerServer(DataServerPtr server);

  /// Remove \p serverId from the cluster entirely.
  void deregisterServer(const std::string& serverId);

  /// Server by id (batch writes and stream reads go to it directly), or
  /// nullptr.
  DataServerPtr findServer(const std::string& serverId) const;

  /// Resolve \p chunkId to a live server exporting that chunk, never one
  /// named in \p exclude (the replicas that already failed this
  /// chunk query). Successive lookups of the same chunk hit an internal
  /// cache; a cached server that has gone down, failed, or is excluded is
  /// skipped and another replica chosen. Servers whose circuit breaker is
  /// open are avoided while a healthy replica exists.
  util::Result<DataServerPtr> locate(
      std::int32_t chunkId, std::span<const std::string> exclude = {});

  /// Record that \p serverId failed a transaction for \p chunkId: evicts the
  /// cached chunk->server mapping (so the next lookup re-balances) and feeds
  /// the server's circuit breaker.
  void reportFailure(std::int32_t chunkId, const std::string& serverId);

  /// Record a successful transaction on \p serverId (closes a half-open
  /// breaker, keeps the error-rate window honest). When the success closes
  /// a non-closed breaker (the server recovered), cache entries pinning the
  /// server's chunks to *other* replicas are evicted so traffic rebalances
  /// back to it instead of staying pinned to the failover replica forever.
  void reportSuccess(const std::string& serverId);

  /// Feed a health-probe outcome into \p serverId's breaker, honoring the
  /// breaker's own gating: an open breaker inside its cooldown ignores the
  /// probe (the window stays honest), a probe through a half-open breaker
  /// closes or reopens it, and a closed breaker records normally. Returns
  /// the breaker state after the report.
  util::CircuitBreaker::State reportProbe(const std::string& serverId,
                                          bool ok);

  /// Administrative health override (the repair controller's down/up
  /// verdict). Unhealthy servers are skipped by locate() like breaker-open
  /// ones — with the same degraded fallback, so an operator mistake cannot
  /// self-inflict an outage — and their cache pins are evicted immediately.
  /// Marking a server healthy again also evicts other-replica pins of its
  /// chunks so it starts receiving traffic.
  void setServerHealth(const std::string& serverId, bool healthy);

  /// True when setServerHealth(serverId, false) is in effect.
  bool isQuarantined(const std::string& serverId) const;

  /// Re-sync \p serverId's chunk-map entries from its plugin's current
  /// exportedChunks() — the live-placement publish point after a replica is
  /// installed (repair, rebalance, ingest) or dropped. Stale cache pins on
  /// dropped chunks are evicted. No-op for unknown servers.
  void refreshExports(const std::string& serverId);

  /// Registered replica placement: chunkId -> server ids (sorted), whether
  /// the servers are currently up or not. The repair controller diffs this
  /// against its own health view to find replication deficits.
  std::map<std::int32_t, std::vector<std::string>> placementSnapshot() const;

  /// The server's breaker state (kClosed when unknown).
  util::CircuitBreaker::State breakerState(const std::string& serverId) const;

  /// All live servers exporting \p chunkId (replicas).
  std::vector<DataServerPtr> replicasOf(std::int32_t chunkId) const;

  std::vector<std::string> serverIds() const;

  std::uint64_t lookups() const { return lookups_; }
  std::uint64_t cacheHits() const { return cacheHits_; }

 private:
  util::CircuitBreaker& breakerFor(const std::string& serverId);
  /// Evict cache entries for chunks \p serverId exports that pin a
  /// *different* server (call with mutex_ held). Returns evictions.
  std::size_t evictForeignPinsLocked(const std::string& serverId);

  const util::CircuitBreakerPolicy breakerPolicy_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, DataServerPtr> servers_;
  std::unordered_map<std::int32_t, std::vector<DataServerPtr>> chunkMap_;
  std::unordered_map<std::int32_t, DataServerPtr> cache_;
  std::unordered_map<std::int32_t, std::size_t> rrCounter_;
  /// Breakers are internally synchronized; the map itself is guarded by
  /// mutex_ and entries live for the registry's lifetime.
  std::unordered_map<std::string, std::unique_ptr<util::CircuitBreaker>>
      breakers_;
  /// Servers the control plane has declared down (setServerHealth).
  std::unordered_set<std::string> quarantined_;
  std::uint64_t lookups_ = 0;
  std::uint64_t cacheHits_ = 0;
};

using RedirectorPtr = std::shared_ptr<Redirector>;

}  // namespace qserv::xrd
