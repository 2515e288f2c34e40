#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "util/md5.h"
#include "xrd/client.h"
#include "xrd/data_server.h"
#include "xrd/file_store.h"
#include "xrd/paths.h"
#include "xrd/redirector.h"

namespace qserv::xrd {
namespace {

TEST(Paths, MakeAndParseChunkPath) {
  EXPECT_EQ(makeChunkPath(42), "/chunk/42");
  EXPECT_EQ(parseChunkPath("/chunk/42"), 42);
  EXPECT_EQ(parseChunkPath("/chunk/0"), 0);
  EXPECT_FALSE(parseChunkPath("/chunk/").has_value());
  EXPECT_FALSE(parseChunkPath("/chunk/abc").has_value());
  EXPECT_FALSE(parseChunkPath("/chunkload/42").has_value());
  EXPECT_FALSE(parseChunkPath("/chunk/99999999999").has_value());
}

TEST(Paths, MakeAndParseBatchPath) {
  std::string h = util::Md5::hex("SELECT 1");
  std::string p = makeBatchPath(h);
  EXPECT_EQ(p, "/batch/" + h);
  EXPECT_EQ(parseBatchPath(p), h);
  EXPECT_FALSE(parseBatchPath("/batch/short").has_value());
  EXPECT_FALSE(parseBatchPath("/batch/" + std::string(32, 'X')).has_value());
  EXPECT_FALSE(parseBatchPath(makeBatchStreamPath(h)).has_value());
}

TEST(FileStore, PublishThenGet) {
  FileStore fs;
  fs.publish("/bstream/aa", "payload");
  EXPECT_EQ(fs.tryGet("/bstream/aa"), "payload");
  EXPECT_FALSE(fs.tryGet("/bstream/bb").has_value());
  EXPECT_EQ(fs.size(), 1u);
  fs.remove("/bstream/aa");
  EXPECT_EQ(fs.size(), 0u);
}

TEST(FileStore, WaitBlocksUntilPublish) {
  FileStore fs;
  std::atomic<bool> published{false};
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    published = true;
    fs.publish("/bstream/x", "late");
  });
  auto r = fs.waitFor("/bstream/x", std::chrono::milliseconds(2000));
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_TRUE(published.load());
  EXPECT_EQ(*r, "late");
  writer.join();
}

TEST(FileStore, WaitTimesOut) {
  FileStore fs;
  auto r = fs.waitFor("/bstream/never", std::chrono::milliseconds(20));
  EXPECT_EQ(r.status().code(), util::ErrorCode::kUnavailable);
}

TEST(FileStore, AbortWakesWaiters) {
  FileStore fs;
  std::thread aborter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fs.abortAll();
  });
  auto r = fs.waitFor("/bstream/x", std::chrono::milliseconds(5000));
  EXPECT_EQ(r.status().code(), util::ErrorCode::kAborted);
  aborter.join();
}

TEST(FileStore, TwoReadersOfOnePathEachGetOneFrame) {
  // Identical batches from concurrent queries share a stream: each reader
  // consumes one frame, and a frame left after a read reaches the other.
  FileStore fs;
  std::vector<std::string> got(2);
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      auto r = fs.waitFor("/bstream/s", std::chrono::milliseconds(5000));
      got[i] = r.isOk() ? *r : r.status().toString();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fs.publish("/bstream/s", "a");
  fs.publish("/bstream/s", "b");
  for (auto& t : readers) t.join();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(fs.size(), 0u);
}

TEST(FileStore, PublishOnOtherPathDoesNotSatisfyWaiter) {
  FileStore fs;
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    fs.publish("/bstream/a", "for a");
  });
  auto r = fs.waitFor("/bstream/b", std::chrono::milliseconds(100));
  writer.join();
  EXPECT_EQ(r.status().code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(fs.tryGet("/bstream/a"), "for a");
  EXPECT_EQ(fs.size(), 1u);  // only paths holding frames count
}

TEST(FileStore, RemoveReleasesWindowBlockedPublisher) {
  FileStore fs;
  fs.publish("/bstream/w", "1");
  fs.publish("/bstream/w", "2");
  auto start = std::chrono::steady_clock::now();
  std::thread remover([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fs.remove("/bstream/w");
  });
  // A window of 2 is full until the stream is dropped.
  EXPECT_TRUE(fs.awaitDrain("/bstream/w", 2, std::chrono::milliseconds(5000)));
  remover.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  EXPECT_EQ(fs.size(), 0u);
}

TEST(FileStore, AbortAllReleasesAllWaiters) {
  FileStore fs;
  fs.publish("/bstream/full", "frame");
  std::atomic<int> aborted{0};
  std::vector<std::thread> waiters;
  for (const char* path : {"/bstream/a", "/bstream/b"}) {
    waiters.emplace_back([&, path] {
      auto r = fs.waitFor(path, std::chrono::milliseconds(10000));
      if (r.status().code() == util::ErrorCode::kAborted) ++aborted;
    });
  }
  waiters.emplace_back([&] {
    if (!fs.awaitDrain("/bstream/full", 1, std::chrono::milliseconds(10000))) {
      ++aborted;
    }
  });
  auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fs.abortAll();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(aborted.load(), 3);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  // Later waits fail at once.
  EXPECT_EQ(fs.waitFor("/bstream/full").status().code(),
            util::ErrorCode::kAborted);
}

/// Test plugin: a write to /batch/<id> is answered at once by one frame on
/// /bstream/<id> echoing the payload.
class EchoPlugin : public OfsPlugin {
 public:
  explicit EchoPlugin(std::vector<std::int32_t> chunks)
      : chunks_(std::move(chunks)) {}

  util::Status writeFile(const std::string& path, std::string payload) override {
    auto batchId = parseBatchPath(path);
    if (!batchId) return util::Status::invalidArgument("bad path " + path);
    store_.publish(makeBatchStreamPath(*batchId), "echo:" + payload);
    return util::Status::ok();
  }

  util::Result<std::string> readFile(const std::string& path) override {
    return store_.waitFor(path, std::chrono::milliseconds(500));
  }

  std::vector<std::int32_t> exportedChunks() const override { return chunks_; }

 private:
  std::vector<std::int32_t> chunks_;
  FileStore store_;
};

DataServerPtr makeServer(const std::string& id,
                         std::vector<std::int32_t> chunks) {
  return std::make_shared<DataServer>(
      id, std::make_shared<EchoPlugin>(std::move(chunks)));
}

TEST(Redirector, RoutesChunksToExportingServer) {
  auto r = std::make_shared<Redirector>();
  r->registerServer(makeServer("w1", {1, 2, 3}));
  r->registerServer(makeServer("w2", {4, 5, 6}));
  auto s = r->locate(5);
  ASSERT_TRUE(s.isOk()) << s.status().toString();
  EXPECT_EQ((*s)->id(), "w2");
  auto s2 = r->locate(2);
  ASSERT_TRUE(s2.isOk());
  EXPECT_EQ((*s2)->id(), "w1");
}

TEST(Redirector, UnknownChunkIsNotFound) {
  auto r = std::make_shared<Redirector>();
  r->registerServer(makeServer("w1", {1}));
  EXPECT_EQ(r->locate(99).status().code(),
            util::ErrorCode::kNotFound);
}

TEST(Redirector, CachesLookups) {
  auto r = std::make_shared<Redirector>();
  r->registerServer(makeServer("w1", {1}));
  ASSERT_TRUE(r->locate(1).isOk());
  ASSERT_TRUE(r->locate(1).isOk());
  ASSERT_TRUE(r->locate(1).isOk());
  EXPECT_EQ(r->lookups(), 3u);
  EXPECT_EQ(r->cacheHits(), 2u);
}

TEST(Redirector, ReplicationBalancesAcrossReplicas) {
  auto r = std::make_shared<Redirector>();
  r->registerServer(makeServer("w1", {7}));
  r->registerServer(makeServer("w2", {7}));
  EXPECT_EQ(r->replicasOf(7).size(), 2u);
}

TEST(Redirector, FailoverToLiveReplica) {
  auto r = std::make_shared<Redirector>();
  auto w1 = makeServer("w1", {7});
  auto w2 = makeServer("w2", {7});
  r->registerServer(w1);
  r->registerServer(w2);
  auto first = r->locate(7);
  ASSERT_TRUE(first.isOk());
  // Kill the located server; the next lookup must return the other.
  (*first)->setUp(false);
  auto second = r->locate(7);
  ASSERT_TRUE(second.isOk()) << second.status().toString();
  EXPECT_NE((*second)->id(), (*first)->id());
  EXPECT_TRUE((*second)->isUp());
}

TEST(Redirector, AllReplicasDownIsUnavailable) {
  auto r = std::make_shared<Redirector>();
  auto w1 = makeServer("w1", {7});
  r->registerServer(w1);
  w1->setUp(false);
  EXPECT_EQ(r->locate(7).status().code(),
            util::ErrorCode::kUnavailable);
}

TEST(Redirector, ExcludeSetSkipsNamedReplicas) {
  auto r = std::make_shared<Redirector>();
  r->registerServer(makeServer("w1", {7}));
  r->registerServer(makeServer("w2", {7}));
  std::vector<std::string> exclude{"w1"};
  for (int i = 0; i < 4; ++i) {
    auto s = r->locate(7, exclude);
    ASSERT_TRUE(s.isOk()) << s.status().toString();
    EXPECT_EQ((*s)->id(), "w2");
  }
}

TEST(Redirector, AllLiveReplicasExcludedIsUnavailable) {
  auto r = std::make_shared<Redirector>();
  r->registerServer(makeServer("w1", {7}));
  std::vector<std::string> exclude{"w1"};
  auto s = r->locate(7, exclude);
  EXPECT_EQ(s.status().code(), util::ErrorCode::kUnavailable);
  EXPECT_NE(s.status().message().find("already failed"), std::string::npos);
}

// Regression: an up-but-erroring replica used to be pinned in the lookup
// cache forever — every retry of the chunk re-read the very server that had
// just failed. reportFailure() must evict the cache entry so the next
// lookup can re-balance onto a sibling replica.
TEST(Redirector, FailureEvictsPinnedCacheEntry) {
  auto r = std::make_shared<Redirector>();
  r->registerServer(makeServer("w1", {7}));
  r->registerServer(makeServer("w2", {7}));
  auto first = r->locate(7);
  ASSERT_TRUE(first.isOk());
  const std::string failed = (*first)->id();
  // The failing server stays up (sick-but-up). Report the failure...
  r->reportFailure(7, failed);
  // ...and the retry, which excludes it, must reach the other replica
  // instead of the cached one.
  std::vector<std::string> exclude{failed};
  auto second = r->locate(7, exclude);
  ASSERT_TRUE(second.isOk()) << second.status().toString();
  EXPECT_NE((*second)->id(), failed);
}

TEST(Redirector, BreakerSteersAwayFromSickServer) {
  util::CircuitBreakerPolicy policy;
  policy.windowSize = 4;
  policy.minSamples = 4;
  policy.openErrorRate = 0.5;
  auto r = std::make_shared<Redirector>(policy);
  r->registerServer(makeServer("w1", {7}));
  r->registerServer(makeServer("w2", {7}));
  // w1 fails repeatedly; its breaker opens.
  for (int i = 0; i < 4; ++i) r->reportFailure(7, "w1");
  EXPECT_EQ(r->breakerState("w1"), util::CircuitBreaker::State::kOpen);
  // Lookups (no exclude set — a fresh query) now avoid w1 entirely.
  for (int i = 0; i < 6; ++i) {
    auto s = r->locate(7);
    ASSERT_TRUE(s.isOk());
    EXPECT_EQ((*s)->id(), "w2");
  }
}

TEST(Redirector, BreakerOpenOnSoleReplicaStillServesDegraded) {
  util::CircuitBreakerPolicy policy;
  policy.windowSize = 4;
  policy.minSamples = 4;
  auto r = std::make_shared<Redirector>(policy);
  r->registerServer(makeServer("w1", {7}));
  for (int i = 0; i < 4; ++i) r->reportFailure(7, "w1");
  ASSERT_EQ(r->breakerState("w1"), util::CircuitBreaker::State::kOpen);
  // Breakers must not self-inflict a total outage: with no healthy replica
  // left the open one is still returned (as a probe).
  auto s = r->locate(7);
  ASSERT_TRUE(s.isOk()) << s.status().toString();
  EXPECT_EQ((*s)->id(), "w1");
}

TEST(Redirector, DeregisterRemovesServer) {
  auto r = std::make_shared<Redirector>();
  r->registerServer(makeServer("w1", {1}));
  ASSERT_TRUE(r->locate(1).isOk());
  r->deregisterServer("w1");
  EXPECT_FALSE(r->findServer("w1"));
  EXPECT_EQ(r->locate(1).status().code(),
            util::ErrorCode::kNotFound);
}

TEST(DataServer, DownServerRefusesTransactions) {
  auto s = makeServer("w1", {1});
  s->setUp(false);
  std::string id(32, 'a');
  EXPECT_EQ(s->write(makeBatchPath(id), "q").code(),
            util::ErrorCode::kUnavailable);
  EXPECT_EQ(s->read(makeBatchStreamPath(id)).status().code(),
            util::ErrorCode::kUnavailable);
}

TEST(DataServer, AccountsTransferredBytes) {
  auto s = makeServer("w1", {1});
  std::string id = util::Md5::hex("0123456789");
  ASSERT_TRUE(s->write(makeBatchPath(id), "0123456789").isOk());
  EXPECT_EQ(s->bytesWritten(), 10u);
  auto r = s->read(makeBatchStreamPath(id));
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ(s->bytesRead(), r->size());
}

TEST(Client, TwoTransactionRoundTrip) {
  auto redirector = std::make_shared<Redirector>();
  redirector->registerServer(makeServer("w1", {10, 11}));
  redirector->registerServer(makeServer("w2", {20, 21}));
  XrdClient client(redirector);

  std::string query = "SELECT COUNT(*) FROM Object_20;";
  auto server = redirector->locate(20);
  ASSERT_TRUE(server.isOk()) << server.status().toString();
  EXPECT_EQ((*server)->id(), "w2");
  std::string batchId = util::Md5::hex(query);
  ASSERT_TRUE(client.writeBatch("w2", batchId, query).isOk());

  auto result = client.readBatchFrame("w2", batchId);
  ASSERT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_EQ(*result, "echo:" + query);
}

TEST(Client, WriteToMissingChunkFails) {
  auto redirector = std::make_shared<Redirector>();
  redirector->registerServer(makeServer("w1", {1}));
  XrdClient client(redirector);
  // No server exports chunk 999, so no batch can be addressed to it.
  EXPECT_FALSE(redirector->locate(999).isOk());
  EXPECT_EQ(client.writeBatch("ghost", std::string(32, 'a'), "q").code(),
            util::ErrorCode::kNotFound);
}

TEST(Client, ReadFromUnknownServerFails) {
  auto redirector = std::make_shared<Redirector>();
  XrdClient client(redirector);
  EXPECT_EQ(
      client.readBatchFrame("ghost", std::string(32, 'a')).status().code(),
      util::ErrorCode::kNotFound);
}

TEST(Client, ConcurrentWritesAcrossWorkers) {
  auto redirector = std::make_shared<Redirector>();
  for (int w = 0; w < 8; ++w) {
    std::vector<std::int32_t> chunks;
    for (int c = w * 10; c < w * 10 + 10; ++c) chunks.push_back(c);
    redirector->registerServer(makeServer("w" + std::to_string(w), chunks));
  }
  XrdClient client(redirector);
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int c = t * 10; c < t * 10 + 10; ++c) {
        std::string q = "SELECT " + std::to_string(c);
        auto server = redirector->locate(c);
        if (!server.isOk()) continue;
        std::string batchId = util::Md5::hex(q);
        if (!client.writeBatch((*server)->id(), batchId, q).isOk()) continue;
        auto res = client.readBatchFrame((*server)->id(), batchId);
        if (res.isOk() && *res == "echo:" + q) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 80);
}

}  // namespace
}  // namespace qserv::xrd
