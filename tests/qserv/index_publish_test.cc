/// \file index_publish_test.cc
/// \brief Ingest-while-serving for the secondary index: one thread keeps
/// publishing ObjectIndex batches while readers look up both old and
/// just-published objectIds. Every published id must resolve to its
/// location, and no index probe may return a row past the end of the table
/// snapshot it was published with (under ASan/_GLIBCXX_ASSERTIONS such a
/// probe would also abort in the cell read).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "qserv/secondary_index.h"
#include "util/rng.h"
#include "util/strings.h"

namespace qserv::core {
namespace {

datagen::SecondaryIndexEntry entryFor(std::int64_t id) {
  return {id, static_cast<std::int32_t>(id % 97),
          static_cast<std::int32_t>(id % 13)};
}

std::vector<datagen::SecondaryIndexEntry> entries(std::int64_t from,
                                                  std::int64_t to) {
  std::vector<datagen::SecondaryIndexEntry> out;
  for (std::int64_t id = from; id < to; ++id) out.push_back(entryFor(id));
  return out;
}

TEST(IndexPublishStress, ConcurrentLookupsResolveEveryPublishedId) {
  constexpr std::int64_t kBase = 2000;
  constexpr int kBatches = 200;
  constexpr std::int64_t kPerBatch = 50;
  constexpr int kReaders = 4;

  sql::Database db("metadata");
  SecondaryIndex index(db);
  ASSERT_TRUE(index.load(entries(0, kBase)).isOk());

  // Ids below `published` have been published (load returned).
  std::atomic<std::int64_t> published{kBase};
  std::atomic<bool> done{false};
  std::mutex failMutex;
  std::vector<std::string> failures;
  auto fail = [&](std::string what) {
    std::lock_guard lock(failMutex);
    if (failures.size() < 10) failures.push_back(std::move(what));
  };

  std::vector<std::thread> readers;
  std::atomic<std::int64_t> lookups{0};
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 1);
      while (!done.load(std::memory_order_acquire)) {
        std::int64_t hi = published.load(std::memory_order_acquire);
        // The newest id, an id from the initial load, one at random, and
        // two the writer may be publishing right now: those may resolve or
        // not, but never to a wrong location or a row past the table.
        std::vector<std::int64_t> ids = {hi - 1, rng.range(0, kBase - 1),
                                         rng.range(0, hi - 1), hi,
                                         hi + kPerBatch / 2};
        auto locs = index.lookup(ids);
        if (!locs.isOk()) {
          fail(locs.status().toString());
          continue;
        }
        for (std::int64_t id : ids) {
          bool found = false;
          for (const auto& loc : *locs) {
            if (loc.objectId != id) continue;
            found = true;
            auto want = entryFor(id);
            if (loc.chunkId != want.chunkId ||
                loc.subChunkId != want.subChunkId) {
              fail(util::format("id %lld at chunk %d/%d, want %d/%d",
                                static_cast<long long>(id), loc.chunkId,
                                loc.subChunkId, want.chunkId,
                                want.subChunkId));
            }
          }
          if (!found && id < hi) {
            fail(util::format("published id %lld did not resolve",
                              static_cast<long long>(id)));
          }
        }
        // The probe itself, against the snapshot it was published with.
        sql::TableSnapshot snap = db.snapshot(SecondaryIndex::kTableName);
        auto idx = snap.index("objectId");
        if (!idx) {
          fail("ObjectIndex lost its objectId index");
          continue;
        }
        auto rows = idx->lookupRange(sql::Value(hi - 1),
                                     sql::Value(hi + 2 * kPerBatch));
        if (rows.empty()) {
          fail(util::format("id %lld did not probe",
                            static_cast<long long>(hi - 1)));
        }
        for (std::size_t r : rows) {
          if (r >= snap.table->numRows()) {
            fail(util::format("probe row %zu past %zu table rows", r,
                              snap.table->numRows()));
          } else if (snap.table->cell(r, 0).asInt() < hi - 1) {
            fail(util::format("probe row %zu holds an id out of range", r));
          }
        }
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::int64_t next = kBase;
  for (int b = 0; b < kBatches; ++b) {
    auto status = index.load(entries(next, next + kPerBatch));
    if (!status.isOk()) {
      fail(status.toString());
      break;
    }
    next += kPerBatch;
    published.store(next, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_TRUE(failures.empty()) << util::join(failures, "\n");
  EXPECT_EQ(index.size(), static_cast<std::size_t>(next));
  EXPECT_GT(lookups.load(), 0);
  // Everything published is still reachable once the writer is quiet.
  auto all = index.lookup(std::vector<std::int64_t>{0, kBase, next - 1});
  ASSERT_TRUE(all.isOk());
  EXPECT_EQ(all->size(), 3u);
}

}  // namespace
}  // namespace qserv::core
