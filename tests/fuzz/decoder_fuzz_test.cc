/// \file decoder_fuzz_test.cc
/// \brief Seeded mutational fuzzing of the decoders that read another
/// component's bytes: the chunk-result row codec, batch result frames, batch
/// request envelopes, the observables block and the MD5 integrity trailer,
/// plus the worker's one chunk-query entry point (a /batch write).
///
/// Inputs start from valid encodings and are mutated by bit flips,
/// truncation, splices of two inputs, inserted bytes, and huge values
/// written over 4- and 8-byte fields (declared row counts, string lengths).
/// Every input must come back as a Status (or nullopt), never crash, and the
/// row decoder must never allocate more than the input's bytes can back.
///
/// Iterations per decoder come from QSERV_FUZZ_ITERATIONS (default 2,000, a
/// smoke run); the `fuzz` ctest label runs 100,000.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "qserv/batch_codec.h"
#include "qserv/dump_integrity.h"
#include "qserv/merger.h"
#include "qserv/observables_codec.h"
#include "qserv/worker.h"
#include "sql/rowcodec.h"
#include "util/md5.h"
#include "util/rng.h"
#include "util/trace.h"
#include "xrd/paths.h"

namespace {
// Largest single allocation while watching (see AllocationWatch).
std::atomic<bool> gWatching{false};
std::atomic<std::size_t> gLargest{0};
}  // namespace

// Replaceable global allocation functions: record the largest request made
// while a decoder runs, so a reserve sized from a declared count shows up
// even when the allocation happens to succeed. They are malloc/free based
// throughout, which GCC cannot see across inlining.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (gWatching.load(std::memory_order_relaxed)) {
    std::size_t seen = gLargest.load(std::memory_order_relaxed);
    while (n > seen && !gLargest.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace qserv {
namespace {

/// Scoped watermark of the largest allocation made inside it.
class AllocationWatch {
 public:
  AllocationWatch() {
    gLargest.store(0);
    gWatching.store(true);
  }
  ~AllocationWatch() { gWatching.store(false); }
  std::size_t largest() const { return gLargest.load(); }
};

/// What a decoder may allocate for an input of \p n bytes: buffers and
/// vectors proportional to the input (a column costs >= 3 header bytes but
/// ~150 bytes of bookkeeping), never a count read from the input itself.
std::size_t allocationBound(std::size_t n) { return 128 * n + 65536; }

int iterations() {
  const char* env = std::getenv("QSERV_FUZZ_ITERATIONS");
  int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 2000;
}

void putLe(std::string& s, std::size_t at, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes && at + i < s.size(); ++i) {
    s[at + i] = static_cast<char>(v >> (8 * i));
  }
}

std::string mutate(util::Rng& rng, const std::vector<std::string>& corpus) {
  std::string s = corpus[rng.below(corpus.size())];
  const int rounds = 1 + static_cast<int>(rng.below(3));
  for (int round = 0; round < rounds; ++round) {
    switch (rng.below(6)) {
      case 0:  // bit flips
        for (int i = 1 + static_cast<int>(rng.below(8)); i > 0 && !s.empty();
             --i) {
          s[rng.below(s.size())] ^= static_cast<char>(1u << rng.below(8));
        }
        break;
      case 1:  // truncation
        s.resize(rng.below(s.size() + 1));
        break;
      case 2: {  // splice: a prefix of this input, a suffix of another
        const std::string& other = corpus[rng.below(corpus.size())];
        s = s.substr(0, rng.below(s.size() + 1)) +
            other.substr(rng.below(other.size() + 1));
        break;
      }
      case 3: {  // a huge 8-byte count
        static const std::uint64_t kHuge[] = {
            std::numeric_limits<std::uint64_t>::max(), 1ull << 62,
            1ull << 40, 0xffffffffull, 1ull << 20};
        if (!s.empty()) {
          putLe(s, rng.below(s.size()), kHuge[rng.below(5)], 8);
        }
        break;
      }
      case 4: {  // a huge 4- or 2-byte length
        if (!s.empty()) {
          bool wide = rng.below(2) == 0;
          putLe(s, rng.below(s.size()), wide ? 0xffffffffu : 0xffffu,
                wide ? 4 : 2);
        }
        break;
      }
      case 5: {  // inserted random bytes
        std::string bytes(rng.below(16), '\0');
        for (char& c : bytes) c = static_cast<char>(rng.below(256));
        s.insert(rng.below(s.size() + 1), bytes);
        break;
      }
    }
  }
  return s;
}

sql::Table sampleTable(util::Rng& rng, std::size_t rows) {
  sql::Table t("sample", sql::Schema({{"id", sql::ColumnType::kInt},
                                      {"flux", sql::ColumnType::kDouble},
                                      {"name", sql::ColumnType::kString}}));
  const double doubles[] = {std::numeric_limits<double>::quiet_NaN(), -0.0,
                            1.5, -1e308, 5e-324};
  const std::int64_t ints[] = {std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max(), 0,
                               42};
  const char* strings[] = {"", "it's", "back\\slash", "QBN2"};
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<sql::Value> row = {
        rng.below(5) == 0 ? sql::Value::null() : sql::Value(ints[rng.below(4)]),
        rng.below(5) == 0 ? sql::Value::null()
                          : sql::Value(doubles[rng.below(5)]),
        rng.below(5) == 0 ? sql::Value::null()
                          : sql::Value(std::string(strings[rng.below(4)]))};
    EXPECT_TRUE(t.appendRow(row).isOk());
  }
  return t;
}

/// A worker-shaped chunk result body: row codec, then observables block.
std::string chunkBody(const sql::Table& t) {
  std::string out = sql::encodeTableBinary(t, "r_0123456789abcdef");
  simio::WorkObservables obs;
  obs.bytesScanned = 1024;
  obs.rowsExamined = t.numRows();
  obs.resultBytes = 512;
  obs.resultRows = t.numRows();
  out += core::encodeObservables(obs);
  return out;
}

/// A worker-shaped chunk result: the body sealed with its MD5 trailer.
std::string chunkResult(const sql::Table& t) {
  std::string out = chunkBody(t);
  core::appendDumpChecksum(out);
  return out;
}

/// The worker block a traced chunk of \p t carries.
core::WorkerTimings sampleTimings(const sql::Table& t) {
  core::WorkerTimings w;
  w.threadId = 7;
  w.arrivedUs = 1000;
  w.claimedUs = 1500;
  w.execStartUs = 1600;
  w.buildEndUs = 1700;
  w.execEndUs = 2500;
  w.resultRows = t.numRows();
  w.subchunks = 3;
  w.counters.vectorizedScans = 1;
  w.counters.zoneJoinPairsPruned = 1ull << 40;
  return w;
}

/// A traced chunk's body: table, observables, then the worker block.
std::string tracedChunkBody(const sql::Table& t) {
  std::string out = chunkBody(t);
  core::appendWorkerBlock(out, sampleTimings(t));
  return out;
}

std::vector<std::string> resultCorpus() {
  util::Rng rng(11);
  std::vector<std::string> corpus;
  for (std::size_t rows : {0, 1, 3, 17, 64}) {
    sql::Table t = sampleTable(rng, rows);
    corpus.push_back(sql::encodeTableBinary(t, "t"));
    corpus.push_back(chunkResult(t));
  }
  sql::Table wide("wide", sql::Schema({{"a", sql::ColumnType::kDouble},
                                       {"b", sql::ColumnType::kDouble},
                                       {"c", sql::ColumnType::kInt},
                                       {"d", sql::ColumnType::kString},
                                       {"e", sql::ColumnType::kInt}}));
  for (int r = 0; r < 20; ++r) {
    EXPECT_TRUE(wide.appendRow(std::vector<sql::Value>{
                                   sql::Value(r * 0.5), sql::Value::null(),
                                   sql::Value(r), sql::Value("row"),
                                   sql::Value(-r)})
                    .isOk());
  }
  corpus.push_back(chunkResult(wide));
  return corpus;
}

TEST(DecoderFuzz, RowCodecReturnsStatusAndBoundsAllocation) {
  std::vector<std::string> corpus = resultCorpus();
  util::Rng rng(0xF0221);
  sql::Schema destSchema({{"id", sql::ColumnType::kInt},
                          {"flux", sql::ColumnType::kDouble},
                          {"name", sql::ColumnType::kString}});
  int decoded = 0;
  for (int i = 0, n = iterations(); i < n; ++i) {
    std::string input = mutate(rng, corpus);
    std::size_t largest = 0;
    util::Result<sql::TablePtr> table = util::Status::internal("unset");
    {
      AllocationWatch watch;
      table = sql::decodeTableBinary(input);
      largest = watch.largest();
    }
    ASSERT_LE(largest, allocationBound(input.size())) << "iteration " << i;
    if (table.isOk()) {
      ++decoded;
      const sql::Table& t = **table;
      for (std::size_t c = 0; c < t.numColumns(); ++c) {
        ASSERT_EQ(t.nullMask(c).size(), t.numRows());
      }
    }
    // Appending is all-or-nothing: a rejected input leaves dest untouched.
    sql::Table dest("dest", destSchema);
    ASSERT_TRUE(dest.appendRow(std::vector<sql::Value>{
                                   sql::Value(1), sql::Value(2.0),
                                   sql::Value("x")})
                    .isOk());
    util::Status appended = util::Status::ok();
    {
      AllocationWatch watch;
      appended = sql::appendTableBinary(input, dest);
      ASSERT_LE(watch.largest(), allocationBound(input.size()) +
                                     allocationBound(0))
          << "iteration " << i;
    }
    if (!appended.isOk()) {
      ASSERT_EQ(dest.numRows(), 1u) << "iteration " << i;
    }
  }
  // The mutations leave some inputs decodable (e.g. trailer damage only).
  EXPECT_GT(decoded, 0);
}

TEST(DecoderFuzz, ResealedResultsReturnStatus) {
  // Damage under a valid trailer gets past the MD5 check, so the czar's
  // verify-and-decode step must still refuse it without crashing: a table
  // that does not end exactly where the observables line begins fails.
  util::Rng tables(11);
  std::vector<std::string> corpus;
  for (std::size_t rows : {0, 1, 3, 17, 64}) {
    corpus.push_back(chunkBody(sampleTable(tables, rows)));
  }
  util::Rng rng(0xF0225);
  int decoded = 0;
  for (int i = 0, n = iterations(); i < n; ++i) {
    std::string input = mutate(rng, corpus);
    core::appendDumpChecksum(input);
    util::Result<core::VerifiedResult> result = util::Status::internal("unset");
    {
      AllocationWatch watch;
      result = core::VerifiedResult::decode(input);
      ASSERT_LE(watch.largest(), allocationBound(input.size()))
          << "iteration " << i;
    }
    if (!result.isOk()) {
      ASSERT_EQ(result.status().code(), util::ErrorCode::kInvalidArgument)
          << "iteration " << i;
      continue;
    }
    ++decoded;
    ASSERT_NE(result->table(), nullptr);
    ASSERT_EQ(result->payloadBytes(), input.size());
  }
  EXPECT_GT(decoded, 0);
}

TEST(DecoderFuzz, HugeDeclaredCountsAreRejectedWithoutAllocating) {
  util::Rng rng(3);
  sql::Table t = sampleTable(rng, 4);
  const std::string good = sql::encodeTableBinary(t, "t");
  // Offset of nrows: magic, name, ncols, then per column type + name.
  std::size_t rowsAt = sql::kRowCodecMagic.size() + 2 + 1 + 2;
  for (const auto& col : t.schema().columns()) rowsAt += 3 + col.name.size();
  for (std::uint64_t rows : {std::numeric_limits<std::uint64_t>::max(),
                             std::uint64_t{1} << 62, std::uint64_t{1} << 40,
                             std::uint64_t{5}}) {
    std::string bad = good;
    putLe(bad, rowsAt, rows, 8);
    AllocationWatch watch;
    EXPECT_FALSE(sql::decodeTableBinary(bad).isOk()) << rows;
    EXPECT_LE(watch.largest(), allocationBound(bad.size())) << rows;
  }
  // A string length that runs past the end.
  std::string bad = good;
  std::size_t lenAt = bad.rfind(std::string("\x04\0\0\0", 4));
  ASSERT_NE(lenAt, std::string::npos);
  putLe(bad, lenAt, 0xffffffffu, 4);
  AllocationWatch watch;
  EXPECT_FALSE(sql::decodeTableBinary(bad).isOk());
  EXPECT_LE(watch.largest(), allocationBound(bad.size()));
}

TEST(DecoderFuzz, ResultFrameReturnsStatus) {
  std::vector<std::string> corpus;
  for (const std::string& body : resultCorpus()) {
    corpus.push_back(core::encodeResultFrame(7, body));
  }
  // Traced chunks: the worker block between the observables and the
  // trailer.
  util::Rng tables(13);
  for (std::size_t rows : {0, 2, 9}) {
    std::string body = tracedChunkBody(sampleTable(tables, rows));
    core::appendDumpChecksum(body);
    corpus.push_back(core::encodeResultFrame(8, body));
  }
  corpus.push_back(core::encodeErrorFrame(
      9, util::Status::unavailable("worker going down")));
  corpus.push_back(core::encodeErrorFrame(1, util::Status::dataLoss("")));
  util::Rng rng(0xF0222);
  int tracedOk = 0;
  for (int i = 0, n = iterations(); i < n; ++i) {
    std::string input = mutate(rng, corpus);
    auto frame = core::decodeResultFrame(input);
    if (!frame.isOk()) {
      EXPECT_EQ(frame.status().code(), util::ErrorCode::kDataLoss);
      continue;
    }
    ASSERT_LE(frame->body.size(), input.size());
    // An error frame never decodes to OK.
    if (!frame->status.isOk()) {
      ASSERT_LE(static_cast<int>(frame->status.code()),
                static_cast<int>(util::ErrorCode::kDataLoss));
      continue;
    }
    // A traced collector decodes the body with its worker block; damage
    // comes back as a Status. Half the bodies are resealed so the damage
    // gets past the trailer to the block decoder.
    std::string body = frame->body;
    const std::size_t trailer = core::dumpChecksumTrailer("").size();
    if (rng.below(2) == 0 && body.size() >= trailer) {
      body.resize(body.size() - trailer);  // drop the old trailer line
      core::appendDumpChecksum(body);
    }
    auto result = core::VerifiedResult::decode(body, /*traced=*/true);
    if (!result.isOk()) {
      ASSERT_TRUE(result.status().code() ==
                      util::ErrorCode::kInvalidArgument ||
                  result.status().code() == util::ErrorCode::kDataLoss)
          << "iteration " << i << ": " << result.status().toString();
      continue;
    }
    ++tracedOk;
    ASSERT_TRUE(result->workerTimings().has_value());
    const core::WorkerTimings& w = *result->workerTimings();
    ASSERT_LE(w.arrivedUs, w.claimedUs);
    ASSERT_LE(w.claimedUs, w.execStartUs);
    ASSERT_LE(w.execStartUs, w.buildEndUs);
    ASSERT_LE(w.buildEndUs, w.execEndUs);
  }
  EXPECT_GT(tracedOk, 0);
}

TEST(DecoderFuzz, DamagedWorkerBlockUnderValidTrailerIsRefused) {
  // Each lie on its own, resealed with a valid MD5 trailer so only the
  // worker-block decoder stands between it and a trace.
  util::Rng tables(17);
  const sql::Table t = sampleTable(tables, 5);
  const std::string good = tracedChunkBody(t);
  const std::size_t blockAt = good.size() - core::kWorkerBlockBytes;
  auto sealed = [](std::string body) {
    core::appendDumpChecksum(body);
    return body;
  };
  ASSERT_TRUE(core::VerifiedResult::decode(sealed(good), true).isOk());
  // Untraced decoding of a traced body is refused, not misread: the
  // worker block is not an observables block.
  EXPECT_FALSE(core::VerifiedResult::decode(sealed(good), false).isOk());

  std::vector<std::string> lies;
  // Truncated block: every cut through it.
  for (std::size_t cut : {std::size_t{1}, std::size_t{8}, std::size_t{100},
                          core::kWorkerBlockBytes}) {
    lies.push_back(good.substr(0, good.size() - cut));
  }
  // A lying length field.
  for (std::uint64_t len : {std::uint64_t{0}, std::uint64_t{167},
                            std::uint64_t{169}, std::uint64_t{0xffffffffu}}) {
    std::string bad = good;
    putLe(bad, blockAt + 4, len, 4);
    lies.push_back(bad);
  }
  // A damaged magic.
  {
    std::string bad = good;
    bad[blockAt] = 'X';
    lies.push_back(bad);
  }
  // Times negative or out of order, one field at a time: the first set
  // negative, each later one set before the time it follows.
  for (std::size_t field = 0; field < 5; ++field) {
    std::string bad = good;
    putLe(bad, blockAt + 16 + 8 * field, field == 0 ? ~std::uint64_t{0} : 1,
          8);
    lies.push_back(bad);
  }
  for (std::size_t i = 0; i < lies.size(); ++i) {
    auto result = core::VerifiedResult::decode(sealed(lies[i]), true);
    ASSERT_FALSE(result.isOk()) << "lie " << i;
    EXPECT_EQ(result.status().code(), util::ErrorCode::kInvalidArgument)
        << "lie " << i << ": " << result.status().toString();
  }
  // The bare block decoder says the same.
  std::string block = good.substr(blockAt);
  ASSERT_TRUE(core::decodeWorkerBlock(block).isOk());
  EXPECT_FALSE(core::decodeWorkerBlock(block.substr(1)).isOk());
  EXPECT_FALSE(core::decodeWorkerBlock(block + "x").isOk());
}

/// Batch envelopes to mutate: a per-subchunk join over three chunks, a
/// plain interactive lookup, and a template with no bindings.
std::vector<core::BatchRequest> envelopeRequests() {
  std::vector<core::BatchRequest> out(3);
  out[0].traceId = 42;
  out[0].streamWindow = 8;
  out[0].templateHash = util::Md5::hex("nn");
  out[0].query.sql =
      "SELECT COUNT(*) AS c FROM Object AS o1, Object AS o2 WHERE "
      "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1";
  out[0].query.bindings = {{0, core::TableBindingKind::kSubChunk},
                           {1, core::TableBindingKind::kFullOverlap}};
  out[0].query.aggregate = true;
  out[0].chunks = {{101, {1, 2, 3}}, {202, {4}}, {303, {}}};
  out[1].templateHash = util::Md5::hex("lv");
  out[1].query.sql = "SELECT * FROM Object AS Object WHERE objectId = 7";
  out[1].query.bindings = {{0, core::TableBindingKind::kChunk}};
  out[1].query.queryClass = core::QueryClass::kInteractive;
  out[1].chunks = {{5, {}}};
  out[2].streamWindow = 1;
  out[2].templateHash = util::Md5::hex("raw");
  out[2].query.sql = std::string("SELECT 1\0bin", 12);
  out[2].chunks = {{7, {}}};
  return out;
}

/// Byte offsets of the envelope's length and count fields, read off a valid
/// encoding of \p r (see batch_codec.h for the layout).
struct EnvelopeFields {
  std::size_t classByte = 12;
  std::size_t templateLength = 50;
  std::size_t bindingCount = 0;
  std::size_t chunkCount = 0;
  std::size_t firstSubchunkCount = 0;  ///< 0 when there are no chunks
};

EnvelopeFields fieldsOf(const core::BatchRequest& r) {
  EnvelopeFields f;
  f.bindingCount = f.templateLength + 4 + r.query.sql.size();
  f.chunkCount = f.bindingCount + 2 + 3 * r.query.bindings.size();
  if (!r.chunks.empty()) f.firstSubchunkCount = f.chunkCount + 4 + 4;
  return f;
}

/// The envelope mutator: generic byte damage half the time, otherwise a
/// structural lie written over one length, count or enum field.
std::string mutateEnvelope(util::Rng& rng,
                           const std::vector<core::BatchRequest>& requests) {
  const core::BatchRequest& r = requests[rng.below(requests.size())];
  std::string s = core::encodeBatchRequest(r);
  if (rng.below(2) == 0) return mutate(rng, {s});
  const EnvelopeFields f = fieldsOf(r);
  static const std::uint64_t kLies[] = {0xffffffffu, 0x7fffffffu, 1u << 20,
                                        65535, 2, 1, 0};
  std::uint64_t lie = kLies[rng.below(7)];
  switch (rng.below(5)) {
    case 0: putLe(s, f.classByte, 2 + rng.below(254), 1); break;
    case 1: putLe(s, f.templateLength, lie, 4); break;
    case 2: putLe(s, f.bindingCount, lie, 2); break;
    case 3: putLe(s, f.chunkCount, lie, 4); break;
    case 4:
      if (f.firstSubchunkCount != 0) putLe(s, f.firstSubchunkCount, lie, 4);
      break;
  }
  return s;
}

TEST(DecoderFuzz, BatchRequestReturnsStatus) {
  const std::vector<core::BatchRequest> requests = envelopeRequests();
  // Each structural lie on its own: a chunk count the remaining bytes
  // cannot hold, a template length past the end, a subchunk list that
  // overflows, an unknown class byte.
  for (const core::BatchRequest& r : requests) {
    const std::string good = core::encodeBatchRequest(r);
    const EnvelopeFields f = fieldsOf(r);
    std::vector<std::string> lies;
    for (std::uint64_t v : {std::uint64_t{0xffffffffu},
                            std::uint64_t{r.chunks.size() + 1}}) {
      std::string bad = good;
      putLe(bad, f.chunkCount, v, 4);
      lies.push_back(bad);
    }
    std::string bad = good;
    putLe(bad, f.templateLength, good.size(), 4);
    lies.push_back(bad);
    bad = good;
    putLe(bad, f.firstSubchunkCount, 0x40000000u, 4);
    lies.push_back(bad);
    bad = good;
    putLe(bad, f.classByte, 7, 1);
    lies.push_back(bad);
    for (const std::string& lie : lies) {
      AllocationWatch watch;
      auto decoded = core::decodeBatchRequest(lie);
      ASSERT_FALSE(decoded.isOk());
      EXPECT_EQ(decoded.status().code(), util::ErrorCode::kInvalidArgument);
      EXPECT_LE(watch.largest(), allocationBound(lie.size()));
    }
  }

  util::Rng rng(0xF0223);
  for (int i = 0, n = iterations(); i < n; ++i) {
    std::string input = mutateEnvelope(rng, requests);
    util::Result<core::BatchRequest> request = util::Status::internal("unset");
    {
      AllocationWatch watch;
      request = core::decodeBatchRequest(input);
      ASSERT_LE(watch.largest(), allocationBound(input.size()))
          << "iteration " << i;
    }
    if (!request.isOk()) {
      EXPECT_EQ(request.status().code(), util::ErrorCode::kInvalidArgument);
      continue;
    }
    std::size_t bytes = request->query.sql.size();
    for (const auto& c : request->chunks) bytes += 8 + 4 * c.subChunkIds.size();
    ASSERT_LE(bytes, input.size());
  }
}

TEST(DecoderFuzz, DumpChecksumReturnsStatus) {
  std::vector<std::string> corpus = resultCorpus();
  std::string snapshot =
      "-- qserv-chunk v1 5\n-- qserv-dump v1\nCREATE TABLE `Object_5` "
      "(objectId INT);\nINSERT INTO `Object_5` VALUES (1),(2);\n";
  core::appendDumpChecksum(snapshot);
  corpus.push_back(snapshot);
  const std::size_t trailerBytes = core::dumpChecksumTrailer("").size();
  util::Rng rng(0xF0225);
  int verified = 0;
  for (int i = 0, n = iterations(); i < n; ++i) {
    std::string input = mutate(rng, corpus);
    util::Status status = core::verifyDumpChecksum(input);
    if (!status.isOk()) {
      ASSERT_EQ(status.code(), util::ErrorCode::kDataLoss) << "iteration " << i;
      continue;
    }
    // Only a payload that really ends in its own trailer verifies.
    ++verified;
    ASSERT_GE(input.size(), trailerBytes);
    std::string_view content(input.data(), input.size() - trailerBytes);
    ASSERT_EQ(input.substr(content.size()), core::dumpChecksumTrailer(content))
        << "iteration " << i;
  }
  // Mutations that miss the payload (e.g. a truncation to full length)
  // leave some inputs intact.
  EXPECT_GT(verified, 0);
}

TEST(DecoderFuzz, WorkerBatchWriteReturnsStatus) {
  // Hostile batch envelopes straight into the worker's one chunk-query
  // entry point. The worker is paused and every accepted batch is abandoned
  // at once, so no task executes: this targets decoding, validation,
  // template parsing and enqueueing.
  const core::CatalogConfig catalog = core::CatalogConfig::lsst(18, 6, 0.05);
  const std::vector<std::int32_t> exported = {5, 7, 101, 202, 303};
  const std::vector<core::BatchRequest> requests = envelopeRequests();
  util::Rng rng(0xF0226);
  const int n = iterations();
  constexpr int kPerWorker = 1000;
  for (int begin = 0; begin < n; begin += kPerWorker) {
    core::WorkerConfig config;
    config.slots = 1;
    config.startPaused = true;
    core::Worker worker("fuzz", std::make_shared<sql::Database>("fuzz"),
                        catalog, exported, config);
    for (int i = begin; i < std::min(n, begin + kPerWorker); ++i) {
      std::string input = mutateEnvelope(rng, requests);
      std::string batchId = util::Md5::hex(input);
      const std::size_t inputBytes = input.size();
      util::Status status = util::Status::internal("unset");
      {
        AllocationWatch watch;
        status =
            worker.writeFile(xrd::makeBatchPath(batchId), std::move(input));
        ASSERT_LE(watch.largest(), allocationBound(inputBytes))
            << "iteration " << i;
      }
      if (status.isOk()) {
        ASSERT_TRUE(
            worker.writeFile(xrd::makeBatchCancelPath(batchId), "").isOk());
        continue;
      }
      ASSERT_TRUE(status.code() == util::ErrorCode::kInvalidArgument ||
                  status.code() == util::ErrorCode::kNotFound)
          << "iteration " << i << ": " << status.toString();
    }
    worker.shutdown();
    EXPECT_EQ(worker.tasksExecuted(), 0u);
    EXPECT_EQ(worker.resultStreamsPending(), 0u);
  }
}

TEST(DecoderFuzz, ObservablesRejectDamageWithoutCrashing) {
  std::vector<std::string> corpus = resultCorpus();
  simio::WorkObservables obs;
  obs.bytesScanned = 1e12;
  obs.rowsExamined = 123456789;
  obs.pairsEvaluated = 5;
  obs.resultBytes = 3.5e6;
  corpus.push_back(core::encodeObservables(obs));
  corpus.push_back(core::encodeObservables(simio::WorkObservables{}));
  util::Rng rng(0xF0224);
  for (int i = 0, n = iterations(); i < n; ++i) {
    std::string input = mutate(rng, corpus);
    auto decoded = core::decodeObservables(input);
    if (!decoded.isOk()) {
      ASSERT_EQ(decoded.status().code(), util::ErrorCode::kInvalidArgument);
      continue;
    }
    ASSERT_EQ(input.size(), core::kObservablesBytes);
    ASSERT_TRUE(std::isfinite(decoded->bytesScanned) &&
                decoded->bytesScanned >= 0.0);
    ASSERT_TRUE(std::isfinite(decoded->resultBytes) &&
                decoded->resultBytes >= 0.0);
  }
  // Byte counts that would poison the cost model are refused outright, in
  // a bare block and inside a sealed frame body.
  const std::string good = core::encodeObservables(obs);
  for (std::size_t at : {std::size_t{0}, std::size_t{48}}) {
    for (double poison : {std::nan(""), -5.0, HUGE_VAL}) {
      std::string bad = good;
      putLe(bad, at, std::bit_cast<std::uint64_t>(poison), 8);
      EXPECT_FALSE(core::decodeObservables(bad).isOk()) << at << " " << poison;
      std::string body = sql::encodeTableBinary(sampleTable(rng, 2), "r") + bad;
      core::appendDumpChecksum(body);
      auto frame = core::decodeResultFrame(core::encodeResultFrame(3, body));
      ASSERT_TRUE(frame.isOk());
      auto result = core::VerifiedResult::decode(frame->body);
      ASSERT_FALSE(result.isOk());
      EXPECT_EQ(result.status().code(), util::ErrorCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace qserv
