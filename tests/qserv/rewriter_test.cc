#include "qserv/query_rewriter.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace qserv::core {
namespace {

class RewriterTest : public ::testing::Test {
 protected:
  RewriterTest()
      : config_(CatalogConfig::lsst(18, 6)),
        chunker_(config_.makeChunker()),
        rewriter_(config_, chunker_) {}

  RewriteResult rewrite(std::string_view sql,
                        std::vector<std::int32_t> chunks) {
    auto analyzed = analyzeQuery(sql, config_);
    EXPECT_TRUE(analyzed.isOk()) << analyzed.status().toString();
    auto r = rewriter_.rewrite(*analyzed, chunks, "merged");
    EXPECT_TRUE(r.isOk()) << r.status().toString() << " for: " << sql;
    return std::move(r).value();
  }

  /// What a worker runs for chunk query \p i: the template bound to its
  /// chunk, or to each of its subchunks (one statement per subchunk).
  static std::string bound(const RewriteResult& r, std::size_t i) {
    auto plan = ChunkPlan::parse(r.chunkTemplate);
    EXPECT_TRUE(plan.isOk()) << plan.status().toString();
    if (!plan.isOk()) return {};
    const ChunkQuerySpec& spec = r.chunkQueries[i];
    if (!plan->perSubChunk()) return plan->boundSql(spec.chunkId) + ";\n";
    std::string text;
    for (std::int32_t sc : spec.subChunkIds) {
      text += plan->boundSql(spec.chunkId, sc) + ";\n";
    }
    return text;
  }

  CatalogConfig config_;
  sphgeom::Chunker chunker_;
  QueryRewriter rewriter_;
};

TEST_F(RewriterTest, TableRenamePerChunk) {
  auto r = rewrite("SELECT objectId FROM Object WHERE ra_PS > 3", {100, 101});
  ASSERT_EQ(r.chunkQueries.size(), 2u);
  EXPECT_NE(bound(r, 0).find("Object_100"), std::string::npos);
  EXPECT_NE(bound(r, 1).find("Object_101"), std::string::npos);
  // Rewritten chunk queries parse.
  for (std::size_t i = 0; i < r.chunkQueries.size(); ++i) {
    EXPECT_TRUE(sql::parseScript(bound(r, i)).isOk()) << bound(r, i);
  }
  // The template itself is written once and names the base table.
  EXPECT_EQ(r.chunkTemplate.bindings.size(), 1u);
  EXPECT_EQ(r.chunkTemplate.sql.find("Object_"), std::string::npos)
      << r.chunkTemplate.sql;
}

TEST_F(RewriterTest, AliasPreservesColumnResolution) {
  auto r = rewrite("SELECT Object.objectId FROM Object", {7});
  // The chunk table must be aliased back to the original binding name.
  EXPECT_NE(bound(r, 0).find("Object_7 AS Object"),
            std::string::npos)
      << bound(r, 0);
}

TEST_F(RewriterTest, PaperWorkedExample) {
  // §5.3: AVG -> SUM/COUNT per chunk; SUM(SUM)/SUM(COUNT) at the merge;
  // areaspec -> qserv_ptInSphericalBox on the partition columns.
  auto r = rewrite(
      "SELECT AVG(uFlux_SG) FROM Object "
      "WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04",
      {42});
  const std::string cq = bound(r, 0);
  EXPECT_NE(cq.find("SUM(uFlux_SG)"), std::string::npos) << cq;
  EXPECT_NE(cq.find("COUNT(uFlux_SG)"), std::string::npos) << cq;
  EXPECT_NE(cq.find("qserv_ptInSphericalBox(Object.ra_PS, Object.decl_PS"),
            std::string::npos)
      << cq;
  EXPECT_EQ(cq.find("areaspec"), std::string::npos) << cq;
  EXPECT_NE(cq.find("uRadius_PS"), std::string::npos);

  ASSERT_TRUE(r.merge.hasAggregation);
  const std::string& merge = r.merge.finalSelectSql;
  EXPECT_NE(merge.find("SUM(QS0_SUM)"), std::string::npos) << merge;
  EXPECT_NE(merge.find("SUM(QS0_COUNT)"), std::string::npos) << merge;
  EXPECT_NE(merge.find("FROM merged"), std::string::npos) << merge;
  EXPECT_NE(merge.find("/"), std::string::npos) << merge;
  EXPECT_TRUE(sql::parseStatement(merge).isOk()) << merge;
}

TEST_F(RewriterTest, CountSplitsIntoSumOfCounts) {
  auto r = rewrite("SELECT COUNT(*) FROM Object", {1});
  EXPECT_NE(bound(r, 0).find("COUNT(*) AS QS0_COUNT"),
            std::string::npos)
      << bound(r, 0);
  EXPECT_NE(r.merge.finalSelectSql.find("SUM(QS0_COUNT)"), std::string::npos);
}

TEST_F(RewriterTest, MinMaxPassThrough) {
  auto r = rewrite("SELECT MIN(ra_PS), MAX(ra_PS) FROM Object", {1});
  EXPECT_NE(bound(r, 0).find("MIN(ra_PS) AS QS0_MIN"),
            std::string::npos);
  EXPECT_NE(r.merge.finalSelectSql.find("MIN(QS0_MIN)"), std::string::npos);
  EXPECT_NE(r.merge.finalSelectSql.find("MAX(QS1_MAX)"), std::string::npos);
}

TEST_F(RewriterTest, GroupByPassthrough) {
  // HV3: group keys ship per chunk and re-group at the merge.
  auto r = rewrite(
      "SELECT count(*) AS n, AVG(ra_PS), chunkId FROM Object GROUP BY chunkId",
      {5});
  const std::string cq = bound(r, 0);
  EXPECT_NE(cq.find("GROUP BY chunkId"), std::string::npos) << cq;
  EXPECT_NE(cq.find("chunkId AS chunkId"), std::string::npos) << cq;
  const std::string& merge = r.merge.finalSelectSql;
  EXPECT_NE(merge.find("GROUP BY chunkId"), std::string::npos) << merge;
  EXPECT_NE(merge.find("AS n"), std::string::npos) << merge;
  EXPECT_TRUE(sql::parseStatement(merge).isOk()) << merge;
}

TEST_F(RewriterTest, HavingStaysOutOfChunkQueries) {
  auto r = rewrite(
      "SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId "
      "HAVING COUNT(*) > 100 AND AVG(ra_PS) < 180",
      {5});
  const std::string cq = bound(r, 0);
  // Chunk groups are partial: no HAVING worker-side, but the partials its
  // aggregates need are shipped.
  EXPECT_EQ(cq.find("HAVING"), std::string::npos) << cq;
  EXPECT_NE(cq.find("SUM(ra_PS)"), std::string::npos) << cq;
  const std::string& merge = r.merge.finalSelectSql;
  EXPECT_NE(merge.find("HAVING"), std::string::npos) << merge;
  EXPECT_NE(merge.find("SUM(QS"), std::string::npos) << merge;
  EXPECT_TRUE(sql::parseStatement(merge).isOk()) << merge;
}

TEST_F(RewriterTest, PlainGroupByIsMergedNotUnioned) {
  // GROUP BY without aggregates still needs merge-side re-grouping: the
  // same key appears in many chunks.
  auto r = rewrite("SELECT subChunkId FROM Object GROUP BY subChunkId", {5, 6});
  EXPECT_TRUE(r.merge.hasAggregation);
  EXPECT_NE(r.merge.finalSelectSql.find("GROUP BY subChunkId"),
            std::string::npos)
      << r.merge.finalSelectSql;
}

TEST_F(RewriterTest, NonAggregateMergeIsUnion) {
  auto r = rewrite("SELECT objectId, ra_PS FROM Object WHERE ra_PS > 1", {3});
  EXPECT_FALSE(r.merge.hasAggregation);
  EXPECT_EQ(r.merge.finalSelectSql, "SELECT * FROM merged");
}

TEST_F(RewriterTest, OrderByLimitMoveToMerge) {
  auto r = rewrite(
      "SELECT objectId FROM Object ORDER BY objectId DESC LIMIT 10", {3});
  // Chunk side: top-k optimization keeps ORDER BY + LIMIT.
  EXPECT_NE(bound(r, 0).find("LIMIT 10"), std::string::npos);
  EXPECT_NE(r.merge.finalSelectSql.find("ORDER BY objectId DESC"),
            std::string::npos);
  EXPECT_NE(r.merge.finalSelectSql.find("LIMIT 10"), std::string::npos);
}

TEST_F(RewriterTest, AggregateWithOrderByAliasAndLimit) {
  // Top-k must NOT push down to chunk queries for aggregates: the ORDER BY
  // references a merge-side alias and every group must be shipped.
  auto r = rewrite(
      "SELECT count(*) AS n, chunkId FROM Object GROUP BY chunkId "
      "ORDER BY n DESC LIMIT 5",
      {3});
  EXPECT_EQ(bound(r, 0).find("LIMIT"), std::string::npos)
      << bound(r, 0);
  EXPECT_EQ(bound(r, 0).find("ORDER"), std::string::npos);
  EXPECT_NE(r.merge.finalSelectSql.find("ORDER BY n DESC"), std::string::npos);
  EXPECT_NE(r.merge.finalSelectSql.find("LIMIT 5"), std::string::npos);
  EXPECT_TRUE(sql::parseStatement(r.merge.finalSelectSql).isOk());
}

TEST_F(RewriterTest, NearNeighborSubchunkStatements) {
  std::int32_t chunk = chunker_.chunkAt(2.0, 2.0);
  auto r = rewrite(
      "SELECT count(*) FROM Object o1, Object o2 "
      "WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
      {chunk});
  ASSERT_EQ(r.chunkQueries.size(), 1u);
  const auto& spec = r.chunkQueries[0];
  // All subchunks of the chunk are listed (no area restriction).
  EXPECT_EQ(spec.subChunkIds.size(), chunker_.subChunksOf(chunk).size());
  // o1 binds to the subchunk table, o2 to its full-overlap companion.
  EXPECT_EQ(r.chunkTemplate.bindings,
            (std::vector<TableBinding>{{0, TableBindingKind::kSubChunk},
                                       {1, TableBindingKind::kFullOverlap}}));
  // One statement per subchunk, joining subchunk x full-overlap tables.
  const std::string text = bound(r, 0);
  std::int32_t sc = spec.subChunkIds[0];
  std::string scName =
      "Object_" + std::to_string(chunk) + "_" + std::to_string(sc);
  EXPECT_NE(text.find("FROM " + scName + " AS o1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("ObjectFullOverlap_" + std::to_string(chunk) + "_" +
                      std::to_string(sc) + " AS o2"),
            std::string::npos)
      << text;
  EXPECT_TRUE(sql::parseScript(text).isOk()) << text;
}

TEST_F(RewriterTest, NearNeighborAreaRestrictionPrunesSubchunks) {
  // A tiny box covers only a few subchunks of the chunk.
  std::int32_t chunk = chunker_.chunkAt(2.0, 2.0);
  auto analyzed = analyzeQuery(
      "SELECT count(*) FROM Object o1, Object o2 "
      "WHERE qserv_areaspec_box(1.9, 1.9, 2.1, 2.1) AND "
      "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.01",
      config_);
  ASSERT_TRUE(analyzed.isOk());
  auto r = rewriter_.rewrite(*analyzed, std::vector<std::int32_t>{chunk},
                             "merged");
  ASSERT_TRUE(r.isOk());
  ASSERT_EQ(r->chunkQueries.size(), 1u);
  EXPECT_LT(r->chunkQueries[0].subChunkIds.size(),
            chunker_.subChunksOf(chunk).size());
  EXPECT_GE(r->chunkQueries[0].subChunkIds.size(), 1u);
  // The area restriction applies to o1 inside each statement.
  EXPECT_NE(bound(*r, 0).find(
                "qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS"),
            std::string::npos)
      << bound(*r, 0);
}

TEST_F(RewriterTest, TwoTableJoinRenamesBoth) {
  auto r = rewrite(
      "SELECT o.objectId, s.sourceId FROM Object o, Source s "
      "WHERE o.objectId = s.objectId",
      {9});
  const std::string cq = bound(r, 0);
  EXPECT_NE(cq.find("Object_9 AS o"), std::string::npos) << cq;
  EXPECT_NE(cq.find("Source_9 AS s"), std::string::npos) << cq;
}

TEST_F(RewriterTest, EmptyChunkListYieldsNoQueries) {
  auto r = rewrite("SELECT COUNT(*) FROM Object", {});
  EXPECT_TRUE(r.chunkQueries.empty());
  EXPECT_FALSE(r.merge.finalSelectSql.empty());
}

TEST_F(RewriterTest, StarWithAggregatesRejected) {
  auto analyzed =
      analyzeQuery("SELECT *, COUNT(*) FROM Object", config_);
  ASSERT_TRUE(analyzed.isOk());
  auto r = rewriter_.rewrite(*analyzed, std::vector<std::int32_t>{1}, "m");
  EXPECT_FALSE(r.isOk());
}

}  // namespace
}  // namespace qserv::core
