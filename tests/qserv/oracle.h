/// \file oracle.h
/// \brief Single-node oracle for distributed-query tests: one sql::Database
/// holding the unpartitioned catalog (every chunk's own Object and Source
/// rows, no overlap), and a result comparison for its answers.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "datagen/partitioner.h"
#include "datagen/schemas.h"
#include "sql/database.h"

namespace qserv::core::oracle {

inline std::unique_ptr<sql::Database> build(
    const datagen::PartitionedCatalog& data) {
  auto db = std::make_unique<sql::Database>("oracle");
  auto object =
      std::make_shared<sql::Table>("Object", datagen::objectSchema());
  auto source =
      std::make_shared<sql::Table>("Source", datagen::sourceSchema());
  for (const auto& chunk : data.chunks) {
    EXPECT_TRUE(object->appendFrom(*chunk.objects).isOk());
    if (chunk.sources) {
      EXPECT_TRUE(source->appendFrom(*chunk.sources).isOk());
    }
  }
  EXPECT_TRUE(db->registerTable(object).isOk());
  EXPECT_TRUE(db->registerTable(source).isOk());
  EXPECT_TRUE(db->createIndex("Object", "objectId").isOk());
  EXPECT_TRUE(db->createIndex("Source", "objectId").isOk());
  return db;
}

/// Cells agree: NULL matches NULL, doubles may differ only by the rounding
/// of a differently ordered sum (distributed SUM/AVG add per-chunk
/// partials), everything else compares equal.
inline bool sameCell(const sql::Value& got, const sql::Value& want) {
  if (got.isNull() || want.isNull()) return got.isNull() && want.isNull();
  if (got.isDouble() || want.isDouble()) {
    if (!got.isNumeric() || !want.isNumeric()) return false;
    double g = got.toDouble(), w = want.toDouble();
    if (std::isnan(g) || std::isnan(w)) return std::isnan(g) && std::isnan(w);
    return g == w || std::fabs(g - w) <= 1e-9 * std::max(1.0, std::fabs(w));
  }
  return got.compare(want) == 0;
}

inline std::vector<std::vector<sql::Value>> rowsOf(const sql::Table& t,
                                                   bool sorted) {
  std::vector<std::vector<sql::Value>> rows;
  rows.reserve(t.numRows());
  for (std::size_t r = 0; r < t.numRows(); ++r) rows.push_back(t.row(r));
  if (sorted) {
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      for (std::size_t i = 0; i < a.size(); ++i) {
        int cmp = a[i].compare(b[i]);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
  }
  return rows;
}

/// Expect \p got to hold \p want's rows: in order when \p ordered (the
/// query has an ORDER BY), else as multisets.
inline void expectSameResult(const sql::TablePtr& got,
                             const sql::TablePtr& want, bool ordered,
                             const std::string& context) {
  ASSERT_TRUE(got && want) << context;
  ASSERT_EQ(got->numColumns(), want->numColumns()) << context;
  ASSERT_EQ(got->numRows(), want->numRows()) << context;
  auto gotRows = rowsOf(*got, !ordered);
  auto wantRows = rowsOf(*want, !ordered);
  for (std::size_t r = 0; r < wantRows.size(); ++r) {
    for (std::size_t c = 0; c < wantRows[r].size(); ++c) {
      ASSERT_TRUE(sameCell(gotRows[r][c], wantRows[r][c]))
          << context << " row " << r << " col " << c << ": got "
          << gotRows[r][c].toDisplayString() << ", want "
          << wantRows[r][c].toDisplayString();
    }
  }
}

}  // namespace qserv::core::oracle
