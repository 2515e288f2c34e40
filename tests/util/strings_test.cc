#include "util/strings.h"

#include <gtest/gtest.h>

namespace qserv::util {
namespace {

TEST(Strings, SplitBasic) {
  auto v = split("a,b,c", ',');
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "b");
  EXPECT_EQ(v[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto v = split(",a,,b,", ',');
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0], "");
  EXPECT_EQ(v[2], "");
  EXPECT_EQ(v[4], "");
}

TEST(Strings, SplitSingleField) {
  auto v = split("alone", ',');
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "alone");
}

TEST(Strings, SplitEmptyString) {
  auto v = split("", ',');
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\na b\r "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("nochange"), "nochange");
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(toLower("SELECT CoUnT(*)"), "select count(*)");
  EXPECT_EQ(toUpper("Object_12"), "OBJECT_12");
}

TEST(Strings, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("SELECT", "select"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("SELECT", "SELEC"));
  EXPECT_FALSE(iequals("a", "b"));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(startsWith("/batch/123", "/batch/"));
  EXPECT_FALSE(startsWith("/bstream/ab", "/batch/"));
  EXPECT_TRUE(endsWith("Object_12_3", "_3"));
  EXPECT_FALSE(endsWith("x", "xy"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Strings, Format) {
  EXPECT_EQ(format("chunk %d of %d", 3, 10), "chunk 3 of 10");
  EXPECT_EQ(format("%.2f", 1.2345), "1.23");
  EXPECT_EQ(format("%s", ""), "");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(humanBytes(512), "512.00 B");
  EXPECT_EQ(humanBytes(1.824e12), "1.82 TB");
  EXPECT_EQ(humanBytes(30e12), "30.00 TB");
}

}  // namespace
}  // namespace qserv::util
