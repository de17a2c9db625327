#include "common/string_util.h"

#include <gtest/gtest.h>

namespace erlb {
namespace {

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("AbC-12 xY"), "abc-12 xy");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(StringUtilTest, TrimAscii) {
  EXPECT_EQ(TrimAscii("  a b  "), "a b");
  EXPECT_EQ(TrimAscii("\t\nx\r "), "x");
  EXPECT_EQ(TrimAscii("   "), "");
  EXPECT_EQ(TrimAscii(""), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto f = Split("a,,b,", ',');
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[2], "b");
  EXPECT_EQ(f[3], "");
}

TEST(StringUtilTest, SplitSingleField) {
  auto f = Split("abc", ',');
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], "abc");
}

TEST(StringUtilTest, PrefixKeyIsPapersBlockingKey) {
  // "the first three letters of the title"
  EXPECT_EQ(PrefixKey("Canon EOS 5D", 3), "can");
  EXPECT_EQ(PrefixKey("ab", 3), "ab");
  EXPECT_EQ(PrefixKey("", 3), "");
  EXPECT_EQ(PrefixKey("XYZ", 3), "xyz");
}

TEST(StringUtilTest, Fnv1a64KnownValues) {
  // FNV-1a reference: empty string hashes to the offset basis.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ULL);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("block"), Fnv1a64("block"));
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

}  // namespace
}  // namespace erlb
