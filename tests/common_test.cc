#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace fuzzydb {
namespace {

// ------------------------------ Status --------------------------------

TEST(StatusTest, OkByDefault) {
  const Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);

  Result<int> bad = Status::IoError("disk on fire");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
}

Result<int> Doubler(Result<int> input) {
  FUZZYDB_ASSIGN_OR_RETURN(int v, std::move(input));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  ASSERT_TRUE(Doubler(21).ok());
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("x")).ok());
}

// ------------------------------- Rng -----------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.25);
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.02);
}

// --------------------------- string_util --------------------------------

TEST(StringUtilTest, CaseConversions) {
  EXPECT_EQ(ToLower("MiXeD_42"), "mixed_42");
  EXPECT_EQ(ToUpper("MiXeD_42"), "MIXED_42");
  EXPECT_TRUE(EqualsIgnoreCase("Select", "sELECT"));
  EXPECT_FALSE(EqualsIgnoreCase("Select", "Selec"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(42.0), "42");
  EXPECT_EQ(FormatDouble(-3.0), "-3");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  EXPECT_EQ(FormatDouble(0.125), "0.125");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, " AND "), "a AND b AND c");
}

TEST(StringUtilTest, ParseCount) {
  const struct {
    const char* text;
    bool ok;
    uint64_t value;
  } cases[] = {
      {"0", true, 0},
      {"42", true, 42},
      {"18446744073709551615", true, UINT64_MAX},
      {"18446744073709551616", false, 0},  // 2^64
      {"", false, 0},
      {"-1", false, 0},
      {"+1", false, 0},
      {" 1", false, 0},
      {"1 ", false, 0},
      {"12abc", false, 0},
      {"1.5", false, 0},
  };
  for (const auto& c : cases) {
    uint64_t value = 0;
    EXPECT_EQ(ParseCount(c.text, &value), c.ok) << "'" << c.text << "'";
    if (c.ok) {
      EXPECT_EQ(value, c.value) << "'" << c.text << "'";
    }
  }
}

TEST(StringUtilTest, ParseByteSize) {
  const struct {
    const char* text;
    bool ok;
    uint64_t value;
  } cases[] = {
      {"0", true, 0},
      {"4096", true, 4096},
      {"64k", true, 64ull << 10},
      {"64K", true, 64ull << 10},
      {"64m", true, 64ull << 20},
      {"2G", true, 2ull << 30},
      {"17179869183g", true, 17179869183ull << 30},  // 2^64 - 2^30
      {"17179869184g", false, 0},                     // 2^64: overflows
      {"18446744073709551615", true, UINT64_MAX},
      {"18446744073709551615k", false, 0},
      {"", false, 0},
      {"m", false, 0},
      {"64t", false, 0},
      {"64mb", false, 0},
      {"-1m", false, 0},
  };
  for (const auto& c : cases) {
    uint64_t value = 0;
    EXPECT_EQ(ParseByteSize(c.text, &value), c.ok) << "'" << c.text << "'";
    if (c.ok) {
      EXPECT_EQ(value, c.value) << "'" << c.text << "'";
    }
  }
}

TEST(StringUtilTest, ParseMillis) {
  const struct {
    const char* text;
    bool ok;
    double value;
  } cases[] = {
      {"0", true, 0.0},
      {"5.5", true, 5.5},
      {"250", true, 250.0},
      {"1e300", true, 1e300},  // finite: a deadline that never fires
      {"inf", false, 0},
      {"INF", false, 0},
      {"nan", false, 0},
      {"1e400", false, 0},  // overflows to inf
      {"-1", false, 0},
      {"", false, 0},
      {"abc", false, 0},
      {"5ms", false, 0},
  };
  for (const auto& c : cases) {
    double value = -1;
    EXPECT_EQ(ParseMillis(c.text, &value), c.ok) << "'" << c.text << "'";
    if (c.ok) {
      EXPECT_EQ(value, c.value) << "'" << c.text << "'";
    }
  }
}

}  // namespace
}  // namespace fuzzydb
