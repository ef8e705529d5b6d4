#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/row.h"
#include "common/schema.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/value.h"

namespace eva {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("unexpected token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: unexpected token");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> Doubled(Result<int> in) {
  EVA_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_FALSE(Doubled(Status::Internal("boom")).ok());
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{7}).AsInt64(), 7);
  EXPECT_DOUBLE_EQ(Value(0.5).AsDouble(), 0.5);
  EXPECT_EQ(Value("car").AsString(), "car");
  EXPECT_EQ(Value(int64_t{7}).AsDouble(), 7.0);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_TRUE(Value(int64_t{3}) < Value(3.5));
  EXPECT_TRUE(Value(3.0) == Value(int64_t{3}));
  EXPECT_TRUE(Value(int64_t{4}) > Value(3.9));
}

TEST(ValueTest, NullComparesLowest) {
  EXPECT_TRUE(Value::Null() < Value(int64_t{0}));
  EXPECT_TRUE(Value::Null() == Value::Null());
  EXPECT_TRUE(Value(int64_t{1}) < Value("a"));  // numeric < string rank
}

TEST(ValueTest, HashIsStableAndDiscriminates) {
  EXPECT_EQ(Value("car").Hash(), Value("car").Hash());
  EXPECT_NE(Value("car").Hash(), Value("cab").Hash());
  EXPECT_NE(Value(int64_t{1}).Hash(), Value(1.0).Hash());
}

TEST(SchemaTest, IndexOfAndExtend) {
  Schema s({{"id", DataType::kInt64}, {"label", DataType::kString}});
  EXPECT_EQ(s.IndexOf("label"), 1);
  EXPECT_EQ(s.IndexOf("nope"), -1);
  auto ext = s.Extend({{"area", DataType::kDouble}});
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(ext.value().num_fields(), 3u);
  auto dup = s.Extend({{"id", DataType::kInt64}});
  EXPECT_FALSE(dup.ok());
}

TEST(BatchTest, GetByName) {
  Schema s({{"id", DataType::kInt64}, {"label", DataType::kString}});
  Batch b(s);
  b.AddRow({Value(int64_t{3}), Value("car")});
  EXPECT_EQ(b.GetByName(0, "label").AsString(), "car");
  EXPECT_TRUE(b.GetByName(0, "missing").is_null());
}

TEST(SimClockTest, ChargesByCategory) {
  SimClock clock;
  clock.Charge(CostCategory::kUdf, 99.0);
  clock.Charge(CostCategory::kUdf, 1.0);
  clock.Charge(CostCategory::kReadVideo, 2.0);
  EXPECT_DOUBLE_EQ(clock.Elapsed(CostCategory::kUdf), 100.0);
  EXPECT_DOUBLE_EQ(clock.TotalMs(), 102.0);
}

TEST(SimClockTest, SnapshotDelta) {
  SimClock clock;
  clock.Charge(CostCategory::kUdf, 10.0);
  auto before = clock.TakeSnapshot();
  clock.Charge(CostCategory::kUdf, 5.0);
  clock.Charge(CostCategory::kReadView, 3.0);
  auto delta = clock.TakeSnapshot() - before;
  EXPECT_DOUBLE_EQ(delta[CostCategory::kUdf], 5.0);
  EXPECT_DOUBLE_EQ(delta[CostCategory::kReadView], 3.0);
  EXPECT_DOUBLE_EQ(delta.Total(), 8.0);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DoubleInUnitRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, PoissonMeanRoughlyLambda) {
  Rng r(99);
  double total = 0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) total += r.NextPoisson(8.3);
  EXPECT_NEAR(total / kN, 8.3, 0.15);
}

TEST(StringUtilTest, Basics) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("high"), "HIGH");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_TRUE(StartsWith("vbench-high", "vbench"));
  EXPECT_EQ(StrFormat("%d/%s", 4, "x"), "4/x");
}

// The reflected CRC-32 one byte at a time, as the log and the manifest
// were written before the sliced loop.
uint32_t BytewiseCrc32(const unsigned char* p, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string()), 0u);
}

// Every length 0-64 at every offset 0-7 of one buffer covers the sliced
// loop's word loads at each alignment and every length of its byte tail.
TEST(Crc32Test, MatchesBytewiseAtEveryOffsetAndLength) {
  Rng rng(32);
  std::vector<unsigned char> buf(8 + 64);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.NextU64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32(buf.data() + offset, len),
                BytewiseCrc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseOnOneMebibyte) {
  Rng rng(1 << 20);
  std::vector<unsigned char> buf(1 << 20);
  for (size_t i = 0; i < buf.size(); i += 8) {
    const uint64_t v = rng.NextU64();
    std::memcpy(buf.data() + i, &v, 8);
  }
  EXPECT_EQ(Crc32(buf.data(), buf.size()),
            BytewiseCrc32(buf.data(), buf.size()));
}

}  // namespace
}  // namespace eva
