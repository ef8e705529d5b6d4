// Execution chunks (src/exec/chunk.h): rows appended to a chunk come back
// out of it — through At, AppendTo (ExecutePlan's row boundary) and the
// gathers operators use — as the same Values of the same types, including
// in lanes that start with NULLs or hold nothing else. Every lane takes
// its type from the chunk's schema.

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/chunk.h"

namespace eva::exec {
namespace {

using storage::ColumnVec;

// Same type and payload: Compare() alone would let Int64 1 equal Double
// 1.0, and NaN equal nothing.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kDouble) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a.Compare(b) == 0;
}

void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << "row " << r;
    for (size_t c = 0; c < want[r].size(); ++c) {
      EXPECT_TRUE(SameValue(got[r][c], want[r][c]))
          << "row " << r << " col " << c << ": " << got[r][c].ToString()
          << " (" << DataTypeName(got[r][c].type()) << ") vs "
          << want[r][c].ToString() << " ("
          << DataTypeName(want[r][c].type()) << ")";
    }
  }
}

// Row `r` of `chunk`, cell by cell through Chunk::At.
Row RowOf(const Chunk& chunk, size_t r) {
  Row row;
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    row.push_back(chunk.At(r, c));
  }
  return row;
}

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"label", DataType::kString},
                 {"area", DataType::kDouble},
                 {"flag", DataType::kBool},
                 {"late", DataType::kInt64},
                 {"nulls", DataType::kString}});
}

// Typed cells with NULLs ahead of and between them; the "late" lane holds
// only NULLs for its first 12 rows, and "nulls" holds nothing else.
std::vector<Row> TestRows() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Row> rows;
  for (int64_t i = 0; i < 40; ++i) {
    const Value late = i < 12 || i == 23 ? Value::Null() : Value(i * 1000);
    rows.push_back({Value(i),
                    i % 7 == 3 ? Value::Null()
                               : Value(i % 3 == 0 ? "car" : "bus"),
                    i == 5 ? Value(-0.0) : i == 6 ? Value(nan)
                                                  : Value(0.5 * i),
                    i < 2 ? Value::Null() : Value(i % 2 == 0),
                    late, Value::Null()});
  }
  return rows;
}

TEST(ChunkTest, RoundTripThroughBatchKeepsTypes) {
  const std::vector<Row> rows = TestRows();
  Chunk chunk(TestSchema());
  for (const Row& row : rows) chunk.AppendRow(row);
  ASSERT_EQ(chunk.num_rows(), rows.size());
  EXPECT_EQ(chunk.lane(0).enc(), ColumnVec::Enc::kInt64);
  EXPECT_EQ(chunk.lane(1).enc(), ColumnVec::Enc::kDict);
  EXPECT_EQ(chunk.lane(2).enc(), ColumnVec::Enc::kDouble);
  EXPECT_EQ(chunk.lane(3).enc(), ColumnVec::Enc::kBool);
  EXPECT_EQ(chunk.lane(4).enc(), ColumnVec::Enc::kInt64);  // NULLs first
  EXPECT_EQ(chunk.lane(5).enc(), ColumnVec::Enc::kDict);   // all NULL

  // The result boundary: two chunks appended to one batch.
  Batch batch(TestSchema());
  chunk.AppendTo(&batch);
  chunk.AppendTo(&batch);
  std::vector<Row> twice = rows;
  twice.insert(twice.end(), rows.begin(), rows.end());
  ExpectSameRows(batch.rows(), twice);

  std::vector<Row> by_row;
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    by_row.push_back(RowOf(chunk, r));
  }
  ExpectSameRows(by_row, rows);
}

TEST(ChunkTest, ShortRowsPadWithNull) {
  Chunk chunk(TestSchema());
  chunk.AppendRow({Value(int64_t{4}), Value("car")});
  ASSERT_EQ(chunk.num_rows(), 1u);
  const Row row = RowOf(chunk, 0);
  ASSERT_EQ(row.size(), 6u);
  EXPECT_TRUE(SameValue(row[0], Value(int64_t{4})));
  EXPECT_TRUE(SameValue(row[1], Value("car")));
  for (size_t c = 2; c < row.size(); ++c) EXPECT_TRUE(row[c].is_null());
}

TEST(ChunkTest, GathersMatchRowSelection) {
  const std::vector<Row> rows = TestRows();
  Chunk chunk(TestSchema());
  for (const Row& row : rows) chunk.AppendRow(row);
  // Unordered, repeated indexes, across the end of the leading NULLs.
  const std::vector<uint32_t> pick = {39, 0, 17, 17, 5, 6, 11, 12, 23, 2, 38};
  LaneRemaps remaps;
  Chunk gathered = GatherRows(chunk, pick, &remaps);
  std::vector<Row> want;
  for (uint32_t r : pick) want.push_back(rows[r]);
  Batch batch(TestSchema());
  gathered.AppendTo(&batch);
  ExpectSameRows(batch.rows(), want);

  // Column ranges into a wider chunk, as operators replicate base columns.
  Schema wide = TestSchema();
  wide.AddField({"extra", DataType::kDouble});
  Chunk out(wide);
  remaps.Clear();
  GatherColumns(chunk, 0, chunk.num_columns(), pick, &out, 0, &remaps);
  for (size_t k = 0; k < pick.size(); ++k) out.col(6).AppendDouble(1.5);
  ASSERT_EQ(out.num_rows(), pick.size());
  for (size_t k = 0; k < pick.size(); ++k) {
    Row expect = rows[pick[k]];
    expect.emplace_back(1.5);
    ExpectSameRows({RowOf(out, k)}, {expect});
  }
}

// A lane of only NULLs, and one whose first cells are NULL, are typed by
// their fields from the start; copying rows out of them (AppendFrom,
// AppendGather) gives what appending each copied cell by value gives.
TEST(ChunkTest, NullLanesAreTypedFromTheSchema) {
  const Schema schema({{"none", DataType::kDouble},
                       {"lead", DataType::kString},
                       {"flag", DataType::kBool}});
  Chunk chunk(schema);
  for (int64_t i = 0; i < 70; ++i) {
    chunk.AppendRow({Value::Null(),
                     i < 66 ? Value::Null() : Value(i % 2 == 0 ? "a" : "b"),
                     i < 65 ? Value::Null() : Value(i % 3 == 0)});
  }
  const ColumnVec::Enc encs[] = {ColumnVec::Enc::kDouble,
                                 ColumnVec::Enc::kDict,
                                 ColumnVec::Enc::kBool};
  const std::vector<uint32_t> pick = {69, 0, 66, 66, 3, 64, 65, 67};
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    const ColumnVec& src = chunk.lane(c);
    EXPECT_EQ(src.enc(), encs[c]) << "col " << c;
    EXPECT_EQ(chunk.cols()[c].type(), schema.field(c).type) << "col " << c;
    // Rows [b, e) by AppendFrom, and by Value.
    for (const auto& [b, e] : {std::pair<size_t, size_t>{0, 70},
                               {0, 60},
                               {60, 70},
                               {66, 66}}) {
      storage::TailLane from(schema.field(c).type);
      storage::TailLane by_value(schema.field(c).type);
      std::vector<int32_t> remap;
      from.AppendFrom(src, b, e, &remap);
      for (size_t i = b; i < e; ++i) by_value.Append(src.At(i));
      ASSERT_EQ(from.lane().size(), e - b);
      EXPECT_EQ(from.lane().enc(), encs[c]);
      for (size_t i = 0; i < e - b; ++i) {
        EXPECT_TRUE(SameValue(from.lane().At(i), by_value.lane().At(i)))
            << "col " << c << " rows [" << b << ", " << e << ") at " << i;
      }
    }
    storage::TailLane gathered(schema.field(c).type);
    storage::TailLane by_value(schema.field(c).type);
    std::vector<int32_t> remap;
    gathered.AppendGather(src, pick.data(), pick.size(), &remap);
    for (uint32_t r : pick) by_value.Append(src.At(r));
    ASSERT_EQ(gathered.lane().size(), pick.size());
    for (size_t k = 0; k < pick.size(); ++k) {
      EXPECT_TRUE(SameValue(gathered.lane().At(k), by_value.lane().At(k)))
          << "col " << c << " pick " << k;
      EXPECT_TRUE(SameValue(gathered.lane().At(k), src.At(pick[k])));
    }
  }
}

// A cell of another type than its field's is a programming error.
TEST(ChunkTest, CellOfAnotherTypeAborts) {
  const Schema schema({{"n", DataType::kInt64}});
  auto append_double = [&schema] {
    Chunk chunk(schema);
    chunk.AppendRow({Value(1.0)});
  };
  EXPECT_DEATH(append_double(), "lane of type INT64: appended a DOUBLE cell");
}

TEST(ChunkTest, EmptyChunk) {
  Chunk chunk(TestSchema());
  EXPECT_TRUE(chunk.empty());
  EXPECT_EQ(chunk.num_rows(), 0u);
  Batch batch(TestSchema());
  chunk.AppendTo(&batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(Chunk().empty());
}

}  // namespace
}  // namespace eva::exec
