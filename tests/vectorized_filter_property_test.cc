// Differential property tests for the columnar probe path:
//
//  1. FilterProgram (src/exec/vector_filter.h), run over execution chunks,
//     must agree with the row-at-a-time reference interpreter
//     (reference_eval.h) over randomized schemas, NULLs, and predicate
//     trees: the same verdict on every row, or the reference's error on
//     its first erroring row. Deterministic lane shapes (strings absent
//     from the dictionary, Int64 against Double, NaN and -0.0, all-null
//     and leading-null lanes) are checked under every comparison operator,
//     and
//     every WHERE shape and select item SQL can write is pinned.
//  2. MaterializedView::Put / ProbeBatch must agree with a std::map
//     oracle, cell for cell and type for type, across segment
//     boundaries, re-appends, open tails, reseals, and eviction.
//  3. Zone-map skipping must be sound: every row of a segment reported
//     kHitSkipped must fail the residual predicate under the reference
//     evaluation.
//  4. The engine must produce identical row sets with zone skipping on
//     or off.

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/eva_engine.h"
#include "exec/vector_filter.h"
#include "expr/expr.h"
#include "parser/parser.h"
#include "reference_eval.h"
#include "storage/view_store.h"
#include "vbench/vbench.h"
#include "view_test_util.h"

namespace eva {
namespace {

using exec::FilterProgram;
using expr::CompareOp;
using expr::Expr;
using expr::ExprPtr;
using storage::MaterializedView;
using storage::ProbeResult;
using storage::ProbeStatus;
using storage::ViewKey;

// Deterministic 64-bit LCG — the test must not depend on wall clock or
// std::random_device.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
  double Unit() { return static_cast<double>(Next() % 10000) / 10000.0; }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

const char* kLabels[] = {"car", "bus", "truck", "person", "bike"};

Value RandomValue(Lcg& rng, DataType type) {
  switch (type) {
    case DataType::kBool:
      return Value(rng.Chance(0.5));
    case DataType::kInt64:
      return Value(rng.Below(20) - 5);
    case DataType::kDouble:
      return Value(rng.Unit() * 2.0 - 0.5);
    case DataType::kString:
      return Value(std::string(kLabels[rng.Below(5)]));
    default:
      return Value::Null();
  }
}

DataType RandomType(Lcg& rng) {
  switch (rng.Below(4)) {
    case 0:
      return DataType::kBool;
    case 1:
      return DataType::kInt64;
    case 2:
      return DataType::kDouble;
    default:
      return DataType::kString;
  }
}

// ---------------------------------------------------------------------------
// 1. FilterProgram vs the per-row reference interpreter
// ---------------------------------------------------------------------------

// "c<i>", the name of random column i.
std::string ColumnName(size_t i) {
  std::string name = "c";
  name += std::to_string(i);
  return name;
}

struct RandomTable {
  Schema schema;
  std::vector<DataType> col_types;  // the field type of each column
  std::vector<Row> rows;            // the reference interpreter's input
};

// Cells of the column's field type under a random NULL pattern per
// column: none, scattered, a leading run, or every cell.
RandomTable MakeTable(Lcg& rng) {
  RandomTable t;
  int cols = 1 + static_cast<int>(rng.Below(5));
  std::vector<double> null_share;
  std::vector<int> leading_nulls;
  // Row counts straddle typical selection-vector block sizes.
  int rows = static_cast<int>(rng.Below(200));
  for (int c = 0; c < cols; ++c) {
    DataType type = RandomType(rng);
    t.col_types.push_back(type);
    t.schema.AddField({ColumnName(c), type});
    const int64_t pattern = rng.Below(6);
    null_share.push_back(pattern == 0 ? 0.0 : pattern == 5 ? 1.0 : 0.15);
    leading_nulls.push_back(pattern == 4 ? static_cast<int>(rng.Below(
                                               static_cast<int64_t>(rows) + 1))
                                         : 0);
  }
  for (int r = 0; r < rows; ++r) {
    Row row;
    for (size_t c = 0; c < t.col_types.size(); ++c) {
      if (r < leading_nulls[c] || rng.Chance(null_share[c])) {
        row.push_back(Value::Null());
      } else {
        row.push_back(RandomValue(rng, t.col_types[c]));
      }
    }
    t.rows.push_back(std::move(row));
  }
  return t;
}

ExprPtr RandomPredicate(Lcg& rng, const RandomTable& t, int depth) {
  if (depth > 0 && rng.Chance(0.55)) {
    switch (rng.Below(3)) {
      case 0:
        return Expr::And(RandomPredicate(rng, t, depth - 1),
                         RandomPredicate(rng, t, depth - 1));
      case 1:
        return Expr::Or(RandomPredicate(rng, t, depth - 1),
                        RandomPredicate(rng, t, depth - 1));
      default:
        return Expr::Not(RandomPredicate(rng, t, depth - 1));
    }
  }
  auto op = static_cast<CompareOp>(rng.Below(6));
  size_t c = static_cast<size_t>(rng.Below(
      static_cast<int64_t>(t.col_types.size())));
  ExprPtr col = Expr::Column(ColumnName(c));
  switch (rng.Below(6)) {
    case 0:  // column op literal (type usually matching, sometimes not)
    case 1: {
      DataType lt = rng.Chance(0.8) ? t.col_types[c] : RandomType(rng);
      Value lit = rng.Chance(0.1) ? Value::Null() : RandomValue(rng, lt);
      return Expr::Compare(op, col, Expr::Literal(std::move(lit)));
    }
    case 2: {  // literal op column (mirrored compile path)
      Value lit = RandomValue(rng, t.col_types[c]);
      return Expr::Compare(op, Expr::Literal(std::move(lit)), col);
    }
    case 3: {  // column op column
      size_t c2 = static_cast<size_t>(rng.Below(
          static_cast<int64_t>(t.col_types.size())));
      return Expr::Compare(op, col, Expr::Column(ColumnName(c2)));
    }
    case 4:  // bare column in boolean position (sometimes a missing one,
             // a bind error on every row that reaches it)
      return rng.Chance(0.15) ? Expr::Column("no_such_col") : col;
    default:  // literal in boolean position; a non-bool one is an error
      if (rng.Chance(0.15)) return Expr::Literal(Value(int64_t{7}));
      return Expr::Literal(rng.Chance(0.2) ? Value::Null()
                                           : Value(rng.Chance(0.5)));
  }
}

// The reference's verdicts on `rows`, walked in order as the row
// interpreter walks a chunk: the status of the first erroring row, if
// any, else OK and one verdict per row.
Status ReferenceVerdicts(const Expr& pred, const Schema& schema,
                         const std::vector<Row>& rows,
                         std::vector<bool>* verdicts) {
  verdicts->clear();
  for (const Row& row : rows) {
    auto v = expr::EvaluateBool(pred, schema, row);
    if (!v.ok()) return v.status();
    verdicts->push_back(v.value());
  }
  return Status::OK();
}

// FilterProgram over `rows` as one chunk gives the reference's verdicts,
// or exactly the reference's first-row error. Returns the reference's
// status.
Status ExpectMatchesReference(const ExprPtr& pred, const Schema& schema,
                              const std::vector<Row>& rows) {
  exec::Chunk chunk(schema);
  for (const Row& row : rows) chunk.AppendRow(row);
  std::vector<bool> want;
  const Status ref = ReferenceVerdicts(*pred, schema, rows, &want);
  std::vector<uint8_t> keep;
  const Status got =
      FilterProgram::Compile(*pred, schema).Execute(chunk, &keep);
  EXPECT_EQ(got.ToString(), ref.ToString()) << "pred=" << pred->ToString();
  if (ref.ok() && got.ok()) {
    EXPECT_EQ(keep.size(), rows.size());
    for (size_t r = 0; r < rows.size() && r < keep.size(); ++r) {
      EXPECT_EQ(keep[r] != 0, want[r])
          << "row " << r << " pred=" << pred->ToString();
    }
  }
  return ref;
}

TEST(VectorizedFilterProperty, MatchesScalarInterpreter) {
  Lcg rng(0x5eed0001);
  int executed = 0, errors = 0;
  for (int iter = 0; iter < 400; ++iter) {
    RandomTable t = MakeTable(rng);
    ExprPtr pred = RandomPredicate(rng, t, 3);
    if (ExpectMatchesReference(pred, t.schema, t.rows).ok()) {
      ++executed;
    } else {
      ++errors;
    }
    ASSERT_FALSE(HasFailure()) << "iteration " << iter;
  }
  // The generator must exercise both verdicts and first-row errors (331
  // and 69 of the 400 iterations).
  EXPECT_GT(executed, 100);
  EXPECT_GT(errors, 0);
}

// Every comparison operator, column op literal and literal op column, of
// every column of `rows` against every literal: the chunk program must
// give the interpreter's verdict on every row. Returns the number of
// checked (predicate, row) pairs.
int64_t CheckAllComparisons(const Schema& schema, const std::vector<Row>& rows,
                            const std::vector<Value>& literals) {
  exec::Chunk chunk(schema);
  for (const Row& row : rows) chunk.AppendRow(row);
  int64_t checked = 0;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    for (const Value& lit : literals) {
      for (int op = 0; op < 6; ++op) {
        const auto cmp = static_cast<CompareOp>(op);
        ExprPtr col = Expr::Column(schema.field(c).name);
        for (const ExprPtr& pred :
             {Expr::Compare(cmp, col, Expr::Literal(lit)),
              Expr::Compare(cmp, Expr::Literal(lit), col)}) {
          const FilterProgram program = FilterProgram::Compile(*pred, schema);
          std::vector<uint8_t> keep;
          Status st = program.Execute(chunk, &keep);
          EXPECT_TRUE(st.ok()) << st.ToString();
          if (!st.ok()) continue;
          for (size_t r = 0; r < rows.size(); ++r) {
            auto scalar = expr::EvaluateBool(*pred, schema, rows[r]);
            EXPECT_TRUE(scalar.ok());
            if (!scalar.ok()) continue;
            EXPECT_EQ(keep[r] != 0, scalar.value())
                << pred->ToString() << " row " << r << " cell "
                << rows[r][c].ToString();
            ++checked;
          }
        }
      }
    }
  }
  return checked;
}

TEST(VectorizedFilterProperty, ChunkLaneEdgeCases) {
  const double nan = std::nan("");
  // i: Int64, d: Double with NaN and -0.0, s: a dictionary lane, n: an
  // all-NULL Int64 lane, e: an all-NULL String lane (an empty
  // dictionary), m: a String lane whose first cells are NULL, b: Bool.
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"n", DataType::kInt64},
                 {"e", DataType::kString},
                 {"m", DataType::kString},
                 {"b", DataType::kBool}});
  std::vector<Row> rows = {
      {Value(int64_t{1}), Value(1.0), Value("car"), Value::Null(),
       Value::Null(), Value::Null(), Value(true)},
      {Value(int64_t{-3}), Value(-0.0), Value("bus"), Value::Null(),
       Value::Null(), Value::Null(), Value(false)},
      {Value::Null(), Value(nan), Value::Null(), Value::Null(), Value::Null(),
       Value::Null(), Value::Null()},
      {Value(int64_t{0}), Value(0.0), Value("truck"), Value::Null(),
       Value::Null(), Value("car"), Value(true)},
      {Value(int64_t{9007199254740993}), Value(2.5), Value("car"),
       Value::Null(), Value::Null(), Value::Null(), Value(false)},
      {Value(int64_t{2}), Value::Null(), Value("Car"), Value::Null(),
       Value::Null(), Value("zebra"), Value(true)},
  };
  // Strings absent from every dictionary ("aardvark", "van", "") and
  // present ones; numbers of both types, including NaN, -0.0 and an
  // Int64 past 2^53; and the other ranks.
  std::vector<Value> literals = {
      Value("car"),     Value("aardvark"),        Value("van"),
      Value(""),        Value(int64_t{0}),        Value(int64_t{2}),
      Value(1.0),       Value(2.5),               Value(-0.0),
      Value(nan),       Value(0.5),               Value(int64_t{-3}),
      Value(9007199254740992.0), Value(int64_t{9007199254740993}),
      Value(true),      Value(false)};
  EXPECT_GT(CheckAllComparisons(schema, rows, literals), 5000);

  // The lanes hold what the test means them to hold.
  exec::Chunk chunk(schema);
  for (const Row& row : rows) chunk.AppendRow(row);
  EXPECT_EQ(chunk.lane(0).enc(), storage::ColumnVec::Enc::kInt64);
  EXPECT_EQ(chunk.lane(1).enc(), storage::ColumnVec::Enc::kDouble);
  EXPECT_EQ(chunk.lane(2).enc(), storage::ColumnVec::Enc::kDict);
  EXPECT_EQ(chunk.lane(3).enc(), storage::ColumnVec::Enc::kInt64);
  EXPECT_EQ(chunk.lane(4).enc(), storage::ColumnVec::Enc::kDict);
  EXPECT_TRUE(chunk.lane(4).dict_.empty());
  EXPECT_EQ(chunk.lane(5).enc(), storage::ColumnVec::Enc::kDict);
  EXPECT_EQ(chunk.lane(6).enc(), storage::ColumnVec::Enc::kBool);
}

TEST(VectorizedFilterProperty, ChunkColumnPairsMatchInterpreter) {
  // Column op column over every pair of lanes: Int64, Double and String
  // lanes with scattered NULLs, an all-NULL lane and a Double lane whose
  // first cells are NULL.
  Schema schema({{"i", DataType::kInt64},
                 {"j", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"t", DataType::kString},
                 {"n", DataType::kInt64},
                 {"m", DataType::kDouble}});
  Lcg rng(0x5eed0004);
  std::vector<Row> rows;
  exec::Chunk chunk(schema);
  for (int r = 0; r < 64; ++r) {
    auto maybe_null = [&](Value v) {
      return rng.Chance(0.1) ? Value::Null() : std::move(v);
    };
    Row row = {maybe_null(Value(rng.Below(5) - 2)),
               maybe_null(Value(rng.Below(5) - 2)),
               maybe_null(Value(rng.Chance(0.1) ? -0.0
                                                : static_cast<double>(
                                                      rng.Below(5) - 2))),
               maybe_null(Value(std::string(kLabels[rng.Below(5)]))),
               maybe_null(Value(std::string(kLabels[rng.Below(3)]))),
               Value::Null(),
               r < 10 ? Value::Null()
                      : Value(static_cast<double>(rng.Below(3)))};
    chunk.AppendRow(row);
    rows.push_back(std::move(row));
  }
  int64_t checked = 0;
  for (size_t a = 0; a < schema.num_fields(); ++a) {
    for (size_t b = 0; b < schema.num_fields(); ++b) {
      for (int op = 0; op < 6; ++op) {
        ExprPtr pred = Expr::Compare(static_cast<CompareOp>(op),
                                     Expr::Column(schema.field(a).name),
                                     Expr::Column(schema.field(b).name));
        std::vector<uint8_t> keep;
        ASSERT_TRUE(
            FilterProgram::Compile(*pred, schema).Execute(chunk, &keep).ok());
        for (size_t r = 0; r < rows.size(); ++r) {
          auto scalar = expr::EvaluateBool(*pred, schema, rows[r]);
          ASSERT_TRUE(scalar.ok());
          EXPECT_EQ(keep[r] != 0, scalar.value())
              << pred->ToString() << " row " << r;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 7 * 7 * 6 * 64);
}

TEST(VectorizedFilterProperty, BoolColumnOverChunkLanes) {
  // A bare column in boolean position: a Bool lane and an all-null lane
  // evaluate; a non-bool lane (Int64 i, String m) raises the reference's
  // error at its first non-null row, unless AND/OR keeps that row from
  // reaching it.
  Schema schema({{"b", DataType::kBool},
                 {"n", DataType::kBool},
                 {"i", DataType::kInt64},
                 {"m", DataType::kString}});
  std::vector<Row> rows = {
      {Value(true), Value::Null(), Value::Null(), Value::Null()},
      {Value::Null(), Value::Null(), Value(int64_t{1}), Value("x")},
      {Value(false), Value::Null(), Value::Null(), Value::Null()}};
  for (const char* name : {"b", "n"}) {
    EXPECT_TRUE(ExpectMatchesReference(Expr::Column(name), schema, rows).ok())
        << name;
  }
  for (const char* name : {"i", "m"}) {
    EXPECT_EQ(ExpectMatchesReference(Expr::Column(name), schema, rows)
                  .ToString(),
              std::string("InvalidArgument: expression is not boolean: ") +
                  name);
  }
  // Row 1's non-bool cells: AND with b (NULL there) never reaches i's,
  // while NOT n (true everywhere) and OR with b (NULL, so false) reach m's.
  EXPECT_TRUE(ExpectMatchesReference(
                  Expr::And(Expr::Column("b"), Expr::Column("i")), schema,
                  rows)
                  .ok());
  EXPECT_FALSE(ExpectMatchesReference(
                   Expr::And(Expr::Not(Expr::Column("n")), Expr::Column("m")),
                   schema, rows)
                   .ok());
  EXPECT_FALSE(ExpectMatchesReference(
                   Expr::Or(Expr::Column("b"), Expr::Column("m")), schema,
                   rows)
                   .ok());
}

// A chunk of detector outputs with the columns the engine-level shapes
// name: id, obj, label, area (a Double: non-boolean in a logical
// position) and the UDF output column CarType.
Schema ShapeSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"obj", DataType::kInt64},
                 {"label", DataType::kString},
                 {"area", DataType::kDouble},
                 {"CarType", DataType::kString}});
}

std::vector<Row> ShapeRows() {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 12; ++i) {
    rows.push_back({Value(i / 2), Value(i % 3),
                    Value(std::string(kLabels[i % 4])), Value(0.1 * i),
                    i % 5 == 0 ? Value::Null() : Value("Nissan")});
  }
  return rows;
}

TEST(VectorizedFilterProperty, WhereShapesMatchReference) {
  const Schema schema = ShapeSchema();
  const std::vector<Row> rows = ShapeRows();
  struct Case {
    const char* where;
    const char* status;  // the reference's first-row status
  } cases[] = {
      {"1 = 1 AND id < 3", "OK"},
      {"'bus' < 'car' AND id < 2", "OK"},
      {"2 < 1 OR id < 1", "OK"},
      {"7", "InvalidArgument: expression is not boolean: 7"},
      {"nosuch = 1", "BindError: unknown column: nosuch"},
      {"id < 5 OR area", "InvalidArgument: expression is not boolean: area"},
      {"label = 'car' OR area",
       "InvalidArgument: expression is not boolean: area"},
      {"id < 0 AND label", "OK"},
      {"id < 0 AND nosuch = 1", "OK"},
      {"(id >= 0 OR nosuch = 1) AND id < 2", "OK"},
      {"id < 2 AND obj = id", "OK"},
      {"id < 2 AND TRUE", "OK"},
      {"id < 2 OR nosuch = 1", "BindError: unknown column: nosuch"},
      {"id < 1 OR 'x'", "InvalidArgument: expression is not boolean: 'x'"},
      {"NOT (id > 0 AND nosuch = 1) AND area",
       "InvalidArgument: expression is not boolean: area"},
      {"NOT (id < 1 AND nosuch = 1) AND area",
       "BindError: unknown column: nosuch"},
      {"NOT id >= 1 AND label", "InvalidArgument: expression is not "
                                "boolean: label"},
      {"Bogus(frame) = 'x'",
       "BindError: UDF output column not materialized: Bogus"},
      {"id > 0 AND Bogus(frame)",
       "BindError: UDF output column not materialized: Bogus"},
      {"CarType(frame, bbox) = 'Nissan' OR CarType(frame, bbox)", "OK"},
      {"CarType(frame, bbox) = 'Ford' OR CarType(frame, bbox)",
       "InvalidArgument: expression is not boolean: CarType(frame, bbox)"},
  };
  for (const Case& c : cases) {
    auto pred = parser::ParseExpression(c.where);
    ASSERT_TRUE(pred.ok()) << c.where;
    EXPECT_EQ(ExpectMatchesReference(pred.value(), schema, rows).ToString(),
              c.status)
        << c.where;
  }
  // On an empty chunk nothing is reached: no error.
  std::vector<uint8_t> keep;
  EXPECT_TRUE(FilterProgram::Compile(*Expr::Column("nosuch"), schema)
                  .Execute(exec::Chunk(schema), &keep)
                  .ok());
  EXPECT_TRUE(keep.empty());
}

TEST(VectorizedFilterProperty, StarAndNestedOperandsAreErrors) {
  // Shapes the parser never puts in a predicate: `*` and COUNT(*) raise
  // the reference's error where reached; a comparison operand that is not
  // a column, UDF call or literal is an error naming the comparison.
  const Schema schema = ShapeSchema();
  const std::vector<Row> rows = ShapeRows();
  const std::string star =
      "InvalidArgument: star expressions are not scalar-evaluable";
  ExprPtr id_lt_1 = Expr::Compare(CompareOp::kLt, Expr::Column("id"),
                                  Expr::Literal(Value(int64_t{1})));
  EXPECT_EQ(ExpectMatchesReference(Expr::Star(), schema, rows).ToString(),
            star);
  EXPECT_EQ(ExpectMatchesReference(Expr::Or(id_lt_1, Expr::CountStar()),
                                   schema, rows)
                .ToString(),
            star);
  EXPECT_EQ(ExpectMatchesReference(
                Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                              Expr::Star()),
                schema, rows)
                .ToString(),
            star);
  EXPECT_TRUE(ExpectMatchesReference(
                  Expr::And(Expr::Compare(CompareOp::kLt, Expr::Column("id"),
                                          Expr::Literal(Value(int64_t{0}))),
                            Expr::Star()),
                  schema, rows)
                  .ok());
  ExprPtr nested = Expr::Compare(CompareOp::kEq, id_lt_1,
                                 Expr::Literal(Value(true)));
  exec::Chunk chunk(schema);
  for (const Row& row : rows) chunk.AppendRow(row);
  std::vector<uint8_t> keep;
  EXPECT_EQ(FilterProgram::Compile(*nested, schema)
                .Execute(chunk, &keep)
                .ToString(),
            "NotImplemented: comparison operand is not a column, UDF call "
            "or literal: id < 1 = true");
}

// ExecuteItem's lane over `rows` holds the reference's EvaluateScalar
// value, type for type, on every row, or the first row's error. (A bound
// column is ProjectOp's to move, not a program's.)
Status ExpectItemMatchesReference(const ExprPtr& item, const Schema& schema,
                                  const std::vector<Row>& rows) {
  exec::Chunk chunk(schema);
  for (const Row& row : rows) chunk.AppendRow(row);
  std::vector<Value> want;
  Status ref;
  for (const Row& row : rows) {
    auto v = expr::EvaluateScalar(*item, schema, row);
    if (!v.ok()) {
      ref = v.status();
      break;
    }
    want.push_back(v.value());
  }
  // Project's type for the item: a literal's own, a verdict's BOOL.
  storage::TailLane lane(item->kind() == expr::ExprKind::kLiteral
                             ? item->value().type()
                             : DataType::kBool);
  const Status got =
      FilterProgram::CompileItem(*item, schema).ExecuteItem(chunk, &lane);
  EXPECT_EQ(got.ToString(), ref.ToString()) << item->ToString();
  if (ref.ok() && got.ok()) {
    EXPECT_EQ(lane.lane().size(), want.size()) << item->ToString();
    for (size_t r = 0; r < want.size() && r < lane.lane().size(); ++r) {
      const Value v = lane.lane().At(r);
      EXPECT_TRUE(v.type() == want[r].type() && v.Compare(want[r]) == 0)
          << item->ToString() << " row " << r << ": " << v.ToString()
          << " vs " << want[r].ToString();
    }
  }
  return ref;
}

TEST(VectorizedFilterProperty, SelectItemsMatchReference) {
  const Schema schema = ShapeSchema();
  const std::vector<Row> rows = ShapeRows();
  for (const Value& lit : {Value(int64_t{5}), Value("x"), Value(2.5),
                           Value(true), Value::Null()}) {
    EXPECT_TRUE(
        ExpectItemMatchesReference(Expr::Literal(lit), schema, rows).ok());
  }
  EXPECT_EQ(ExpectItemMatchesReference(Expr::Column("nosuch"), schema, rows)
                .ToString(),
            "BindError: unknown column: nosuch");
  EXPECT_EQ(ExpectItemMatchesReference(Expr::UdfCall("Bogus", {"frame"}),
                                       schema, rows)
                .ToString(),
            "BindError: UDF output column not materialized: Bogus");
  EXPECT_EQ(ExpectItemMatchesReference(Expr::Star(), schema, rows)
                .ToString(),
            "InvalidArgument: star expressions are not scalar-evaluable");
  for (const char* text : {"label = 'car'", "id < 2 OR label = 'bus'",
                           "NOT id < 2", "id < 0 AND nosuch = 1",
                           "id < 2 OR nosuch = 1"}) {
    auto item = parser::ParseExpression(text);
    ASSERT_TRUE(item.ok()) << text;
    ExpectItemMatchesReference(item.value(), schema, rows);
  }
  // An unbound name on an empty chunk raises nothing.
  storage::TailLane lane(DataType::kString);
  EXPECT_TRUE(FilterProgram::CompileItem(*Expr::Column("nosuch"), schema)
                  .ExecuteItem(exec::Chunk(schema), &lane)
                  .ok());
  EXPECT_EQ(lane.lane().size(), 0u);
}

// ---------------------------------------------------------------------------
// 2. Put / ProbeBatch vs a std::map oracle through tails, seals, eviction
// ---------------------------------------------------------------------------

Schema DetectorValueSchema() {
  return Schema({{"obj", DataType::kInt64},
                 {"label", DataType::kString},
                 {"area", DataType::kDouble},
                 {"score", DataType::kDouble}});
}

std::vector<Row> RandomDetections(Lcg& rng) {
  std::vector<Row> rows;
  int n = static_cast<int>(rng.Below(4));  // 0 = presence-only frame
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(static_cast<int64_t>(i)),
                    Value(std::string(kLabels[rng.Below(5)])),
                    Value(rng.Unit() * 0.6), Value(0.5 + rng.Unit() * 0.5)});
  }
  return rows;
}

// RandomDetections with NULL cells, so open tails start with NULLs, hold
// NULLs between typed cells, or hold nothing else.
std::vector<Row> RandomNullableDetections(Lcg& rng) {
  std::vector<Row> rows = RandomDetections(rng);
  for (Row& row : rows) {
    for (Value& cell : row) {
      if (rng.Below(6) == 0) cell = Value::Null();
    }
  }
  return rows;
}

TEST(VectorizedFilterProperty, ViewMatchesMapOracle) {
  Lcg rng(0x5eed0002);
  MaterializedView view("v", DetectorValueSchema());
  view.set_segment_frames(8);  // small segments: many boundaries
  std::map<ViewKey, std::vector<Row>> oracle;
  const int64_t max_frame = 96;
  int64_t reappends = 0, evicted_keys = 0;
  for (int round = 0; round < 60; ++round) {
    // Appends (some re-appends of present keys) into open tails.
    int puts = 1 + static_cast<int>(rng.Below(16));
    for (int p = 0; p < puts; ++p) {
      ViewKey key{rng.Below(max_frame), -1};
      std::vector<Row> rows = RandomNullableDetections(rng);
      bool inserted = PutRows(&view, key, rows,
                              static_cast<uint64_t>(round * 100 + p), round);
      ASSERT_EQ(inserted, oracle.emplace(key, rows).second)
          << "frame " << key.frame;
      if (!inserted) ++reappends;
    }
    switch (rng.Below(4)) {
      case 0:
        view.SealAllSegments();
        break;
      case 1: {
        // Evict a segment: the view and the oracle drop the same keys.
        int64_t seg = rng.Below(max_frame / 8);
        int64_t keys = 0, rows = 0;
        for (auto it = oracle.lower_bound({seg * 8, INT64_MIN});
             it != oracle.end() && it->first.frame < seg * 8 + 8;) {
          ++keys;
          rows += static_cast<int64_t>(it->second.size());
          it = oracle.erase(it);
        }
        storage::EvictedSegment ev = view.EvictSegment(seg);
        ASSERT_EQ(ev.keys, keys);
        ASSERT_EQ(ev.rows, rows);
        evicted_keys += keys;
        break;
      }
      default:
        break;  // leave tails open across the probe
    }
    int64_t oracle_rows = 0;
    for (const auto& [key, rows] : oracle) {
      oracle_rows += static_cast<int64_t>(rows.size());
    }
    ASSERT_EQ(view.num_keys(), static_cast<int64_t>(oracle.size()));
    ASSERT_EQ(view.num_rows(), oracle_rows);
    std::vector<ViewKey> keys;
    int64_t start = rng.Below(max_frame);
    for (int64_t f = start; f < start + 24; ++f) {
      keys.push_back(ViewKey{f, -1});  // some present, some missing
    }
    ProbeResult res;
    view.ProbeBatch(keys, nullptr, &res);
    ASSERT_EQ(res.outcomes.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      auto expected = oracle.find(keys[i]);
      const storage::ProbeOutcome& oc = res.outcomes[i];
      ASSERT_EQ(view.Contains(keys[i]), expected != oracle.end());
      if (expected == oracle.end()) {
        EXPECT_EQ(oc.status, ProbeStatus::kMiss) << "frame " << keys[i].frame;
        continue;
      }
      ASSERT_EQ(oc.status, ProbeStatus::kHit) << "frame " << keys[i].frame;
      ASSERT_EQ(static_cast<size_t>(oc.rows_count), expected->second.size());
      if (oc.rows_count > 0) {
        ASSERT_GE(oc.seg_index, 0);
      }
      for (int32_t r = 0; r < oc.rows_count; ++r) {
        Row got = res.segment(oc).RowAt(oc.rows_begin + r);
        const Row& want = expected->second[static_cast<size_t>(r)];
        ASSERT_EQ(got.size(), want.size());
        for (size_t c = 0; c < want.size(); ++c) {
          EXPECT_TRUE(got[c] == want[c])
              << got[c].ToString() << " vs " << want[c].ToString();
          EXPECT_EQ(got[c].type(), want[c].type())
              << "columnar reconstruction must not widen types";
        }
      }
    }
  }
  EXPECT_GT(reappends, 0);
  EXPECT_GT(evicted_keys, 0);
}

// ---------------------------------------------------------------------------
// 3. Zone-map skipping soundness
// ---------------------------------------------------------------------------

TEST(VectorizedFilterProperty, ZoneSkippingIsSound) {
  Lcg rng(0x5eed0003);
  Schema value_schema = DetectorValueSchema();
  // Scalar re-check schema: value columns plus the synthetic key columns
  // the zone check can reason about.
  Schema check_schema = value_schema;
  check_schema.AddField({"id", DataType::kInt64});
  MaterializedView view("v", value_schema);
  view.set_segment_frames(8);
  for (int64_t f = 0; f < 96; ++f) {
    PutRows(&view, ViewKey{f, -1}, RandomDetections(rng),
            static_cast<uint64_t>(f), 0);
  }
  std::vector<ViewKey> keys;
  for (int64_t f = 0; f < 96; ++f) keys.push_back(ViewKey{f, -1});

  // Well-typed residual predicates over value + key columns, including
  // always-false ones so skipping demonstrably fires.
  auto gen_leaf = [&](Lcg& r) -> ExprPtr {
    auto op = static_cast<CompareOp>(r.Below(6));
    switch (r.Below(5)) {
      case 0:
        return Expr::Compare(op, Expr::Column("area"),
                             Expr::Literal(Value(r.Unit() * 1.2 - 0.3)));
      case 1:
        return Expr::Compare(op, Expr::Column("score"),
                             Expr::Literal(Value(r.Unit())));
      case 2:
        return Expr::Compare(
            op, Expr::Column("label"),
            Expr::Literal(Value(std::string(kLabels[r.Below(5)]))));
      case 3:
        return Expr::Compare(op, Expr::Column("id"),
                             Expr::Literal(Value(r.Below(120))));
      default:
        return Expr::Compare(op, Expr::Column("obj"),
                             Expr::Literal(Value(r.Below(6) - 1)));
    }
  };
  int64_t total_skipped = 0;
  for (int iter = 0; iter < 200; ++iter) {
    ExprPtr pred = gen_leaf(rng);
    if (rng.Chance(0.5)) {
      pred = rng.Chance(0.5) ? Expr::And(pred, gen_leaf(rng))
                             : Expr::Or(pred, gen_leaf(rng));
    }
    ProbeResult res;
    view.ProbeBatch(
        keys,
        [&](const storage::ColumnarSegment& seg) {
          return exec::ZoneCanMatch(*pred, seg, value_schema, check_schema);
        },
        &res);
    total_skipped += res.segments_skipped;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (res.outcomes[i].status != ProbeStatus::kHitSkipped) continue;
      // Soundness: every stored row of a skipped hit fails the residual.
      auto rows = storage::ReadKey(view, keys[i]);
      ASSERT_TRUE(rows.has_value());
      for (const Row& vr : *rows) {
        Row check = vr;
        check.push_back(Value(keys[i].frame));  // "id"
        auto verdict = expr::EvaluateBool(*pred, check_schema, check);
        ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
        EXPECT_FALSE(verdict.value())
            << "skipped a row satisfying " << pred->ToString();
      }
    }
  }
  EXPECT_GT(total_skipped, 0) << "generator never exercised skipping";

  // Deterministic corner cases: an unsatisfiable residual skips every
  // segment; a tautology skips none and matches point lookups.
  ExprPtr never = Expr::Compare(CompareOp::kGt, Expr::Column("area"),
                                Expr::Literal(Value(100.0)));
  ProbeResult res;
  view.ProbeBatch(
      keys,
      [&](const storage::ColumnarSegment& seg) {
        return exec::ZoneCanMatch(*never, seg, value_schema, check_schema);
      },
      &res);
  EXPECT_EQ(res.segments_skipped, res.segments_probed);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_NE(res.outcomes[i].status, ProbeStatus::kHit);
  }
  ExprPtr always = Expr::Compare(CompareOp::kGe, Expr::Column("area"),
                                 Expr::Literal(Value(-100.0)));
  view.ProbeBatch(
      keys,
      [&](const storage::ColumnarSegment& seg) {
        return exec::ZoneCanMatch(*always, seg, value_schema, check_schema);
      },
      &res);
  EXPECT_EQ(res.segments_skipped, 0);
}

// An AND whose right conjunct is never true skips the segment only when
// its left conjunct cannot raise: the filter evaluates the left side on
// every row, and a skip must not swallow its error.
TEST(VectorizedFilterProperty, ZoneSkipKeepsLeftConjunctErrors) {
  Schema value_schema = DetectorValueSchema();
  Schema row_schema = value_schema;
  row_schema.AddField({"id", DataType::kInt64});
  MaterializedView view("v", value_schema);
  for (int64_t f = 0; f < 4; ++f) {
    PutRows(&view, ViewKey{f, -1},
            {{Value(int64_t{0}), Value(std::string("car")), Value(0.5),
              Value(0.9)}},
            static_cast<uint64_t>(f), 0);
  }
  const std::shared_ptr<const storage::ColumnarSegment> seg =
      view.SealedSegments().at(0).second;
  auto parse = [](const std::string& where) {
    auto e = parser::ParseExpression(where);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return e.MoveValue();
  };
  struct Case {
    std::string where;
    bool can_match;
  } cases[] = {
      {"area > 100", false},
      {"id < 300 AND area > 100", false},
      {"area > 100 AND label", false},
      {"label AND area > 100", true},
      {"id < 300 AND label AND area > 100", true},
      {"7 AND area > 100", true},
      {"nosuch = 1 AND area > 100", true},
      {"(id < 300 OR label) AND area > 100", true},
      {"label = 'car' AND area > 100", false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(exec::ZoneCanMatch(*parse(c.where), *seg, value_schema,
                                 row_schema),
              c.can_match)
        << c.where;
  }
}

// ---------------------------------------------------------------------------
// 4. Engine-level differential: zone skipping off/on
// ---------------------------------------------------------------------------

struct EngineTrace {
  std::vector<std::string> batches;
  std::vector<double> total_ms;
};

EngineTrace RunEngineSession(bool zones) {
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  video.num_frames = 300;  // trimmed for test runtime
  std::vector<std::string> queries =
      vbench::VbenchHigh(video.name, video.num_frames);
  engine::EngineOptions options;
  options.observability = false;
  options.zone_map_skipping = zones;
  auto engine_or = vbench::MakeEngine(options, video);
  EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  std::unique_ptr<engine::EvaEngine> engine = engine_or.MoveValue();
  EngineTrace trace;
  for (const std::string& sql : queries) {
    auto r = engine->Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) continue;
    trace.batches.push_back(r.value().batch.ToString(1 << 20));
    trace.total_ms.push_back(r.value().metrics.TotalMs());
  }
  return trace;
}

// A conjunct that raises before a never-true one: zone skipping must not
// turn the error into an empty result.
TEST(VectorizedFilterProperty, EngineErrorsInvariantUnderZoneSkipping) {
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  video.num_frames = 300;
  const std::string detect =
      "SELECT id, obj, label FROM short_ua_detrac CROSS APPLY "
      "FasterRCNNResNet50(frame) WHERE id < 300 AND ";
  for (const bool zones : {false, true}) {
    engine::EngineOptions options;
    options.observability = false;
    options.zone_map_skipping = zones;
    auto engine_or = vbench::MakeEngine(options, video);
    ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    std::unique_ptr<engine::EvaEngine> engine = engine_or.MoveValue();
    ASSERT_TRUE(engine->Execute(detect + "label = 'car';").ok());
    auto r = engine->Execute(detect + "label AND area > 100;");
    EXPECT_EQ(r.ok() ? r.value().batch.ToString(1 << 20)
                     : r.status().ToString(),
              "InvalidArgument: expression is not boolean: label")
        << "zone_map_skipping " << zones;
  }
}

TEST(VectorizedFilterProperty, EngineResultsInvariantUnderFlags) {
  EngineTrace base = RunEngineSession(true);
  EngineTrace no_zones = RunEngineSession(false);
  ASSERT_EQ(base.batches.size(), no_zones.batches.size());
  for (size_t q = 0; q < base.batches.size(); ++q) {
    // Rows are identical whether or not probes skip segments.
    EXPECT_EQ(base.batches[q], no_zones.batches[q]) << "query " << q;
  }
}

}  // namespace
}  // namespace eva
