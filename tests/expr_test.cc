#include <gtest/gtest.h>

#include "exec/vector_filter.h"
#include "expr/expr.h"
#include "expr/symbolic_bridge.h"
#include "parser/parser.h"

namespace eva::expr {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"label", DataType::kString},
                 {"area", DataType::kDouble},
                 {"CarType", DataType::kString}});
}

Row TestRow(int64_t id, const std::string& label, double area,
            const std::string& car_type) {
  return {Value(id), Value(label), Value(area), Value(car_type)};
}

// The predicate's verdict on `row`, evaluated by FilterProgram over a
// one-row chunk.
Result<bool> EvaluateRow(const Expr& e, const Schema& schema,
                         const Row& row) {
  exec::Chunk chunk(schema);
  chunk.AppendRow(row);
  std::vector<uint8_t> keep;
  EVA_RETURN_IF_ERROR(
      exec::FilterProgram::Compile(e, schema).Execute(chunk, &keep));
  return keep[0] != 0;
}

TEST(ExprTest, BuildAndPrint) {
  ExprPtr e = Expr::And(
      Expr::Compare(CompareOp::kGt, Expr::Column("id"),
                    Expr::Literal(Value(int64_t{5}))),
      Expr::Compare(CompareOp::kEq,
                    Expr::UdfCall("CarType", {"frame", "bbox"}),
                    Expr::Literal(Value("Nissan"))));
  EXPECT_EQ(e->ToString(),
            "(id > 5 AND CarType(frame, bbox) = 'Nissan')");
  EXPECT_TRUE(e->ContainsUdf());
  EXPECT_EQ(e->ReferencedUdfs(), std::vector<std::string>{"CarType"});
}

TEST(ExprTest, EvaluateComparisons) {
  Schema schema = TestSchema();
  Row row = TestRow(7, "car", 0.4, "Nissan");
  struct Case {
    const char* text;
    bool expected;
  } cases[] = {
      {"id > 5", true},           {"id > 7", false},
      {"id >= 7", true},          {"id != 7", false},
      {"label = 'car'", true},    {"label != 'car'", false},
      {"area > 0.3", true},       {"area <= 0.3", false},
      {"5 < id", true},           {"0.5 >= area", true},
  };
  for (const Case& c : cases) {
    auto e = parser::ParseExpression(c.text);
    ASSERT_TRUE(e.ok()) << c.text;
    auto r = EvaluateRow(*e.value(), schema, row);
    ASSERT_TRUE(r.ok()) << c.text;
    EXPECT_EQ(r.value(), c.expected) << c.text;
  }
}

TEST(ExprTest, EvaluateBooleanLogicWithShortCircuit) {
  Schema schema = TestSchema();
  Row row = TestRow(7, "car", 0.4, "Nissan");
  auto check = [&](const char* text, bool expected) {
    auto e = parser::ParseExpression(text);
    ASSERT_TRUE(e.ok()) << text;
    auto r = EvaluateRow(*e.value(), schema, row);
    ASSERT_TRUE(r.ok()) << text;
    EXPECT_EQ(r.value(), expected) << text;
  };
  check("id > 5 AND label = 'car'", true);
  check("id > 50 OR label = 'car'", true);
  check("NOT id > 50", true);
  check("NOT (id > 5 AND area > 0.3)", false);
  // The right side is not reached: no bind error, no type error.
  check("id > 5 OR bogus = 1", true);
  check("id > 50 AND bogus = 1", false);
  check("id > 50 AND label", false);
  check("label = 'car' OR area", true);
}

TEST(ExprTest, NullComparisonsAreFalse) {
  Schema schema = TestSchema();
  Row row = {Value(int64_t{1}), Value::Null(), Value(0.2), Value::Null()};
  auto e = parser::ParseExpression("label = 'car'");
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(EvaluateRow(*e.value(), schema, row).value());
  e = parser::ParseExpression("label != 'car'");
  EXPECT_FALSE(EvaluateRow(*e.value(), schema, row).value());
  // NOT of a false comparison is true, a NULL in a logical position false.
  e = parser::ParseExpression("NOT label = 'car'");
  EXPECT_TRUE(EvaluateRow(*e.value(), schema, row).value());
  e = parser::ParseExpression("CarType");
  EXPECT_FALSE(EvaluateRow(*e.value(), schema, row).value());
}

TEST(ExprTest, UdfCallReadsAnnotatedColumn) {
  Schema schema = TestSchema();
  Row row = TestRow(7, "car", 0.4, "Nissan");
  auto e = parser::ParseExpression("CarType(frame, bbox) = 'Nissan'");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(EvaluateRow(*e.value(), schema, row).value());
}

TEST(ExprTest, UnknownColumnIsBindError) {
  Schema schema = TestSchema();
  Row row = TestRow(7, "car", 0.4, "Nissan");
  auto e = parser::ParseExpression("bogus = 1");
  ASSERT_TRUE(e.ok());
  auto r = EvaluateRow(*e.value(), schema, row);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
  EXPECT_EQ(r.status().message(), "unknown column: bogus");
  e = parser::ParseExpression("Bogus(frame) = 'x'");
  ASSERT_TRUE(e.ok());
  r = EvaluateRow(*e.value(), schema, row);
  EXPECT_EQ(r.status().ToString(),
            "BindError: UDF output column not materialized: Bogus");
}

TEST(ExprTest, SplitAndCombineConjuncts) {
  auto e = parser::ParseExpression(
      "id > 5 AND label = 'car' AND (area > 0.3 AND id < 10)");
  ASSERT_TRUE(e.ok());
  auto conjuncts = SplitConjuncts(e.value());
  EXPECT_EQ(conjuncts.size(), 4u);
  ExprPtr combined = CombineConjuncts(conjuncts);
  Schema schema = TestSchema();
  EXPECT_TRUE(
      EvaluateRow(*combined, schema, TestRow(7, "car", 0.4, "x")).value());
  EXPECT_FALSE(
      EvaluateRow(*combined, schema, TestRow(12, "car", 0.4, "x"))
          .value());
  EXPECT_EQ(CombineConjuncts({}), nullptr);
}

// --- symbolic bridge -------------------------------------------------------

symbolic::DimKind Kinds(const std::string& dim) {
  if (dim == "id") return symbolic::DimKind::kInteger;
  if (dim == "area") return symbolic::DimKind::kReal;
  return symbolic::DimKind::kCategorical;
}

TEST(SymbolicBridgeTest, ConvertsConjunction) {
  auto e = parser::ParseExpression(
      "id >= 100 AND id < 200 AND label = 'car' AND area > 0.3");
  ASSERT_TRUE(e.ok());
  auto p = ExprToPredicate(*e.value(), Kinds);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p.value().conjuncts().size(), 1u);
  auto at = [&](int64_t id, const char* label, double area) {
    return p.value().Evaluate([&](const std::string& dim) -> Value {
      if (dim == "id") return Value(id);
      if (dim == "area") return Value(area);
      return Value(std::string(label));
    });
  };
  EXPECT_TRUE(at(150, "car", 0.4));
  EXPECT_FALSE(at(150, "bus", 0.4));
  EXPECT_FALSE(at(150, "car", 0.2));
  EXPECT_FALSE(at(250, "car", 0.4));
}

TEST(SymbolicBridgeTest, ConvertsDisjunctionAndNegation) {
  auto e = parser::ParseExpression("NOT (id < 10 OR id >= 20)");
  ASSERT_TRUE(e.ok());
  auto p = ExprToPredicate(*e.value(), Kinds);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().Evaluate(
      [](const std::string&) { return Value(int64_t{15}); }));
  EXPECT_FALSE(p.value().Evaluate(
      [](const std::string&) { return Value(int64_t{5}); }));
}

TEST(SymbolicBridgeTest, UdfCallBecomesDimension) {
  auto e = parser::ParseExpression("CarType(frame, bbox) = 'Nissan'");
  ASSERT_TRUE(e.ok());
  auto p = ExprToPredicate(*e.value(), Kinds);
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p.value().conjuncts().size(), 1u);
  EXPECT_TRUE(p.value().conjuncts()[0].Constrains("CarType"));
}

TEST(SymbolicBridgeTest, MirrorsLiteralOnLeft) {
  auto e = parser::ParseExpression("100 <= id");
  ASSERT_TRUE(e.ok());
  auto p = ExprToPredicate(*e.value(), Kinds);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().Evaluate(
      [](const std::string&) { return Value(int64_t{100}); }));
  EXPECT_FALSE(p.value().Evaluate(
      [](const std::string&) { return Value(int64_t{99}); }));
}

TEST(SymbolicBridgeTest, RejectsColumnVsColumn) {
  auto e = parser::ParseExpression("id = obj");
  ASSERT_TRUE(e.ok());
  auto p = ExprToPredicate(*e.value(), Kinds);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kNotImplemented);
}

TEST(SymbolicBridgeTest, RejectsOrderedCategorical) {
  auto e = parser::ParseExpression("label > 'car'");
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(ExprToPredicate(*e.value(), Kinds).ok());
}

}  // namespace
}  // namespace eva::expr
