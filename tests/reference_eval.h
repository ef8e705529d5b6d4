// The row-at-a-time expression interpreter, kept for tests only as the
// reference that FilterProgram (src/exec/vector_filter.h), the engine's one
// evaluator over execution chunks, is checked against row by row.

#ifndef EVA_TESTS_REFERENCE_EVAL_H_
#define EVA_TESTS_REFERENCE_EVAL_H_

#include "common/row.h"
#include "common/status.h"
#include "common/value.h"
#include "expr/expr.h"

namespace eva::expr {

inline Result<bool> EvaluateBool(const Expr& expr, const Schema& schema,
                                 const Row& row);

/// Evaluates a scalar expression against one row. Comparisons involving
/// NULL evaluate to false (simplified three-valued logic); UDF calls read
/// the column named after the UDF. Returns an error for kStar/kCountStar
/// (those are handled by operators, not scalar evaluation).
inline Result<Value> EvaluateScalar(const Expr& expr, const Schema& schema,
                                    const Row& row) {
  switch (expr.kind()) {
    case ExprKind::kColumn: {
      int idx = schema.IndexOf(expr.name());
      if (idx < 0) {
        return Status::BindError("unknown column: " + expr.name());
      }
      return row[static_cast<size_t>(idx)];
    }
    case ExprKind::kUdfCall: {
      // After the rewrite, the UDF's output lives in a column named after
      // the UDF (annotated by the APPLY operator).
      int idx = schema.IndexOf(expr.name());
      if (idx < 0) {
        return Status::BindError("UDF output column not materialized: " +
                                 expr.name());
      }
      return row[static_cast<size_t>(idx)];
    }
    case ExprKind::kLiteral:
      return expr.value();
    case ExprKind::kCompare: {
      EVA_ASSIGN_OR_RETURN(
          Value lhs, EvaluateScalar(*expr.children()[0], schema, row));
      EVA_ASSIGN_OR_RETURN(
          Value rhs, EvaluateScalar(*expr.children()[1], schema, row));
      if (lhs.is_null() || rhs.is_null()) return Value(false);
      int c = lhs.Compare(rhs);
      bool out = false;
      switch (expr.op()) {
        case CompareOp::kEq:
          out = c == 0;
          break;
        case CompareOp::kNe:
          out = c != 0;
          break;
        case CompareOp::kLt:
          out = c < 0;
          break;
        case CompareOp::kLe:
          out = c <= 0;
          break;
        case CompareOp::kGt:
          out = c > 0;
          break;
        case CompareOp::kGe:
          out = c >= 0;
          break;
      }
      return Value(out);
    }
    case ExprKind::kAnd: {
      EVA_ASSIGN_OR_RETURN(
          bool l, EvaluateBool(*expr.children()[0], schema, row));
      if (!l) return Value(false);
      EVA_ASSIGN_OR_RETURN(
          bool r, EvaluateBool(*expr.children()[1], schema, row));
      return Value(r);
    }
    case ExprKind::kOr: {
      EVA_ASSIGN_OR_RETURN(
          bool l, EvaluateBool(*expr.children()[0], schema, row));
      if (l) return Value(true);
      EVA_ASSIGN_OR_RETURN(
          bool r, EvaluateBool(*expr.children()[1], schema, row));
      return Value(r);
    }
    case ExprKind::kNot: {
      EVA_ASSIGN_OR_RETURN(
          bool c, EvaluateBool(*expr.children()[0], schema, row));
      return Value(!c);
    }
    case ExprKind::kStar:
    case ExprKind::kCountStar:
      return Status::InvalidArgument(
          "star expressions are not scalar-evaluable");
  }
  return Status::Internal("unreachable expression kind");
}

/// Evaluates a (boolean) expression to a predicate decision for one row.
inline Result<bool> EvaluateBool(const Expr& expr, const Schema& schema,
                                 const Row& row) {
  EVA_ASSIGN_OR_RETURN(Value v, EvaluateScalar(expr, schema, row));
  if (v.is_null()) return false;
  if (v.type() == DataType::kBool) return v.AsBool();
  return Status::InvalidArgument("expression is not boolean: " +
                                 expr.ToString());
}

}  // namespace eva::expr

#endif  // EVA_TESTS_REFERENCE_EVAL_H_
