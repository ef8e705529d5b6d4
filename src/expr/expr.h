#ifndef EVA_EXPR_EXPR_H_
#define EVA_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace eva::expr {

/// Node kinds of the scalar expression AST.
enum class ExprKind {
  kColumn = 0,  // column reference
  kLiteral,     // constant value
  kCompare,     // binary comparison
  kAnd,
  kOr,
  kNot,
  kUdfCall,     // UDF invocation, e.g. CarType(frame, bbox)
  kStar,        // '*' in SELECT lists
  kCountStar,   // COUNT(*)
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);
CompareOp MirrorOp(CompareOp op);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable scalar expression tree. Queries reference UDF outputs through
/// kUdfCall nodes; after the optimizer unpacks UDF-based predicates into
/// APPLY operators (§4.4), a UDF call evaluates by reading the output
/// column the apply operator annotated onto the row (named after the UDF).
class Expr {
 public:
  static ExprPtr Column(std::string name);
  static ExprPtr Literal(Value v);
  static ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr And(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr child);
  static ExprPtr UdfCall(std::string name, std::vector<std::string> args,
                         std::string accuracy = "");
  static ExprPtr Star();
  static ExprPtr CountStar();

  ExprKind kind() const { return kind_; }
  /// Column name, UDF name, or empty.
  const std::string& name() const { return name_; }
  const Value& value() const { return value_; }
  CompareOp op() const { return op_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  /// Argument column names of a UDF call.
  const std::vector<std::string>& args() const { return args_; }
  /// ACCURACY property requested for a logical UDF ("", "LOW", ...).
  const std::string& accuracy() const { return accuracy_; }

  /// True if any node in this tree is a UDF call.
  bool ContainsUdf() const;
  /// Names of all UDFs referenced in this tree (depth-first, deduped).
  std::vector<std::string> ReferencedUdfs() const;

  std::string ToString() const;

 private:
  explicit Expr(ExprKind kind) : kind_(kind) {}

  ExprKind kind_;
  std::string name_;
  Value value_;
  CompareOp op_ = CompareOp::kEq;
  std::vector<ExprPtr> children_;
  std::vector<std::string> args_;
  std::string accuracy_;
};

/// Flattens nested ANDs into a conjunct list (the optimizer's canonical
/// selection split).
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr);

/// Rebuilds an AND tree from a conjunct list; nullptr for an empty list.
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts);

}  // namespace eva::expr

#endif  // EVA_EXPR_EXPR_H_
