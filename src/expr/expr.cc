#include "expr/expr.h"

#include <algorithm>
#include <sstream>

namespace eva::expr {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // = and != are symmetric
  }
}

ExprPtr Expr::Column(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kColumn));
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kLiteral));
  e->value_ = std::move(v);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kCompare));
  e->op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kAnd));
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kOr));
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Not(ExprPtr child) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kNot));
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::UdfCall(std::string name, std::vector<std::string> args,
                      std::string accuracy) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kUdfCall));
  e->name_ = std::move(name);
  e->args_ = std::move(args);
  e->accuracy_ = std::move(accuracy);
  return e;
}

ExprPtr Expr::Star() {
  return std::shared_ptr<Expr>(new Expr(ExprKind::kStar));
}

ExprPtr Expr::CountStar() {
  return std::shared_ptr<Expr>(new Expr(ExprKind::kCountStar));
}

bool Expr::ContainsUdf() const {
  if (kind_ == ExprKind::kUdfCall) return true;
  for (const ExprPtr& c : children_) {
    if (c->ContainsUdf()) return true;
  }
  return false;
}

std::vector<std::string> Expr::ReferencedUdfs() const {
  std::vector<std::string> out;
  if (kind_ == ExprKind::kUdfCall) out.push_back(name_);
  for (const ExprPtr& c : children_) {
    for (std::string& u : c->ReferencedUdfs()) {
      if (std::find(out.begin(), out.end(), u) == out.end()) {
        out.push_back(std::move(u));
      }
    }
  }
  return out;
}

std::string Expr::ToString() const {
  std::ostringstream os;
  switch (kind_) {
    case ExprKind::kColumn:
      os << name_;
      break;
    case ExprKind::kLiteral:
      if (value_.type() == DataType::kString) {
        os << "'" << value_.ToString() << "'";
      } else {
        os << value_.ToString();
      }
      break;
    case ExprKind::kCompare:
      os << children_[0]->ToString() << " " << CompareOpName(op_) << " "
         << children_[1]->ToString();
      break;
    case ExprKind::kAnd:
      os << "(" << children_[0]->ToString() << " AND "
         << children_[1]->ToString() << ")";
      break;
    case ExprKind::kOr:
      os << "(" << children_[0]->ToString() << " OR "
         << children_[1]->ToString() << ")";
      break;
    case ExprKind::kNot:
      os << "NOT (" << children_[0]->ToString() << ")";
      break;
    case ExprKind::kUdfCall: {
      os << name_ << "(";
      for (size_t i = 0; i < args_.size(); ++i) {
        if (i > 0) os << ", ";
        os << args_[i];
      }
      os << ")";
      if (!accuracy_.empty()) os << " ACCURACY '" << accuracy_ << "'";
      break;
    }
    case ExprKind::kStar:
      os << "*";
      break;
    case ExprKind::kCountStar:
      os << "COUNT(*)";
      break;
  }
  return os.str();
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (!expr) return out;
  if (expr->kind() == ExprKind::kAnd) {
    for (const ExprPtr& c : expr->children()) {
      for (ExprPtr& sub : SplitConjuncts(c)) out.push_back(std::move(sub));
    }
  } else {
    out.push_back(expr);
  }
  return out;
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc;
  for (const ExprPtr& c : conjuncts) {
    acc = acc ? Expr::And(acc, c) : c;
  }
  return acc;
}

}  // namespace eva::expr
