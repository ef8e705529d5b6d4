#include "exec/vector_filter.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace eva::exec {

namespace {

using expr::CompareOp;
using expr::Expr;
using expr::ExprKind;

bool CmpKeep(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

// What evaluating comparison operand `e` raises on every row: OK for a
// literal and a bound column or UDF output (after the rewrite, a UDF's
// output is the column named after it). `cmp` is named when the operand
// is of a kind the parser never puts there.
Status OperandError(const Expr& e, const Expr& cmp, const Schema& schema) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return Status::OK();
    case ExprKind::kColumn:
      if (schema.IndexOf(e.name()) >= 0) return Status::OK();
      return Status::BindError("unknown column: " + e.name());
    case ExprKind::kUdfCall:
      if (schema.IndexOf(e.name()) >= 0) return Status::OK();
      return Status::BindError("UDF output column not materialized: " +
                               e.name());
    case ExprKind::kStar:
    case ExprKind::kCountStar:
      return Status::InvalidArgument(
          "star expressions are not scalar-evaluable");
    default:
      return Status::NotImplemented(
          "comparison operand is not a column, UDF call or literal: " +
          cmp.ToString());
  }
}

// True when `e` in a logical position can raise on some row, so it needs
// the mask of the rows that reach it.
bool CanRaise(const Expr& e, const Schema& schema) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return !e.value().is_null() && e.value().type() != DataType::kBool;
    case ExprKind::kCompare:
      return !OperandError(*e.children()[0], e, schema).ok() ||
             !OperandError(*e.children()[1], e, schema).ok();
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
      return std::any_of(
          e.children().begin(), e.children().end(),
          [&](const expr::ExprPtr& c) { return CanRaise(*c, schema); });
    default:
      return true;  // a bare column may hold a non-bool cell; `*` raises
  }
}

}  // namespace

int FilterProgram::Emit(Instr ins) {
  ins.dst = num_regs_++;
  instrs_.push_back(std::move(ins));
  return instrs_.back().dst;
}

int FilterProgram::EmitError(Status error, int live) {
  return Emit(
      {.code = OpCode::kError, .guard = live, .error = std::move(error)});
}

int FilterProgram::CompileNode(const Expr& e, const Schema& schema,
                               int live) {
  constexpr char kNotBool[] = "expression is not boolean: ";
  switch (e.kind()) {
    case ExprKind::kLiteral: {
      const Value& v = e.value();
      if (!v.is_null() && v.type() != DataType::kBool) {
        return EmitError(Status::InvalidArgument(kNotBool + e.ToString()),
                         live);
      }
      return Emit({.code = OpCode::kConst,
                   .bval = !v.is_null() && v.AsBool()});  // NULL -> false
    }
    case ExprKind::kColumn:
    case ExprKind::kUdfCall: {
      Status unbound = OperandError(e, e, schema);
      if (!unbound.ok()) return EmitError(std::move(unbound), live);
      return Emit(
          {.code = OpCode::kBoolCol,
           .col_a = schema.IndexOf(e.name()),
           .guard = live,
           .error = Status::InvalidArgument(kNotBool + e.ToString())});
    }
    case ExprKind::kCompare: {
      const Expr& l = *e.children()[0];
      const Expr& r = *e.children()[1];
      // Both sides are evaluated, left first.
      for (const Expr* side : {&l, &r}) {
        Status s = OperandError(*side, e, schema);
        if (!s.ok()) return EmitError(std::move(s), live);
      }
      const bool l_lit = l.kind() == ExprKind::kLiteral;
      const bool r_lit = r.kind() == ExprKind::kLiteral;
      if (l_lit && r_lit) {
        return Emit({.code = OpCode::kConst,
                     .bval = !l.value().is_null() && !r.value().is_null() &&
                             CmpKeep(e.op(), l.value().Compare(r.value()))});
      }
      if (l_lit || r_lit) {
        return Emit({.code = OpCode::kCmpColLit,
                     .cmp = e.op(),
                     .col_a = schema.IndexOf((l_lit ? r : l).name()),
                     .lit = (l_lit ? l : r).value(),
                     .lit_left = l_lit});
      }
      return Emit({.code = OpCode::kCmpColCol,
                   .cmp = e.op(),
                   .col_a = schema.IndexOf(l.name()),
                   .col_b = schema.IndexOf(r.name())});
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const bool is_and = e.kind() == ExprKind::kAnd;
      const int a = CompileNode(*e.children()[0], schema, live);
      // The right side is reached where the left side is true (AND) or
      // false (OR); that mask is built only when the right side can raise.
      int live_b = live;
      if (CanRaise(*e.children()[1], schema)) {
        live_b = is_and ? a : Emit({.code = OpCode::kNot, .src_a = a});
        if (live >= 0) {
          live_b =
              Emit({.code = OpCode::kAnd, .src_a = live, .src_b = live_b});
        }
      }
      const int b = CompileNode(*e.children()[1], schema, live_b);
      return Emit({.code = is_and ? OpCode::kAnd : OpCode::kOr,
                   .src_a = a,
                   .src_b = b});
    }
    case ExprKind::kNot:
      return Emit({.code = OpCode::kNot,
                   .src_a = CompileNode(*e.children()[0], schema, live)});
    case ExprKind::kStar:
    case ExprKind::kCountStar:
      break;
  }
  return EmitError(OperandError(e, e, schema), live);
}

FilterProgram FilterProgram::Compile(const Expr& e, const Schema& schema) {
  FilterProgram p;
  // The last instruction's register is the root by construction.
  p.CompileNode(e, schema, -1);
  return p;
}

FilterProgram FilterProgram::CompileItem(const Expr& e,
                                         const Schema& schema) {
  FilterProgram p;
  switch (e.kind()) {
    case ExprKind::kLiteral:
      p.item_const_ = true;
      p.item_value_ = e.value();
      break;
    case ExprKind::kCompare:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
      p.CompileNode(e, schema, -1);
      break;
    default:  // an unbound name, or `*`
      p.EmitError(OperandError(e, e, schema), -1);
      break;
  }
  return p;
}

namespace {

using storage::ColumnVec;

// Value::Compare's three-way result for two numbers of one type: Int64
// pairs exactly, anything with a Double as doubles (NaN compares 1).
template <typename T>
int Sign3(T a, T b) {
  return a == b ? 0 : (a < b ? -1 : 1);
}

// Value::Compare's rank of the non-null cells of a lane.
int EncRank(ColumnVec::Enc enc) {
  switch (enc) {
    case ColumnVec::Enc::kBool:
      return 1;
    case ColumnVec::Enc::kInt64:
    case ColumnVec::Enc::kDouble:
      return 2;
    case ColumnVec::Enc::kDict:
      break;
  }
  return 3;
}

int ValueRank(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
      return 2;
    case DataType::kString:
      return 3;
  }
  return 4;
}

// dst[r] = CmpKeep(op, cmp(r)) for r < n, with the operator switch hoisted
// out of the row loop.
template <typename CmpFn>
void CmpLoop(CompareOp op, size_t n, CmpFn cmp, uint8_t* dst) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t r = 0; r < n; ++r) dst[r] = cmp(r) == 0;
      break;
    case CompareOp::kNe:
      for (size_t r = 0; r < n; ++r) dst[r] = cmp(r) != 0;
      break;
    case CompareOp::kLt:
      for (size_t r = 0; r < n; ++r) dst[r] = cmp(r) < 0;
      break;
    case CompareOp::kLe:
      for (size_t r = 0; r < n; ++r) dst[r] = cmp(r) <= 0;
      break;
    case CompareOp::kGt:
      for (size_t r = 0; r < n; ++r) dst[r] = cmp(r) > 0;
      break;
    case CompareOp::kGe:
      for (size_t r = 0; r < n; ++r) dst[r] = cmp(r) >= 0;
      break;
  }
}

// A NULL cell fails every comparison.
void MaskNulls(const ColumnVec& lane, size_t n, uint8_t* dst) {
  if (lane.null_bits_.empty()) return;
  for (size_t r = 0; r < n; ++r) {
    if (lane.NullAt(r)) dst[r] = 0;
  }
}

// CmpLoop over Sign3(cell(r), lit), or Sign3(lit, cell(r)) when the
// literal was written first.
template <typename T, typename CellFn>
void CmpCellsLit(CompareOp op, bool lit_left, size_t n, CellFn cell, T lit,
                 uint8_t* dst) {
  if (lit_left) {
    CmpLoop(op, n, [&](size_t r) { return Sign3(lit, cell(r)); }, dst);
  } else {
    CmpLoop(op, n, [&](size_t r) { return Sign3(cell(r), lit); }, dst);
  }
}

// dst = !null(cell) && cmp(cell, lit) (cmp(lit, cell) when lit_left) over
// a chunk lane; lit is non-null.
void CompareLaneLit(const ColumnVec& lane, CompareOp op, const Value& lit,
                    bool lit_left, size_t n, uint8_t* dst) {
  int lane_rank = EncRank(lane.enc_);
  int lit_rank = ValueRank(lit.type());
  if (lit_left) std::swap(lane_rank, lit_rank);
  if (lane_rank != lit_rank) {
    // Cross-rank comparisons are one constant for every non-null cell.
    std::memset(dst, CmpKeep(op, lane_rank < lit_rank ? -1 : 1) ? 1 : 0, n);
    MaskNulls(lane, n, dst);
    return;
  }
  switch (lane.enc_) {
    case ColumnVec::Enc::kInt64: {
      const int64_t* v = lane.i64_.data();
      if (lit.type() == DataType::kInt64) {
        CmpCellsLit(op, lit_left, n, [v](size_t r) { return v[r]; },
                    lit.AsInt64(), dst);
      } else {
        CmpCellsLit(op, lit_left, n,
                    [v](size_t r) { return static_cast<double>(v[r]); },
                    lit.AsDouble(), dst);
      }
      break;
    }
    case ColumnVec::Enc::kDouble: {
      const double* v = lane.f64_.data();
      CmpCellsLit(op, lit_left, n, [v](size_t r) { return v[r]; },
                  lit.AsDouble(), dst);
      break;
    }
    case ColumnVec::Enc::kBool: {
      const uint8_t* v = lane.b8_.data();
      CmpCellsLit(op, lit_left, n, [v](size_t r) { return v[r] != 0; },
                  lit.AsBool(), dst);
      break;
    }
    case ColumnVec::Enc::kDict: {
      // One verdict per dictionary entry, then one read per code. A NULL
      // row reads code 0, which an all-NULL lane's empty dictionary lacks.
      const std::string& l = lit.AsString();
      std::vector<uint8_t> verdict(std::max<size_t>(lane.dict_.size(), 1));
      for (size_t k = 0; k < lane.dict_.size(); ++k) {
        const int c = lit_left ? l.compare(lane.dict_[k])
                               : lane.dict_[k].compare(l);
        verdict[k] = CmpKeep(op, c == 0 ? 0 : (c < 0 ? -1 : 1));
      }
      const int32_t* codes = lane.codes_.data();
      for (size_t r = 0; r < n; ++r) {
        dst[r] = verdict[static_cast<size_t>(codes[r])];
      }
      break;
    }
  }
  MaskNulls(lane, n, dst);
}

// dst = !null(a) && !null(b) && cmp(a, b), row by row over two lanes.
// Column-column comparisons are rare (no vbench query has one), so they
// stay on Value::Compare.
void CompareLanes(const ColumnVec& a, const ColumnVec& b, CompareOp op,
                  size_t n, uint8_t* dst) {
  for (size_t r = 0; r < n; ++r) {
    const Value va = a.At(r);
    const Value vb = b.At(r);
    dst[r] = !va.is_null() && !vb.is_null() && CmpKeep(op, va.Compare(vb));
  }
}

}  // namespace

Status FilterProgram::Execute(const Chunk& chunk,
                              std::vector<uint8_t>* keep) const {
  const size_t n = chunk.num_rows();
  keep->assign(n, 0);
  if (n == 0) return Status::OK();
  // One mask per register, flat buffer.
  std::vector<uint8_t> regs(static_cast<size_t>(num_regs_) * n, 0);
  auto reg = [&](int r) { return regs.data() + static_cast<size_t>(r) * n; };
  // The first row that raises, and the instruction it raises at.
  size_t err_row = n;
  const Status* err = nullptr;
  for (const Instr& ins : instrs_) {
    uint8_t* dst = reg(ins.dst);
    const uint8_t* live = ins.guard < 0 ? nullptr : reg(ins.guard);
    // Records row r's error unless an earlier row (or an earlier
    // instruction on this row) already raised.
    auto raise = [&](size_t r) {
      if (r < err_row && (live == nullptr || live[r] != 0)) {
        err_row = r;
        err = &ins.error;
      }
    };
    switch (ins.code) {
      case OpCode::kCmpColLit:
        if (ins.lit.is_null()) break;  // NULL comparand: all false
        CompareLaneLit(chunk.lane(static_cast<size_t>(ins.col_a)), ins.cmp,
                       ins.lit, ins.lit_left, n, dst);
        break;
      case OpCode::kCmpColCol:
        CompareLanes(chunk.lane(static_cast<size_t>(ins.col_a)),
                     chunk.lane(static_cast<size_t>(ins.col_b)), ins.cmp, n,
                     dst);
        break;
      case OpCode::kBoolCol: {
        const ColumnVec& lane = chunk.lane(static_cast<size_t>(ins.col_a));
        if (lane.enc_ == ColumnVec::Enc::kBool) {
          for (size_t r = 0; r < n; ++r) dst[r] = lane.b8_[r];
          MaskNulls(lane, n, dst);
        } else {
          // A non-bool lane: every non-null cell is non-boolean.
          for (size_t r = 0; r < err_row; ++r) {
            if (!lane.NullAt(r)) raise(r);
          }
        }
        break;
      }
      case OpCode::kError:
        for (size_t r = 0; r < err_row; ++r) raise(r);
        break;
      case OpCode::kConst:
        std::memset(dst, ins.bval ? 1 : 0, n);
        break;
      case OpCode::kAnd: {
        const uint8_t* a = reg(ins.src_a);
        const uint8_t* b = reg(ins.src_b);
        for (size_t r = 0; r < n; ++r) dst[r] = a[r] & b[r];
        break;
      }
      case OpCode::kOr: {
        const uint8_t* a = reg(ins.src_a);
        const uint8_t* b = reg(ins.src_b);
        for (size_t r = 0; r < n; ++r) dst[r] = a[r] | b[r];
        break;
      }
      case OpCode::kNot: {
        const uint8_t* a = reg(ins.src_a);
        for (size_t r = 0; r < n; ++r) dst[r] = a[r] ^ 1;
        break;
      }
    }
  }
  if (err != nullptr) return *err;
  const uint8_t* root = reg(instrs_.back().dst);
  std::memcpy(keep->data(), root, n);
  return Status::OK();
}

Status FilterProgram::ExecuteItem(const Chunk& chunk,
                                  storage::TailLane* out) const {
  const size_t n = chunk.num_rows();
  if (item_const_) {
    for (size_t r = 0; r < n; ++r) out->Append(item_value_);
    return Status::OK();
  }
  std::vector<uint8_t> verdict;
  EVA_RETURN_IF_ERROR(Execute(chunk, &verdict));
  for (size_t r = 0; r < n; ++r) out->AppendBool(verdict[r] != 0);
  return Status::OK();
}

}  // namespace eva::exec
