#ifndef EVA_EXEC_VECTOR_FILTER_H_
#define EVA_EXEC_VECTOR_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/chunk.h"
#include "expr/expr.h"
#include "storage/column_segment.h"

namespace eva::exec {

/// The one evaluator of expr::Expr over execution chunks: a predicate or
/// select item compiled once per query into a flat register program,
/// evaluated column-at-a-time over whole chunks with uint8 masks. The
/// semantics are those of reading the expression row by row, in row
/// order: a comparison with a NULL side is false, a NULL in a logical
/// position is false, NOT of a NULL child is true, AND's right side is
/// reached only where its left side is true and OR's only where it is
/// false.
///
/// Column-literal comparisons read the chunk's lanes without building
/// Values: typed numeric lanes follow Value::Compare's Int64/Double rules,
/// a string lane gets one verdict per dictionary entry and then reads
/// codes, and a lane and literal of different type ranks give one verdict
/// for every non-null cell. Column-column comparisons compare Values per
/// cell, and a literal-literal comparison folds to a constant.
///
/// Every expression compiles. An unbound column or UDF output, a
/// non-boolean literal in a logical position, `*` / COUNT(*) and a
/// comparison operand the parser never builds compile to an error
/// instruction. An error instruction, and a bare column over a non-null
/// non-boolean cell, fail only on rows that reach them (through guard
/// masks of the AND/OR left sides above, built only above an instruction
/// that can raise): Execute returns the error of the lowest such row, the
/// earliest instruction in evaluation order on ties.
class FilterProgram {
 public:
  /// Compiles predicate `e` against `schema`.
  static FilterProgram Compile(const expr::Expr& e, const Schema& schema);

  /// Compiles select item `e`, which is not a bound column or UDF output
  /// (the caller moves those lanes as they are): a literal gives its value
  /// on every row, an unbound name its bind error, and a comparison or
  /// logical expression its verdict as a Bool.
  static FilterProgram CompileItem(const expr::Expr& e, const Schema& schema);

  /// Evaluates the predicate over all rows of `chunk`; keep->at(r) is 1
  /// when row r passes. `keep` is resized to the chunk row count.
  Status Execute(const Chunk& chunk, std::vector<uint8_t>* keep) const;

  /// Appends the select item's value on every row of `chunk` to `out`.
  Status ExecuteItem(const Chunk& chunk, storage::TailLane* out) const;

 private:
  enum class OpCode : uint8_t {
    kCmpColLit = 0,  // dst = !null(col_a) && cmp(col_a, lit), or
                     // cmp(lit, col_a) when lit_left
    kCmpColCol,      // dst = !null(a) && !null(b) && cmp(a, b)
    kBoolCol,        // dst = bool cell (null -> 0; non-bool -> error)
    kConst,          // dst = bval
    kAnd,            // dst = src_a & src_b
    kOr,             // dst = src_a | src_b
    kNot,            // dst = !src_a
    kError,          // dst = 0; `error` on the first live row
  };

  struct Instr {
    OpCode code{};
    expr::CompareOp cmp = expr::CompareOp::kEq;
    int col_a = -1;  // batch column operands
    int col_b = -1;
    int src_a = -1;  // mask register operands
    int src_b = -1;
    int dst = 0;
    // kBoolCol / kError: the mask of rows that reach the instruction, or
    // -1 for every row.
    int guard = -1;
    Value lit{};
    // The literal was written first. Kept as written, not mirrored:
    // Value::Compare ranks NaN above every number from both sides.
    bool lit_left = false;
    bool bval = false;
    Status error{};  // kBoolCol / kError: the status a live row raises
  };

  /// Emits `e` evaluated on the rows of mask register `live` (-1: every
  /// row); returns its destination register.
  int CompileNode(const expr::Expr& e, const Schema& schema, int live);
  int Emit(Instr ins);  // assigns ins.dst
  int EmitError(Status error, int live);

  std::vector<Instr> instrs_;
  int num_regs_ = 0;
  // A select item that is a literal: its value on every row.
  bool item_const_ = false;
  Value item_value_;
};

}  // namespace eva::exec

#endif  // EVA_EXEC_VECTOR_FILTER_H_
