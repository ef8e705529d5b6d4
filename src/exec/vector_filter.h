#ifndef EVA_EXEC_VECTOR_FILTER_H_
#define EVA_EXEC_VECTOR_FILTER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "exec/chunk.h"
#include "expr/expr.h"
#include "storage/column_segment.h"

namespace eva::exec {

/// A filter predicate compiled once per query into a flat register program
/// evaluated column-at-a-time over whole chunks with uint8 masks. The
/// compiled form replaces the per-row recursive Expr interpreter on the
/// scan→filter and view-join→filter hot paths; semantics are exactly
/// EvaluateBool's (NULL comparisons false, EvaluateBool(NULL) false,
/// NOT of a NULL child true).
///
/// Column-literal comparisons read the chunk's lanes without building
/// Values: typed numeric lanes follow Value::Compare's Int64/Double rules,
/// a string lane gets one verdict per dictionary entry and then reads
/// codes, a lane and literal of different type ranks give one verdict for
/// every non-null cell, and only a mixed (raw Value) lane compares per
/// cell. Column-column comparisons compare Values per cell.
///
/// Two escape hatches keep the scalar path authoritative:
///  - Compile returns nullopt for shapes it does not support (missing
///    columns, non-bool literals in boolean position, literal-literal or
///    column-column-under-compare oddities, kStar/kCountStar) — the caller
///    keeps the per-row interpreter.
///  - Execute returns an error when a non-boolean cell feeds a logical
///    operator at runtime. The scalar interpreter short-circuits AND/OR, so
///    such a cell may or may not be an error there; the caller must rerun
///    the whole batch through the scalar path to reproduce its exact
///    behavior (including which error, if any, surfaces).
class FilterProgram {
 public:
  /// Compiles `e` against `schema`; nullopt when not vectorizable.
  static std::optional<FilterProgram> Compile(const expr::Expr& e,
                                              const Schema& schema);

  /// Evaluates over all rows of `chunk`; keep->at(r) is 1 when row r
  /// passes. `keep` is resized to the chunk row count.
  Status Execute(const Chunk& chunk, std::vector<uint8_t>* keep) const;

  size_t num_instructions() const { return instrs_.size(); }

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
  };

  struct Instr {
    OpCode code;
    expr::CompareOp cmp = expr::CompareOp::kEq;
    int col_a = -1;  // batch column operands
    int col_b = -1;
    int src_a = -1;  // mask register operands
    int src_b = -1;
    int dst = 0;
    Value lit;
    // The literal was written first. Kept as written, not mirrored:
    // Value::Compare ranks NaN above every number from both sides.
    bool lit_left = false;
    bool bval = false;
  };

  /// Returns the destination register of the compiled subtree, or -1 to
  /// bail out of vectorization.
  int CompileNode(const expr::Expr& e, const Schema& schema);

  std::vector<Instr> instrs_;
  int num_regs_ = 0;
};

/// Conservative zone-map satisfiability for segment skipping: kNever means
/// no row materialized in `seg` can satisfy `e`, for ANY values of columns
/// the segment does not store (those resolve to kMaybe). Column names
/// resolve against the view's value schema; "id" and "obj" additionally
/// resolve against the segment's key arrays. NOT subtrees are kMaybe
/// (proving "all rows satisfy the child" is not worth the state), as is
/// every shape whose scalar evaluation could error — a skip must never
/// swallow an error the interpreter would raise.
enum class ZoneVerdict { kNever, kMaybe };

ZoneVerdict ZoneCheck(const expr::Expr& e,
                      const storage::ColumnarSegment& seg,
                      const Schema& value_schema);

/// True when some stored row of `seg` could satisfy `e` (i.e. the segment
/// must be read); false only on a sound kNever proof.
inline bool ZoneCanMatch(const expr::Expr& e,
                         const storage::ColumnarSegment& seg,
                         const Schema& value_schema) {
  return ZoneCheck(e, seg, value_schema) != ZoneVerdict::kNever;
}

}  // namespace eva::exec

#endif  // EVA_EXEC_VECTOR_FILTER_H_
