#ifndef EVA_UDF_UDF_MANAGER_H_
#define EVA_UDF_UDF_MANAGER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "symbolic/predicate.h"

namespace eva::udf {

/// A UDF's signature: its unique fingerprint across queries (§3.1 step 2).
/// `name` is the physical UDF, `inputs` the source table/view it reads.
struct UdfSignature {
  std::string name;
  std::string inputs;

  std::string Key() const { return name + "@" + inputs; }
};

/// Per-signature bookkeeping: the aggregated predicate p_u (union of the
/// predicates under which the UDF has been evaluated so far) plus
/// invocation statistics for reporting (Table 3).
struct UdfEntry {
  symbolic::Predicate coverage;  // p_u; starts FALSE (§4.1)
  /// `coverage` is a Reduce fixpoint: it came from a union whose reduction
  /// converged (or is the initial FALSE). Lets UpdateCoverage decide that
  /// a union is a no-op without computing it.
  bool reduced = true;
  int64_t total_invocations = 0;
  int64_t distinct_invocations = 0;
  /// NOT(coverage) under `complement_budget`, or the budget error NOT
  /// returned. Predicate::Diff(p, q) is AND(NOT(p), q) and NOT is the
  /// q-independent, cubic part, so DiffCoverage computes it once and
  /// replays the same AND for every query. Dropped whenever `coverage`
  /// changes.
  mutable std::optional<Result<symbolic::Predicate>> complement;
  mutable symbolic::SymbolicBudget complement_budget;
};

/// One coverage transition captured while journaling is enabled — the
/// WAL's source of truth for p_u durability. Only unions (the optimizer's
/// UpdateCoverage input, pre-reduction) and wholesale sets (failure-path
/// rollback) are journaled; retractions are implied by the eviction
/// records that cause them, so replay never subtracts twice.
struct CoverageOp {
  enum class Kind { kUnion, kSet };
  Kind kind = Kind::kUnion;
  std::string key;
  symbolic::Predicate predicate;
};

/// The paper's UDFMANAGER: maps UDF signatures to their aggregated
/// predicates and materialized-view bindings. The optimizer consults it to
/// derive p∩ / p– / p∪ for every candidate UDF occurrence.
///
/// INTER, DIFF and UNION are the Predicate algebra itself; the only cache
/// is each entry's NOT(p_u) for DIFF. All access is serialized on the
/// driver thread (the service front-end's single executor), so neither
/// the entries nor that cache carry locks.
class UdfManager {
 public:
  /// Aggregated predicate p_u for `key`; FALSE when the UDF was never
  /// evaluated.
  const symbolic::Predicate& Coverage(const std::string& key) const;

  bool HasCoverage(const std::string& key) const;

  /// INTER(p_u, q) = Predicate::Inter(Coverage(key), q).
  Result<symbolic::Predicate> InterCoverage(
      const std::string& key, const symbolic::Predicate& q,
      const symbolic::SymbolicBudget& budget = {}) const;

  /// DIFF(p_u, q) = ¬p_u ∧ q, bit-identical to
  /// Predicate::Diff(Coverage(key), q), including a budget error from the
  /// NOT. The NOT(p_u) is cached on the entry until p_u changes, and
  /// recomputed when `budget` differs from the cached one.
  Result<symbolic::Predicate> DiffCoverage(
      const std::string& key, const symbolic::Predicate& q,
      const symbolic::SymbolicBudget& budget = {}) const;

  /// p_u ← UNION(p_u, q) after the optimizer schedules evaluation of the
  /// UDF under predicate `q` (§4.1). Retract, Set and Clear always drop the
  /// cached NOT(p_u); a union drops it only when p_u changes.
  void UpdateCoverage(const std::string& key, const symbolic::Predicate& q,
                      const symbolic::SymbolicBudget& budget = {});

  /// p_u ← p_u ∧ ¬p_v after a view segment covering `evicted` is dropped
  /// (lifecycle eviction), re-reduced by Algorithm 1's conjunct machinery
  /// so subsequent p∩ / p– splits never claim reuse for evicted tuples.
  /// When subtraction exceeds the symbolic budget the coverage is cleared
  /// entirely — sound, since underclaiming only costs recomputation.
  void RetractCoverage(const std::string& key,
                       const symbolic::Predicate& evicted,
                       const symbolic::SymbolicBudget& budget = {});

  /// Replaces p_u wholesale (persistence reload of a retracted predicate,
  /// fault rollback, WAL replay).
  void SetCoverage(const std::string& key, symbolic::Predicate coverage);

  /// Invocation accounting (drives Table 3's #DI / #TI columns).
  void RecordInvocations(const std::string& key, int64_t total,
                         int64_t distinct_new);

  const std::map<std::string, UdfEntry>& entries() const { return entries_; }

  /// Atom count of p_u — what Fig. 8b/Fig. 7 track over a workload.
  int CoverageAtomCount(const std::string& key) const;

  void Clear() {
    entries_.clear();
    journal_.clear();
  }

  /// No effect; kept because perfbench/ uses it.
  void set_symbolic_fastpath(bool /*on*/) {}

  /// Host wall time accumulated inside Inter/Diff/Update/Retract — the
  /// optimizer's symbolic wall time that bench_symbolic and perfbench
  /// report. Never feeds simulated numbers.
  double symbolic_wall_us() const { return symbolic_wall_us_; }

  /// WAL journaling of coverage transitions (driver-thread only, like
  /// every mutator). Enabling starts capture; the engine drains the
  /// journal into the log at each group-commit point.
  void set_journal_enabled(bool enabled) { journal_enabled_ = enabled; }
  bool journal_enabled() const { return journal_enabled_; }
  std::vector<CoverageOp> TakeJournal() {
    std::vector<CoverageOp> out;
    out.swap(journal_);
    return out;
  }

 private:
  std::map<std::string, UdfEntry> entries_;
  symbolic::Predicate false_;
  bool journal_enabled_ = false;
  std::vector<CoverageOp> journal_;
  mutable double symbolic_wall_us_ = 0;
};

}  // namespace eva::udf

#endif  // EVA_UDF_UDF_MANAGER_H_
