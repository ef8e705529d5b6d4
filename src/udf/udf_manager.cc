#include "udf/udf_manager.h"

#include <chrono>

#include "obs/profiler.h"
#include "symbolic/subtract.h"

namespace eva::udf {

namespace {

/// RAII accumulator for the symbolic wall-time counter.
class WallAccumulator {
 public:
  explicit WallAccumulator(double* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~WallAccumulator() {
    *sink_ += std::chrono::duration_cast<
                  std::chrono::duration<double, std::micro>>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  }

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

const symbolic::Predicate& UdfManager::Coverage(
    const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false_;
  return it->second.coverage;
}

bool UdfManager::HasCoverage(const std::string& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && !it->second.coverage.IsFalse();
}

Result<symbolic::Predicate> UdfManager::InterCoverage(
    const std::string& key, const symbolic::Predicate& q,
    const symbolic::SymbolicBudget& budget) const {
  const symbolic::Predicate& coverage = Coverage(key);
  if (coverage.IsFalse()) return symbolic::Predicate::False();
  WallAccumulator wall(&symbolic_wall_us_);
  return symbolic::Predicate::Inter(coverage, q, budget);
}

Result<symbolic::Predicate> UdfManager::DiffCoverage(
    const std::string& key, const symbolic::Predicate& q,
    const symbolic::SymbolicBudget& budget) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.coverage.IsFalse()) {
    return symbolic::Predicate::Diff(false_, q, budget);
  }
  const UdfEntry& entry = it->second;
  WallAccumulator wall(&symbolic_wall_us_);
  // Predicate::Diff(p, q) spelled out with its NOT(p) cached: same inputs,
  // same AND, so the result (or the NOT's budget error) is identical.
  if (!entry.complement.has_value() || entry.complement_budget != budget) {
    entry.complement = symbolic::Predicate::Not(entry.coverage, budget);
    entry.complement_budget = budget;
  }
  if (!entry.complement->ok()) return entry.complement->status();
  return symbolic::Predicate::And(entry.complement->value(), q, budget);
}

void UdfManager::UpdateCoverage(const std::string& key,
                                const symbolic::Predicate& q,
                                const symbolic::SymbolicBudget& budget) {
  obs::ProfScope prof("symbolic");
  WallAccumulator wall(&symbolic_wall_us_);
  if (journal_enabled_) {
    journal_.push_back({CoverageOp::Kind::kUnion, key, q});
  }
  UdfEntry& entry = entries_[key];
  // A union that adds nothing keeps p_u and the cached NOT. Most unions on
  // a streaming session re-claim covered frames, and each dropped NOT
  // costs the next Diff a full recomputation. When p_u is reduced and
  // absorbs q conjunct by conjunct, the union is skipped outright (its
  // journal entry above still goes to the WAL); any other union is
  // computed and compared.
  if (entry.reduced && entry.coverage.AbsorbsUnion(q, budget)) return;
  symbolic::Predicate merged = entry.coverage;
  entry.reduced = merged.UnionWith(q, budget);
  if (!merged.Equals(entry.coverage)) entry.complement.reset();
  entry.coverage = std::move(merged);
}

void UdfManager::RetractCoverage(const std::string& key,
                                 const symbolic::Predicate& evicted,
                                 const symbolic::SymbolicBudget& budget) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.coverage.IsFalse()) return;
  obs::ProfScope prof("symbolic");
  WallAccumulator wall(&symbolic_wall_us_);
  UdfEntry& entry = it->second;
  Result<symbolic::Predicate> retracted =
      symbolic::Subtract(entry.coverage, evicted, budget);
  // Budget blown: give up the whole aggregated predicate rather than keep
  // a claim over tuples the store no longer holds.
  entry.coverage = retracted.ok() ? retracted.MoveValue()
                                  : symbolic::Predicate::False();
  entry.reduced = false;
  entry.complement.reset();
}

void UdfManager::SetCoverage(const std::string& key,
                             symbolic::Predicate coverage) {
  if (journal_enabled_) {
    journal_.push_back({CoverageOp::Kind::kSet, key, coverage});
  }
  UdfEntry& entry = entries_[key];
  entry.coverage = std::move(coverage);
  entry.reduced = false;
  entry.complement.reset();
}

void UdfManager::RecordInvocations(const std::string& key, int64_t total,
                                   int64_t distinct_new) {
  UdfEntry& entry = entries_[key];
  entry.total_invocations += total;
  entry.distinct_invocations += distinct_new;
}

int UdfManager::CoverageAtomCount(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return 0;
  return it->second.coverage.AtomCount();
}

}  // namespace eva::udf
