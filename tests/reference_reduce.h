// Test-only reference for Algorithm 1's pairwise reduction: a verbatim copy
// of Predicate::Reduce before it remembered rejected pairs. After every pair
// that reduces, the scan restarts at (0, 1) and checks every pair again.
// And, Not, Diff and Subtract are rebuilt on top of it, so a differential
// test can hold the library's results against these cell for cell.

#ifndef EVA_TESTS_REFERENCE_REDUCE_H_
#define EVA_TESTS_REFERENCE_REDUCE_H_

#include <iterator>
#include <utility>
#include <vector>

#include "common/status.h"
#include "symbolic/predicate.h"
#include "symbolic/subtract.h"

namespace eva::symbolic::reference {

/// Predicate::Reduce over a bare conjunct list; returns whether it reached
/// the fixpoint.
inline bool Reduce(std::vector<Conjunct>* conjuncts_p,
                   const SymbolicBudget& budget) {
  std::vector<Conjunct>& conjuncts_ = *conjuncts_p;
  // Normalize: drop unsatisfiable conjuncts; collapse to TRUE if present.
  std::vector<Conjunct> kept;
  for (Conjunct& c : conjuncts_) {
    if (c.IsEmpty()) continue;
    if (c.IsTrue()) {
      conjuncts_ = {Conjunct()};
      return true;
    }
    kept.push_back(std::move(c));
  }
  conjuncts_ = std::move(kept);
  // Dedupe syntactically equal conjuncts.
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    for (size_t j = conjuncts_.size(); j-- > i + 1;) {
      if (conjuncts_[i].Equals(conjuncts_[j])) {
        conjuncts_.erase(conjuncts_.begin() + static_cast<long>(j));
      }
    }
  }
  // Algorithm 1 step 3: repeatedly pop two conjunctives and reduce their
  // union, until no pair changes or the pass budget runs out.
  int pass = 0;
  bool changed = true;
  std::vector<Conjunct> replacement;
  while (changed && pass++ < budget.max_reduce_passes) {
    changed = false;
    for (size_t i = 0; i < conjuncts_.size() && !changed; ++i) {
      for (size_t j = i + 1; j < conjuncts_.size() && !changed; ++j) {
        if (ReduceUnionConjunctives(conjuncts_[i], conjuncts_[j],
                                    &replacement)) {
          conjuncts_[i] = replacement[0];
          if (replacement.size() == 2) {
            conjuncts_[j] = replacement[1];
          } else {
            conjuncts_.erase(conjuncts_.begin() + static_cast<long>(j));
          }
          changed = true;
        }
      }
    }
  }
  return !changed;
}

inline Predicate FromConjuncts(std::vector<Conjunct> conjuncts) {
  Predicate out;
  for (Conjunct& c : conjuncts) out.AddConjunct(std::move(c));
  return out;
}

/// `p` reduced by the reference; `*fixpoint` receives Reduce's answer.
inline Predicate Reduced(const Predicate& p, const SymbolicBudget& budget,
                         bool* fixpoint) {
  std::vector<Conjunct> conjuncts = p.conjuncts();
  *fixpoint = Reduce(&conjuncts, budget);
  return FromConjuncts(std::move(conjuncts));
}

/// Predicate::And with the reference Reduce.
inline Result<Predicate> And(const Predicate& a, const Predicate& b,
                             const SymbolicBudget& budget) {
  std::vector<Conjunct> out;
  for (const Conjunct& ca : a.conjuncts()) {
    for (const Conjunct& cb : b.conjuncts()) {
      if (auto inter = ca.Intersect(cb)) {
        if (inter->IsEmpty()) continue;
        out.push_back(std::move(*inter));
        if (out.size() > budget.max_conjuncts) {
          return Status::ResourceExhausted(
              "symbolic AND exceeded conjunct budget");
        }
      }
    }
  }
  Reduce(&out, budget);
  return FromConjuncts(std::move(out));
}

/// Predicate::Not with the reference And.
inline Result<Predicate> Not(const Predicate& p,
                             const SymbolicBudget& budget) {
  if (p.IsFalse()) return Predicate::True();
  Predicate acc = Predicate::True();
  for (const Conjunct& ci : p.conjuncts()) {
    if (ci.IsTrue()) return Predicate::False();
    Predicate not_ci;
    for (const auto& [dim, c] : ci.dims()) {
      for (const DimConstraint& piece : c.Complement()) {
        Conjunct pc;
        if (pc.Constrain(dim, piece)) not_ci.AddConjunct(std::move(pc));
      }
    }
    EVA_ASSIGN_OR_RETURN(acc, And(acc, not_ci, budget));
    if (acc.IsFalse()) return acc;
  }
  return acc;
}

/// Predicate::Diff with the reference Not and And.
inline Result<Predicate> Diff(const Predicate& p1, const Predicate& p2,
                              const SymbolicBudget& budget) {
  if (p1.IsFalse()) {
    bool fixpoint = false;
    return Reduced(p2, budget, &fixpoint);
  }
  EVA_ASSIGN_OR_RETURN(Predicate not_p1, Not(p1, budget));
  return And(not_p1, p2, budget);
}

/// symbolic::Subtract with the reference Reduce.
inline Result<Predicate> Subtract(const Predicate& p, const Predicate& v,
                                  const SymbolicBudget& budget) {
  if (p.IsFalse() || v.IsFalse()) return p;
  std::vector<Conjunct> pieces = p.conjuncts();
  for (const Conjunct& w : v.conjuncts()) {
    std::vector<Conjunct> next;
    for (const Conjunct& c : pieces) {
      std::vector<Conjunct> carved = SubtractConjunct(c, w);
      next.insert(next.end(), std::make_move_iterator(carved.begin()),
                  std::make_move_iterator(carved.end()));
      if (next.size() > budget.max_conjuncts) {
        return Status::ResourceExhausted(
            "predicate subtraction exceeded conjunct budget");
      }
    }
    pieces = std::move(next);
    if (pieces.empty()) break;
  }
  std::vector<Conjunct> kept;
  for (Conjunct& c : pieces) {
    if (!c.IsEmpty()) kept.push_back(std::move(c));
  }
  Reduce(&kept, budget);
  return FromConjuncts(std::move(kept));
}

}  // namespace eva::symbolic::reference

#endif  // EVA_TESTS_REFERENCE_REDUCE_H_
