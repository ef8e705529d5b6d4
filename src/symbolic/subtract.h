#ifndef EVA_SYMBOLIC_SUBTRACT_H_
#define EVA_SYMBOLIC_SUBTRACT_H_

#include "common/status.h"
#include "symbolic/predicate.h"

namespace eva::symbolic {

/// True when the two conjuncts provably have an empty intersection from
/// hull comparison alone: some shared dimension carries disjoint numeric
/// intervals, or disjoint categorical include-sets. Exact-negative — a
/// true return implies a.Intersect(b) == nullopt — so SubtractConjunct
/// uses it to skip the full intersection without changing any result.
bool HullDisjoint(const Conjunct& a, const Conjunct& b);

/// Conjunct-level subtraction c \ w as a disjoint union of conjuncts.
///
/// For a subtrahend conjunct w constraining dimensions d_1..d_n, the
/// complement of w decomposes the space into disjoint cells
///   (d_1 ∉ w.d_1) ∨ (d_1 ∈ w.d_1 ∧ d_2 ∉ w.d_2) ∨ ...
/// and c \ w is c intersected with each cell. Each "d_k ∉ w.d_k" factor is
/// expanded through DimConstraint::Complement(), so every emitted conjunct
/// stays a plain per-dimension box and the pieces are pairwise disjoint —
/// avoiding the exponential blowup of generic ¬w DNF expansion followed by
/// AND. Unsatisfiable pieces are dropped.
std::vector<Conjunct> SubtractConjunct(const Conjunct& c, const Conjunct& w);

/// Predicate subtraction p \ v  =  p ∧ ¬v, the retraction primitive behind
/// coverage eviction (p_u ← p_u ∧ ¬p_v): every conjunct of p is carved by
/// every conjunct of v via SubtractConjunct, then the result is re-reduced
/// by Algorithm 1's pairwise conjunct machinery so subsequent p∩ / p–
/// splits see a compact aggregated predicate.
///
/// Fails with ResourceExhausted when the intermediate conjunct count
/// exceeds `budget.max_conjuncts` — callers fall back to dropping coverage
/// entirely (sound: underclaiming coverage only costs recomputation).
Result<Predicate> Subtract(const Predicate& p, const Predicate& v,
                           const SymbolicBudget& budget = {});

}  // namespace eva::symbolic

#endif  // EVA_SYMBOLIC_SUBTRACT_H_
