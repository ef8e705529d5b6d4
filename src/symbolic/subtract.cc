#include "symbolic/subtract.h"

namespace eva::symbolic {

namespace {

// hi strictly precedes lo on the number line (no shared point).
bool BoundBefore(const Bound& hi, const Bound& lo) {
  if (hi.infinite || lo.infinite) return false;
  if (hi.value < lo.value) return true;
  if (hi.value > lo.value) return false;
  return !hi.closed || !lo.closed;
}

bool IntervalsDisjoint(const Interval& a, const Interval& b) {
  return BoundBefore(a.hi(), b.lo()) || BoundBefore(b.hi(), a.lo());
}

// Disjointness of two sorted include-sets.
bool SortedSetsDisjoint(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    int cmp = a[i].compare(b[j]);
    if (cmp == 0) return false;
    if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return true;
}

}  // namespace

bool HullDisjoint(const Conjunct& a, const Conjunct& b) {
  auto it = a.dims().begin();
  auto jt = b.dims().begin();
  while (it != a.dims().end() && jt != b.dims().end()) {
    int cmp = it->first.compare(jt->first);
    if (cmp < 0) {
      ++it;
      continue;
    }
    if (cmp > 0) {
      ++jt;
      continue;
    }
    const DimConstraint& ca = it->second;
    const DimConstraint& cb = jt->second;
    if (ca.is_categorical() && cb.is_categorical()) {
      // Excluded points only widen the constraint's reach relative to its
      // include-set, so only include/include pairs prove disjointness.
      if (!ca.categorical_exclude() && !cb.categorical_exclude() &&
          SortedSetsDisjoint(ca.categorical_values(),
                             cb.categorical_values())) {
        return true;
      }
    } else if (!ca.is_categorical() && !cb.is_categorical()) {
      // Excluded points only shrink an interval constraint, so disjoint
      // hull intervals imply disjoint constraints.
      if (IntervalsDisjoint(ca.interval(), cb.interval())) return true;
    }
    ++it;
    ++jt;
  }
  return false;
}

std::vector<Conjunct> SubtractConjunct(const Conjunct& c, const Conjunct& w) {
  // Disjoint from w: nothing to carve. The hull comparison settles the
  // common case (eviction retracts frame-id ranges most coverage cells
  // never touch) without building the full intersection; a true
  // HullDisjoint implies Intersect returns nullopt, so both tests pick the
  // same branch.
  if (HullDisjoint(c, w)) return {c};
  if (!c.Intersect(w).has_value()) return {c};
  // Swallowed by w: nothing left.
  if (c.IsSubsetOf(w)) return {};

  std::vector<Conjunct> out;
  // `prefix` accumulates c ∧ (d_1 ∈ w.d_1) ∧ ... ∧ (d_{k-1} ∈ w.d_{k-1});
  // cell k adds one complement piece of w.d_k on top of it.
  Conjunct prefix = c;
  for (const auto& [dim, wd] : w.dims()) {
    for (const DimConstraint& piece : wd.Complement()) {
      Conjunct cell = prefix;
      if (cell.Constrain(dim, piece)) out.push_back(std::move(cell));
    }
    if (!prefix.Constrain(dim, wd)) break;  // remaining cells are empty
  }
  return out;
}

Result<Predicate> Subtract(const Predicate& p, const Predicate& v,
                           const SymbolicBudget& budget) {
  if (p.IsFalse() || v.IsFalse()) return p;

  std::vector<Conjunct> pieces(p.conjuncts().begin(), p.conjuncts().end());
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

  Predicate result;
  for (Conjunct& c : pieces) result.AddConjunct(std::move(c));
  result.Reduce(budget);
  return result;
}

}  // namespace eva::symbolic
