#include "symbolic/predicate.h"

#include <algorithm>
#include <sstream>

namespace eva::symbolic {

namespace {

// The constraint of a dimension a conjunct leaves unconstrained.
const DimConstraint& FullOf(DimKind kind) {
  static const DimConstraint kFull[] = {
      DimConstraint::Full(DimKind::kReal),
      DimConstraint::Full(DimKind::kInteger),
      DimConstraint::Full(DimKind::kCategorical)};
  return kFull[static_cast<int>(kind)];
}

}  // namespace

bool Conjunct::Constrain(const std::string& dim,
                         const DimConstraint& constraint) {
  if (constraint.IsFull()) return true;
  auto it = dims_.find(dim);
  if (it == dims_.end()) {
    if (constraint.IsEmpty()) return false;
    dims_.emplace(dim, constraint);
    return true;
  }
  DimConstraint merged = it->second.Intersect(constraint);
  if (merged.IsEmpty()) return false;
  if (merged.IsFull()) {
    dims_.erase(it);
  } else {
    it->second = merged;
  }
  return true;
}

DimConstraint Conjunct::Get(const std::string& dim, DimKind kind) const {
  auto it = dims_.find(dim);
  if (it == dims_.end()) return DimConstraint::Full(kind);
  return it->second;
}

bool Conjunct::IsEmpty() const {
  for (const auto& [dim, c] : dims_) {
    if (c.IsEmpty()) return true;
  }
  return false;
}

std::optional<Conjunct> Conjunct::Intersect(const Conjunct& other) const {
  Conjunct out = *this;
  for (const auto& [dim, c] : other.dims_) {
    if (!out.Constrain(dim, c)) return std::nullopt;
  }
  return out;
}

bool Conjunct::IsSubsetOf(const Conjunct& other) const {
  // Both maps are sorted by name: walk them together. A dimension only
  // `other` constrains is Full here; one only this conjunct constrains is
  // a subset of Full.
  auto it = dims_.begin();
  for (const auto& [dim, oc] : other.dims_) {
    int cmp = 1;
    while (it != dims_.end() && (cmp = it->first.compare(dim)) < 0) ++it;
    const DimConstraint& mine =
        it != dims_.end() && cmp == 0 ? it->second : FullOf(oc.kind());
    if (!mine.IsSubsetOf(oc)) return false;
  }
  return true;
}

bool Conjunct::Equals(const Conjunct& other) const {
  if (dims_.size() != other.dims_.size()) return false;
  auto it = dims_.begin();
  auto jt = other.dims_.begin();
  for (; it != dims_.end(); ++it, ++jt) {
    if (it->first != jt->first || !it->second.Equals(jt->second)) {
      return false;
    }
  }
  return true;
}

bool Conjunct::Evaluate(const ValueLookup& lookup) const {
  for (const auto& [dim, c] : dims_) {
    if (!c.Contains(lookup(dim))) return false;
  }
  return true;
}

int Conjunct::AtomCount() const {
  int n = 0;
  for (const auto& [dim, c] : dims_) n += c.AtomCount();
  return n;
}

std::string Conjunct::ToString() const {
  if (dims_.empty()) return "true";
  std::ostringstream os;
  bool first = true;
  for (const auto& [dim, c] : dims_) {
    if (!first) os << " AND ";
    os << c.ToString(dim);
    first = false;
  }
  return os.str();
}

bool ReduceUnionConjunctives(const Conjunct& c1, const Conjunct& c2,
                             std::vector<Conjunct>* out) {
  // One dimension either conjunct constrains: its position in name order
  // and both sides' constraints, Full on the side that leaves it
  // unconstrained (of the kind the other side gives it).
  struct Dim {
    int pos = -1;
    const std::string* name = nullptr;
    const DimConstraint* a = nullptr;  // c1's
    const DimConstraint* b = nullptr;  // c2's
  };
  // Classify each dimension, walking both name-sorted maps together:
  // count where c2.d ⊄ c1.d, where c1.d ⊄ c2.d and where c1.d != c2.d,
  // keeping the first dimension of each. c2 ⊆ c1 when the first count is
  // 0, and any other reduction needs a subset count of exactly 1, so the
  // walk stops once both subset counts pass 1.
  int n_not_sub21 = 0, n_not_sub12 = 0, n_not_equal = 0;
  int not_equal_pos = -1;
  Dim not_sub21, not_sub12;
  auto it = c1.dims().begin();
  auto jt = c2.dims().begin();
  for (int pos = 0; (it != c1.dims().end() || jt != c2.dims().end()) &&
                    (n_not_sub21 < 2 || n_not_sub12 < 2);
       ++pos) {
    int cmp = it == c1.dims().end()   ? 1
              : jt == c2.dims().end() ? -1
                                      : it->first.compare(jt->first);
    Dim d{pos};
    if (cmp <= 0) {
      d.name = &it->first;
      d.a = &it->second;
    }
    if (cmp >= 0) {
      d.name = &jt->first;
      d.b = &jt->second;
    }
    if (d.a == nullptr) d.a = &FullOf(d.b->kind());
    if (d.b == nullptr) d.b = &FullOf(d.a->kind());
    if (cmp <= 0) ++it;
    if (cmp >= 0) ++jt;
    if (!d.b->IsSubsetOf(*d.a) && n_not_sub21++ == 0) not_sub21 = d;
    if (!d.a->IsSubsetOf(*d.b) && n_not_sub12++ == 0) not_sub12 = d;
    if (!d.a->Equals(*d.b) && n_not_equal++ == 0) not_equal_pos = pos;
  }
  if (n_not_sub21 == 0) {
    *out = {c1};
    return true;
  }
  if (n_not_sub12 == 0) {
    *out = {c2};
    return true;
  }

  // Attempts one direction: `small` ⊆ `big` in every dimension except
  // `free` (whose constraints are `bigc` and `smallc`). Tries
  // concatenation (when all the other dims are equal) and then overlap
  // carving (Fig. 2 case iii).
  auto try_reduce = [&](const Conjunct& big, const Conjunct& small,
                        const Dim& free, const DimConstraint& bigc,
                        const DimConstraint& smallc) -> bool {
    const std::string& free_dim = *free.name;
    // Case ii: concatenation along free_dim requires equality elsewhere.
    if (n_not_equal == 1 && not_equal_pos == free.pos) {
      if (auto merged = bigc.UnionIfSingle(smallc)) {
        Conjunct reduced;
        for (const auto& [d, c] : big.dims()) {
          if (d != free_dim) reduced.Constrain(d, c);
        }
        if (!merged->IsFull()) reduced.Constrain(free_dim, *merged);
        *out = {reduced};
        return true;
      }
    }
    // Case iii: carve big's range out of small along free_dim.
    if (auto diff = smallc.DifferenceIfSingle(bigc)) {
      if (diff->Equals(smallc)) return false;  // disjoint already
      if (diff->IsEmpty()) {
        *out = {big};
        return true;
      }
      Conjunct carved;
      for (const auto& [d, c] : small.dims()) {
        if (d != free_dim) carved.Constrain(d, c);
      }
      if (!carved.Constrain(free_dim, *diff)) {
        *out = {big};
        return true;
      }
      *out = {big, carved};
      return true;
    }
    return false;
  };

  if (n_not_sub21 == 1) {
    // c2 ⊆ c1 in all dims except not_sub21.
    if (try_reduce(c1, c2, not_sub21, *not_sub21.a, *not_sub21.b)) {
      return true;
    }
  }
  if (n_not_sub12 == 1) {
    if (try_reduce(c2, c1, not_sub12, *not_sub12.b, *not_sub12.a)) {
      return true;
    }
  }
  return false;
}

Predicate Predicate::True() {
  Predicate p;
  p.conjuncts_.push_back(Conjunct());
  return p;
}

Predicate Predicate::FromConjunct(Conjunct c) {
  Predicate p;
  p.AddConjunct(std::move(c));
  return p;
}

Predicate Predicate::Atom(const std::string& dim,
                          const DimConstraint& constraint) {
  Conjunct c;
  if (!c.Constrain(dim, constraint)) return False();
  return FromConjunct(std::move(c));
}

bool Predicate::IsTrue() const {
  for (const Conjunct& c : conjuncts_) {
    if (c.IsTrue()) return true;
  }
  return false;
}

bool Predicate::Equals(const Predicate& other) const {
  if (conjuncts_.size() != other.conjuncts_.size()) return false;
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    if (!conjuncts_[i].Equals(other.conjuncts_[i])) return false;
  }
  return true;
}

void Predicate::AddConjunct(Conjunct c) {
  if (c.IsEmpty()) return;
  conjuncts_.push_back(std::move(c));
}

Result<Predicate> Predicate::And(const Predicate& a, const Predicate& b,
                                 const SymbolicBudget& budget) {
  Predicate out;
  for (const Conjunct& ca : a.conjuncts_) {
    for (const Conjunct& cb : b.conjuncts_) {
      if (auto inter = ca.Intersect(cb)) {
        out.AddConjunct(std::move(*inter));
        if (out.conjuncts_.size() > budget.max_conjuncts) {
          return Status::ResourceExhausted(
              "symbolic AND exceeded conjunct budget");
        }
      }
    }
  }
  out.Reduce(budget);
  return out;
}

bool Predicate::AbsorbsUnion(const Predicate& q,
                             const SymbolicBudget& budget) const {
  // Reduce(this ∨ q) scans pairs (i, j > i), so every pair of one of this
  // predicate's conjuncts with one of q's comes before any pair of two of
  // q's. When each such pair either does not reduce or drops q's conjunct,
  // each pass removes one conjunct of q and changes nothing else.
  if (static_cast<int64_t>(q.conjuncts_.size()) > budget.max_reduce_passes) {
    return false;
  }
  std::vector<Conjunct> reduced;
  for (const Conjunct& c : q.conjuncts_) {
    bool covered = false;
    for (const Conjunct& mine : conjuncts_) {
      if (c.IsSubsetOf(mine)) {
        covered = true;
      } else if (ReduceUnionConjunctives(mine, c, &reduced)) {
        return false;
      }
    }
    if (!covered) return false;
  }
  return true;
}

Predicate Predicate::Or(const Predicate& a, const Predicate& b,
                        const SymbolicBudget& budget) {
  Predicate out = a;
  out.UnionWith(b, budget);
  return out;
}

bool Predicate::UnionWith(const Predicate& q, const SymbolicBudget& budget) {
  for (const Conjunct& c : q.conjuncts_) AddConjunct(c);
  return Reduce(budget);
}

Result<Predicate> Predicate::Not(const Predicate& p,
                                 const SymbolicBudget& budget) {
  if (p.IsFalse()) return True();
  Predicate acc = True();
  for (const Conjunct& ci : p.conjuncts_) {
    if (ci.IsTrue()) return False();
    // ¬ci = disjunction over its dimensions of the complemented constraint.
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

Result<Predicate> Predicate::Inter(const Predicate& p1, const Predicate& p2,
                                   const SymbolicBudget& budget) {
  return And(p1, p2, budget);
}

Result<Predicate> Predicate::Diff(const Predicate& p1, const Predicate& p2,
                                  const SymbolicBudget& budget) {
  if (p1.IsFalse()) {
    Predicate out = p2;
    out.Reduce(budget);
    return out;
  }
  EVA_ASSIGN_OR_RETURN(Predicate not_p1, Not(p1, budget));
  return And(not_p1, p2, budget);
}

Predicate Predicate::Union(const Predicate& p1, const Predicate& p2,
                           const SymbolicBudget& budget) {
  return Or(p1, p2, budget);
}

bool Predicate::Reduce(const SymbolicBudget& budget) {
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
  // union, until no pair changes or the pass budget runs out. Each pass
  // scans pairs (i, j > i) from (0, 1) and stops at the first pair that
  // reduces.
  //
  // ReduceUnionConjunctives is pure, so a pair it rejected stays rejected
  // while neither conjunct changes; such pairs are skipped. Each slot
  // carries an id, fresh whenever a reduction replaces the slot. A row
  // scan ends early only at a reduction, which replaces row i's slot, so
  // a complete scan of row i rejected every slot after it. Slots never
  // change order: a slot after i whose id was issued before that scan
  // ended is one of them. `rejected_below` records that id bound. Every
  // pass still stops at the same pair.
  struct Slot {
    size_t id;
    size_t rejected_below;
  };
  std::vector<Slot> slots(conjuncts_.size());
  for (size_t k = 0; k < slots.size(); ++k) slots[k] = {k, 0};
  size_t next_id = slots.size();
  int pass = 0;
  bool changed = true;
  std::vector<Conjunct> replacement;
  while (changed && pass++ < budget.max_reduce_passes) {
    changed = false;
    for (size_t i = 0; i < conjuncts_.size() && !changed; ++i) {
      for (size_t j = i + 1; j < conjuncts_.size() && !changed; ++j) {
        if (slots[j].id < slots[i].rejected_below) continue;
        if (ReduceUnionConjunctives(conjuncts_[i], conjuncts_[j],
                                    &replacement)) {
          conjuncts_[i] = replacement[0];
          slots[i] = {next_id++, 0};
          if (replacement.size() == 2) {
            conjuncts_[j] = replacement[1];
            slots[j] = {next_id++, 0};
          } else {
            conjuncts_.erase(conjuncts_.begin() + static_cast<long>(j));
            slots.erase(slots.begin() + static_cast<long>(j));
          }
          changed = true;
        }
      }
      if (!changed) slots[i].rejected_below = next_id;
    }
  }
  return !changed;
}

bool Predicate::Evaluate(const ValueLookup& lookup) const {
  for (const Conjunct& c : conjuncts_) {
    if (c.Evaluate(lookup)) return true;
  }
  return false;
}

int Predicate::AtomCount() const {
  int n = 0;
  for (const Conjunct& c : conjuncts_) n += std::max(1, c.AtomCount());
  return n;
}

std::string Predicate::ToString() const {
  if (conjuncts_.empty()) return "false";
  std::ostringstream os;
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    if (i > 0) os << " OR ";
    os << "(" << conjuncts_[i].ToString() << ")";
  }
  return os.str();
}

}  // namespace eva::symbolic
