#include "symbolic/predicate.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace eva::symbolic {

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
  for (const auto& [dim, oc] : other.dims_) {
    DimConstraint mine = Get(dim, oc.kind());
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
  if (c2.IsSubsetOf(c1)) {
    *out = {c1};
    return true;
  }
  if (c1.IsSubsetOf(c2)) {
    *out = {c2};
    return true;
  }
  // Union of constrained dimension names.
  std::set<std::string> dim_names;
  for (const auto& [d, c] : c1.dims()) dim_names.insert(d);
  for (const auto& [d, c] : c2.dims()) dim_names.insert(d);

  auto kind_of = [&](const std::string& d) {
    auto it = c1.dims().find(d);
    if (it != c1.dims().end()) return it->second.kind();
    return c2.dims().at(d).kind();
  };

  // Classify each dimension.
  std::vector<std::string> not_sub21;  // dims where c2.d ⊄ c1.d
  std::vector<std::string> not_sub12;  // dims where c1.d ⊄ c2.d
  std::vector<std::string> not_equal;
  for (const std::string& d : dim_names) {
    DimKind k = kind_of(d);
    DimConstraint a = c1.Get(d, k);
    DimConstraint b = c2.Get(d, k);
    if (!b.IsSubsetOf(a)) not_sub21.push_back(d);
    if (!a.IsSubsetOf(b)) not_sub12.push_back(d);
    if (!a.Equals(b)) not_equal.push_back(d);
  }

  // Attempts one direction: `small` ⊆ `big` in every dimension except
  // `free_dim`. Tries concatenation (when all the other dims are equal)
  // and then overlap carving (Fig. 2 case iii).
  auto try_reduce = [&](const Conjunct& big, const Conjunct& small,
                        const std::string& free_dim) -> bool {
    DimKind k = kind_of(free_dim);
    DimConstraint bigc = big.Get(free_dim, k);
    DimConstraint smallc = small.Get(free_dim, k);
    // Case ii: concatenation along free_dim requires equality elsewhere.
    if (not_equal.size() == 1 && not_equal[0] == free_dim) {
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

  if (not_sub21.size() == 1) {
    // c2 ⊆ c1 in all dims except not_sub21[0].
    if (try_reduce(c1, c2, not_sub21[0])) return true;
  }
  if (not_sub12.size() == 1) {
    if (try_reduce(c2, c1, not_sub12[0])) return true;
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
