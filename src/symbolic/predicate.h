#ifndef EVA_SYMBOLIC_PREDICATE_H_
#define EVA_SYMBOLIC_PREDICATE_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "symbolic/dim_constraint.h"

namespace eva::symbolic {

/// Resolves a dimension (column / UDF-output) name to its value for one
/// tuple; used to evaluate predicates at execution time and in tests.
using ValueLookup = std::function<Value(const std::string&)>;

/// A conjunction of per-dimension constraints. Dimensions not present are
/// unconstrained. Constructing a conjunct eagerly merges multiple atoms on
/// one dimension (the paper's per-conjunct reduction, Algorithm 1 step 2).
class Conjunct {
 public:
  Conjunct() = default;

  const std::map<std::string, DimConstraint>& dims() const { return dims_; }

  /// ANDs `constraint` onto dimension `dim`. Returns false if the conjunct
  /// became unsatisfiable.
  bool Constrain(const std::string& dim, const DimConstraint& constraint);

  /// Constraint on `dim`; Full(kind) if unconstrained.
  DimConstraint Get(const std::string& dim, DimKind kind) const;
  bool Constrains(const std::string& dim) const {
    return dims_.count(dim) > 0;
  }

  bool IsTrue() const { return dims_.empty(); }
  bool IsEmpty() const;

  /// Conjunction of two conjuncts; nullopt when unsatisfiable.
  std::optional<Conjunct> Intersect(const Conjunct& other) const;

  bool IsSubsetOf(const Conjunct& other) const;
  bool Equals(const Conjunct& other) const;

  bool Evaluate(const ValueLookup& lookup) const;

  /// Total number of atomic formulas (the Fig. 7 metric).
  int AtomCount() const;

  std::string ToString() const;

 private:
  std::map<std::string, DimConstraint> dims_;
};

/// Limits for the symbolic analysis, mirroring the paper's time budget in
/// Algorithm 1: negation/AND expansion aborts past `max_conjuncts`, and the
/// pairwise reduction loop stops after `max_reduce_passes` sweeps.
struct SymbolicBudget {
  size_t max_conjuncts = 4096;
  int max_reduce_passes = 64;

  bool operator==(const SymbolicBudget&) const = default;
};

/// A predicate in disjunctive normal form: a union of Conjuncts. The empty
/// union is FALSE; a single empty conjunct is TRUE. This is the object the
/// paper's SYMBOLICENGINE manipulates (§4.1): the UDFMANAGER stores one
/// aggregated Predicate per UDF signature, and reuse analysis computes the
/// intersection / difference / union of Predicates.
class Predicate {
 public:
  /// FALSE.
  Predicate() = default;

  static Predicate False() { return Predicate(); }
  static Predicate True();
  static Predicate FromConjunct(Conjunct c);
  /// Single-atom predicate "dim ∈ constraint".
  static Predicate Atom(const std::string& dim,
                        const DimConstraint& constraint);

  const std::vector<Conjunct>& conjuncts() const { return conjuncts_; }

  bool IsFalse() const { return conjuncts_.empty(); }
  bool IsTrue() const;

  /// Same cells in the same order (Conjunct::Equals, cell by cell).
  bool Equals(const Predicate& other) const;

  /// Whether Union(*this, q, budget) equals *this cell for cell, decided
  /// without computing it, for a predicate that is a Reduce fixpoint (the
  /// caller knows; Reduce reports it). True when every conjunct of q is a
  /// subset of some conjunct of this one, no conjunct of this one would
  /// reduce with a conjunct of q other than by absorbing it, and the budget
  /// has a reduction pass for each conjunct of q. Sufficient, not
  /// necessary.
  bool AbsorbsUnion(const Predicate& q, const SymbolicBudget& budget) const;

  /// p1 ∧ p2 (pairwise conjunct intersection with unsat pruning). Fails
  /// with ResourceExhausted when the budget is exceeded.
  static Result<Predicate> And(const Predicate& a, const Predicate& b,
                               const SymbolicBudget& budget = {});
  /// p1 ∨ p2 followed by Algorithm 1 reduction.
  static Predicate Or(const Predicate& a, const Predicate& b,
                      const SymbolicBudget& budget = {});
  /// ¬p via De Morgan over the DNF; can blow up, hence the budget.
  static Result<Predicate> Not(const Predicate& p,
                               const SymbolicBudget& budget = {});

  /// The paper's three derived predicates (§3.2):
  ///   INTER(p1,p2) = p1 ∧ p2, DIFF(p1,p2) = ¬p1 ∧ p2, UNION = p1 ∨ p2.
  static Result<Predicate> Inter(const Predicate& p1, const Predicate& p2,
                                 const SymbolicBudget& budget = {});
  static Result<Predicate> Diff(const Predicate& p1, const Predicate& p2,
                                const SymbolicBudget& budget = {});
  static Predicate Union(const Predicate& p1, const Predicate& p2,
                         const SymbolicBudget& budget = {});
  /// In-place form of Union(*this, q): appends q's conjuncts and returns
  /// Reduce's answer.
  bool UnionWith(const Predicate& q, const SymbolicBudget& budget = {});

  /// Algorithm 1: per-conjunct reduction happened at construction; this
  /// runs the pairwise ReduceUnionConjunctives loop to fixpoint (or budget),
  /// skipping pairs it already rejected in this call (docs/SYMBOLIC.md).
  /// Returns whether it reached the fixpoint: no pair reduces any more.
  bool Reduce(const SymbolicBudget& budget = {});

  bool Evaluate(const ValueLookup& lookup) const;

  /// Conservative semantic checks used by the rewrite rules (§4.4): a
  /// predicate is definitely-false when it has no conjuncts.
  bool DefinitelyFalse() const { return conjuncts_.empty(); }

  int AtomCount() const;
  std::string ToString() const;

  /// Appends a conjunct, dropping it if unsatisfiable.
  void AddConjunct(Conjunct c);

 private:
  std::vector<Conjunct> conjuncts_;
};

/// Reduces the union of two conjuncts per Fig. 2 / Algorithm 1:
///  - subset in all dimensions: drop the covered conjunct;
///  - equal in all but one dimension: concatenate along that dimension;
///  - subset in all but one dimension: carve the overlap out of the smaller
///    conjunct to make the pair disjoint.
/// Returns true (and fills `out`) if anything changed; `out` holds 1 or 2
/// conjuncts replacing {c1, c2}.
bool ReduceUnionConjunctives(const Conjunct& c1, const Conjunct& c2,
                             std::vector<Conjunct>* out);

}  // namespace eva::symbolic

#endif  // EVA_SYMBOLIC_PREDICATE_H_
