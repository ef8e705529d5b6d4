// Differential oracle for Predicate::Reduce's rejected-pair memo: Reduce,
// Not, Diff and Subtract must equal the restart-from-(0, 1) reference in
// reference_reduce.h cell for cell, with the same fixpoint answer, also
// when a pass budget of 1 to 4 stops the loop early.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "reference_reduce.h"
#include "symbolic/subtract.h"
#include "symbolic_test_util.h"

namespace eva::symbolic {
namespace {

std::vector<SymbolicBudget> Budgets() {
  std::vector<SymbolicBudget> budgets;
  for (int passes = 1; passes <= 4; ++passes) {
    budgets.push_back({4096, passes});
  }
  budgets.push_back({});         // the default: 64 passes
  budgets.push_back({12, 64});  // small enough for Not to run out
  return budgets;
}

// A union of shuffled, overlapping id ranges split by label: many pairs
// concatenate or carve, so Reduce takes many passes.
Predicate RandomTiles(Rng& rng) {
  Predicate p;
  int n = 2 + static_cast<int>(rng.NextBelow(14));
  for (int i = 0; i < n; ++i) {
    double lo = static_cast<double>(rng.NextBelow(20) * 10);
    double hi = lo + static_cast<double>(5 + rng.NextBelow(30));
    Conjunct c = IdRange(lo, hi).conjuncts()[0];
    if (rng.NextBool(0.5)) {
      const auto& labels = TestLabels();
      c.Constrain("label", DimConstraint::Categorical(
                               {labels[rng.NextBelow(labels.size())]},
                               rng.NextBool(0.3)));
    }
    p.AddConjunct(std::move(c));
  }
  return p;
}

Predicate RandomInput(Rng& rng) {
  if (rng.NextBool(0.5)) return RandomTiles(rng);
  return RandomPredicate(rng, 12, 4);
}

void ExpectSame(const Result<Predicate>& got, const Result<Predicate>& want,
                const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!got.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
    return;
  }
  EXPECT_TRUE(got.value().Equals(want.value()))
      << what << "\n  got:  " << got.value().ToString()
      << "\n  want: " << want.value().ToString();
}

TEST(ReduceOracleTest, ReduceMatchesTheRestartingReference) {
  Rng rng(0x5eed2601);
  int stopped_by_budget = 0;
  int multi_pass = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    Predicate p = RandomInput(rng);
    for (const SymbolicBudget& budget : Budgets()) {
      Predicate got = p;
      bool got_fixpoint = got.Reduce(budget);
      bool want_fixpoint = false;
      Predicate want = reference::Reduced(p, budget, &want_fixpoint);
      ASSERT_TRUE(got.Equals(want))
          << "iter " << iter << " passes " << budget.max_reduce_passes
          << "\n  input: " << p.ToString() << "\n  got:  " << got.ToString()
          << "\n  want: " << want.ToString();
      ASSERT_EQ(got_fixpoint, want_fixpoint) << "iter " << iter;
      if (!got_fixpoint) ++stopped_by_budget;
      if (budget.max_reduce_passes == 64 && p.conjuncts().size() >= 4 &&
          got.conjuncts().size() + 2 <= p.conjuncts().size()) {
        ++multi_pass;
      }
    }
  }
  // The pass limit must actually stop some loops, and the unlimited runs
  // must include reductions that take several passes.
  EXPECT_GT(stopped_by_budget, 1000);
  EXPECT_GT(multi_pass, 500);
}

TEST(ReduceOracleTest, NotDiffAndSubtractMatchTheReference) {
  Rng rng(0x5eed2602);
  int exhausted = 0;
  for (int iter = 0; iter < 400; ++iter) {
    Predicate p = RandomInput(rng);
    Predicate q = RandomInput(rng);
    for (const SymbolicBudget& budget : Budgets()) {
      const std::string what = "iter " + std::to_string(iter) + " passes " +
                               std::to_string(budget.max_reduce_passes) +
                               "\n  p: " + p.ToString() +
                               "\n  q: " + q.ToString();
      Result<Predicate> not_p = Predicate::Not(p, budget);
      if (!not_p.ok()) ++exhausted;
      ExpectSame(not_p, reference::Not(p, budget), "Not " + what);
      ExpectSame(Predicate::Diff(p, q, budget),
                 reference::Diff(p, q, budget), "Diff " + what);
      ExpectSame(Subtract(p, q, budget), reference::Subtract(p, q, budget),
                 "Subtract " + what);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(exhausted, 20);  // the small conjunct budget was reached
}

}  // namespace
}  // namespace eva::symbolic
