// The shortcuts that remain around the predicate algebra
// (docs/SYMBOLIC.md): Subtract's hull-disjoint prefilter must only skip
// pairs whose intersection really is empty, and a streaming tick must
// extend the coverage's horizon cell instead of adding a new one.

#include <gtest/gtest.h>

#include "symbolic/subtract.h"
#include "symbolic_test_util.h"
#include "udf/udf_manager.h"

namespace eva::symbolic {
namespace {

TEST(SymbolicFastpathTest, HullDisjointImpliesEmptyIntersection) {
  Rng rng(0x5eed0001);
  int disjoint = 0;
  for (int i = 0; i < 2000; ++i) {
    Conjunct a = RandomConjunct(rng, 3);
    Conjunct b = RandomConjunct(rng, 3);
    if (HullDisjoint(a, b)) {
      ++disjoint;
      EXPECT_FALSE(a.Intersect(b).has_value())
          << a.ToString() << " vs " << b.ToString();
    }
  }
  // The generator must actually exercise the disjoint branch.
  EXPECT_GT(disjoint, 50);
}

TEST(SymbolicFastpathTest, StreamingHorizonExtension) {
  // The streaming shape: coverage [0, t) repeatedly extended to [0, t').
  udf::UdfManager manager;
  manager.UpdateCoverage("det@v", IdRange(0, 100));
  manager.UpdateCoverage("det@v", IdRange(100, 200));
  EXPECT_EQ(manager.Coverage("det@v").conjuncts().size(), 1u);
  EXPECT_TRUE(manager.Coverage("det@v").Equals(IdRange(0, 200)));
  // An already-covered tick leaves the coverage as it was.
  manager.UpdateCoverage("det@v", IdRange(50, 150));
  EXPECT_TRUE(manager.Coverage("det@v").Equals(IdRange(0, 200)));
}

}  // namespace
}  // namespace eva::symbolic
