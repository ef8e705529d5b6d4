// Seeded random predicates over the vbench universe (id, area, label), so
// that intersections are frequently (but not always) non-empty.

#ifndef EVA_TESTS_SYMBOLIC_TEST_UTIL_H_
#define EVA_TESTS_SYMBOLIC_TEST_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "symbolic/predicate.h"

namespace eva::symbolic {

inline const std::vector<std::string>& TestLabels() {
  static const std::vector<std::string> labels = {"car", "bus", "truck"};
  return labels;
}

inline std::pair<std::string, DimConstraint> RandomAtom(Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0: {
      double v = static_cast<double>(rng.NextBelow(200));
      if (rng.NextBool(0.5)) {
        return {"id", DimConstraint::Numeric(DimKind::kInteger,
                                             Interval::AtLeast(v))};
      }
      return {"id", DimConstraint::Numeric(DimKind::kInteger,
                                           Interval::LessThan(v))};
    }
    case 1:
      return {"id", DimConstraint::NumericNotEqual(
                        DimKind::kInteger,
                        static_cast<double>(rng.NextBelow(200)))};
    case 2: {
      double v = 0.05 * static_cast<double>(rng.NextBelow(20));
      if (rng.NextBool(0.5)) {
        return {"area", DimConstraint::Numeric(DimKind::kReal,
                                               Interval::GreaterThan(v))};
      }
      return {"area",
              DimConstraint::Numeric(DimKind::kReal, Interval::AtMost(v))};
    }
    default: {
      const auto& labels = TestLabels();
      const std::string& v = labels[rng.NextBelow(labels.size())];
      return {"label", DimConstraint::Categorical({v}, rng.NextBool(0.3))};
    }
  }
}

inline Conjunct RandomConjunct(Rng& rng, int max_atoms) {
  Conjunct c;
  int na = 1 + static_cast<int>(rng.NextBelow(max_atoms));
  for (int a = 0; a < na; ++a) {
    auto [dim, constraint] = RandomAtom(rng);
    if (!c.Constrain(dim, constraint)) return RandomConjunct(rng, max_atoms);
  }
  return c;
}

inline Predicate RandomPredicate(Rng& rng, int max_conjuncts,
                                 int max_atoms) {
  Predicate p;
  int nc = 1 + static_cast<int>(rng.NextBelow(max_conjuncts));
  for (int i = 0; i < nc; ++i) p.AddConjunct(RandomConjunct(rng, max_atoms));
  return p;
}

/// id in [lo, hi): the shape streaming coverage grows by.
inline Predicate IdRange(double lo, double hi) {
  Conjunct c;
  c.Constrain("id", DimConstraint::Numeric(DimKind::kInteger,
                                           Interval::AtLeast(lo)));
  c.Constrain("id", DimConstraint::Numeric(DimKind::kInteger,
                                           Interval::LessThan(hi)));
  return Predicate::FromConjunct(std::move(c));
}

}  // namespace eva::symbolic

#endif  // EVA_TESTS_SYMBOLIC_TEST_UTIL_H_
