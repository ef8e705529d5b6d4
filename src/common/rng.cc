#include "common/rng.h"

#include <cmath>

namespace eva {

int Rng::NextPoisson(double lambda) {
  if (lambda <= 0) return 0;
  // Knuth inversion; fine for lambda <= ~30 as used here.
  double l = std::exp(-lambda);
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= NextDouble();
  } while (p > l);
  return k - 1;
}

}  // namespace eva
