#ifndef EVA_COMMON_SIM_CLOCK_H_
#define EVA_COMMON_SIM_CLOCK_H_

#include <array>
#include <cstdint>
#include <string>

namespace eva {

/// Cost categories matching the paper's time-breakdown reporting
/// (Table 4 and Fig. 6): UDF evaluation, reading video frames, reading
/// materialized views, materializing new results, optimizer time, and
/// everything else (joins, hashing overhead of FunCache, etc.).
enum class CostCategory {
  kUdf = 0,
  kReadVideo,
  kReadView,
  kMaterialize,
  kOptimize,
  kHashing,   // FunCache per-invocation input hashing
  kOther,
  kIngest,    // streaming frame arrival: decode + catalog append (src/ingest)
  kNumCategories,
};

const char* CostCategoryName(CostCategory c);

/// Deterministic simulated clock.
///
/// The paper's headline numbers are wall-clock times dominated by
/// deep-learning inference on a GPU server. This reproduction replaces the
/// models with simulated equivalents (see DESIGN.md §2) that *charge the
/// paper's measured per-tuple costs* to this clock, so every experiment is
/// deterministic and machine-independent while preserving the shapes of the
/// reported results. All charges are in milliseconds of simulated time.
class SimClock {
 public:
  SimClock() { Reset(); }

  void Reset();

  /// Adds `ms` of simulated time under `category`.
  void Charge(CostCategory category, double ms) {
    ms_[static_cast<size_t>(category)] += ms;
  }

  /// Simulated time accumulated in one category since construction/Reset.
  double Elapsed(CostCategory category) const;

  /// Total simulated time across all categories.
  double TotalMs() const;

  /// Snapshot of per-category totals; subtracting two snapshots yields the
  /// breakdown of the work done in between.
  struct Snapshot {
    std::array<double, static_cast<size_t>(CostCategory::kNumCategories)>
        ms{};
    double Total() const;
    Snapshot operator-(const Snapshot& other) const;
    double operator[](CostCategory c) const {
      return ms[static_cast<size_t>(c)];
    }
  };
  Snapshot TakeSnapshot() const;

  std::string ToString() const;

 private:
  std::array<double, static_cast<size_t>(CostCategory::kNumCategories)> ms_{};
};

}  // namespace eva

#endif  // EVA_COMMON_SIM_CLOCK_H_
