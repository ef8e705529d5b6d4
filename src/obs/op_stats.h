#ifndef EVA_OBS_OP_STATS_H_
#define EVA_OBS_OP_STATS_H_

#include <atomic>
#include <cstdint>

namespace eva::obs {

/// Per-plan-node runtime counters collected while an EXPLAIN ANALYZE (or
/// any stats-enabled execution) drains the operator tree. Time is
/// cumulative — it includes the children's time, mirroring how pull-based
/// operators nest; the renderer derives self-time by subtraction.
///
/// Only the thread executing the query writes these cells (docs/RUNTIME.md).
/// Fields are relaxed atomics all the same — statistics, not
/// synchronization — so a stray cross-thread read is never a data race.
struct OperatorStats {
  std::atomic<int64_t> batches{0};
  std::atomic<int64_t> rows_out{0};
  std::atomic<double> sim_ms{0};   // simulated time, cumulative over children
  std::atomic<double> wall_us{0};  // host wall time, cumulative over children
  std::atomic<int64_t> view_hits{0};
  std::atomic<int64_t> view_misses{0};
  std::atomic<int64_t> udf_invocations{0};  // fresh model evaluations
  std::atomic<int64_t> rows_reused{0};      // tuples answered from view/cache
  std::atomic<int64_t> rows_materialized{0};
  std::atomic<int64_t> udf_retries{0};  // transient-fault retry attempts
  std::atomic<int64_t> segments_skipped{0};  // zone-map probe skips
  /// Probe misses answered by the per-segment Bloom filter without
  /// touching the key index, and the filter's false positives (MayContain
  /// said yes, the key-index search still missed).
  std::atomic<int64_t> bloom_negatives{0};
  std::atomic<int64_t> bloom_fps{0};

  OperatorStats() = default;
  OperatorStats(const OperatorStats& other) { *this = other; }
  OperatorStats& operator=(const OperatorStats& other) {
    batches = other.batches.load(std::memory_order_relaxed);
    rows_out = other.rows_out.load(std::memory_order_relaxed);
    sim_ms = other.sim_ms.load(std::memory_order_relaxed);
    wall_us = other.wall_us.load(std::memory_order_relaxed);
    view_hits = other.view_hits.load(std::memory_order_relaxed);
    view_misses = other.view_misses.load(std::memory_order_relaxed);
    udf_invocations = other.udf_invocations.load(std::memory_order_relaxed);
    rows_reused = other.rows_reused.load(std::memory_order_relaxed);
    rows_materialized =
        other.rows_materialized.load(std::memory_order_relaxed);
    udf_retries = other.udf_retries.load(std::memory_order_relaxed);
    segments_skipped = other.segments_skipped.load(std::memory_order_relaxed);
    bloom_negatives = other.bloom_negatives.load(std::memory_order_relaxed);
    bloom_fps = other.bloom_fps.load(std::memory_order_relaxed);
    return *this;
  }
};

}  // namespace eva::obs

#endif  // EVA_OBS_OP_STATS_H_
