#ifndef EVA_EXEC_EXEC_CONTEXT_H_
#define EVA_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <map>
#include <string>

#include "catalog/catalog.h"
#include "common/sim_clock.h"
#include "obs/metrics.h"
#include "obs/op_stats.h"
#include "storage/view_store.h"
#include "udf/udf_runtime.h"
#include "vision/synthetic_video.h"

namespace eva::baselines {
class FunCache;
}  // namespace eva::baselines

namespace eva::obs {
class EventLog;
}  // namespace eva::obs

namespace eva::fault {
class FaultInjector;
}  // namespace eva::fault

namespace eva::plan {
class PlanNode;
}  // namespace eva::plan

namespace eva::exec {

/// Simulated-cost constants (milliseconds). Values are calibrated to the
/// paper's measurements: c_e per UDF comes from Table 3/Table 5 (stored in
/// the catalog), c_r ≈ 1.8–2.2 ms/frame from Table 4, and view-read costs
/// from the Q8 breakdown (10 s of view reads for ≈10^5 materialized rows).
struct CostConstants {
  double video_read_ms_per_frame = 2.0;   // decode + read a frame
  double view_read_ms_per_row = 0.07;     // read one materialized row
  double view_probe_ms_per_key = 0.005;   // hash probe per input tuple
  double materialize_ms_per_row = 0.02;   // append a row to a view
  double apply_overhead_ms_per_row = 0.002;  // conditional-apply bookkeeping
  /// FunCache: per-invocation serialization + xxHash of the UDF's input
  /// arguments (which include the decoded frame), §5.2. The raw xxHash
  /// rate is much higher, but the per-call argument marshalling the
  /// paper's Python engine pays dominates; calibrated so FunCache shows
  /// the paper's slight negative speedup on VBENCH-LOW.
  double funcache_hash_ms_per_mb = 3.0;
  /// Optimizer overhead per symbolic rewrite of one UDF occurrence.
  double optimize_ms_per_udf = 8.0;
};

/// Per-query execution metrics: the raw material for Table 2 (hit
/// percentage), Table 4 and Fig. 6 (time breakdowns).
struct QueryMetrics {
  /// Session the query ran under (src/service/); 0 for the single-session
  /// path where the engine is driven directly. Attribution only — never
  /// affects results or simulated times.
  int64_t session_id = 0;
  /// Tuples for which each UDF's result was required.
  std::map<std::string, int64_t> invocations;
  /// Tuples satisfied from a materialized view / cache.
  std::map<std::string, int64_t> reused;
  int64_t rows_out = 0;
  /// Transient-fault retry attempts (src/fault/); 0 without injection.
  int64_t udf_retries = 0;
  double optimizer_ms = 0;
  /// No effect; kept because perfbench/ uses it. All three are always 0.
  int64_t symbolic_cache_hits = 0;
  int64_t symbolic_cache_misses = 0;
  int64_t symbolic_cells_pruned = 0;
  /// Simulated-time breakdown of this query (delta of the engine clock).
  SimClock::Snapshot breakdown;

  double TotalMs() const { return breakdown.Total(); }
  int64_t TotalInvocations() const {
    int64_t n = 0;
    for (const auto& [k, v] : invocations) n += v;
    return n;
  }
  int64_t TotalReused() const {
    int64_t n = 0;
    for (const auto& [k, v] : reused) n += v;
    return n;
  }

  void Accumulate(const QueryMetrics& other);
};

/// Everything an operator needs at runtime. Owned by the engine; operators
/// hold a non-owning pointer.
struct ExecContext {
  SimClock* clock = nullptr;
  storage::ViewStore* views = nullptr;
  const catalog::Catalog* catalog = nullptr;
  udf::UdfRuntime* udfs = nullptr;
  const vision::SyntheticVideo* video = nullptr;
  CostConstants costs;
  QueryMetrics* metrics = nullptr;
  /// Non-null only in FunCache mode: tuple-level result cache (§5.1).
  baselines::FunCache* funcache = nullptr;
  int64_t batch_size = 1024;
  /// Monotone id of the query being executed (lifecycle access stamps and
  /// the `.views` last-access column); -1 outside a query.
  int64_t query_id = -1;
  /// Session the query belongs to (0 = single-session path); stamped onto
  /// event-log records emitted from operator code.
  int64_t session_id = 0;
  /// No effect; kept because perfbench/ assigns it.
  bool vectorized_filter = true;
  /// Let view-join probes consult per-segment zone maps to skip reading
  /// segments that cannot satisfy the plan's residual predicate. Results
  /// are identical either way; skipping only avoids kReadView charges and
  /// downstream evaluation of rows the residual filter would drop.
  bool zone_map_skipping = true;

  // --- observability (src/obs/) -------------------------------------------
  /// Metrics sink; nullptr when observability is off, which is the single
  /// cheap check all executor instrumentation hides behind.
  obs::MetricsRegistry* obs_registry = nullptr;
  /// Per-plan-node stat collection (EXPLAIN ANALYZE). When non-null, the
  /// operator builder wraps every operator in a stats decorator.
  std::map<const plan::PlanNode*, obs::OperatorStats>* node_stats = nullptr;
  /// Stats cell of the operator currently inside Next(); maintained by the
  /// decorator so leaf helpers (UDF runners, view probes) attribute their
  /// counters to the right node.
  obs::OperatorStats* active_stats = nullptr;
  /// Structured event sink (udf_retry records); nullptr when observability
  /// is off or no event-log path is configured.
  obs::EventLog* event_log = nullptr;

  /// No effect; kept because perfbench/ assigns it.
  int64_t morsel_rows = 128;
  /// Busy-wait per fresh UDF invocation, in host microseconds: gives
  /// simulated UDF calls real wall time (tests that need a query to stay
  /// in flight). 0 in production simulation; never charges the clock.
  double udf_spin_us = 0;

  // --- fault injection (src/fault/, docs/RELIABILITY.md) ------------------
  /// Non-null only when a fault schedule is active. UDF runners consult it
  /// at "udf:<name>:<frame>:<obj>" before every fresh model evaluation;
  /// occurrence counters are keyed by the full point name.
  fault::FaultInjector* faults = nullptr;
  /// Bounded retry for transient (kError) UDF faults: attempts beyond the
  /// first, before the evaluation degrades to a ResourceExhausted error.
  int udf_max_retries = 3;
  /// Simulated backoff charged per retry attempt (ms; doubles each retry).
  double udf_retry_backoff_ms = 1.0;

  void Charge(CostCategory cat, double ms) const { clock->Charge(cat, ms); }
};

/// Column names shared between operators and the optimizer.
inline constexpr const char* kColId = "id";
inline constexpr const char* kColObj = "obj";
inline constexpr const char* kColLabel = "label";
inline constexpr const char* kColArea = "area";
inline constexpr const char* kColScore = "score";

/// Output columns a detector UDF appends to a frame row.
Schema DetectorOutputSchema();
/// Output column a classifier/filter UDF appends (named after the UDF).
Schema UdfOutputSchema(const catalog::UdfDef& def);

}  // namespace eva::exec

#endif  // EVA_EXEC_EXEC_CONTEXT_H_
