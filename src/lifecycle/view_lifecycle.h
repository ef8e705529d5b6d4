#ifndef EVA_LIFECYCLE_VIEW_LIFECYCLE_H_
#define EVA_LIFECYCLE_VIEW_LIFECYCLE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/exec_context.h"
#include "lifecycle/eviction_policy.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "storage/view_store.h"
#include "symbolic/predicate.h"
#include "udf/udf_manager.h"

namespace eva::lifecycle {

struct LifecycleOptions {
  /// Storage budget for the materialized-view store; 0 (or negative) means
  /// unbounded — no eviction ever runs and lifecycle is observation-only.
  double storage_budget_bytes = 0;
  EvictionPolicyKind policy = EvictionPolicyKind::kCostBenefit;
  /// Admission gating (Eq. 3-derived): skip materializing when the
  /// predicted reuse benefit of a tuple is below its write cost.
  bool admission_enabled = true;
  /// Observed per-UDF invocations required before the admission estimate
  /// trusts session statistics over the optimistic prior. Large by
  /// default so short sessions always materialize (the paper's behavior);
  /// tests lower it to exercise denial.
  int64_t admission_min_evidence = 20000;
  symbolic::SymbolicBudget symbolic_budget;
};

/// The outcome of one admission decision, surfaced in the optimizer report
/// and EXPLAIN ANALYZE. Costs are per input tuple, in simulated ms.
struct AdmissionDecision {
  bool admit = true;
  double predicted_benefit_ms = 0;
  double write_cost_ms = 0;
  std::string reason;
};

/// The predicate a frame-range segment covers: a ≤ id < b over integer
/// frame ids, closed as [a, b−1]. Shared with WAL replay (src/wal/), which
/// must retract exactly what a live eviction retracts so a replayed
/// eviction lands on the same coverage representation.
symbolic::Predicate SegmentPredicate(int64_t first_frame, int64_t frame_end);

/// One segment eviction, for tests, logging, and metrics.
struct EvictionEvent {
  std::string view;  // "<udf>@<video>"
  int64_t segment_id = 0;
  int64_t first_frame = 0;
  int64_t frame_end = 0;  // exclusive
  int64_t keys = 0;
  int64_t rows = 0;
  double bytes = 0;
};

/// The view lifecycle manager: budget-aware admission, cost-benefit
/// segment eviction, and symbolic coverage retraction.
///
/// Admission (§4.2 economics): a tuple's materialization writes cost
/// 3·C_M (Eq. 3) plus the probe/read the future view join will pay; its
/// benefit is the UDF evaluation c_e it saves, discounted by the
/// probability the tuple is ever re-requested. The manager estimates that
/// probability from the session's observed reuse ratio (Laplace-smoothed,
/// optimistic prior of 0.5 until `admission_min_evidence` invocations).
///
/// Eviction: when the store exceeds the budget, view segments (contiguous
/// frame ranges, storage::SegmentStats) are scored by the configured
/// policy and the lowest-scored segments dropped until the store fits.
///
/// Retraction (correctness core): evicting a segment of view v covering
/// frames [a, b) invalidates the aggregated predicate's claim over those
/// tuples, so p_u ← p_u ∧ ¬(a ≤ id < b) via symbolic::Subtract, re-reduced
/// by Algorithm 1. Subsequent p∩/p– splits then schedule recomputation for
/// the evicted range instead of claiming reuse.
///
/// Threading: every method must be called from the driver thread between
/// queries (the same quiescence contract as ViewStore::views()).
class ViewLifecycleManager {
 public:
  ViewLifecycleManager(LifecycleOptions options, storage::ViewStore* views,
                       udf::UdfManager* manager,
                       const catalog::Catalog* catalog,
                       obs::MetricsRegistry* obs = nullptr)
      : options_(options),
        views_(views),
        manager_(manager),
        catalog_(catalog),
        obs_(obs),
        policy_(MakeEvictionPolicy(options.policy)) {}

  /// Should the optimizer schedule materialization for `udf_key`
  /// ("<udf>@<video>") whose UDF costs `cost_e_ms` per tuple? Always
  /// admits when admission is disabled. Updates admission metrics.
  AdmissionDecision AdmitMaterialization(const std::string& udf_key,
                                         double cost_e_ms);

  /// Folds one query's invocation/reuse counts into the session statistics
  /// driving the admission estimate.
  void ObserveQuery(const exec::QueryMetrics& metrics);

  /// Evicts segments until the store fits the budget (no-op when
  /// unbounded). `query_id` anchors recency for cost-benefit scoring.
  /// Returns the evictions performed, already retracted from coverage.
  std::vector<EvictionEvent> EnforceBudget(int64_t query_id);

  double budget_bytes() const { return options_.storage_budget_bytes; }
  void set_budget_bytes(double bytes) {
    options_.storage_budget_bytes = bytes;
  }
  EvictionPolicyKind policy_kind() const { return policy_->kind(); }
  const char* policy_name() const { return policy_->name(); }
  void SetPolicy(EvictionPolicyKind kind) {
    options_.policy = kind;
    policy_ = MakeEvictionPolicy(kind);
  }
  const LifecycleOptions& options() const { return options_; }
  /// Redirects lifecycle metrics (mirrors EvaEngine::set_metrics_registry).
  void set_obs(obs::MetricsRegistry* obs) { obs_ = obs; }
  /// Structured event sink for view_admission / view_eviction /
  /// coverage_retraction records; nullptr (default) emits nothing.
  void set_event_log(obs::EventLog* log) { event_log_ = log; }
  void set_admission_min_evidence(int64_t n) {
    options_.admission_min_evidence = n;
  }
  /// Session the current query belongs to (0 = single-session path); the
  /// engine sets it at the start of every SELECT so admission / eviction /
  /// retraction event records are attributable under fleet traffic.
  /// Admission statistics themselves stay global across sessions — the
  /// shared store arbitrates one budget for all tenants (docs/SERVICE.md).
  void set_current_session(int64_t session_id) {
    current_session_ = session_id;
  }
  int64_t current_session() const { return current_session_; }

  // Session totals (tests / shell).
  int64_t evictions() const { return evictions_; }
  double evicted_bytes() const { return evicted_bytes_; }
  int64_t admissions_granted() const { return admissions_granted_; }
  int64_t admissions_denied() const { return admissions_denied_; }

  /// Drops the observed-reuse statistics and totals (ClearReuseState).
  void Reset();

  /// Starts the next query's tick count at the store's current tick.
  /// Recovery moves the clock (restored stamps, replayed appends) without
  /// running a query, so that jump is not one query's tick volume.
  void SyncAccessTick() { last_enforce_tick_ = views_->current_tick(); }

 private:
  struct UdfSessionStats {
    int64_t invocations = 0;
    int64_t reused = 0;
  };

  /// Estimated probability that a materialized tuple of `udf_key` is
  /// re-requested later in the session.
  double ReuseFraction(const std::string& udf_key) const;

  /// Scores every segment once and evicts the lowest-scored until the
  /// store fits the budget, appending the evictions to `events`.
  void EvictToBudget(const ScoreContext& ctx,
                     std::vector<EvictionEvent>* events);

  LifecycleOptions options_;
  storage::ViewStore* views_;
  udf::UdfManager* manager_;
  const catalog::Catalog* catalog_;
  obs::MetricsRegistry* obs_;
  obs::EventLog* event_log_ = nullptr;
  std::unique_ptr<EvictionPolicy> policy_;
  std::map<std::string, UdfSessionStats> session_;
  /// Access-clock calibration for tick-based recency scoring: the tick
  /// reading at the previous EnforceBudget call and the tick volume of the
  /// query that ran since (ScoreContext::ticks_per_query).
  uint64_t last_enforce_tick_ = 0;
  uint64_t ticks_per_query_ = 1;
  int64_t current_session_ = 0;
  int64_t evictions_ = 0;
  double evicted_bytes_ = 0;
  int64_t admissions_granted_ = 0;
  int64_t admissions_denied_ = 0;
};

}  // namespace eva::lifecycle

#endif  // EVA_LIFECYCLE_VIEW_LIFECYCLE_H_
