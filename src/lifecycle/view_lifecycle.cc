#include "lifecycle/view_lifecycle.h"

#include <algorithm>

#include "symbolic/interval.h"

namespace eva::lifecycle {

namespace {

/// "<udf>@<video>" → "<udf>"; the whole key when there is no separator.
std::string UdfOfViewKey(const std::string& key) {
  size_t at = key.find('@');
  return at == std::string::npos ? key : key.substr(0, at);
}

}  // namespace

symbolic::Predicate SegmentPredicate(int64_t first_frame, int64_t frame_end) {
  return symbolic::Predicate::Atom(
      exec::kColId,
      symbolic::DimConstraint::Numeric(
          symbolic::DimKind::kInteger,
          symbolic::Interval(
              symbolic::Bound::Closed(static_cast<double>(first_frame)),
              symbolic::Bound::Closed(static_cast<double>(frame_end - 1)))));
}

double ViewLifecycleManager::ReuseFraction(const std::string& udf_key) const {
  // Session statistics (QueryMetrics) key by bare UDF name; reuse behavior
  // is a property of the UDF across the session, not of one video.
  auto it = session_.find(UdfOfViewKey(udf_key));
  int64_t invocations = it == session_.end() ? 0 : it->second.invocations;
  int64_t reused = it == session_.end() ? 0 : it->second.reused;
  if (invocations < options_.admission_min_evidence) {
    // Optimistic prior: an exploratory session revisits roughly half its
    // tuples (the paper's workloads sit between the VBENCH-LOW and
    // VBENCH-HIGH overlap regimes). Materialize until evidence says no.
    return 0.5;
  }
  // Laplace-smoothed observed reuse ratio.
  return (static_cast<double>(reused) + 1.0) /
         (static_cast<double>(invocations) + 2.0);
}

AdmissionDecision ViewLifecycleManager::AdmitMaterialization(
    const std::string& udf_key, double cost_e_ms) {
  AdmissionDecision d;
  exec::CostConstants costs;  // admission uses the calibrated defaults
  // Eq. 3 charges 3·C_M per materialized tuple (write + maintain); a
  // future hit additionally pays the probe and the row read.
  d.write_cost_ms = 3.0 * costs.materialize_ms_per_row +
                    costs.view_probe_ms_per_key + costs.view_read_ms_per_row;
  double fraction = ReuseFraction(udf_key);
  d.predicted_benefit_ms = fraction * cost_e_ms;
  if (!options_.admission_enabled) {
    d.admit = true;
    d.reason = "admission disabled";
  } else {
    d.admit = d.predicted_benefit_ms >= d.write_cost_ms;
    d.reason = d.admit ? "benefit >= write cost" : "benefit < write cost";
  }
  if (d.admit) {
    ++admissions_granted_;
  } else {
    ++admissions_denied_;
  }
  if (obs_ != nullptr) {
    if (auto* c = obs_->GetCounter(
            "eva_lifecycle_admission_total",
            "Materialization admission decisions by the view lifecycle "
            "manager (Eq. 3 benefit-vs-write-cost gate).",
            {{"decision", d.admit ? "admit" : "deny"}})) {
      c->Increment();
    }
  }
  if (event_log_ != nullptr) {
    event_log_->Append(
        obs::Event("view_admission")
            .Int("session_id", current_session_)
            .Str("view", udf_key)
            .Bool("admit", d.admit)
            .Num("predicted_benefit_ms", d.predicted_benefit_ms)
            .Num("write_cost_ms", d.write_cost_ms)
            .Str("reason", d.reason)
            .Int("coverage_atoms", manager_->CoverageAtomCount(udf_key)));
  }
  return d;
}

void ViewLifecycleManager::ObserveQuery(const exec::QueryMetrics& metrics) {
  for (const auto& [key, count] : metrics.invocations) {
    session_[key].invocations += count;
  }
  for (const auto& [key, count] : metrics.reused) {
    session_[key].reused += count;
  }
}

std::vector<EvictionEvent> ViewLifecycleManager::EnforceBudget(
    int64_t query_id) {
  std::vector<EvictionEvent> events;

  // Calibrate the tick clock even when unbounded, so enabling a budget
  // mid-session (shell `.budget N`) starts with a realistic per-query
  // tick volume instead of the initial placeholder.
  uint64_t now = views_->current_tick();
  if (now > last_enforce_tick_) ticks_per_query_ = now - last_enforce_tick_;
  last_enforce_tick_ = now;

  if (options_.storage_budget_bytes <= 0) return events;

  // Plan, rank, evict, then seal the survivors. Every stale segment is
  // charged the exact bytes its seal will encode, so the byte totals (and
  // therefore the eviction decisions) are a function of the store's
  // contents alone, not of which segments earlier probes happened to seal,
  // and no evicted segment is encoded.
  views_->PlanStaleSegments();
  ScoreContext ctx;
  ctx.current_query = query_id;
  ctx.current_tick = now;
  ctx.ticks_per_query = ticks_per_query_ > 0 ? ticks_per_query_ : 1;
  EvictToBudget(ctx, &events);
  // The survivors' seals reuse their plans; the store ends sealed.
  views_->SealAllSegments();
  return events;
}

void ViewLifecycleManager::EvictToBudget(const ScoreContext& ctx,
                                         std::vector<EvictionEvent>* events) {
  const int64_t query_id = ctx.current_query;
  double total = views_->TotalSizeBytes();
  if (total <= options_.storage_budget_bytes) return;
  // Score every segment once: an eviction changes no other segment's
  // stats, so the victims are the lowest scores in ascending order. Ties
  // break on (view name, segment id) so eviction order is deterministic.
  struct Scored {
    double score;
    SegmentCandidate cand;
  };
  std::vector<Scored> ranked;
  for (const auto& [name, view] : views_->views()) {
    double cost_e = 0;
    auto def = catalog_->GetUdf(UdfOfViewKey(name));
    if (def.ok()) cost_e = def.value().cost_ms;
    for (const storage::SegmentStats& seg : view->Segments()) {
      SegmentCandidate cand;
      cand.view = name;
      cand.seg = seg;
      cand.cost_e_ms = cost_e;
      const double score = policy_->Score(cand, ctx);
      ranked.push_back({score, std::move(cand)});
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Scored& a, const Scored& b) {
              if (a.score != b.score) return a.score < b.score;
              if (a.cand.view != b.cand.view) return a.cand.view < b.cand.view;
              return a.cand.seg.segment_id < b.cand.seg.segment_id;
            });
  for (const Scored& next : ranked) {
    if (total <= options_.storage_budget_bytes) break;
    const SegmentCandidate& victim = next.cand;
    storage::MaterializedView* view = views_->Find(victim.view);
    if (view == nullptr) break;
    const storage::EvictedSegment ev =
        view->EvictSegment(victim.seg.segment_id);
    if (ev.keys == 0 && ev.rows == 0) break;  // defensive: avoid spinning
    // Charged as ranked: nothing changed the segment since.
    const double bytes = victim.seg.bytes;

    // Symbolic coverage retraction: p_u ← p_u ∧ ¬p_v for the evicted
    // frame range, so the optimizer's p∩/p– splits recompute these
    // tuples instead of claiming reuse (and HashStash-style subsumption
    // checks stay honest).
    const int atoms_before = manager_->CoverageAtomCount(victim.view);
    manager_->RetractCoverage(victim.view,
                              SegmentPredicate(ev.first_frame, ev.frame_end),
                              options_.symbolic_budget);
    if (event_log_ != nullptr) {
      event_log_->Append(obs::Event("view_eviction")
                             .Int("query_id", query_id)
                             .Int("session_id", current_session_)
                             .Str("view", victim.view)
                             .Int("segment_id", victim.seg.segment_id)
                             .Int("first_frame", ev.first_frame)
                             .Int("frame_end", ev.frame_end)
                             .Int("keys", ev.keys)
                             .Int("rows", ev.rows)
                             .Num("bytes", bytes)
                             .Str("policy", policy_name()));
      event_log_->Append(
          obs::Event("coverage_retraction")
              .Int("query_id", query_id)
              .Int("session_id", current_session_)
              .Str("view", victim.view)
              .Int("coverage_atoms_before", atoms_before)
              .Int("coverage_atoms_after",
                   manager_->CoverageAtomCount(victim.view)));
    }

    EvictionEvent event;
    event.view = victim.view;
    event.segment_id = victim.seg.segment_id;
    event.first_frame = ev.first_frame;
    event.frame_end = ev.frame_end;
    event.keys = ev.keys;
    event.rows = ev.rows;
    event.bytes = bytes;
    events->push_back(event);

    ++evictions_;
    evicted_bytes_ += bytes;
    total -= bytes;

    if (obs_ != nullptr) {
      obs::Labels labels{{"policy", policy_name()}};
      if (auto* c = obs_->GetCounter(
              "eva_lifecycle_evictions_total",
              "View segments evicted to fit the storage budget.", labels)) {
        c->Increment();
      }
      if (auto* c = obs_->GetCounter(
              "eva_lifecycle_evicted_bytes_total",
              "Bytes reclaimed by segment eviction.", labels)) {
        c->Increment(bytes);
      }
    }
  }
  if (obs_ != nullptr && !events->empty()) {
    if (auto* g = obs_->GetGauge(
            "eva_lifecycle_budget_bytes",
            "Configured storage budget for the view store (0 = unbounded).")) {
      g->Set(options_.storage_budget_bytes);
    }
  }
}

void ViewLifecycleManager::Reset() {
  session_.clear();
  current_session_ = 0;
  last_enforce_tick_ = 0;
  ticks_per_query_ = 1;
  evictions_ = 0;
  evicted_bytes_ = 0;
  admissions_granted_ = 0;
  admissions_denied_ = 0;
}

}  // namespace eva::lifecycle
