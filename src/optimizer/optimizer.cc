#include "optimizer/optimizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>

#include "expr/symbolic_bridge.h"
#include "optimizer/cost_model.h"
#include "optimizer/model_selection.h"
#include "obs/profiler.h"
#include "symbolic/stats.h"

namespace eva::optimizer {

namespace {

using expr::Expr;
using expr::ExprPtr;
using plan::PlanNodePtr;
using symbolic::Predicate;

const char* const kViewSep = "@";

// Collects the column names referenced by an expression (excluding UDF
// call arguments, which reference the raw frame).
void CollectColumns(const Expr& e, std::set<std::string>* out) {
  if (e.kind() == expr::ExprKind::kColumn) out->insert(e.name());
  for (const ExprPtr& c : e.children()) CollectColumns(*c, out);
}

// A classified WHERE conjunct that invokes at least one expensive UDF.
struct UdfPredicate {
  ExprPtr pred;
  std::vector<std::string> udfs;  // referenced UDFs; first is primary
  catalog::UdfDef primary_def;
  bool frame_level = false;  // specialized filter UDFs run before APPLY
  // Symbolic form; IsTrue() sentinel when the predicate is opaque.
  Predicate sym;
  bool sym_ok = false;
  UdfPredicateReport report;
  double rank = 0;
};

// Coverage predicates grow by whole conjuncts per query, so powers of two
// give even resolution on the Fig. 7 x-axis.
std::vector<double> AtomCountBuckets() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}

// Buckets span 0.1us–50ms: from Inter+Diff over a handful of coverage
// cells with a cached NOT(p_u) up to a fresh NOT over hundreds of cells.
std::vector<double> DiffWallBucketsUs() {
  return {0.1, 0.25, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000};
}

}  // namespace

std::string RenderAdmissionLines(const std::vector<AdmissionReport>& adm) {
  std::string out;
  for (const AdmissionReport& a : adm) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "admission: %s %s (benefit %.3f ms/tuple %s write cost "
                  "%.3f ms/tuple)\n",
                  a.udf.c_str(), a.admitted ? "admit" : "deny",
                  a.predicted_benefit_ms, a.admitted ? ">=" : "<",
                  a.write_cost_ms);
    out += line;
  }
  return out;
}

const char* ReuseModeName(ReuseMode mode) {
  switch (mode) {
    case ReuseMode::kNoReuse:
      return "no-reuse";
    case ReuseMode::kHashStash:
      return "hashstash";
    case ReuseMode::kFunCache:
      return "funcache";
    case ReuseMode::kEva:
      return "eva";
  }
  return "unknown";
}

Result<OptimizedQuery> Optimizer::Optimize(
    const parser::SelectStatement& stmt) {
  EVA_ASSIGN_OR_RETURN(catalog::VideoInfo video,
                       catalog_->GetVideo(stmt.table));
  expr::DimKindResolver kinds = [this](const std::string& dim) {
    return stats_->KindOf(dim);
  };
  const bool eva_reuse =
      options_.mode == ReuseMode::kEva && options_.reuse_enabled;
  const bool hashstash = options_.mode == ReuseMode::kHashStash;

  OptimizedQuery out;
  int udf_occurrences = 0;
  // Symbolic-analysis cost scales with the number of atomic formulas the
  // computer-algebra routines touch (the quantity Fig. 7 plots); without
  // Algorithm 1's reduction, coverage predicates — and optimizer time —
  // grow with every query.
  int symbolic_atoms = 0;

  // ---- 1. Split and classify the WHERE conjuncts --------------------------
  std::vector<ExprPtr> id_preds;
  std::vector<ExprPtr> det_preds;  // on detector output columns
  std::vector<UdfPredicate> udf_preds;
  for (const ExprPtr& conjunct : expr::SplitConjuncts(stmt.where)) {
    std::vector<std::string> udfs = conjunct->ReferencedUdfs();
    if (!udfs.empty()) {
      UdfPredicate up;
      up.pred = conjunct;
      up.udfs = std::move(udfs);
      EVA_ASSIGN_OR_RETURN(up.primary_def,
                           catalog_->GetUdf(up.udfs.front()));
      up.frame_level = up.primary_def.kind == catalog::UdfKind::kFilter;
      auto sym = expr::ExprToPredicate(*conjunct, kinds, options_.budget);
      if (sym.ok()) {
        up.sym = sym.MoveValue();
        up.sym_ok = true;
      }
      udf_preds.push_back(std::move(up));
      continue;
    }
    std::set<std::string> cols;
    CollectColumns(*conjunct, &cols);
    bool id_only = true;
    for (const std::string& c : cols) id_only = id_only && c == exec::kColId;
    (id_only ? id_preds : det_preds).push_back(conjunct);
  }

  // ---- 2. Scan range pushdown ---------------------------------------------
  Predicate id_sym = Predicate::True();
  {
    ExprPtr combined = expr::CombineConjuncts(id_preds);
    if (combined) {
      auto sym = expr::ExprToPredicate(*combined, kinds, options_.budget);
      if (sym.ok()) id_sym = sym.MoveValue();
    }
  }
  int64_t scan_lo = 0;
  int64_t scan_hi = video.num_frames;
  bool need_residual_id_filter = !id_preds.empty();
  if (id_sym.DefinitelyFalse()) {
    scan_hi = scan_lo;  // empty scan
    need_residual_id_filter = false;
  } else if (!id_sym.IsTrue()) {
    // Hull of the id intervals across conjuncts.
    symbolic::Interval hull = symbolic::Interval::Empty();
    bool exact = id_sym.conjuncts().size() == 1;
    for (const auto& c : id_sym.conjuncts()) {
      symbolic::DimConstraint dc =
          c.Get(exec::kColId, symbolic::DimKind::kInteger);
      hull = hull.Hull(dc.interval());
      exact = exact && dc.excluded_points().empty();
    }
    if (!hull.lo().infinite) {
      scan_lo = static_cast<int64_t>(std::ceil(hull.lo().value));
    }
    if (!hull.hi().infinite) {
      scan_hi = std::min<int64_t>(
          video.num_frames, static_cast<int64_t>(hull.hi().value) + 1);
    }
    need_residual_id_filter = !exact;
  }
  PlanNodePtr node = std::make_shared<plan::VideoScanNode>(
      stmt.table, scan_lo, scan_hi);
  if (need_residual_id_filter) {
    node = [&] {
      auto f = std::make_shared<plan::FilterNode>(
          expr::CombineConjuncts(id_preds));
      f->AddChild(node);
      return f;
    }();
  }

  // ---- 3. Rank UDF-based predicates (Eq. 2 / Eq. 4) ------------------------
  // Associated predicate shared by all ranking decisions: the direct
  // predicates that run before any UDF-based one (independence assumption,
  // Theorem 4.1).
  Predicate assoc_base = id_sym;
  {
    ExprPtr det_combined = expr::CombineConjuncts(det_preds);
    if (det_combined) {
      auto sym =
          expr::ExprToPredicate(*det_combined, kinds, options_.budget);
      if (sym.ok()) {
        auto merged =
            Predicate::And(assoc_base, sym.value(), options_.budget);
        if (merged.ok()) assoc_base = merged.MoveValue();
      }
    }
  }
  double sel_assoc = std::max(
      symbolic::PredicateSelectivity(assoc_base, *stats_), 1e-9);
  for (UdfPredicate& up : udf_preds) {
    ++udf_occurrences;
    double s = up.sym_ok
                   ? symbolic::PredicateSelectivity(up.sym, *stats_)
                   : 0.5;
    const std::string key = up.primary_def.name + kViewSep + video.name;
    const Predicate& coverage = manager_->Coverage(key);
    double sp = 1.0;
    bool candidate =
        up.primary_def.cost_ms >= options_.candidate_cost_threshold_ms;
    if (eva_reuse && candidate && !coverage.IsFalse()) {
      obs::Span diff_span;
      if (tracer_ != nullptr) {
        diff_span = tracer_->StartSpan("symbolic-diff", "symbolic-diff");
        diff_span.SetAttribute("udf", up.primary_def.name);
        diff_span.SetAttribute("coverage_atoms",
                               static_cast<int64_t>(coverage.AtomCount()));
      }
      auto wall0 = std::chrono::steady_clock::now();
      obs::ProfScope prof("symbolic");
      auto inter = manager_->InterCoverage(key, assoc_base, options_.budget);
      auto diff = manager_->DiffCoverage(key, assoc_base, options_.budget);
      if (obs_ != nullptr) {
        double wall_us =
            std::chrono::duration_cast<
                std::chrono::duration<double, std::micro>>(
                std::chrono::steady_clock::now() - wall0)
                .count();
        if (auto* h = obs_->GetHistogram(
                "eva_symbolic_diff_wall_us",
                "Wall-clock latency of one coverage Inter+Diff "
                "(predicate-difference computation, Algorithm 1 input).",
                DiffWallBucketsUs())) {
          h->Observe(wall_us);
        }
        if (diff.ok()) {
          diff_span.SetAttribute(
              "diff_atoms", static_cast<int64_t>(diff.value().AtomCount()));
        }
      }
      symbolic_atoms += coverage.AtomCount();
      if (inter.ok()) symbolic_atoms += inter.value().AtomCount();
      if (diff.ok()) symbolic_atoms += diff.value().AtomCount();
      if (inter.ok() && diff.ok()) {
        double sel_diff =
            symbolic::PredicateSelectivity(diff.value(), *stats_);
        sp = std::clamp(sel_diff / sel_assoc, 0.0, 1.0);
        up.report.inter_atoms = inter.value().AtomCount();
        up.report.diff_atoms = diff.value().AtomCount();
      }
    }
    UdfCostInputs inputs;
    inputs.selectivity = s;
    inputs.sel_diff_fraction = sp;
    inputs.cost_e_ms = up.primary_def.cost_ms;
    inputs.cost_r_ms = costs_.view_probe_ms_per_key;
    up.report.udf = up.primary_def.name;
    up.report.selectivity = s;
    up.report.sel_diff_fraction = sp;
    up.report.rank_canonical = CanonicalRank(s, up.primary_def.cost_ms);
    up.report.rank_materialization_aware = MaterializationAwareRank(inputs);
    bool use_ma = eva_reuse && options_.materialization_aware_ranking;
    up.rank = use_ma ? up.report.rank_materialization_aware
                     : up.report.rank_canonical;
    if (obs_ != nullptr) {
      obs::Labels labels{{"udf", up.primary_def.name}};
      if (auto* g = obs_->GetGauge(
              "eva_optimizer_rank",
              "Eq. 4 materialization-aware rank of the UDF predicate "
              "(last optimized query).",
              labels)) {
        g->Set(up.report.rank_materialization_aware);
      }
      if (auto* g = obs_->GetGauge(
              "eva_optimizer_rank_canonical",
              "Eq. 2 canonical rank of the UDF predicate (last optimized "
              "query).",
              labels)) {
        g->Set(up.report.rank_canonical);
      }
    }
  }
  std::stable_sort(udf_preds.begin(), udf_preds.end(),
                   [](const UdfPredicate& a, const UdfPredicate& b) {
                     if (a.frame_level != b.frame_level) {
                       return a.frame_level;  // filters run before APPLY
                     }
                     return a.rank < b.rank;
                   });

  // ---- 4. Chain builder for one UDF occurrence -----------------------------
  // Implements the two §4.4 rules: the UDF-based predicate transformation
  // (APPLY chaining) and the materialization-aware transformation
  // (ViewJoin + CondApply + Store). `assoc` is the UDF's associated
  // predicate, recorded into the UdfManager as the new coverage.
  Predicate assoc = id_sym;  // grows as filters are appended
  // Wraps UdfManager::UpdateCoverage with the Algorithm-1 atom-count
  // histograms: `before` is the naive union size (old coverage + the new
  // associated predicate), `after` what the reduction actually kept.
  auto update_coverage = [&](const std::string& key, const Predicate& q_in) {
    Predicate clamped_q;
    if (video.streaming) {
      // Streaming soundness clamp: a claim must never extend past the
      // source's visible horizon — the scan only produced frames below it,
      // and a claim over unarrived frames would later read back as
      // "processed, zero objects". Budget blow claims nothing (a sound
      // underclaim; static videos are untouched, bit-preserving every
      // non-streaming baseline).
      Predicate horizon = Predicate::Atom(
          exec::kColId,
          symbolic::DimConstraint::Numeric(
              symbolic::DimKind::kInteger,
              symbolic::Interval::AtMost(
                  static_cast<double>(video.num_frames - 1))));
      auto clamped = Predicate::And(q_in, horizon, options_.budget);
      clamped_q = clamped.ok() ? clamped.MoveValue() : Predicate::False();
    }
    const Predicate& q = video.streaming ? clamped_q : q_in;
    int atoms_before = manager_->CoverageAtomCount(key) + q.AtomCount();
    manager_->UpdateCoverage(key, q, options_.budget);
    if (obs_ == nullptr) return;
    if (auto* h = obs_->GetHistogram(
            "eva_symbolic_coverage_atoms_before",
            "Aggregated-predicate atom count before Algorithm 1 reduction "
            "(old coverage + new associated predicate).",
            AtomCountBuckets())) {
      h->Observe(atoms_before);
    }
    if (auto* h = obs_->GetHistogram(
            "eva_symbolic_coverage_atoms_after",
            "Aggregated-predicate atom count after Algorithm 1 reduction.",
            AtomCountBuckets())) {
      h->Observe(manager_->CoverageAtomCount(key));
    }
  };
  // `residual` is the filter predicate the split plan applies directly
  // above this UDF's join (p∩ / the conjunct that referenced the UDF).
  // Attaching it to the ViewJoinNode lets the probe skip view segments
  // whose zone maps prove the residual unsatisfiable — the rows would be
  // discarded by that very filter, so results are unchanged.
  auto chain_udf = [&](const std::string& udf_name,
                       const catalog::UdfDef& def,
                       const Predicate& assoc_now,
                       const ExprPtr& residual) -> Status {
    const std::string key = udf_name + kViewSep + video.name;
    bool candidate = def.cost_ms >= options_.candidate_cost_threshold_ms;
    bool materialize = (eva_reuse || hashstash) && candidate;
    // HashStash's recycler only matches operator sub-trees; UDFs inside
    // selection predicates are invisible to it (§5.1), so only the
    // FROM-clause detector is materialized under HashStash.
    if (hashstash && def.kind != catalog::UdfKind::kDetector) {
      materialize = false;
    }
    // Lifecycle admission (Eq. 3): materialization must pay for itself.
    // A denied UDF runs as a plain APPLY with no coverage update, so
    // nothing downstream believes its results were stored.
    if (materialize && eva_reuse && lifecycle_ != nullptr) {
      lifecycle::AdmissionDecision d =
          lifecycle_->AdmitMaterialization(key, def.cost_ms);
      AdmissionReport ar;
      ar.udf = udf_name;
      ar.admitted = d.admit;
      ar.predicted_benefit_ms = d.predicted_benefit_ms;
      ar.write_cost_ms = d.write_cost_ms;
      out.report.admissions.push_back(ar);
      if (!d.admit) materialize = false;
    }
    if (!materialize) {
      auto apply = std::make_shared<plan::ApplyNode>(udf_name);
      apply->AddChild(node);
      node = apply;
      return Status::OK();
    }
    // HashStash reuses at operator-output granularity: a recycled
    // materialization answers the query only when it subsumes the needed
    // input (its compensation rewrites predicates over the dedup'd union);
    // partially covered ranges force re-running the whole operator. EVA's
    // conditional apply recomputes only the difference (§4.4).
    bool usable_coverage = manager_->HasCoverage(key);
    if (!usable_coverage && views_ != nullptr) {
      // Materialization without coverage (loaded from disk): still worth
      // probing per tuple through the view join.
      const storage::MaterializedView* view = views_->Find(key);
      usable_coverage = view != nullptr && view->num_keys() > 0;
    }
    if (usable_coverage && hashstash) {
      auto diff = manager_->DiffCoverage(key, assoc_now, options_.budget);
      usable_coverage = diff.ok() && diff.value().DefinitelyFalse();
    }
    if (usable_coverage) {
      auto join = std::make_shared<plan::ViewJoinNode>(udf_name, key);
      join->set_scan_all_for_dedup(hashstash);
      if (!hashstash) join->set_residual_predicate(residual);
      join->AddChild(node);
      auto cond = std::make_shared<plan::CondApplyNode>(udf_name);
      cond->AddChild(join);
      node = cond;
    } else {
      auto apply = std::make_shared<plan::ApplyNode>(udf_name);
      apply->set_emit_presence_placeholders(true);
      apply->AddChild(node);
      node = apply;
    }
    auto store = std::make_shared<plan::StoreNode>(udf_name, key);
    store->AddChild(node);
    node = store;
    update_coverage(key, assoc_now);
    return Status::OK();
  };

  std::set<std::string> applied_udfs;

  // ---- 5. Frame-level filter UDF predicates (before the detector) ---------
  for (const UdfPredicate& up : udf_preds) {
    if (!up.frame_level) continue;
    EVA_RETURN_IF_ERROR(chain_udf(up.primary_def.name, up.primary_def,
                                  assoc, up.pred));
    applied_udfs.insert(up.primary_def.name);
    auto filter = std::make_shared<plan::FilterNode>(up.pred);
    filter->AddChild(node);
    node = filter;
    if (up.sym_ok) {
      auto merged = Predicate::And(assoc, up.sym, options_.budget);
      if (merged.ok()) assoc = merged.MoveValue();
    }
    out.report.udf_predicates.push_back(up.report);
  }

  // ---- 6. Detector (FROM ... CROSS APPLY) ----------------------------------
  if (stmt.apply.has_value()) {
    ++udf_occurrences;
    const std::string& det_name = stmt.apply->udf_name;
    Predicate q_det = assoc;  // predicates the detector is evaluated under
    if (catalog_->HasUdf(det_name)) {
      EVA_ASSIGN_OR_RETURN(catalog::UdfDef def,
                           catalog_->GetUdf(det_name));
      ExprPtr det_residual = det_preds.empty()
                                 ? nullptr
                                 : expr::CombineConjuncts(det_preds);
      EVA_RETURN_IF_ERROR(chain_udf(det_name, def, q_det, det_residual));
      out.report.detector_exec = det_name;
    } else {
      // Logical UDF: resolve to physical models (§4.3).
      std::string accuracy = stmt.apply->accuracy.empty()
                                 ? "LOW"
                                 : stmt.apply->accuracy;
      bool use_alg2 = eva_reuse && options_.logical_udf_reuse;
      EVA_ASSIGN_OR_RETURN(
          ModelSelection sel,
          SelectPhysicalUdfs(*catalog_, *manager_, det_name, accuracy,
                             video.name, q_det, *stats_, costs_, use_alg2,
                             options_.budget));
      if (obs_ != nullptr) {
        if (auto* c = obs_->GetCounter(
                "eva_model_selection_total",
                "Physical models chosen for logical UDFs (Algorithm 2 "
                "when logical reuse is on, MIN-COST otherwise).",
                {{"udf", sel.execute_udf}})) {
          c->Increment();
        }
        for (const std::string& view_udf : sel.view_udfs) {
          if (auto* c = obs_->GetCounter(
                  "eva_model_selection_view_reuse_total",
                  "Sibling physical-model views Algorithm 2 scheduled for "
                  "reuse instead of re-running a model.",
                  {{"udf", view_udf}})) {
            c->Increment();
          }
        }
      }
      for (const std::string& view_udf : sel.view_udfs) {
        ++udf_occurrences;
        auto join = std::make_shared<plan::ViewJoinNode>(
            view_udf, view_udf + kViewSep + video.name);
        join->AddChild(node);
        node = join;
        out.report.detector_views.push_back(view_udf);
      }
      EVA_ASSIGN_OR_RETURN(catalog::UdfDef exec_def,
                           catalog_->GetUdf(sel.execute_udf));
      bool materialize = options_.reuse_enabled &&
                         options_.mode != ReuseMode::kFunCache &&
                         options_.mode != ReuseMode::kNoReuse;
      const std::string exec_key =
          sel.execute_udf + kViewSep + video.name;
      if (materialize && eva_reuse && lifecycle_ != nullptr) {
        lifecycle::AdmissionDecision d =
            lifecycle_->AdmitMaterialization(exec_key, exec_def.cost_ms);
        AdmissionReport ar;
        ar.udf = sel.execute_udf;
        ar.admitted = d.admit;
        ar.predicted_benefit_ms = d.predicted_benefit_ms;
        ar.write_cost_ms = d.write_cost_ms;
        out.report.admissions.push_back(ar);
        if (!d.admit) materialize = false;
      }
      if (!sel.view_udfs.empty()) {
        // Fill the remainder via conditional apply over the joined rows.
        auto cond =
            std::make_shared<plan::CondApplyNode>(sel.execute_udf);
        cond->AddChild(node);
        node = cond;
      } else if (materialize &&
                 (manager_->HasCoverage(exec_key) ||
                  (views_ != nullptr && views_->Find(exec_key) != nullptr &&
                   views_->Find(exec_key)->num_keys() > 0))) {
        auto join = std::make_shared<plan::ViewJoinNode>(sel.execute_udf,
                                                         exec_key);
        join->AddChild(node);
        auto cond =
            std::make_shared<plan::CondApplyNode>(sel.execute_udf);
        cond->AddChild(join);
        node = cond;
      } else {
        auto apply = std::make_shared<plan::ApplyNode>(sel.execute_udf);
        apply->set_emit_presence_placeholders(materialize);
        apply->AddChild(node);
        node = apply;
      }
      if (materialize) {
        auto store = std::make_shared<plan::StoreNode>(sel.execute_udf,
                                                       exec_key);
        store->AddChild(node);
        node = store;
        update_coverage(exec_key,
                        sel.view_udfs.empty() ? q_det : sel.remainder);
      }
      out.report.detector_exec = sel.execute_udf;
    }
    applied_udfs.insert(out.report.detector_exec);
  } else if (!det_preds.empty() ||
             std::any_of(udf_preds.begin(), udf_preds.end(),
                         [](const UdfPredicate& up) {
                           return !up.frame_level;
                         })) {
    return Status::BindError(
        "object-level predicates require a CROSS APPLY detector");
  }

  // ---- 7. Direct predicates over detector outputs --------------------------
  if (!det_preds.empty()) {
    ExprPtr combined = expr::CombineConjuncts(det_preds);
    auto filter = std::make_shared<plan::FilterNode>(combined);
    filter->AddChild(node);
    node = filter;
    auto sym = expr::ExprToPredicate(*combined, kinds, options_.budget);
    if (sym.ok()) {
      auto merged = Predicate::And(assoc, sym.value(), options_.budget);
      if (merged.ok()) assoc = merged.MoveValue();
    }
  }

  // ---- 8. Object-level UDF predicates in rank order -------------------------
  for (const UdfPredicate& up : udf_preds) {
    if (up.frame_level) continue;
    // Apply every UDF the conjunct references (the primary plus any
    // secondary ones in a multi-UDF conjunct) before filtering.
    for (const std::string& udf_name : up.udfs) {
      if (applied_udfs.count(udf_name) > 0) continue;
      EVA_ASSIGN_OR_RETURN(catalog::UdfDef def,
                           catalog_->GetUdf(udf_name));
      EVA_RETURN_IF_ERROR(chain_udf(udf_name, def, assoc, up.pred));
      applied_udfs.insert(udf_name);
    }
    auto filter = std::make_shared<plan::FilterNode>(up.pred);
    filter->AddChild(node);
    node = filter;
    if (up.sym_ok) {
      auto merged = Predicate::And(assoc, up.sym, options_.budget);
      if (merged.ok()) assoc = merged.MoveValue();
    }
    out.report.udf_predicates.push_back(up.report);
  }

  // ---- 9. UDFs referenced only in the SELECT list ---------------------------
  for (const ExprPtr& item : stmt.select_list) {
    for (const std::string& udf_name : item->ReferencedUdfs()) {
      if (applied_udfs.count(udf_name) > 0) continue;
      ++udf_occurrences;
      EVA_ASSIGN_OR_RETURN(catalog::UdfDef def,
                           catalog_->GetUdf(udf_name));
      EVA_RETURN_IF_ERROR(chain_udf(udf_name, def, assoc, nullptr));
      applied_udfs.insert(udf_name);
    }
  }

  // ---- 10. Aggregation / projection -----------------------------------------
  bool has_count_star = std::any_of(
      stmt.select_list.begin(), stmt.select_list.end(),
      [](const ExprPtr& e) {
        return e->kind() == expr::ExprKind::kCountStar;
      });
  bool has_star = std::any_of(stmt.select_list.begin(),
                              stmt.select_list.end(), [](const ExprPtr& e) {
                                return e->kind() == expr::ExprKind::kStar;
                              });
  if (!stmt.group_by.empty() || has_count_star) {
    auto agg = std::make_shared<plan::AggregateNode>(stmt.group_by);
    agg->AddChild(node);
    node = agg;
  } else if (!has_star) {
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const ExprPtr& item : stmt.select_list) {
      exprs.push_back(item);
      names.push_back(item->kind() == expr::ExprKind::kColumn
                          ? item->name()
                          : item->ToString());
    }
    auto proj = std::make_shared<plan::ProjectNode>(std::move(exprs),
                                                    std::move(names));
    proj->AddChild(node);
    node = proj;
  }

  if (stmt.limit >= 0) {
    auto limit = std::make_shared<plan::LimitNode>(stmt.limit);
    limit->AddChild(node);
    node = limit;
  }

  out.plan = node;
  out.report.plan_text = node->ToString() +
                         RenderAdmissionLines(out.report.admissions);
  out.optimizer_ms =
      5.0 +
      costs_.optimize_ms_per_udf * static_cast<double>(udf_occurrences) +
      0.5 * static_cast<double>(symbolic_atoms);
  return out;
}

}  // namespace eva::optimizer
