#include "exec/operators.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "baselines/fun_cache.h"
#include "exec/vector_filter.h"
#include "fault/fault_injector.h"
#include "obs/event_log.h"
#include "obs/profiler.h"
#include "storage/view_store.h"

namespace eva::exec {

namespace {

using catalog::UdfDef;
using catalog::UdfKind;
using plan::PlanKind;
using storage::MaterializedView;
using storage::ViewKey;

// ---------------------------------------------------------------------------
// Observability plumbing. Registry cells are resolved once per operator
// instance (label rendering + map lookup happen at build time); the hot
// path pays one null check per event. All of this is inert when
// ctx->obs_registry is null.
// ---------------------------------------------------------------------------

// Cached per-UDF counters shared by Apply / CondApply / ViewJoin.
struct UdfObsCounters {
  obs::Counter* invocations = nullptr;  // fresh model evaluations
  obs::Counter* reused = nullptr;       // tuples answered from a view/cache
  obs::Counter* retries = nullptr;      // transient-fault retry attempts
};

UdfObsCounters MakeUdfCounters(ExecContext* ctx, const std::string& udf) {
  UdfObsCounters c;
  if (ctx->obs_registry == nullptr) return c;
  c.invocations = ctx->obs_registry->GetCounter(
      "eva_udf_invocations_total", "Fresh UDF model evaluations",
      {{"udf", udf}});
  c.reused = ctx->obs_registry->GetCounter(
      "eva_udf_reused_total",
      "UDF results satisfied from a materialized view or cache",
      {{"udf", udf}});
  c.retries = ctx->obs_registry->GetCounter(
      "eva_udf_retries_total",
      "UDF evaluation retries after injected transient faults",
      {{"udf", udf}});
  return c;
}

// QueryMetrics' per-UDF cells, found on first use instead of one std::map
// lookup per event (map nodes never move). Lazy, so a UDF that never
// counts leaves no zero entry in the maps.
struct UdfMetricCells {
  int64_t* invocations = nullptr;
  int64_t* reused = nullptr;

  void AddInvocation(ExecContext* ctx, const std::string& udf) {
    if (invocations == nullptr) invocations = &ctx->metrics->invocations[udf];
    *invocations += 1;
  }
  // A reused result counts as an invocation too.
  void AddReuse(ExecContext* ctx, const std::string& udf) {
    AddInvocation(ctx, udf);
    if (reused == nullptr) reused = &ctx->metrics->reused[udf];
    *reused += 1;
  }
};

void CountInvocation(ExecContext* ctx, const UdfObsCounters& counters) {
  if (ctx->active_stats != nullptr) ++ctx->active_stats->udf_invocations;
  if (counters.invocations != nullptr) counters.invocations->Increment();
}

void CountReuse(ExecContext* ctx, const UdfObsCounters& counters,
                int64_t rows = 1) {
  if (ctx->active_stats != nullptr) ctx->active_stats->rows_reused += rows;
  if (counters.reused != nullptr) counters.reused->Increment();
}

// ---------------------------------------------------------------------------
// VideoScan
// ---------------------------------------------------------------------------

class VideoScanOp : public Operator {
 public:
  VideoScanOp(ExecContext* ctx, int64_t lo, int64_t hi)
      : Operator(ctx, Schema({{kColId, DataType::kInt64}})),
        next_(std::max<int64_t>(lo, 0)),
        hi_(std::min(hi, ctx->video->num_frames())) {
    if (ctx->obs_registry != nullptr) {
      frames_scanned_ = ctx->obs_registry->GetCounter(
          "eva_frames_scanned_total", "Video frames decoded by scans",
          {{"video", ctx->video->info().name}});
    }
  }

  Result<Batch> Next() override {
    Batch out(output_schema_);
    if (next_ >= hi_) return out;
    int64_t end = std::min(hi_, next_ + ctx_->batch_size);
    for (int64_t f = next_; f < end; ++f) {
      out.AddRow({Value(f)});
    }
    ctx_->Charge(CostCategory::kReadVideo,
                 ctx_->costs.video_read_ms_per_frame *
                     static_cast<double>(end - next_));
    if (frames_scanned_ != nullptr) {
      frames_scanned_->Increment(static_cast<double>(end - next_));
    }
    next_ = end;
    return out;
  }

 private:
  int64_t next_;
  int64_t hi_;
  obs::Counter* frames_scanned_ = nullptr;
};

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

class FilterOp : public Operator {
 public:
  FilterOp(ExecContext* ctx, OperatorPtr child, expr::ExprPtr predicate)
      : Operator(ctx, child->output_schema()),
        child_(std::move(child)),
        predicate_(std::move(predicate)) {
    // Compiled once per query; nullopt keeps the per-row interpreter for
    // predicate shapes the register program does not cover.
    if (ctx->vectorized_filter) {
      program_ = FilterProgram::Compile(*predicate_, output_schema_);
    }
    if (ctx->obs_registry != nullptr) {
      rows_vectorized_ = ctx->obs_registry->GetCounter(
          "eva_rows_filtered_vectorized_total",
          "Rows whose filter verdict came from the vectorized batch "
          "evaluator");
      fill_ratio_ = ctx->obs_registry->GetHistogram(
          "eva_filter_batch_fill_ratio",
          "Input batch occupancy (rows / batch_size) at filter operators",
          {0.1, 0.25, 0.5, 0.75, 0.9, 1.0});
    }
  }

  Result<Batch> Next() override {
    while (true) {
      EVA_ASSIGN_OR_RETURN(Batch in, child_->Next());
      if (in.empty()) return Batch(output_schema_);
      if (fill_ratio_ != nullptr && ctx_->batch_size > 0) {
        fill_ratio_->Observe(static_cast<double>(in.num_rows()) /
                             static_cast<double>(ctx_->batch_size));
      }
      Batch out(output_schema_);
      bool vectorized = false;
      if (program_.has_value() &&
          program_->Execute(in, &keep_).ok()) {
        // A runtime type error falls through to the interpreter below,
        // which reproduces the exact short-circuit behavior and error.
        vectorized = true;
        for (size_t r = 0; r < in.num_rows(); ++r) {
          if (keep_[r] != 0) out.AddRow(std::move(in.mutable_rows()[r]));
        }
        int64_t n = static_cast<int64_t>(in.num_rows());
        if (ctx_->active_stats != nullptr) {
          ctx_->active_stats->rows_filtered_vectorized += n;
        }
        if (rows_vectorized_ != nullptr) {
          rows_vectorized_->Increment(static_cast<double>(n));
        }
      }
      if (!vectorized) {
        for (const Row& row : in.rows()) {
          EVA_ASSIGN_OR_RETURN(
              bool keep, expr::EvaluateBool(*predicate_, in.schema(), row));
          if (keep) out.AddRow(row);
        }
      }
      if (!out.empty()) return out;
    }
  }

 private:
  OperatorPtr child_;
  expr::ExprPtr predicate_;
  std::optional<FilterProgram> program_;
  std::vector<uint8_t> keep_;
  obs::Counter* rows_vectorized_ = nullptr;
  obs::Histogram* fill_ratio_ = nullptr;
};

// ---------------------------------------------------------------------------
// UDF evaluation helpers shared by Apply / CondApply. They run inline on the
// thread executing the query and charge the engine clock directly.
// ---------------------------------------------------------------------------

}  // namespace

void SpinFor(double us) {
  if (us <= 0) return;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::micro>(us));
  while (std::chrono::steady_clock::now() < deadline) {
    // Busy loop: the wall time must occupy a core, not yield it.
  }
}

namespace {

// Consults the fault injector before a fresh model evaluation. A transient
// (kError) fault is retried up to ctx->udf_max_retries times, charging an
// exponentially growing simulated backoff per attempt. A permanent
// (kFail/kCrash) fault, or retry exhaustion, surfaces as a Status error
// that aborts the query; coverage already claimed for it is rolled back by
// the engine (graceful degradation: rerun recomputes).
Status MaybeInjectUdfFault(ExecContext* ctx, const UdfDef& def,
                           int64_t frame, int64_t obj,
                           const UdfObsCounters& obs) {
  if (ctx->faults == nullptr) return Status::OK();
  const std::string point = "udf:" + def.name + ":" + std::to_string(frame) +
                            ":" + std::to_string(obj);
  double backoff_ms = ctx->udf_retry_backoff_ms;
  for (int attempt = 0;; ++attempt) {
    switch (ctx->faults->At(point)) {
      case fault::FaultAction::kNone:
        return Status::OK();
      case fault::FaultAction::kError:
      case fault::FaultAction::kShortWrite:
        if (attempt >= ctx->udf_max_retries) {
          return Status::ResourceExhausted(
              "transient UDF fault persisted after " +
              std::to_string(ctx->udf_max_retries) + " retries at " + point);
        }
        if (ctx->metrics != nullptr) ++ctx->metrics->udf_retries;
        if (ctx->active_stats != nullptr) ++ctx->active_stats->udf_retries;
        if (obs.retries != nullptr) obs.retries->Increment();
        if (ctx->event_log != nullptr) {
          ctx->event_log->Append(obs::Event("udf_retry")
                                     .Int("query_id", ctx->query_id)
                                     .Int("session_id", ctx->session_id)
                                     .Str("udf", def.name)
                                     .Int("frame", frame)
                                     .Int("attempt", attempt + 1)
                                     .Num("backoff_sim_ms", backoff_ms));
        }
        ctx->Charge(CostCategory::kUdf, backoff_ms);
        backoff_ms *= 2;
        break;
      default:  // kFail / kCrash: permanent
        return Status::Internal("injected UDF fault at " + point);
    }
  }
}

// Evaluates the detector on one frame, returning output-column rows
// (obj, label, area, score). Charges UDF cost and counts the invocation.
Result<std::vector<Row>> RunDetector(ExecContext* ctx, const UdfDef& def,
                                     int64_t frame,
                                     const UdfObsCounters& obs,
                                     UdfMetricCells* cells) {
  obs::ProfScope prof("udf");
  EVA_ASSIGN_OR_RETURN(const vision::DetectorModel* model,
                       ctx->udfs->Detector(def.name));
  EVA_RETURN_IF_ERROR(MaybeInjectUdfFault(ctx, def, frame, -1, obs));
  ctx->Charge(CostCategory::kUdf, def.cost_ms);
  SpinFor(ctx->udf_spin_us);
  cells->AddInvocation(ctx, def.name);
  CountInvocation(ctx, obs);
  std::vector<Row> rows;
  for (const vision::Detection& d : model->Detect(*ctx->video, frame)) {
    rows.push_back({Value(static_cast<int64_t>(d.obj_id)), Value(d.label),
                    Value(d.area), Value(d.score)});
  }
  return rows;
}

Result<Value> RunClassifier(ExecContext* ctx, const UdfDef& def,
                            int64_t frame, int64_t obj,
                            const UdfObsCounters& obs,
                            UdfMetricCells* cells) {
  obs::ProfScope prof("udf");
  EVA_ASSIGN_OR_RETURN(const vision::ClassifierModel* model,
                       ctx->udfs->Classifier(def.name));
  EVA_RETURN_IF_ERROR(MaybeInjectUdfFault(ctx, def, frame, obj, obs));
  ctx->Charge(CostCategory::kUdf, def.cost_ms);
  SpinFor(ctx->udf_spin_us);
  cells->AddInvocation(ctx, def.name);
  CountInvocation(ctx, obs);
  return Value(model->Classify(*ctx->video, frame, static_cast<int>(obj)));
}

Result<Value> RunFilterUdf(ExecContext* ctx, const UdfDef& def,
                           int64_t frame, const UdfObsCounters& obs,
                           UdfMetricCells* cells) {
  obs::ProfScope prof("udf");
  EVA_ASSIGN_OR_RETURN(const vision::FilterModel* model,
                       ctx->udfs->Filter(def.name));
  EVA_RETURN_IF_ERROR(MaybeInjectUdfFault(ctx, def, frame, -1, obs));
  ctx->Charge(CostCategory::kUdf, def.cost_ms);
  SpinFor(ctx->udf_spin_us);
  cells->AddInvocation(ctx, def.name);
  CountInvocation(ctx, obs);
  return Value(model->Pass(*ctx->video, frame));
}

// FunCache hashing overhead: the cache key covers the UDF's input
// arguments, dominated by the decoded frame bytes (§5.2).
void ChargeFunCacheHash(ExecContext* ctx) {
  double mb = ctx->video->info().BytesPerFrame() / 1e6;
  ctx->Charge(CostCategory::kHashing,
              ctx->costs.funcache_hash_ms_per_mb * mb);
}

// ---------------------------------------------------------------------------
// Apply: evaluate the UDF for every input row (Fig. 3 rewrite). In FunCache
// mode, consults the tuple-level cache first.
// ---------------------------------------------------------------------------

class ApplyOp : public Operator {
 public:
  static Result<OperatorPtr> Make(ExecContext* ctx, OperatorPtr child,
                                  const std::string& udf,
                                  bool emit_presence_placeholders) {
    EVA_ASSIGN_OR_RETURN(UdfDef def, ctx->catalog->GetUdf(udf));
    EVA_ASSIGN_OR_RETURN(
        Schema schema,
        child->output_schema().Extend(UdfOutputSchema(def).fields()));
    return OperatorPtr(new ApplyOp(ctx, std::move(child), std::move(def),
                                   std::move(schema),
                                   emit_presence_placeholders));
  }

  Result<Batch> Next() override {
    EVA_ASSIGN_OR_RETURN(Batch in, child_->Next());
    if (in.empty()) return Batch(output_schema_);
    int id_idx = in.schema().IndexOf(kColId);
    int obj_idx = in.schema().IndexOf(kColObj);
    Batch out(output_schema_);
    for (const Row& row : in.rows()) {
      int64_t frame = row[static_cast<size_t>(id_idx)].AsInt64();
      if (def_.kind == UdfKind::kDetector) {
        EVA_ASSIGN_OR_RETURN(std::vector<Row> dets, DetectorResults(frame));
        if (dets.empty() && emit_presence_placeholders_) {
          // NULL placeholder so the STORE above records presence even for
          // frames where nothing was detected.
          Row full = row;
          for (size_t i = 0; i < UdfOutputSchema(def_).num_fields(); ++i) {
            full.push_back(Value::Null());
          }
          out.AddRow(std::move(full));
          continue;
        }
        for (Row& d : dets) {
          Row full = row;
          for (Value& v : d) full.push_back(std::move(v));
          out.AddRow(std::move(full));
        }
      } else if (def_.kind == UdfKind::kClassifier) {
        const Value& obj_v = row[static_cast<size_t>(obj_idx)];
        Row full = row;
        if (obj_v.is_null()) {
          full.push_back(Value::Null());
        } else {
          EVA_ASSIGN_OR_RETURN(Value v,
                               ClassifierResult(frame, obj_v.AsInt64()));
          full.push_back(std::move(v));
        }
        out.AddRow(std::move(full));
      } else {  // filter UDF
        EVA_ASSIGN_OR_RETURN(Value v, FilterResult(frame));
        Row full = row;
        full.push_back(std::move(v));
        out.AddRow(std::move(full));
      }
    }
    return out;
  }

 private:
  ApplyOp(ExecContext* ctx, OperatorPtr child, UdfDef def, Schema schema,
          bool emit_presence_placeholders)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        def_(std::move(def)),
        emit_presence_placeholders_(emit_presence_placeholders),
        obs_(MakeUdfCounters(ctx, def_.name)) {}

  Result<std::vector<Row>> DetectorResults(int64_t frame) {
    if (ctx_->funcache != nullptr) {
      ChargeFunCacheHash(ctx_);
      ViewKey key{frame, -1};
      if (const std::vector<Row>* hit =
              ctx_->funcache->Lookup(def_.name, key)) {
        cells_.AddReuse(ctx_, def_.name);
        CountReuse(ctx_, obs_);
        return *hit;
      }
      EVA_ASSIGN_OR_RETURN(std::vector<Row> rows,
                           RunDetector(ctx_, def_, frame, obs_, &cells_));
      ctx_->funcache->Insert(def_.name, key, rows);
      return rows;
    }
    return RunDetector(ctx_, def_, frame, obs_, &cells_);
  }

  Result<Value> ClassifierResult(int64_t frame, int64_t obj) {
    if (ctx_->funcache != nullptr) {
      ChargeFunCacheHash(ctx_);
      ViewKey key{frame, obj};
      if (const std::vector<Row>* hit =
              ctx_->funcache->Lookup(def_.name, key)) {
        cells_.AddReuse(ctx_, def_.name);
        CountReuse(ctx_, obs_);
        return (*hit)[0][0];
      }
      EVA_ASSIGN_OR_RETURN(
          Value v, RunClassifier(ctx_, def_, frame, obj, obs_, &cells_));
      ctx_->funcache->Insert(def_.name, key, {{v}});
      return v;
    }
    return RunClassifier(ctx_, def_, frame, obj, obs_, &cells_);
  }

  Result<Value> FilterResult(int64_t frame) {
    if (ctx_->funcache != nullptr) {
      ChargeFunCacheHash(ctx_);
      ViewKey key{frame, -1};
      if (const std::vector<Row>* hit =
              ctx_->funcache->Lookup(def_.name, key)) {
        cells_.AddReuse(ctx_, def_.name);
        CountReuse(ctx_, obs_);
        return (*hit)[0][0];
      }
      EVA_ASSIGN_OR_RETURN(Value v,
                           RunFilterUdf(ctx_, def_, frame, obs_, &cells_));
      ctx_->funcache->Insert(def_.name, key, {{v}});
      return v;
    }
    return RunFilterUdf(ctx_, def_, frame, obs_, &cells_);
  }

  OperatorPtr child_;
  UdfDef def_;
  bool emit_presence_placeholders_;
  UdfObsCounters obs_;
  UdfMetricCells cells_;
};

// ---------------------------------------------------------------------------
// ViewJoin: LEFT OUTER JOIN with the materialized view (Fig. 4 step 1).
// Rows found in the view get outputs populated (and count as reused
// invocations); missing rows get NULL outputs for CondApply to fill.
//
// Probing is batched: a pre-pass classifies each input row (pass-through /
// NULL-out / probe) and collects the probe keys, then one ProbeBatch call
// answers every probe under a single view-lock acquisition from the
// sealed columnar segments. When the plan attached a residual
// predicate and zone-map skipping is on, segments whose zone maps prove
// the residual unsatisfiable are skipped: their hits keep identical
// metrics, access stamps, and probe charges, but the kReadView charge and
// the output rows are dropped — the residual FilterNode above would
// discard those rows anyway (and STORE skips keys already present), so
// query results are unchanged.
// ---------------------------------------------------------------------------

class ViewJoinOp : public Operator {
 public:
  static Result<OperatorPtr> Make(ExecContext* ctx, OperatorPtr child,
                                  const std::string& udf,
                                  const std::string& view_name,
                                  bool scan_all_for_dedup,
                                  expr::ExprPtr residual) {
    EVA_ASSIGN_OR_RETURN(UdfDef def, ctx->catalog->GetUdf(udf));
    Schema out = child->output_schema();
    Schema udf_out = UdfOutputSchema(def);
    // Extend only with columns not already present (multi-view chains for
    // one logical UDF share output columns).
    for (const Field& f : udf_out.fields()) {
      if (!out.Contains(f.name)) out.AddField(f);
    }
    return OperatorPtr(new ViewJoinOp(ctx, std::move(child), std::move(def),
                                      view_name, scan_all_for_dedup,
                                      std::move(residual), std::move(out)));
  }

  Result<Batch> Next() override {
    if (scan_all_pending_) {
      // HashStash: dedup the union of all matched operator outputs — a
      // full read of the recycled materialization (§5.1 baseline).
      scan_all_pending_ = false;
      const MaterializedView* view = ctx_->views->Find(view_name_);
      if (view != nullptr) {
        ctx_->Charge(CostCategory::kReadView,
                     ctx_->costs.view_read_ms_per_row *
                         static_cast<double>(view->num_rows()));
      }
    }
    EVA_ASSIGN_OR_RETURN(Batch in, child_->Next());
    Batch out(output_schema_);
    if (in.empty()) return out;
    MaterializedView* view = ctx_->views->Find(view_name_);
    int id_idx = in.schema().IndexOf(kColId);
    int obj_idx = in.schema().IndexOf(kColObj);
    size_t n_outputs = UdfOutputSchema(def_).num_fields();
    bool outputs_present =
        in.schema().Contains(def_.kind == UdfKind::kDetector
                                 ? kColObj
                                 : def_.name);
    int already_idx = in.schema().IndexOf(def_.name);

    // Pre-pass: classify rows and collect probe keys. Within one batch no
    // Put can land on this view (STORE sits above and runs only after the
    // batch is emitted), so a batch-start probe equals per-row probes.
    enum RowAction : uint8_t { kPass = 0, kNullOut, kProbe };
    actions_.clear();
    probe_keys_.clear();
    for (const Row& row : in.rows()) {
      int64_t frame = row[static_cast<size_t>(id_idx)].AsInt64();
      if (def_.kind == UdfKind::kDetector) {
        // A row that already has a non-null obj was populated by an
        // earlier view in the chain; pass it through.
        if (outputs_present && obj_idx >= 0 &&
            !row[static_cast<size_t>(obj_idx)].is_null()) {
          actions_.push_back(kPass);
          continue;
        }
        actions_.push_back(kProbe);
        probe_keys_.push_back(ViewKey{frame, -1});
      } else {
        bool already =
            already_idx >= 0 &&
            !row[static_cast<size_t>(already_idx)].is_null();
        if (already) {
          actions_.push_back(kPass);
          continue;
        }
        const Value& obj_v = obj_idx >= 0
                                 ? row[static_cast<size_t>(obj_idx)]
                                 : Value::Null();
        if (def_.kind == UdfKind::kClassifier && obj_v.is_null()) {
          actions_.push_back(kNullOut);
          continue;
        }
        actions_.push_back(kProbe);
        probe_keys_.push_back(
            ViewKey{frame, def_.kind == UdfKind::kClassifier
                               ? obj_v.AsInt64()
                               : -1});
      }
    }
    probe_res_.Clear();
    if (view != nullptr && !probe_keys_.empty()) {
      storage::ZoneCheckFn zone_fn;
      if (ctx_->zone_map_skipping && residual_ != nullptr) {
        zone_fn = [this](const storage::ColumnarSegment& seg) {
          return ZoneCanMatch(*residual_, seg, value_schema_);
        };
      }
      view->ProbeBatch(probe_keys_, zone_fn, &probe_res_);
    }

    size_t oi = 0;  // cursor into probe_res_.outcomes, in probe order
    accesses_.clear();
    for (size_t r = 0; r < in.num_rows(); ++r) {
      // The batch is ours: rows move into the output instead of copying.
      Row& row = in.mutable_rows()[r];
      int64_t frame = row[static_cast<size_t>(id_idx)].AsInt64();
      if (def_.kind == UdfKind::kDetector) {
        if (actions_[r] == kPass) {
          out.AddRow(std::move(row));
          continue;
        }
        ctx_->Charge(CostCategory::kOther,
                     ctx_->costs.view_probe_ms_per_key);
        const storage::ProbeOutcome* oc =
            view != nullptr ? &probe_res_.outcomes[oi++] : nullptr;
        if (oc != nullptr && oc->status != storage::ProbeStatus::kMiss) {
          cells_.AddReuse(ctx_, def_.name);
          CountProbe(true);
          accesses_.emplace_back(frame, ctx_->views->NextAccessTick());
          if (oc->status == storage::ProbeStatus::kHit) {
            ctx_->Charge(CostCategory::kReadView,
                         ctx_->costs.view_read_ms_per_row *
                             static_cast<double>(oc->rows_count));
            // Cells come straight out of the pinned columnar snapshot —
            // one materialization, directly into the output row.
            for (int32_t i = 0; i < oc->rows_count; ++i) {
              const storage::ColumnarSegment& seg = probe_res_.segment(*oc);
              Row full = TrimmedBase(row);
              size_t vr = static_cast<size_t>(oc->rows_begin + i);
              for (const storage::ColumnVec& cv : seg.cols) {
                full.push_back(cv.At(vr));
              }
              out.AddRow(std::move(full));
            }
          }
          // kHitSkipped: the zone map proved the residual filter above
          // discards every stored row — skip the read, emit nothing.
        } else {
          CountProbe(false);
          Row full = std::move(row);
          full.resize(std::min(full.size(), output_width_base_));
          full.resize(full.size() + n_outputs);  // NULL outputs
          out.AddRow(std::move(full));
        }
      } else {
        // Classifier / filter UDF: single output column.
        int out_idx = output_schema_.IndexOf(def_.name);
        Row full = std::move(row);
        full.resize(output_schema_.num_fields());
        if (actions_[r] == kPass) {
          out.AddRow(std::move(full));
          continue;
        }
        if (actions_[r] == kNullOut) {
          full[static_cast<size_t>(out_idx)] = Value::Null();
          out.AddRow(std::move(full));
          continue;
        }
        ctx_->Charge(CostCategory::kOther,
                     ctx_->costs.view_probe_ms_per_key);
        const storage::ProbeOutcome* oc =
            view != nullptr ? &probe_res_.outcomes[oi++] : nullptr;
        if (oc != nullptr && oc->status != storage::ProbeStatus::kMiss) {
          cells_.AddReuse(ctx_, def_.name);
          CountProbe(true);
          accesses_.emplace_back(frame, ctx_->views->NextAccessTick());
          if (oc->status == storage::ProbeStatus::kHit) {
            ctx_->Charge(CostCategory::kReadView,
                         ctx_->costs.view_read_ms_per_row);
            full[static_cast<size_t>(out_idx)] =
                oc->rows_count == 0
                    ? Value::Null()
                    : probe_res_.segment(*oc).cols[0].At(
                          static_cast<size_t>(oc->rows_begin));
            out.AddRow(std::move(full));
          }
          // kHitSkipped: drop the row — STORE finds its key present (no
          // Put) and the residual filter above would discard it.
        } else {
          CountProbe(false);
          full[static_cast<size_t>(out_idx)] = Value::Null();
          out.AddRow(std::move(full));
        }
      }
    }
    // Access stamps land once per batch: nothing reads them before the
    // batch ends, and the last (tick, query) per segment wins either way.
    if (!accesses_.empty()) view->RecordAccess(accesses_, ctx_->query_id);
    if (probe_res_.segments_skipped > 0) {
      if (ctx_->active_stats != nullptr) {
        ctx_->active_stats->segments_skipped += probe_res_.segments_skipped;
      }
      if (segments_skipped_ != nullptr) {
        segments_skipped_->Increment(
            static_cast<double>(probe_res_.segments_skipped));
      }
    }
    if (probe_res_.bloom_negatives > 0 || probe_res_.bloom_fps > 0 ||
        probe_res_.bloom_hits > 0) {
      if (ctx_->active_stats != nullptr) {
        ctx_->active_stats->bloom_negatives += probe_res_.bloom_negatives;
        ctx_->active_stats->bloom_fps += probe_res_.bloom_fps;
      }
      if (bloom_hits_ != nullptr && probe_res_.bloom_hits > 0) {
        bloom_hits_->Increment(static_cast<double>(probe_res_.bloom_hits));
      }
      if (bloom_negatives_ != nullptr && probe_res_.bloom_negatives > 0) {
        bloom_negatives_->Increment(
            static_cast<double>(probe_res_.bloom_negatives));
      }
      if (bloom_fps_ != nullptr && probe_res_.bloom_fps > 0) {
        bloom_fps_->Increment(static_cast<double>(probe_res_.bloom_fps));
      }
    }
    return out;
  }

 private:
  ViewJoinOp(ExecContext* ctx, OperatorPtr child, UdfDef def,
             std::string view_name, bool scan_all, expr::ExprPtr residual,
             Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        def_(std::move(def)),
        view_name_(std::move(view_name)),
        scan_all_pending_(scan_all),
        residual_(std::move(residual)),
        value_schema_(UdfOutputSchema(def_)) {
    // Width of the input columns that precede the detector outputs: when
    // the input already carries (possibly NULL) output columns from an
    // earlier view join, strip them before re-appending.
    output_width_base_ = output_schema_.num_fields() -
                         UdfOutputSchema(def_).num_fields();
    if (ctx->obs_registry != nullptr) {
      probe_hits_ = ctx->obs_registry->GetCounter(
          "eva_view_probe_hits_total",
          "Materialized-view probes answered from the view",
          {{"udf", def_.name}});
      probe_misses_ = ctx->obs_registry->GetCounter(
          "eva_view_probe_misses_total",
          "Materialized-view probes that fell through to the UDF",
          {{"udf", def_.name}});
      segments_skipped_ = ctx->obs_registry->GetCounter(
          "eva_segments_skipped_total",
          "View segments skipped by zone-map residual-predicate pruning",
          {{"udf", def_.name}});
      bloom_hits_ = ctx->obs_registry->GetCounter(
          "eva_bloom_hits_total",
          "Probes the segment Bloom filter passed through to the key index",
          {{"udf", def_.name}});
      bloom_negatives_ = ctx->obs_registry->GetCounter(
          "eva_bloom_negatives_total",
          "Probe misses short-circuited by the segment Bloom filter",
          {{"udf", def_.name}});
      bloom_fps_ = ctx->obs_registry->GetCounter(
          "eva_bloom_fps_total",
          "Bloom false positives (filter passed, key index still missed)",
          {{"udf", def_.name}});
    }
  }

  void CountProbe(bool hit) {
    if (ctx_->active_stats != nullptr) {
      if (hit) {
        ++ctx_->active_stats->view_hits;
        ++ctx_->active_stats->rows_reused;
      } else {
        ++ctx_->active_stats->view_misses;
      }
    }
    if (hit && probe_hits_ != nullptr) probe_hits_->Increment();
    if (!hit && probe_misses_ != nullptr) probe_misses_->Increment();
  }

  Row TrimmedBase(const Row& row) const {
    size_t base = std::min(row.size(), output_width_base_);
    return Row(row.begin(), row.begin() + static_cast<long>(base));
  }

  OperatorPtr child_;
  UdfDef def_;
  std::string view_name_;
  bool scan_all_pending_;
  expr::ExprPtr residual_;
  Schema value_schema_;  // the view's value schema (zone-check resolution)
  size_t output_width_base_;
  // Per-batch scratch, reused across Next() calls.
  std::vector<uint8_t> actions_;
  std::vector<ViewKey> probe_keys_;
  storage::ProbeResult probe_res_;
  std::vector<std::pair<int64_t, uint64_t>> accesses_;  // (frame, tick)
  UdfMetricCells cells_;
  obs::Counter* probe_hits_ = nullptr;
  obs::Counter* probe_misses_ = nullptr;
  obs::Counter* segments_skipped_ = nullptr;
  obs::Counter* bloom_hits_ = nullptr;
  obs::Counter* bloom_negatives_ = nullptr;
  obs::Counter* bloom_fps_ = nullptr;
};

// ---------------------------------------------------------------------------
// CondApply: the conditional apply operator A[p*] (Fig. 4 step 2). The
// pass-through predicate is "outputs IS NOT NULL": only rows missing from
// the view are evaluated.
// ---------------------------------------------------------------------------

class CondApplyOp : public Operator {
 public:
  static Result<OperatorPtr> Make(ExecContext* ctx, OperatorPtr child,
                                  const std::string& udf) {
    EVA_ASSIGN_OR_RETURN(UdfDef def, ctx->catalog->GetUdf(udf));
    Schema schema = child->output_schema();
    if (def.kind == UdfKind::kDetector && !schema.Contains(kColObj)) {
      return Status::Internal(
          "CondApply(detector) requires view-joined input");
    }
    if (def.kind != UdfKind::kDetector && !schema.Contains(def.name)) {
      return Status::Internal("CondApply requires the output column " +
                              def.name);
    }
    return OperatorPtr(new CondApplyOp(ctx, std::move(child), std::move(def),
                                       std::move(schema)));
  }

  Result<Batch> Next() override {
    EVA_ASSIGN_OR_RETURN(Batch in, child_->Next());
    if (in.empty()) return Batch(output_schema_);
    int id_idx = in.schema().IndexOf(kColId);
    int obj_idx = in.schema().IndexOf(kColObj);
    size_t n_outputs = UdfOutputSchema(def_).num_fields();
    size_t base_width = output_schema_.num_fields() - n_outputs;
    ctx_->Charge(CostCategory::kOther,
                 ctx_->costs.apply_overhead_ms_per_row *
                     static_cast<double>(in.num_rows()));
    Batch out(output_schema_);
    for (const Row& row : in.rows()) {
      int64_t frame = row[static_cast<size_t>(id_idx)].AsInt64();
      if (def_.kind == UdfKind::kDetector) {
        if (!row[static_cast<size_t>(obj_idx)].is_null()) {
          out.AddRow(row);  // populated by the view join: pass through
          continue;
        }
        EVA_ASSIGN_OR_RETURN(std::vector<Row> dets,
                             RunDetector(ctx_, def_, frame, obs_, &cells_));
        if (dets.empty()) {
          // Keep the NULL placeholder so STORE records "frame processed,
          // zero objects" before dropping it.
          out.AddRow(row);
          continue;
        }
        for (Row& d : dets) {
          Row full(row.begin(), row.begin() + static_cast<long>(base_width));
          for (Value& v : d) full.push_back(std::move(v));
          out.AddRow(std::move(full));
        }
      } else {
        int out_idx = output_schema_.IndexOf(def_.name);
        Row full = row;
        const Value& current = row[static_cast<size_t>(out_idx)];
        if (current.is_null()) {
          if (def_.kind == UdfKind::kClassifier) {
            const Value& obj_v = row[static_cast<size_t>(obj_idx)];
            if (!obj_v.is_null()) {
              EVA_ASSIGN_OR_RETURN(
                  Value v,
                  RunClassifier(ctx_, def_, frame, obj_v.AsInt64(), obs_,
                                &cells_));
              full[static_cast<size_t>(out_idx)] = std::move(v);
            }
          } else {
            EVA_ASSIGN_OR_RETURN(
                Value v, RunFilterUdf(ctx_, def_, frame, obs_, &cells_));
            full[static_cast<size_t>(out_idx)] = std::move(v);
          }
        }
        out.AddRow(std::move(full));
      }
    }
    return out;
  }

 private:
  CondApplyOp(ExecContext* ctx, OperatorPtr child, UdfDef def, Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        def_(std::move(def)),
        obs_(MakeUdfCounters(ctx, def_.name)) {}

  OperatorPtr child_;
  UdfDef def_;
  UdfObsCounters obs_;
  UdfMetricCells cells_;
};

// ---------------------------------------------------------------------------
// Store: appends fresh UDF results to the materialized view (Fig. 4 step
// 3). Append-only and idempotent: keys already present are skipped, so
// rows that came from the view flow through for free.
// ---------------------------------------------------------------------------

class StoreOp : public Operator {
 public:
  static Result<OperatorPtr> Make(ExecContext* ctx, OperatorPtr child,
                                  const std::string& udf,
                                  const std::string& view_name) {
    EVA_ASSIGN_OR_RETURN(UdfDef def, ctx->catalog->GetUdf(udf));
    return OperatorPtr(new StoreOp(ctx, std::move(child), std::move(def),
                                   view_name));
  }

  Result<Batch> Next() override {
    EVA_ASSIGN_OR_RETURN(Batch in, child_->Next());
    Batch out(output_schema_);
    if (in.empty()) return out;
    MaterializedView* view =
        ctx_->views->GetOrCreate(view_name_, UdfOutputSchema(def_));
    int id_idx = in.schema().IndexOf(kColId);
    int obj_idx = in.schema().IndexOf(kColObj);
    std::vector<Row>& rows = in.mutable_rows();
    // Cells are appended straight from the input rows; the rows then move
    // into the output.
    if (def_.kind == UdfKind::kDetector) {
      // One key per run of rows of a frame; presence is recorded even for
      // frames whose detector output is empty (NULL placeholder rows).
      size_t n_outputs = UdfOutputSchema(def_).num_fields();
      size_t base_width = in.schema().num_fields() - n_outputs;
      auto frame_of = [id_idx](const Row& row) {
        return row[static_cast<size_t>(id_idx)].AsInt64();
      };
      auto placeholder = [obj_idx](const Row& row) {
        return row[static_cast<size_t>(obj_idx)].is_null();
      };
      for (size_t begin = 0, end = 0; begin < rows.size(); begin = end) {
        const int64_t frame = frame_of(rows[begin]);
        group_.clear();
        for (end = begin; end < rows.size() && frame_of(rows[end]) == frame;
             ++end) {
          if (!placeholder(rows[end])) group_.push_back(&rows[end]);
        }
        if (view->Put(ViewKey{frame, -1}, group_, base_width, next_tick_,
                      ctx_->query_id)) {
          ctx_->Charge(CostCategory::kMaterialize,
                       ctx_->costs.materialize_ms_per_row *
                           static_cast<double>(group_.size() + 1));
          CountMaterialized(static_cast<int64_t>(group_.size()) + 1);
        }
        // Placeholder rows are dropped here.
        for (size_t r = begin; r < end; ++r) {
          if (!placeholder(rows[r])) out.AddRow(std::move(rows[r]));
        }
      }
      return out;
    }
    // Classifier / filter UDF: one row per key; every row passes through.
    int val_idx = in.schema().IndexOf(def_.name);
    for (const Row& row : rows) {
      if (row[static_cast<size_t>(val_idx)].is_null()) continue;
      int64_t obj = -1;
      if (def_.kind == UdfKind::kClassifier) {
        const Value& obj_v = row[static_cast<size_t>(obj_idx)];
        if (obj_v.is_null()) continue;
        obj = obj_v.AsInt64();
      }
      const Row* cell_row = &row;
      if (view->Put(ViewKey{row[static_cast<size_t>(id_idx)].AsInt64(), obj},
                    {&cell_row, 1}, static_cast<size_t>(val_idx), next_tick_,
                    ctx_->query_id)) {
        ctx_->Charge(CostCategory::kMaterialize,
                     ctx_->costs.materialize_ms_per_row);
        CountMaterialized(1);
      }
    }
    return Batch(output_schema_, std::move(rows));
  }

 private:
  StoreOp(ExecContext* ctx, OperatorPtr child, UdfDef def,
          std::string view_name)
      : Operator(ctx, child->output_schema()),
        child_(std::move(child)),
        def_(std::move(def)),
        view_name_(std::move(view_name)),
        next_tick_([ctx] { return ctx->views->NextAccessTick(); }) {
    if (ctx->obs_registry != nullptr) {
      materialized_ = ctx->obs_registry->GetCounter(
          "eva_materialized_rows_total",
          "Rows appended to materialized views",
          {{"view", view_name_}});
    }
  }

  void CountMaterialized(int64_t rows) {
    if (ctx_->active_stats != nullptr) {
      ctx_->active_stats->rows_materialized += rows;
    }
    if (materialized_ != nullptr) {
      materialized_->Increment(static_cast<double>(rows));
    }
  }

  OperatorPtr child_;
  UdfDef def_;
  std::string view_name_;
  // Draws an access tick only for keys Put actually inserts.
  std::function<uint64_t()> next_tick_;
  std::vector<const Row*> group_;  // detector rows of one frame (scratch)
  obs::Counter* materialized_ = nullptr;
};

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

class ProjectOp : public Operator {
 public:
  ProjectOp(ExecContext* ctx, OperatorPtr child,
            std::vector<expr::ExprPtr> exprs, Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        exprs_(std::move(exprs)) {}

  Result<Batch> Next() override {
    EVA_ASSIGN_OR_RETURN(Batch in, child_->Next());
    Batch out(output_schema_);
    if (in.empty()) return out;
    for (const Row& row : in.rows()) {
      Row projected;
      projected.reserve(exprs_.size());
      for (const expr::ExprPtr& e : exprs_) {
        EVA_ASSIGN_OR_RETURN(Value v,
                             expr::EvaluateScalar(*e, in.schema(), row));
        projected.push_back(std::move(v));
      }
      out.AddRow(std::move(projected));
    }
    return out;
  }

 private:
  OperatorPtr child_;
  std::vector<expr::ExprPtr> exprs_;
};

// ---------------------------------------------------------------------------
// Aggregate: COUNT(*) GROUP BY <cols>
// ---------------------------------------------------------------------------

class AggregateOp : public Operator {
 public:
  AggregateOp(ExecContext* ctx, OperatorPtr child,
              std::vector<std::string> group_by, Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        group_by_(std::move(group_by)) {}

  Result<Batch> Next() override {
    if (done_) return Batch(output_schema_);
    done_ = true;
    std::vector<Row> group_rows;
    std::vector<int64_t> counts;
    std::map<std::string, size_t> index;
    while (true) {
      EVA_ASSIGN_OR_RETURN(Batch in, child_->Next());
      if (in.empty()) break;
      std::vector<int> idxs;
      for (const std::string& col : group_by_) {
        int i = in.schema().IndexOf(col);
        if (i < 0) return Status::BindError("unknown group column: " + col);
        idxs.push_back(i);
      }
      for (const Row& row : in.rows()) {
        std::string key;
        Row group;
        for (int i : idxs) {
          const Value& v = row[static_cast<size_t>(i)];
          key += v.ToString();
          key += '\x1f';
          group.push_back(v);
        }
        auto [it, inserted] = index.emplace(key, group_rows.size());
        if (inserted) {
          group_rows.push_back(std::move(group));
          counts.push_back(0);
        }
        ++counts[it->second];
      }
    }
    Batch out(output_schema_);
    for (size_t i = 0; i < group_rows.size(); ++i) {
      Row row = group_rows[i];
      row.push_back(Value(counts[i]));
      out.AddRow(std::move(row));
    }
    return out;
  }

 private:
  OperatorPtr child_;
  std::vector<std::string> group_by_;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Limit
// ---------------------------------------------------------------------------

class LimitOp : public Operator {
 public:
  LimitOp(ExecContext* ctx, OperatorPtr child, int64_t limit)
      : Operator(ctx, child->output_schema()),
        child_(std::move(child)),
        remaining_(limit) {}

  Result<Batch> Next() override {
    Batch out(output_schema_);
    if (remaining_ <= 0) return out;
    EVA_ASSIGN_OR_RETURN(Batch in, child_->Next());
    if (in.empty()) return out;
    for (Row& row : in.mutable_rows()) {
      if (remaining_ <= 0) break;
      out.AddRow(std::move(row));
      --remaining_;
    }
    return out;
  }

 private:
  OperatorPtr child_;
  int64_t remaining_;
};

// ---------------------------------------------------------------------------
// StatsOp: transparent decorator that meters the wrapped operator. Rows
// out per operator kind always flow to the metrics registry; when an
// EXPLAIN ANALYZE drain supplies a node-stats map, it additionally tracks
// per-node rows/batches/time and scopes ctx->active_stats so leaf helpers
// (UDF runners, view probes, stores) attribute their events to this node.
// ---------------------------------------------------------------------------

class StatsOp : public Operator {
 public:
  StatsOp(ExecContext* ctx, OperatorPtr inner, const plan::PlanNode* node,
          obs::OperatorStats* stats)
      : Operator(ctx, inner->output_schema()),
        inner_(std::move(inner)),
        stats_(stats) {
    if (ctx->obs_registry != nullptr) {
      rows_out_ = ctx->obs_registry->GetCounter(
          "eva_operator_rows_total", "Rows emitted per physical operator",
          {{"op", plan::PlanKindName(node->kind())}});
    }
  }

  Result<Batch> Next() override {
    if (stats_ == nullptr) {
      EVA_ASSIGN_OR_RETURN(Batch out, inner_->Next());
      if (rows_out_ != nullptr) {
        rows_out_->Increment(static_cast<double>(out.num_rows()));
      }
      return out;
    }
    obs::OperatorStats* prev = ctx_->active_stats;
    ctx_->active_stats = stats_;
    double sim0 = ctx_->clock->TotalMs();
    auto wall0 = std::chrono::steady_clock::now();
    Result<Batch> r = inner_->Next();
    stats_->sim_ms += ctx_->clock->TotalMs() - sim0;
    stats_->wall_us +=
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    ++stats_->batches;
    if (r.ok()) {
      stats_->rows_out += static_cast<int64_t>(r.value().num_rows());
      if (rows_out_ != nullptr) {
        rows_out_->Increment(static_cast<double>(r.value().num_rows()));
      }
    }
    ctx_->active_stats = prev;
    return r;
  }

 private:
  OperatorPtr inner_;
  obs::OperatorStats* stats_;
  obs::Counter* rows_out_ = nullptr;
};

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

namespace {

Result<OperatorPtr> BuildOperatorImpl(const plan::PlanNodePtr& node,
                                      ExecContext* ctx) {
  switch (node->kind()) {
    case PlanKind::kVideoScan: {
      auto* scan = static_cast<const plan::VideoScanNode*>(node.get());
      return OperatorPtr(new VideoScanOp(ctx, scan->lo(), scan->hi()));
    }
    case PlanKind::kFilter: {
      auto* filter = static_cast<const plan::FilterNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      return OperatorPtr(
          new FilterOp(ctx, std::move(child), filter->predicate()));
    }
    case PlanKind::kApply: {
      auto* apply = static_cast<const plan::ApplyNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      return ApplyOp::Make(ctx, std::move(child), apply->udf(),
                           apply->emit_presence_placeholders());
    }
    case PlanKind::kCondApply: {
      auto* apply = static_cast<const plan::CondApplyNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      return CondApplyOp::Make(ctx, std::move(child), apply->udf());
    }
    case PlanKind::kViewJoin: {
      auto* join = static_cast<const plan::ViewJoinNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      return ViewJoinOp::Make(ctx, std::move(child), join->udf(),
                              join->view_name(),
                              join->scan_all_for_dedup(),
                              join->residual_predicate());
    }
    case PlanKind::kStore: {
      auto* store = static_cast<const plan::StoreNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      return StoreOp::Make(ctx, std::move(child), store->udf(),
                           store->view_name());
    }
    case PlanKind::kProject: {
      auto* proj = static_cast<const plan::ProjectNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      Schema schema;
      for (size_t i = 0; i < proj->exprs().size(); ++i) {
        DataType type = DataType::kString;
        const expr::ExprPtr& e = proj->exprs()[i];
        int idx = e->kind() == expr::ExprKind::kColumn
                      ? child->output_schema().IndexOf(e->name())
                      : -1;
        if (idx >= 0) type = child->output_schema().field(
                          static_cast<size_t>(idx)).type;
        schema.AddField({proj->names()[i], type});
      }
      return OperatorPtr(new ProjectOp(ctx, std::move(child), proj->exprs(),
                                       std::move(schema)));
    }
    case PlanKind::kLimit: {
      auto* limit = static_cast<const plan::LimitNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      return OperatorPtr(
          new LimitOp(ctx, std::move(child), limit->limit()));
    }
    case PlanKind::kAggregate: {
      auto* agg = static_cast<const plan::AggregateNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      Schema schema;
      for (const std::string& col : agg->group_by()) {
        int idx = child->output_schema().IndexOf(col);
        DataType type = idx >= 0 ? child->output_schema()
                                        .field(static_cast<size_t>(idx))
                                        .type
                                 : DataType::kString;
        schema.AddField({col, type});
      }
      schema.AddField({"count", DataType::kInt64});
      return OperatorPtr(new AggregateOp(ctx, std::move(child),
                                         agg->group_by(),
                                         std::move(schema)));
    }
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace

Result<OperatorPtr> BuildOperator(const plan::PlanNodePtr& node,
                                  ExecContext* ctx) {
  EVA_ASSIGN_OR_RETURN(OperatorPtr op, BuildOperatorImpl(node, ctx));
  // Wrap only when someone is listening: per-node stats (EXPLAIN ANALYZE)
  // or the metrics registry. The plain execution path keeps its exact
  // pre-observability operator tree.
  if (ctx->node_stats == nullptr && ctx->obs_registry == nullptr) return op;
  obs::OperatorStats* stats =
      ctx->node_stats != nullptr ? &(*ctx->node_stats)[node.get()] : nullptr;
  return OperatorPtr(new StatsOp(ctx, std::move(op), node.get(), stats));
}

Result<Batch> ExecutePlan(const plan::PlanNodePtr& plan, ExecContext* ctx) {
  EVA_ASSIGN_OR_RETURN(OperatorPtr root, BuildOperator(plan, ctx));
  Batch result(root->output_schema());
  while (true) {
    EVA_ASSIGN_OR_RETURN(Batch batch, root->Next());
    if (batch.empty()) break;
    for (Row& row : batch.mutable_rows()) {
      result.AddRow(std::move(row));
    }
  }
  ctx->metrics->rows_out += static_cast<int64_t>(result.num_rows());
  return result;
}

}  // namespace eva::exec
