#include "exec/operators.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

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

// ---------------------------------------------------------------------------
// Lane helpers
// ---------------------------------------------------------------------------

using storage::ColumnVec;
using storage::TailLane;

// The cell at non-null row r of a chunk's Int64 lane (frame ids, object
// ids): chunk lanes are plain.
int64_t Int64Cell(const ColumnVec& lane, size_t r) { return lane.i64_[r]; }

// A view's columns are copied to and from lanes typed by its UDF's output
// schema, so a view loaded with another schema (from a foreign save or
// log) can neither serve nor take the UDF's rows.
Status CheckViewSchema(const MaterializedView& view, const Schema& udf_out) {
  if (view.value_schema() == udf_out) return Status::OK();
  return Status::InvalidArgument(
      "view " + view.name() + " has schema " + view.value_schema().ToString() +
      ", not its UDF's output schema " + udf_out.ToString());
}

// The rows of `in` whose keep flag is set, in order: `in` itself when
// every row is kept, otherwise one index gather per column.
Chunk Compact(Chunk in, const std::vector<uint8_t>& keep,
              std::vector<uint32_t>* rows, LaneRemaps* remaps) {
  rows->clear();
  for (size_t r = 0; r < keep.size(); ++r) {
    if (keep[r] != 0) rows->push_back(static_cast<uint32_t>(r));
  }
  if (rows->size() == in.num_rows()) return in;
  if (rows->empty()) return Chunk(in.schema());
  return GatherRows(in, *rows, remaps);
}

// What a ViewJoin's probe said about each key of the chunk it emitted
// last, kept for the STORE of the same view above it (Fig. 4 step 3). A
// hit is stored already; a miss is absent until that STORE inserts it,
// because one driver thread runs the query, the probe resealed every
// touched tail, and only that STORE writes the view (docs/RUNTIME.md).
struct ProbeLedger {
  std::vector<ViewKey> keys;  // probed keys, in probe order
  std::vector<uint8_t> hit;   // per key: kHit or kHitSkipped
};

// While a STORE's subtree is built: view name -> that STORE's ledger, for
// the ViewJoin of the same view below it. The STORE owns the ledger and,
// through its child, the ViewJoin.
using Ledgers = std::map<std::string, ProbeLedger*>;

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

  Result<Chunk> Next() override {
    Chunk out(output_schema_);
    if (next_ >= hi_) return out;
    int64_t end = std::min(hi_, next_ + ctx_->batch_size);
    TailLane& ids = out.col(0);
    for (int64_t f = next_; f < end; ++f) ids.AppendInt64(f);
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
        // Compiled once per query.
        program_(FilterProgram::Compile(*predicate, output_schema_)) {
    if (ctx->obs_registry != nullptr) {
      fill_ratio_ = ctx->obs_registry->GetHistogram(
          "eva_filter_batch_fill_ratio",
          "Input batch occupancy (rows / batch_size) at filter operators",
          {0.1, 0.25, 0.5, 0.75, 0.9, 1.0});
    }
  }

  Result<Chunk> Next() override {
    while (true) {
      EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
      if (in.empty()) return Chunk(output_schema_);
      if (fill_ratio_ != nullptr && ctx_->batch_size > 0) {
        fill_ratio_->Observe(static_cast<double>(in.num_rows()) /
                             static_cast<double>(ctx_->batch_size));
      }
      EVA_RETURN_IF_ERROR(program_.Execute(in, &keep_));
      Chunk out = Compact(std::move(in), keep_, &rows_, &remaps_);
      if (!out.empty()) return out;
    }
  }

 private:
  OperatorPtr child_;
  FilterProgram program_;
  std::vector<uint8_t> keep_;
  std::vector<uint32_t> rows_;
  LaneRemaps remaps_;
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

// Fresh UDF evaluations for one operator. The model is resolved on the
// operator's first evaluation and kept, so an unknown or wrong-kind UDF
// fails at that first call and later calls skip the runtime's lookup.
// Each evaluation charges the UDF cost and counts the invocation; the
// registry counters take the counts once per chunk (FlushCounters) and
// when the operator is destroyed.
class UdfRunner {
 public:
  UdfRunner(ExecContext* ctx, const UdfDef* def)
      : ctx_(ctx), def_(def), obs_(MakeUdfCounters(ctx, def->name)) {}
  ~UdfRunner() { FlushCounters(); }
  UdfRunner(const UdfRunner&) = delete;
  UdfRunner& operator=(const UdfRunner&) = delete;

  // Appends one (obj, label, area, score) row per detection to out[0..4)
  // and returns how many rows it appended.
  Result<size_t> Detect(int64_t frame, TailLane* out) {
    obs::ProfScope prof("udf");
    if (detector_ == nullptr) {
      EVA_ASSIGN_OR_RETURN(detector_, ctx_->udfs->Detector(def_->name));
    }
    EVA_RETURN_IF_ERROR(BeginEvaluation(frame, -1));
    const std::vector<vision::Detection> dets =
        detector_->Detect(*ctx_->video, frame);
    for (const vision::Detection& d : dets) {
      out[0].AppendInt64(static_cast<int64_t>(d.obj_id));
      out[1].AppendLabel(vision::ObjectLabels(), d.label_id);
      out[2].AppendDouble(d.area);
      out[3].AppendDouble(d.score);
    }
    return dets.size();
  }

  Result<vision::Label> Classify(int64_t frame, int64_t obj) {
    obs::ProfScope prof("udf");
    if (classifier_ == nullptr) {
      EVA_ASSIGN_OR_RETURN(classifier_, ctx_->udfs->Classifier(def_->name));
    }
    EVA_RETURN_IF_ERROR(BeginEvaluation(frame, obj));
    return classifier_->Classify(*ctx_->video, frame, static_cast<int>(obj));
  }

  Result<bool> Filter(int64_t frame) {
    obs::ProfScope prof("udf");
    if (filter_ == nullptr) {
      EVA_ASSIGN_OR_RETURN(filter_, ctx_->udfs->Filter(def_->name));
    }
    EVA_RETURN_IF_ERROR(BeginEvaluation(frame, -1));
    return filter_->Pass(*ctx_->video, frame);
  }

  // A result served from FunCache instead of a fresh evaluation.
  void CountCacheHit() {
    cells_.AddReuse(ctx_, def_->name);
    if (ctx_->active_stats != nullptr) ++ctx_->active_stats->rows_reused;
    ++reused_;
  }

  // Adds the invocations and cache hits since the last flush to the
  // registry counters, each by its integer total.
  void FlushCounters() {
    if (invocations_ > 0 && obs_.invocations != nullptr) {
      obs_.invocations->Increment(static_cast<double>(invocations_));
    }
    if (reused_ > 0 && obs_.reused != nullptr) {
      obs_.reused->Increment(static_cast<double>(reused_));
    }
    invocations_ = 0;
    reused_ = 0;
  }

 private:
  Status BeginEvaluation(int64_t frame, int64_t obj) {
    EVA_RETURN_IF_ERROR(MaybeInjectUdfFault(ctx_, *def_, frame, obj, obs_));
    ctx_->Charge(CostCategory::kUdf, def_->cost_ms);
    SpinFor(ctx_->udf_spin_us);
    cells_.AddInvocation(ctx_, def_->name);
    if (ctx_->active_stats != nullptr) ++ctx_->active_stats->udf_invocations;
    ++invocations_;
    return Status::OK();
  }

  ExecContext* ctx_;
  const UdfDef* def_;  // owned by the operator
  UdfObsCounters obs_;
  UdfMetricCells cells_;
  const vision::DetectorModel* detector_ = nullptr;
  const vision::ClassifierModel* classifier_ = nullptr;
  const vision::FilterModel* filter_ = nullptr;
  int64_t invocations_ = 0;  // not yet in obs_.invocations
  int64_t reused_ = 0;       // not yet in obs_.reused
};

// FunCache hashing overhead: the cache key covers the UDF's input
// arguments, dominated by the decoded frame bytes (§5.2).
void ChargeFunCacheHash(ExecContext* ctx) {
  double mb = ctx->video->info().BytesPerFrame() / 1e6;
  ctx->Charge(CostCategory::kHashing,
              ctx->costs.funcache_hash_ms_per_mb * mb);
}

// ---------------------------------------------------------------------------
// Apply: evaluate the UDF for every input row (Fig. 3 rewrite). In FunCache
// mode, consults the tuple-level cache first. UDF outputs go straight into
// the result lanes; the input columns are replicated afterwards with one
// gather by parent row.
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

  Result<Chunk> Next() override {
    // A chunk of frames without detections yields no rows; it must not
    // read as the end of the stream.
    while (true) {
      EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
      if (in.empty()) return Chunk(output_schema_);
      EVA_ASSIGN_OR_RETURN(Chunk out, Apply(in));
      runner_.FlushCounters();
      if (!out.empty()) return out;
    }
  }

 private:
  ApplyOp(ExecContext* ctx, OperatorPtr child, UdfDef def, Schema schema,
          bool emit_presence_placeholders)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        def_(std::move(def)),
        n_outputs_(UdfOutputSchema(def_).num_fields()),
        emit_presence_placeholders_(emit_presence_placeholders),
        runner_(ctx, &def_) {}

  Result<Chunk> Apply(const Chunk& in) {
    const size_t base = in.num_columns();
    const ColumnVec& ids =
        in.lane(static_cast<size_t>(in.schema().IndexOf(kColId)));
    const int obj_idx = in.schema().IndexOf(kColObj);
    Chunk out(output_schema_);
    TailLane* results = &out.col(base);
    parents_.clear();
    for (size_t r = 0; r < in.num_rows(); ++r) {
      const auto parent = static_cast<uint32_t>(r);
      int64_t frame = Int64Cell(ids, r);
      if (def_.kind == UdfKind::kDetector) {
        EVA_ASSIGN_OR_RETURN(size_t dets, DetectorResults(frame, results));
        if (dets == 0 && emit_presence_placeholders_) {
          // NULL placeholder so the STORE above records presence even for
          // frames where nothing was detected.
          for (size_t c = 0; c < n_outputs_; ++c) results[c].AppendNull();
          dets = 1;
        }
        parents_.insert(parents_.end(), dets, parent);
      } else if (def_.kind == UdfKind::kClassifier) {
        const ColumnVec& objs = in.lane(static_cast<size_t>(obj_idx));
        if (objs.NullAt(r)) {
          results->AppendNull();
        } else {
          EVA_RETURN_IF_ERROR(
              ClassifierResult(frame, Int64Cell(objs, r), results));
        }
        parents_.push_back(parent);
      } else {  // filter UDF
        EVA_RETURN_IF_ERROR(FilterResult(frame, results));
        parents_.push_back(parent);
      }
    }
    remaps_.Clear();
    GatherColumns(in, 0, base, parents_, &out, 0, &remaps_);
    return out;
  }

  // Appends the frame's detector rows to out[0..4); returns how many.
  Result<size_t> DetectorResults(int64_t frame, TailLane* out) {
    if (ctx_->funcache == nullptr) return runner_.Detect(frame, out);
    ChargeFunCacheHash(ctx_);
    ViewKey key{frame, -1};
    if (const std::vector<Row>* hit = ctx_->funcache->Lookup(def_.name, key)) {
      runner_.CountCacheHit();
      for (const Row& row : *hit) {
        for (size_t c = 0; c < n_outputs_; ++c) out[c].Append(row[c]);
      }
      return hit->size();
    }
    const size_t first = out[0].lane().size();
    EVA_ASSIGN_OR_RETURN(size_t dets, runner_.Detect(frame, out));
    std::vector<Row> rows(dets);
    for (size_t i = 0; i < dets; ++i) {
      for (size_t c = 0; c < n_outputs_; ++c) {
        rows[i].push_back(out[c].lane().At(first + i));
      }
    }
    ctx_->funcache->Insert(def_.name, key, std::move(rows));
    return dets;
  }

  Status ClassifierResult(int64_t frame, int64_t obj, TailLane* out) {
    if (ctx_->funcache == nullptr) {
      EVA_ASSIGN_OR_RETURN(vision::Label label, runner_.Classify(frame, obj));
      out->AppendLabel(*label.vocab, label.id);
      return Status::OK();
    }
    ChargeFunCacheHash(ctx_);
    ViewKey key{frame, obj};
    if (const std::vector<Row>* hit = ctx_->funcache->Lookup(def_.name, key)) {
      runner_.CountCacheHit();
      out->Append((*hit)[0][0]);
      return Status::OK();
    }
    EVA_ASSIGN_OR_RETURN(vision::Label label, runner_.Classify(frame, obj));
    out->AppendLabel(*label.vocab, label.id);
    ctx_->funcache->Insert(def_.name, key, {{Value(label.name())}});
    return Status::OK();
  }

  Status FilterResult(int64_t frame, TailLane* out) {
    if (ctx_->funcache == nullptr) {
      EVA_ASSIGN_OR_RETURN(bool pass, runner_.Filter(frame));
      out->AppendBool(pass);
      return Status::OK();
    }
    ChargeFunCacheHash(ctx_);
    ViewKey key{frame, -1};
    if (const std::vector<Row>* hit = ctx_->funcache->Lookup(def_.name, key)) {
      runner_.CountCacheHit();
      out->Append((*hit)[0][0]);
      return Status::OK();
    }
    EVA_ASSIGN_OR_RETURN(bool pass, runner_.Filter(frame));
    out->AppendBool(pass);
    ctx_->funcache->Insert(def_.name, key, {{Value(pass)}});
    return Status::OK();
  }

  OperatorPtr child_;
  UdfDef def_;
  size_t n_outputs_;
  bool emit_presence_placeholders_;
  UdfRunner runner_;
  std::vector<uint32_t> parents_;  // input row of each output row
  LaneRemaps remaps_;
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
// query results are unchanged. Each chunk's probe verdicts go to the
// ledger of the STORE of the same view, so that STORE neither re-checks
// a key the probe missed nor passes on a key it hit.
// ---------------------------------------------------------------------------

class ViewJoinOp : public Operator {
 public:
  static Result<OperatorPtr> Make(ExecContext* ctx, OperatorPtr child,
                                  const std::string& udf,
                                  const std::string& view_name,
                                  bool scan_all_for_dedup,
                                  expr::ExprPtr residual,
                                  ProbeLedger* ledger) {
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
                                      std::move(residual), ledger,
                                      std::move(out)));
  }

  Result<Chunk> Next() override {
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
    // A chunk whose hits were all zone-skipped yields no rows; it must not
    // read as the end of the stream.
    while (true) {
      EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
      if (in.empty()) return Chunk(output_schema_);
      MaterializedView* view = ctx_->views->Find(view_name_);
      if (view != nullptr) {
        EVA_RETURN_IF_ERROR(CheckViewSchema(*view, value_schema_));
      }
      Chunk out = Join(in, view);
      if (!out.empty()) return out;
    }
  }

 private:
  enum RowAction : uint8_t { kPass = 0, kNullOut, kProbe };

  Chunk Join(Chunk& in, MaterializedView* view) {
    const ColumnVec& ids =
        in.lane(static_cast<size_t>(in.schema().IndexOf(kColId)));
    const int obj_idx = in.schema().IndexOf(kColObj);
    const ColumnVec* objs =
        obj_idx >= 0 ? &in.lane(static_cast<size_t>(obj_idx)) : nullptr;
    bool outputs_present =
        in.schema().Contains(def_.kind == UdfKind::kDetector
                                 ? kColObj
                                 : def_.name);
    int already_idx = in.schema().IndexOf(def_.name);

    // Pre-pass: classify rows and collect probe keys. Within one batch no
    // Put can land on this view (STORE sits above and runs only after the
    // batch is emitted), so a batch-start probe equals per-row probes.
    actions_.clear();
    probe_keys_.clear();
    for (size_t r = 0; r < in.num_rows(); ++r) {
      int64_t frame = Int64Cell(ids, r);
      if (def_.kind == UdfKind::kDetector) {
        // A row that already has a non-null obj was populated by an
        // earlier view in the chain; pass it through.
        if (outputs_present && objs != nullptr && !objs->NullAt(r)) {
          actions_.push_back(kPass);
          continue;
        }
        actions_.push_back(kProbe);
        probe_keys_.push_back(ViewKey{frame, -1});
      } else {
        bool already =
            already_idx >= 0 &&
            !in.lane(static_cast<size_t>(already_idx)).NullAt(r);
        if (already) {
          actions_.push_back(kPass);
          continue;
        }
        const bool obj_null = objs == nullptr || objs->NullAt(r);
        if (def_.kind == UdfKind::kClassifier && obj_null) {
          actions_.push_back(kNullOut);
          continue;
        }
        actions_.push_back(kProbe);
        probe_keys_.push_back(
            ViewKey{frame, def_.kind == UdfKind::kClassifier
                               ? Int64Cell(*objs, r)
                               : -1});
      }
    }
    probe_res_.Clear();
    if (view != nullptr && !probe_keys_.empty()) {
      storage::ZoneCheckFn zone_fn;
      if (ctx_->zone_map_skipping && residual_ != nullptr) {
        zone_fn = [this](const storage::ColumnarSegment& seg) {
          return ZoneCanMatch(*residual_, seg, value_schema_,
                              output_schema_);
        };
      }
      view->ProbeBatch(probe_keys_, zone_fn, &probe_res_);
    }
    // One code table per (source lane, output lane): the input's own
    // output lanes first, then each hit segment's columns.
    remaps_.Clear();
    accesses_.clear();
    run_ = 0;
    Chunk out = def_.kind == UdfKind::kDetector
                    ? JoinDetector(in, view)
                    : JoinSingle(in, view);
    // Access stamps land once per batch, one per run with hits: nothing
    // reads them before the batch ends, and a segment keeps its last
    // hit's tick either way.
    if (!accesses_.empty()) view->RecordAccess(accesses_, ctx_->query_id);
    if (ledger_ != nullptr) {
      ledger_->hit.resize(probe_keys_.size());
      for (size_t i = 0; i < probe_keys_.size(); ++i) {
        ledger_->hit[i] = view != nullptr && probe_res_.outcomes[i].status !=
                                                 storage::ProbeStatus::kMiss;
      }
      ledger_->keys.swap(probe_keys_);
    }
    FlushProbeCounts();
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

  ViewJoinOp(ExecContext* ctx, OperatorPtr child, UdfDef def,
             std::string view_name, bool scan_all, expr::ExprPtr residual,
             ProbeLedger* ledger, Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        def_(std::move(def)),
        view_name_(std::move(view_name)),
        scan_all_pending_(scan_all),
        residual_(std::move(residual)),
        value_schema_(UdfOutputSchema(def_)),
        ledger_(ledger) {
    // Width of the input columns that precede the detector outputs: when
    // the input already carries (possibly NULL) output columns from an
    // earlier view join, strip them before re-appending.
    output_width_base_ =
        output_schema_.num_fields() - value_schema_.num_fields();
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

  // Code table for copying column `c` of hit segment `seg_index` into the
  // output (slots after the input's own output lanes).
  std::vector<int32_t>* SegmentRemap(int32_t seg_index, size_t c) {
    return remaps_[value_schema_.num_fields() *
                       (static_cast<size_t>(seg_index) + 1) +
                   c];
  }

  // The next probe outcome, in probe order; null without a view.
  const storage::ProbeOutcome* NextOutcome(MaterializedView* view,
                                           size_t* oi) const {
    return view != nullptr ? &probe_res_.outcomes[(*oi)++] : nullptr;
  }

  // Copies output rows into out[0..width) by runs: consecutive rows of
  // one source (kFromInput: the input's own output lanes, from column
  // `in_first`; otherwise a hit segment's index) take one append per
  // lane — AppendFrom while the rows form one range, AppendGather once
  // they do not. A NULL row ends the run; Flush() ends the last one.
  static constexpr int32_t kFromInput = -1;
  class RunCopier {
   public:
    RunCopier(ViewJoinOp* op, const Chunk& in, size_t in_first,
              TailLane* out, size_t width)
        : op_(op), in_(in), in_first_(in_first), out_(out), width_(width) {
      op_->run_rows_.clear();
    }

    void Copy(int32_t source, size_t begin, size_t end) {
      if (source != source_) {
        Flush();
        source_ = source;
      }
      if (begin == end) return;
      std::vector<uint32_t>& rows = op_->run_rows_;
      if (rows.empty() && (first_ == end_ || begin == end_)) {
        if (first_ == end_) first_ = begin;
        end_ = end;  // the run stays the range [first_, end_)
        return;
      }
      if (rows.empty()) {
        for (size_t r = first_; r < end_; ++r) {
          rows.push_back(static_cast<uint32_t>(r));
        }
      }
      for (size_t r = begin; r < end; ++r) {
        rows.push_back(static_cast<uint32_t>(r));
      }
    }
    void AppendNull() {
      Flush();
      for (size_t c = 0; c < width_; ++c) out_[c].AppendNull();
    }
    void Flush() {
      std::vector<uint32_t>& rows = op_->run_rows_;
      if (first_ == end_) return;
      for (size_t c = 0; c < width_; ++c) {
        const bool input = source_ == kFromInput;
        const ColumnVec& src =
            input ? in_.lane(in_first_ + c)
                  : op_->probe_res_.segments[static_cast<size_t>(source_)]
                        ->cols[c];
        std::vector<int32_t>* remap =
            input ? op_->remaps_[c] : op_->SegmentRemap(source_, c);
        if (rows.empty()) {
          out_[c].AppendFrom(src, first_, end_, remap);
        } else {
          out_[c].AppendGather(src, rows.data(), rows.size(), remap);
        }
      }
      rows.clear();
      first_ = end_ = 0;
    }

   private:
    ViewJoinOp* op_;
    const Chunk& in_;
    size_t in_first_;
    TailLane* out_;
    size_t width_;
    int32_t source_ = kFromInput;
    // The pending run: rows [first_, end_) while they form one range,
    // else op_->run_rows_ (and first_ < end_ still marks it non-empty).
    size_t first_ = 0;
    size_t end_ = 0;
  };

  // Detector: a hit expands into the key's stored rows, a miss into one
  // row of NULL outputs. The input columns before the outputs follow by
  // parent row.
  Chunk JoinDetector(const Chunk& in, MaterializedView* view) {
    const size_t base = output_width_base_;
    const size_t n_outputs = value_schema_.num_fields();
    Chunk out(output_schema_);
    RunCopier results(this, in, base, &out.col(base), n_outputs);
    parents_.clear();
    size_t oi = 0;  // cursor into probe_res_.outcomes, in probe order
    for (size_t r = 0; r < in.num_rows(); ++r) {
      const auto parent = static_cast<uint32_t>(r);
      if (actions_[r] == kPass) {
        parents_.push_back(parent);
        results.Copy(kFromInput, r, r + 1);
        continue;
      }
      ctx_->Charge(CostCategory::kOther, ctx_->costs.view_probe_ms_per_key);
      const storage::ProbeOutcome* oc = NextOutcome(view, &oi);
      if (oc != nullptr && oc->status != storage::ProbeStatus::kMiss) {
        CountHit(oi - 1);
        if (oc->status == storage::ProbeStatus::kHit) {
          ctx_->Charge(CostCategory::kReadView,
                       ctx_->costs.view_read_ms_per_row *
                           static_cast<double>(oc->rows_count));
          // Cells come straight out of the pinned columnar snapshot.
          const auto begin = static_cast<size_t>(oc->rows_begin);
          const size_t end = begin + static_cast<size_t>(oc->rows_count);
          results.Copy(oc->seg_index, begin, end);
          parents_.insert(parents_.end(), end - begin, parent);
        }
        // kHitSkipped: the zone map proved the residual filter above
        // discards every stored row — skip the read, emit nothing.
      } else {
        ++misses_;
        parents_.push_back(parent);
        results.AppendNull();
      }
    }
    results.Flush();
    base_remaps_.Clear();
    GatherColumns(in, 0, base, parents_, &out, 0, &base_remaps_);
    return out;
  }

  // Classifier / filter UDF: one output column, one output row per input
  // row except zone-skipped hits.
  Chunk JoinSingle(Chunk& in, MaterializedView* view) {
    const auto out_idx =
        static_cast<size_t>(output_schema_.IndexOf(def_.name));
    TailLane result(output_schema_.field(out_idx).type);
    // kPass means the input carries the output column, at out_idx.
    RunCopier results(this, in, out_idx, &result, 1);
    parents_.clear();
    size_t oi = 0;
    for (size_t r = 0; r < in.num_rows(); ++r) {
      const auto parent = static_cast<uint32_t>(r);
      if (actions_[r] == kPass) {
        parents_.push_back(parent);
        results.Copy(kFromInput, r, r + 1);
        continue;
      }
      if (actions_[r] == kNullOut) {
        parents_.push_back(parent);
        results.AppendNull();
        continue;
      }
      ctx_->Charge(CostCategory::kOther, ctx_->costs.view_probe_ms_per_key);
      const storage::ProbeOutcome* oc = NextOutcome(view, &oi);
      if (oc != nullptr && oc->status != storage::ProbeStatus::kMiss) {
        CountHit(oi - 1);
        if (oc->status == storage::ProbeStatus::kHit) {
          ctx_->Charge(CostCategory::kReadView,
                       ctx_->costs.view_read_ms_per_row);
          parents_.push_back(parent);
          if (oc->rows_count == 0) {
            results.AppendNull();
          } else {
            const auto begin = static_cast<size_t>(oc->rows_begin);
            results.Copy(oc->seg_index, begin, begin + 1);
          }
        }
        // kHitSkipped: drop the row — the key is stored already, and the
        // residual filter above would discard it.
      } else {
        ++misses_;
        parents_.push_back(parent);
        results.AppendNull();
      }
    }
    results.Flush();
    Chunk out(output_schema_);
    const bool all_rows = parents_.size() == in.num_rows();
    base_remaps_.Clear();
    for (size_t c = 0; c < in.num_columns(); ++c) {
      if (c == out_idx) continue;
      if (all_rows) {
        out.col(c) = std::move(in.col(c));
      } else {
        out.col(c).AppendGather(in.lane(c), parents_.data(), parents_.size(),
                                base_remaps_[c]);
      }
    }
    out.col(out_idx) = std::move(result);
    return out;
  }

  // A probe hit, outcome `outcome`: a reused invocation, and a tick of the
  // access clock that stamps its run's segment.
  void CountHit(size_t outcome) {
    cells_.AddReuse(ctx_, def_.name);
    ++hits_;
    const std::vector<storage::ProbeRun>& runs = probe_res_.runs;
    while (runs[run_].end <= outcome) ++run_;
    const int64_t segment = runs[run_].segment_id;
    if (accesses_.empty() || accesses_.back().first != segment) {
      accesses_.emplace_back(segment, 0);
    }
    accesses_.back().second = ctx_->views->NextAccessTick();
  }

  // Publishes the chunk's probe hit and miss counts.
  void FlushProbeCounts() {
    if (ctx_->active_stats != nullptr) {
      ctx_->active_stats->view_hits += hits_;
      ctx_->active_stats->rows_reused += hits_;
      ctx_->active_stats->view_misses += misses_;
    }
    if (hits_ > 0 && probe_hits_ != nullptr) {
      probe_hits_->Increment(static_cast<double>(hits_));
    }
    if (misses_ > 0 && probe_misses_ != nullptr) {
      probe_misses_->Increment(static_cast<double>(misses_));
    }
    hits_ = 0;
    misses_ = 0;
  }

  OperatorPtr child_;
  UdfDef def_;
  std::string view_name_;
  bool scan_all_pending_;
  expr::ExprPtr residual_;
  Schema value_schema_;  // the view's value schema (zone-check resolution)
  ProbeLedger* ledger_;  // the STORE's above; null without one
  size_t output_width_base_;
  // Per-batch scratch, reused across Next() calls.
  std::vector<uint8_t> actions_;
  std::vector<ViewKey> probe_keys_;
  storage::ProbeResult probe_res_;
  // (segment, tick of its last hit) per run with hits
  std::vector<std::pair<int64_t, uint64_t>> accesses_;
  size_t run_ = 0;  // probe_res_.runs index of the last hit
  std::vector<uint32_t> parents_;  // input row of each output row
  std::vector<uint32_t> run_rows_;  // RunCopier's pending run
  int64_t hits_ = 0;    // this chunk's probe hits (incl. zone-skipped)
  int64_t misses_ = 0;  // this chunk's probe misses
  LaneRemaps remaps_;       // output lanes (input and segment sources)
  LaneRemaps base_remaps_;  // input columns gathered by parent row
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

  Result<Chunk> Next() override {
    EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
    if (in.empty()) return Chunk(output_schema_);
    ctx_->Charge(CostCategory::kOther,
                 ctx_->costs.apply_overhead_ms_per_row *
                     static_cast<double>(in.num_rows()));
    Result<Chunk> out = def_.kind == UdfKind::kDetector
                            ? ApplyDetector(std::move(in))
                            : ApplySingle(std::move(in));
    runner_.FlushCounters();
    return out;
  }

 private:
  CondApplyOp(ExecContext* ctx, OperatorPtr child, UdfDef def, Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        def_(std::move(def)),
        n_outputs_(UdfOutputSchema(def_).num_fields()),
        runner_(ctx, &def_) {}

  // Rows the view join populated (non-null obj) pass through; a NULL row
  // becomes the frame's detections, or stays as the placeholder that lets
  // STORE record "frame processed, zero objects" before dropping it.
  Result<Chunk> ApplyDetector(Chunk in) {
    const ColumnVec& objs =
        in.lane(static_cast<size_t>(in.schema().IndexOf(kColObj)));
    size_t first_null = 0;
    while (first_null < in.num_rows() && !objs.NullAt(first_null)) {
      ++first_null;
    }
    if (first_null == in.num_rows()) return in;  // every row from the view
    const ColumnVec& ids =
        in.lane(static_cast<size_t>(in.schema().IndexOf(kColId)));
    const size_t base = output_schema_.num_fields() - n_outputs_;
    Chunk out(output_schema_);
    TailLane* results = &out.col(base);
    remaps_.Clear();
    parents_.clear();
    // Rows [run, r) keep their own outputs; they are copied as one slice
    // before a detector call appends after them.
    size_t run = 0;
    auto flush = [&](size_t end) {
      for (size_t c = 0; c < n_outputs_; ++c) {
        results[c].AppendFrom(in.lane(base + c), run, end,
                              remaps_[base + c]);
      }
      for (size_t p = run; p < end; ++p) {
        parents_.push_back(static_cast<uint32_t>(p));
      }
    };
    for (size_t r = first_null; r < in.num_rows(); ++r) {
      if (!objs.NullAt(r)) continue;
      flush(r);
      EVA_ASSIGN_OR_RETURN(size_t dets,
                           runner_.Detect(Int64Cell(ids, r), results));
      if (dets == 0) {
        run = r;  // the placeholder row passes as it is
        continue;
      }
      parents_.insert(parents_.end(), dets, static_cast<uint32_t>(r));
      run = r + 1;
    }
    flush(in.num_rows());
    GatherColumns(in, 0, base, parents_, &out, 0, &remaps_);
    return out;
  }

  // Classifier / filter UDF: rows map one to one, and only the output
  // column changes, in the rows where it is NULL.
  Result<Chunk> ApplySingle(Chunk in) {
    const auto out_idx =
        static_cast<size_t>(output_schema_.IndexOf(def_.name));
    const ColumnVec& current = in.lane(out_idx);
    size_t first_null = 0;
    while (first_null < in.num_rows() && !current.NullAt(first_null)) {
      ++first_null;
    }
    if (first_null == in.num_rows()) return in;
    const ColumnVec& ids =
        in.lane(static_cast<size_t>(in.schema().IndexOf(kColId)));
    const int obj_idx = in.schema().IndexOf(kColObj);
    remaps_.Clear();
    TailLane result(output_schema_.field(out_idx).type);
    size_t run = 0;  // rows [run, r) keep their current value
    for (size_t r = first_null; r < in.num_rows(); ++r) {
      if (!current.NullAt(r)) continue;
      result.AppendFrom(current, run, r, remaps_[0]);
      run = r + 1;
      const int64_t frame = Int64Cell(ids, r);
      if (def_.kind == UdfKind::kClassifier) {
        const ColumnVec& objs = in.lane(static_cast<size_t>(obj_idx));
        if (objs.NullAt(r)) {
          result.AppendNull();
          continue;
        }
        EVA_ASSIGN_OR_RETURN(vision::Label label,
                             runner_.Classify(frame, Int64Cell(objs, r)));
        result.AppendLabel(*label.vocab, label.id);
      } else {
        EVA_ASSIGN_OR_RETURN(bool pass, runner_.Filter(frame));
        result.AppendBool(pass);
      }
    }
    result.AppendFrom(current, run, in.num_rows(), remaps_[0]);
    in.col(out_idx) = std::move(result);
    return in;
  }

  OperatorPtr child_;
  UdfDef def_;
  size_t n_outputs_;
  UdfRunner runner_;
  std::vector<uint32_t> parents_;  // input row of each output row
  LaneRemaps remaps_;
};

// ---------------------------------------------------------------------------
// Store: appends fresh UDF results to the materialized view (Fig. 4 step
// 3). Append-only and idempotent. A key the ViewJoin of this view hit in
// this chunk is stored already and is not passed on; a key it missed is
// inserted without a presence check. Any other key — one an earlier view
// of a logical-reuse chain filled, or any key of a plan with no ViewJoin
// of this view — is inserted only if the view does not hold it.
// ---------------------------------------------------------------------------

class StoreOp : public Operator {
 public:
  static Result<OperatorPtr> Make(ExecContext* ctx, OperatorPtr child,
                                  const std::string& udf,
                                  const std::string& view_name,
                                  std::unique_ptr<ProbeLedger> ledger) {
    EVA_ASSIGN_OR_RETURN(UdfDef def, ctx->catalog->GetUdf(udf));
    return OperatorPtr(new StoreOp(ctx, std::move(child), std::move(def),
                                   view_name, std::move(ledger)));
  }

  Result<Chunk> Next() override {
    // A chunk of placeholder rows only stores presence and yields no rows;
    // it must not read as the end of the stream.
    while (true) {
      EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
      if (in.empty()) return Chunk(output_schema_);
      MaterializedView* view =
          ctx_->views->GetOrCreate(view_name_, value_schema_);
      EVA_RETURN_IF_ERROR(CheckViewSchema(*view, value_schema_));
      Chunk out = Store(std::move(in), view);
      if (!out.empty()) return out;
    }
  }

 private:
  // The ledger's verdict on `key`: 1 when the probe hit it, 0 when it
  // missed, -1 when it was not probed. Keys come in chunk order, so the
  // cursor only moves forward; a key the walk does not find is unprobed.
  int Verdict(const ViewKey& key) {
    const std::vector<ViewKey>& probed = ledger_->keys;
    while (ledger_pos_ < probed.size() && probed[ledger_pos_] < key) {
      ++ledger_pos_;
    }
    if (ledger_pos_ == probed.size() || !(probed[ledger_pos_] == key)) {
      return -1;
    }
    return ledger_->hit[ledger_pos_];
  }

  // Queues `key` for the PutBatch unless the probe hit it; true if queued.
  bool AddKey(const ViewKey& key) {
    const int verdict = Verdict(key);
    if (verdict == 1) return false;
    keys_.push_back(key);
    absent_.push_back(verdict == 0);
    return true;
  }

  Chunk Store(Chunk in, MaterializedView* view) {
    const ColumnVec& ids =
        in.lane(static_cast<size_t>(in.schema().IndexOf(kColId)));
    const int obj_idx = in.schema().IndexOf(kColObj);
    const size_t n = in.num_rows();
    keys_.clear();
    absent_.clear();
    key_rows_.assign(1, 0);
    rows_.clear();
    ledger_pos_ = 0;
    if (def_.kind == UdfKind::kDetector) {
      // One key per run of rows of a frame; presence is recorded even for
      // frames whose detector output is empty (NULL placeholder rows),
      // which are dropped here.
      const size_t n_outputs = value_schema_.num_fields();
      const ColumnVec& objs = in.lane(static_cast<size_t>(obj_idx));
      size_t placeholders = 0;
      for (size_t begin = 0, end = 0; begin < n; begin = end) {
        const int64_t frame = Int64Cell(ids, begin);
        end = begin;
        while (end < n && Int64Cell(ids, end) == frame) ++end;
        const bool queued = AddKey(ViewKey{frame, -1});
        for (size_t r = begin; r < end; ++r) {
          if (objs.NullAt(r)) {
            ++placeholders;
          } else if (queued) {
            rows_.push_back(static_cast<uint32_t>(r));
          }
        }
        if (queued) key_rows_.push_back(static_cast<uint32_t>(rows_.size()));
      }
      Put(view, {in.cols().data() + (in.num_columns() - n_outputs),
                 n_outputs});
      if (placeholders == 0) return in;
      if (placeholders == n) return Chunk(output_schema_);
      rows_.clear();
      for (size_t r = 0; r < n; ++r) {
        if (!objs.NullAt(r)) rows_.push_back(static_cast<uint32_t>(r));
      }
      return GatherRows(in, rows_, &gather_remaps_);
    }
    // Classifier / filter UDF: one row per key; every row passes through.
    const auto val_idx =
        static_cast<size_t>(in.schema().IndexOf(def_.name));
    const ColumnVec& vals = in.lane(val_idx);
    for (size_t r = 0; r < n; ++r) {
      if (vals.NullAt(r)) continue;
      int64_t obj = -1;
      if (def_.kind == UdfKind::kClassifier) {
        const ColumnVec& objs = in.lane(static_cast<size_t>(obj_idx));
        if (objs.NullAt(r)) continue;
        obj = Int64Cell(objs, r);
      }
      if (!AddKey(ViewKey{Int64Cell(ids, r), obj})) continue;
      rows_.push_back(static_cast<uint32_t>(r));
      key_rows_.push_back(static_cast<uint32_t>(rows_.size()));
    }
    Put(view, {in.cols().data() + val_idx, 1});
    return in;
  }

  // One PutBatch of keys_ over the lanes `values`, then the materialize
  // charge of each inserted key, in key order, and the chunk's row count.
  void Put(MaterializedView* view, std::span<const TailLane> values) {
    // New source lanes: the code tables of the last chunk do not apply.
    remaps_.Clear();
    if (keys_.empty()) return;
    values_.clear();
    for (const TailLane& lane : values) values_.push_back(&lane.lane());
    view->PutBatch(keys_, absent_, key_rows_, rows_, values_, next_tick_,
                   ctx_->query_id, &remaps_, &inserted_);
    int64_t materialized = 0;
    for (size_t k = 0; k < keys_.size(); ++k) {
      if (inserted_[k] == 0) continue;
      const uint32_t rows = key_rows_[k + 1] - key_rows_[k];
      // A detector key charges one row more: its presence.
      const uint32_t charged =
          def_.kind == UdfKind::kDetector ? rows + 1 : rows;
      ctx_->Charge(CostCategory::kMaterialize,
                   ctx_->costs.materialize_ms_per_row *
                       static_cast<double>(charged));
      materialized += charged;
    }
    if (materialized == 0) return;
    if (ctx_->active_stats != nullptr) {
      ctx_->active_stats->rows_materialized += materialized;
    }
    if (materialized_ != nullptr) {
      materialized_->Increment(static_cast<double>(materialized));
    }
  }

  StoreOp(ExecContext* ctx, OperatorPtr child, UdfDef def,
          std::string view_name, std::unique_ptr<ProbeLedger> ledger)
      : Operator(ctx, child->output_schema()),
        ledger_(std::move(ledger)),
        child_(std::move(child)),
        def_(std::move(def)),
        view_name_(std::move(view_name)),
        value_schema_(UdfOutputSchema(def_)),
        next_tick_([ctx] { return ctx->views->NextAccessTick(); }) {
    if (ctx->obs_registry != nullptr) {
      materialized_ = ctx->obs_registry->GetCounter(
          "eva_materialized_rows_total",
          "Rows appended to materialized views",
          {{"view", view_name_}});
    }
  }

  // Declared before child_, so it outlives the ViewJoin that fills it.
  std::unique_ptr<ProbeLedger> ledger_;
  OperatorPtr child_;
  UdfDef def_;
  std::string view_name_;
  Schema value_schema_;
  size_t ledger_pos_ = 0;  // Verdict's cursor into *ledger_
  // Draws an access tick only for keys Put actually inserts.
  std::function<uint64_t()> next_tick_;
  storage::PutRemaps remaps_;  // this chunk's lanes -> view tails
  // One chunk's PutBatch: key k's rows are rows_[key_rows_[k] ..
  // key_rows_[k + 1]); detector placeholder rows are in none. absent_[k]
  // is set when this view's probe missed key k.
  std::vector<ViewKey> keys_;
  std::vector<uint8_t> absent_;
  std::vector<uint32_t> key_rows_;
  std::vector<uint32_t> rows_;
  std::vector<const ColumnVec*> values_;  // the chunk's value lanes
  std::vector<uint8_t> inserted_;
  LaneRemaps gather_remaps_;
  obs::Counter* materialized_ = nullptr;
};

// ---------------------------------------------------------------------------
// Project: a column reference takes the input lane as it is; any other
// select item gets its lane from its compiled program.
// ---------------------------------------------------------------------------

class ProjectOp : public Operator {
 public:
  ProjectOp(ExecContext* ctx, OperatorPtr child,
            const std::vector<expr::ExprPtr>& exprs, Schema schema)
      : Operator(ctx, std::move(schema)), child_(std::move(child)) {
    const Schema& in = child_->output_schema();
    for (size_t i = 0; i < exprs.size(); ++i) {
      const expr::Expr& e = *exprs[i];
      const bool column = e.kind() == expr::ExprKind::kColumn ||
                          e.kind() == expr::ExprKind::kUdfCall;
      source_.push_back(column ? in.IndexOf(e.name()) : -1);
      if (source_.back() < 0) {
        computed_.emplace_back(i, FilterProgram::CompileItem(e, in));
      }
    }
  }

  Result<Chunk> Next() override {
    EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
    if (in.empty()) return Chunk(output_schema_);
    Chunk out(output_schema_);
    for (const auto& [i, program] : computed_) {
      EVA_RETURN_IF_ERROR(program.ExecuteItem(in, &out.col(i)));
    }
    // Each input lane moves to its first output; a repeat copies it.
    std::vector<int> moved_to(in.num_columns(), -1);
    remaps_.Clear();
    for (size_t i = 0; i < source_.size(); ++i) {
      if (source_[i] < 0) continue;
      const auto src = static_cast<size_t>(source_[i]);
      if (moved_to[src] < 0) {
        out.col(i) = std::move(in.col(src));
        moved_to[src] = static_cast<int>(i);
      } else {
        const ColumnVec& lane = out.lane(static_cast<size_t>(moved_to[src]));
        out.col(i).AppendFrom(lane, 0, lane.size(), remaps_[i]);
      }
    }
    return out;
  }

 private:
  OperatorPtr child_;
  std::vector<int> source_;  // input column of a column reference, or -1
  // (output column, program) of every other select item.
  std::vector<std::pair<size_t, FilterProgram>> computed_;
  LaneRemaps remaps_;
};

// ---------------------------------------------------------------------------
// Aggregate: COUNT(*) GROUP BY <cols>. Groups are keyed by Value equality
// (Value::Compare), in first-seen order.
// ---------------------------------------------------------------------------

// Hash consistent with Value::Compare equality: numbers hash by their
// double value (Int64 1 equals Double 1.0, and -0.0 equals 0.0).
uint64_t GroupHash(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return 0x9E3779B97F4A7C15ULL;
    case DataType::kBool:
      return v.AsBool() ? 3 : 2;
    case DataType::kInt64:
    case DataType::kDouble: {
      double d = v.AsDouble();
      if (d == 0) d = 0;  // -0.0
      return std::hash<double>()(d);
    }
    case DataType::kString:
      return std::hash<std::string>()(v.AsString());
  }
  return 0;
}

class AggregateOp : public Operator {
 public:
  AggregateOp(ExecContext* ctx, OperatorPtr child,
              std::vector<std::string> group_by, Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        group_by_(std::move(group_by)) {}

  Result<Chunk> Next() override {
    if (done_) return Chunk(output_schema_);
    done_ = true;
    std::vector<Row> group_rows;
    std::vector<int64_t> counts;
    // Group ids by key hash; equal keys are found by Value::Compare.
    std::unordered_map<uint64_t, std::vector<size_t>> index;
    while (true) {
      EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
      if (in.empty()) break;
      std::vector<size_t> idxs;
      for (const std::string& col : group_by_) {
        int i = in.schema().IndexOf(col);
        if (i < 0) return Status::BindError("unknown group column: " + col);
        idxs.push_back(static_cast<size_t>(i));
      }
      for (size_t r = 0; r < in.num_rows(); ++r) {
        Row group;
        uint64_t h = 0;
        for (size_t i : idxs) {
          group.push_back(in.At(r, i));
          h = h * 0x100000001B3ULL ^ GroupHash(group.back());
        }
        std::vector<size_t>& bucket = index[h];
        auto same = [&](size_t g) {
          for (size_t k = 0; k < group.size(); ++k) {
            if (group_rows[g][k].Compare(group[k]) != 0) return false;
          }
          return true;
        };
        auto it = std::find_if(bucket.begin(), bucket.end(), same);
        if (it != bucket.end()) {
          ++counts[*it];
          continue;
        }
        bucket.push_back(group_rows.size());
        group_rows.push_back(std::move(group));
        counts.push_back(1);
      }
    }
    Chunk out(output_schema_);
    for (size_t i = 0; i < group_rows.size(); ++i) {
      Row& row = group_rows[i];
      row.push_back(Value(counts[i]));
      out.AppendRow(row);
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

  Result<Chunk> Next() override {
    if (remaining_ <= 0) return Chunk(output_schema_);
    EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
    const auto n = static_cast<int64_t>(in.num_rows());
    if (n <= remaining_) {
      remaining_ -= n;
      return in;
    }
    Chunk out(output_schema_);
    remaps_.Clear();
    for (size_t c = 0; c < in.num_columns(); ++c) {
      out.col(c).AppendFrom(in.lane(c), 0, static_cast<size_t>(remaining_),
                            remaps_[c]);
    }
    remaining_ = 0;
    return out;
  }

 private:
  OperatorPtr child_;
  int64_t remaining_;
  LaneRemaps remaps_;
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

  Result<Chunk> Next() override {
    if (stats_ == nullptr) {
      EVA_ASSIGN_OR_RETURN(Chunk out, inner_->Next());
      if (rows_out_ != nullptr) {
        rows_out_->Increment(static_cast<double>(out.num_rows()));
      }
      return out;
    }
    obs::OperatorStats* prev = ctx_->active_stats;
    ctx_->active_stats = stats_;
    double sim0 = ctx_->clock->TotalMs();
    auto wall0 = std::chrono::steady_clock::now();
    Result<Chunk> r = inner_->Next();
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

Result<OperatorPtr> Build(const plan::PlanNodePtr& node, ExecContext* ctx,
                          Ledgers* ledgers);

Result<OperatorPtr> BuildOperatorImpl(const plan::PlanNodePtr& node,
                                      ExecContext* ctx, Ledgers* ledgers) {
  switch (node->kind()) {
    case PlanKind::kVideoScan: {
      auto* scan = static_cast<const plan::VideoScanNode*>(node.get());
      return OperatorPtr(new VideoScanOp(ctx, scan->lo(), scan->hi()));
    }
    case PlanKind::kFilter: {
      auto* filter = static_cast<const plan::FilterNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           Build(node->child(), ctx, ledgers));
      return OperatorPtr(
          new FilterOp(ctx, std::move(child), filter->predicate()));
    }
    case PlanKind::kApply: {
      auto* apply = static_cast<const plan::ApplyNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           Build(node->child(), ctx, ledgers));
      return ApplyOp::Make(ctx, std::move(child), apply->udf(),
                           apply->emit_presence_placeholders());
    }
    case PlanKind::kCondApply: {
      auto* apply = static_cast<const plan::CondApplyNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           Build(node->child(), ctx, ledgers));
      return CondApplyOp::Make(ctx, std::move(child), apply->udf());
    }
    case PlanKind::kViewJoin: {
      auto* join = static_cast<const plan::ViewJoinNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           Build(node->child(), ctx, ledgers));
      auto ledger = ledgers->find(join->view_name());
      return ViewJoinOp::Make(
          ctx, std::move(child), join->udf(), join->view_name(),
          join->scan_all_for_dedup(), join->residual_predicate(),
          ledger != ledgers->end() ? ledger->second : nullptr);
    }
    case PlanKind::kStore: {
      auto* store = static_cast<const plan::StoreNode*>(node.get());
      // The ViewJoin of this view in the subtree reports to this STORE.
      auto ledger = std::make_unique<ProbeLedger>();
      ProbeLedger* outer =
          std::exchange((*ledgers)[store->view_name()], ledger.get());
      Result<OperatorPtr> child = Build(node->child(), ctx, ledgers);
      (*ledgers)[store->view_name()] = outer;
      if (!child.ok()) return child.status();
      return StoreOp::Make(ctx, child.MoveValue(), store->udf(),
                           store->view_name(), std::move(ledger));
    }
    case PlanKind::kProject: {
      auto* proj = static_cast<const plan::ProjectNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           Build(node->child(), ctx, ledgers));
      // A bound column or UDF output keeps the child's field type, a
      // literal its value's, and a comparison or logical expression is a
      // BOOL verdict; anything else (an unbound name, `*`) raises on every
      // row and is typed STRING.
      const Schema& in = child->output_schema();
      Schema schema;
      for (size_t i = 0; i < proj->exprs().size(); ++i) {
        DataType type = DataType::kString;
        const expr::Expr& e = *proj->exprs()[i];
        switch (e.kind()) {
          case expr::ExprKind::kLiteral:
            type = e.value().type();
            break;
          case expr::ExprKind::kColumn:
          case expr::ExprKind::kUdfCall: {
            const int idx = in.IndexOf(e.name());
            if (idx >= 0) type = in.field(static_cast<size_t>(idx)).type;
            break;
          }
          case expr::ExprKind::kCompare:
          case expr::ExprKind::kAnd:
          case expr::ExprKind::kOr:
          case expr::ExprKind::kNot:
            type = DataType::kBool;
            break;
          default:
            break;
        }
        schema.AddField({proj->names()[i], type});
      }
      return OperatorPtr(new ProjectOp(ctx, std::move(child), proj->exprs(),
                                       std::move(schema)));
    }
    case PlanKind::kLimit: {
      auto* limit = static_cast<const plan::LimitNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           Build(node->child(), ctx, ledgers));
      return OperatorPtr(
          new LimitOp(ctx, std::move(child), limit->limit()));
    }
    case PlanKind::kAggregate: {
      auto* agg = static_cast<const plan::AggregateNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           Build(node->child(), ctx, ledgers));
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

Result<OperatorPtr> Build(const plan::PlanNodePtr& node, ExecContext* ctx,
                          Ledgers* ledgers) {
  EVA_ASSIGN_OR_RETURN(OperatorPtr op, BuildOperatorImpl(node, ctx, ledgers));
  // Wrap only when someone is listening: per-node stats (EXPLAIN ANALYZE)
  // or the metrics registry. The plain execution path keeps its exact
  // pre-observability operator tree.
  if (ctx->node_stats == nullptr && ctx->obs_registry == nullptr) return op;
  obs::OperatorStats* stats =
      ctx->node_stats != nullptr ? &(*ctx->node_stats)[node.get()] : nullptr;
  return OperatorPtr(new StatsOp(ctx, std::move(op), node.get(), stats));
}

}  // namespace

Result<OperatorPtr> BuildOperator(const plan::PlanNodePtr& node,
                                  ExecContext* ctx) {
  Ledgers ledgers;
  return Build(node, ctx, &ledgers);
}

Result<Batch> ExecutePlan(const plan::PlanNodePtr& plan, ExecContext* ctx) {
  EVA_ASSIGN_OR_RETURN(OperatorPtr root, BuildOperator(plan, ctx));
  Batch result(root->output_schema());
  while (true) {
    EVA_ASSIGN_OR_RETURN(Chunk chunk, root->Next());
    if (chunk.empty()) break;
    chunk.AppendTo(&result);
  }
  ctx->metrics->rows_out += static_cast<int64_t>(result.num_rows());
  return result;
}

}  // namespace eva::exec
