#include "exec/operators.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
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

// Cached per-UDF counters of a UDF runner.
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

// The registry's row counter of one plan node kind; null without one.
obs::Counter* OperatorRowsCounter(ExecContext* ctx, PlanKind kind) {
  if (ctx->obs_registry == nullptr) return nullptr;
  return ctx->obs_registry->GetCounter("eva_operator_rows_total",
                                       "Rows emitted per physical operator",
                                       {{"op", plan::PlanKindName(kind)}});
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
// UDF evaluation helpers shared by Apply and ReuseChain. They run inline on
// the thread executing the query and charge the engine clock directly.
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

// Consults the active fault injector before a fresh model evaluation. A transient
// (kError) fault is retried up to ctx->udf_max_retries times, charging an
// exponentially growing simulated backoff per attempt. A permanent
// (kFail/kCrash) fault, or retry exhaustion, surfaces as a Status error
// that aborts the query; coverage already claimed for it is rolled back by
// the engine (graceful degradation: rerun recomputes).
Status MaybeInjectUdfFault(ExecContext* ctx, const UdfDef& def,
                           int64_t frame, int64_t obj,
                           const UdfObsCounters& obs) {
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
    detector_->DetectInto(*ctx_->video, frame, &dets_);
    for (const vision::Detection& d : dets_) {
      out[0].AppendInt64(static_cast<int64_t>(d.obj_id));
      out[1].AppendLabel(vision::ObjectLabels(), d.label_id);
      out[2].AppendDouble(d.area);
      out[3].AppendDouble(d.score);
    }
    return dets_.size();
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
    if (ctx_->faults != nullptr) {
      EVA_RETURN_IF_ERROR(MaybeInjectUdfFault(ctx_, *def_, frame, obj, obs_));
    }
    ctx_->Charge(CostCategory::kUdf, def_->cost_ms);
    if (ctx_->udf_spin_us > 0) SpinFor(ctx_->udf_spin_us);
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
  std::vector<vision::Detection> dets_;  // Detect's buffer, reused
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
// the result lanes. A classifier or filter yields one row per input row,
// so the input columns move over; a detector's are replicated with one
// gather by parent row.
// ---------------------------------------------------------------------------

class ApplyOp : public Operator {
 public:
  static Result<OperatorPtr> Make(ExecContext* ctx, OperatorPtr child,
                                  const std::string& udf) {
    EVA_ASSIGN_OR_RETURN(UdfDef def, ctx->catalog->GetUdf(udf));
    EVA_ASSIGN_OR_RETURN(
        Schema schema,
        child->output_schema().Extend(UdfOutputSchema(def).fields()));
    return OperatorPtr(new ApplyOp(ctx, std::move(child), std::move(def),
                                   std::move(schema)));
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
  ApplyOp(ExecContext* ctx, OperatorPtr child, UdfDef def, Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        def_(std::move(def)),
        n_outputs_(UdfOutputSchema(def_).num_fields()),
        runner_(ctx, &def_) {}

  Result<Chunk> Apply(Chunk& in) {
    const size_t base = in.num_columns();
    const ColumnVec& ids =
        in.lane(static_cast<size_t>(in.schema().IndexOf(kColId)));
    Chunk out(output_schema_);
    TailLane* results = &out.col(base);
    if (def_.kind == UdfKind::kDetector) {
      parents_.clear();
      for (size_t r = 0; r < in.num_rows(); ++r) {
        EVA_ASSIGN_OR_RETURN(size_t dets,
                             DetectorResults(Int64Cell(ids, r), results));
        parents_.insert(parents_.end(), dets, static_cast<uint32_t>(r));
      }
      remaps_.Clear();
      GatherColumns(in, 0, base, parents_, &out, 0, &remaps_);
      return out;
    }
    const int obj_idx = in.schema().IndexOf(kColObj);
    for (size_t r = 0; r < in.num_rows(); ++r) {
      int64_t frame = Int64Cell(ids, r);
      if (def_.kind == UdfKind::kClassifier) {
        const ColumnVec& objs = in.lane(static_cast<size_t>(obj_idx));
        if (objs.NullAt(r)) {
          results->AppendNull();
        } else {
          EVA_RETURN_IF_ERROR(
              ClassifierResult(frame, Int64Cell(objs, r), results));
        }
      } else {  // filter UDF
        EVA_RETURN_IF_ERROR(FilterResult(frame, results));
      }
    }
    for (size_t c = 0; c < base; ++c) out.col(c) = std::move(in.col(c));
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
  UdfRunner runner_;
  std::vector<uint32_t> parents_;  // input row of each output row
  LaneRemaps remaps_;
};

// ---------------------------------------------------------------------------
// ReuseChain: the materialization-aware rewrite of Fig. 4 (§4.4) as one
// operator. It runs the plan chain
//   [STORE(v)] <- CondApply(u) <- ViewJoin(v_1) <- ... <- ViewJoin(v_k)
// — LEFT OUTER JOINs with the views, the conditional APPLY guarded by
// "outputs IS NULL", then STORE — or STORE(v) <- Apply(u). Per input
// chunk it probes v_1..v_k in plan order, each for the keys no earlier
// view held; copies each hit's rows a run at a time from its pinned
// segment; evaluates u on the keys no view held, into the same output
// lanes; and appends exactly the keys it evaluated to v. Its output is
// the rows of every input row, in order, with no NULL placeholder rows.
//
// Charges, access ticks and counters keep the chain's order: per chunk,
// each view's probe and read charges and hit ticks in row order, the
// conditional apply's per-row overhead over the rows the last join would
// have emitted, the UDF charges, then each inserted key's materialize
// charge. The plan nodes stay as they are, and so do their statistics:
// the builder's StatsOp meters the top node, and a NodeMeter per inner
// node keeps that node's as its own operator would have.
// ---------------------------------------------------------------------------

// The stats of one plan node that a ReuseChainOp runs inside itself, kept
// as a StatsOp around that node's own operator would keep them: every
// Next() call the node would have served is a window from Open to Close,
// which adds its sim and wall time, one batch and its rows.
struct NodeMeter {
  obs::OperatorStats* stats = nullptr;  // null without EXPLAIN ANALYZE
  obs::Counter* rows_total = nullptr;   // null without a registry
  double sim0 = 0;
  std::chrono::steady_clock::time_point wall0;

  void Open(const ExecContext& ctx) {
    if (stats == nullptr) return;
    sim0 = ctx.clock->TotalMs();
    wall0 = std::chrono::steady_clock::now();
  }
  void Close(const ExecContext& ctx, size_t rows) {
    if (rows_total != nullptr) rows_total->Increment(static_cast<double>(rows));
    if (stats == nullptr) return;
    stats->sim_ms += ctx.clock->TotalMs() - sim0;
    stats->wall_us +=
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    ++stats->batches;
    stats->rows_out += static_cast<int64_t>(rows);
  }
};

class ReuseChainOp : public Operator {
 public:
  // `joins` in plan order (v_1 first, nearest the input); `apply` is the
  // Apply or CondApply node of `udf`; `store` is null without a STORE.
  static Result<OperatorPtr> Make(
      ExecContext* ctx, OperatorPtr child,
      const std::vector<const plan::ViewJoinNode*>& joins,
      const plan::PlanNode* apply, const std::string& udf,
      const plan::StoreNode* store) {
    EVA_ASSIGN_OR_RETURN(UdfDef def, ctx->catalog->GetUdf(udf));
    const Schema& in = child->output_schema();
    if (def.kind == UdfKind::kClassifier && !in.Contains(kColObj)) {
      return Status::Internal("classifier " + udf + " needs detector rows");
    }
    EVA_ASSIGN_OR_RETURN(Schema schema,
                         in.Extend(UdfOutputSchema(def).fields()));
    std::unique_ptr<ReuseChainOp> op(new ReuseChainOp(
        ctx, std::move(child), std::move(def), std::move(schema)));
    for (const plan::ViewJoinNode* node : joins) {
      EVA_ASSIGN_OR_RETURN(UdfDef join_def, ctx->catalog->GetUdf(node->udf()));
      if (!(UdfOutputSchema(join_def) == op->value_schema_)) {
        return Status::Internal("ViewJoin(" + node->view_name() +
                                ") does not feed " + udf + "'s outputs");
      }
      Join join;
      join.udf = node->udf();
      join.view_name = node->view_name();
      join.scan_all_pending = node->scan_all_for_dedup();
      if (ctx->obs_registry != nullptr) {
        join.probe_hits = ctx->obs_registry->GetCounter(
            "eva_view_probe_hits_total",
            "Materialized-view probes answered from the view",
            {{"udf", join.udf}});
        join.probe_misses = ctx->obs_registry->GetCounter(
            "eva_view_probe_misses_total",
            "Materialized-view probes that fell through to the UDF",
            {{"udf", join.udf}});
      }
      op->joins_.push_back(std::move(join));
      op->meters_.push_back(MakeMeter(ctx, node));
      op->store_probed_ = op->store_probed_ ||
                          (store != nullptr &&
                           node->view_name() == store->view_name());
    }
    op->apply_stats_ = NodeStats(ctx, apply);
    if (store != nullptr) {
      if (store->udf() != udf) {
        return Status::Internal("STORE(" + store->view_name() +
                                ") over an apply of " + udf);
      }
      op->meters_.push_back(MakeMeter(ctx, apply));
      op->store_view_ = store->view_name();
      op->store_stats_ = NodeStats(ctx, store);
      if (ctx->obs_registry != nullptr) {
        op->materialized_ = ctx->obs_registry->GetCounter(
            "eva_materialized_rows_total",
            "Rows appended to materialized views",
            {{"view", op->store_view_}});
      }
    }
    return OperatorPtr(std::move(op));
  }

  Result<Chunk> Next() override {
    OpenInner(meters_.size());
    while (true) {
      EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
      if (in.empty()) {
        for (NodeMeter& m : meters_) m.Close(*ctx_, 0);
        return Chunk(output_schema_);
      }
      Prepare(in);
      size_t j = 0;
      for (; j < joins_.size(); ++j) {
        EVA_RETURN_IF_ERROR(Probe(j));
        if (JoinedRows(in) == 0) break;
        meters_[j].Close(*ctx_, JoinedRows(in));
      }
      if (j < joins_.size()) {
        OpenInner(j);  // ViewJoin(v_j) emitted nothing: it pulls again
        continue;
      }
      if (!joins_.empty()) {
        ctx_->Charge(CostCategory::kOther,
                     ctx_->costs.apply_overhead_ms_per_row *
                         static_cast<double>(JoinedRows(in)));
      }
      obs::OperatorStats* outer = ctx_->active_stats;
      ctx_->active_stats = apply_stats_;
      Result<Chunk> applied = Apply(in);
      ctx_->active_stats = outer;
      runner_.FlushCounters();
      EVA_ASSIGN_OR_RETURN(Chunk out, std::move(applied));
      if (!store_view_.empty()) {
        meters_.back().Close(*ctx_, apply_rows_);
        EVA_RETURN_IF_ERROR(Store(out));
      }
      if (!out.empty()) return out;
      OpenInner(meters_.size());  // the top node pulls again
    }
  }

 private:
  // One ViewJoin(v_i) of the chain.
  struct Join {
    std::string udf;  // the view's model
    std::string view_name;
    bool scan_all_pending = false;  // HashStash's full read, not yet paid
    UdfMetricCells cells;
    obs::Counter* probe_hits = nullptr;
    obs::Counter* probe_misses = nullptr;
    std::vector<ViewKey> keys;  // this chunk's probe keys, in row order
    storage::ProbeResult res;   // and their outcomes
    LaneRemaps remaps;  // per (hit segment, output lane), this chunk
  };

  // from_ of an input row no view held: u evaluates it.
  static constexpr int32_t kEvaluate = -1;
  // from_ of a classifier row without an object: its output is NULL.
  static constexpr int32_t kNullObj = -2;

  ReuseChainOp(ExecContext* ctx, OperatorPtr child, UdfDef def, Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        def_(std::move(def)),
        value_schema_(UdfOutputSchema(def_)),
        base_(child_->output_schema().num_fields()),
        id_col_(static_cast<size_t>(child_->output_schema().IndexOf(kColId))),
        obj_col_(child_->output_schema().IndexOf(kColObj)),
        runner_(ctx, &def_),
        next_tick_([ctx] { return ctx->views->NextAccessTick(); }) {}

  static obs::OperatorStats* NodeStats(ExecContext* ctx,
                                       const plan::PlanNode* node) {
    return ctx->node_stats != nullptr ? &(*ctx->node_stats)[node] : nullptr;
  }
  static NodeMeter MakeMeter(ExecContext* ctx, const plan::PlanNode* node) {
    NodeMeter m;
    m.stats = NodeStats(ctx, node);
    m.rows_total = OperatorRowsCounter(ctx, node->kind());
    return m;
  }

  // Opens the windows of inner nodes [0, end), top-down as their Next()
  // calls nest; a HashStash join pays its full view read at its first.
  void OpenInner(size_t end) {
    for (size_t s = end; s-- > 0;) {
      meters_[s].Open(*ctx_);
      if (s >= joins_.size() || !joins_[s].scan_all_pending) continue;
      joins_[s].scan_all_pending = false;
      const MaterializedView* view = ctx_->views->Find(joins_[s].view_name);
      if (view != nullptr) {
        ctx_->Charge(CostCategory::kReadView,
                     ctx_->costs.view_read_ms_per_row *
                         static_cast<double>(view->num_rows()));
      }
    }
  }

  // Each input row's key; every row with one starts pending.
  void Prepare(const Chunk& in) {
    const size_t n = in.num_rows();
    const ColumnVec& ids = in.lane(id_col_);
    const ColumnVec* objs =
        def_.kind == UdfKind::kClassifier
            ? &in.lane(static_cast<size_t>(obj_col_))
            : nullptr;
    keys_.resize(n);
    from_.assign(n, kEvaluate);
    outcome_.resize(n);
    pending_.clear();
    hit_rows_ = 0;
    for (size_t r = 0; r < n; ++r) {
      int64_t obj = -1;
      if (objs != nullptr) {
        if (objs->NullAt(r)) {
          from_[r] = kNullObj;
          continue;
        }
        obj = Int64Cell(*objs, r);
      }
      keys_[r] = ViewKey{Int64Cell(ids, r), obj};
      pending_.push_back(static_cast<uint32_t>(r));
    }
  }

  // Rows ViewJoin would have emitted after the last probe: each hit's
  // stored rows, one per pending or object-less row.
  size_t JoinedRows(const Chunk& in) const {
    return def_.kind == UdfKind::kDetector
               ? static_cast<size_t>(hit_rows_) + pending_.size()
               : in.num_rows();
  }

  // ViewJoin(v_j): one ProbeBatch of the pending keys; the rows it hits
  // leave pending_.
  Status Probe(size_t j) {
    Join& join = joins_[j];
    MaterializedView* view = ctx_->views->Find(join.view_name);
    if (view != nullptr) {
      EVA_RETURN_IF_ERROR(CheckViewSchema(*view, value_schema_));
    }
    join.keys.clear();
    for (uint32_t r : pending_) join.keys.push_back(keys_[r]);
    join.res.Clear();
    if (view != nullptr && !join.keys.empty()) {
      view->ProbeBatch(join.keys, &join.res);
    }
    const bool detector = def_.kind == UdfKind::kDetector;
    const CostConstants& costs = ctx_->costs;
    accesses_.clear();
    still_pending_.clear();
    size_t run = 0;  // res.runs index of the last hit
    int64_t hits = 0;
    for (size_t i = 0; i < pending_.size(); ++i) {
      const uint32_t r = pending_[i];
      ctx_->Charge(CostCategory::kOther, costs.view_probe_ms_per_key);
      if (view == nullptr ||
          join.res.outcomes[i].status != storage::ProbeStatus::kHit) {
        still_pending_.push_back(r);
        continue;
      }
      // A reused invocation, and a tick of the access clock that stamps
      // its run's segment; stamps land once per chunk, one per run.
      join.cells.AddReuse(ctx_, join.udf);
      ++hits;
      while (join.res.runs[run].end <= i) ++run;
      const int64_t segment = join.res.runs[run].segment_id;
      if (accesses_.empty() || accesses_.back().first != segment) {
        accesses_.emplace_back(segment, 0);
      }
      accesses_.back().second = ctx_->views->NextAccessTick();
      const int32_t rows = join.res.outcomes[i].rows_count;
      ctx_->Charge(CostCategory::kReadView,
                   detector ? costs.view_read_ms_per_row *
                                  static_cast<double>(rows)
                            : costs.view_read_ms_per_row);
      if (detector) hit_rows_ += rows;
      from_[r] = static_cast<int32_t>(j);
      outcome_[r] = static_cast<uint32_t>(i);
    }
    const auto misses = static_cast<int64_t>(still_pending_.size());
    pending_.swap(still_pending_);
    if (!accesses_.empty()) view->RecordAccess(accesses_, ctx_->query_id);
    if (obs::OperatorStats* stats = meters_[j].stats) {
      stats->view_hits += hits;
      stats->rows_reused += hits;
      stats->view_misses += misses;
    }
    if (hits > 0 && join.probe_hits != nullptr) {
      join.probe_hits->Increment(static_cast<double>(hits));
    }
    if (misses > 0 && join.probe_misses != nullptr) {
      join.probe_misses->Increment(static_cast<double>(misses));
    }
    return Status::OK();
  }

  // Copies hit rows into out[0..width) by runs: consecutive hits in one
  // pinned segment take one append per lane, AppendFrom while their rows
  // form one range, AppendGather once they do not. Flush() ends a run.
  class HitCopier {
   public:
    HitCopier(ReuseChainOp* op, TailLane* out, size_t width)
        : op_(op), out_(out), width_(width) {
      op_->run_rows_.clear();
    }

    void Copy(size_t join, int32_t seg, size_t begin, size_t end) {
      if (join != join_ || seg != seg_) {
        Flush();
        join_ = join;
        seg_ = seg;
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
    void Flush() {
      if (first_ == end_) return;
      Join& join = op_->joins_[join_];
      const storage::ColumnarSegment& segment =
          *join.res.segments[static_cast<size_t>(seg_)];
      std::vector<uint32_t>& rows = op_->run_rows_;
      for (size_t c = 0; c < width_; ++c) {
        std::vector<int32_t>* remap =
            join.remaps[static_cast<size_t>(seg_) * width_ + c];
        if (rows.empty()) {
          out_[c].AppendFrom(segment.cols[c], first_, end_, remap);
        } else {
          out_[c].AppendGather(segment.cols[c], rows.data(), rows.size(),
                               remap);
        }
      }
      rows.clear();
      first_ = end_ = 0;
    }

   private:
    ReuseChainOp* op_;
    TailLane* out_;
    size_t width_;
    size_t join_ = 0;
    int32_t seg_ = -1;
    // The pending run: rows [first_, end_) while they form one range,
    // else op_->run_rows_ (and first_ < end_ still marks it non-empty).
    size_t first_ = 0;
    size_t end_ = 0;
  };

  // The Apply / CondApply step: every input row's output rows in order —
  // hits copied from their segments, u evaluated on the rest — and the
  // input columns alongside. Queues each evaluated key for Store.
  Result<Chunk> Apply(Chunk& in) {
    const bool detector = def_.kind == UdfKind::kDetector;
    const size_t width = value_schema_.num_fields();
    Chunk out(output_schema_);
    TailLane* results = &out.col(base_);
    for (Join& join : joins_) join.remaps.Clear();
    parents_.clear();
    store_keys_.clear();
    key_rows_.assign(1, 0);
    rows_.clear();
    apply_rows_ = 0;
    HitCopier hits(this, results, width);
    for (size_t r = 0; r < in.num_rows(); ++r) {
      const auto parent = static_cast<uint32_t>(r);
      const int32_t from = from_[r];
      if (from >= 0) {
        const storage::ProbeOutcome& oc =
            joins_[static_cast<size_t>(from)].res.outcomes[outcome_[r]];
        const auto begin = static_cast<size_t>(oc.rows_begin);
        const auto count = static_cast<size_t>(oc.rows_count);
        if (detector) {
          hits.Copy(static_cast<size_t>(from), oc.seg_index, begin,
                    begin + count);
          parents_.insert(parents_.end(), count, parent);
          apply_rows_ += count;
          continue;
        }
        if (count > 0) {
          hits.Copy(static_cast<size_t>(from), oc.seg_index, begin,
                    begin + 1);
        } else {
          hits.Flush();
          results->AppendNull();
        }
        ++apply_rows_;
        continue;
      }
      hits.Flush();
      if (from == kNullObj) {
        results->AppendNull();
        ++apply_rows_;
        continue;
      }
      const int64_t frame = keys_[r].frame;
      if (detector) {
        const size_t first = results[0].lane().size();
        EVA_ASSIGN_OR_RETURN(size_t dets, runner_.Detect(frame, results));
        parents_.insert(parents_.end(), dets, parent);
        // CondApply kept a NULL row for a frame without detections.
        apply_rows_ += std::max<size_t>(dets, 1);
        for (size_t i = first; i < first + dets; ++i) {
          rows_.push_back(static_cast<uint32_t>(i));
        }
      } else {
        if (def_.kind == UdfKind::kClassifier) {
          EVA_ASSIGN_OR_RETURN(vision::Label label,
                               runner_.Classify(frame, keys_[r].obj));
          results->AppendLabel(*label.vocab, label.id);
        } else {
          EVA_ASSIGN_OR_RETURN(bool pass, runner_.Filter(frame));
          results->AppendBool(pass);
        }
        ++apply_rows_;
        rows_.push_back(parent);
      }
      store_keys_.push_back(keys_[r]);
      key_rows_.push_back(static_cast<uint32_t>(rows_.size()));
    }
    hits.Flush();
    if (detector) {
      remaps_.Clear();
      GatherColumns(in, 0, base_, parents_, &out, 0, &remaps_);
    } else {
      for (size_t c = 0; c < base_; ++c) out.col(c) = std::move(in.col(c));
    }
    return out;
  }

  // STORE: one PutBatch of the evaluated keys over the output lanes, then
  // the materialize charge of each inserted key, in key order. When the
  // chain probed v, every evaluated key is known absent from it.
  Status Store(const Chunk& out) {
    MaterializedView* view =
        ctx_->views->GetOrCreate(store_view_, value_schema_);
    EVA_RETURN_IF_ERROR(CheckViewSchema(*view, value_schema_));
    put_remaps_.Clear();  // new source lanes
    if (store_keys_.empty()) return Status::OK();
    values_.clear();
    for (size_t c = 0; c < value_schema_.num_fields(); ++c) {
      values_.push_back(&out.lane(base_ + c));
    }
    view->PutBatch(store_keys_, store_probed_, key_rows_, rows_, values_,
                   next_tick_, ctx_->query_id, &put_remaps_, &inserted_);
    int64_t materialized = 0;
    for (size_t k = 0; k < store_keys_.size(); ++k) {
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
    if (materialized == 0) return Status::OK();
    if (store_stats_ != nullptr) {
      store_stats_->rows_materialized += materialized;
    }
    if (materialized_ != nullptr) {
      materialized_->Increment(static_cast<double>(materialized));
    }
    return Status::OK();
  }

  OperatorPtr child_;
  UdfDef def_;
  Schema value_schema_;
  size_t base_;  // input columns, before the UDF outputs
  size_t id_col_;
  int obj_col_;
  std::vector<Join> joins_;
  // One per inner node: the joins, then the apply node under a STORE.
  std::vector<NodeMeter> meters_;
  obs::OperatorStats* apply_stats_ = nullptr;
  UdfRunner runner_;
  // STORE(v); store_view_ is empty without one.
  std::string store_view_;
  bool store_probed_ = false;  // v is one of the joined views
  obs::OperatorStats* store_stats_ = nullptr;
  obs::Counter* materialized_ = nullptr;
  // Draws an access tick only for keys PutBatch actually inserts.
  std::function<uint64_t()> next_tick_;
  // Per-chunk scratch, reused across Next() calls.
  std::vector<ViewKey> keys_;      // each input row's key
  std::vector<int32_t> from_;      // the join that hit each row, or k*
  std::vector<uint32_t> outcome_;  // a hit row's outcome in that join
  std::vector<uint32_t> pending_;  // rows no join has hit yet, in order
  std::vector<uint32_t> still_pending_;
  int64_t hit_rows_ = 0;   // stored rows of this chunk's hits (detector)
  size_t apply_rows_ = 0;  // rows the apply node would have emitted
  std::vector<std::pair<int64_t, uint64_t>> accesses_;  // per hit run
  std::vector<uint32_t> parents_;   // input row of each output row
  std::vector<uint32_t> run_rows_;  // HitCopier's pending run
  LaneRemaps remaps_;               // input columns gathered by parent
  // STORE's PutBatch: key k's rows are rows_[key_rows_[k] ..
  // key_rows_[k + 1]) of the output lanes.
  std::vector<ViewKey> store_keys_;
  std::vector<uint32_t> key_rows_;
  std::vector<uint32_t> rows_;
  std::vector<const ColumnVec*> values_;
  std::vector<uint8_t> inserted_;
  storage::PutRemaps put_remaps_;  // this chunk's lanes -> view tails
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
    rows_out_ = OperatorRowsCounter(ctx, node->kind());
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

Result<OperatorPtr> Build(const plan::PlanNodePtr& node, ExecContext* ctx);

// The ReuseChainOp of the chain a STORE or CondApply node tops.
Result<OperatorPtr> BuildChain(const plan::PlanNodePtr& top,
                               ExecContext* ctx) {
  const plan::StoreNode* store = nullptr;
  const plan::PlanNode* apply = top.get();
  if (top->kind() == PlanKind::kStore) {
    store = static_cast<const plan::StoreNode*>(top.get());
    apply = top->child().get();
  }
  std::string udf;
  if (apply->kind() == PlanKind::kApply) {
    udf = static_cast<const plan::ApplyNode*>(apply)->udf();
  } else if (apply->kind() == PlanKind::kCondApply) {
    udf = static_cast<const plan::CondApplyNode*>(apply)->udf();
  } else {
    return Status::Internal("STORE(" + store->view_name() +
                            ") needs an Apply or CondApply child");
  }
  // A CondApply's ViewJoins, top-down until the chain's input.
  std::vector<const plan::ViewJoinNode*> joins;
  const plan::PlanNodePtr* input = &apply->child();
  while (apply->kind() == PlanKind::kCondApply &&
         (*input)->kind() == PlanKind::kViewJoin) {
    joins.push_back(static_cast<const plan::ViewJoinNode*>(input->get()));
    input = &(*input)->child();
  }
  if (apply->kind() == PlanKind::kCondApply && joins.empty()) {
    return Status::Internal("CondApply(" + udf + ") needs view-joined input");
  }
  std::reverse(joins.begin(), joins.end());
  EVA_ASSIGN_OR_RETURN(OperatorPtr child, Build(*input, ctx));
  return ReuseChainOp::Make(ctx, std::move(child), joins, apply, udf, store);
}

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
                           Build(node->child(), ctx));
      return OperatorPtr(
          new FilterOp(ctx, std::move(child), filter->predicate()));
    }
    case PlanKind::kApply: {
      auto* apply = static_cast<const plan::ApplyNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           Build(node->child(), ctx));
      return ApplyOp::Make(ctx, std::move(child), apply->udf());
    }
    case PlanKind::kCondApply:
    case PlanKind::kStore:
      return BuildChain(node, ctx);
    case PlanKind::kViewJoin:
      return Status::Internal(
          "ViewJoin(" +
          static_cast<const plan::ViewJoinNode*>(node.get())->view_name() +
          ") needs a CondApply above it");
    case PlanKind::kProject: {
      auto* proj = static_cast<const plan::ProjectNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           Build(node->child(), ctx));
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
                           Build(node->child(), ctx));
      return OperatorPtr(
          new LimitOp(ctx, std::move(child), limit->limit()));
    }
    case PlanKind::kAggregate: {
      auto* agg = static_cast<const plan::AggregateNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           Build(node->child(), ctx));
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

Result<OperatorPtr> Build(const plan::PlanNodePtr& node, ExecContext* ctx) {
  EVA_ASSIGN_OR_RETURN(OperatorPtr op, BuildOperatorImpl(node, ctx));
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
  return Build(node, ctx);
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
