#include "engine/eva_engine.h"

#include <chrono>
#include <cstdlib>

#include "common/num_parse.h"
#include "common/string_util.h"
#include "exec/operators.h"
#include "fault/fault_fs.h"
#include "obs/explain.h"
#include "obs/json_util.h"
#include "obs/profiler.h"
#include "parser/parser.h"
#include "storage/view_persistence.h"

namespace eva::engine {

namespace {

/// Span category for a synthesized per-operator span (EXPLAIN ANALYZE):
/// the reuse-relevant operators get their own taxonomy entries.
const char* OperatorSpanCategory(plan::PlanKind kind) {
  switch (kind) {
    case plan::PlanKind::kViewJoin:
      return "view-probe";
    case plan::PlanKind::kStore:
      return "materialize";
    default:
      return "execute";
  }
}

/// Synthesizes one completed span per analyzed plan node, nested to mirror
/// the plan tree under the query's execute span. Start times are inherited
/// from the execute span (operator drains interleave, so only durations are
/// meaningful); reuse-related stats become span attributes.
void AttachOperatorSpans(obs::Tracer& tracer, const plan::PlanNodePtr& node,
                         const obs::PlanStatsMap& stats, int parent,
                         double sim_start_ms, double wall_start_us) {
  auto it = stats.find(node.get());
  int index = parent;
  if (it != stats.end()) {
    const obs::OperatorStats& s = it->second;
    index = tracer.AddCompletedSpan(
        plan::PlanKindName(node->kind()), OperatorSpanCategory(node->kind()),
        parent, sim_start_ms, sim_start_ms + s.sim_ms, wall_start_us,
        wall_start_us + s.wall_us);
    if (index < 0) {
      index = parent;
    } else {
      tracer.AddAttribute(index, "rows", std::to_string(s.rows_out));
      tracer.AddAttribute(index, "batches", std::to_string(s.batches));
      if (s.view_hits + s.view_misses > 0) {
        tracer.AddAttribute(index, "view_hits",
                            std::to_string(s.view_hits));
        tracer.AddAttribute(index, "view_misses",
                            std::to_string(s.view_misses));
      }
      if (s.udf_invocations > 0) {
        tracer.AddAttribute(index, "udf_calls",
                            std::to_string(s.udf_invocations));
      }
      if (s.rows_reused > 0) {
        tracer.AddAttribute(index, "reused", std::to_string(s.rows_reused));
      }
      if (s.rows_materialized > 0) {
        tracer.AddAttribute(index, "materialized",
                            std::to_string(s.rows_materialized));
      }
      if (s.udf_retries > 0) {
        tracer.AddAttribute(index, "udf_retries",
                            std::to_string(s.udf_retries));
      }
    }
  }
  for (const plan::PlanNodePtr& child : node->children()) {
    AttachOperatorSpans(tracer, child, stats, index, sim_start_ms,
                        wall_start_us);
  }
}

/// Splits `text` into one batch row per line under a single string column.
Batch TextToBatch(const std::string& column, const std::string& text) {
  Batch batch{Schema({{column, DataType::kString}})};
  std::string line;
  for (char c : text) {
    if (c == '\n') {
      batch.AddRow({Value(line)});
      line.clear();
    } else {
      line += c;
    }
  }
  if (!line.empty()) batch.AddRow({Value(line)});
  return batch;
}

/// Stages-then-commits helper shared by every WAL producer: one
/// append+fsync for the whole staged batch, then the durability counters
/// and the wal_append event. A no-op when nothing is staged.
Status CommitWal(wal::WalWriter* writer, fault::FaultFs* fs,
                 obs::MetricsRegistry* registry, obs::EventLog* log,
                 const char* reason) {
  const auto records = static_cast<int64_t>(writer->staged_records());
  const auto bytes = static_cast<int64_t>(writer->staged_bytes());
  if (records == 0) return Status::OK();
  EVA_RETURN_IF_ERROR(writer->Commit(fs));
  if (registry != nullptr) {
    if (auto* c = registry->GetCounter(
            "eva_wal_records_total",
            "Records group-committed to the write-ahead log.")) {
      c->Increment(static_cast<double>(records));
    }
    if (auto* c = registry->GetCounter(
            "eva_wal_bytes_total",
            "Bytes group-committed to the write-ahead log.")) {
      c->Increment(static_cast<double>(bytes));
    }
  }
  if (log != nullptr) {
    log->Append(obs::Event("wal_append")
                    .Str("reason", reason)
                    .Int("records", records)
                    .Int("bytes", bytes));
  }
  return Status::OK();
}

/// Log file for checkpoint generation `gen` inside the WAL directory.
std::string WalPath(const std::string& dir, int64_t gen) {
  return dir + "/" + wal::WalFileName(gen);
}

}  // namespace

EvaEngine::EvaEngine(EngineOptions options,
                     std::shared_ptr<catalog::Catalog> catalog)
    : options_(std::move(options)),
      catalog_(std::move(catalog)),
      runtime_(catalog_.get()),
      ingestor_(catalog_.get(), &clock_) {
  tracer_.set_enabled(options_.observability);
  if (!options_.observability) registry_ = nullptr;
  views_.set_segment_frames(options_.segment_frames);
  views_.set_build_options({options_.segment_compression});
  lifecycle::LifecycleOptions lopts;
  lopts.storage_budget_bytes = options_.storage_budget_bytes;
  lopts.policy = lifecycle::ParseEvictionPolicy(options_.eviction_policy)
                     .ValueOr(lifecycle::EvictionPolicyKind::kCostBenefit);
  lopts.admission_enabled = options_.lifecycle_admission;
  lopts.symbolic_budget = options_.optimizer.budget;
  lifecycle_ = std::make_unique<lifecycle::ViewLifecycleManager>(
      lopts, &views_, &manager_, catalog_.get(), registry_);
  std::string schedule = options_.fault_schedule;
  if (schedule.empty()) {
    const char* env = std::getenv("EVA_FAULTS");
    if (env != nullptr) schedule = env;
  }
  // A constructor can't fail: an unparseable schedule leaves injection off
  // and the error retrievable via fault_schedule_status().
  fault_schedule_status_ = SetFaultSchedule(schedule);

  tracer_.set_registry(registry_);
  // Live telemetry plane — every piece gated on the observability master
  // switch so the zero-overhead path spawns no thread and opens no file.
  if (options_.observability) {
    std::string log_path = options_.event_log_path;
    if (log_path.empty()) {
      const char* env = std::getenv("EVA_EVENT_LOG");
      if (env != nullptr) log_path = env;
    }
    if (!log_path.empty()) {
      auto log = std::make_unique<obs::EventLog>();
      if (log->Open(log_path, options_.event_log_max_bytes)) {
        event_log_ = std::move(log);
        lifecycle_->set_event_log(event_log_.get());
      }
    }
    int port = options_.metrics_port;
    if (port < 0) {
      const char* env = std::getenv("EVA_METRICS_PORT");
      int64_t parsed = 0;
      if (env != nullptr && ParseInt64(env, &parsed)) {
        port = static_cast<int>(parsed);
      }
    }
    // Bind failures are non-fatal at construction (the shell's .serve
    // reports them interactively).
    if (port >= 0) (void)StartTelemetryServer(port);
  }
  // WAL arming comes last so replay sees the fully wired engine. A
  // constructor cannot fail; the result lands in wal_status(). Streaming
  // setups register their sources first and call EnableWal explicitly —
  // the option path suits durability-only (non-streaming) use.
  if (!options_.wal_dir.empty()) wal_status_ = EnableWal(options_.wal_dir);
}

EvaEngine::~EvaEngine() { StopTelemetryServer(); }

Status EvaEngine::SetFaultSchedule(const std::string& text) {
  EVA_ASSIGN_OR_RETURN(fault::FaultSchedule schedule,
                       fault::ParseFaultSchedule(text));
  injector_.SetSchedule(std::move(schedule));
  return Status::OK();
}

Status EvaEngine::CreateVideo(const catalog::VideoInfo& info) {
  if (!catalog_->HasVideo(info.name)) {
    EVA_RETURN_IF_ERROR(catalog_->AddVideo(info));
  }
  if (videos_.count(info.name) == 0) {
    auto video = std::make_unique<vision::SyntheticVideo>(info);
    stats_.emplace(info.name,
                   std::make_unique<storage::StatisticsManager>(*video));
    videos_.emplace(info.name, std::move(video));
  }
  return Status::OK();
}

Result<const vision::SyntheticVideo*> EvaEngine::video(
    const std::string& name) const {
  auto it = videos_.find(name);
  if (it == videos_.end()) return Status::NotFound("unknown video: " + name);
  return const_cast<const vision::SyntheticVideo*>(it->second.get());
}

Status EvaEngine::SaveViews(const std::string& dir) {
  // Persistence snapshots the whole store (views + coverage) and assumes
  // nothing mutates it mid-walk. A save issued while another session's
  // query — or an ingestion flush — is mid-flight would write a torn
  // store; fail cleanly instead. The service layer avoids this by queueing
  // saves behind queries and ingestion ticks.
  if (queries_in_flight_.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        "SaveViews: a query is in flight; quiesce the engine (or go "
        "through EvaService::SaveViews) before persisting");
  }
  if (ingests_in_flight_.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        "SaveViews: an ingestion flush is in flight; quiesce the engine "
        "(or go through EvaService::SaveViews) before persisting");
  }
  // A plain snapshot into the WAL directory would advance the manifest
  // generation away from the live log file, orphaning every record
  // committed afterwards — the generation-pairing invariant. Saving there
  // therefore IS a checkpoint; saving elsewhere is a snapshot export.
  if (wal_writer_ != nullptr && dir == wal_dir_) return Checkpoint();
  fault::FaultFs fs(injector_.active() ? &injector_ : nullptr);
  return storage::SaveSession(views_, manager_, dir, &fs);
}

Status EvaEngine::LoadViews(const std::string& dir) {
  if (queries_in_flight_.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        "LoadViews: a query is in flight; quiesce the engine (or go "
        "through EvaService::LoadViews) before restoring");
  }
  if (ingests_in_flight_.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        "LoadViews: an ingestion flush is in flight; quiesce the engine "
        "(or go through EvaService::LoadViews) before restoring");
  }
  if (wal_writer_ != nullptr) {
    return Status::FailedPrecondition(
        "LoadViews: the write-ahead log owns durable state while enabled; "
        "replacing the store from a snapshot would desynchronize the log");
  }
  fault::FaultFs fs(injector_.active() ? &injector_ : nullptr);
  Result<storage::RecoveryReport> loaded =
      storage::LoadSession(dir, &views_, &manager_, &fs);
  if (!loaded.ok()) return loaded.status();
  last_recovery_ = loaded.MoveValue();
  lifecycle_->SyncAccessTick();
  if (registry_ != nullptr && !last_recovery_.clean()) {
    if (auto* c = registry_->GetCounter(
            "eva_recovery_total",
            "Loads that found and repaired damaged persisted state.")) {
      c->Increment();
    }
    if (auto* c = registry_->GetCounter(
            "eva_recovery_quarantined_files_total",
            "Files quarantined during persisted-state recovery.")) {
      c->Increment(static_cast<double>(last_recovery_.quarantined.size()));
    }
    if (auto* c = registry_->GetCounter(
            "eva_recovery_coverage_retractions_total",
            "Coverage predicates retracted because their view was "
            "quarantined.")) {
      c->Increment(static_cast<double>(last_recovery_.retracted.size()));
    }
  }
  if (event_log_ != nullptr) {
    event_log_->Append(
        obs::Event("recovery")
            .Str("dir", dir)
            .Bool("clean", last_recovery_.clean())
            .Int("quarantined_files",
                 static_cast<int64_t>(last_recovery_.quarantined.size()))
            .Int("coverage_retractions",
                 static_cast<int64_t>(last_recovery_.retracted.size())));
  }
  PublishViewsSnapshot();
  return Status::OK();
}

void EvaEngine::ClearReuseState() {
  views_.Clear();
  views_.set_segment_frames(options_.segment_frames);
  views_.set_build_options({options_.segment_compression});
  manager_.Clear();
  funcache_.Clear();
  clock_.Reset();
  tracer_.Clear();
  lifecycle_->Reset();
  query_seq_ = 0;
  if (wal_writer_ != nullptr) {
    // Fold the cleared state into a fresh checkpoint so a restart does not
    // resurrect the dropped views. A failed checkpoint (injected crash)
    // leaves the previous state recoverable instead — a lost reset, never
    // an unsound one.
    (void)Checkpoint();
  }
  PublishViewsSnapshot();
  PublishIngestSnapshot();
}

Status EvaEngine::EnableWal(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("EnableWal: empty directory");
  }
  if (wal_writer_ != nullptr) {
    return Status::FailedPrecondition("EnableWal: WAL already enabled on " +
                                      wal_dir_);
  }
  if (queries_in_flight_.load(std::memory_order_acquire) != 0 ||
      ingests_in_flight_.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        "EnableWal: engine not quiescent (query or ingestion in flight)");
  }
  fault::FaultFs fs(injector_.active() ? &injector_ : nullptr);
  EVA_RETURN_IF_ERROR(fs.CreateDirs(dir));

  // Recovery: last checkpoint snapshot, then the log tail on top. This
  // REPLACES in-memory reuse state — EnableWal is the recovery entry
  // point, not an incremental attach.
  EVA_ASSIGN_OR_RETURN(storage::RecoveryReport loaded,
                       storage::LoadSession(dir, &views_, &manager_, &fs));
  last_recovery_ = std::move(loaded);
  EVA_ASSIGN_OR_RETURN(int64_t gen, storage::ManifestGeneration(dir, &fs));
  // Mid-checkpoint crash window: the manifest reached generation G but the
  // fresh log's checkpoint record never committed. The stale G-1 log is
  // subsumed by the snapshot except for its ingestion horizons — recover
  // those first (harmless when the fresh log exists: its checkpoint record
  // re-sets every horizon).
  if (gen > 0) {
    auto stale =
        wal::ReplayWal(WalPath(dir, gen - 1), catalog_.get(), &views_,
                       &manager_, options_.optimizer.budget, &fs,
                       /*horizons_only=*/true);
    if (!stale.ok()) return stale.status();
  }
  EVA_ASSIGN_OR_RETURN(
      wal::WalReplayReport replay,
      wal::ReplayWal(WalPath(dir, gen), catalog_.get(), &views_, &manager_,
                     options_.optimizer.budget, &fs));
  last_replay_ = std::move(replay);
  lifecycle_->SyncAccessTick();
  if (gen > 0) (void)fs.Remove(WalPath(dir, gen - 1));
  ingestor_.SyncVisible();

  wal_dir_ = dir;
  wal_writer_ = std::make_unique<wal::WalWriter>(WalPath(dir, gen));
  // Make any horizon-guard repair durable before acknowledging recovery:
  // the retraction exists only in memory until it reaches the log.
  for (const auto& [key, beyond] : last_replay_.guard_retractions) {
    wal_writer_->Stage(wal::CoverageRetractionRecord(key, beyond));
  }
  Status committed = CommitWal(wal_writer_.get(), &fs, registry_,
                               event_log_.get(), "recovery_guard");
  if (!committed.ok()) {
    wal_writer_.reset();
    wal_dir_.clear();
    return committed;
  }

  // Capture starts only now, after replay, so replayed appends and
  // coverage ops are not re-journaled into the log they just came from.
  views_.set_capture_appends(true);
  manager_.set_journal_enabled(true);

  if (registry_ != nullptr && !last_replay_.clean()) {
    if (auto* c = registry_->GetCounter(
            "eva_wal_recovery_repairs_total",
            "WAL replays that truncated a torn tail or retracted "
            "over-horizon coverage.")) {
      c->Increment();
    }
  }
  if (event_log_ != nullptr) {
    event_log_->Append(
        obs::Event("replay_done")
            .Str("path", last_replay_.path)
            .Int("generation", gen)
            .Int("records", last_replay_.records)
            .Int("keys_applied", last_replay_.keys_applied)
            .Int("evictions", last_replay_.evictions)
            .Int("ingest_advances", last_replay_.ingest_advances)
            .Bool("torn", last_replay_.torn)
            .Int("truncated_bytes",
                 static_cast<int64_t>(last_replay_.truncated_bytes))
            .Int("guard_retractions",
                 static_cast<int64_t>(last_replay_.guard_retractions.size())));
  }
  PublishViewsSnapshot();
  PublishIngestSnapshot();
  return Status::OK();
}

Status EvaEngine::Checkpoint() {
  if (wal_writer_ == nullptr) {
    return Status::FailedPrecondition("Checkpoint: WAL not enabled");
  }
  if (queries_in_flight_.load(std::memory_order_acquire) != 0 ||
      ingests_in_flight_.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        "Checkpoint: engine not quiescent (query or ingestion in flight)");
  }
  fault::FaultFs fs(injector_.active() ? &injector_ : nullptr);
  // Flush any residue into the OLD log first: every producer commits at
  // the end of its own operation, so this is normally a no-op, but the
  // snapshot below must supersede everything the old generation holds.
  EVA_RETURN_IF_ERROR(WalCommitQuery(query_seq_, {}));

  EVA_RETURN_IF_ERROR(storage::SaveSession(views_, manager_, wal_dir_, &fs));
  EVA_ASSIGN_OR_RETURN(int64_t gen,
                       storage::ManifestGeneration(wal_dir_, &fs));

  // Open the new generation's log with a checkpoint record carrying the
  // ingestion horizons (the one durable fact the snapshot cannot hold).
  // Crash windows: before the manifest commit, the old (snapshot, log)
  // pair recovers; after it but before this commit, recovery's
  // horizons-only pass over the stale log fills the gap; after it, the new
  // pair recovers. Every window is sound — see docs/STREAMING.md.
  auto fresh = std::make_unique<wal::WalWriter>(WalPath(wal_dir_, gen));
  std::vector<std::pair<std::string, int64_t>> horizons;
  for (const auto& s : ingestor_.Sources()) {
    horizons.emplace_back(s.name, s.visible);
  }
  fresh->Stage(wal::CheckpointRecord(gen, horizons));
  EVA_RETURN_IF_ERROR(
      CommitWal(fresh.get(), &fs, registry_, event_log_.get(), "checkpoint"));
  const std::string old_path = wal_writer_->path();
  wal_writer_ = std::move(fresh);
  (void)fs.Remove(old_path);

  if (registry_ != nullptr) {
    if (auto* c = registry_->GetCounter(
            "eva_wal_checkpoints_total",
            "Checkpoints folding the log into a snapshot generation.")) {
      c->Increment();
    }
  }
  if (event_log_ != nullptr) {
    event_log_->Append(
        obs::Event("wal_checkpoint")
            .Int("generation", gen)
            .Int("views", static_cast<int64_t>(views_.views().size()))
            .Int("streams", static_cast<int64_t>(horizons.size())));
  }
  PublishViewsSnapshot();
  PublishIngestSnapshot();
  return Status::OK();
}

Status EvaEngine::RegisterStream(const catalog::VideoInfo& info,
                                 const ingest::StreamOptions& opts) {
  if (wal_writer_ != nullptr) {
    return Status::FailedPrecondition(
        "RegisterStream must precede EnableWal so replayed horizon "
        "advances find their stream: " + info.name);
  }
  if (opts.total_frames <= 0) {
    return Status::InvalidArgument(
        "streaming source needs a bounded total_frames (frame content is "
        "pre-derived from the seed): " + info.name);
  }
  catalog::VideoInfo reg = info;
  EVA_RETURN_IF_ERROR(ingestor_.Register(reg, opts));
  // Frames and statistics are built at FULL length while the catalog
  // horizon gates visibility: frame content is a pure function of
  // (seed, frame id), so pre-deriving is undetectable, and scans /
  // coverage claims are clamped to the horizon elsewhere. Statistics over
  // the full video feed cost estimates only — plans stay horizon-bounded.
  catalog::VideoInfo full = info;
  full.streaming = true;
  full.total_frames = opts.total_frames;
  full.num_frames = opts.total_frames;
  auto video = std::make_unique<vision::SyntheticVideo>(full);
  stats_.emplace(info.name,
                 std::make_unique<storage::StatisticsManager>(*video));
  videos_.emplace(info.name, std::move(video));
  PublishIngestSnapshot();
  return Status::OK();
}

Result<ingest::StreamIngestor::FlushResult> EvaEngine::IngestFrames(
    const std::string& source, int64_t frames) {
  if (queries_in_flight_.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        "IngestFrames: a query is in flight; go through "
        "EvaService::Ingest so the queue serializes them");
  }
  struct InFlight {
    std::atomic<int>* n;
    explicit InFlight(std::atomic<int>* n_) : n(n_) {
      n->fetch_add(1, std::memory_order_acq_rel);
    }
    ~InFlight() { n->fetch_sub(1, std::memory_order_acq_rel); }
  } in_flight(&ingests_in_flight_);

  EVA_ASSIGN_OR_RETURN(ingest::StreamIngestor::FlushResult flushed,
                       ingestor_.IngestTick(source, frames));
  if (wal_writer_ != nullptr && flushed.flushed > 0) {
    fault::FaultFs fs(injector_.active() ? &injector_ : nullptr);
    wal_writer_->Stage(
        wal::IngestAdvanceRecord(source, flushed.visible, flushed.flushed));
    Status committed = CommitWal(wal_writer_.get(), &fs, registry_,
                                 event_log_.get(), "ingest");
    if (!committed.ok()) {
      // The horizon already advanced in memory; the error tells the caller
      // durability was NOT acknowledged. Recovery falls back to the last
      // durable horizon and the replay guard retracts any claim that
      // slipped past it — sound either way.
      wal_writer_->DiscardStaged();
      return committed;
    }
  }
  if (registry_ != nullptr) {
    if (auto* c = registry_->GetCounter(
            "eva_ingest_frames_total",
            "Frames made visible by streaming ingestion flushes.")) {
      c->Increment(static_cast<double>(flushed.flushed));
    }
    if (auto* g = registry_->GetGauge(
            "eva_ingest_lag_frames",
            "Frames arrived but not yet visible, across all streams.")) {
      g->Set(static_cast<double>(ingestor_.LagFrames()));
    }
  }
  if (event_log_ != nullptr) {
    event_log_->Append(obs::Event("ingest_flush")
                           .Str("source", source)
                           .Int("frames", flushed.flushed)
                           .Int("visible", flushed.visible)
                           .Int("buffered", flushed.buffered));
  }
  PublishIngestSnapshot();
  return flushed;
}

Status EvaEngine::WalCommitQuery(
    int64_t query_id, const std::vector<lifecycle::EvictionEvent>& evictions) {
  if (wal_writer_ == nullptr) return Status::OK();
  // Batch order is the soundness argument for torn tails: appends, then
  // coverage ops in live order, then evictions LAST. Any durable prefix of
  // that sequence recovers to a state that at worst underclaims (rows
  // without claims, or un-evicted segments whose claims and rows are both
  // still present) — never the reverse.
  // Appends: one record per segment a view appended to, from the cells
  // the view captured as STORE appended them. A segment appended and then
  // evicted within the batch is not logged — a sound underclaim.
  for (const auto& [name, view] : views_.views()) {
    for (const auto& chunk : view->TakeAppendedChunks()) {
      wal_writer_->Stage(wal::SegmentAppendRecord(name, view->value_schema(),
                                                  query_id, *chunk));
    }
  }
  for (const udf::CoverageOp& op : manager_.TakeJournal()) {
    wal_writer_->Stage(op.kind == udf::CoverageOp::Kind::kUnion
                           ? wal::CoverageUnionRecord(op.key, op.predicate)
                           : wal::CoverageSetRecord(op.key, op.predicate));
  }
  for (const lifecycle::EvictionEvent& ev : evictions) {
    wal_writer_->Stage(wal::ViewEvictionRecord(ev.view, ev.segment_id,
                                               ev.first_frame, ev.frame_end));
  }
  fault::FaultFs fs(injector_.active() ? &injector_ : nullptr);
  Status committed = CommitWal(wal_writer_.get(), &fs, registry_,
                               event_log_.get(), "query");
  if (!committed.ok()) wal_writer_->DiscardStaged();
  return committed;
}

Status EvaEngine::StartTelemetryServer(int port) {
  if (!options_.observability) {
    return Status::InvalidArgument(
        "telemetry server requires EngineOptions::observability");
  }
  if (telemetry_ != nullptr) {
    return Status::InvalidArgument("telemetry server already running on port " +
                                   std::to_string(telemetry_->port()));
  }
  auto server = std::make_unique<obs::HttpExporter>();
  // The registry pointer is captured by value at start time: handlers run
  // on the server thread, and set_metrics_registry during serving would
  // race. Restart the server to pick up a new registry.
  obs::MetricsRegistry* registry = registry_;
  obs::Tracer* tracer = &tracer_;
  server->Handle("/healthz", [](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.body = "ok\n";
    return r;
  });
  server->Handle("/metrics", [registry](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    if (registry != nullptr) r.body = registry->RenderPrometheus();
    return r;
  });
  server->Handle("/metrics.json", [registry](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = registry != nullptr ? registry->RenderJson() : "{\"metrics\":[]}";
    return r;
  });
  server->Handle("/trace", [tracer](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = tracer->RenderChromeTrace();
    return r;
  });
  server->Handle("/views", [this](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.content_type = "application/json";
    std::lock_guard<std::mutex> lock(views_snapshot_mu_);
    r.body = views_snapshot_json_;
    return r;
  });
  // Pre-rendered like /views: the service publishes a fresh snapshot at
  // every session change / query completion, so scraping never touches
  // live session or store state.
  server->Handle("/sessions", [this](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.content_type = "application/json";
    std::lock_guard<std::mutex> lock(sessions_snapshot_mu_);
    r.body = sessions_snapshot_json_;
    return r;
  });
  // Pre-rendered like /views: the engine publishes after every ingestion
  // tick / WAL transition, so scraping never touches live stream state.
  server->Handle("/ingest", [this](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.content_type = "application/json";
    std::lock_guard<std::mutex> lock(ingest_snapshot_mu_);
    r.body = ingest_snapshot_json_;
    return r;
  });
  // Blocks the (sequential) server thread for the sampling window; other
  // scrapes queue behind it in the listen backlog.
  server->Handle("/profile", [](const obs::HttpRequest& req) {
    obs::HttpResponse r;
    const double seconds = req.ParamOr("seconds", 1.0);
    const int hz = static_cast<int>(req.ParamOr("hz", 997));
    r.body = obs::Profiler::Global().ProfileFor(seconds, hz);
    return r;
  });
  if (!server->Start(port)) {
    return Status::Internal("telemetry server failed to bind 127.0.0.1:" +
                            std::to_string(port));
  }
  telemetry_ = std::move(server);
  PublishViewsSnapshot();
  PublishIngestSnapshot();
  return Status::OK();
}

void EvaEngine::StopTelemetryServer() {
  if (telemetry_ != nullptr) {
    telemetry_->Stop();
    telemetry_.reset();
  }
}

void EvaEngine::PublishSessionsSnapshot(std::string json) {
  std::lock_guard<std::mutex> lock(sessions_snapshot_mu_);
  sessions_snapshot_json_ = std::move(json);
}

void EvaEngine::PublishViewsSnapshot() {
  if (telemetry_ == nullptr) return;
  std::string out = "{\"total_bytes\":";
  out += obs::FormatJsonNumber(views_.TotalSizeBytes());
  out += ",\"storage_budget_bytes\":";
  out += obs::FormatJsonNumber(options_.storage_budget_bytes);
  out += ",\"eviction_policy\":";
  obs::AppendJsonString(&out, lifecycle_->policy_name());
  out += ",\"evictions\":" + std::to_string(lifecycle_->evictions());
  out += ",\"queries_executed\":" + std::to_string(query_seq_);
  const storage::SealTotals& totals = views_.seal_totals();
  out += ",\"segments_sealed\":" +
         std::to_string(totals.segments_sealed.load(std::memory_order_relaxed));
  out += ",\"segment_raw_bytes\":" + obs::FormatJsonNumber(static_cast<double>(
             totals.raw_bytes.load(std::memory_order_relaxed)));
  out += ",\"segment_encoded_bytes\":" +
         obs::FormatJsonNumber(static_cast<double>(
             totals.encoded_bytes.load(std::memory_order_relaxed)));
  out += ",\"views\":[";
  bool first = true;
  for (const auto& [name, view] : views_.views()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    obs::AppendJsonString(&out, name);
    out += ",\"keys\":" + std::to_string(view->num_keys());
    out += ",\"rows\":" + std::to_string(view->num_rows());
    out += ",\"bytes\":" + obs::FormatJsonNumber(view->SizeBytes());
    out += ",\"segments\":" + std::to_string(view->Segments().size());
    storage::ViewCompressionStats cs = view->CompressionStats();
    out += ",\"sealed_segments\":" + std::to_string(cs.sealed_segments);
    out += ",\"raw_bytes\":" +
           obs::FormatJsonNumber(static_cast<double>(cs.raw_bytes));
    out += ",\"encoded_bytes\":" +
           obs::FormatJsonNumber(static_cast<double>(cs.encoded_bytes));
    out +=
        ",\"last_access_query\":" + std::to_string(view->last_access_query());
    out += ",\"coverage_atoms\":" +
           std::to_string(manager_.CoverageAtomCount(name));
    out += '}';
  }
  out += "]}";
  std::lock_guard<std::mutex> lock(views_snapshot_mu_);
  views_snapshot_json_ = std::move(out);
}

void EvaEngine::PublishIngestSnapshot() {
  if (telemetry_ == nullptr) return;
  std::string out = "{\"wal_enabled\":";
  out += wal_writer_ != nullptr ? "true" : "false";
  if (wal_writer_ != nullptr) {
    out += ",\"wal_path\":";
    obs::AppendJsonString(&out, wal_writer_->path());
    out += ",\"wal_committed_records\":" +
           std::to_string(wal_writer_->committed_records());
    out += ",\"wal_committed_bytes\":" +
           std::to_string(wal_writer_->committed_bytes());
  }
  out += ",\"lag_frames\":" + std::to_string(ingestor_.LagFrames());
  out += ",\"streams\":[";
  bool first = true;
  for (const ingest::StreamState& s : ingestor_.Sources()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    obs::AppendJsonString(&out, s.name);
    out += ",\"visible\":" + std::to_string(s.visible);
    out += ",\"buffered\":" + std::to_string(s.buffered);
    out += ",\"total\":" + std::to_string(s.total);
    out += ",\"flushed_total\":" + std::to_string(s.flushed_total);
    out += ",\"ticks\":" + std::to_string(s.ticks);
    out += '}';
  }
  out += "]}";
  std::lock_guard<std::mutex> lock(ingest_snapshot_mu_);
  ingest_snapshot_json_ = std::move(out);
}

Result<QueryResult> EvaEngine::Execute(const std::string& sql) {
  return Execute(sql, /*session_id=*/0);
}

Result<QueryResult> EvaEngine::Execute(const std::string& sql,
                                       int64_t session_id) {
  obs::Span query_span = tracer_.StartSpan("query", "query");
  query_span.SetAttribute("sql", sql);
  if (session_id != 0) {
    query_span.SetAttribute("session_id", std::to_string(session_id));
  }
  if (registry_ != nullptr) {
    if (auto* c = registry_->GetCounter(
            "eva_queries_total", "Statements executed by the engine.",
            {{"mode", optimizer::ReuseModeName(options_.optimizer.mode)}})) {
      c->Increment();
    }
  }
  obs::Span parse_span = tracer_.StartSpan("parse", "parse");
  Result<parser::Statement> parsed = parser::ParseStatement(sql);
  parse_span.End();
  if (!parsed.ok()) return parsed.status();
  parser::Statement stmt = std::move(parsed.value());
  if (std::holds_alternative<parser::CreateUdfStatement>(stmt)) {
    EVA_RETURN_IF_ERROR(
        ExecuteCreateUdf(std::get<parser::CreateUdfStatement>(stmt)));
    QueryResult out;
    return out;
  }
  if (std::holds_alternative<parser::DropUdfStatement>(stmt)) {
    EVA_RETURN_IF_ERROR(catalog_->DropUdf(
        std::get<parser::DropUdfStatement>(stmt).name));
    QueryResult out;
    return out;
  }
  if (std::holds_alternative<parser::ShowUdfsStatement>(stmt)) {
    QueryResult out;
    Schema schema({{"name", DataType::kString},
                   {"kind", DataType::kString},
                   {"logical_type", DataType::kString},
                   {"accuracy", DataType::kString},
                   {"cost_ms", DataType::kDouble}});
    out.batch = Batch(schema);
    for (const auto& [name, def] : catalog_->udfs()) {
      const char* kind = def.kind == catalog::UdfKind::kDetector
                             ? "detector"
                             : def.kind == catalog::UdfKind::kClassifier
                                   ? "classifier"
                                   : "filter";
      out.batch.AddRow({Value(name), Value(kind), Value(def.logical_type),
                        Value(def.accuracy), Value(def.cost_ms)});
    }
    return out;
  }
  return ExecuteSelect(std::get<parser::SelectStatement>(stmt), sql,
                       session_id);
}

Result<QueryResult> EvaEngine::ExecuteSelect(
    const parser::SelectStatement& stmt, const std::string& sql,
    int64_t session_id) {
  const auto wall0 = std::chrono::steady_clock::now();
  auto stats_it = stats_.find(stmt.table);
  if (stats_it == stats_.end()) {
    return Status::BindError("video not loaded: " + stmt.table);
  }
  auto video_it = videos_.find(stmt.table);
  // Busy marker for the persistence guard: held for the whole SELECT,
  // including optimize (coverage updates) and lifecycle enforcement.
  struct InFlight {
    std::atomic<int>* n;
    explicit InFlight(std::atomic<int>* n_) : n(n_) {
      n->fetch_add(1, std::memory_order_acq_rel);
    }
    ~InFlight() { n->fetch_sub(1, std::memory_order_acq_rel); }
  } in_flight(&queries_in_flight_);
  lifecycle_->set_current_session(session_id);

  QueryResult out;
  out.metrics.session_id = session_id;
  SimClock::Snapshot before = clock_.TakeSnapshot();
  // Plain EXPLAIN never executes; EXPLAIN ANALYZE runs the query for real
  // (views materialize, coverage grows) and returns the annotated plan.
  const bool plain_explain = stmt.explain && !stmt.analyze;

  // Optimize (Fig. 1 steps 1-4). Plain EXPLAIN optimizes against a
  // snapshot of the UdfManager so that explaining a query does not claim
  // coverage the engine never materialized.
  udf::UdfManager explain_manager;
  udf::UdfManager* manager = &manager_;
  if (plain_explain) {
    explain_manager = manager_;
    manager = &explain_manager;
  }
  // Soundness under injected faults (§4.1): the optimizer claims coverage
  // for the tuples it schedules BEFORE execution runs; if execution then
  // fails, that claim would overclaim results that never materialized.
  // Snapshot p_u now and roll back on execution error. Fault-free
  // executions cannot fail that way, so the snapshot is gated on an active
  // injector to keep the normal path untouched.
  const bool fault_active = injector_.active();
  std::map<std::string, symbolic::Predicate> coverage_snapshot;
  if (fault_active && !plain_explain) {
    for (const auto& [key, entry] : manager_.entries()) {
      coverage_snapshot.emplace(key, entry.coverage);
    }
  }
  optimizer::Optimizer opt(options_.optimizer, catalog_.get(), manager,
                           stats_it->second.get(), options_.costs,
                           &views_, &tracer_, registry_, lifecycle_.get());
  obs::Span opt_span = tracer_.StartSpan("optimize", "optimize");
  Result<optimizer::OptimizedQuery> opt_result = [&] {
    obs::ProfScope prof("optimize");
    return opt.Optimize(stmt);
  }();
  EVA_ASSIGN_OR_RETURN(optimizer::OptimizedQuery optimized,
                       std::move(opt_result));
  clock_.Charge(CostCategory::kOptimize, optimized.optimizer_ms);
  opt_span.SetAttribute("sim_charged_ms", optimized.optimizer_ms);
  opt_span.End();
  out.report = std::move(optimized.report);
  out.metrics.optimizer_ms = optimized.optimizer_ms;
  if (registry_ != nullptr) {
    if (auto* h = registry_->GetHistogram(
            "eva_optimizer_sim_ms",
            "Simulated optimizer latency per SELECT (Fig. 6 OPT bars).",
            obs::DefaultLatencyBucketsMs())) {
      h->Observe(optimized.optimizer_ms);
    }
  }

  if (plain_explain) {
    // EXPLAIN: return the optimized plan as rows without executing it.
    out.batch = TextToBatch("plan", out.report.plan_text);
    out.metrics.breakdown = clock_.TakeSnapshot() - before;
    return out;
  }

  // Execute.
  exec::ExecContext ctx;
  ctx.clock = &clock_;
  ctx.views = &views_;
  ctx.catalog = catalog_.get();
  ctx.udfs = &runtime_;
  ctx.video = video_it->second.get();
  ctx.costs = options_.costs;
  ctx.metrics = &out.metrics;
  ctx.batch_size = options_.batch_size;
  ctx.query_id = ++query_seq_;
  ctx.session_id = session_id;
  ctx.udf_spin_us = options_.udf_spin_us;
  if (options_.optimizer.mode == optimizer::ReuseMode::kFunCache) {
    ctx.funcache = &funcache_;
  }
  ctx.obs_registry = registry_;
  ctx.event_log = event_log_.get();
  ctx.faults = fault_active ? &injector_ : nullptr;
  ctx.udf_max_retries = options_.udf_max_retries;
  ctx.udf_retry_backoff_ms = options_.udf_retry_backoff_ms;
  obs::PlanStatsMap node_stats;
  if (stmt.analyze) ctx.node_stats = &node_stats;

  if (event_log_ != nullptr) {
    event_log_->Append(
        obs::Event("query_start")
            .Int("query_id", ctx.query_id)
            .Int("session_id", session_id)
            .Str("sql", sql)
            .Str("mode",
                 optimizer::ReuseModeName(options_.optimizer.mode)));
  }

  obs::Span exec_span = tracer_.StartSpan("execute", "execute");
  const int exec_index = exec_span.index();
  Result<Batch> executed = [&] {
    obs::ProfScope prof("executor");
    return exec::ExecutePlan(optimized.plan, &ctx);
  }();
  if (!executed.ok()) {
    if (fault_active) {
      // Roll back every signature to its pre-query coverage; signatures
      // created by this query drop to FALSE. Rows STORE already
      // materialized from earlier batches stay — they are genuine UDF
      // results and reuse of them goes through per-tuple view probes, not
      // coverage claims.
      std::vector<std::string> keys;
      for (const auto& [key, entry] : manager_.entries()) {
        keys.push_back(key);
      }
      for (const std::string& key : keys) {
        auto it = coverage_snapshot.find(key);
        manager_.SetCoverage(key, it != coverage_snapshot.end()
                                      ? it->second
                                      : symbolic::Predicate::False());
      }
    }
    if (event_log_ != nullptr) {
      event_log_->Append(obs::Event("query_error")
                             .Int("query_id", ctx.query_id)
                             .Int("session_id", session_id)
                             .Str("error", executed.status().ToString())
                             .Int("udf_retries", out.metrics.udf_retries));
    }
    // Persist what DID happen: the rows already stored and the rollback's
    // coverage sets (journaled in live order), so recovery lands on the
    // rolled-back state, not the pre-rollback claims. The query's own
    // error is what the caller needs to see.
    (void)WalCommitQuery(ctx.query_id, {});
    return executed.status();
  }
  out.batch = executed.MoveValue();
  exec_span.SetAttribute("rows", out.metrics.rows_out);
  exec_span.End();
  out.metrics.breakdown = clock_.TakeSnapshot() - before;

  if (stmt.analyze) {
    if (exec_index >= 0) {
      const obs::SpanRecord& rec =
          tracer_.spans()[static_cast<size_t>(exec_index)];
      AttachOperatorSpans(tracer_, optimized.plan, node_stats, exec_index,
                          rec.sim_start_ms, rec.wall_start_us);
    }
    out.report.plan_text =
        obs::RenderAnalyzedPlan(*optimized.plan, node_stats) +
        optimizer::RenderAdmissionLines(out.report.admissions);
    out.batch = TextToBatch("plan", out.report.plan_text);
  }

  // View lifecycle: fold this query's reuse statistics into the admission
  // estimate, then evict segments until the store fits the budget. Runs on
  // the driver thread after the operator tree is drained — the quiescence
  // the segment bookkeeping and coverage retraction require.
  lifecycle_->ObserveQuery(out.metrics);
  std::vector<lifecycle::EvictionEvent> evictions =
      lifecycle_->EnforceBudget(ctx.query_id);

  // Group-commit everything this query changed before acknowledging it:
  // a SELECT whose results the caller saw must survive a crash.
  EVA_RETURN_IF_ERROR(WalCommitQuery(ctx.query_id, evictions));

  if (event_log_ != nullptr) {
    int64_t coverage_atoms = 0;
    for (const auto& [key, entry] : manager_.entries()) {
      coverage_atoms += manager_.CoverageAtomCount(key);
    }
    const double wall_ms =
        std::chrono::duration_cast<
            std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    event_log_->Append(
        obs::Event("query_end")
            .Int("query_id", ctx.query_id)
            .Int("session_id", session_id)
            .Num("sim_ms", out.metrics.TotalMs())
            .Num("wall_ms", wall_ms)
            .Int("rows_out", out.metrics.rows_out)
            .Int("invocations", out.metrics.TotalInvocations())
            .Int("reused", out.metrics.TotalReused())
            .Int("udf_retries", out.metrics.udf_retries)
            .Int("coverage_atoms", coverage_atoms));
  }

  if (registry_ != nullptr) {
    if (auto* h = registry_->GetHistogram(
            "eva_query_sim_ms",
            "Simulated end-to-end latency per SELECT (Fig. 5 raw data).",
            obs::DefaultLatencyBucketsMs(),
            {{"mode",
              optimizer::ReuseModeName(options_.optimizer.mode)}})) {
      h->Observe(out.metrics.TotalMs());
    }
    if (auto* g = registry_->GetGauge(
            "eva_view_store_bytes",
            "Total materialized-view footprint (the §5.2 storage number).")) {
      g->Set(views_.TotalSizeBytes());
    }
    int64_t view_rows = 0;
    for (const auto& [name, view] : views_.views()) {
      view_rows += view->num_rows();
    }
    if (auto* g = registry_->GetGauge(
            "eva_view_store_rows", "Rows across all materialized views.")) {
      g->Set(static_cast<double>(view_rows));
    }
    if (auto* g = registry_->GetGauge("eva_view_store_views",
                                      "Number of materialized views.")) {
      g->Set(static_cast<double>(views_.views().size()));
    }
    // Segment-compression counters: the ViewStore keeps running atomics
    // (seals happen mid-query); the driver folds the delta since the last
    // publish into the monotone `_total` series here.
    const storage::SealTotals& totals = views_.seal_totals();
    int64_t sealed = totals.segments_sealed.load(std::memory_order_relaxed);
    int64_t raw = totals.raw_bytes.load(std::memory_order_relaxed);
    int64_t encoded = totals.encoded_bytes.load(std::memory_order_relaxed);
    if (sealed > published_seal_totals_.segments_sealed) {
      if (auto* c = registry_->GetCounter(
              "eva_segments_sealed_total",
              "Segments sealed into immutable columnar form.")) {
        c->Increment(static_cast<double>(
            sealed - published_seal_totals_.segments_sealed));
      }
      published_seal_totals_.segments_sealed = sealed;
    }
    if (raw > published_seal_totals_.raw_bytes) {
      if (auto* c = registry_->GetCounter(
              "eva_segment_bytes_raw_total",
              "Pre-compression bytes across sealed segments.")) {
        c->Increment(
            static_cast<double>(raw - published_seal_totals_.raw_bytes));
      }
      published_seal_totals_.raw_bytes = raw;
    }
    if (encoded > published_seal_totals_.encoded_bytes) {
      if (auto* c = registry_->GetCounter(
              "eva_segment_bytes_encoded_total",
              "Post-compression bytes across sealed segments.")) {
        c->Increment(static_cast<double>(
            encoded - published_seal_totals_.encoded_bytes));
      }
      published_seal_totals_.encoded_bytes = encoded;
    }
    for (int i = 0; i < storage::ColumnVec::kNumCodecs; ++i) {
      int64_t cols = totals.codec_cols[i].load(std::memory_order_relaxed);
      if (cols <= published_seal_totals_.codec_cols[i]) continue;
      if (auto* c = registry_->GetCounter(
              "eva_segment_columns_encoded_total",
              "Sealed segment columns by chosen encoding.",
              {{"codec", storage::ColumnVec::CodecName(
                             static_cast<storage::ColumnVec::Codec>(i))}})) {
        c->Increment(static_cast<double>(
            cols - published_seal_totals_.codec_cols[i]));
      }
      published_seal_totals_.codec_cols[i] = cols;
    }
  }
  PublishViewsSnapshot();
  return out;
}

Status EvaEngine::ExecuteCreateUdf(const parser::CreateUdfStatement& stmt) {
  catalog::UdfDef def;
  def.name = stmt.name;
  def.logical_type = stmt.logical_type;
  def.impl = stmt.impl;
  auto get = [&stmt](const std::string& key,
                     const std::string& fallback) -> std::string {
    auto it = stmt.properties.find(key);
    return it == stmt.properties.end() ? fallback : it->second;
  };
  def.accuracy = get("ACCURACY", "MEDIUM");
  std::string kind = get("KIND", "DETECTOR");
  if (kind == "CLASSIFIER") {
    def.kind = catalog::UdfKind::kClassifier;
  } else if (kind == "FILTER") {
    def.kind = catalog::UdfKind::kFilter;
  } else {
    def.kind = catalog::UdfKind::kDetector;
  }
  // Property values come from user SQL: parse without exceptions and turn
  // garbage into an InvalidArgument instead of a crash (reader_fuzz_test).
  auto num = [&stmt](const std::string& key,
                     double fallback) -> Result<double> {
    auto it = stmt.properties.find(key);
    if (it == stmt.properties.end()) return fallback;
    double v = 0;
    if (!ParseDouble(it->second, &v)) {
      return Status::InvalidArgument("bad numeric value for " + key + ": " +
                                     it->second);
    }
    return v;
  };
  EVA_ASSIGN_OR_RETURN(def.cost_ms, num("COST_MS", 10));
  EVA_ASSIGN_OR_RETURN(def.accuracy_score, num("ACCURACY_SCORE", 0));
  EVA_ASSIGN_OR_RETURN(def.recall, num("RECALL", 0.9));
  EVA_ASSIGN_OR_RETURN(def.recall_small, num("RECALL_SMALL", def.recall));
  EVA_ASSIGN_OR_RETURN(def.classifier_accuracy, num("CLS_ACCURACY", 0.9));
  def.target_attribute = ToLower(get("TARGET", "car_type"));
  def.is_gpu = get("DEVICE", "GPU") == "GPU";
  return catalog_->AddUdf(std::move(def), stmt.or_replace);
}

}  // namespace eva::engine
