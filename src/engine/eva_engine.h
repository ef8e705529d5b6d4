#ifndef EVA_ENGINE_EVA_ENGINE_H_
#define EVA_ENGINE_EVA_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/fun_cache.h"
#include "catalog/catalog.h"
#include "common/row.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "fault/fault_injector.h"
#include "ingest/stream_ingestor.h"
#include "lifecycle/view_lifecycle.h"
#include "obs/event_log.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "optimizer/optimizer.h"
#include "storage/statistics.h"
#include "storage/view_persistence.h"
#include "storage/view_store.h"
#include "udf/udf_manager.h"
#include "udf/udf_runtime.h"
#include "vision/synthetic_video.h"
#include "wal/wal_log.h"
#include "wal/wal_replay.h"

namespace eva::engine {

/// Engine-wide configuration: the reuse algorithm under test plus the
/// simulated-cost constants (see DESIGN.md §2 on the simulation).
struct EngineOptions {
  optimizer::OptimizerOptions optimizer;
  exec::CostConstants costs;
  int64_t batch_size = 1024;
  /// Master switch for the observability subsystem (src/obs/): spans,
  /// registry metrics, and per-operator row counters. Never charges the
  /// simulated clock either way. When false, no telemetry server, event
  /// log, or profiler thread is ever created regardless of the settings
  /// below — the zero-overhead path.
  bool observability = true;

  // --- live telemetry plane (docs/OBSERVABILITY.md) -----------------------
  /// TCP port for the embedded telemetry HTTP server (127.0.0.1 only):
  /// /metrics, /metrics.json, /trace, /views, /profile, /healthz.
  /// -1 (default) defers to $EVA_METRICS_PORT (unset there too = no
  /// server); 0 binds an ephemeral port (EvaEngine::telemetry_port()).
  int metrics_port = -1;
  /// Path for the structured JSONL event log (query/admission/eviction/
  /// retraction/recovery/retry records). Empty defers to $EVA_EVENT_LOG
  /// (empty there too = no event log).
  std::string event_log_path;
  /// Size-based rotation threshold for the event log; when the file grows
  /// past this it is renamed to `<path>.1` and restarted. <= 0 disables
  /// rotation.
  int64_t event_log_max_bytes = 8 * 1024 * 1024;
  /// No effect; kept because perfbench/ assigns it.
  int num_threads = 0;
  /// No effect; kept because perfbench/ assigns it.
  int64_t morsel_rows = 128;
  /// Busy-wait per fresh UDF invocation, in host microseconds. Gives
  /// simulated UDF calls real wall time, e.g. so a test can observe a query
  /// in flight; 0 (default) adds nothing. Never charges the simulated clock.
  double udf_spin_us = 0;

  // --- columnar probe path (docs/STORAGE.md) ------------------------------
  /// No effect; kept because perfbench/ assigns it.
  bool vectorized_filter = true;
  /// No effect; kept because perfbench/ assigns it.
  bool zone_map_skipping = true;
  /// Compress sealed view segments with per-column lightweight codecs
  /// (dictionary / RLE / bit-pack / frame-of-reference, chosen by byte
  /// cost) and charge the storage budget at the encoded size. Values
  /// reconstruct bit-identically; only the footprint changes. Saves always
  /// write .evaseg files; with this off their segments carry plain lanes,
  /// and either kind loads into an engine configured either way.
  bool segment_compression = true;
  /// No effect; kept because perfbench/ reads it.
  int bloom_bits_per_key = 10;

  // --- view lifecycle (src/lifecycle/, docs/LIFECYCLE.md) -----------------
  /// Storage budget for the materialized-view store; after every query the
  /// lifecycle manager evicts view segments until the store fits. 0
  /// (default) = unbounded, matching the paper's behavior.
  double storage_budget_bytes = 0;
  /// Segment-eviction policy: "cost-benefit" (Eq. 4-derived), "lru", or
  /// "fifo".
  std::string eviction_policy = "cost-benefit";
  /// Frames per view segment — the eviction granularity.
  int64_t segment_frames = 512;
  /// Eq. 3 admission gate: skip materializing UDFs whose predicted reuse
  /// benefit cannot pay the write cost. With the default evidence
  /// threshold this only triggers after a long no-reuse history.
  bool lifecycle_admission = true;

  // --- write-ahead log + streaming (src/wal/, src/ingest/) ----------------
  /// Directory for the write-ahead log and its checkpoints. Non-empty arms
  /// the WAL at construction: the last checkpoint is loaded, the log tail
  /// replayed, and from then on every view append / coverage transition /
  /// ingestion advance is group-committed (append+fsync) before the engine
  /// acknowledges the operation. Empty (default) = no WAL, snapshot-only
  /// persistence as before. EvaEngine::wal_status() holds the arming
  /// result (a constructor cannot fail).
  std::string wal_dir;

  // --- fault injection & reliability (src/fault/, docs/RELIABILITY.md) ----
  /// Deterministic fault schedule ("action@point#occ; ..."); empty defers
  /// to $EVA_FAULTS (empty there too = no injection). An unparseable
  /// schedule leaves injection off; the error is kept in
  /// EvaEngine::fault_schedule_status(). The shell's .faults command calls
  /// SetFaultSchedule, which reports the parse error directly.
  std::string fault_schedule;
  /// Bounded retry for transient (error@udf:...) UDF faults before the
  /// query degrades to a ResourceExhausted error.
  int udf_max_retries = 3;
  /// Simulated backoff charged per retry attempt (ms; doubles per retry).
  double udf_retry_backoff_ms = 1.0;
};

/// Result of one query: output rows, execution metrics (time breakdown,
/// per-UDF invocation/reuse counts), and the optimizer's diagnostics.
struct QueryResult {
  Batch batch;
  exec::QueryMetrics metrics;
  optimizer::OptimizeReport report;
};

/// EVA's top-level facade (Fig. 1): PARSER → OPTIMIZER (with the
/// SymbolicEngine and UdfManager) → EXECUTION ENGINE. One instance holds
/// the materialized-view store and aggregated predicates that persist
/// across the queries of an exploratory session.
class EvaEngine {
 public:
  EvaEngine(EngineOptions options,
            std::shared_ptr<catalog::Catalog> catalog);
  /// Stops the telemetry server (whose handlers capture `this`) before any
  /// member is torn down.
  ~EvaEngine();

  /// Registers a video table and builds its synthetic frames + statistics.
  Status CreateVideo(const catalog::VideoInfo& info);

  /// Executes one EVA-QL statement. CREATE UDF statements register the
  /// UDF; SELECT statements return rows + metrics.
  Result<QueryResult> Execute(const std::string& sql);
  /// Same, tagged with the session the statement belongs to (src/service/).
  /// `session_id` is attribution only — metrics, event-log records, and
  /// trace spans carry it; results and simulated charges are unaffected.
  /// 0 is the single-session path the plain overload uses.
  Result<QueryResult> Execute(const std::string& sql, int64_t session_id);

  /// Drops all reuse state (views, aggregated predicates, caches) — used
  /// to evaluate each workload from a clean state (§5.1).
  void ClearReuseState();

  /// Persists / restores the materialized views (the on-disk views of
  /// §4.2) together with the lifecycle state: per-segment access stamps
  /// and the aggregated predicates, including any eviction retraction.
  /// A loaded view whose signature still lacks coverage is consulted per
  /// tuple by the conditional apply, as before.
  ///
  /// Saves are crash-safe (tmp + fsync + rename per file, MANIFEST with
  /// per-file CRC32 committed last); loads verify, quarantine corrupt or
  /// unmanifested state, and retract its symbolic coverage so reuse never
  /// overclaims. LoadViews succeeds even when recovery repaired damage —
  /// inspect last_recovery() for what happened.
  /// Both entry points assume exclusive ownership of the view store and
  /// fail with FailedPrecondition while any query or ingestion flush is in
  /// flight (another session mid-query would be snapshotted torn). The
  /// service layer (src/service/) runs them on its executor thread, where
  /// the queue guarantees quiescence.
  ///
  /// With the WAL enabled, SaveViews into the WAL directory is redirected
  /// to Checkpoint() — a plain snapshot there would advance the manifest
  /// generation away from the live log file and orphan every record
  /// committed afterwards. Saving to any other directory stays a plain
  /// snapshot export. LoadViews is rejected outright while the WAL is
  /// enabled (it would replace state the log no longer describes).
  Status SaveViews(const std::string& dir);
  Status LoadViews(const std::string& dir);
  /// What the most recent LoadViews found and repaired.
  const storage::RecoveryReport& last_recovery() const {
    return last_recovery_;
  }

  // --- write-ahead log + streaming ingestion (docs/STREAMING.md) ---------
  /// Arms the write-ahead log on `dir`: loads the last checkpoint snapshot
  /// from there, replays the current-generation log tail on top (torn
  /// tails are truncated and quarantined; over-horizon coverage claims are
  /// retracted so reuse never overclaims after a crash), and opens the log
  /// for group commit. From then on every SELECT's view appends, coverage
  /// transitions, and lifecycle evictions — and every ingestion advance —
  /// are committed to the log before the operation is acknowledged.
  /// Call after RegisterStream (streams must exist before their horizons
  /// replay) and never while queries or ingests are in flight.
  Status EnableWal(const std::string& dir);
  bool wal_enabled() const { return wal_writer_ != nullptr; }
  /// Arming result when EngineOptions::wal_dir was used (a constructor
  /// cannot fail); OK when the WAL armed cleanly or was never requested.
  const Status& wal_status() const { return wal_status_; }
  /// What the most recent EnableWal replay found and repaired.
  const wal::WalReplayReport& last_replay() const { return last_replay_; }

  /// Folds the log into a fresh checkpoint snapshot (manifest generation
  /// G+1), switches group commit to the next log file, and removes the
  /// old-generation log. Every crash window leaves a recoverable pair:
  /// either the old (snapshot G, log G) or the new (snapshot G+1, log G+1)
  /// — see docs/STREAMING.md for the window-by-window analysis.
  Status Checkpoint();

  /// Registers `info` as a streaming source (catalog entry at the initial
  /// horizon, full-length synthetic frames + statistics). Must precede
  /// EnableWal so replayed horizon advances find their stream.
  Status RegisterStream(const catalog::VideoInfo& info,
                        const ingest::StreamOptions& opts);
  /// One ingestion tick for `source`: buffers up to `frames` arrivals,
  /// flushes the buffer (advancing the visible horizon), and — with the
  /// WAL enabled — commits the advance before acknowledging it.
  Result<ingest::StreamIngestor::FlushResult> IngestFrames(
      const std::string& source, int64_t frames);
  const ingest::StreamIngestor& ingestor() const { return ingestor_; }
  ingest::StreamIngestor* ingestor_for_test() { return &ingestor_; }
  /// Ingestion flushes currently executing (the persistence busy guard's
  /// second input; readable from any thread).
  int ingests_in_flight() const {
    return ingests_in_flight_.load(std::memory_order_acquire);
  }

  /// Replaces the fault schedule (shell .faults, tests). An empty string
  /// disables injection. Resets occurrence counters and the halt latch.
  Status SetFaultSchedule(const std::string& text);
  /// Parse status of the schedule given via EngineOptions / $EVA_FAULTS.
  const Status& fault_schedule_status() const {
    return fault_schedule_status_;
  }
  fault::FaultInjector* fault_injector() { return &injector_; }
  const fault::FaultInjector* fault_injector() const { return &injector_; }

  const storage::ViewStore& views() const { return views_; }
  const udf::UdfManager& udf_manager() const { return manager_; }
  /// Session trace (parse / optimize / symbolic-diff / execute spans plus
  /// per-operator spans synthesized by EXPLAIN ANALYZE).
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  /// Metrics sink; nullptr when options().observability is false.
  obs::MetricsRegistry* metrics_registry() const { return registry_; }
  /// Redirects metrics away from the process-wide registry (tests use a
  /// local registry to isolate counts). Pass nullptr to disable. Must not
  /// be called while the telemetry server is running — /metrics captures
  /// the registry at StartTelemetryServer time.
  void set_metrics_registry(obs::MetricsRegistry* registry) {
    registry_ = registry;
    tracer_.set_registry(registry);
    if (lifecycle_ != nullptr) lifecycle_->set_obs(registry);
  }

  // --- live telemetry plane ----------------------------------------------
  /// Binds the embedded HTTP server on 127.0.0.1:`port` (0 = ephemeral)
  /// and registers the telemetry routes. Fails when observability is off,
  /// a server is already running, or the bind fails.
  Status StartTelemetryServer(int port);
  /// Stops and joins the server thread; idempotent.
  void StopTelemetryServer();
  /// Bound port of the running telemetry server; -1 when not running.
  int telemetry_port() const {
    return telemetry_ == nullptr ? -1 : telemetry_->port();
  }
  /// Structured event sink; nullptr when observability is off or no
  /// event-log path was configured.
  obs::EventLog* event_log() { return event_log_.get(); }
  /// The view lifecycle manager (budget, eviction policy, admission) —
  /// always present; observation-only while the budget is 0.
  lifecycle::ViewLifecycleManager* lifecycle() { return lifecycle_.get(); }
  const lifecycle::ViewLifecycleManager* lifecycle() const {
    return lifecycle_.get();
  }
  /// SELECT statements executed so far — the id the lifecycle manager
  /// stamps on view accesses (resets with ClearReuseState).
  int64_t queries_executed() const { return query_seq_; }
  /// SELECT statements currently executing (0 or 1 under the service's
  /// serialized executor; readable from any thread). SaveViews/LoadViews
  /// refuse to run while this is non-zero.
  int queries_in_flight() const {
    return queries_in_flight_.load(std::memory_order_acquire);
  }
  /// Replaces the pre-rendered /sessions JSON served by the telemetry
  /// server. The service layer publishes after every session change and
  /// completed query; the HTTP thread only ever reads the string under the
  /// snapshot mutex, so scraping is safe while sessions run.
  void PublishSessionsSnapshot(std::string json);
  const baselines::FunCache& funcache() const { return funcache_; }
  const SimClock& clock() const { return clock_; }
  const catalog::Catalog& catalog() const { return *catalog_; }
  const EngineOptions& options() const { return options_; }

  Result<const vision::SyntheticVideo*> video(const std::string& name) const;

 private:
  Result<QueryResult> ExecuteSelect(const parser::SelectStatement& stmt,
                                    const std::string& sql,
                                    int64_t session_id);
  Status ExecuteCreateUdf(const parser::CreateUdfStatement& stmt);
  /// Re-renders the /views JSON snapshot. Runs on the driver thread at
  /// quiescent points (end of SELECT, LoadViews, ClearReuseState) — the
  /// HTTP thread serves the pre-rendered string under the snapshot mutex
  /// and never touches ViewStore/UdfManager live (their quiescence
  /// contracts, docs/RUNTIME.md).
  void PublishViewsSnapshot();
  /// Same contract for the /ingest JSON snapshot.
  void PublishIngestSnapshot();
  /// Group-commits everything query `query_id` changed: segment appends,
  /// then coverage transitions in journal order, then lifecycle evictions
  /// LAST (so a torn suffix can only underclaim).
  /// No-op when the WAL is off or nothing changed.
  Status WalCommitQuery(int64_t query_id,
                        const std::vector<lifecycle::EvictionEvent>& evictions);

  EngineOptions options_;
  std::shared_ptr<catalog::Catalog> catalog_;
  std::map<std::string, std::unique_ptr<vision::SyntheticVideo>> videos_;
  std::map<std::string, std::unique_ptr<storage::StatisticsManager>> stats_;
  storage::ViewStore views_;
  udf::UdfManager manager_;
  udf::UdfRuntime runtime_;
  baselines::FunCache funcache_;
  SimClock clock_;
  std::unique_ptr<lifecycle::ViewLifecycleManager> lifecycle_;
  int64_t query_seq_ = 0;  // monotone SELECT id (lifecycle access stamps)
  obs::MetricsRegistry* registry_ = &obs::MetricsRegistry::Global();
  obs::Tracer tracer_{&clock_};
  std::unique_ptr<obs::EventLog> event_log_;
  std::unique_ptr<obs::HttpExporter> telemetry_;
  mutable std::mutex views_snapshot_mu_;
  std::string views_snapshot_json_ = "{\"views\":[]}";
  mutable std::mutex sessions_snapshot_mu_;
  std::string sessions_snapshot_json_ =
      "{\"session_count\":0,\"sessions\":[]}";
  /// Raised for the duration of ExecuteSelect; the persistence busy guard.
  std::atomic<int> queries_in_flight_{0};
  /// Mutable so const SaveViews can thread it through the filesystem shim
  /// (consulting the injector mutates its occurrence counters only).
  mutable fault::FaultInjector injector_;
  Status fault_schedule_status_;
  storage::RecoveryReport last_recovery_;
  /// Seal-totals watermark already folded into the monotone `_total`
  /// counters — the registry publishes deltas against the ViewStore's
  /// running atomics after every query.
  struct PublishedSealTotals {
    int64_t segments_sealed = 0;
    int64_t raw_bytes = 0;
    int64_t encoded_bytes = 0;
    int64_t codec_cols[storage::ColumnVec::kNumCodecs] = {};
  } published_seal_totals_;

  // --- write-ahead log + streaming ingestion -----------------------------
  ingest::StreamIngestor ingestor_;
  std::string wal_dir_;  // empty until EnableWal succeeds
  std::unique_ptr<wal::WalWriter> wal_writer_;
  Status wal_status_;
  wal::WalReplayReport last_replay_;
  /// Raised for the duration of IngestFrames; the persistence busy guard's
  /// second input (a snapshot taken mid-flush would tear the horizon).
  std::atomic<int> ingests_in_flight_{0};
  mutable std::mutex ingest_snapshot_mu_;
  std::string ingest_snapshot_json_ = "{\"streams\":[]}";
};

}  // namespace eva::engine

#endif  // EVA_ENGINE_EVA_ENGINE_H_
