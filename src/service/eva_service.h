#ifndef EVA_SERVICE_EVA_SERVICE_H_
#define EVA_SERVICE_EVA_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/eva_engine.h"

namespace eva::service {

/// Per-session totals, accumulated by the service executor after every
/// query of the session. The shared-store hit percentage is the headline
/// number: how much of this session's inference was paid for by *any*
/// session's earlier queries (its own included).
struct SessionStats {
  int64_t queries = 0;
  int64_t errors = 0;
  int64_t invocations = 0;
  int64_t reused = 0;
  int64_t rows_out = 0;
  double sim_ms = 0;

  double HitPercentage() const {
    return invocations == 0 ? 0
                            : 100.0 * static_cast<double>(reused) /
                                  static_cast<double>(invocations);
  }
};

/// One client session of the multi-session engine service: the per-session
/// front-end state that used to be implicit in "one EvaEngine per user" —
/// identity, lifetime, and query/reuse accounting. All reuse state (views,
/// aggregated predicates, lifecycle budget) lives in the service's shared
/// engine, which is the point: this session's materialized UDF results
/// serve every other session's queries.
///
/// Sessions are created and closed through EvaService; handles are
/// shared_ptrs, so a handle stays valid (readable stats) after close.
/// Thread-safe: stats() may be called from any thread while the service
/// executor is appending.
class EvaSession {
 public:
  int64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  /// False once closed: new submissions are rejected; queries already
  /// queued still run (close does not cancel in-flight work).
  bool open() const { return open_.load(std::memory_order_acquire); }
  SessionStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  friend class EvaService;
  EvaSession(int64_t id, std::string name)
      : id_(id), name_(std::move(name)) {}
  /// Folds one finished query into the session totals (executor thread).
  void Observe(const Result<engine::QueryResult>& result);
  void Close() { open_.store(false, std::memory_order_release); }

  const int64_t id_;
  const std::string name_;
  std::atomic<bool> open_{true};
  mutable std::mutex mu_;
  SessionStats stats_;
};

/// The multi-session engine service (docs/SERVICE.md): N concurrent
/// EvaSession front-ends over ONE shared EvaEngine — one ViewStore, one
/// UdfManager (aggregated predicates p_u), one lifecycle manager (global
/// admission statistics and a single storage budget arbitrated across all
/// tenants).
///
/// Execution model (the otterbrix executor idiom): submissions from any
/// thread are appended to a FIFO op queue and return a future; a single
/// executor thread drains the queue, running one query at a time against
/// the shared engine. Whole-query serialization is what keeps the symbolic
/// core sound under interleaving: the optimizer claims coverage for the
/// tuples it schedules BEFORE execution materializes them, so another
/// session's optimize running between claim and materialization would read
/// an aggregated predicate that overclaims (a claimed-covered, absent key
/// reads as "processed, no objects" — silently wrong results). Serializing
/// optimize→execute→lifecycle per query makes every interleaving of
/// sessions equivalent to some serial schedule, and Algorithm 1 carving
/// stays sound. The executor thread evaluates every UDF call of a query
/// inline, charging the engine clock directly — so for a fixed submission
/// order (the fleet driver's (seed, schedule) pair) the whole service run
/// is bit-identical to the same queries run directly on one engine.
///
/// Store-wide operations (SaveViews/LoadViews/ClearReuseState) ride the
/// same queue, so they observe a quiescent store by construction; calling
/// the engine's entry points directly while a query is in flight instead
/// fails cleanly (EvaEngine's busy guard).
class EvaService {
 public:
  /// Adopts a fully configured engine (UDFs registered, videos created).
  explicit EvaService(std::unique_ptr<engine::EvaEngine> engine);
  /// Convenience: builds the engine in place. Register UDFs / create
  /// videos through engine() before the first Submit.
  EvaService(engine::EngineOptions options,
             std::shared_ptr<catalog::Catalog> catalog);
  /// Drains every queued op, then stops and joins the executor.
  ~EvaService();
  EvaService(const EvaService&) = delete;
  EvaService& operator=(const EvaService&) = delete;

  // --- session lifecycle ---------------------------------------------------
  /// Creates a session (ids are monotone from 1; 0 is reserved for the
  /// single-session engine path). `name` is a display label for /sessions.
  std::shared_ptr<EvaSession> CreateSession(const std::string& name = "");
  /// Attach to an existing session; nullptr when the id is unknown.
  std::shared_ptr<EvaSession> FindSession(int64_t id) const;
  /// Rejects further submissions to the session. Queries already queued
  /// still run. NotFound for unknown ids; closing twice is OK.
  Status CloseSession(int64_t id);
  /// Every session ever created (closed ones included), id-ascending.
  std::vector<std::shared_ptr<EvaSession>> Sessions() const;
  /// Currently open sessions (the /sessions "session_count").
  int64_t open_sessions() const;

  // --- query execution -----------------------------------------------------
  /// Enqueues one EVA-QL statement for `session_id` and returns its
  /// future. Futures resolve in submission order (FIFO); an unknown or
  /// closed session yields an immediately-ready error future.
  std::future<Result<engine::QueryResult>> Submit(int64_t session_id,
                                                  std::string sql);
  /// Submit + wait.
  Result<engine::QueryResult> Execute(int64_t session_id,
                                      const std::string& sql);

  // --- store-wide operations (queued: run at a quiescent point) -----------
  Status SaveViews(const std::string& dir);
  Status LoadViews(const std::string& dir);
  void ClearReuseState();

  // --- streaming ingestion + WAL (queued like everything else) ------------
  /// One ingestion tick for `source`, serialized with queries on the FIFO
  /// — which is what makes every ingest_advance durable BEFORE any query
  /// that could claim coverage over the new frames.
  Result<ingest::StreamIngestor::FlushResult> Ingest(
      const std::string& source, int64_t frames);
  /// Folds the WAL into a fresh checkpoint generation at a quiescent point.
  Status Checkpoint();

  /// The shared engine. Safe for setup before the first Submit and for
  /// thread-safe accessors (metrics registry, telemetry port, views()
  /// const reads between drained ops); do NOT call engine()->Execute from
  /// outside while service ops are outstanding — that is exactly the
  /// unserialized interleaving the service exists to prevent.
  engine::EvaEngine* engine() { return engine_.get(); }
  const engine::EvaEngine* engine() const { return engine_.get(); }

  /// Blocks until every op queued so far has executed (tests, shell).
  void Drain();

  /// The /sessions payload: live session count, per-session query totals
  /// and shared-store hit%, plus service-level aggregates.
  std::string RenderSessionsJson() const;

 private:
  struct Op {
    enum class Kind {
      kQuery,
      kSave,
      kLoad,
      kClear,
      kIngest,
      kCheckpoint,
      kBarrier,
      kStop
    };
    Kind kind = Kind::kQuery;
    int64_t session = 0;
    std::string arg;  // sql (kQuery), directory (kSave/kLoad), or source
    int64_t frames = 0;  // kIngest: frames arriving this tick
    std::promise<Result<engine::QueryResult>> query_promise;
    std::promise<Status> status_promise;
    std::promise<Result<ingest::StreamIngestor::FlushResult>> ingest_promise;
  };

  void ExecutorLoop();
  void Enqueue(Op op);
  /// Renders and publishes the /sessions snapshot to the engine's
  /// telemetry plane (no-op cost when no server is running).
  void PublishSessions();

  std::unique_ptr<engine::EvaEngine> engine_;

  mutable std::mutex sessions_mu_;
  std::map<int64_t, std::shared_ptr<EvaSession>> sessions_;
  int64_t next_session_id_ = 1;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Op> queue_;
  bool stopping_ = false;
  std::thread executor_;
};

}  // namespace eva::service

#endif  // EVA_SERVICE_EVA_SERVICE_H_
