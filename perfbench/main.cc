// perfbench: the repository's end-to-end benchmark. Four closed-loop
// vbench workloads run against the public EvaEngine / EvaService API; every
// answer is checked against a cold no-reuse engine. With --trace 1 each
// session is replayed a second time through the layer driver
// (layer_driver.h) to split host time by layer. See README.md.
//
//   perfbench --workload explore-high --seed 1 --seconds 10 --trace 0
//             --work-dir DIR
//   perfbench --list-metrics
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. The exit code is non-zero when any check fails.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "engine/eva_engine.h"
#include "layer_driver.h"
#include "service/eva_service.h"
#include "stats.h"
#include "vbench/vbench.h"

namespace perfbench {
namespace {

namespace stdfs = std::filesystem;
using eva::Result;
using eva::Status;

// --- workload definitions ----------------------------------------------------

/// One step of a session's schedule, in execution order.
struct Step {
  enum class Kind { kQuery, kIngest, kCheckpoint };
  Kind kind = Kind::kQuery;
  int64_t session_id = 0;  // EvaService session (fleet) or 0
  std::string sql;
  int64_t horizon = 0;  // frames visible when the query runs
};

struct Workload {
  std::string name;
  eva::catalog::VideoInfo video;
  std::vector<std::string> queries;  // one analyst's query set
  int clients = 1;                   // >1: EvaService sessions
  double budget_fraction = 0;        // of the unbounded footprint; 0 = none
  bool stream = false;
  eva::ingest::StreamOptions stream_opts;
  int64_t frames_per_tick = 0;
  int ticks = 0;
  int checkpoint_after_tick = 0;
  /// Groups in the query-order pool (one order per client). A pass
  /// replays every group once, as one session each.
  int orders = 1;
  /// Host seconds one pass takes on a 4-vCPU VM; sets how many passes a
  /// run of --seconds makes (Passes).
  double pass_s = 1;

  /// Passes in a run: a function of --seconds alone, so every run of one
  /// workload does the same work whatever the host speed. At least three,
  /// so every timing figure is a best of three replays.
  int Passes(double seconds) const {
    return std::max(3, static_cast<int>(std::lround(seconds / pass_s)));
  }
};

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Pool group replayed by session `index`. Query orders come from a fixed
/// pool; the run's seed picks the group the run starts at, so every pass
/// replays the whole pool and the simulated figures vary with the seeded
/// video content only. Under the
/// admission gate a session is either gated or not, so a fresh sample of
/// orders per seed would make hit% a coin count. Sessions `index` and
/// `index % orders` replay the same group.
uint64_t OrderGroup(const Workload& w, uint64_t seed, int64_t index) {
  return (SplitMix(seed) + static_cast<uint64_t>(index)) %
         static_cast<uint64_t>(w.orders);
}

/// vbench::Permute seed of one client's order in session `index`.
uint64_t OrderSeed(const Workload& w, uint64_t seed, int64_t index,
                   int client) {
  return 1 + OrderGroup(w, seed, index) * static_cast<uint64_t>(w.clients) +
         static_cast<uint64_t>(client);
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.video = eva::vbench::MediumUaDetrac();
  if (name == "explore-high") {
    w.queries = eva::vbench::VbenchHigh(w.video.name, w.video.num_frames);
    w.orders = 3;
    w.pass_s = 5;
  } else if (name == "explore-low") {
    w.queries = eva::vbench::VbenchLow(w.video.name, w.video.num_frames);
    w.orders = 4;
    w.pass_s = 1.8;
  } else if (name == "fleet-budget") {
    w.queries = eva::vbench::VbenchHigh(w.video.name, w.video.num_frames);
    w.clients = 4;
    w.budget_fraction = 0.25;
    w.orders = 1;
    w.pass_s = 9.5;
  } else if (name == "stream-wal") {
    w.video = eva::vbench::ShortUaDetrac();
    w.queries = eva::vbench::VbenchHigh(w.video.name, w.video.num_frames);
    w.stream = true;
    w.stream_opts.initial_frames = 1500;
    w.stream_opts.total_frames = w.video.num_frames;  // 7500
    w.stream_opts.buffer_frames = w.video.num_frames;
    w.frames_per_tick = 1500;
    w.ticks = 4;
    w.checkpoint_after_tick = 2;
    w.orders = 1;
    w.pass_s = 3.3;
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  w.video.seed = SplitMix(seed ^ w.video.seed);
  return w;
}

/// Session `index`'s schedule. Fleet clients interleave round-robin: the
/// order a closed loop with one outstanding query per client produces on
/// the service's FIFO executor. A stream session replays its order at the
/// initial horizon and after every ingest tick.
std::vector<Step> Schedule(const Workload& w, uint64_t seed, int64_t index) {
  std::vector<Step> steps;
  if (w.stream) {
    const std::vector<std::string> perm =
        eva::vbench::Permute(w.queries, OrderSeed(w, seed, index, 0));
    int64_t horizon = w.stream_opts.initial_frames;
    for (int tick = 0; tick <= w.ticks; ++tick) {
      if (tick > 0) {
        steps.push_back({Step::Kind::kIngest, 0, "", horizon});
        horizon = std::min(horizon + w.frames_per_tick,
                           w.stream_opts.total_frames);
      }
      for (const std::string& sql : perm) {
        steps.push_back({Step::Kind::kQuery, 0, sql, horizon});
      }
      if (tick == w.checkpoint_after_tick) {
        steps.push_back({Step::Kind::kCheckpoint, 0, "", horizon});
      }
    }
    return steps;
  }
  std::vector<std::vector<std::string>> perms;
  for (int c = 0; c < w.clients; ++c) {
    perms.push_back(
        eva::vbench::Permute(w.queries, OrderSeed(w, seed, index, c)));
  }
  for (size_t q = 0; q < w.queries.size(); ++q) {
    for (int c = 0; c < w.clients; ++c) {
      const int64_t session = w.clients > 1 ? c + 1 : 0;
      steps.push_back({Step::Kind::kQuery, session, perms[c][q],
                       w.video.num_frames});
    }
  }
  return steps;
}

eva::engine::EngineOptions EngineOptionsFor(double budget_bytes,
                                            bool reuse = true) {
  eva::engine::EngineOptions options;
  options.num_threads = 1;
  options.storage_budget_bytes = budget_bytes;
  options.eviction_policy = "cost-benefit";
  if (!reuse) {
    options.optimizer.mode = eva::optimizer::ReuseMode::kNoReuse;
    options.optimizer.reuse_enabled = false;
  }
  return options;
}

// --- per-query and per-session records ----------------------------------------

uint64_t RowsFingerprint(const eva::Batch& batch) {
  std::vector<uint64_t> rows;
  rows.reserve(batch.num_rows());
  for (const eva::Row& row : batch.rows()) {
    uint64_t h = kFnvOffset;
    for (const eva::Value& v : row) h = FnvMix(h, v.Hash());
    rows.push_back(h);
  }
  std::sort(rows.begin(), rows.end());  // order-independent
  uint64_t h = FnvMix(kFnvOffset, rows.size());
  for (uint64_t r : rows) h = FnvMix(h, r);
  return h;
}

struct QueryRecord {
  const Step* step = nullptr;
  double sim_ms = 0;
  int64_t rows = 0;
  int64_t invocations = 0;
  int64_t reused = 0;
  uint64_t row_fp = 0;
  FifoStamp stamp;  // engine path: submit → answer
  LayerTimes layers;  // layer-driver path
  int64_t symbolic_cache_hits = 0;
  int64_t symbolic_cache_misses = 0;
  int64_t symbolic_cells_pruned = 0;

  double wall_ms() const { return stamp.complete_ms - stamp.submit_ms; }
};

QueryRecord Record(const Step& step, const eva::Batch& batch,
                   const eva::exec::QueryMetrics& m) {
  QueryRecord r;
  r.step = &step;
  r.sim_ms = m.TotalMs();
  r.rows = m.rows_out;
  r.invocations = m.TotalInvocations();
  r.reused = m.TotalReused();
  r.row_fp = RowsFingerprint(batch);
  r.symbolic_cache_hits = m.symbolic_cache_hits;
  r.symbolic_cache_misses = m.symbolic_cache_misses;
  r.symbolic_cells_pruned = m.symbolic_cells_pruned;
  return r;
}

struct SessionRun {
  std::vector<QueryRecord> queries;
  double setup_s = 0;
  double timed_ms = 0;  // first submit → last answer, ticks included
  double sim_total_ms = 0;
  double view_bytes = 0;
  int64_t view_rows = 0;
  std::vector<double> tick_ms;
  std::vector<double> checkpoint_ms;
  double recovery_ms = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  /// Per-session layer figures (trace runs), averaged over sessions.
  std::map<std::string, double> counters;

  void Fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }

  /// FNV-1a over per-query (sim ms bits, rows, invocations, reused) in
  /// schedule order: equal fingerprints mean bit-identical sessions.
  uint64_t Fingerprint() const {
    uint64_t h = kFnvOffset;
    for (const QueryRecord& q : queries) {
      h = FnvMix(h, DoubleBits(q.sim_ms));
      h = FnvMix(h, static_cast<uint64_t>(q.rows));
      h = FnvMix(h, static_cast<uint64_t>(q.invocations));
      h = FnvMix(h, static_cast<uint64_t>(q.reused));
    }
    return h;
  }
};

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- CPU choice -----------------------------------------------------------------

/// A 1 MiB ring of indices in one random cycle (Sattolo), for a pointer
/// chase that lives in a core's private cache.
std::vector<uint32_t> ChaseRing() {
  std::vector<uint32_t> ring(1 << 18);
  for (uint32_t i = 0; i < ring.size(); ++i) ring[i] = i;
  uint64_t x = 1;
  for (size_t i = ring.size() - 1; i > 0; --i) {
    x = SplitMix(x);
    std::swap(ring[i], ring[x % i]);
  }
  return ring;
}

double ChaseMs(const std::vector<uint32_t>& ring) {
  const double t0 = NowMs();
  uint32_t p = 0;
  for (int i = 0; i < (1 << 21); ++i) p = ring[p];
  const double ms = NowMs() - t0;
  return p == ring.size() ? -1 : ms;  // p keeps the loop alive
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the CPU of `allowed` that runs the chase fastest right now. On a shared
/// host other tenants' load lands on some CPUs and not others, and moves
/// between them over seconds; the quietest CPU's speed is steady. Returns
/// the CPU, or -1 when the process may not choose.
int PinToQuietestCpu(const cpu_set_t& allowed,
                     const std::vector<uint32_t>& ring) {
  int best = -1;
  double best_ms = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    const double ms = ChaseMs(ring);
    if (best < 0 || ms < best_ms) {
      best = cpu;
      best_ms = ms;
    }
  }
  cpu_set_t pick = allowed;
  if (best >= 0) {
    CPU_ZERO(&pick);
    CPU_SET(best, &pick);
  }
  sched_setaffinity(0, sizeof(pick), &pick);
  return best;
}

/// Sum of every series of one counter family in `registry`.
double CounterTotal(const eva::obs::MetricsRegistry& registry,
                    const std::string& family) {
  double total = 0;
  const std::string text = registry.RenderPrometheus();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    if (line.compare(0, name_end, family) != 0 ||
        name_end != family.size()) {
      continue;
    }
    total += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return total;
}

void StoreTotals(const eva::storage::ViewStore& views, SessionRun* run) {
  run->view_bytes = views.TotalSizeBytes();
  run->view_rows = 0;
  for (const auto& [name, view] : views.views()) {
    run->view_rows += view->num_rows();
  }
}

// --- oracle -------------------------------------------------------------------

/// Output-row fingerprints of a cold no-reuse engine, per (horizon, SQL).
using Oracle = std::map<std::pair<int64_t, std::string>, uint64_t>;

Status RegisterSource(eva::engine::EvaEngine* engine, const Workload& w) {
  EVA_RETURN_IF_ERROR(eva::vbench::RegisterStandardUdfs(engine));
  if (w.stream) return engine->RegisterStream(w.video, w.stream_opts);
  return engine->CreateVideo(w.video);
}

Result<Oracle> BuildOracle(const Workload& w, const std::vector<Step>& steps) {
  auto engine = std::make_unique<eva::engine::EvaEngine>(
      EngineOptionsFor(0, /*reuse=*/false),
      std::make_shared<eva::catalog::Catalog>());
  EVA_RETURN_IF_ERROR(RegisterSource(engine.get(), w));
  Oracle oracle;
  for (const Step& step : steps) {
    if (step.kind == Step::Kind::kIngest) {
      EVA_RETURN_IF_ERROR(
          engine->IngestFrames(w.video.name, w.frames_per_tick).status());
    }
    if (step.kind != Step::Kind::kQuery) continue;
    const auto key = std::make_pair(step.horizon, step.sql);
    if (oracle.count(key) > 0) continue;
    EVA_ASSIGN_OR_RETURN(eva::engine::QueryResult r, engine->Execute(step.sql));
    oracle[key] = RowsFingerprint(r.batch);
  }
  return oracle;
}

void CheckAgainstOracle(const Oracle& oracle, SessionRun* run) {
  for (const QueryRecord& q : run->queries) {
    auto it = oracle.find({q.step->horizon, q.step->sql});
    if (it == oracle.end() || it->second != q.row_fp) {
      run->Fail("rows differ from the no-reuse engine at horizon " +
                std::to_string(q.step->horizon) + ": " + q.step->sql);
    }
  }
}

// --- engine path ------------------------------------------------------------------

struct EngineSessionOptions {
  double budget_bytes = 0;
  std::string wal_dir;  // stream workloads
  /// Trace runs: engine counters go to this registry instead of the
  /// process-wide one, and resident growth is measured.
  eva::obs::MetricsRegistry* registry = nullptr;
};

/// One closed-loop session through the public API. Fleet workloads run
/// their clients as EvaService sessions with one query outstanding each.
SessionRun RunEngineSession(const Workload& w, const std::vector<Step>& steps,
                            const EngineSessionOptions& opts) {
  SessionRun run;
  const double setup0 = NowMs();
  auto engine = std::make_unique<eva::engine::EvaEngine>(
      EngineOptionsFor(opts.budget_bytes),
      std::make_shared<eva::catalog::Catalog>());
  if (opts.registry != nullptr) engine->set_metrics_registry(opts.registry);
  Status status = RegisterSource(engine.get(), w);
  if (status.ok() && w.stream) status = engine->EnableWal(opts.wal_dir);
  std::unique_ptr<eva::service::EvaService> service;
  if (status.ok() && w.clients > 1) {
    service = std::make_unique<eva::service::EvaService>(std::move(engine));
    for (int c = 0; c < w.clients; ++c) service->CreateSession();
  }
  run.setup_s = (NowMs() - setup0) / 1000.0;
  if (!status.ok()) {
    run.Fail("setup: " + status.ToString());
    return run;
  }
  eva::engine::EvaEngine* eng = service ? service->engine() : engine.get();
  double rss0 = 0;
  if (opts.registry != nullptr) {
    malloc_trim(0);
    rss0 = CurrentRssMb();
  }

  const double first = NowMs();
  if (service) {
    // Closed loop from one driver thread: each client keeps one query
    // outstanding; futures are awaited in submission order, which the FIFO
    // executor makes completion order too.
    std::vector<std::deque<const Step*>> pending(w.clients);
    for (const Step& s : steps) pending[s.session_id - 1].push_back(&s);
    struct InFlight {
      const Step* step;
      double submit_ms;
      std::future<Result<eva::engine::QueryResult>> future;
    };
    std::deque<InFlight> in_flight;
    auto submit = [&](int client) {
      if (pending[client].empty()) return;
      const Step* s = pending[client].front();
      pending[client].pop_front();
      const double t = NowMs();
      in_flight.push_back({s, t, service->Submit(s->session_id, s->sql)});
    };
    for (int c = 0; c < w.clients; ++c) submit(c);
    size_t next = 0;
    while (!in_flight.empty()) {
      InFlight f = std::move(in_flight.front());
      in_flight.pop_front();
      Result<eva::engine::QueryResult> r = f.future.get();
      const double done = NowMs();
      submit(static_cast<int>(f.step->session_id - 1));
      if (f.step != &steps[next++]) run.Fail("FIFO order broken");
      if (!r.ok()) {
        run.Fail(r.status().ToString());
        continue;
      }
      QueryRecord rec = Record(*f.step, r.value().batch, r.value().metrics);
      rec.stamp = {f.submit_ms, done};
      run.queries.push_back(std::move(rec));
    }
    service->Drain();
    // The store is only quiescent between rounds here; the layer driver
    // checks the budget after every query of the same schedule.
    if (opts.budget_bytes > 0 &&
        eng->views().TotalSizeBytes() > opts.budget_bytes * (1 + 1e-9)) {
      run.Fail("store exceeds the budget at the end of the round");
    }
  } else {
    for (const Step& s : steps) {
      const double t0 = NowMs();
      if (s.kind == Step::Kind::kIngest) {
        Status st = eng->IngestFrames(w.video.name, w.frames_per_tick).status();
        run.tick_ms.push_back(NowMs() - t0);
        if (!st.ok()) run.Fail("ingest: " + st.ToString());
        continue;
      }
      if (s.kind == Step::Kind::kCheckpoint) {
        Status st = eng->Checkpoint();
        run.checkpoint_ms.push_back(NowMs() - t0);
        if (!st.ok()) run.Fail("checkpoint: " + st.ToString());
        continue;
      }
      Result<eva::engine::QueryResult> r = eng->Execute(s.sql, s.session_id);
      const double done = NowMs();
      if (!r.ok()) {
        run.Fail(r.status().ToString());
        continue;
      }
      QueryRecord rec = Record(s, r.value().batch, r.value().metrics);
      rec.stamp = {t0, done};
      run.queries.push_back(std::move(rec));
    }
  }
  run.timed_ms = NowMs() - first;
  run.sim_total_ms = eng->clock().TotalMs();
  StoreTotals(eng->views(), &run);
  if (opts.registry != nullptr) {
    run.counters["storage.rss_growth_mb"] = CurrentRssMb() - rss0;
    run.counters["wal.records"] =
        CounterTotal(*opts.registry, "eva_wal_records_total");
    run.counters["wal.bytes"] =
        CounterTotal(*opts.registry, "eva_wal_bytes_total");
  }
  service.reset();
  engine.reset();

  if (w.stream && !run.queries.empty()) {
    // Recovery: a fresh engine replays the final log and must answer the
    // session's last query with identical rows.
    auto fresh = std::make_unique<eva::engine::EvaEngine>(
        EngineOptionsFor(opts.budget_bytes),
        std::make_shared<eva::catalog::Catalog>());
    Status st = RegisterSource(fresh.get(), w);
    const double t0 = NowMs();
    if (st.ok()) st = fresh->EnableWal(opts.wal_dir);
    run.recovery_ms = NowMs() - t0;
    const QueryRecord& last = run.queries.back();
    if (st.ok()) {
      Result<eva::engine::QueryResult> r = fresh->Execute(last.step->sql);
      st = r.status();
      if (r.ok() && RowsFingerprint(r.value().batch) != last.row_fp) {
        run.Fail("recovered engine answers the last query differently");
      }
    }
    if (!st.ok()) run.Fail("recovery: " + st.ToString());
  }
  return run;
}

// --- layer-driver path ----------------------------------------------------------

SessionRun RunDriverSession(const Workload& w, const std::vector<Step>& steps,
                            double budget_bytes) {
  SessionRun run;
  const eva::engine::EngineOptions options = EngineOptionsFor(budget_bytes);
  auto catalog = std::make_shared<eva::catalog::Catalog>();
  {
    // UDF registration is EVA-QL; a throwaway engine writes the catalog.
    eva::engine::EngineOptions quiet = options;
    quiet.observability = false;
    eva::engine::EvaEngine registrar(quiet, catalog);
    Status st = eva::vbench::RegisterStandardUdfs(&registrar);
    if (!st.ok()) {
      run.Fail("setup: " + st.ToString());
      return run;
    }
  }
  LayerDriver driver(options, catalog);
  Status st = w.stream ? driver.AddStream(w.video, w.stream_opts)
                       : driver.AddVideo(w.video);
  if (!st.ok()) {
    run.Fail("setup: " + st.ToString());
    return run;
  }
  const double first = NowMs();
  for (const Step& s : steps) {
    if (s.kind == Step::Kind::kIngest) {
      st = driver.Ingest(w.video.name, w.frames_per_tick);
      if (!st.ok()) run.Fail("ingest: " + st.ToString());
      continue;
    }
    if (s.kind == Step::Kind::kCheckpoint) continue;  // no reuse-state change
    Result<DriverQuery> r = driver.Run(s.sql, s.session_id);
    if (!r.ok()) {
      run.Fail(r.status().ToString());
      continue;
    }
    QueryRecord rec = Record(s, r.value().batch, r.value().metrics);
    rec.layers = r.value().layers;
    run.queries.push_back(std::move(rec));
    if (budget_bytes > 0 &&
        driver.views().TotalSizeBytes() > budget_bytes * (1 + 1e-9)) {
      run.Fail("store exceeds the budget after: " + s.sql);
    }
  }
  run.timed_ms = NowMs() - first;
  run.sim_total_ms = driver.clock().TotalMs();
  StoreTotals(driver.views(), &run);

  auto& c = run.counters;
  double symbolic_ms = 0, pruned = 0;
  int64_t invocations = 0, reused = 0;
  for (const QueryRecord& q : run.queries) {
    symbolic_ms += q.layers.symbolic_ms;
    pruned += static_cast<double>(q.symbolic_cells_pruned);
    invocations += q.invocations;
    reused += q.reused;
  }
  double cells = 0;
  for (const auto& [key, entry] : driver.manager().entries()) {
    cells += driver.manager().CoverageAtomCount(key);
  }
  c["symbolic.wall_ms"] = symbolic_ms;
  c["symbolic.coverage_cells"] = cells;
  c["symbolic.cells_pruned"] = pruned;
  c["exec.udf_invocations"] = static_cast<double>(invocations);
  c["exec.udf_reused"] = static_cast<double>(reused);
  const eva::SimClock& clock = driver.clock();
  c["exec.sim_ms.udf"] = clock.Elapsed(eva::CostCategory::kUdf);
  c["exec.sim_ms.read_video"] = clock.Elapsed(eva::CostCategory::kReadVideo);
  c["exec.sim_ms.read_view"] = clock.Elapsed(eva::CostCategory::kReadView);
  c["exec.sim_ms.materialize"] =
      clock.Elapsed(eva::CostCategory::kMaterialize);
  c["exec.sim_ms.optimize"] = clock.Elapsed(eva::CostCategory::kOptimize);
  c["exec.sim_ms.ingest"] = clock.Elapsed(eva::CostCategory::kIngest);
  const eva::obs::MetricsRegistry& reg = driver.registry();
  c["storage.probe_hits"] = CounterTotal(reg, "eva_view_probe_hits_total");
  c["storage.probe_misses"] = CounterTotal(reg, "eva_view_probe_misses_total");
  c["storage.bloom_negatives"] = CounterTotal(reg, "eva_bloom_negatives_total");
  c["storage.segments_skipped"] =
      CounterTotal(reg, "eva_segments_skipped_total");
  const eva::storage::SealTotals& seals = driver.views().seal_totals();
  c["storage.segments_sealed"] =
      static_cast<double>(seals.segments_sealed.load());
  c["storage.seal_raw_bytes"] = static_cast<double>(seals.raw_bytes.load());
  c["storage.seal_encoded_bytes"] =
      static_cast<double>(seals.encoded_bytes.load());
  c["storage.charged_bytes"] = run.view_bytes;
  c["storage.view_rows"] = static_cast<double>(run.view_rows);
  c["lifecycle.evictions"] =
      static_cast<double>(driver.lifecycle().evictions());
  c["lifecycle.evicted_bytes"] = driver.lifecycle().evicted_bytes();
  c["lifecycle.admissions_denied"] =
      static_cast<double>(driver.lifecycle().admissions_denied());
  return run;
}

/// The driver must reproduce the engine bit for bit, or it measures a
/// different program.
void CheckFaithful(const SessionRun& engine, SessionRun* driver) {
  bool same = engine.queries.size() == driver->queries.size() &&
              DoubleBits(engine.sim_total_ms) ==
                  DoubleBits(driver->sim_total_ms);
  for (size_t i = 0; same && i < engine.queries.size(); ++i) {
    const QueryRecord& a = engine.queries[i];
    const QueryRecord& b = driver->queries[i];
    same = a.step == b.step && DoubleBits(a.sim_ms) == DoubleBits(b.sim_ms) &&
           a.rows == b.rows && a.invocations == b.invocations &&
           a.reused == b.reused && a.row_fp == b.row_fp;
  }
  if (!same) driver->Fail("layer driver diverged from the engine");
}

// --- reporting ----------------------------------------------------------------------

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double SessionMean(const std::vector<SessionRun>& runs,
                   const std::string& counter) {
  std::vector<double> v;
  for (const SessionRun& r : runs) {
    auto it = r.counters.find(counter);
    v.push_back(it == r.counters.end() ? 0 : it->second);
  }
  return Mean(v);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir;
};

void PrintMetric(const MetricValue& m) {
  std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::vector<MetricValue> Ordered(const std::vector<MetricDef>& defs,
                                 const std::map<std::string, double>& values) {
  std::vector<MetricValue> out;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    out.push_back({d.name, d.unit, it == values.end() ? 0 : it->second});
  }
  return out;
}

int Run(const Args& args) {
  Result<Workload> wl = MakeWorkload(args.workload, args.seed);
  if (!wl.ok()) {
    std::fprintf(stderr, "%s\n", wl.status().ToString().c_str());
    return 2;
  }
  const Workload& w = wl.value();
  const bool trace = args.trace != 0;
  std::printf("workload %s seed %llu trace %d: %zu queries/client, %d "
              "client(s), engine threads 1, closed loop\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace, w.queries.size(), w.clients);

  // Untimed preparation: the answer oracle, and for budgeted workloads the
  // unbounded footprint of the query set the budget is a share of.
  const double prep0 = NowMs();
  Result<Oracle> oracle = BuildOracle(w, Schedule(w, args.seed, 0));
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle: %s\n", oracle.status().ToString().c_str());
    return 2;
  }
  double budget = 0;
  if (w.budget_fraction > 0) {
    // The query set in its canonical order, so the budget depends on the
    // video alone.
    Workload single = w;
    single.clients = 1;
    std::vector<Step> canonical;
    for (const std::string& sql : w.queries) {
      canonical.push_back({Step::Kind::kQuery, 0, sql, w.video.num_frames});
    }
    SessionRun unbounded = RunEngineSession(single, canonical, {});
    if (unbounded.failed > 0) {
      std::fprintf(stderr, "calibration: %s\n",
                   unbounded.errors.front().c_str());
      return 2;
    }
    budget = w.budget_fraction * unbounded.view_bytes;
    std::printf("budget %.0f B = %.0f%% of the unbounded footprint %.0f B\n",
                budget, 100 * w.budget_fraction, unbounded.view_bytes);
  }
  std::printf("preparation (oracle%s) %.2f s, untimed\n",
              budget > 0 ? " + budget calibration" : "",
              (NowMs() - prep0) / 1000.0);

  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) CPU_ZERO(&allowed);
  const std::vector<uint32_t> ring = ChaseRing();
  std::map<int, int> pinned;  // CPU -> sessions

  std::vector<std::vector<Step>> schedules;
  std::vector<SessionRun> engine_runs, driver_runs;
  const double loop0 = NowMs();
  const double cap_ms = 120000;  // stay well inside the 180 s run limit
  // End-to-end runs make a fixed number of whole passes; traced runs replay
  // sessions until --seconds have passed.
  const int64_t planned = trace ? 0 : w.Passes(args.seconds) * w.orders;
  for (int64_t i = 0;; ++i) {
    const double elapsed = NowMs() - loop0;
    if (!trace && i == planned) break;
    if (trace && i > 0 && elapsed >= args.seconds * 1000) break;
    if (i > 0 && i % w.orders == 0 && elapsed >= cap_ms) break;
    schedules.push_back(Schedule(w, args.seed, i));
    const std::vector<Step>& steps = schedules.back();
    EngineSessionOptions eopts;
    eopts.budget_bytes = budget;
    eopts.wal_dir = args.work_dir + "/wal-" + std::to_string(i);
    eva::obs::MetricsRegistry registry;
    if (trace) eopts.registry = &registry;
    const int dbg_cpu = PinToQuietestCpu(allowed, ring);
    ++pinned[dbg_cpu];
    const double dbg_before = ChaseMs(ring);
    engine_runs.push_back(RunEngineSession(w, steps, eopts));
    std::fprintf(stderr, "DBG t=%.1f s%lld %.1f ms cpu%d chase %.1f -> %.1f\n", (NowMs() - loop0) / 1000, (long long)i, engine_runs.back().timed_ms, dbg_cpu, dbg_before, ChaseMs(ring));
    stdfs::remove_all(eopts.wal_dir);
    CheckAgainstOracle(oracle.value(), &engine_runs.back());
    if (trace) {
      driver_runs.push_back(RunDriverSession(w, steps, budget));
      CheckFaithful(engine_runs.back(), &driver_runs.back());
    }
  }

  // Determinism: sessions that replay the same pool group must agree bit
  // for bit. Traced runs check the stronger per-query faithfulness.
  for (size_t i = w.orders; i < engine_runs.size(); ++i) {
    const SessionRun& first = engine_runs[i % w.orders];
    if (engine_runs[i].Fingerprint() != first.Fingerprint()) {
      engine_runs[i].Fail("session " + std::to_string(i) +
                          " is not bit-identical to session " +
                          std::to_string(i % w.orders));
    }
  }
  if (!engine_runs.empty()) {
    std::printf("determinism fingerprint of session 0: %016llx\n",
                static_cast<unsigned long long>(engine_runs[0].Fingerprint()));
  }

  int64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (const auto* runs : {&engine_runs, &driver_runs}) {
    for (const SessionRun& r : *runs) {
      failed += r.failed;
      errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    }
  }
  for (const std::vector<Step>& steps : schedules) {
    for (const Step& s : steps) attempted += s.kind == Step::Kind::kQuery;
  }
  if (trace) attempted *= 2;
  failed = std::min(failed, attempted);
  for (size_t i = 0; i < errors.size() && i < 10; ++i) {
    std::printf("ERROR %s\n", errors[i].c_str());
  }

  std::vector<double> setups;
  double timed_ms = 0;
  int64_t queries = 0;
  for (const SessionRun& r : engine_runs) {
    setups.push_back(r.setup_s);
    timed_ms += r.timed_ms;
    queries += static_cast<int64_t>(r.queries.size());
  }
  std::printf("%zu session(s), %lld queries, %.2f s timed; sessions per "
              "CPU:",
              engine_runs.size(), static_cast<long long>(queries),
              timed_ms / 1000.0);
  for (const auto& [cpu, n] : pinned) std::printf(" cpu%d=%d", cpu, n);
  std::printf("\n");

  std::map<std::string, double> values;
  std::vector<MetricValue> metrics;
  if (!trace) {
    // Host timings are bests over the passes: for every query of the pool
    // its fastest replay, for every session its fastest replay. A replay
    // repeats the same work bit for bit (the determinism check), so the
    // best drops the time other tenants of the host took from it.
    // Simulated figures cover the first pass, so they are a function of
    // the seed, not of host speed.
    const size_t k = std::min<size_t>(engine_runs.size(), w.orders);
    std::vector<std::vector<double>> best_wall(k);
    std::vector<double> best_session(k, 0);
    for (size_t i = 0; i < engine_runs.size(); ++i) {
      const SessionRun& r = engine_runs[i];
      std::vector<double>& best = best_wall[i % k];
      if (i < k) best.assign(r.queries.size(), 0);
      for (size_t q = 0; q < r.queries.size() && q < best.size(); ++q) {
        const double wall = r.queries[q].wall_ms();
        best[q] = i < k ? wall : std::min(best[q], wall);
      }
      best_session[i % k] =
          i < k ? r.timed_ms : std::min(best_session[i % k], r.timed_ms);
    }
    std::vector<double> walls;
    double pass_ms = 0;
    int64_t pass_queries = 0;
    for (size_t g = 0; g < k; ++g) {
      walls.insert(walls.end(), best_wall[g].begin(), best_wall[g].end());
      pass_ms += best_session[g];
      pass_queries += static_cast<int64_t>(best_wall[g].size());
    }
    std::vector<double> sims, bytes_per_row;
    int64_t invocations = 0, reused = 0;
    for (size_t i = 0; i < k; ++i) {
      const SessionRun& r = engine_runs[i];
      sims.push_back(r.sim_total_ms);
      if (r.view_rows > 0) {
        bytes_per_row.push_back(r.view_bytes /
                                static_cast<double>(r.view_rows));
      }
      for (const QueryRecord& q : r.queries) {
        invocations += q.invocations;
        reused += q.reused;
      }
    }
    values["query_wall_ms.p50"] = Percentile(walls, 50);
    values["query_wall_ms.p90"] = Percentile(walls, 90);
    values["throughput_qps"] =
        pass_ms > 0 ? static_cast<double>(pass_queries) / (pass_ms / 1000)
                    : 0;
    values["sim_hours"] = Mean(sims) / 3.6e6;
    values["hit_pct"] =
        invocations > 0 ? 100.0 * static_cast<double>(reused) /
                              static_cast<double>(invocations)
                        : 0;
    values["setup_s"] = Median(setups);
    values["peak_rss_mb"] = PeakRssMb();
    values["view_bytes_per_row"] = Mean(bytes_per_row);
    metrics = Ordered(EndToEndMetrics(), values);
    std::printf("end-to-end (query wall over n=%zu queries, each the best of "
                "%zu replays; highest percentile with >=10 samples beyond "
                "it: p%d; simulated figures over %zu session(s)):\n",
                walls.size(), k > 0 ? engine_runs.size() / k : 0,
                HighestPercentileWithTail(walls.size(), 10), k);
    // Not in the result line: error_rate is 0 on a correct build (the line
    // carries failed/attempted), recovery exists on stream-wal only.
    std::vector<double> recoveries;
    for (const SessionRun& r : engine_runs) {
      recoveries.push_back(r.recovery_ms / 1000.0);
    }
    std::printf("  %-30s %16.6f\n", "error_rate",
                attempted == 0 ? 0.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted));
    std::printf("  %-30s %16.6f s\n", "recovery_s", Median(recoveries));
  } else {
    std::vector<double> parse, optimize, execute, life, gap, service, wait;
    std::vector<double> ticks, checkpoints, recoveries;
    double traced_ms = 0, engine_ms = 0;
    int64_t hits = 0, misses = 0;
    for (size_t s = 0; s < engine_runs.size(); ++s) {
      const SessionRun& e = engine_runs[s];
      const SessionRun& d = driver_runs[s];
      // The layer sum compares with service time, not response time: on
      // fleet-budget the response includes the wait behind other clients.
      std::vector<FifoStamp> stamps;
      for (const QueryRecord& q : e.queries) stamps.push_back(q.stamp);
      const std::vector<FifoSplit> splits = SplitFifo(stamps);
      for (size_t i = 0; i < d.queries.size(); ++i) {
        const QueryRecord& q = d.queries[i];
        parse.push_back(q.layers.parse_us);
        optimize.push_back(q.layers.optimize_ms);
        execute.push_back(q.layers.execute_ms);
        life.push_back(q.layers.lifecycle_ms);
        hits += q.symbolic_cache_hits;
        misses += q.symbolic_cache_misses;
        traced_ms += q.layers.SumMs();
        if (i < splits.size()) {
          wait.push_back(splits[i].queue_wait_ms);
          service.push_back(splits[i].service_ms);
          engine_ms += splits[i].service_ms;
          gap.push_back(splits[i].service_ms - q.layers.SumMs());
        }
      }
      ticks.insert(ticks.end(), e.tick_ms.begin(), e.tick_ms.end());
      checkpoints.insert(checkpoints.end(), e.checkpoint_ms.begin(),
                         e.checkpoint_ms.end());
      if (w.stream) recoveries.push_back(e.recovery_ms);
    }
    for (const MetricDef& def : PerLayerMetrics()) {
      values[def.name] = SessionMean(driver_runs, def.name);
    }
    values["parser.parse_us.p50"] = Percentile(parse, 50);
    values["optimizer.optimize_ms.p50"] = Percentile(optimize, 50);
    values["symbolic.cache_hit_ratio"] =
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0;
    values["exec.execute_ms.p50"] = Percentile(execute, 50);
    values["storage.rss_growth_mb"] =
        SessionMean(engine_runs, "storage.rss_growth_mb");
    values["lifecycle.lifecycle_ms.p50"] = Percentile(life, 50);
    values["service.service_ms.p50"] = Percentile(service, 50);
    const double wal_bytes = SessionMean(engine_runs, "wal.bytes");
    values["wal.records"] = SessionMean(engine_runs, "wal.records");
    values["wal.bytes_per_query"] =
        queries > 0 ? wal_bytes * static_cast<double>(engine_runs.size()) /
                          static_cast<double>(queries)
                    : 0;
    values["engine.gap_ms.p50"] = Percentile(gap, 50);
    metrics = Ordered(PerLayerMetrics(), values);
    std::printf("per-layer, from the layer driver (%zu queries):\n",
                parse.size());
    // Figures that exist on one workload only; printed, not gated.
    std::printf("  %-30s %16.6f ms\n", "service.queue_wait_ms.p50",
                Percentile(wait, 50));
    std::printf("  %-30s %16.6f ms\n", "ingest.tick_ms.p50",
                Percentile(ticks, 50));
    std::printf("  %-30s %16.6f ms\n", "wal.checkpoint_ms",
                Median(checkpoints));
    std::printf("  %-30s %16.6f s\n", "recovery_s",
                Median(recoveries) / 1000.0);
    std::printf("  %-30s %16.6f %%  (traced layer sum %.1f ms vs engine "
                "service time %.1f ms)\n",
                "tracing overhead",
                engine_ms > 0 ? 100.0 * (traced_ms - engine_ms) / engine_ms
                              : 0.0,
                traced_ms, engine_ms);
  }
  for (const MetricValue& m : metrics) PrintMetric(m);

  bool finite = true;
  for (const MetricValue& m : metrics) finite = finite && std::isfinite(m.value);
  const bool correct = failed == 0 && finite;
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void ListMetrics() {
  auto list = [](const std::vector<MetricDef>& defs) {
    std::string out = "[";
    for (size_t i = 0; i < defs.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::string("{\"name\": \"") + defs[i].name +
             "\", \"unit\": \"" + defs[i].unit + "\", \"better\": \"" +
             defs[i].better + "\"}";
    }
    return out + "]";
  };
  std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
              list(EndToEndMetrics()).c_str(),
              list(PerLayerMetrics()).c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      perfbench::ListMetrics();
      return 0;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR | --list-metrics\n");
    return 2;
  }
  return perfbench::Run(args);
}
