// Symbolic fast-path benchmark (docs/SYMBOLIC.md): the interval-indexed
// coverage AND + epoch-tagged remainder cache vs the brute-force predicate
// algebra, on the high-atom coverage shape a long-lived deployment
// actually reaches — a streaming session extends the frame-id horizon tick
// by tick, then budget evictions punch hundreds of holes into the
// coverage, leaving 500+ cells. A 4-session fleet then replays permuted
// overlapping remainder lookups against that coverage.
//
// Two claims are checked:
//   1. Bit-identity — every Inter/Diff remainder, every coverage atom,
//      every per-query simulated total is FNV-fingerprinted and must match
//      fastpath on vs off, directly and through the service. The fast path
//      is an optimization, never an approximation.
//   2. Speedup — on the fleet lookup phase the fast path must cut the
//      manager's symbolic wall time by >= 5x.
//
// Output: a table on stdout and a JSON dump to argv[1] (default
// "BENCH_symbolic.json"). --quick emits the one-line gate JSON for
// bench/check_regression.py (sim totals are deterministic; wall speedup is
// reported as an informational metric).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/eva_service.h"
#include "symbolic/predicate_intern.h"
#include "udf/udf_manager.h"

using namespace eva;  // NOLINT

namespace {

constexpr int kSessions = 4;
const char* kKey = "FasterRCNNResNet50@short_ua_detrac";

symbolic::Predicate IdRange(double lo, double hi) {
  symbolic::Conjunct c;
  c.Constrain("id", symbolic::DimConstraint::Numeric(
                        symbolic::DimKind::kInteger,
                        symbolic::Interval::AtLeast(lo)));
  c.Constrain("id", symbolic::DimConstraint::Numeric(
                        symbolic::DimKind::kInteger,
                        symbolic::Interval::LessThan(hi)));
  return symbolic::Predicate::FromConjunct(std::move(c));
}

struct FnvFold {
  uint64_t fp = symbolic::kFnvOffsetBasis;
  void Mix(uint64_t v) { fp = symbolic::FnvMix64(fp, v); }
  void MixDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  void MixString(const std::string& s) {
    fp = symbolic::FnvMixBytes(fp, s.data(), s.size());
  }
};

// ---- manager-level fleet phase ------------------------------------------

struct ManagerRun {
  size_t coverage_cells = 0;
  double build_wall_us = 0;   // streaming ticks + evictions
  double lookup_wall_us = 0;  // the fleet Inter/Diff phase
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cells_pruned = 0;
  uint64_t fingerprint = 0;
};

/// Streaming ticks extend the horizon [0, t) in place; forced evictions
/// then punch `holes` two-frame holes, splitting the horizon atom into
/// holes+1 cells — the high-atom shape. (Single-frame holes reduce to
/// excluded points on the integer dimension and never split.)
void BuildHighAtomCoverage(udf::UdfManager* m, int ticks,
                           int64_t frames_per_tick, int holes) {
  int64_t horizon = 0;
  for (int t = 0; t < ticks; ++t) {
    m->UpdateCoverage(kKey, IdRange(static_cast<double>(horizon),
                                    static_cast<double>(horizon +
                                                        frames_per_tick)));
    horizon += frames_per_tick;
  }
  // Deterministic scattered evictions across the horizon.
  int64_t stride = horizon / (holes + 1);
  if (stride < 2) stride = 2;
  for (int i = 0; i < holes; ++i) {
    double at = static_cast<double>(1 + static_cast<int64_t>(i) * stride);
    m->RetractCoverage(kKey, IdRange(at, at + 2));
  }
}

/// kSessions sessions x `rounds` rounds replay session-permuted rotations
/// of the same overlapping query set against the shared manager — the
/// service's single-executor sharing, minus the engine around it. A no-op
/// horizon re-claim between rounds proves epoch stability keeps the cache
/// warm across sessions.
ManagerRun RunManagerFleet(bool fastpath, int ticks, int64_t frames_per_tick,
                           int holes, int rounds, int queries_per_session) {
  udf::UdfManager m;
  m.set_symbolic_fastpath(fastpath);

  double wall0 = m.symbolic_wall_us();
  BuildHighAtomCoverage(&m, ticks, frames_per_tick, holes);
  ManagerRun run;
  run.coverage_cells = m.Coverage(kKey).conjuncts().size();
  run.build_wall_us = m.symbolic_wall_us() - wall0;

  const int64_t horizon = static_cast<int64_t>(ticks) * frames_per_tick;
  const int64_t width = horizon / 8;
  FnvFold fold;
  double lookup0 = m.symbolic_wall_us();
  for (int r = 0; r < rounds; ++r) {
    for (int s = 0; s < kSessions; ++s) {
      for (int q = 0; q < queries_per_session; ++q) {
        // Same canonical query set, rotated per (session, round): the
        // overlap is what the shared cache amortizes.
        int64_t slot = (q + s * 3 + r) % queries_per_session;
        double lo = static_cast<double>((slot * 5 * width / 4) %
                                        (horizon - width));
        symbolic::Predicate query =
            IdRange(lo, lo + static_cast<double>(width));
        auto inter = m.InterCoverage(kKey, query);
        auto diff = m.DiffCoverage(kKey, query);
        for (const auto* res : {&inter, &diff}) {
          if (res->ok()) {
            fold.Mix(symbolic::FingerprintPredicate(res->value()));
          } else {
            fold.MixString(res->status().ToString());
          }
        }
      }
    }
    // A fleet session re-claiming covered ground (a subrange of the first
    // surviving cell, between the first two holes): must not invalidate.
    m.UpdateCoverage(kKey, IdRange(4, 6));
  }
  run.lookup_wall_us = m.symbolic_wall_us() - lookup0;
  fold.Mix(symbolic::FingerprintPredicate(m.Coverage(kKey)));
  fold.Mix(static_cast<uint64_t>(run.coverage_cells));
  run.fingerprint = fold.fp;
  run.cache_hits = m.symbolic_cache_stats().hits;
  run.cache_misses = m.symbolic_cache_stats().misses;
  run.cells_pruned = m.symbolic_cells_pruned_total();
  return run;
}

// ---- end-to-end service fleet -------------------------------------------

struct FleetRun {
  double sim_total_ms = 0;
  int64_t invocations = 0;
  int64_t reused = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cells_pruned = 0;
  double symbolic_wall_us = 0;
  uint64_t fingerprint = 0;  // sim totals + rows + remainder atoms + coverage
};

/// 4 service sessions replay overlapping CarType queries; a budget squeeze
/// mid-run forces real evictions (coverage retraction + epoch bumps). The
/// fingerprint folds every result-bearing number: per-query simulated
/// totals, rows, invocation/reuse counts, the optimizer's remainder atom
/// counts and sel_diff bits, and the final coverage predicates.
FleetRun RunServiceFleet(bool fastpath, int rounds, int64_t num_frames) {
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.optimizer.symbolic_fastpath = fastpath;
  options.observability = false;
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  video.num_frames = num_frames;
  auto engine =
      bench::Unwrap(vbench::MakeEngine(options, video), "fleet engine");
  service::EvaService svc(std::move(engine));
  std::vector<std::shared_ptr<service::EvaSession>> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(svc.CreateSession("user-" + std::to_string(s)));
  }

  FleetRun run;
  FnvFold fold;
  const int64_t width = num_frames / 3;
  for (int r = 0; r < rounds; ++r) {
    for (int s = 0; s < kSessions; ++s) {
      int64_t lo = ((s * 2 + r) % 4) * (num_frames - width) / 4;
      std::string sql =
          "SELECT id, obj FROM short_ua_detrac CROSS APPLY "
          "FasterRCNNResNet50(frame) WHERE id >= " + std::to_string(lo) +
          " AND id < " + std::to_string(lo + width) +
          " AND label = 'car' AND CarType(frame, bbox) = 'Nissan';";
      auto result = svc.Execute(sessions[static_cast<size_t>(s)]->id(), sql);
      bench::CheckOk(result.status(), sql.c_str());
      const auto& m = result.value().metrics;
      run.sim_total_ms += m.TotalMs();
      run.invocations += m.TotalInvocations();
      run.reused += m.TotalReused();
      run.cache_hits += m.symbolic_cache_hits;
      run.cache_misses += m.symbolic_cache_misses;
      run.cells_pruned += m.symbolic_cells_pruned;
      fold.MixDouble(m.TotalMs());
      fold.Mix(static_cast<uint64_t>(m.rows_out));
      fold.Mix(static_cast<uint64_t>(m.TotalInvocations()));
      fold.Mix(static_cast<uint64_t>(m.TotalReused()));
      for (const auto& up : result.value().report.udf_predicates) {
        fold.MixString(up.udf);
        fold.MixDouble(up.sel_diff_fraction);
        fold.Mix(static_cast<uint64_t>(up.inter_atoms));
        fold.Mix(static_cast<uint64_t>(up.diff_atoms));
        fold.Mix(static_cast<uint64_t>(up.union_atoms));
      }
    }
    if (r == 0) {
      // Budget squeeze: evict half the sealed footprint, then lift the
      // cap. Coverage retraction + epoch invalidation, mid-fleet.
      auto* engine_ptr = svc.engine();
      engine_ptr->views().SealAllSegments();
      engine_ptr->lifecycle()->set_budget_bytes(
          engine_ptr->views().TotalSizeBytes() * 0.5);
      (void)engine_ptr->lifecycle()->EnforceBudget(
          engine_ptr->queries_executed());
      engine_ptr->lifecycle()->set_budget_bytes(0);
    }
  }
  const auto& manager = svc.engine()->udf_manager();
  for (const auto& [key, entry] : manager.entries()) {
    fold.MixString(key);
    fold.Mix(symbolic::FingerprintPredicate(entry.coverage));
  }
  run.symbolic_wall_us = manager.symbolic_wall_us();
  run.fingerprint = fold.fp;
  return run;
}

std::string HexFp(uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

// ---- quick gate ----------------------------------------------------------

int RunQuick() {
  bench::QuickProfileDump profile;
  // Reduced shape: still hole-punched coverage + cross-session overlap.
  constexpr int kQuickOps = 2 * kSessions * 6;
  ManagerRun on = RunManagerFleet(true, 10, 100, 80, 2, 6);
  ManagerRun off = RunManagerFleet(false, 10, 100, 80, 2, 6);
  FleetRun fleet_on = RunServiceFleet(true, 2, 900);
  FleetRun fleet_off = RunServiceFleet(false, 2, 900);
  bool identical = on.fingerprint == off.fingerprint &&
                   fleet_on.fingerprint == fleet_off.fingerprint;
  double per_op_on =
      on.lookup_wall_us * 1000.0 / static_cast<double>(kQuickOps);
  double per_op_off =
      off.lookup_wall_us * 1000.0 / static_cast<double>(kQuickOps);
  std::string out = "{\"benchmark\":\"symbolic\",\"mode\":\"quick\","
                    "\"results\":[";
  out += "{\"name\":\"symbolic/fastpath-on\",\"sim_total_ms\":" +
         obs::FormatJsonNumber(fleet_on.sim_total_ms) +
         ",\"lookup_ns\":" + obs::FormatJsonNumber(per_op_on) +
         ",\"cache_hits\":" + std::to_string(on.cache_hits) +
         ",\"cells\":" + std::to_string(on.coverage_cells) + "}";
  out += ",{\"name\":\"symbolic/fastpath-off\",\"sim_total_ms\":" +
         obs::FormatJsonNumber(fleet_off.sim_total_ms) +
         ",\"lookup_ns\":" + obs::FormatJsonNumber(per_op_off) + "}";
  out += "],\"bit_identical\":";
  out += identical ? "true" : "false";
  out += ",\"speedup\":" +
         obs::FormatJsonNumber(on.lookup_wall_us > 0
                                   ? off.lookup_wall_us / on.lookup_wall_us
                                   : 0);
  out += '}';
  profile.Finish();
  std::printf("%s\n", out.c_str());
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::QuickRequested(argc, argv)) return RunQuick();
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_symbolic.json");

  bench::PrintHeader(
      "Symbolic fast path — interval index + remainder cache vs brute "
      "force");

  // High-atom manager fleet: 50 streaming ticks x 100 frames, 550 forced
  // two-frame evictions => 551 coverage cells; 4 sessions x 2 rounds x 2
  // overlapping lookups each. The brute-force baseline pays ~15 s per
  // Diff at this cell count (NOT(coverage) is cubic in cells), which is
  // the very cost the fast path amortizes — and what bounds how many
  // lookups the baseline leg can afford.
  constexpr int kTicks = 50;
  constexpr int64_t kFramesPerTick = 100;
  constexpr int kHoles = 550;
  constexpr int kRounds = 2;
  constexpr int kQueriesPerSession = 2;
  ManagerRun on =
      RunManagerFleet(true, kTicks, kFramesPerTick, kHoles, kRounds,
                      kQueriesPerSession);
  ManagerRun off =
      RunManagerFleet(false, kTicks, kFramesPerTick, kHoles, kRounds,
                      kQueriesPerSession);
  double speedup =
      on.lookup_wall_us > 0 ? off.lookup_wall_us / on.lookup_wall_us : 0;
  std::printf("coverage: %zu cells (>= 500 required)\n", on.coverage_cells);
  std::printf("fastpath on : build %8.0f us | fleet lookups %8.0f us | "
              "hits %lld misses %lld | pruned %lld\n",
              on.build_wall_us, on.lookup_wall_us,
              static_cast<long long>(on.cache_hits),
              static_cast<long long>(on.cache_misses),
              static_cast<long long>(on.cells_pruned));
  std::printf("fastpath off: build %8.0f us | fleet lookups %8.0f us\n",
              off.build_wall_us, off.lookup_wall_us);
  std::printf("lookup speedup %.2fx (>= 5x required)\n", speedup);
  std::printf("fingerprint on %s | off %s | %s\n",
              HexFp(on.fingerprint).c_str(), HexFp(off.fingerprint).c_str(),
              on.fingerprint == off.fingerprint ? "bit-identical"
                                                : "MISMATCH");

  // End-to-end fleet: 4 service sessions, overlapping CarType queries,
  // eviction mid-run; fastpath on and off must be bit-identical.
  FleetRun f_on = RunServiceFleet(true, 3, 1200);
  FleetRun f_off = RunServiceFleet(false, 3, 1200);
  bool fleet_identical = f_on.fingerprint == f_off.fingerprint;
  std::printf("service fleet: sim %.1f s | hit %lld/%lld | "
              "cache %lld hits / %lld misses | pruned %lld\n",
              f_on.sim_total_ms / 1000.0,
              static_cast<long long>(f_on.reused),
              static_cast<long long>(f_on.invocations),
              static_cast<long long>(f_on.cache_hits),
              static_cast<long long>(f_on.cache_misses),
              static_cast<long long>(f_on.cells_pruned));
  std::printf("fleet fingerprints on %s off %s | %s\n",
              HexFp(f_on.fingerprint).c_str(),
              HexFp(f_off.fingerprint).c_str(),
              fleet_identical ? "bit-identical" : "MISMATCH");

  bool ok = on.fingerprint == off.fingerprint && fleet_identical &&
            on.coverage_cells >= 500 && speedup >= 5.0;

  std::string json = "{\n  \"benchmark\": \"symbolic\",\n";
  json += "  \"coverage_cells\": " + std::to_string(on.coverage_cells) +
          ",\n";
  json += "  \"sessions\": " + std::to_string(kSessions) + ",\n";
  json += "  \"lookups\": " +
          std::to_string(kRounds * kSessions * kQueriesPerSession * 2) +
          ",\n";
  json += "  \"fastpath_on\": {\"build_wall_us\": " +
          obs::FormatJsonNumber(on.build_wall_us) +
          ", \"lookup_wall_us\": " +
          obs::FormatJsonNumber(on.lookup_wall_us) +
          ", \"cache_hits\": " + std::to_string(on.cache_hits) +
          ", \"cache_misses\": " + std::to_string(on.cache_misses) +
          ", \"cells_pruned\": " + std::to_string(on.cells_pruned) + "},\n";
  json += "  \"fastpath_off\": {\"build_wall_us\": " +
          obs::FormatJsonNumber(off.build_wall_us) +
          ", \"lookup_wall_us\": " +
          obs::FormatJsonNumber(off.lookup_wall_us) + "},\n";
  json += "  \"lookup_speedup\": " + obs::FormatJsonNumber(speedup) + ",\n";
  json += "  \"fingerprint_on\": \"" + HexFp(on.fingerprint) + "\",\n";
  json += "  \"fingerprint_off\": \"" + HexFp(off.fingerprint) + "\",\n";
  json += "  \"fleet\": {\"sim_total_ms\": " +
          obs::FormatJsonNumber(f_on.sim_total_ms) +
          ", \"cache_hits\": " + std::to_string(f_on.cache_hits) +
          ", \"cache_misses\": " + std::to_string(f_on.cache_misses) +
          ", \"cells_pruned\": " + std::to_string(f_on.cells_pruned) +
          ", \"fingerprint\": \"" + HexFp(f_on.fingerprint) + "\"},\n";
  json += std::string("  \"bit_identical_fastpath\": ") +
          (on.fingerprint == off.fingerprint ? "true" : "false") + ",\n";
  json += std::string("  \"bit_identical_fleet\": ") +
          (fleet_identical ? "true" : "false") + "\n}\n";

  std::ofstream out(json_path);
  if (out) {
    out << json;
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "WARN cannot write %s\n", json_path.c_str());
  }
  if (!ok) std::fprintf(stderr, "FAIL acceptance criteria not met\n");
  return ok ? 0 : 1;
}
