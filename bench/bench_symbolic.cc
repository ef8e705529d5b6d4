// Symbolic coverage benchmark (docs/SYMBOLIC.md): host wall time of the
// UdfManager's INTER/DIFF on the high-atom coverage shape a long-lived
// deployment actually reaches — a streaming session extends the frame-id
// horizon tick by tick, then budget evictions punch hundreds of holes into
// the coverage, leaving 500+ cells. A 4-session fleet then replays
// permuted overlapping lookups against that coverage.
//
// Every Inter/Diff result, the final coverage and every per-query
// simulated number of an end-to-end service fleet is FNV-fingerprinted;
// the full run checks both fingerprints against their recorded values, so
// any change to a symbolic result shows up as a MISMATCH.
//
// Output: a table on stdout and a JSON dump to argv[1] (default
// "BENCH_symbolic.json"). --quick emits the one-line gate JSON for
// bench/check_regression.py (the fleet's simulated total is deterministic;
// lookup_ns is host wall time per lookup).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/eva_service.h"
#include "udf/udf_manager.h"

using namespace eva;  // NOLINT

namespace {

constexpr int kSessions = 4;
const char* kKey = "FasterRCNNResNet50@short_ua_detrac";

// Fingerprints of the full-size run: the manager fleet's results and the
// service fleet's simulated numbers.
constexpr uint64_t kManagerFingerprint = 0x33da8a991c77d146ULL;
constexpr uint64_t kFleetFingerprint = 0x5ccd25a45ed11e22ULL;

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

// ---- FNV-1a fingerprints ---------------------------------------------------

constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMixBytes(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvMix64(uint64_t h, uint64_t v) {
  return FnvMixBytes(h, &v, sizeof(v));
}

uint64_t FnvMixDouble(uint64_t h, double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0 onto +0.0
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvMix64(h, bits);
}

uint64_t FnvMixString(uint64_t h, const std::string& s) {
  h = FnvMix64(h, s.size());
  return FnvMixBytes(h, s.data(), s.size());
}

uint64_t FnvMixBound(uint64_t h, const symbolic::Bound& b) {
  if (b.infinite) return FnvMix64(h, 0x7f);
  h = FnvMix64(h, b.closed ? 1 : 2);
  return FnvMixDouble(h, b.value);
}

uint64_t FingerprintConstraint(const symbolic::DimConstraint& c) {
  uint64_t h = kFnvOffsetBasis;
  h = FnvMix64(h, static_cast<uint64_t>(c.kind()));
  if (c.is_categorical()) {
    h = FnvMix64(h, c.categorical_exclude() ? 1 : 0);
    h = FnvMix64(h, c.categorical_values().size());
    for (const std::string& v : c.categorical_values()) {
      h = FnvMixString(h, v);
    }
    return h;
  }
  h = FnvMixBound(h, c.interval().lo());
  h = FnvMixBound(h, c.interval().hi());
  h = FnvMix64(h, c.excluded_points().size());
  for (double p : c.excluded_points()) h = FnvMixDouble(h, p);
  return h;
}

/// Order-sensitive structural fingerprint of a DNF predicate.
uint64_t FingerprintPredicate(const symbolic::Predicate& p) {
  uint64_t h = kFnvOffsetBasis;
  h = FnvMix64(h, p.conjuncts().size());
  for (const symbolic::Conjunct& c : p.conjuncts()) {
    uint64_t cell = kFnvOffsetBasis;
    cell = FnvMix64(cell, c.dims().size());
    for (const auto& [dim, constraint] : c.dims()) {
      cell = FnvMixString(cell, dim);
      cell = FnvMix64(cell, FingerprintConstraint(constraint));
    }
    h = FnvMix64(h, cell);
  }
  return h;
}

struct FnvFold {
  uint64_t fp = kFnvOffsetBasis;
  void Mix(uint64_t v) { fp = FnvMix64(fp, v); }
  void MixDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  void MixString(const std::string& s) {
    fp = FnvMixBytes(fp, s.data(), s.size());
  }
};

// ---- manager-level fleet phase ------------------------------------------

struct ManagerRun {
  size_t coverage_cells = 0;
  double build_wall_us = 0;   // streaming ticks + evictions
  double lookup_wall_us = 0;  // the fleet Inter/Diff phase
  uint64_t fingerprint = 0;
};

/// Streaming ticks extend the horizon [0, t); forced evictions then punch
/// `holes` two-frame holes, splitting the horizon atom into holes+1 cells
/// — the high-atom shape. (Single-frame holes reduce to excluded points on
/// the integer dimension and never split.)
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
/// service's single-executor sharing, minus the engine around it. Every
/// Diff after the first replays the entry's cached NOT(p_u).
ManagerRun RunManagerFleet(int ticks, int64_t frames_per_tick, int holes,
                           int rounds, int queries_per_session) {
  udf::UdfManager m;
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
        int64_t slot = (q + s * 3 + r) % queries_per_session;
        double lo = static_cast<double>((slot * 5 * width / 4) %
                                        (horizon - width));
        symbolic::Predicate query =
            IdRange(lo, lo + static_cast<double>(width));
        auto inter = m.InterCoverage(kKey, query);
        auto diff = m.DiffCoverage(kKey, query);
        for (const auto* res : {&inter, &diff}) {
          if (res->ok()) {
            fold.Mix(FingerprintPredicate(res->value()));
          } else {
            fold.MixString(res->status().ToString());
          }
        }
      }
    }
    // A fleet session re-claiming covered ground (a subrange of the first
    // surviving cell, between the first two holes) leaves p_u unchanged,
    // so it keeps the cached NOT.
    m.UpdateCoverage(kKey, IdRange(4, 6));
  }
  run.lookup_wall_us = m.symbolic_wall_us() - lookup0;
  fold.Mix(FingerprintPredicate(m.Coverage(kKey)));
  fold.Mix(static_cast<uint64_t>(run.coverage_cells));
  run.fingerprint = fold.fp;
  return run;
}

// ---- end-to-end service fleet -------------------------------------------

struct FleetRun {
  double sim_total_ms = 0;
  int64_t invocations = 0;
  int64_t reused = 0;
  double symbolic_wall_us = 0;
  uint64_t fingerprint = 0;  // sim totals + rows + remainder atoms + coverage
};

/// 4 service sessions replay overlapping CarType queries; a budget squeeze
/// mid-run forces real evictions (coverage retraction). The fingerprint
/// folds every result-bearing number: per-query simulated totals, rows,
/// invocation/reuse counts, the optimizer's remainder atom counts and
/// sel_diff bits, and the final coverage predicates.
FleetRun RunServiceFleet(int rounds, int64_t num_frames) {
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
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
      // cap. Coverage retraction, mid-fleet.
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
    fold.Mix(FingerprintPredicate(entry.coverage));
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
  constexpr int kRounds = 2;
  constexpr int kQueries = 6;
  constexpr int kLookups = kRounds * kSessions * kQueries;
  ManagerRun run = RunManagerFleet(10, 100, 80, kRounds, kQueries);
  FleetRun fleet = RunServiceFleet(2, 900);
  double per_op = run.lookup_wall_us * 1000.0 / kLookups;
  std::string out = "{\"benchmark\":\"symbolic\",\"mode\":\"quick\","
                    "\"results\":[";
  out += "{\"name\":\"symbolic/fleet\",\"sim_total_ms\":" +
         obs::FormatJsonNumber(fleet.sim_total_ms) +
         ",\"lookup_ns\":" + obs::FormatJsonNumber(per_op) +
         ",\"cells\":" + std::to_string(run.coverage_cells) + "}]}";
  profile.Finish();
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::QuickRequested(argc, argv)) return RunQuick();
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_symbolic.json");

  bench::PrintHeader("Symbolic coverage — INTER/DIFF on 500+ cells");

  // High-atom manager fleet: 50 streaming ticks x 100 frames, 550 forced
  // two-frame evictions => 551 coverage cells; 4 sessions x 2 rounds x 2
  // overlapping lookups each. The one NOT(coverage) dominates: it is cubic
  // in cells and every later Diff replays it.
  constexpr int kTicks = 50;
  constexpr int64_t kFramesPerTick = 100;
  constexpr int kHoles = 550;
  constexpr int kRounds = 2;
  constexpr int kQueriesPerSession = 2;
  ManagerRun run = RunManagerFleet(kTicks, kFramesPerTick, kHoles, kRounds,
                                   kQueriesPerSession);
  const bool manager_match = run.fingerprint == kManagerFingerprint;
  std::printf("coverage: %zu cells (>= 500 required)\n", run.coverage_cells);
  std::printf("build %8.0f us | fleet lookups %8.0f us\n", run.build_wall_us,
              run.lookup_wall_us);
  std::printf("fingerprint %s | %s\n", HexFp(run.fingerprint).c_str(),
              manager_match ? "matches" : "MISMATCH");

  // End-to-end fleet: 4 service sessions, overlapping CarType queries,
  // eviction mid-run.
  FleetRun fleet = RunServiceFleet(3, 1200);
  const bool fleet_match = fleet.fingerprint == kFleetFingerprint;
  std::printf("service fleet: sim %.1f s | hit %lld/%lld | symbolic %.0f us\n",
              fleet.sim_total_ms / 1000.0,
              static_cast<long long>(fleet.reused),
              static_cast<long long>(fleet.invocations),
              fleet.symbolic_wall_us);
  std::printf("fleet fingerprint %s | %s\n", HexFp(fleet.fingerprint).c_str(),
              fleet_match ? "matches" : "MISMATCH");

  bool ok = manager_match && fleet_match && run.coverage_cells >= 500;

  std::string json = "{\n  \"benchmark\": \"symbolic\",\n";
  json += "  \"coverage_cells\": " + std::to_string(run.coverage_cells) +
          ",\n";
  json += "  \"sessions\": " + std::to_string(kSessions) + ",\n";
  json += "  \"lookups\": " +
          std::to_string(kRounds * kSessions * kQueriesPerSession * 2) +
          ",\n";
  json += "  \"build_wall_us\": " + obs::FormatJsonNumber(run.build_wall_us) +
          ",\n";
  json += "  \"lookup_wall_us\": " +
          obs::FormatJsonNumber(run.lookup_wall_us) + ",\n";
  json += "  \"fingerprint\": \"" + HexFp(run.fingerprint) + "\",\n";
  json += "  \"fleet\": {\"sim_total_ms\": " +
          obs::FormatJsonNumber(fleet.sim_total_ms) +
          ", \"symbolic_wall_us\": " +
          obs::FormatJsonNumber(fleet.symbolic_wall_us) +
          ", \"fingerprint\": \"" + HexFp(fleet.fingerprint) + "\"}\n}\n";

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
