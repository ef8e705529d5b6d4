// Streaming ingestion with incremental view maintenance: a live source
// (SHORT-UA-DETRAC delivered in ticks) interleaved with an exploratory
// session replaying a seeded VBENCH-HIGH permutation after every tick,
// with the write-ahead log group-committing every view append, coverage
// transition, and ingest advance (docs/STREAMING.md). Because views
// materialized at an earlier horizon are extended rather than invalidated,
// the per-tick shared-store hit percentage must climb monotonically as the
// stream grows — that climb is the benchmark's acceptance check.
//
// Output: a per-tick table on stdout and a JSON dump to argv[1] (default
// "BENCH_streaming.json"). --quick emits the one-line gate JSON for
// bench/check_regression.py.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace eva;  // NOLINT

namespace {

namespace stdfs = std::filesystem;

constexpr uint64_t kSeed = 7;

struct TickConfig {
  int64_t total_frames = 0;
  int64_t initial_frames = 0;
  int64_t frames_per_tick = 0;
  size_t queries_per_tick = 0;
};

struct TickStats {
  int64_t horizon = 0;
  int64_t invocations = 0;
  int64_t reused = 0;
  double sim_ms = 0;

  double HitPercentage() const {
    return invocations == 0 ? 0
                            : 100.0 * static_cast<double>(reused) /
                                  static_cast<double>(invocations);
  }
};

struct StreamRun {
  std::vector<TickStats> ticks;
  double query_ms = 0;
  double ingest_ms = 0;
};

/// One streaming session: register the source at the initial horizon, arm
/// the WAL, then alternate query replays and ingestion ticks (checkpoint
/// at the midpoint, so log rotation is part of the measured session).
StreamRun RunStreaming(const catalog::VideoInfo& video,
                       const std::vector<std::string>& queries,
                       const TickConfig& cfg, const std::string& tag) {
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  auto engine = std::make_unique<engine::EvaEngine>(
      options, std::make_shared<catalog::Catalog>());
  bench::CheckOk(vbench::RegisterStandardUdfs(engine.get()),
                 "standard UDFs");
  ingest::StreamOptions sopts;
  sopts.initial_frames = cfg.initial_frames;
  sopts.total_frames = cfg.total_frames;
  sopts.buffer_frames = cfg.total_frames;
  bench::CheckOk(engine->RegisterStream(video, sopts), "register stream");
  const stdfs::path wal_dir =
      stdfs::temp_directory_path() /
      ("eva_bench_streaming_" + std::to_string(::getpid()) + "_" + tag);
  stdfs::remove_all(wal_dir);
  bench::CheckOk(engine->EnableWal(wal_dir.string()), "enable WAL");

  StreamRun run;
  int64_t horizon = cfg.initial_frames;
  const int64_t num_ticks =
      1 + (cfg.total_frames - cfg.initial_frames + cfg.frames_per_tick - 1) /
              cfg.frames_per_tick;
  for (int64_t tick = 0;; ++tick) {
    TickStats stats;
    stats.horizon = horizon;
    // The same exploratory session re-runs after every tick — the paper's
    // iterative-refinement loop against a growing stream. Re-running the
    // SAME queries is what isolates incremental maintenance: any recompute
    // of an already-seen frame shows up as a hit-rate dip.
    for (size_t q = 0; q < cfg.queries_per_tick && q < queries.size(); ++q) {
      const std::string& sql = queries[q];
      auto r = engine->Execute(sql);
      bench::CheckOk(r.status(), sql.c_str());
      const exec::QueryMetrics& m = r.value().metrics;
      stats.invocations += m.TotalInvocations();
      stats.reused += m.TotalReused();
      stats.sim_ms += m.TotalMs();
    }
    run.ticks.push_back(stats);
    run.query_ms += stats.sim_ms;
    if (horizon >= cfg.total_frames) break;
    if (tick == num_ticks / 2) {
      bench::CheckOk(engine->Checkpoint(), "checkpoint");
    }
    auto flushed = engine->IngestFrames(video.name, cfg.frames_per_tick);
    bench::CheckOk(flushed.status(), "ingest tick");
    horizon = flushed.value().visible;
  }
  run.ingest_ms = engine->clock().Elapsed(CostCategory::kIngest);
  stdfs::remove_all(wal_dir);
  return run;
}

/// The acceptance check: after the first replay primes the store, the hit
/// percentage must climb with every tick (strictly, until it saturates
/// near 100%).
bool HitPercentageClimbs(const StreamRun& run) {
  if (run.ticks.size() < 2) return false;
  for (size_t t = 1; t < run.ticks.size(); ++t) {
    if (run.ticks[t].HitPercentage() + 1e-9 <
        run.ticks[t - 1].HitPercentage()) {
      return false;
    }
  }
  return run.ticks.back().HitPercentage() >
         run.ticks.front().HitPercentage();
}

std::string TicksJson(const StreamRun& run) {
  std::string out = "[";
  for (size_t t = 0; t < run.ticks.size(); ++t) {
    const TickStats& s = run.ticks[t];
    if (t > 0) out += ',';
    out += "{\"tick\":" + std::to_string(t);
    out += ",\"horizon\":" + std::to_string(s.horizon);
    out += ",\"invocations\":" + std::to_string(s.invocations);
    out += ",\"reused\":" + std::to_string(s.reused);
    out += ",\"hit_pct\":" +
           obs::FormatJsonNumber(
               static_cast<double>(static_cast<int64_t>(
                   s.HitPercentage() * 100)) /
               100.0);
    out += ",\"sim_ms\":" + obs::FormatJsonNumber(s.sim_ms);
    out += '}';
  }
  out += ']';
  return out;
}

// --quick: the 3000-frame gate video delivered in three ticks, six
// queries per tick. Simulated, so the gate holds the _ms fields to the
// tight tolerance; the hit-rate climb is asserted here.
int RunQuick() {
  catalog::VideoInfo video = bench::QuickVideo();
  TickConfig cfg;
  cfg.total_frames = video.num_frames;
  cfg.initial_frames = 1000;
  cfg.frames_per_tick = 1000;
  cfg.queries_per_tick = 6;
  std::vector<std::string> queries = vbench::Permute(
      vbench::VbenchHigh(video.name, video.num_frames), kSeed);
  bench::QuickProfileDump profile;
  StreamRun run = RunStreaming(video, queries, cfg, "quick");
  const bool climbs = HitPercentageClimbs(run);

  std::string out = "{\"benchmark\":\"streaming\",\"mode\":\"quick\","
                    "\"results\":[";
  for (size_t t = 0; t < run.ticks.size(); ++t) {
    const TickStats& s = run.ticks[t];
    if (t > 0) out += ',';
    out += "{\"name\":\"streaming/tick" + std::to_string(t);
    out += "\",\"p50_ms\":" + obs::FormatJsonNumber(s.sim_ms);
    out += ",\"total_ms\":" + obs::FormatJsonNumber(s.sim_ms);
    out += ",\"hit_pct\":" +
           obs::FormatJsonNumber(
               static_cast<double>(static_cast<int64_t>(
                   s.HitPercentage() * 100)) /
               100.0);
    out += ",\"queries\":" + std::to_string(cfg.queries_per_tick);
    out += '}';
  }
  out += "],\"ingest_ms\":" + obs::FormatJsonNumber(run.ingest_ms);
  out += std::string(",\"hit_pct_climbs\":") + (climbs ? "true" : "false");
  out += '}';
  profile.Finish();
  std::printf("%s\n", out.c_str());
  return climbs ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::QuickRequested(argc, argv)) return RunQuick();
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_streaming.json");
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  TickConfig cfg;
  cfg.total_frames = video.num_frames;  // 7500
  cfg.initial_frames = 1500;
  cfg.frames_per_tick = 1500;
  cfg.queries_per_tick = 8;
  std::vector<std::string> queries = vbench::Permute(
      vbench::VbenchHigh(video.name, video.num_frames), kSeed);

  bench::PrintHeader(
      "Streaming ingestion + WAL — SHORT-UA-DETRAC in " +
      std::to_string((cfg.total_frames - cfg.initial_frames) /
                     cfg.frames_per_tick) +
      " ticks, VBENCH-HIGH replay per tick");

  StreamRun run = RunStreaming(video, queries, cfg, "full");
  std::printf("%6s %9s %13s %10s %8s %12s\n", "tick", "horizon",
              "invocations", "reused", "hit%", "sim ms");
  for (size_t t = 0; t < run.ticks.size(); ++t) {
    const TickStats& s = run.ticks[t];
    std::printf("%6zu %9lld %13lld %10lld %7.1f%% %12.1f\n", t,
                static_cast<long long>(s.horizon),
                static_cast<long long>(s.invocations),
                static_cast<long long>(s.reused), s.HitPercentage(),
                s.sim_ms);
  }
  std::printf("query sim %.1f s | ingest sim %.1f s\n",
              run.query_ms / 1000.0, run.ingest_ms / 1000.0);

  const bool climbs = HitPercentageClimbs(run);
  std::printf("hit%% climbs tick over tick: %s\n",
              climbs ? "yes" : "NO — incremental maintenance regressed");

  std::string json = "{\n  \"benchmark\": \"streaming\",\n";
  json += "  \"video\": \"short_ua_detrac\",\n";
  json += "  \"workload\": \"VBENCH-HIGH (seeded permutation)\",\n";
  json += "  \"seed\": " + std::to_string(kSeed) + ",\n";
  json += "  \"total_frames\": " + std::to_string(cfg.total_frames) + ",\n";
  json += "  \"initial_frames\": " + std::to_string(cfg.initial_frames) +
          ",\n";
  json += "  \"frames_per_tick\": " + std::to_string(cfg.frames_per_tick) +
          ",\n";
  json += "  \"queries_per_tick\": " +
          std::to_string(cfg.queries_per_tick) + ",\n";
  json += "  \"ticks\": " + TicksJson(run) + ",\n";
  json += "  \"query_sim_ms\": " + obs::FormatJsonNumber(run.query_ms) +
          ",\n";
  json += "  \"ingest_sim_ms\": " + obs::FormatJsonNumber(run.ingest_ms) +
          ",\n";
  json += std::string("  \"hit_pct_climbs\": ") +
          (climbs ? "true" : "false") + "\n}\n";

  std::ofstream out(json_path);
  if (out) {
    out << json;
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "WARN cannot write %s\n", json_path.c_str());
  }
  return climbs ? 0 : 1;
}
