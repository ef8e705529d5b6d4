#ifndef EVA_BENCH_BENCH_UTIL_H_
#define EVA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json_util.h"
#include "obs/profiler.h"
#include "vbench/vbench.h"

namespace eva::bench {

/// Aborts the benchmark with a readable message on error.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return result.MoveValue();
}

/// Runs one workload in one reuse mode from a clean state.
inline vbench::WorkloadResult RunMode(
    optimizer::ReuseMode mode, const catalog::VideoInfo& video,
    const std::vector<std::string>& queries) {
  engine::EngineOptions options;
  options.optimizer.mode = mode;
  if (mode == optimizer::ReuseMode::kNoReuse) {
    options.optimizer.reuse_enabled = false;
  }
  auto engine =
      Unwrap(vbench::MakeEngine(options, video), "engine construction");
  return Unwrap(vbench::RunWorkload(engine.get(), queries), "workload");
}

inline double Hours(double ms) { return ms / 3.6e6; }

/// Appends one `{"workload","mode","metrics"}` JSON line for the workload
/// run to the file named by $EVA_METRICS_DUMP; no-op when unset. Gives
/// every benchmark a per-workload metrics dump without touching its code.
inline void MaybeDumpMetrics(const std::string& workload,
                             const std::string& mode,
                             const vbench::WorkloadResult& result) {
  const char* path = std::getenv("EVA_METRICS_DUMP");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "WARN cannot append metrics to %s\n", path);
    return;
  }
  std::string line = "{";
  obs::AppendJsonString(&line, "workload");
  line += ':';
  obs::AppendJsonString(&line, workload);
  line += ',';
  obs::AppendJsonString(&line, "mode");
  line += ':';
  obs::AppendJsonString(&line, mode);
  line += ",\"metrics\":" + result.AggregateJson() + "}";
  out << line << "\n";
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Wall-clock percentile summary of a repeated measurement, in
/// nanoseconds per operation. Used by the `--quick` JSON mode of the
/// microbenchmarks (CI perf smoke) where google-benchmark's adaptive
/// iteration search is too slow and its output too verbose.
struct WallStats {
  double p50_ns = 0;
  double p95_ns = 0;
  double mean_ns = 0;
  int samples = 0;
};

/// Runs `fn` (one sample = `ops_per_sample` operations inside fn)
/// `warmup` times untimed, then `samples` timed times, and reports
/// per-operation p50/p95/mean. Percentiles over samples absorb the
/// one-off costs (cache warmup, lazy sealing, allocator growth) that a
/// plain mean would smear into the result.
template <typename Fn>
WallStats MeasureWall(Fn&& fn, int warmup, int samples,
                      int64_t ops_per_sample) {
  using Clock = std::chrono::steady_clock;
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> ns;
  ns.reserve(static_cast<size_t>(samples));
  double total = 0;
  for (int i = 0; i < samples; ++i) {
    auto t0 = Clock::now();
    fn();
    auto t1 = Clock::now();
    double per_op =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(ops_per_sample);
    ns.push_back(per_op);
    total += per_op;
  }
  std::sort(ns.begin(), ns.end());
  auto pct = [&](double p) {
    size_t idx = static_cast<size_t>(p * static_cast<double>(ns.size() - 1));
    return ns[idx];
  };
  WallStats s;
  s.p50_ns = pct(0.50);
  s.p95_ns = pct(0.95);
  s.mean_ns = total / static_cast<double>(samples);
  s.samples = samples;
  return s;
}

/// One `{"name","p50_ns","p95_ns","mean_ns","samples"}` object for the
/// quick-mode JSON report.
inline std::string WallStatsJson(const std::string& name,
                                 const WallStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"p50_ns\":%.1f,\"p95_ns\":%.1f,"
                "\"mean_ns\":%.1f,\"samples\":%d}",
                name.c_str(), s.p50_ns, s.p95_ns, s.mean_ns, s.samples);
  return std::string(buf);
}

// ---------------------------------------------------------------------------
// --quick gate: a small fixed workload every bench target can run in a few
// seconds, emitting one line of JSON that bench/check_regression.py diffs
// against the committed BENCH_quick.json baseline. Simulated times are
// deterministic (one thread charges the clock in a fixed order), so the
// `_ms` fields are bit-stable across runs and hosts; only the microbenchmarks' `_ns` wall fields need a
// loose tolerance.
// ---------------------------------------------------------------------------

/// True when `--quick` appears anywhere in argv.
inline bool QuickRequested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

/// The quick gate's video: SHORT-UA-DETRAC shrunk to 3000 frames so a
/// full no-reuse + EVA pair finishes in CI-smoke time.
inline catalog::VideoInfo QuickVideo() {
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  video.num_frames = 3000;
  return video;
}

/// One `{"name","p50_ms","p95_ms","total_ms","queries"}` object over the
/// per-query simulated times of a workload run. Exact percentiles
/// (idx = p·(n−1)) — no interpolation, so the values are bit-stable.
inline std::string QuickResultJson(const std::string& name,
                                   const vbench::WorkloadResult& result) {
  std::vector<double> ms;
  ms.reserve(result.queries.size());
  for (const auto& q : result.queries) ms.push_back(q.metrics.TotalMs());
  std::sort(ms.begin(), ms.end());
  auto pct = [&](double p) {
    if (ms.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * static_cast<double>(ms.size() - 1));
    return ms[idx];
  };
  std::string out = "{";
  obs::AppendJsonString(&out, "name");
  out += ':';
  obs::AppendJsonString(&out, name);
  out += ",\"p50_ms\":" + obs::FormatJsonNumber(pct(0.50));
  out += ",\"p95_ms\":" + obs::FormatJsonNumber(pct(0.95));
  out += ",\"total_ms\":" + obs::FormatJsonNumber(result.total_ms);
  out += ",\"queries\":" + std::to_string(result.queries.size());
  out += '}';
  return out;
}

/// Starts the global sampling profiler when $EVA_PROFILE_DUMP names a
/// file; the matching Finish() appends the folded stacks there. Gives the
/// CI perf job a flamegraph artifact of the quick run for free.
struct QuickProfileDump {
  const char* path = nullptr;
  QuickProfileDump() {
    path = std::getenv("EVA_PROFILE_DUMP");
    if (path != nullptr && *path == '\0') path = nullptr;
    if (path != nullptr) obs::Profiler::Global().Start(997);
  }
  void Finish() const {
    if (path == nullptr) return;
    obs::Profiler& prof = obs::Profiler::Global();
    prof.Stop();
    std::ofstream out(path, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "WARN cannot append profile to %s\n", path);
      return;
    }
    out << prof.RenderFolded();
    std::fprintf(stderr, "profile: appended folded stacks (%lld samples) "
                 "to %s\n",
                 static_cast<long long>(prof.samples()), path);
  }
};

using QuerySetFn = std::vector<std::string> (*)(const std::string&, int64_t);

/// The standard quick gate: run `query_set` over QuickVideo() in no-reuse
/// and EVA modes, print one JSON line with per-mode sim percentiles.
/// Benches whose interesting axis is not a reuse-mode pair (eviction
/// policies, microbenches) implement bespoke quick modes
/// instead.
inline int RunQuickGate(const std::string& benchmark_name,
                        QuerySetFn query_set = &vbench::VbenchHigh) {
  catalog::VideoInfo video = QuickVideo();
  std::vector<std::string> queries = query_set(video.name, video.num_frames);
  QuickProfileDump profile;
  std::string out = "{";
  obs::AppendJsonString(&out, "benchmark");
  out += ':';
  obs::AppendJsonString(&out, benchmark_name);
  out += ",\"mode\":\"quick\",\"results\":[";
  bool first = true;
  for (optimizer::ReuseMode mode :
       {optimizer::ReuseMode::kNoReuse, optimizer::ReuseMode::kEva}) {
    vbench::WorkloadResult r = RunMode(mode, video, queries);
    if (!first) out += ',';
    first = false;
    out += QuickResultJson(
        benchmark_name + "/" + optimizer::ReuseModeName(mode), r);
  }
  out += "]}";
  profile.Finish();
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace eva::bench

#endif  // EVA_BENCH_BENCH_UTIL_H_
