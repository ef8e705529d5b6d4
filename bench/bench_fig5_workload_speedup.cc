// Figure 5 — Workload speedup: impact of the reuse algorithms on
// VBENCH-LOW and VBENCH-HIGH over the MEDIUM-UA-DETRAC video set.
//
// Paper shapes to reproduce: EVA ≈ 4x on VBENCH-HIGH and ≈ 1.3x on
// VBENCH-LOW; FunCache below 1x on VBENCH-LOW (hashing overhead) and well
// below EVA on VBENCH-HIGH; HashStash ≈ 2x on VBENCH-HIGH. No-reuse
// totals ≈ 0.96 h (LOW) and ≈ 3.1 h (HIGH) of simulated time. The §5.2
// upper bound (Eq. 7) is printed per workload, from the workload's own
// invocations: the no-reuse run's totals over the FunCache run's distinct
// inputs (FunCache sees every invocation and caches each distinct one).
//
// Set $EVA_BENCH_JSON to also write the table (plus per-mode aggregate
// metrics) as a JSON file — BENCH_baseline.json in the repo root was
// recorded this way. $EVA_METRICS_DUMP appends per-workload metrics lines.

#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.h"

using namespace eva;            // NOLINT
using namespace eva::bench;     // NOLINT
using optimizer::ReuseMode;

namespace {

// Eq. 7: upper bound on workload speedup = total UDF cost / distinct UDF
// cost, computed from a no-reuse run plus the final cache entries of a
// FunCache run over the same queries.
double SpeedupUpperBound(const vbench::WorkloadResult& noreuse,
                         const engine::EvaEngine& funcache_engine) {
  double total_cost = 0;
  std::map<std::string, int64_t> totals;
  for (const auto& q : noreuse.queries) {
    for (const auto& [udf, n] : q.metrics.invocations) totals[udf] += n;
  }
  double distinct_cost = 0;
  for (const auto& [udf, n] : totals) {
    auto def = funcache_engine.catalog().GetUdf(udf);
    if (!def.ok()) continue;
    total_cost += def.value().cost_ms * static_cast<double>(n);
    int64_t distinct = funcache_engine.funcache().NumEntries(udf);
    distinct_cost += def.value().cost_ms * static_cast<double>(distinct);
  }
  return distinct_cost > 0 ? total_cost / distinct_cost : 1.0;
}

struct BenchRow {
  std::string workload;
  std::string mode;
  double total_ms = 0;
  double speedup = 1;
  double hit_pct = 0;
  double view_bytes = 0;
  std::string metrics_json;
};

void MaybeWriteJson(const std::string& video,
                    const std::vector<BenchRow>& rows) {
  const char* path = std::getenv("EVA_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "WARN cannot write %s\n", path);
    return;
  }
  out << "{\n  \"benchmark\": \"fig5_workload_speedup\",\n  \"video\": ";
  std::string v;
  obs::AppendJsonString(&v, video);
  out << v << ",\n  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    std::string w, m;
    obs::AppendJsonString(&w, r.workload);
    obs::AppendJsonString(&m, r.mode);
    out << "    {\"workload\": " << w << ", \"mode\": " << m
        << ", \"total_ms\": " << obs::FormatJsonNumber(r.total_ms)
        << ", \"speedup\": " << obs::FormatJsonNumber(r.speedup)
        << ", \"hit_pct\": " << obs::FormatJsonNumber(r.hit_pct)
        << ", \"view_bytes\": " << obs::FormatJsonNumber(r.view_bytes)
        << ", \"metrics\": " << r.metrics_json << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::QuickRequested(argc, argv)) return bench::RunQuickGate("fig5_workload_speedup");
  catalog::VideoInfo video = vbench::MediumUaDetrac();
  struct SetDef {
    const char* name;
    std::vector<std::string> queries;
  };
  std::vector<SetDef> sets = {
      {"VBENCH-LOW", vbench::VbenchLow(video.name, video.num_frames)},
      {"VBENCH-HIGH", vbench::VbenchHigh(video.name, video.num_frames)},
  };

  PrintHeader("Figure 5: Workload speedup (MEDIUM-UA-DETRAC)");
  std::printf("%-12s %-10s %12s %10s %8s\n", "workload", "mode",
              "total(h)", "speedup", "hit%");
  std::vector<BenchRow> rows;
  for (auto& set : sets) {
    double baseline_ms = 0;
    vbench::WorkloadResult noreuse_result;
    // Keep the FunCache engine alive to read distinct counts for Eq. 7.
    auto funcache_engine = Unwrap(
        vbench::MakeEngine(ReuseMode::kFunCache, video), "funcache engine");
    for (ReuseMode mode : {ReuseMode::kNoReuse, ReuseMode::kHashStash,
                           ReuseMode::kFunCache, ReuseMode::kEva}) {
      vbench::WorkloadResult r;
      if (mode == ReuseMode::kFunCache) {
        r = Unwrap(vbench::RunWorkload(funcache_engine.get(), set.queries),
                   "funcache workload");
      } else {
        r = RunMode(mode, video, set.queries);
      }
      if (mode == ReuseMode::kNoReuse) {
        baseline_ms = r.total_ms;
        noreuse_result = r;
      }
      std::printf("%-12s %-10s %12.3f %9.2fx %7.2f%%\n", set.name,
                  optimizer::ReuseModeName(mode), Hours(r.total_ms),
                  baseline_ms / r.total_ms, r.HitPercentage());
      MaybeDumpMetrics(set.name, optimizer::ReuseModeName(mode), r);
      rows.push_back({set.name, optimizer::ReuseModeName(mode), r.total_ms,
                      baseline_ms / r.total_ms, r.HitPercentage(),
                      r.view_bytes, r.AggregateJson()});
    }
    std::printf("%-12s upper bound on speedup (Eq. 7): %.2fx\n", set.name,
                SpeedupUpperBound(noreuse_result, *funcache_engine));
  }
  MaybeWriteJson(video.name, rows);
  return 0;
}
