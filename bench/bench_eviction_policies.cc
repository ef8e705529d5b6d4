// Eviction-policy comparison for the view lifecycle manager
// (docs/LIFECYCLE.md). Runs VBENCH-HIGH (EVA mode) on SHORT-UA-DETRAC
// under shrinking storage budgets and reports, per policy
// (cost-benefit / lru / fifo):
//   - hit percentage (reused / invocations) and simulated total time,
//   - eviction counts and the peak view-store footprint, which must stay
//     within the configured budget after every query.
// Unbounded EVA, the no-reuse lower bound, and the FunCache baseline frame
// the numbers. Budgets are fractions of the unbounded run's peak working
// set, so the bench self-calibrates across videos.
//
// Output: a table on stdout and a JSON dump to argv[1] (default
// "BENCH_eviction.json"). --quick prints the one-line gate JSON and exits
// 1 (with "FAIL quick ... fingerprint" on stderr) when a policy's eviction
// sequence, as (view, segment, bytes) per eviction, differs from the one
// recorded below.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "lifecycle/view_lifecycle.h"
#include "obs/event_log.h"

using namespace eva;  // NOLINT

namespace {

// FNV-1a fingerprints of the --quick run's eviction sequences, per policy
// in the order RunQuick runs them.
constexpr uint64_t kQuickEvictionFingerprints[] = {
    0x7c63e0735757e8b1ULL,  // cost-benefit
    0xbbaa86c4f7559d1eULL,  // lru
    0x3926eb2b54e8d670ULL,  // fifo
};

// FNV-1a over the view, segment id and bytes of every view_eviction record
// of the event log at `path`, in log order.
uint64_t EvictionFingerprint(const std::string& path) {
  uint64_t h = 1469598103934665603ULL;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"view_eviction\"") == std::string::npos) {
      continue;
    }
    for (const char* key : {"\"view\":", "\"segment_id\":", "\"bytes\":"}) {
      const size_t at = line.find(key);
      const size_t begin =
          at == std::string::npos ? line.size() : at + std::strlen(key);
      const size_t end = std::min(line.find_first_of(",}", begin), line.size());
      for (const char c : line.substr(begin, end - begin) + "|") {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

struct RunStats {
  double hit_pct = 0;
  double sim_ms = 0;
  double peak_bytes = 0;
  int64_t evictions = 0;
  double evicted_bytes = 0;
  bool within_budget = true;
  int64_t rows_out = 0;
};

// Runs the workload one query at a time so the peak footprint (and the
// budget invariant) is observable between queries. With `evictions_fp`,
// the evictions also go to an event log whose EvictionFingerprint it
// receives.
RunStats RunBudgeted(const catalog::VideoInfo& video,
                     const std::vector<std::string>& queries,
                     double budget_bytes, const std::string& policy,
                     uint64_t* evictions_fp = nullptr) {
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.storage_budget_bytes = budget_bytes;
  options.eviction_policy = policy;
  auto engine =
      bench::Unwrap(vbench::MakeEngine(options, video), "engine");
  obs::EventLog log;
  const std::string log_path =
      (std::filesystem::temp_directory_path() /
       ("eva_bench_evictions_" + std::to_string(getpid()) + ".jsonl"))
          .string();
  if (evictions_fp != nullptr) {
    std::filesystem::remove(log_path);
    if (log.Open(log_path, /*max_bytes=*/0)) {
      engine->lifecycle()->set_event_log(&log);
    }
  }
  RunStats stats;
  int64_t invocations = 0, reused = 0;
  for (const std::string& sql : queries) {
    auto r = bench::Unwrap(engine->Execute(sql), sql.c_str());
    invocations += r.metrics.TotalInvocations();
    reused += r.metrics.TotalReused();
    stats.sim_ms += r.metrics.TotalMs();
    stats.rows_out += r.metrics.rows_out;
    double bytes = engine->views().TotalSizeBytes();
    stats.peak_bytes = std::max(stats.peak_bytes, bytes);
    if (budget_bytes > 0 && bytes > budget_bytes) {
      stats.within_budget = false;
    }
  }
  stats.hit_pct = invocations == 0
                      ? 0
                      : 100.0 * static_cast<double>(reused) /
                            static_cast<double>(invocations);
  stats.evictions = engine->lifecycle()->evictions();
  stats.evicted_bytes = engine->lifecycle()->evicted_bytes();
  if (evictions_fp != nullptr) {
    engine->lifecycle()->set_event_log(nullptr);
    log.Close();
    *evictions_fp = EvictionFingerprint(log_path);
    std::filesystem::remove(log_path);
  }
  return stats;
}

void AppendStatsJson(std::string* json, const RunStats& s) {
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "\"hit_pct\": %.2f, \"sim_total_ms\": %.6f, "
                "\"peak_view_bytes\": %.0f, \"evictions\": %lld, "
                "\"evicted_bytes\": %.0f, \"within_budget\": %s, "
                "\"rows_out\": %lld",
                s.hit_pct, s.sim_ms, s.peak_bytes,
                static_cast<long long>(s.evictions), s.evicted_bytes,
                s.within_budget ? "true" : "false",
                static_cast<long long>(s.rows_out));
  *json += buf;
}

// --quick: one budget fraction (25% of the unbounded peak), all three
// policies, on the small quick-gate video. Simulated totals are
// deterministic, so check_regression.py can gate them tightly.
int RunQuick() {
  catalog::VideoInfo video = bench::QuickVideo();
  std::vector<std::string> queries =
      vbench::VbenchHigh(video.name, video.num_frames);
  bench::QuickProfileDump profile;
  RunStats unbounded = RunBudgeted(video, queries, 0, "cost-benefit");
  const double budget = unbounded.peak_bytes * 0.25;
  std::string out = "{\"benchmark\":\"eviction_policies\","
                    "\"mode\":\"quick\",\"results\":[";
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"eviction_policies/unbounded\","
                "\"sim_total_ms\":%.6f,\"hit_pct\":%.2f}",
                unbounded.sim_ms, unbounded.hit_pct);
  out += buf;
  bool ok = true;
  const char* const policies[] = {"cost-benefit", "lru", "fifo"};
  for (size_t p = 0; p < 3; ++p) {
    const char* policy = policies[p];
    uint64_t fp = 0;
    RunStats s = RunBudgeted(video, queries, budget, policy, &fp);
    if (fp != kQuickEvictionFingerprints[p]) {
      std::fprintf(stderr,
                   "FAIL quick %s eviction fingerprint %016llx != recorded "
                   "%016llx\n",
                   policy, static_cast<unsigned long long>(fp),
                   static_cast<unsigned long long>(
                       kQuickEvictionFingerprints[p]));
      ok = false;
    }
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"eviction_policies/%s\","
                  "\"sim_total_ms\":%.6f,\"hit_pct\":%.2f,"
                  "\"evictions\":%lld,\"within_budget\":%s}",
                  policy, s.sim_ms, s.hit_pct,
                  static_cast<long long>(s.evictions),
                  s.within_budget ? "true" : "false");
    out += buf;
  }
  out += "]}";
  profile.Finish();
  std::printf("%s\n", out.c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::QuickRequested(argc, argv)) return RunQuick();
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_eviction.json");
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  std::vector<std::string> queries =
      vbench::VbenchHigh(video.name, video.num_frames);

  bench::PrintHeader(
      "Eviction policies — VBENCH-HIGH / SHORT-UA-DETRAC (Table 2 setting)");

  // Unbounded EVA calibrates the working set and upper-bounds hit%.
  RunStats unbounded = RunBudgeted(video, queries, 0, "cost-benefit");
  const double peak = unbounded.peak_bytes;
  std::printf("unbounded EVA: hit %.1f%% | sim %.1f s | peak view bytes "
              "%.0f\n",
              unbounded.hit_pct, unbounded.sim_ms / 1000.0, peak);

  vbench::WorkloadResult funcache =
      bench::RunMode(optimizer::ReuseMode::kFunCache, video, queries);
  vbench::WorkloadResult noreuse =
      bench::RunMode(optimizer::ReuseMode::kNoReuse, video, queries);
  std::printf("FunCache baseline: hit %.1f%% | sim %.1f s\n",
              funcache.HitPercentage(), funcache.total_ms / 1000.0);
  std::printf("no-reuse baseline: sim %.1f s\n\n",
              noreuse.total_ms / 1000.0);

  const double fractions[] = {0.5, 0.25, 0.125};
  const char* const policies[] = {"cost-benefit", "lru", "fifo"};

  std::printf("%10s %14s %10s %12s %10s %8s\n", "budget", "policy",
              "hit %", "sim s", "evictions", "in-budget");
  std::string json = "{\n  \"benchmark\": \"eviction_policies\",\n";
  json += "  \"video\": \"short_ua_detrac\",\n";
  json += "  \"workload\": \"VBENCH-HIGH\",\n";
  char buf[200];
  std::snprintf(buf, sizeof(buf), "  \"peak_view_bytes\": %.0f,\n", peak);
  json += buf;
  json += "  \"eva_unbounded\": {";
  AppendStatsJson(&json, unbounded);
  json += "},\n";
  std::snprintf(buf, sizeof(buf),
                "  \"funcache\": {\"hit_pct\": %.2f, \"sim_total_ms\": "
                "%.6f},\n",
                funcache.HitPercentage(), funcache.total_ms);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"no_reuse\": {\"sim_total_ms\": %.6f},\n",
                noreuse.total_ms);
  json += buf;
  json += "  \"results\": [\n";

  bool ordering_holds = true;
  bool first_entry = true;
  for (double fraction : fractions) {
    const double budget = peak * fraction;
    double prev_hit = -1;  // cost-benefit >= lru >= fifo at one budget
    for (const char* policy : policies) {
      RunStats s = RunBudgeted(video, queries, budget, policy);
      std::printf("%9.0f%% %14s %9.1f%% %11.1fs %10lld %8s\n",
                  fraction * 100, policy, s.hit_pct, s.sim_ms / 1000.0,
                  static_cast<long long>(s.evictions),
                  s.within_budget ? "yes" : "NO");
      if (prev_hit >= 0 && s.hit_pct > prev_hit + 1e-9) {
        ordering_holds = false;
      }
      prev_hit = s.hit_pct;
      if (!first_entry) json += ",\n";
      first_entry = false;
      std::snprintf(buf, sizeof(buf),
                    "    {\"budget_fraction\": %.3f, \"budget_bytes\": "
                    "%.0f, \"policy\": ",
                    fraction, budget);
      json += buf;
      obs::AppendJsonString(&json, policy);
      json += ", ";
      AppendStatsJson(&json, s);
      json += "}";
    }
  }
  json += "\n  ],\n";
  json += std::string("  \"cost_benefit_ge_lru_ge_fifo\": ") +
          (ordering_holds ? "true" : "false") + "\n}\n";

  std::ofstream out(json_path);
  if (out) {
    out << json;
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "WARN cannot write %s\n", json_path.c_str());
  }
  return 0;
}
