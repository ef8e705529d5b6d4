// Segment-compression comparison for the storage codecs (docs/STORAGE.md).
// Runs VBENCH-HIGH (EVA mode) on SHORT-UA-DETRAC with sealed-segment
// compression off vs on and reports:
//   - per-view and aggregate bytes/row, raw vs encoded, and the resulting
//     compression ratio (the acceptance bar is >= 3x aggregate),
//   - eviction hit percentage under the same absolute byte budgets
//     (fractions of the *uncompressed* sealed peak) — compressed segments
//     fit more views per byte, so hit% must not drop at any budget,
//   - simulated query times, which must be bit-identical across the two
//     configurations (compression is a storage-layer concern only).
//
// Output: a table on stdout and a JSON dump to argv[1] (default
// "BENCH_compression.json"). `--quick` emits the one-line gate JSON that
// bench/check_regression.py diffs against BENCH_quick.json.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "lifecycle/view_lifecycle.h"
#include "storage/view_store.h"

using namespace eva;  // NOLINT

namespace {

struct ViewFootprint {
  std::string name;
  int64_t rows = 0;
  int64_t raw_bytes = 0;
  int64_t encoded_bytes = 0;
};

struct RunStats {
  double hit_pct = 0;
  double sim_ms = 0;
  double sealed_bytes = 0;  // TotalSizeBytes after sealing every segment
  int64_t evictions = 0;
  bool within_budget = true;
  int64_t rows_out = 0;
  int64_t total_rows = 0;
  int64_t total_raw = 0;
  int64_t total_encoded = 0;
  std::vector<ViewFootprint> views;
};

// Runs the workload one query at a time (budget invariant is observable
// between queries), then seals every surviving segment and collects the
// codec footprint. Budgets are absolute bytes so off/on runs compete for
// the same storage.
RunStats RunConfig(const catalog::VideoInfo& video,
                   const std::vector<std::string>& queries, bool compress,
                   double budget_bytes) {
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.storage_budget_bytes = budget_bytes;
  options.segment_compression = compress;
  auto engine = bench::Unwrap(vbench::MakeEngine(options, video), "engine");
  RunStats stats;
  int64_t invocations = 0, reused = 0;
  for (const std::string& sql : queries) {
    auto r = bench::Unwrap(engine->Execute(sql), sql.c_str());
    invocations += r.metrics.TotalInvocations();
    reused += r.metrics.TotalReused();
    stats.sim_ms += r.metrics.TotalMs();
    stats.rows_out += r.metrics.rows_out;
    if (budget_bytes > 0 &&
        engine->views().TotalSizeBytes() > budget_bytes) {
      stats.within_budget = false;
    }
  }
  stats.hit_pct = invocations == 0
                      ? 0
                      : 100.0 * static_cast<double>(reused) /
                            static_cast<double>(invocations);
  stats.evictions = engine->lifecycle()->evictions();
  engine->views().SealAllSegments();
  stats.sealed_bytes = engine->views().TotalSizeBytes();
  for (const auto& [name, view] : engine->views().views()) {
    storage::ViewCompressionStats cs = view->CompressionStats();
    ViewFootprint f;
    f.name = name;
    f.rows = view->num_rows();
    f.raw_bytes = cs.raw_bytes;
    f.encoded_bytes = cs.encoded_bytes;
    stats.total_rows += f.rows;
    stats.total_raw += f.raw_bytes;
    stats.total_encoded += f.encoded_bytes;
    stats.views.push_back(std::move(f));
  }
  return stats;
}

double BytesPerRow(int64_t bytes, int64_t rows) {
  return rows == 0 ? 0 : static_cast<double>(bytes) /
                             static_cast<double>(rows);
}

double Ratio(int64_t raw, int64_t encoded) {
  return encoded == 0 ? 0 : static_cast<double>(raw) /
                                static_cast<double>(encoded);
}

// --quick: unbounded off/on pair (sim totals must match — compression is
// invisible to the simulated clock) plus a budgeted pair at 25% of the
// uncompressed sealed peak. All gated fields are deterministic.
int RunQuick() {
  catalog::VideoInfo video = bench::QuickVideo();
  std::vector<std::string> queries =
      vbench::VbenchHigh(video.name, video.num_frames);
  bench::QuickProfileDump profile;
  RunStats off = RunConfig(video, queries, false, 0);
  RunStats on = RunConfig(video, queries, true, 0);
  const double budget = off.sealed_bytes * 0.25;
  RunStats off_b = RunConfig(video, queries, false, budget);
  RunStats on_b = RunConfig(video, queries, true, budget);
  char buf[280];
  std::string out = "{\"benchmark\":\"compression\","
                    "\"mode\":\"quick\",\"results\":[";
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"compression/off\",\"sim_total_ms\":%.6f,"
                "\"hit_pct\":%.2f,\"bytes_per_row\":%.2f}",
                off.sim_ms, off.hit_pct,
                BytesPerRow(off.total_encoded, off.total_rows));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",{\"name\":\"compression/on\",\"sim_total_ms\":%.6f,"
                "\"hit_pct\":%.2f,\"bytes_per_row\":%.2f,"
                "\"compression_ratio\":%.2f}",
                on.sim_ms, on.hit_pct,
                BytesPerRow(on.total_encoded, on.total_rows),
                Ratio(on.total_raw, on.total_encoded));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",{\"name\":\"compression/off-budget25\","
                "\"sim_total_ms\":%.6f,\"hit_pct\":%.2f,"
                "\"within_budget\":%s}",
                off_b.sim_ms, off_b.hit_pct,
                off_b.within_budget ? "true" : "false");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",{\"name\":\"compression/on-budget25\","
                "\"sim_total_ms\":%.6f,\"hit_pct\":%.2f,"
                "\"within_budget\":%s}",
                on_b.sim_ms, on_b.hit_pct,
                on_b.within_budget ? "true" : "false");
  out += buf;
  out += "]}";
  profile.Finish();
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::QuickRequested(argc, argv)) return RunQuick();
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_compression.json");
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  std::vector<std::string> queries =
      vbench::VbenchHigh(video.name, video.num_frames);

  bench::PrintHeader(
      "Segment compression — VBENCH-HIGH / SHORT-UA-DETRAC");

  // Unbounded runs give the footprint comparison and calibrate budgets.
  RunStats off = RunConfig(video, queries, false, 0);
  RunStats on = RunConfig(video, queries, true, 0);

  std::printf("%-28s %10s %10s %10s %8s %7s\n", "view", "rows", "raw KiB",
              "enc KiB", "B/row", "ratio");
  for (const ViewFootprint& f : on.views) {
    std::printf("%-28s %10lld %10.1f %10.1f %8.2f %6.2fx\n",
                f.name.c_str(), static_cast<long long>(f.rows),
                f.raw_bytes / 1024.0, f.encoded_bytes / 1024.0,
                BytesPerRow(f.encoded_bytes, f.rows),
                Ratio(f.raw_bytes, f.encoded_bytes));
  }
  const double agg_ratio = Ratio(on.total_raw, on.total_encoded);
  std::printf("%-28s %10lld %10.1f %10.1f %8.2f %6.2fx\n", "TOTAL",
              static_cast<long long>(on.total_rows),
              on.total_raw / 1024.0, on.total_encoded / 1024.0,
              BytesPerRow(on.total_encoded, on.total_rows), agg_ratio);
  std::printf("uncompressed bytes/row %.2f | compressed %.2f | "
              "aggregate ratio %.2fx (target >= 3x: %s)\n",
              BytesPerRow(off.total_encoded, off.total_rows),
              BytesPerRow(on.total_encoded, on.total_rows), agg_ratio,
              agg_ratio >= 3.0 ? "yes" : "NO");
  const bool sim_identical = off.sim_ms == on.sim_ms &&
                             off.rows_out == on.rows_out;
  std::printf("sim totals identical off/on: %s (%.1f s)\n\n",
              sim_identical ? "yes" : "NO", on.sim_ms / 1000.0);

  // Eviction under the same absolute budgets: fractions of the
  // *uncompressed* sealed peak, so "on" wins only by fitting more state
  // into the same bytes.
  const double peak = off.sealed_bytes;
  const double fractions[] = {0.5, 0.25, 0.125};
  std::printf("%10s %10s %10s %12s %10s %8s\n", "budget", "codec",
              "hit %", "sim s", "evictions", "in-budget");
  bool compression_never_hurts = true;
  std::string json = "{\n  \"benchmark\": \"compression\",\n";
  json += "  \"video\": \"short_ua_detrac\",\n";
  json += "  \"workload\": \"VBENCH-HIGH\",\n";
  char buf[300];
  std::snprintf(buf, sizeof(buf),
                "  \"uncompressed_sealed_peak_bytes\": %.0f,\n", peak);
  json += buf;
  std::snprintf(
      buf, sizeof(buf),
      "  \"bytes_per_row\": {\"raw\": %.2f, \"encoded\": %.2f},\n",
      BytesPerRow(on.total_raw, on.total_rows),
      BytesPerRow(on.total_encoded, on.total_rows));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"aggregate_ratio\": %.2f,\n  \"ratio_ge_3x\": %s,\n"
                "  \"sim_identical_off_on\": %s,\n",
                agg_ratio, agg_ratio >= 3.0 ? "true" : "false",
                sim_identical ? "true" : "false");
  json += buf;
  json += "  \"views\": [\n";
  for (size_t i = 0; i < on.views.size(); ++i) {
    const ViewFootprint& f = on.views[i];
    json += "    {\"name\": ";
    obs::AppendJsonString(&json, f.name);
    std::snprintf(buf, sizeof(buf),
                  ", \"rows\": %lld, \"raw_bytes\": %lld, "
                  "\"encoded_bytes\": %lld, \"ratio\": %.2f}%s\n",
                  static_cast<long long>(f.rows),
                  static_cast<long long>(f.raw_bytes),
                  static_cast<long long>(f.encoded_bytes),
                  Ratio(f.raw_bytes, f.encoded_bytes),
                  i + 1 < on.views.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n  \"results\": [\n";
  bool first_entry = true;
  for (double fraction : fractions) {
    const double budget = peak * fraction;
    double off_hit = 0;
    for (bool compress : {false, true}) {
      RunStats s = RunConfig(video, queries, compress, budget);
      std::printf("%9.1f%% %10s %9.1f%% %11.1fs %10lld %8s\n",
                  fraction * 100, compress ? "on" : "off", s.hit_pct,
                  s.sim_ms / 1000.0, static_cast<long long>(s.evictions),
                  s.within_budget ? "yes" : "NO");
      if (!compress) {
        off_hit = s.hit_pct;
      } else if (s.hit_pct + 1e-9 < off_hit) {
        compression_never_hurts = false;
      }
      if (!first_entry) json += ",\n";
      first_entry = false;
      std::snprintf(buf, sizeof(buf),
                    "    {\"budget_fraction\": %.3f, \"budget_bytes\": "
                    "%.0f, \"compression\": %s, \"hit_pct\": %.2f, "
                    "\"sim_total_ms\": %.6f, \"evictions\": %lld, "
                    "\"within_budget\": %s, \"rows_out\": %lld}",
                    fraction, budget, compress ? "true" : "false",
                    s.hit_pct, s.sim_ms,
                    static_cast<long long>(s.evictions),
                    s.within_budget ? "true" : "false",
                    static_cast<long long>(s.rows_out));
      json += buf;
    }
  }
  json += "\n  ],\n";
  json += std::string("  \"compression_never_hurts_hit_pct\": ") +
          (compression_never_hurts ? "true" : "false") + "\n}\n";
  std::printf("compression hit%% >= uncompressed at every budget: %s\n",
              compression_never_hurts ? "yes" : "NO");

  std::ofstream out(json_path);
  if (out) {
    out << json;
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "WARN cannot write %s\n", json_path.c_str());
  }
  return 0;
}
