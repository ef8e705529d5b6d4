// Engine-independent helpers of the benchmark: percentiles, FIFO stamp
// splitting, FNV-1a folding, metric tables, and the result-line JSON.
// Kept free of engine headers so the self-test can exercise them alone.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- FNV-1a over 64-bit words ----------------------------------------------

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

inline uint64_t FnvMix(uint64_t h, uint64_t word) {
  h ^= word;
  h *= 0x100000001b3ULL;
  return h;
}

inline uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// --- percentiles -------------------------------------------------------------

/// Nearest-rank index of whole percentile `p` (0..100) among `n` ascending
/// samples: rank ceil(p·n/100), clamped to [1, n], minus one. Integer
/// arithmetic, so p90 of 100 samples is exactly index 89.
inline size_t PercentileIndex(size_t n, int p) {
  if (n == 0) return 0;
  size_t rank = (static_cast<size_t>(p) * n + 99) / 100;
  rank = std::clamp<size_t>(rank, 1, n);
  return rank - 1;
}

/// Samples strictly above the nearest-rank percentile `p`.
inline size_t SamplesBeyond(size_t n, int p) {
  return n == 0 ? 0 : n - 1 - PercentileIndex(n, p);
}

/// The highest whole percentile that keeps at least `tail` samples beyond
/// it; -1 when no percentile does (n <= tail).
inline int HighestPercentileWithTail(size_t n, size_t tail) {
  for (int p = 100; p >= 0; --p) {
    if (SamplesBeyond(n, p) >= tail) return p;
  }
  return -1;
}

/// Nearest-rank percentile of `values` (copied and sorted); 0 when empty.
inline double Percentile(std::vector<double> values, int p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[PercentileIndex(values.size(), p)];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

// --- FIFO service stamps -----------------------------------------------------

/// Submit and completion stamps of one request on a single FIFO executor,
/// listed in completion order (which FIFO makes submission order too).
struct FifoStamp {
  double submit_ms = 0;
  double complete_ms = 0;
};

struct FifoSplit {
  double queue_wait_ms = 0;
  double service_ms = 0;
};

/// Splits each request's response time into queue wait and service time
/// from outside the executor: a request starts when it was submitted or
/// when its predecessor completed, whichever is later.
inline std::vector<FifoSplit> SplitFifo(const std::vector<FifoStamp>& stamps) {
  std::vector<FifoSplit> out;
  out.reserve(stamps.size());
  double prev_complete = -1e300;
  for (const FifoStamp& s : stamps) {
    const double start = std::max(s.submit_ms, prev_complete);
    out.push_back({start - s.submit_ms, s.complete_ms - start});
    prev_complete = s.complete_ms;
  }
  return out;
}

// --- metric tables -----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
};

/// Printed with --trace 0, for every workload.
inline const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"query_wall_ms.p50", "ms", "lower"},
      {"query_wall_ms.p90", "ms", "lower"},
      {"throughput_qps", "1/s", "higher"},
      {"sim_hours", "h_sim", "lower"},
      {"hit_pct", "%", "higher"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"view_bytes_per_row", "B/row", "lower"},
  };
  return defs;
}

/// Printed with --trace 1, for every workload. Simulated-clock figures use
/// the unit "ms_sim": they are deterministic for a seed by design.
inline const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"parser.parse_us.p50", "us", "lower"},
      {"optimizer.optimize_ms.p50", "ms", "lower"},
      {"symbolic.wall_ms", "ms", "lower"},
      {"symbolic.coverage_cells", "count", "lower"},
      {"symbolic.cache_hit_ratio", "ratio", "higher"},
      {"symbolic.cells_pruned", "count", "higher"},
      {"exec.execute_ms.p50", "ms", "lower"},
      {"exec.udf_invocations", "count", "lower"},
      {"exec.udf_reused", "count", "higher"},
      {"exec.sim_ms.udf", "ms_sim", "lower"},
      {"exec.sim_ms.read_video", "ms_sim", "lower"},
      {"exec.sim_ms.read_view", "ms_sim", "lower"},
      {"exec.sim_ms.materialize", "ms_sim", "lower"},
      {"exec.sim_ms.optimize", "ms_sim", "lower"},
      {"exec.sim_ms.ingest", "ms_sim", "lower"},
      {"storage.probe_hits", "count", "higher"},
      {"storage.probe_misses", "count", "lower"},
      {"storage.bloom_negatives", "count", "higher"},
      {"storage.segments_skipped", "count", "higher"},
      {"storage.segments_sealed", "count", "lower"},
      {"storage.seal_raw_bytes", "B", "lower"},
      {"storage.seal_encoded_bytes", "B", "lower"},
      {"storage.charged_bytes", "B", "lower"},
      {"storage.view_rows", "count", "lower"},
      {"storage.rss_growth_mb", "MB", "lower"},
      {"lifecycle.lifecycle_ms.p50", "ms", "lower"},
      {"lifecycle.evictions", "count", "lower"},
      {"lifecycle.evicted_bytes", "B", "lower"},
      {"lifecycle.admissions_denied", "count", "lower"},
      {"service.service_ms.p50", "ms", "lower"},
      {"wal.bytes_per_query", "B", "lower"},
      {"wal.records", "count", "lower"},
      {"engine.gap_ms.p50", "ms", "lower"},
  };
  return defs;
}

/// Metric names are limited to [A-Za-z0-9_.-], start with a letter or
/// digit, and are at most 64 characters long.
inline bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

// --- result line ---------------------------------------------------------------

struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0;
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Values print with 17 significant digits, as measured.
inline std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                              const std::vector<MetricValue>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
