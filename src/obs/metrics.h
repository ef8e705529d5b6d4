#ifndef EVA_OBS_METRICS_H_
#define EVA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace eva::obs {

/// Ordered label key/value pairs identifying one time series within a
/// metric family ({{"udf", "CarType"}}). Order is normalized internally.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter (Prometheus `counter`). Increments are
/// lock-free atomics, so the HTTP exporter can read a cell while the
/// driver thread bumps it. Whole-number deltas stay exact (doubles add
/// integers exactly up to 2^53).
class Counter {
 public:
  void Increment(double delta = 1.0) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Instantaneous value (Prometheus `gauge`). Atomic for the same reason as
/// Counter.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram (Prometheus `histogram`). Bucket semantics match
/// the exposition format: bucket i counts observations <= bounds[i]; an
/// implicit +Inf bucket catches the rest. Counts are stored per-bucket and
/// rendered cumulatively.
///
/// Observe() and the readers are guarded by a per-histogram mutex: an
/// observation updates three correlated fields (bucket, count, sum), so a
/// single lock is both simpler and cheaper than making the triple appear
/// atomic piecemeal. Observations are per-query, not per-row, so the lock
/// is far off any hot path.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  int64_t count() const;
  double sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1,
  /// the last entry being the +Inf bucket.
  std::vector<int64_t> bucket_counts() const;
  /// Cumulative count of observations <= bounds()[i] (or all observations
  /// when i == bounds().size()), as exposed in `_bucket{le=...}`.
  int64_t CumulativeCount(size_t i) const;
  /// Quantile estimate interpolated linearly within the bucket holding the
  /// q-th ranked observation (first bucket's lower edge is 0; the +Inf
  /// bucket clamps to the highest finite bound). This is the standard
  /// Prometheus histogram_quantile() estimate — exact enough for the bench
  /// regression gate, which compares like against like.
  double Quantile(double q) const;

 private:
  std::vector<double> bounds_;   // strictly increasing; immutable
  mutable std::mutex mu_;
  std::vector<int64_t> counts_;  // bounds_.size() + 1 (+Inf)
  int64_t count_ = 0;
  double sum_ = 0;
};

/// Default bucket boundaries for millisecond-scale latency histograms.
std::vector<double> DefaultLatencyBucketsMs();

/// Process-wide registry of counters, gauges, and histograms with
/// Prometheus text-format and JSON exposition. Zero external dependencies.
///
/// Cells returned by the Get* methods are stable for the registry's
/// lifetime, so hot paths look a series up once and increment through the
/// cached pointer. Registration is mutex-guarded; cell updates are
/// thread-safe too (atomic counters/gauges, mutexed histograms) because
/// the HTTP exporter renders them while queries run — see docs/RUNTIME.md
/// for the full thread map.
///
/// The `enabled` flag is the single cheap check instrumentation sites are
/// gated behind: when false, Get* returns nullptr and callers skip all
/// bookkeeping.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool v) { enabled_ = v; }

  /// Find-or-create. Returns nullptr when the registry is disabled or the
  /// name is already registered with a different type. Metric names must
  /// match [a-zA-Z_:][a-zA-Z0-9_:]*.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const std::vector<double>& bounds,
                          const Labels& labels = {});

  /// Prometheus text exposition format (version 0.0.4): HELP/TYPE comments
  /// followed by one sample line per series, families and series in
  /// deterministic (sorted) order.
  std::string RenderPrometheus() const;

  /// JSON exposition: {"metrics": [{name, type, help, series: [...]}]}.
  std::string RenderJson() const;

  /// Drops every registered family. Invalidate all cached cell pointers —
  /// only for tests and explicit operator commands (shell `.metrics reset`).
  void Reset();

  size_t NumFamilies() const;

  /// The process-wide registry every engine feeds by default.
  static MetricsRegistry& Global();

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Family {
    Type type;
    std::string help;
    std::vector<double> bounds;  // histograms only
    // Keyed by the rendered label text ('udf="CarType"') for deterministic
    // exposition order; unique_ptr keeps cell addresses stable.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
  };

  Family* GetFamily(const std::string& name, Type type,
                    const std::string& help);

  bool enabled_ = true;
  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace eva::obs

#endif  // EVA_OBS_METRICS_H_
