#ifndef EVA_OBS_TRACER_H_
#define EVA_OBS_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/sim_clock.h"

namespace eva::obs {

/// One completed (or still-open) span. Durations are tracked on both
/// clocks: the engine's deterministic simulated clock (what the paper's
/// figures measure) and the host wall clock (what the repro itself costs).
struct SpanRecord {
  std::string name;
  std::string category;  // span taxonomy — see docs/OBSERVABILITY.md
  int parent = -1;       // index into Tracer::spans(); -1 = root span
  int depth = 0;
  bool open = false;
  double sim_start_ms = 0;
  double sim_end_ms = 0;
  double wall_start_us = 0;
  double wall_end_us = 0;
  std::vector<std::pair<std::string, std::string>> attributes;

  double sim_ms() const { return sim_end_ms - sim_start_ms; }
  double wall_us() const { return wall_end_us - wall_start_us; }
};

class Tracer;

/// RAII handle for an open span. Default-constructed (or moved-from)
/// handles are inert — StartSpan on a disabled tracer returns one, making
/// the disabled path a single branch.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  ~Span() { End(); }

  bool active() const { return tracer_ != nullptr; }
  int index() const { return index_; }

  void SetAttribute(const std::string& key, const std::string& value);
  void SetAttribute(const std::string& key, double value);
  void SetAttribute(const std::string& key, int64_t value);

  /// Closes the span (idempotent; also run by the destructor).
  void End();

 private:
  friend class Tracer;
  Span(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}

  Tracer* tracer_ = nullptr;
  int index_ = -1;
};

/// Hierarchical span collector for one engine session. Parentage follows
/// the open-span stack: a span started while another is open becomes its
/// child. Exports as an indented text tree and as Chrome `chrome://tracing`
/// / Perfetto JSON (timestamps on the simulated clock, wall time in args).
///
/// Span storage is bounded (`max_spans`); once full, new spans are counted
/// as dropped instead of recorded, so long sessions cannot grow without
/// limit.
///
/// Thread-safety contract (docs/RUNTIME.md): span *creation* is
/// DRIVER-THREAD ONLY. Spans model the engine's query lifecycle (parse →
/// optimize → execute), which runs on one thread; per-operator work is
/// attributed via the per-node OperatorStats instead. A debug assert
/// enforces that while a span is open, further span creation happens on
/// the thread that opened it; the stack-owner pin resets when the open
/// stack empties, so *sequential* use from different threads remains legal.
///
/// All mutators and renderers additionally take an internal mutex so the
/// telemetry HTTP thread can render /trace concurrently with a running
/// query. Only the raw spans() accessor bypasses the lock — callers must
/// be on the driver thread with no HTTP exporter running, or quiesced.
class MetricsRegistry;
class Counter;

class Tracer {
 public:
  explicit Tracer(const SimClock* clock = nullptr) : clock_(clock) {}

  void set_clock(const SimClock* clock) { clock_ = clock; }
  bool enabled() const { return enabled_; }
  void set_enabled(bool v) { enabled_ = v; }
  void set_max_spans(size_t n) { max_spans_ = n; }

  /// Mirrors the dropped-span count into
  /// `eva_trace_spans_dropped_total` in `registry` — without this, span
  /// overflow is invisible outside RenderText. Pass nullptr to detach.
  void set_registry(MetricsRegistry* registry);

  /// Opens a span as a child of the innermost open span.
  Span StartSpan(const std::string& name, const std::string& category = "");

  /// Records an already-measured span (used to attach per-operator
  /// execution stats to the trace after a plan drain). Returns the span
  /// index, or -1 when disabled/full.
  int AddCompletedSpan(const std::string& name, const std::string& category,
                       int parent, double sim_start_ms, double sim_end_ms,
                       double wall_start_us, double wall_end_us);

  void AddAttribute(int index, const std::string& key,
                    const std::string& value);

  /// Raw span storage, no locking: driver-thread only, and only while no
  /// concurrent scraper can be rendering (tests, post-run reporting).
  const std::vector<SpanRecord>& spans() const { return spans_; }
  int64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Index of the innermost open span, -1 when none.
  int current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return CurrentLocked();
  }

  void Clear();

  /// Indented text tree: one line per span with both durations and
  /// attributes.
  std::string RenderText() const;

  /// Chrome trace-event JSON (array of "X" complete events, ts/dur in
  /// simulated microseconds; wall-clock duration in args). Load via
  /// chrome://tracing or https://ui.perfetto.dev.
  std::string RenderChromeTrace() const;

  /// Current simulated-clock total in ms (0 when no clock attached).
  double SimNowMs() const;
  /// Microseconds of wall time since this tracer was constructed.
  double WallNowUs() const;

 private:
  friend class Span;
  void EndSpan(int index);
  int CurrentLocked() const {
    return open_stack_.empty() ? -1 : open_stack_.back();
  }
  void CountDrop();

  const SimClock* clock_ = nullptr;
  bool enabled_ = true;
  size_t max_spans_ = 100000;
  std::atomic<int64_t> dropped_{0};
  std::atomic<Counter*> dropped_counter_{nullptr};
  mutable std::mutex mu_;  // guards spans_, open_stack_
  std::vector<SpanRecord> spans_;
  std::vector<int> open_stack_;
  /// Thread that pushed the bottom of the current open-span stack; only
  /// meaningful while open_stack_ is non-empty (debug contract check).
  std::thread::id stack_owner_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace eva::obs

#endif  // EVA_OBS_TRACER_H_
