#ifndef EVA_FAULT_FAULT_INJECTOR_H_
#define EVA_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace eva::fault {

/// What a triggered fault rule does at its point (docs/RELIABILITY.md §3).
enum class FaultAction {
  kNone,        // no rule fired — proceed normally
  kFail,        // the operation returns a Status error (permanent)
  kShortWrite,  // fs only: write a truncated file, skip fsync, report OK —
                // the silent torn write the manifest CRC must catch
  kError,       // transient error — UDF evaluations retry with backoff
  kCrash,       // simulated process death: the injector halts; every later
                // filesystem operation fails with no side effect, exactly
                // as if the process had died at this point
  kCrashExit,   // real process death: std::_Exit(137) at the point (shell
                // kill-and-recover demos; never used by in-process tests)
};

/// One schedule entry: fire `action` at points matching `pattern` (a glob,
/// '*' matches any run including empty) on occurrences [first, last] of
/// that exact point name (1-based; last < 0 means open-ended).
struct FaultRule {
  FaultAction action = FaultAction::kNone;
  std::string pattern;
  int64_t first = 1;
  int64_t last = 1;
};

/// A parsed fault schedule. Grammar (see docs/RELIABILITY.md):
///
///   schedule := entry (';' entry)*
///   entry    := action '@' pattern ['#' occ]
///   action   := 'crash' | 'crash-exit' | 'fail' | 'shortwrite' | 'error'
///   occ      := N | N-M | N- | '*'          (default: 1 — first hit only)
///
/// e.g. "crash@fs.rename:MANIFEST#1" or "error@udf:CarType:*#1-2".
struct FaultSchedule {
  std::vector<FaultRule> rules;
  std::string text;  // original schedule text, for display

  bool empty() const { return rules.empty(); }
};

Result<FaultSchedule> ParseFaultSchedule(const std::string& text);

/// One consulted point, for recording mode and the shell's .faults listing.
struct FaultHit {
  std::string point;
  int64_t occurrence = 0;  // 1-based per exact point name
  FaultAction action = FaultAction::kNone;
};

/// Deterministic fault injector. Code under test consults `At(point)` at
/// named fault points; the injector counts occurrences PER EXACT POINT NAME
/// and fires the first rule whose pattern matches and whose occurrence
/// range contains the count. Because counters are keyed by the full point
/// name (e.g. "udf:CarType:17:3"), decisions do not depend on evaluation
/// order — the same schedule fires the same faults at the same points,
/// which is what makes the differential-oracle tests meaningful.
///
/// After a kCrash fires the injector is `halted()`: every later At() (and
/// therefore every FaultFs operation) reports kCrash with no side effects,
/// modeling the rest of the process lifetime after the simulated death.
///
/// Recording mode logs every consulted point without firing anything; the
/// crash-matrix test uses one recorded save to enumerate the exact points
/// it then crashes one by one.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultSchedule schedule)
      : schedule_(std::move(schedule)) {}

  /// Cheap activity probe — call sites skip building point names (and keep
  /// ExecContext::faults null) when neither rules nor recording are on.
  bool active() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recording_ || !schedule_.rules.empty();
  }

  /// Consults the schedule at `point`. Thread-safe.
  FaultAction At(const std::string& point);

  void set_recording(bool on) {
    std::lock_guard<std::mutex> lock(mu_);
    recording_ = on;
  }

  bool halted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return halted_;
  }

  /// Replaces the schedule and clears all counters / the halt latch.
  void SetSchedule(FaultSchedule schedule);
  /// Clears occurrence counters, the hit log, and the halt latch, keeping
  /// the schedule (re-arm between runs).
  void Reset();

  std::string schedule_text() const {
    std::lock_guard<std::mutex> lock(mu_);
    return schedule_.text;
  }

  /// Every point consulted since the last Reset, in consultation order
  /// (driver-thread reads only, like ViewStore::views()).
  std::vector<FaultHit> hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }

  /// Faults fired (non-kNone decisions) since the last Reset.
  int64_t fired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fired_;
  }

  /// Distinct points consulted since the last Reset.
  int64_t points_consulted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(counts_.size());
  }

 private:
  mutable std::mutex mu_;
  FaultSchedule schedule_;
  bool recording_ = false;
  bool halted_ = false;
  int64_t fired_ = 0;
  std::unordered_map<std::string, int64_t> counts_;  // point -> occurrences
  std::vector<FaultHit> hits_;
};

/// Glob match with '*' wildcards only (no character classes). Exposed for
/// tests.
bool GlobMatch(const std::string& pattern, const std::string& text);

}  // namespace eva::fault

#endif  // EVA_FAULT_FAULT_INJECTOR_H_
