#ifndef EVA_OBS_PROFILER_H_
#define EVA_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace eva::obs {

/// Sampling wall-clock profiler. Instrumented threads maintain a small
/// per-thread stack of tag literals ("optimize", "symbolic", "executor",
/// "udf", ...); a background sampler thread wakes at a fixed rate, snapshots
/// every registered thread's stack, and accumulates folded-stack counts
/// ("executor;udf 42") suitable for flamegraph.pl / speedscope.
///
/// Wall clock only: sampling never touches SimClock, so profiling cannot
/// perturb the paper's simulated-time measurements
/// (ObservabilityNeverChargesSimulatedClock stays the contract).
///
/// Concurrency design: each thread's stack is a fixed array of
/// std::atomic<const char*> plus an atomic depth. The owning thread is the
/// only writer (ProfScope push/pop); the sampler only reads. Pushes write
/// the frame first, then publish depth with release; the sampler reads
/// depth with acquire then the frames, so every frame it reads at
/// depth < n is a fully written pointer. A torn *logical* stack (pop
/// between the two reads) can at worst attribute one sample to a
/// just-exited scope — acceptable for a statistical profiler and free of
/// data races (TSan-clean by construction).
///
/// Tags MUST be string literals (or otherwise immortal strings): the
/// sampler dereferences the pointers asynchronously.
class ProfThreadState {
 public:
  static constexpr int kMaxDepth = 16;

  void Push(const char* tag) {
    int d = depth_.load(std::memory_order_relaxed);
    if (d < kMaxDepth) frames_[d].store(tag, std::memory_order_relaxed);
    depth_.store(d + 1, std::memory_order_release);
  }
  void Pop() {
    int d = depth_.load(std::memory_order_relaxed);
    if (d > 0) depth_.store(d - 1, std::memory_order_release);
  }

  /// Sampler-side snapshot: folds the stack into "tag1;tag2;..." form.
  /// Returns false when the stack is empty (thread idle).
  bool Snapshot(std::string* folded) const;

 private:
  std::atomic<int> depth_{0};
  std::atomic<const char*> frames_[kMaxDepth] = {};
};

class Profiler;

/// RAII scope tag. Pushes unconditionally (two relaxed stores — cheap
/// enough to leave always-on) so long-lived scopes such as a worker loop
/// entered before profiling starts are still visible to later samples.
class ProfScope {
 public:
  explicit ProfScope(const char* tag);
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;
  ~ProfScope();

 private:
  ProfThreadState* state_ = nullptr;
};

/// Process-wide sampler. Start(hz) spawns the sampler thread; Stop() joins
/// it and freezes the counts; RenderFolded() emits one "stack count" line
/// per distinct folded stack, sorted, trailing newline — the classic
/// collapsed format flamegraph.pl and speedscope ingest directly.
class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;
  ~Profiler() { Stop(); }

  /// Starts sampling at `hz` (clamped to [1, 10000]). Resets counts. No-op
  /// if already active.
  void Start(int hz);
  /// Stops the sampler thread (idempotent). Counts are retained until the
  /// next Start().
  void Stop();
  bool active() const { return active_.load(std::memory_order_acquire); }

  /// Blocking convenience: Start, sleep `seconds` of wall time, Stop,
  /// RenderFolded. Used by the /profile?seconds=N endpoint.
  std::string ProfileFor(double seconds, int hz);

  /// Collapsed folded-stack output ("executor;udf 17\n...").
  std::string RenderFolded() const;
  /// Total samples attributed to any non-empty stack since last Start().
  int64_t samples() const;

  /// Registry hooks (called by per-thread owners).
  void RegisterThread(ProfThreadState* state);
  void UnregisterThread(ProfThreadState* state);

  /// State for the calling thread, creating + registering on first use.
  /// A thread_local owner unregisters at thread exit under the registry
  /// mutex — the same mutex the sampler holds while reading stacks — so
  /// the sampler never dereferences a freed state.
  static ProfThreadState* ThisThread();

  static Profiler& Global();

 private:
  void SamplerLoop(int hz);

  std::atomic<bool> active_{false};
  std::mutex lifecycle_mu_;  // serializes Start/Stop (shell vs HTTP thread)
  std::thread sampler_;
  mutable std::mutex mu_;  // guards threads_, counts_
  std::vector<ProfThreadState*> threads_;
  std::map<std::string, int64_t> counts_;
  int64_t total_samples_ = 0;
};

}  // namespace eva::obs

#endif  // EVA_OBS_PROFILER_H_
