#ifndef EVA_INGEST_STREAM_INGESTOR_H_
#define EVA_INGEST_STREAM_INGESTOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/sim_clock.h"
#include "common/status.h"

namespace eva::ingest {

/// Per-source ingestion parameters.
struct StreamOptions {
  /// Frames visible the moment the stream is registered (a video table
  /// must never be empty).
  int64_t initial_frames = 1;
  /// Eventual length of the source; 0 = unbounded.
  int64_t total_frames = 0;
  /// Bound on the arrival buffer: frames that have arrived but not yet
  /// flushed. Arrivals past the bound are left in the (simulated) network
  /// — a later Arrive picks them up, mimicking backpressure.
  int64_t buffer_frames = 4096;
  /// Simulated decode+append cost charged to SimClock(kIngest) per flushed
  /// frame.
  double cost_ms_per_frame = 0.05;
};

/// Live state of one registered stream (the /ingest endpoint snapshot).
struct StreamState {
  std::string name;
  int64_t visible = 0;   // catalog horizon: frames queryable now
  int64_t buffered = 0;  // arrived, awaiting flush
  int64_t total = 0;     // eventual length (0 = unbounded)
  int64_t flushed_total = 0;
  int64_t ticks = 0;
};

/// Streaming frame ingestion with bounded per-source buffers and periodic
/// flush (docs/STREAMING.md). Frames "arrive" into a buffer; Flush makes
/// them visible by advancing the catalog's frame horizon — the synthetic
/// video substrate derives frame content from (seed, frame id), so
/// advancing the horizon IS the append. Views materialized at an earlier
/// horizon are incrementally maintained, not invalidated: their coverage
/// atoms claim only frames below the horizon at claim time (optimizer
/// clamp), and new frames extend coverage along the id dimension as
/// queries touch them.
///
/// Threading: driver-thread only. Every producer call rides the
/// EvaService FIFO, which is what keeps coverage transitions serializable
/// with queries (same contract as ViewStore::views()).
class StreamIngestor {
 public:
  StreamIngestor(catalog::Catalog* catalog, SimClock* clock)
      : catalog_(catalog), clock_(clock) {}

  /// Registers `info` as a streaming source: sets streaming/total fields,
  /// clamps the initial horizon, and adds it to the catalog.
  Status Register(catalog::VideoInfo info, const StreamOptions& opts);

  /// Buffers up to `frames` newly arrived frames (clamped to the buffer
  /// bound and the remaining length). Returns frames actually buffered.
  Result<int64_t> Arrive(const std::string& source, int64_t frames);

  struct FlushResult {
    int64_t flushed = 0;
    int64_t visible = 0;
    int64_t buffered = 0;
  };

  /// Makes every buffered frame visible: charges the SimClock and advances
  /// the catalog horizon. A no-op flush (empty buffer) is OK.
  Result<FlushResult> Flush(const std::string& source);

  /// One ingestion tick: Arrive + Flush.
  Result<FlushResult> IngestTick(const std::string& source, int64_t frames);

  /// Pulls visible horizons back from the catalog after WAL replay moved
  /// them (recovery path; buffered frames do not survive a crash — they
  /// were never acknowledged).
  void SyncVisible();

  std::vector<StreamState> Sources() const;

  /// Ingestion lag: frames arrived but not yet visible, summed over
  /// sources (the eva_ingest_lag_frames gauge).
  int64_t LagFrames() const;

  /// Test hook invoked inside Flush after the flush size is fixed but
  /// before the horizon advances — the window the engine's busy guard
  /// must cover (streaming_test's SaveViews-during-flush regression).
  void set_flush_hook(std::function<void()> hook) {
    flush_hook_ = std::move(hook);
  }

 private:
  struct Stream {
    StreamOptions opts;
    int64_t visible = 0;
    int64_t buffered = 0;
    int64_t flushed_total = 0;
    int64_t ticks = 0;
  };

  catalog::Catalog* catalog_;
  SimClock* clock_;
  std::map<std::string, Stream> streams_;
  std::function<void()> flush_hook_;
};

}  // namespace eva::ingest

#endif  // EVA_INGEST_STREAM_INGESTOR_H_
