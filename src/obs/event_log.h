#ifndef EVA_OBS_EVENT_LOG_H_
#define EVA_OBS_EVENT_LOG_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace eva::obs {

/// One structured event, built field-by-field. Values are rendered to JSON
/// at insertion time so Append() is a single formatted write. Every event
/// carries `type`; the writer adds `seq` (monotonic per log) and `wall_us`
/// (microseconds since the log was opened — wall clock, never SimClock).
///
/// Record types emitted by the engine (docs/OBSERVABILITY.md has the full
/// schema): query_start, query_end, query_error, view_admission,
/// view_eviction, coverage_retraction, udf_retry, recovery.
class Event {
 public:
  explicit Event(const std::string& type) { Str("type", type); }

  Event& Str(const std::string& key, const std::string& value);
  Event& Num(const std::string& key, double value);
  Event& Int(const std::string& key, int64_t value);
  Event& Bool(const std::string& key, bool value);

  /// The fields rendered as a JSON object, with `seq` and `wall_us`
  /// prepended (passed by the writer).
  std::string RenderLine(int64_t seq, int64_t wall_us) const;

 private:
  // (key, pre-rendered JSON value) in insertion order.
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Append-only JSONL event log with size-based rotation: when the current
/// file exceeds `max_bytes` after a write, it is renamed to `<path>.1`
/// (replacing any previous rotation) and a fresh file is opened — a
/// two-generation scheme that bounds disk use at ~2x max_bytes without a
/// compaction thread.
///
/// Thread-safe: a single mutex guards the stream, sequence number, and
/// rotation, so Append() may be called from any thread. All timestamps are
/// wall-clock — the event log never charges SimClock.
class EventLog {
 public:
  EventLog() = default;
  ~EventLog() { Close(); }
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Opens (appending) `path`. Returns false and stays disabled when the
  /// file cannot be opened. max_bytes <= 0 disables rotation.
  bool Open(const std::string& path, int64_t max_bytes);
  void Close();
  bool enabled() const { return enabled_; }
  const std::string& path() const { return path_; }

  void Append(const Event& event);

  int64_t events_written() const;
  int64_t rotations() const;

 private:
  void RotateLocked();

  mutable std::mutex mu_;
  bool enabled_ = false;
  std::string path_;
  int64_t max_bytes_ = 0;
  std::ofstream out_;
  int64_t bytes_written_ = 0;  // current generation
  int64_t seq_ = 0;
  int64_t rotations_ = 0;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace eva::obs

#endif  // EVA_OBS_EVENT_LOG_H_
