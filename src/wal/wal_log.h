#ifndef EVA_WAL_WAL_LOG_H_
#define EVA_WAL_WAL_LOG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "fault/fault_fs.h"
#include "storage/view_store.h"
#include "symbolic/predicate.h"

namespace eva::wal {

/// Binary CRC32-framed write-ahead log (docs/STREAMING.md).
///
/// Each record is one frame:
///
///   [u32 LE length][u32 LE crc][u8 type][payload bytes]
///
/// where length = 1 + payload.size() and crc = Crc32 over the type byte
/// followed by the payload. Frames are concatenated with no separator; the
/// file is valid up to the first frame whose header or checksum fails, and
/// anything past that point is a torn tail (replay truncates and
/// quarantines it — a WAL never needs a tmp+rename to stay consistent,
/// append+fsync is the commit primitive).
///
/// A segment_append payload is a zigzag-varint query id followed by a
/// one-segment `.evaseg` body (storage::SerializeSegments: magic, view
/// name, value schema, keys, plain-lane columns) — the same encoding and
/// the same validated reader as the snapshot's view files, and since the
/// chunk names its view and schema, no separate admission record is
/// needed. Every other payload is line-oriented text (PercentEscape
/// tokens, EncodePredicate coverage), so `strings wal.g3.evalog` stays
/// debuggable.
enum class WalRecordType : uint8_t {
  kCheckpoint = 1,       // generation + per-source visible horizons
  kSegmentAppend = 3,    // one view segment's new (key, rows) entries
  kCoverageUnion = 4,    // p_u <- Union(p_u, q)
  kCoverageSet = 5,      // p_u <- q wholesale (failure-path rollback)
  kCoverageRetraction = 6,  // p_u <- Subtract(p_u, q) (recovery guard)
  kViewEviction = 7,     // lifecycle eviction: segment drop + retraction
  kIngestAdvance = 8,    // streaming source's visible horizon moved
};

const char* WalRecordTypeName(WalRecordType type);

/// Canonical log file name for a checkpoint generation: "wal.g<G>.evalog".
/// The `.evalog` suffix is deliberately NOT a managed-persistence suffix
/// (storage::IsManagedFile), so snapshot recovery never quarantines or
/// garbage-collects the log living in the same directory.
std::string WalFileName(int64_t generation);

struct WalRecord {
  WalRecordType type = WalRecordType::kCheckpoint;
  std::string payload;
};

/// Encodes one record as a framed byte string.
std::string EncodeFrame(const WalRecord& rec);

/// Result of scanning a WAL byte buffer: every intact record in order,
/// the byte offset of the first bad frame (== size() when the file is
/// clean), and whether a torn tail followed.
struct WalScan {
  std::vector<WalRecord> records;
  size_t valid_bytes = 0;
  bool torn = false;
};

WalScan ScanWal(const std::string& bytes);

// --- typed record constructors -------------------------------------------

WalRecord CheckpointRecord(
    int64_t generation,
    const std::vector<std::pair<std::string, int64_t>>& horizons);

/// One (view, segment) chunk of freshly materialized keys: a plain
/// segment with ascending keys, as MaterializedView::TakeAppendedChunks
/// drains it from the view's append capture.
WalRecord SegmentAppendRecord(const std::string& name,
                              const Schema& value_schema, int64_t query_id,
                              const storage::ColumnarSegment& chunk);

WalRecord CoverageUnionRecord(const std::string& key,
                              const symbolic::Predicate& q);
WalRecord CoverageSetRecord(const std::string& key,
                            const symbolic::Predicate& q);
WalRecord CoverageRetractionRecord(const std::string& key,
                                   const symbolic::Predicate& q);

WalRecord ViewEvictionRecord(const std::string& view, int64_t segment_id,
                             int64_t first_frame, int64_t frame_end);

WalRecord IngestAdvanceRecord(const std::string& source, int64_t visible,
                              int64_t flushed);

// --- group-commit writer -------------------------------------------------

/// Stages records in memory and commits them as ONE append+fsync — the
/// group-commit batch. Nothing is durable until Commit returns OK; a
/// failed Commit leaves the staged batch intact so the caller can decide
/// between retry and discard. Driver-thread only (the engine serializes
/// every producer through the service FIFO).
class WalWriter {
 public:
  explicit WalWriter(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }

  void Stage(const WalRecord& rec);
  size_t staged_records() const { return staged_records_; }
  size_t staged_bytes() const { return pending_.size(); }

  /// Appends every staged frame in one AppendFile (append + fsync). On OK
  /// the batch is durable and the staging buffer is cleared.
  Status Commit(fault::FaultFs* fs);

  void DiscardStaged();

  uint64_t committed_records() const { return committed_records_; }
  uint64_t committed_bytes() const { return committed_bytes_; }

 private:
  std::string path_;
  std::string pending_;
  size_t staged_records_ = 0;
  uint64_t committed_records_ = 0;
  uint64_t committed_bytes_ = 0;
};

}  // namespace eva::wal

#endif  // EVA_WAL_WAL_LOG_H_
