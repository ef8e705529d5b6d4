#ifndef EVA_STORAGE_VIEW_STORE_H_
#define EVA_STORAGE_VIEW_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "storage/column_segment.h"

namespace eva::storage {

/// Per-segment bookkeeping for segment-granular eviction (src/lifecycle/).
/// A segment is a contiguous frame range [segment_id * segment_frames,
/// (segment_id + 1) * segment_frames); classifier keys (frame, obj) fall in
/// the segment of their frame. Ticks come from ViewStore::NextAccessTick()
/// and are assigned only from driver-thread call sites, so they are
/// deterministic.
struct SegmentInfo {
  int64_t keys = 0;
  int64_t rows = 0;
  uint64_t created_tick = 0;
  uint64_t last_access_tick = 0;
  int64_t last_access_query = -1;
};

/// Snapshot of one segment handed to eviction policies.
struct SegmentStats {
  int64_t segment_id = 0;
  int64_t first_frame = 0;  // covered frame range [first_frame, frame_end)
  int64_t frame_end = 0;
  double bytes = 0;
  SegmentInfo info;
};

/// What EvictSegment removed — the lifecycle manager turns the frame range
/// into the retraction predicate p_v.
struct EvictedSegment {
  int64_t first_frame = 0;
  int64_t frame_end = 0;
  int64_t keys = 0;
  int64_t rows = 0;
  double bytes = 0;
};

/// Outcome of one key of a ProbeBatch. kHitSkipped: the key is present but
/// its segment's zone map proved the caller's residual predicate
/// unsatisfiable, so its rows were not materialized (and must not be
/// charged as view reads).
enum class ProbeStatus : uint8_t { kMiss = 0, kHit, kHitSkipped };

struct ProbeOutcome {
  ProbeStatus status = ProbeStatus::kMiss;
  int32_t seg_index = -1;  // into ProbeResult::segments (kHit only)
  int32_t rows_begin = 0;  // row offset within the segment (kHit only)
  int32_t rows_count = 0;  // stored row count (kHit and kHitSkipped)
};

/// Result of one batch probe. Zero-copy: hits reference rows inside pinned
/// ColumnarSegment snapshots rather than materialized copies — the caller
/// reads cells via segment(oc).cols[c].At(row) (or RowAt). The pins keep
/// each snapshot alive past the probe's lock, and sealed segments are
/// immutable (a reseal swaps in a fresh one), so the references stay valid
/// under concurrent Puts, reseals, and eviction. Reusable across batches
/// (Clear keeps capacity).
struct ProbeResult {
  std::vector<ProbeOutcome> outcomes;  // parallel to the probed keys
  /// Snapshots of the segments the batch hit, pinned for the caller.
  std::vector<std::shared_ptr<const ColumnarSegment>> segments;
  int64_t segments_probed = 0;   // distinct segment runs zone-checked
  int64_t segments_skipped = 0;  // runs rejected by the zone callback
  /// Split-block Bloom filter outcomes (zero when segments carry no
  /// filter). A negative proves absence, so the key-index search was
  /// skipped; a false positive paid the search and still missed.
  int64_t bloom_hits = 0;
  int64_t bloom_negatives = 0;
  int64_t bloom_fps = 0;

  const ColumnarSegment& segment(const ProbeOutcome& oc) const {
    return *segments[static_cast<size_t>(oc.seg_index)];
  }

  void Clear() {
    outcomes.clear();
    segments.clear();
    segments_probed = 0;
    segments_skipped = 0;
    bloom_hits = 0;
    bloom_negatives = 0;
    bloom_fps = 0;
  }
};

/// Zone-map admission callback: returns false when no stored row of the
/// segment can satisfy the caller's residual predicate. Invoked under the
/// view lock, once per segment run per batch — it must not reenter the
/// view and must be a pure function of the segment (determinism).
using ZoneCheckFn = std::function<bool(const ColumnarSegment&)>;

/// Cumulative seal-time codec accounting, shared by every view of a
/// ViewStore (atomics: seals happen under per-view locks on any thread).
/// Monotone — bytes are added each time a segment is (re)built, so the
/// engine can publish them as `_total` counters.
struct SealTotals {
  std::atomic<int64_t> segments_sealed{0};
  std::atomic<int64_t> raw_bytes{0};
  std::atomic<int64_t> encoded_bytes{0};
  std::atomic<int64_t> codec_cols[ColumnVec::kNumCodecs] = {};
};

/// Current (not cumulative) codec footprint of one view's sealed-fresh
/// segments — the `.views` shell listing and /views snapshot surface it.
struct ViewCompressionStats {
  int64_t segments = 0;         // segments with any keys
  int64_t sealed_segments = 0;  // of those, sealed and fresh
  int64_t raw_bytes = 0;        // plain columnar footprint of sealed ones
  int64_t encoded_bytes = 0;    // held footprint of sealed ones
};

/// Materialized view of a UDF's results, keyed by input tuple. Presence is
/// tracked separately from rows so that "frame was processed, zero objects
/// detected" is distinguishable from "frame never processed" — the LEFT
/// OUTER JOIN + IS NULL pass-through guard of the materialization-aware
/// rewrite (§4.4, Fig. 4) depends on this.
///
/// Storage (docs/STORAGE.md): segments are the only copy of the rows. Each
/// segment is an immutable sealed ColumnarSegment plus an append-only open
/// tail of typed lanes; Put appends to the tail, and a seal merges sealed +
/// tail into a fresh ColumnarSegment. A segment is stale exactly when its
/// tail is non-empty.
///
/// Concurrency (docs/RUNTIME.md): Contains and ProbeBatch over sealed
/// segments take a shared lock and may run concurrently with other
/// readers; Put, sealing, and access stamping take the lock exclusively.
/// Probes read pinned sealed snapshots, never the tail.
class MaterializedView {
 public:
  MaterializedView(std::string name, Schema value_schema)
      : name_(std::move(name)), value_schema_(std::move(value_schema)) {}

  const std::string& name() const { return name_; }
  const Schema& value_schema() const { return value_schema_; }

  /// Presence check: the sealed key index (Bloom filter, then FindKey) of
  /// the key's segment plus the key index of its tail.
  bool Contains(const ViewKey& key) const;

  /// Batch probe over the sealed segments: one lock acquisition for the
  /// whole batch, a cursor-assisted search per key over the frame-sorted
  /// segment arrays (O(1) per key for ascending batches), and zero-copy
  /// results referencing pinned segment snapshots (see ProbeResult).
  /// Seals every touched segment that has a tail first (exclusive lock).
  /// When `can_match` is non-null it is consulted once per segment run; a
  /// rejected segment's hits come back kHitSkipped with no row references.
  /// Keys should be frame-ascending for the cursor to amortize, but any
  /// order is correct.
  void ProbeBatch(const std::vector<ViewKey>& keys,
                  const ZoneCheckFn& can_match, ProbeResult* out) const;

  /// Appends `key` with its result rows to its segment's tail unless the
  /// key is already present (append-only STORE semantics); returns whether
  /// it inserted. Row r's value cells are read in place from
  /// (*rows[r])[first_col...]; cells past a row's end read as NULL.
  /// `next_tick` is called once, only on insert, for the access stamp of
  /// the key's segment (eviction scoring).
  bool Put(const ViewKey& key, std::span<const Row* const> rows,
           size_t first_col, const std::function<uint64_t()>& next_tick,
           int64_t query_id);
  /// Put of whole rows with a fixed stamp (replay, snapshot load, tests).
  bool Put(const ViewKey& key, const std::vector<Row>& rows,
           uint64_t tick = 0, int64_t query_id = -1);

  /// Refreshes the access stamps of the segments of a batch of probe hits
  /// (ViewJoin), given as (frame, tick) in hit order, under one lock.
  /// Frames whose segment holds no keys are skipped.
  void RecordAccess(
      const std::vector<std::pair<int64_t, uint64_t>>& frame_ticks,
      int64_t query_id);

  int64_t num_keys() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return num_keys_;
  }
  int64_t num_rows() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return num_rows_;
  }

  /// Estimated on-disk footprint of the materialized results (§5.2).
  double SizeBytes() const;

  /// Segment-granular views of the footprint. Snapshot; bytes per segment
  /// use the SizeBytes() formula restricted to the segment's keys/rows.
  std::vector<SegmentStats> Segments() const;

  /// Drops segment `segment_id` and returns what was removed (zeroed
  /// result when the segment is empty/unknown). The lifecycle manager
  /// only evicts from the driver thread between queries.
  EvictedSegment EvictSegment(int64_t segment_id);

  /// Restores a segment's access stamps (persistence reload).
  void RestoreSegmentStamps(int64_t segment_id, const SegmentInfo& info);

  int64_t segment_frames() const { return segment_frames_; }
  void set_segment_frames(int64_t frames) {
    segment_frames_ = frames > 0 ? frames : 1;
  }

  /// Seal-time storage configuration (codecs + Bloom). Takes effect at the
  /// next (re)seal; the engine sets it before any Put. Reconstruction of
  /// values is bit-identical for every configuration.
  void set_build_options(const SegmentBuildOptions& options) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    build_options_ = options;
  }
  SegmentBuildOptions build_options() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return build_options_;
  }
  /// Sink for cumulative seal accounting (owned by the ViewStore).
  void set_seal_totals(SealTotals* totals) { seal_totals_ = totals; }

  /// Seals every segment that has a tail. The lifecycle manager calls it
  /// before byte accounting so the footprint is the encoded one regardless
  /// of probe history; persistence calls it so the on-disk codec matches
  /// the sealed state. Driver-thread cadence, but safe under concurrent
  /// probes (exclusive lock).
  void SealAllSegments() const;

  /// Sealed segments by id, sealing tails first (persistence runs between
  /// queries).
  std::vector<std::pair<int64_t, std::shared_ptr<const ColumnarSegment>>>
  SealedSegments() const;

  /// Plain segment (no codecs, no Bloom filter) holding the rows of `keys`
  /// — ascending, unique, and all in one segment; absent keys are skipped.
  /// Read from the sealed part or the tail without sealing (WAL chunks).
  std::shared_ptr<const ColumnarSegment> BuildChunk(
      const std::vector<ViewKey>& keys) const;

  /// Current codec footprint over sealed-fresh segments.
  ViewCompressionStats CompressionStats() const;

  /// Id of the last query that probed or materialized into this view
  /// (-1 when never accessed); the `.views` shell listing surfaces it.
  int64_t last_access_query() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return last_access_query_;
  }

  /// WAL append capture: while enabled, every key Put actually inserts
  /// (re-puts excluded) is recorded in insertion order. The engine drains
  /// the log at each group-commit point via TakeAppendedKeys, between
  /// queries.
  void set_capture_appends(bool enabled) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    capture_appends_ = enabled;
    if (!enabled) append_log_.clear();
  }
  std::vector<ViewKey> TakeAppendedKeys() {
    std::unique_lock<std::shared_mutex> lock(mu_);
    std::vector<ViewKey> out;
    out.swap(append_log_);
    return out;
  }

 private:
  struct Segment {
    SegmentInfo info;
    std::shared_ptr<const ColumnarSegment> sealed;  // null until first seal
    SegmentCells tail;  // open tail, keys in insertion order
    std::unordered_set<ViewKey, ViewKeyHash> tail_index;  // Put's check
  };
  /// A key's rows for a gather: sealed key index or tail key position.
  struct KeyRef {
    ViewKey key;
    bool in_tail = false;
    size_t pos = 0;
  };

  int64_t SegmentOf(int64_t frame) const {
    // Floor division so negative frames (never produced, but cheap to get
    // right) still map to a stable segment.
    int64_t q = frame / segment_frames_;
    if (frame % segment_frames_ != 0 && frame < 0) --q;
    return q;
  }

  /// Caller holds mu_ (any mode).
  bool ContainsLocked(const Segment& seg, const ViewKey& key) const;
  /// Whether a segment touched by `keys` has an open tail; with `seal`
  /// (exclusive lock) reseals every such segment. Caller holds mu_.
  bool TouchedTailsLocked(const std::vector<ViewKey>& keys, bool seal) const;
  /// Tail key positions in ascending key order.
  static std::vector<uint32_t> TailOrder(const SegmentCells& tail);
  /// Cells of `refs` (ascending keys of `seg`) in seal order. Caller
  /// holds mu_.
  SegmentCells GatherLocked(const Segment& seg,
                            const std::vector<KeyRef>& refs) const;
  /// Merges sealed + tail into a fresh sealed segment and records seal
  /// accounting. Caller holds mu_ exclusively.
  void SealSegmentLocked(Segment* seg) const;
  /// Charged footprint of one segment: the encoded bytes when codecs are
  /// on and the segment has no tail, the synthetic §5.2 formula otherwise
  /// (identical to the pre-codec accounting). Caller holds mu_.
  double SegmentBytesLocked(const Segment& seg) const;
  /// Serves the batch; every touched segment must have no tail. Caller
  /// holds mu_ (any mode).
  void ProbeBatchLocked(const std::vector<ViewKey>& keys,
                        const ZoneCheckFn& can_match, ProbeResult* out) const;

  std::string name_;
  Schema value_schema_;
  mutable std::shared_mutex mu_;
  /// Keyed by segment id. Mutable: sealing rewrites a segment's physical
  /// form, not its contents (under the exclusive lock).
  mutable std::map<int64_t, Segment> segments_;
  int64_t num_keys_ = 0;
  int64_t num_rows_ = 0;
  int64_t segment_frames_ = 512;
  SegmentBuildOptions build_options_;
  SealTotals* seal_totals_ = nullptr;  // optional, ViewStore-owned
  int64_t last_access_query_ = -1;
  bool capture_appends_ = false;
  std::vector<ViewKey> append_log_;  // keys inserted since the last drain
};

/// Registry of materialized views, one per UDF signature (§3.1 step 2).
///
/// Concurrency: registry operations (GetOrCreate / Find / totals) are
/// guarded by a shared_mutex — lookups are shared, creation is exclusive.
/// View pointers are stable for the registry's lifetime (unique_ptr-owned),
/// so operators may cache a MaterializedView* for a whole batch and go
/// through that view's own probe/materialize locking. views() requires
/// external quiescence.
class ViewStore {
 public:
  /// Returns the view for `name`, creating it with `value_schema` when
  /// missing.
  MaterializedView* GetOrCreate(const std::string& name,
                                const Schema& value_schema);
  /// Returns the view or nullptr.
  MaterializedView* Find(const std::string& name);
  const MaterializedView* Find(const std::string& name) const;

  /// Total footprint across all views (the §5.2 storage number).
  double TotalSizeBytes() const;

  void Clear() {
    std::unique_lock<std::shared_mutex> lock(mu_);
    views_.clear();
  }

  /// Requires quiescence: no concurrent GetOrCreate/Evict in flight.
  const std::map<std::string, std::unique_ptr<MaterializedView>>& views()
      const {
    return views_;
  }

  /// Monotone tick for segment access stamps. Incremented only from
  /// driver-thread call sites (ViewJoin probe loop, StoreOp flush), so the
  /// sequence is deterministic.
  uint64_t NextAccessTick() { return ++segment_clock_; }
  /// Current reading of the access clock without advancing it (eviction
  /// policies use tick distance as a fine-grained recency measure).
  uint64_t current_tick() const { return segment_clock_.load(); }

  /// WAL append capture across the whole registry: applies to every
  /// existing view and to views created later (GetOrCreate inherits it).
  void set_capture_appends(bool enabled) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    capture_appends_ = enabled;
    for (auto& [name, view] : views_) view->set_capture_appends(enabled);
  }
  bool capture_appends() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return capture_appends_;
  }

  /// Segment width (frames) applied to views created after the call.
  /// The engine sets it once at construction, before any view exists.
  void set_segment_frames(int64_t frames) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    segment_frames_ = frames > 0 ? frames : 1;
  }
  int64_t segment_frames() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return segment_frames_;
  }

  /// Seal-time storage configuration applied to every existing view and
  /// inherited by views created later.
  void set_build_options(const SegmentBuildOptions& options) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    build_options_ = options;
    for (auto& [name, view] : views_) view->set_build_options(options);
  }
  SegmentBuildOptions build_options() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return build_options_;
  }

  /// Cumulative seal accounting across every view (engine metrics).
  const SealTotals& seal_totals() const { return seal_totals_; }

  /// Seals every segment of every view (lifecycle accounting / save).
  /// Driver-thread cadence like views().
  void SealAllSegments() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto& [name, view] : views_) view->SealAllSegments();
  }

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<MaterializedView>> views_;
  int64_t segment_frames_ = 512;
  SegmentBuildOptions build_options_;
  mutable SealTotals seal_totals_;
  bool capture_appends_ = false;
  std::atomic<uint64_t> segment_clock_{0};
};

}  // namespace eva::storage

#endif  // EVA_STORAGE_VIEW_STORE_H_
