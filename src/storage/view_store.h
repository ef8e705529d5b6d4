#ifndef EVA_STORAGE_VIEW_STORE_H_
#define EVA_STORAGE_VIEW_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
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
};

/// Outcome of one key of a ProbeBatch: a miss, or a hit with the key's
/// stored rows (possibly none) in one pinned segment snapshot.
enum class ProbeStatus : uint8_t { kMiss = 0, kHit };

struct ProbeOutcome {
  ProbeStatus status = ProbeStatus::kMiss;
  int32_t seg_index = -1;  // into ProbeResult::segments (kHit only)
  int32_t rows_begin = 0;  // row offset within the segment (kHit only)
  int32_t rows_count = 0;  // stored row count (kHit only)
};

/// One run of a ProbeBatch: consecutive probe keys in one segment's frame
/// range, outcomes [previous run's end, end).
struct ProbeRun {
  int64_t segment_id = 0;
  uint32_t end = 0;
};

/// Result of one batch probe. Zero-copy: hits reference rows inside pinned
/// ColumnarSegment snapshots rather than materialized copies — the caller
/// reads cells via segment(oc).cols[c].At(row) (or RowAt). The pins keep
/// each snapshot alive past the probe's lock, and sealed segments are
/// immutable (a reseal swaps in a fresh one), so the references stay valid
/// under concurrent PutBatches, reseals, and eviction. Reusable across batches
/// (Clear keeps capacity).
struct ProbeResult {
  std::vector<ProbeOutcome> outcomes;  // parallel to the probed keys
  std::vector<ProbeRun> runs;          // in key order, covering outcomes
  /// Snapshots of the segments the batch hit, pinned for the caller.
  std::vector<std::shared_ptr<const ColumnarSegment>> segments;

  const ColumnarSegment& segment(const ProbeOutcome& oc) const {
    return *segments[static_cast<size_t>(oc.seg_index)];
  }

  void Clear() {
    outcomes.clear();
    runs.clear();
    segments.clear();
  }
};

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

/// Dictionary code tables of one STORE source (a set of execution lanes)
/// against the tails of one view it appends to: one table per (source
/// lane, tail lane) pair, as TailLane::AppendFrom takes them. Tables are
/// keyed by the tail, not the segment: a seal or an eviction restarts a
/// segment's tail under a new id, so a table never maps into a tail that
/// is gone. Clear() whenever the source lanes change.
class PutRemaps {
 public:
  void Clear() {
    entries_.clear();
    last_ = 0;
  }

 private:
  friend class MaterializedView;
  struct Entry {
    uint64_t tail_id = 0;
    std::vector<std::vector<int32_t>> cols;  // per value-schema field
  };
  /// The tables for tail `tail_id`.
  std::vector<std::vector<int32_t>>& For(uint64_t tail_id, size_t ncols);

  std::vector<Entry> entries_;  // a chunk spans a few tails
  size_t last_ = 0;             // entry of the previous lookup
};

/// Materialized view of a UDF's results, keyed by input tuple. Presence is
/// tracked separately from rows so that "frame was processed, zero objects
/// detected" is distinguishable from "frame never processed" — the LEFT
/// OUTER JOIN + IS NULL pass-through guard of the materialization-aware
/// rewrite (§4.4, Fig. 4) depends on this.
///
/// Storage (docs/STORAGE.md): segments are the only copy of the rows. Each
/// segment is an immutable sealed ColumnarSegment plus an append-only open
/// tail of typed lanes whose keys are strictly ascending; PutBatch appends
/// to the tail, and a seal turns sealed + tail into a fresh
/// ColumnarSegment. A segment is stale exactly when its tail is non-empty.
///
/// Concurrency (docs/RUNTIME.md): Contains and ProbeBatch over sealed
/// segments take a shared lock and may run concurrently with other
/// readers; PutBatch, sealing, and access stamping take the lock
/// exclusively. Probes read pinned sealed snapshots, never the tail.
class MaterializedView {
 public:
  MaterializedView(std::string name, Schema value_schema)
      : name_(std::move(name)), value_schema_(std::move(value_schema)) {}

  const std::string& name() const { return name_; }
  const Schema& value_schema() const { return value_schema_; }

  /// Presence check: the sealed key index (FindKey) of the key's segment
  /// plus its tail's keys.
  bool Contains(const ViewKey& key) const;

  /// Batch probe over the sealed segments, a segment run at a time: the
  /// keys split into runs of consecutive keys in one segment's frame
  /// range (ProbeResult::runs), and each run takes one segment lookup, one
  /// reseal when the segment has a tail (exclusive lock), and one merge
  /// walk of the sealed key index (FindKey with a KeyCursor). One shared
  /// lock for the batch when no touched segment has a tail. Results are
  /// zero-copy references into pinned segment snapshots (see
  /// ProbeResult). Keys should be frame-ascending for the walk to
  /// amortize, but any order is correct.
  void ProbeBatch(const std::vector<ViewKey>& keys, ProbeResult* out) const;

  /// Appends each key of `keys` with its result rows to its segment's
  /// tail unless the key is already present (append-only STORE semantics;
  /// a key repeated in the batch is present from its first occurrence).
  /// `known_absent` says the caller's own ProbeBatch missed every key and
  /// nothing has written the view since, so each key is checked against
  /// the tail only, not the sealed key index; a known-absent key that is
  /// in fact sealed makes the next seal of its segment abort. A key at or below
  /// its tail's last key first seals the segment, so tails stay
  /// ascending (only WAL replay puts keys in such an order). Key k's
  /// rows are rows[key_rows[k] .. key_rows[k + 1]) (key_rows has
  /// keys.size() + 1 entries), as indices into `cols`, one column per
  /// value-schema field (STORE's chunk lanes, or decoded snapshot / WAL
  /// columns in any codec); fields past cols.size() read as NULL. The
  /// cells are copied with one TailLane::AppendGather per column and run
  /// of keys in one segment, dictionary codes mapped through `remaps` (one
  /// per set of source columns). `next_tick` is called once per inserted
  /// key, in key order, for the access stamp of the key's segment
  /// (eviction scoring). `inserted` gets one flag per key. One exclusive
  /// lock for the batch.
  void PutBatch(std::span<const ViewKey> keys, bool known_absent,
                std::span<const uint32_t> key_rows,
                std::span<const uint32_t> rows,
                std::span<const ColumnVec* const> cols,
                const std::function<uint64_t()>& next_tick, int64_t query_id,
                PutRemaps* remaps, std::vector<uint8_t>* inserted);

  /// Refreshes the access stamps of the segments of a batch of probe hits
  /// (ViewJoin), given in hit order as (segment id, tick of the last hit)
  /// per ProbeRun with hits, under one lock: a segment keeps the tick of
  /// its last entry. Segments that hold no keys are skipped.
  void RecordAccess(
      const std::vector<std::pair<int64_t, uint64_t>>& segment_ticks,
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

  /// Segment-granular views of the footprint. Snapshot; each segment's
  /// bytes are its SizeBytes() charge.
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

  /// Seal-time storage configuration (codecs). Takes effect at the
  /// next (re)seal; the engine sets it before any PutBatch. Reconstruction of
  /// values is bit-identical for every configuration.
  void set_build_options(const SegmentBuildOptions& options);
  SegmentBuildOptions build_options() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return build_options_;
  }
  /// Sink for cumulative seal accounting (owned by the ViewStore).
  void set_seal_totals(SealTotals* totals) { seal_totals_ = totals; }

  /// Charges every segment that has a tail the bytes its seal will encode,
  /// without sealing it: plans the seal (PlanSegment) of the tail as it
  /// stands, or of the sealed part merged with the tail, one segment at a
  /// time, and keeps the plan for that seal. A later append drops the
  /// plan. No-op without compression, where a segment's charge does not
  /// depend on its seal. Exclusive lock.
  void PlanStaleSegments() const;

  /// Seals every segment that has a tail, reusing its plan if it has one.
  /// The lifecycle manager calls it after eviction, persistence so the
  /// on-disk codec matches the sealed state. Driver-thread cadence, but
  /// safe under concurrent probes (exclusive lock).
  void SealAllSegments() const;

  /// Sealed segments by id, sealing tails first (persistence runs between
  /// queries).
  std::vector<std::pair<int64_t, std::shared_ptr<const ColumnarSegment>>>
  SealedSegments() const;

  /// Current codec footprint over sealed-fresh segments.
  ViewCompressionStats CompressionStats() const;

  /// Id of the last query that probed or materialized into this view
  /// (-1 when never accessed); the `.views` shell listing surfaces it.
  int64_t last_access_query() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return last_access_query_;
  }

  /// WAL append capture: while enabled, the view keeps, per segment, the
  /// cells appended since the last drain — the open tail's newest keys,
  /// plus a pending copy of whatever a seal took out of the tail before
  /// the drain. Evicting a segment drops its cells. Enabling starts with
  /// nothing captured.
  void set_capture_appends(bool enabled);
  /// Drains the capture: one plain chunk (no codecs) per
  /// segment with appends since the last drain, in first-append order,
  /// each with its keys ascending. The engine drains at every group-commit
  /// point, between queries.
  std::vector<std::shared_ptr<const ColumnarSegment>> TakeAppendedChunks();

 private:
  struct Segment {
    SegmentInfo info;
    std::shared_ptr<const ColumnarSegment> sealed;  // null until first seal
    SegmentCells tail;  // open tail, keys strictly ascending
    uint64_t tail_id = 0;  // unique per tail of this view (PutRemaps key)
    // WAL capture: tail keys [0, drained) were drained (or predate it).
    size_t drained = 0;
    // WAL capture: undrained cells that seals since the last drain took
    // out of the tail, in append order.
    SegmentCells pending;
    // The plan of the tail's seal (PlanStaleSegments), until the tail
    // changes.
    std::optional<SegmentPlan> plan;
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

  /// The tail's keys, then the sealed key index
  /// searched from `cursor` (ColumnarSegment::FindKey's; null searches it
  /// all). Caller holds mu_ (any mode).
  bool ContainsLocked(const Segment& seg, const ViewKey& key,
                      KeyCursor* cursor = nullptr) const;
  /// Opens `seg`'s tail if it has none. Caller holds mu_ exclusively.
  void StartTailLocked(Segment* seg);
  /// Records key `key` of `rows` rows at the end of the tail; the caller
  /// appends its cells to every tail lane and keeps the tail ascending.
  /// Caller holds mu_ exclusively.
  void FinishPutLocked(int64_t seg_id, Segment* seg, const ViewKey& key,
                       size_t rows, uint64_t tick, int64_t query_id);
  /// Appends the source rows collected in put_rows_ to `seg`'s tail lanes
  /// and clears put_rows_. Caller holds mu_ exclusively.
  void FlushPutRowsLocked(Segment* seg, std::span<const ColumnVec* const> cols,
                          PutRemaps* remaps);
  /// Cells of `refs` (ascending keys of `seg`) in seal order. Caller
  /// holds mu_.
  SegmentCells GatherLocked(const Segment& seg,
                            const std::vector<KeyRef>& refs) const;
  /// The cells a reseal of `seg` (sealed part and tail) builds from: both
  /// key sequences merged ascending and gathered. STORE inserts keys its
  /// probe missed without checking the sealed part, so a key in both is a
  /// broken invariant and aborts the process before it is sealed, logged
  /// or persisted. Caller holds mu_.
  SegmentCells MergeLocked(const Segment& seg) const;
  /// Seals the tail into a fresh sealed segment, with the segment's plan
  /// when it has one, and records seal accounting: a first seal builds
  /// from the tail itself (moved), a reseal from MergeLocked. While
  /// capturing, the tail's undrained cells are first copied to
  /// `seg->pending`. Caller holds mu_ exclusively.
  void SealSegmentLocked(Segment* seg) const;
  /// Charged footprint of one segment. With codecs on: the sealed encoded
  /// bytes when it has no tail, the planned ones when its tail has a plan.
  /// Otherwise the synthetic §5.2 formula (16 B/key + 10 B/cell, the
  /// pre-codec accounting). Caller holds mu_.
  double SegmentBytesLocked(const Segment& seg) const;
  /// Looks up the segment of each of `runs` into *segs (null where no
  /// segment holds the run's range); returns whether one of them has an
  /// open tail. Caller holds mu_ (any mode).
  bool RunSegmentsLocked(const std::vector<ProbeRun>& runs,
                         std::vector<Segment*>* segs) const;
  /// Serves the runs of out->runs from their segments `segs`, none of
  /// which has a tail. Caller holds mu_ (any mode).
  void ProbeRunsLocked(const std::vector<ViewKey>& keys,
                       const std::vector<Segment*>& segs,
                       ProbeResult* out) const;
  /// Appends the outcomes of keys [begin, end), one run in `seg`'s frame
  /// range, to `out`. `seg` is null when no segment holds the range, and
  /// has no tail otherwise. Caller holds mu_ (any mode).
  void ProbeRunLocked(const std::vector<ViewKey>& keys, size_t begin,
                      size_t end, const Segment* seg, ProbeResult* out) const;

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
  uint64_t tails_started_ = 0;  // source of Segment::tail_id
  int64_t last_access_query_ = -1;
  bool capture_appends_ = false;
  // Segments with appends since the last drain, in first-append order.
  std::vector<int64_t> appended_segments_;
  std::vector<uint32_t> put_rows_;  // PutBatch scratch (under mu_)
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
  /// driver-thread call sites (ViewJoin hits, StoreOp flush), so the
  /// sequence is deterministic.
  uint64_t NextAccessTick() { return ++segment_clock_; }
  /// Current reading of the access clock without advancing it (eviction
  /// policies use tick distance as a fine-grained recency measure).
  uint64_t current_tick() const { return segment_clock_.load(); }
  /// Moves the clock up to `tick`, never back: a snapshot load restores
  /// stamps up to `tick`, and every later stamp must be newer.
  void AdvanceAccessTick(uint64_t tick) {
    if (tick > segment_clock_.load()) segment_clock_.store(tick);
  }

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

  /// PlanStaleSegments of every view (lifecycle accounting). Driver-thread
  /// cadence like views().
  void PlanStaleSegments() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto& [name, view] : views_) view->PlanStaleSegments();
  }

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
