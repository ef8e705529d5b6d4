#include "storage/view_store.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

namespace eva::storage {

namespace {

// Whether the (strictly ascending) tail holds `key`: an appended key is
// above the last one, so only a key at or below it is searched for.
bool TailHas(const SegmentCells& tail, const ViewKey& key) {
  if (tail.keys.empty() || tail.keys.back() < key) return false;
  return std::binary_search(tail.keys.begin(), tail.keys.end(), key);
}

// Appends keys [begin, from.keys.size()) of `from` with their cells to
// `to`, opening its lanes (one per field of `schema`) if it has none. Each
// source has its own dictionary codes, so the code tables start fresh per
// call.
void AppendKeys(const Schema& schema, const SegmentCells& from, size_t begin,
                SegmentCells* to) {
  const size_t end = from.keys.size();
  if (begin == end) return;
  if (to->cols.empty()) to->cols = LanesFor(schema);
  const int32_t base = to->row_begin.back() - from.row_begin[begin];
  for (size_t k = begin; k < end; ++k) {
    to->keys.push_back(from.keys[k]);
    to->row_begin.push_back(base + from.row_begin[k + 1]);
  }
  std::vector<int32_t> remap;
  for (size_t c = 0; c < to->cols.size(); ++c) {
    remap.clear();
    to->cols[c].AppendFrom(from.cols[c].lane(),
                           static_cast<size_t>(from.row_begin[begin]),
                           static_cast<size_t>(from.row_begin[end]), &remap);
  }
}

}  // namespace

bool MaterializedView::ContainsLocked(const Segment& seg, const ViewKey& key,
                                      KeyCursor* cursor) const {
  if (TailHas(seg.tail, key)) return true;
  const ColumnarSegment* sealed = seg.sealed.get();
  if (sealed == nullptr) return false;
  if (sealed->bloom.enabled() &&
      !sealed->bloom.MayContain(HashViewKey(key.frame, key.obj))) {
    return false;
  }
  return sealed->FindKey(key.frame, key.obj, cursor) != ColumnarSegment::npos;
}

bool MaterializedView::Contains(const ViewKey& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = segments_.find(SegmentOf(key.frame));
  return it != segments_.end() && ContainsLocked(it->second, key);
}

std::vector<std::vector<int32_t>>& PutRemaps::For(uint64_t tail_id,
                                                  size_t ncols) {
  // Consecutive runs mostly land in one tail: try the last entry first.
  if (last_ >= entries_.size() || entries_[last_].tail_id != tail_id) {
    last_ = 0;
    while (last_ < entries_.size() && entries_[last_].tail_id != tail_id) {
      ++last_;
    }
    if (last_ == entries_.size()) {
      entries_.push_back({tail_id, {}});
      entries_.back().cols.resize(ncols);
    }
  }
  return entries_[last_].cols;
}

void MaterializedView::StartTailLocked(Segment* seg) {
  if (!seg->tail.cols.empty()) return;
  seg->tail.cols = LanesFor(value_schema_);
  seg->tail_id = ++tails_started_;
}

void MaterializedView::FinishPutLocked(int64_t seg_id, Segment* seg,
                                       const ViewKey& key, size_t rows,
                                       uint64_t tick, int64_t query_id) {
  const auto n = static_cast<int64_t>(rows);
  SegmentCells& tail = seg->tail;
  if (capture_appends_ && tail.keys.size() == seg->drained &&
      seg->pending.keys.empty()) {
    appended_segments_.push_back(seg_id);  // the segment's first append
  }
  tail.keys.push_back(key);
  tail.row_begin.push_back(tail.row_begin.back() + static_cast<int32_t>(n));
  seg->plan.reset();
  if (seg->info.keys == 0) seg->info.created_tick = tick;
  seg->info.keys += 1;
  seg->info.rows += n;
  seg->info.last_access_tick = tick;
  seg->info.last_access_query = query_id;
  if (query_id >= 0) last_access_query_ = query_id;
  num_keys_ += 1;
  num_rows_ += n;
}

void MaterializedView::FlushPutRowsLocked(
    Segment* seg, std::span<const ColumnVec* const> cols, PutRemaps* remaps) {
  if (put_rows_.empty()) return;
  std::vector<TailLane>& lanes = seg->tail.cols;
  std::vector<std::vector<int32_t>>& maps =
      remaps->For(seg->tail_id, lanes.size());
  for (size_t c = 0; c < lanes.size(); ++c) {
    if (c < cols.size()) {
      lanes[c].AppendGather(*cols[c], put_rows_.data(), put_rows_.size(),
                            &maps[c]);
    } else {
      for (size_t r = 0; r < put_rows_.size(); ++r) lanes[c].AppendNull();
    }
  }
  put_rows_.clear();
}

void MaterializedView::PutBatch(std::span<const ViewKey> keys,
                                std::span<const uint8_t> absent,
                                std::span<const uint32_t> key_rows,
                                std::span<const uint32_t> rows,
                                std::span<const ColumnVec* const> cols,
                                const std::function<uint64_t()>& next_tick,
                                int64_t query_id, PutRemaps* remaps,
                                std::vector<uint8_t>* inserted) {
  inserted->assign(keys.size(), 0);
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Once this batch has sealed a segment, a key known absent may sit in a
  // sealed part (put there earlier in the batch), so it is checked in
  // full like any other.
  bool sealed_here = false;
  for (size_t begin = 0, end = 0; begin < keys.size(); begin = end) {
    // One run: consecutive keys of one segment.
    const int64_t seg_id = SegmentOf(keys[begin].frame);
    end = begin + 1;
    while (end < keys.size() && SegmentOf(keys[end].frame) == seg_id) ++end;
    Segment& seg = segments_[seg_id];
    KeyCursor cursor;
    put_rows_.clear();
    for (size_t k = begin; k < end; ++k) {
      const ViewKey& key = keys[k];
      if (absent.empty() || absent[k] == 0 || sealed_here) {
        if (seg.info.keys > 0 && ContainsLocked(seg, key, &cursor)) continue;
      } else if (TailHas(seg.tail, key)) {
        continue;  // known absent, but repeated in this batch
      }
      if (!seg.tail.keys.empty() && !(seg.tail.keys.back() < key)) {
        // Out of key order: seal what the tail holds, so the key opens a
        // fresh tail and every tail stays ascending.
        FlushPutRowsLocked(&seg, cols, remaps);
        SealSegmentLocked(&seg);
        sealed_here = true;
        cursor = KeyCursor();
      }
      StartTailLocked(&seg);
      const uint64_t tick = next_tick();
      put_rows_.insert(put_rows_.end(), rows.begin() + key_rows[k],
                       rows.begin() + key_rows[k + 1]);
      FinishPutLocked(seg_id, &seg, key, key_rows[k + 1] - key_rows[k], tick,
                      query_id);
      (*inserted)[k] = 1;
    }
    FlushPutRowsLocked(&seg, cols, remaps);
  }
}

SegmentCells MaterializedView::GatherLocked(
    const Segment& seg, const std::vector<KeyRef>& refs) const {
  SegmentCells out;
  out.keys.reserve(refs.size());
  out.row_begin.reserve(refs.size() + 1);
  out.cols = LanesFor(value_schema_);
  // Dictionary code tables, one per column and source (sealed, tail).
  std::vector<std::array<std::vector<int32_t>, 2>> remaps(out.cols.size());
  for (const KeyRef& ref : refs) {
    int32_t begin, end;
    if (ref.in_tail) {
      begin = seg.tail.row_begin[ref.pos];
      end = seg.tail.row_begin[ref.pos + 1];
    } else {
      begin = seg.sealed->row_begin_at(ref.pos);
      end = seg.sealed->row_begin_at(ref.pos + 1);
    }
    for (size_t c = 0; c < out.cols.size(); ++c) {
      const ColumnVec& src = ref.in_tail ? seg.tail.cols[c].lane()
                                         : seg.sealed->cols[c];
      out.cols[c].AppendFrom(src, static_cast<size_t>(begin),
                             static_cast<size_t>(end),
                             &remaps[c][ref.in_tail ? 1 : 0]);
    }
    out.keys.push_back(ref.key);
    out.row_begin.push_back(out.row_begin.back() + (end - begin));
  }
  return out;
}

SegmentCells MaterializedView::MergeLocked(const Segment& seg) const {
  const SegmentCells& tail = seg.tail;
  const size_t nsealed = seg.sealed->num_keys();
  std::vector<KeyRef> refs;
  refs.reserve(nsealed + tail.keys.size());
  size_t i = 0, j = 0;
  while (i < nsealed || j < tail.keys.size()) {
    ViewKey sk;
    if (i < nsealed) sk = {seg.sealed->key_frame(i), seg.sealed->key_obj(i)};
    if (j == tail.keys.size() || (i < nsealed && sk < tail.keys[j])) {
      refs.push_back({sk, false, i++});
      continue;
    }
    const ViewKey& tk = tail.keys[j];
    if (i < nsealed && !(tk < sk)) {
      std::fprintf(stderr,
                   "view %s: key (frame %lld, obj %lld) stored twice\n",
                   name_.c_str(), static_cast<long long>(tk.frame),
                   static_cast<long long>(tk.obj));
      std::abort();
    }
    refs.push_back({tk, true, j++});
  }
  return GatherLocked(seg, refs);
}

void MaterializedView::SealSegmentLocked(Segment* seg) const {
  SegmentCells& tail = seg->tail;
  if (capture_appends_ && tail.keys.size() > seg->drained) {
    // The undrained keys leave the tail here; the capture keeps a copy.
    AppendKeys(value_schema_, tail, seg->drained, &seg->pending);
  }
  const SegmentPlan* plan = seg->plan ? &*seg->plan : nullptr;
  // A first seal builds from the ascending tail, already in seal order; a
  // reseal from the merge, exactly a one-shot seal of the segment.
  seg->sealed = BuildColumnarSegment(
      seg->sealed == nullptr ? std::move(tail) : MergeLocked(*seg),
      build_options_, plan);
  tail = SegmentCells();
  seg->plan.reset();
  seg->drained = 0;
  if (seal_totals_ == nullptr) return;
  const ColumnarSegment& sealed = *seg->sealed;
  constexpr auto kRelaxed = std::memory_order_relaxed;
  seal_totals_->segments_sealed.fetch_add(1, kRelaxed);
  seal_totals_->raw_bytes.fetch_add(sealed.raw_bytes, kRelaxed);
  seal_totals_->encoded_bytes.fetch_add(sealed.encoded_bytes, kRelaxed);
  for (int c = 0; c < ColumnVec::kNumCodecs; ++c) {
    seal_totals_->codec_cols[c].fetch_add(sealed.codec_cols[c], kRelaxed);
  }
}

void MaterializedView::PlanStaleSegments() const {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!build_options_.compress) return;
  for (auto& [seg_id, seg] : segments_) {
    if (seg.tail.keys.empty() || seg.plan) continue;
    // A reseal's merged cells live only while their segment is planned.
    seg.plan = seg.sealed == nullptr
                   ? PlanSegment(seg.tail, build_options_)
                   : PlanSegment(MergeLocked(seg), build_options_);
  }
}

void MaterializedView::SealAllSegments() const {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [seg_id, seg] : segments_) {
    if (!seg.tail.keys.empty()) SealSegmentLocked(&seg);
  }
}

void MaterializedView::set_build_options(const SegmentBuildOptions& options) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  build_options_ = options;
  // A plan holds only for the options it was made under.
  for (auto& [seg_id, seg] : segments_) seg.plan.reset();
}

std::vector<std::pair<int64_t, std::shared_ptr<const ColumnarSegment>>>
MaterializedView::SealedSegments() const {
  SealAllSegments();
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::pair<int64_t, std::shared_ptr<const ColumnarSegment>>> out;
  out.reserve(segments_.size());
  for (const auto& [seg_id, seg] : segments_) {
    if (seg.sealed != nullptr) out.emplace_back(seg_id, seg.sealed);
  }
  return out;
}

void MaterializedView::set_capture_appends(bool enabled) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  capture_appends_ = enabled;
  appended_segments_.clear();
  for (auto& [seg_id, seg] : segments_) {
    seg.drained = seg.tail.keys.size();
    seg.pending = SegmentCells();
  }
}

std::vector<std::shared_ptr<const ColumnarSegment>>
MaterializedView::TakeAppendedChunks() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::vector<std::shared_ptr<const ColumnarSegment>> out;
  for (const int64_t seg_id : appended_segments_) {
    Segment& seg = segments_.at(seg_id);
    // The undrained keys in append order: what seals took out of the
    // tail, then the tail's own.
    SegmentCells cells = std::exchange(seg.pending, SegmentCells());
    AppendKeys(value_schema_, seg.tail, seg.drained, &cells);
    seg.drained = seg.tail.keys.size();
    if (cells.keys.empty()) continue;
    if (std::is_sorted(cells.keys.begin(), cells.keys.end())) {
      out.push_back(BuildColumnarSegment(std::move(cells)));
      continue;
    }
    // A tail that followed a seal went below the keys the seal took:
    // gather the keys ascending.
    std::vector<uint32_t> order(cells.keys.size());
    std::iota(order.begin(), order.end(), uint32_t{0});
    std::sort(order.begin(), order.end(), [&cells](uint32_t a, uint32_t b) {
      return cells.keys[a] < cells.keys[b];
    });
    SegmentCells sorted;
    sorted.cols = LanesFor(value_schema_);
    std::vector<std::vector<int32_t>> remaps(cells.cols.size());
    for (const uint32_t k : order) {
      const int32_t begin = cells.row_begin[k];
      const int32_t end = cells.row_begin[k + 1];
      sorted.keys.push_back(cells.keys[k]);
      sorted.row_begin.push_back(sorted.row_begin.back() + (end - begin));
      for (size_t c = 0; c < sorted.cols.size(); ++c) {
        sorted.cols[c].AppendFrom(cells.cols[c].lane(),
                                  static_cast<size_t>(begin),
                                  static_cast<size_t>(end), &remaps[c]);
      }
    }
    out.push_back(BuildColumnarSegment(std::move(sorted)));
  }
  appended_segments_.clear();
  return out;
}

ViewCompressionStats MaterializedView::CompressionStats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ViewCompressionStats out;
  for (const auto& [seg_id, seg] : segments_) {
    ++out.segments;
    if (seg.sealed == nullptr || !seg.tail.keys.empty()) continue;
    ++out.sealed_segments;
    out.raw_bytes += seg.sealed->raw_bytes;
    out.encoded_bytes += seg.sealed->encoded_bytes;
  }
  return out;
}

void MaterializedView::ProbeRunLocked(const std::vector<ViewKey>& keys,
                                      size_t begin, size_t end,
                                      const Segment* seg,
                                      const ZoneCheckFn& can_match,
                                      ProbeResult* out) const {
  const ColumnarSegment* sealed =
      seg != nullptr ? seg->sealed.get() : nullptr;
  if (sealed == nullptr) {
    out->outcomes.resize(out->outcomes.size() + (end - begin));  // kMiss
    return;
  }
  bool admitted = true;
  if (can_match != nullptr) {
    ++out->segments_probed;
    if (!can_match(*sealed)) {
      admitted = false;
      ++out->segments_skipped;
    }
  }
  const bool bloom = sealed->bloom.enabled();
  KeyCursor cursor;
  int32_t slot = -1;  // out->segments index once the run's snapshot is pinned
  size_t last = ColumnarSegment::npos;  // key index of the previous hit
  int32_t last_end = 0;                 // and the end of its rows
  for (size_t k = begin; k < end; ++k) {
    const ViewKey& key = keys[k];
    ProbeOutcome& outcome = out->outcomes.emplace_back();
    // Bloom short-circuit: a negative proves the key absent, so the
    // key-index walk skips it. The outcome is identical to a failed
    // search (kMiss) — only the cost differs.
    if (bloom && !sealed->bloom.MayContain(HashViewKey(key.frame, key.obj))) {
      ++out->bloom_negatives;
      continue;
    }
    const size_t idx = sealed->FindKey(key.frame, key.obj, &cursor);
    if (bloom) {
      if (idx == ColumnarSegment::npos) {
        ++out->bloom_fps;
      } else {
        ++out->bloom_hits;
      }
    }
    if (idx == ColumnarSegment::npos) continue;
    // Consecutive hits share a row offset: one key-index read per hit.
    const int32_t rows_begin =
        last != ColumnarSegment::npos && idx == last + 1
            ? last_end
            : sealed->row_begin_at(idx);
    last = idx;
    last_end = sealed->row_begin_at(idx + 1);
    outcome.rows_count = last_end - rows_begin;
    if (!admitted) {
      outcome.status = ProbeStatus::kHitSkipped;
      continue;
    }
    outcome.status = ProbeStatus::kHit;
    // Pin the snapshot once per run, on its first hit; the caller reads
    // rows in place (zero-copy) after the lock is released.
    if (slot < 0) {
      slot = static_cast<int32_t>(out->segments.size());
      out->segments.push_back(seg->sealed);
    }
    outcome.seg_index = slot;
    outcome.rows_begin = rows_begin;
  }
}

bool MaterializedView::RunSegmentsLocked(const std::vector<ProbeRun>& runs,
                                         std::vector<Segment*>* segs) const {
  segs->clear();
  bool tail = false;
  for (const ProbeRun& run : runs) {
    auto it = segments_.find(run.segment_id);
    Segment* seg = it != segments_.end() ? &it->second : nullptr;
    if (seg != nullptr && !seg->tail.keys.empty()) tail = true;
    segs->push_back(seg);
  }
  return tail;
}

void MaterializedView::ProbeRunsLocked(const std::vector<ViewKey>& keys,
                                       const std::vector<Segment*>& segs,
                                       const ZoneCheckFn& can_match,
                                       ProbeResult* out) const {
  size_t begin = 0;
  for (size_t r = 0; r < segs.size(); ++r) {
    ProbeRunLocked(keys, begin, out->runs[r].end, segs[r], can_match, out);
    begin = out->runs[r].end;
  }
}

void MaterializedView::ProbeBatch(const std::vector<ViewKey>& keys,
                                  const ZoneCheckFn& can_match,
                                  ProbeResult* out) const {
  out->Clear();
  out->outcomes.reserve(keys.size());
  // Runs: one floor division per run, then frame-range compares.
  for (size_t begin = 0, end = 0; begin < keys.size(); begin = end) {
    const int64_t seg_id = SegmentOf(keys[begin].frame);
    const int64_t lo = seg_id * segment_frames_;
    const int64_t hi = lo + segment_frames_;
    end = begin + 1;
    while (end < keys.size() && keys[end].frame >= lo &&
           keys[end].frame < hi) {
      ++end;
    }
    out->runs.push_back({seg_id, static_cast<uint32_t>(end)});
  }
  std::vector<Segment*> segs;  // each run's segment, null where none
  segs.reserve(out->runs.size());
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (!RunSegmentsLocked(out->runs, &segs)) {
      ProbeRunsLocked(keys, segs, can_match, out);
      return;
    }
  }
  // A touched segment has a tail: look the runs' segments up again under
  // the exclusive lock, reseal each that has a tail, then serve.
  std::unique_lock<std::shared_mutex> lock(mu_);
  RunSegmentsLocked(out->runs, &segs);
  for (Segment* seg : segs) {
    if (seg != nullptr && !seg->tail.keys.empty()) SealSegmentLocked(seg);
  }
  ProbeRunsLocked(keys, segs, can_match, out);
}

void MaterializedView::RecordAccess(
    const std::vector<std::pair<int64_t, uint64_t>>& segment_ticks,
    int64_t query_id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const auto& [seg_id, tick] : segment_ticks) {
    auto it = segments_.find(seg_id);
    if (it == segments_.end()) continue;
    it->second.info.last_access_tick = tick;
    it->second.info.last_access_query = query_id;
    if (query_id >= 0) last_access_query_ = query_id;
  }
}

double MaterializedView::SegmentBytesLocked(const Segment& seg) const {
  if (build_options_.compress) {
    if (seg.tail.keys.empty() && seg.sealed != nullptr) {
      return static_cast<double>(seg.sealed->encoded_bytes);
    }
    if (seg.plan) return static_cast<double>(seg.plan->encoded_bytes);
  }
  // Synthetic pre-codec estimate (§5.2): 16 B/key + 10 B/cell. A segment
  // with a tail is charged at this rate until its seal is planned or
  // done; the lifecycle manager plans every tail before it enforces the
  // budget, so the eviction decision never depends on probe history.
  return 16.0 * static_cast<double>(seg.info.keys) +
         static_cast<double>(seg.info.rows) *
             static_cast<double>(value_schema_.num_fields()) * 10.0;
}

double MaterializedView::SizeBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  double bytes = 0;
  for (const auto& [id, seg] : segments_) bytes += SegmentBytesLocked(seg);
  return bytes;
}

std::vector<SegmentStats> MaterializedView::Segments() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<SegmentStats> out;
  out.reserve(segments_.size());
  for (const auto& [id, seg] : segments_) {
    SegmentStats s;
    s.segment_id = id;
    s.first_frame = id * segment_frames_;
    s.frame_end = (id + 1) * segment_frames_;
    s.bytes = SegmentBytesLocked(seg);
    s.info = seg.info;
    out.push_back(s);
  }
  return out;
}

EvictedSegment MaterializedView::EvictSegment(int64_t segment_id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  EvictedSegment ev;
  ev.first_frame = segment_id * segment_frames_;
  ev.frame_end = (segment_id + 1) * segment_frames_;
  auto it = segments_.find(segment_id);
  if (it == segments_.end()) return ev;
  ev.keys = it->second.info.keys;
  ev.rows = it->second.info.rows;
  num_keys_ -= ev.keys;
  num_rows_ -= ev.rows;
  segments_.erase(it);
  // Appended, then evicted before the drain: nothing to log.
  std::erase(appended_segments_, segment_id);
  return ev;
}

void MaterializedView::RestoreSegmentStamps(int64_t segment_id,
                                            const SegmentInfo& info) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = segments_.find(segment_id);
  if (it == segments_.end()) return;
  // keys/rows stay as recomputed from the reloaded rows; only the
  // eviction-relevant stamps are restored.
  it->second.info.created_tick = info.created_tick;
  it->second.info.last_access_tick = info.last_access_tick;
  it->second.info.last_access_query = info.last_access_query;
  if (info.last_access_query > last_access_query_) {
    last_access_query_ = info.last_access_query;
  }
}

MaterializedView* ViewStore::GetOrCreate(const std::string& name,
                                         const Schema& value_schema) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    auto view = std::make_unique<MaterializedView>(name, value_schema);
    view->set_segment_frames(segment_frames_);
    view->set_build_options(build_options_);
    view->set_seal_totals(&seal_totals_);
    if (capture_appends_) view->set_capture_appends(true);
    it = views_.emplace(name, std::move(view)).first;
  }
  return it->second.get();
}

MaterializedView* ViewStore::Find(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : it->second.get();
}

const MaterializedView* ViewStore::Find(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : it->second.get();
}

double ViewStore::TotalSizeBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  double total = 0;
  for (const auto& [name, view] : views_) total += view->SizeBytes();
  return total;
}

}  // namespace eva::storage
