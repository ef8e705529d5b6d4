// Reference batch probe for MaterializedView::ProbeBatch: the per-key loop
// the run-at-a-time probe replaced. Every key finds its segment by floor
// division, a new segment starts a new run (cursor reset, one pin on the
// run's first hit), and each key pays a bisect of the key index from the
// previous key's cursor (ReferenceFindKey, the search
// ColumnarSegment::FindKey replaced). It reads a frame-keyed map of sealed
// segments (MaterializedView::SealedSegments), so it shares nothing with
// the code under test but the segments.

#ifndef EVA_TESTS_REFERENCE_PROBE_H_
#define EVA_TESTS_REFERENCE_PROBE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "storage/view_store.h"

namespace eva::storage {

using SealedMap = std::map<int64_t, std::shared_ptr<const ColumnarSegment>>;

inline int64_t ReferenceSegmentOf(int64_t frame, int64_t segment_frames) {
  int64_t q = frame / segment_frames;
  if (frame % segment_frames != 0 && frame < 0) --q;
  return q;
}

/// Index of (frame, obj) in `seg`'s key index, or ColumnarSegment::npos,
/// bisecting from `hint` (the previous search's cursor; null searches it
/// all). A probe at or behind the cursor's last key restarts from the
/// front.
inline size_t ReferenceFindKey(const ColumnarSegment& seg, int64_t frame,
                               int64_t obj, size_t* hint) {
  const size_t n = seg.num_keys();
  size_t lo = hint != nullptr ? *hint : 0;
  if (lo > n) lo = n;
  if (lo > 0 && (seg.key_frame(lo - 1) > frame ||
                 (seg.key_frame(lo - 1) == frame &&
                  seg.key_obj(lo - 1) >= obj))) {
    lo = 0;
  }
  if (lo < n && seg.key_frame(lo) == frame && seg.key_obj(lo) == obj) {
    if (hint != nullptr) *hint = lo + 1;
    return lo;
  }
  size_t hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    int64_t mf = seg.key_frame(mid);
    if (mf < frame || (mf == frame && seg.key_obj(mid) < obj)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < n && seg.key_frame(lo) == frame && seg.key_obj(lo) == obj) {
    if (hint != nullptr) *hint = lo + 1;
    return lo;
  }
  if (hint != nullptr) *hint = lo;
  return ColumnarSegment::npos;
}

/// Fills `out` as ProbeBatch does, except ProbeResult::runs.
inline void ReferenceProbe(const SealedMap& segments, int64_t segment_frames,
                           const std::vector<ViewKey>& keys,
                           ProbeResult* out) {
  out->Clear();
  int64_t cur = INT64_MIN;
  bool first = true;
  const std::shared_ptr<const ColumnarSegment>* seg_sp = nullptr;
  const ColumnarSegment* seg = nullptr;
  int32_t seg_slot = -1;
  size_t cursor = 0;
  for (const ViewKey& key : keys) {
    const int64_t seg_id = ReferenceSegmentOf(key.frame, segment_frames);
    if (first || seg_id != cur) {
      first = false;
      cur = seg_id;
      cursor = 0;
      seg_slot = -1;
      auto it = segments.find(seg_id);
      seg_sp = it != segments.end() ? &it->second : nullptr;
      seg = seg_sp != nullptr ? seg_sp->get() : nullptr;
    }
    ProbeOutcome outcome;
    if (seg != nullptr) {
      const size_t idx =
          ReferenceFindKey(*seg, key.frame, key.obj, &cursor);
      if (idx != ColumnarSegment::npos) {
        const int32_t begin = seg->row_begin_at(idx);
        const int32_t end = seg->row_begin_at(idx + 1);
        outcome.rows_count = end - begin;
        outcome.status = ProbeStatus::kHit;
        if (seg_slot < 0) {
          seg_slot = static_cast<int32_t>(out->segments.size());
          out->segments.push_back(*seg_sp);
        }
        outcome.seg_index = seg_slot;
        outcome.rows_begin = begin;
      }
    }
    out->outcomes.push_back(outcome);
  }
}

}  // namespace eva::storage

#endif  // EVA_TESTS_REFERENCE_PROBE_H_
