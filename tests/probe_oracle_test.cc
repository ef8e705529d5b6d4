// Differential property test for MaterializedView::ProbeBatch against the
// per-key reference loop of reference_probe.h. Two views take the same
// random interleaving of puts, probes, segment evictions and seals; one
// answers probes with ProbeBatch, the other seals everything and answers
// with the reference over its sealed segments. Outcomes, pinned-segment
// slots, the cells behind every hit, Bloom and zone counters must agree
// for ascending, repeated, backwards, mid-segment, cross-segment and
// shuffled batches, with and without codecs, Bloom filters and zone
// checks. Deterministic LCG generation; failures replay from the trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "reference_probe.h"
#include "storage/view_store.h"
#include "view_test_util.h"

namespace eva::storage {
namespace {

struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed) {}
  // High bits only: the low bits of an LCG cycle with short periods.
  uint64_t Pick(uint64_t k) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % k;
  }
};

bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_null()) return true;
  if (a.type() == DataType::kDouble) {
    uint64_t ab = 0, bb = 0;
    const double ad = a.AsDouble(), bd = b.AsDouble();
    std::memcpy(&ab, &ad, sizeof(ab));
    std::memcpy(&bb, &bd, sizeof(bb));
    return ab == bb;
  }
  return a == b;
}

Schema TestSchema() {
  return Schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString}});
}

Row RandomRow(Lcg* rng) {
  auto cell = [rng](Value v) { return rng->Pick(8) == 0 ? Value::Null() : v; };
  return Row{cell(Value(static_cast<int64_t>(rng->Pick(30)))),
             cell(Value(0.25 * static_cast<double>(rng->Pick(9)))),
             cell(Value(rng->Pick(2) == 0)),
             cell(Value("c" + std::to_string(rng->Pick(5))))};
}

// A probe or put key: frames over a few segments, a frame-level key or
// one of three objects.
ViewKey RandomKey(Lcg* rng, int64_t frames) {
  const int64_t obj = static_cast<int64_t>(rng->Pick(4)) - 1;
  return {static_cast<int64_t>(rng->Pick(static_cast<uint64_t>(frames))), obj};
}

// Puts `keys` (each with 0-3 random rows) into every view of `views` in
// one PutBatch per view.
void PutKeys(const std::vector<MaterializedView*>& views,
             const std::vector<ViewKey>& keys, Lcg* rng, uint64_t* tick) {
  std::vector<TailLane> lanes = LanesFor(TestSchema());
  std::vector<uint32_t> key_rows{0};
  for (size_t k = 0; k < keys.size(); ++k) {
    const uint64_t n = rng->Pick(4);
    for (uint64_t r = 0; r < n; ++r) {
      const Row row = RandomRow(rng);
      for (size_t c = 0; c < lanes.size(); ++c) lanes[c].Append(row[c]);
    }
    key_rows.push_back(key_rows.back() + static_cast<uint32_t>(n));
  }
  std::vector<uint32_t> rows(key_rows.back());
  std::iota(rows.begin(), rows.end(), uint32_t{0});
  const std::vector<const ColumnVec*> cols = LaneColumns(lanes);
  for (MaterializedView* view : views) {
    PutRemaps remaps;
    std::vector<uint8_t> inserted;
    uint64_t t = *tick;
    view->PutBatch(keys, {}, key_rows, rows, cols, [&t] { return ++t; }, 1,
                   &remaps, &inserted);
  }
  *tick += keys.size();
}

// The probe batch shapes the run walk must get right.
enum Shape {
  kAscending = 0,  // dense ascending frames from a segment boundary
  kRepeated,       // each key two or three times in a row
  kBackwards,      // descending frames
  kMidSegment,     // ascending, starting and ending inside one segment
  kCrossSegment,   // ascending with gaps over several segments
  kShuffled,       // any order
  kNumShapes
};

std::vector<ViewKey> ProbeKeys(Shape shape, Lcg* rng, int64_t seg_frames,
                               int64_t frames) {
  std::vector<ViewKey> keys;
  const int64_t obj = rng->Pick(3) == 0 ? 0 : -1;
  switch (shape) {
    case kAscending: {
      const int64_t first =
          seg_frames * static_cast<int64_t>(rng->Pick(
                           static_cast<uint64_t>(frames / seg_frames)));
      for (int64_t f = first; f < std::min(frames, first + 2 * seg_frames);
           ++f) {
        keys.push_back({f, obj});
      }
      break;
    }
    case kRepeated:
      for (int i = 0; i < 20; ++i) {
        const ViewKey key = RandomKey(rng, frames);
        const uint64_t times = 2 + rng->Pick(2);
        for (uint64_t t = 0; t < times; ++t) keys.push_back(key);
      }
      std::sort(keys.begin(), keys.end());
      break;
    case kBackwards:
      for (int64_t f = frames - 1 - static_cast<int64_t>(rng->Pick(5)); f >= 0;
           f -= 1 + static_cast<int64_t>(rng->Pick(2))) {
        keys.push_back({f, obj});
        if (rng->Pick(4) == 0) keys.push_back({f, 1});
      }
      break;
    case kMidSegment: {
      const int64_t seg = static_cast<int64_t>(
          rng->Pick(static_cast<uint64_t>(frames / seg_frames)));
      const int64_t first = seg * seg_frames + seg_frames / 4;
      for (int64_t f = first; f < seg * seg_frames + 3 * seg_frames / 4; ++f) {
        keys.push_back({f, obj});
      }
      break;
    }
    case kCrossSegment:
      for (int64_t f = static_cast<int64_t>(rng->Pick(4)); f < frames;
           f += 1 + static_cast<int64_t>(rng->Pick(6))) {
        keys.push_back({f, -1});
        for (int64_t o = 0; o < 3; ++o) {
          if (rng->Pick(3) == 0) keys.push_back({f, o});
        }
      }
      break;
    default:
      for (int i = 0; i < 60; ++i) keys.push_back(RandomKey(rng, frames));
      break;
  }
  return keys;
}

// The rows of hit `oc` of `res`.
std::vector<Row> HitRows(const ProbeResult& res, const ProbeOutcome& oc) {
  std::vector<Row> rows;
  for (int32_t r = 0; r < oc.rows_count; ++r) {
    rows.push_back(res.segment(oc).RowAt(oc.rows_begin + r));
  }
  return rows;
}

void ExpectSameProbe(const std::vector<ViewKey>& keys, int64_t seg_frames,
                     const ProbeResult& got, const ProbeResult& want) {
  ASSERT_EQ(got.outcomes.size(), keys.size());
  ASSERT_EQ(want.outcomes.size(), keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    SCOPED_TRACE("key " + std::to_string(k) + " (frame " +
                 std::to_string(keys[k].frame) + ", obj " +
                 std::to_string(keys[k].obj) + ")");
    const ProbeOutcome& g = got.outcomes[k];
    const ProbeOutcome& w = want.outcomes[k];
    ASSERT_EQ(static_cast<int>(g.status), static_cast<int>(w.status));
    EXPECT_EQ(g.rows_count, w.rows_count);
    if (g.status != ProbeStatus::kHit) continue;
    EXPECT_EQ(g.seg_index, w.seg_index);
    const std::vector<Row> gr = HitRows(got, g), wr = HitRows(want, w);
    ASSERT_EQ(gr.size(), wr.size());
    for (size_t r = 0; r < gr.size(); ++r) {
      for (size_t c = 0; c < gr[r].size(); ++c) {
        EXPECT_TRUE(SameValue(gr[r][c], wr[r][c])) << "row " << r;
      }
    }
  }
  EXPECT_EQ(got.segments.size(), want.segments.size());
  EXPECT_EQ(got.bloom_hits, want.bloom_hits);
  EXPECT_EQ(got.bloom_negatives, want.bloom_negatives);
  EXPECT_EQ(got.bloom_fps, want.bloom_fps);
  EXPECT_EQ(got.segments_probed, want.segments_probed);
  EXPECT_EQ(got.segments_skipped, want.segments_skipped);
  // The runs cover the outcomes in order, one segment's keys each, and a
  // run's segment differs from the next one's.
  size_t begin = 0;
  for (size_t r = 0; r < got.runs.size(); ++r) {
    const ProbeRun& run = got.runs[r];
    ASSERT_GT(run.end, begin);
    for (size_t k = begin; k < run.end; ++k) {
      EXPECT_EQ(ReferenceSegmentOf(keys[k].frame, seg_frames), run.segment_id);
    }
    if (r + 1 < got.runs.size()) {
      EXPECT_NE(run.segment_id, got.runs[r + 1].segment_id);
    }
    begin = run.end;
  }
  EXPECT_EQ(begin, keys.size());
}

TEST(ProbeOracleTest, RunProbeMatchesPerKeyReference) {
  Lcg rng(0x9B0BE5);
  int64_t shapes_seen[kNumShapes] = {};
  int64_t hits_seen = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const bool compress = rng.Pick(2) == 0;
    const int bloom_bits = rng.Pick(2) == 0 ? 0 : 10;
    const int64_t seg_frames = int64_t{8} << rng.Pick(3);  // 8, 16, 32
    const int64_t frames = seg_frames * 6;
    SCOPED_TRACE("trial " + std::to_string(trial) +
                 " compress=" + std::to_string(compress) +
                 " bloom=" + std::to_string(bloom_bits) +
                 " segment_frames=" + std::to_string(seg_frames));
    MaterializedView probed("t@v", TestSchema());
    MaterializedView reference("t@v", TestSchema());
    for (MaterializedView* view : {&probed, &reference}) {
      view->set_segment_frames(seg_frames);
      view->set_build_options({compress, bloom_bits});
    }
    uint64_t tick = 0;
    for (int op = 0; op < 60; ++op) {
      const uint64_t what = rng.Pick(10);
      if (what < 4) {
        // Puts: mostly an ascending run, sometimes any order.
        std::vector<ViewKey> keys;
        const uint64_t n = 1 + rng.Pick(30);
        for (uint64_t i = 0; i < n; ++i) keys.push_back(RandomKey(&rng, frames));
        if (rng.Pick(3) != 0) std::sort(keys.begin(), keys.end());
        PutKeys({&probed, &reference}, keys, &rng, &tick);
      } else if (what < 8) {
        const auto shape = static_cast<Shape>(rng.Pick(kNumShapes));
        ++shapes_seen[shape];
        const std::vector<ViewKey> keys =
            ProbeKeys(shape, &rng, seg_frames, frames);
        ZoneCheckFn zone;
        if (rng.Pick(2) == 0) {
          zone = [](const ColumnarSegment& seg) {
            return seg.num_keys() % 3 != 0;
          };
        }
        ProbeResult got, want;
        probed.ProbeBatch(keys, zone, &got);
        SealedMap sealed;
        for (auto& [id, seg] : reference.SealedSegments()) sealed[id] = seg;
        ReferenceProbe(sealed, seg_frames, keys, zone, &want);
        SCOPED_TRACE("op " + std::to_string(op) + " shape " +
                     std::to_string(shape));
        ExpectSameProbe(keys, seg_frames, got, want);
        for (const ProbeOutcome& oc : got.outcomes) {
          hits_seen += oc.status == ProbeStatus::kHit ? 1 : 0;
        }
      } else if (what < 9) {
        const int64_t seg = static_cast<int64_t>(rng.Pick(6));
        const EvictedSegment a = probed.EvictSegment(seg);
        const EvictedSegment b = reference.EvictSegment(seg);
        EXPECT_EQ(a.keys, b.keys);
        EXPECT_EQ(a.rows, b.rows);
      } else {
        probed.SealAllSegments();
      }
      if (HasFailure()) return;
    }
    EXPECT_EQ(probed.num_keys(), reference.num_keys());
  }
  for (int s = 0; s < kNumShapes; ++s) EXPECT_GT(shapes_seen[s], 0) << s;
  EXPECT_GT(hits_seen, 1000);
}

// FindKey with a cursor, walked over random orders of a small key set,
// answers exactly what the reference bisect answers with no hint:
// backwards and repeated keys restart the walk.
TEST(ProbeOracleTest, FindKeyWithACursorMatchesReferenceInAnyOrder) {
  for (const bool compress : {false, true}) {
    MaterializedView view("t@v", TestSchema());
    view.set_segment_frames(1 << 20);
    view.set_build_options({compress, 0});
    Lcg rng(0xC0550 + static_cast<uint64_t>(compress));
    for (int64_t f = 0; f < 200; f += 3) {
      std::vector<Row> rows;
      for (uint64_t n = rng.Pick(3); n > 0; --n) rows.push_back(RandomRow(&rng));
      ASSERT_TRUE(PutRows(&view, {f, f % 2 == 0 ? -1 : 0}, rows));
    }
    const auto sealed = view.SealedSegments();
    ASSERT_EQ(sealed.size(), 1u);
    const ColumnarSegment& seg = *sealed[0].second;
    for (int trial = 0; trial < 200; ++trial) {
      KeyCursor cursor;
      for (int i = 0; i < 40; ++i) {
        const ViewKey key{static_cast<int64_t>(rng.Pick(205)),
                          static_cast<int64_t>(rng.Pick(2)) - 1};
        ASSERT_EQ(seg.FindKey(key.frame, key.obj, &cursor),
                  ReferenceFindKey(seg, key.frame, key.obj, nullptr))
            << "trial " << trial << " frame " << key.frame << " obj "
            << key.obj;
      }
    }
  }
}

}  // namespace
}  // namespace eva::storage
