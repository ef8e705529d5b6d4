#include <functional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/statistics.h"
#include "storage/view_store.h"
#include "vbench/vbench.h"
#include "view_test_util.h"

namespace eva::storage {
namespace {

Schema DetSchema() {
  return Schema({{"obj", DataType::kInt64},
                 {"label", DataType::kString},
                 {"area", DataType::kDouble},
                 {"score", DataType::kDouble}});
}

TEST(MaterializedViewTest, PresenceDistinctFromEmptiness) {
  MaterializedView view("det@v", DetSchema());
  EXPECT_FALSE(view.Contains({5, -1}));
  EXPECT_FALSE(ReadKey(view, {5, -1}).has_value());
  EXPECT_TRUE(PutRows(&view, {5, -1}, {}));  // processed frame, zero detections
  EXPECT_TRUE(view.Contains({5, -1}));
  ASSERT_TRUE(ReadKey(view, {5, -1}).has_value());
  EXPECT_TRUE(ReadKey(view, {5, -1})->empty());
  EXPECT_EQ(view.num_keys(), 1);
  EXPECT_EQ(view.num_rows(), 0);
}

TEST(MaterializedViewTest, PutIsIdempotentAppendOnly) {
  MaterializedView view("det@v", DetSchema());
  EXPECT_TRUE(PutRows(&view, {1, -1}, {{Value(int64_t{0}), Value("car"),
                                        Value(0.3), Value(0.9)}}));
  EXPECT_EQ(view.num_rows(), 1);
  // Re-putting an existing key is a no-op (STORE semantics).
  EXPECT_FALSE(PutRows(&view, {1, -1}, {{Value(int64_t{0}), Value("bus"),
                                         Value(0.1), Value(0.2)},
                                        {Value(int64_t{1}), Value("car"),
                                         Value(0.2), Value(0.8)}}));
  EXPECT_EQ(view.num_rows(), 1);
  EXPECT_EQ((*ReadKey(view, {1, -1}))[0][1].AsString(), "car");
  // Also once the key is sealed (probed) rather than in the open tail.
  EXPECT_FALSE(PutRows(&view, {1, -1}, {{Value(int64_t{0}), Value("bus"),
                                         Value(0.1), Value(0.2)}}));
  EXPECT_EQ(view.num_rows(), 1);
  EXPECT_EQ((*ReadKey(view, {1, -1}))[0][1].AsString(), "car");
}

TEST(MaterializedViewTest, ReappendDrawsNoTick) {
  ViewStore store;
  MaterializedView* view = store.GetOrCreate("det@v", DetSchema());
  std::function<uint64_t()> next_tick = [&store] {
    return store.NextAccessTick();
  };
  // One row of five lanes; the view's four value fields are lanes 1..4.
  Row row = {Value(int64_t{7}), Value(int64_t{0}), Value("car"), Value(0.3),
             Value(0.9)};
  std::vector<storage::TailLane> lanes;
  for (const Value& v : row) lanes.emplace_back(v.type()).Append(v);
  const std::vector<const storage::ColumnVec*> cols =
      LaneColumns({lanes.data() + 1, 4});
  const std::vector<ViewKey> keys = {{1, -1}};
  const std::vector<uint32_t> key_rows = {0, 1};
  const std::vector<uint32_t> rows = {0};
  storage::PutRemaps remaps;
  std::vector<uint8_t> inserted;
  auto put = [&](int64_t query_id) {
    view->PutBatch(keys, false, key_rows, rows, cols, next_tick, query_id,
                   &remaps, &inserted);
    EXPECT_EQ(inserted.size(), 1u);
    return inserted.at(0) != 0;
  };
  EXPECT_TRUE(put(3));
  EXPECT_EQ(store.current_tick(), 1u);
  ASSERT_EQ(view->Segments().size(), 1u);
  EXPECT_EQ(view->Segments()[0].info.last_access_tick, 1u);
  // Present in the tail, then sealed: neither re-append draws a tick or
  // touches the stamps.
  EXPECT_FALSE(put(4));
  view->SealAllSegments();
  EXPECT_FALSE(put(5));
  EXPECT_EQ(store.current_tick(), 1u);
  EXPECT_EQ(view->Segments()[0].info.last_access_tick, 1u);
  EXPECT_EQ(view->Segments()[0].info.last_access_query, 3);
  EXPECT_EQ(view->last_access_query(), 3);
  // The cells were read from column 1 on.
  EXPECT_EQ((*ReadKey(*view, {1, -1}))[0][0].AsInt64(), 0);
}

// A probe of the key the cursor just found finds it again: after a hit
// the cursor points past the key, so a repeated key must restart the
// search rather than miss. Plain and compressed key indexes.
TEST(ColumnarSegmentTest, FindKeyFindsARepeatedKey) {
  for (bool compress : {false, true}) {
    SCOPED_TRACE("compress=" + std::to_string(compress));
    SegmentCells cells;
    cells.cols.emplace_back(DataType::kInt64);
    for (int64_t f = 0; f < 8; ++f) {
      cells.keys.push_back({f, -1});
      cells.row_begin.push_back(static_cast<int32_t>(f + 1));
      cells.cols[0].AppendInt64(f * 10);
    }
    auto seg = BuildColumnarSegment(std::move(cells),
                                    {compress, compress ? 10 : 0});
    ASSERT_EQ(seg->packed_keys, compress);
    KeyCursor hint;
    EXPECT_EQ(seg->FindKey(3, -1, &hint), 3u);
    EXPECT_EQ(seg->FindKey(3, -1, &hint), 3u);
    EXPECT_EQ(seg->FindKey(3, -1, nullptr), 3u);
    EXPECT_EQ(seg->FindKey(4, -1, &hint), 4u);
    EXPECT_EQ(seg->FindKey(2, -1, &hint), 2u);  // behind the cursor
    EXPECT_EQ(seg->FindKey(2, 0, &hint), ColumnarSegment::npos);
    EXPECT_EQ(seg->FindKey(8, -1, &hint), ColumnarSegment::npos);
  }
}

TEST(MaterializedViewTest, ProbeBatchHitsARepeatedKey) {
  MaterializedView view("det@v", DetSchema());
  view.set_build_options({true});
  for (int64_t f = 0; f < 10; ++f) {
    PutRows(&view, {f, -1}, {{Value(f), Value("car"), Value(0.3), Value(0.9)}});
  }
  const std::vector<ViewKey> keys = {{3, -1}, {3, -1}, {4, -1}, {4, -1}};
  ProbeResult res;
  view.ProbeBatch(keys, &res);
  ASSERT_EQ(res.outcomes.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    SCOPED_TRACE("key " + std::to_string(i));
    const ProbeOutcome& oc = res.outcomes[i];
    ASSERT_EQ(oc.status, ProbeStatus::kHit);
    EXPECT_EQ(res.segment(oc).cols[0].At(static_cast<size_t>(oc.rows_begin))
                  .AsInt64(),
              keys[i].frame);
  }
}

// Keys of a drained capture chunk, in order.
std::vector<ViewKey> ChunkKeys(const ColumnarSegment& chunk) {
  std::vector<ViewKey> keys;
  for (size_t i = 0; i < chunk.num_keys(); ++i) {
    keys.push_back({chunk.key_frame(i), chunk.key_obj(i)});
  }
  return keys;
}

// A key repeated in one batch, or already stored in the sealed part or in
// the tail, is inserted at most once, by its first occurrence.
TEST(MaterializedViewTest, PutBatchInsertsARepeatedKeyOnce) {
  ViewStore store;
  MaterializedView* view = store.GetOrCreate("det@v", DetSchema());
  view->set_build_options({true});
  view->set_capture_appends(true);
  for (int64_t f : {1, 2, 3}) {
    PutRows(view, {f, -1}, {{Value(f), Value("car"), Value(0.3), Value(0.9)}});
  }
  view->SealAllSegments();
  PutRows(view, {5, -1}, {{Value(int64_t{5}), Value("car"), Value(0.3),
                           Value(0.9)}});
  view->TakeAppendedChunks();
  // Lane rows: the obj lane holds 70 + row so a key's stored row shows
  // which occurrence inserted it.
  std::vector<TailLane> lanes = LanesFor(DetSchema());
  for (int64_t r = 0; r < 9; ++r) {
    lanes[0].AppendInt64(70 + r);
    lanes[1].AppendString("bus");
    lanes[2].AppendDouble(0.5);
    lanes[3].AppendDouble(0.7);
  }
  const std::vector<ViewKey> keys = {{7, -1}, {7, -1}, {2, -1}, {2, -1},
                                     {5, -1}, {5, -1}, {8, -1}};
  const std::vector<uint32_t> key_rows = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<uint32_t> rows = {0, 1, 2, 3, 4, 5, 6};
  const std::function<uint64_t()> next_tick = [&store] {
    return store.NextAccessTick();
  };
  PutRemaps remaps;
  std::vector<uint8_t> inserted;
  view->PutBatch(keys, false, key_rows, rows, LaneColumns(lanes), next_tick, 9,
                 &remaps, &inserted);
  EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 0, 0, 0, 0, 0, 1}));
  EXPECT_EQ(store.current_tick(), 2u);  // one tick per inserted key
  EXPECT_EQ(view->num_keys(), 6);
  auto chunks = view->TakeAppendedChunks();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(ChunkKeys(*chunks[0]), (std::vector<ViewKey>{{7, -1}, {8, -1}}));
  EXPECT_EQ((*ReadKey(*view, {7, -1}))[0][0].AsInt64(), 70);
  EXPECT_EQ((*ReadKey(*view, {8, -1}))[0][0].AsInt64(), 76);
  EXPECT_EQ((*ReadKey(*view, {2, -1}))[0][0].AsInt64(), 2);
  EXPECT_EQ((*ReadKey(*view, {5, -1}))[0][0].AsInt64(), 5);

  // Keys the caller's probe missed skip the presence check; a repeat in
  // the batch is still inserted once.
  const std::vector<ViewKey> fresh = {{9, -1}, {9, -1}, {4, -1}};
  const std::vector<uint32_t> fresh_rows = {7, 7, 8};
  view->PutBatch(fresh, true, {key_rows.data(), 4}, fresh_rows,
                 LaneColumns(lanes), next_tick, 9, &remaps, &inserted);
  EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 0, 1}));
  EXPECT_EQ(view->num_keys(), 8);
  EXPECT_EQ((*ReadKey(*view, {9, -1}))[0][0].AsInt64(), 77);
  EXPECT_EQ((*ReadKey(*view, {4, -1}))[0][0].AsInt64(), 78);
  chunks = view->TakeAppendedChunks();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(ChunkKeys(*chunks[0]), (std::vector<ViewKey>{{4, -1}, {9, -1}}));

  // The repeat comes after a key that sealed the segment (6 is below the
  // tail's 11), so the first occurrence sits in the sealed part by then.
  const std::vector<ViewKey> across = {{11, -1}, {6, -1}, {11, -1}};
  const std::vector<uint32_t> across_rows = {6, 7, 8};
  view->PutBatch(across, true, {key_rows.data(), 4}, across_rows,
                 LaneColumns(lanes), next_tick, 9, &remaps, &inserted);
  EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 1, 0}));
  EXPECT_EQ(view->num_keys(), 10);
  EXPECT_EQ((*ReadKey(*view, {11, -1}))[0][0].AsInt64(), 76);
  EXPECT_EQ((*ReadKey(*view, {6, -1}))[0][0].AsInt64(), 77);
  chunks = view->TakeAppendedChunks();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(ChunkKeys(*chunks[0]), (std::vector<ViewKey>{{6, -1}, {11, -1}}));

  // The same across runs: 10 seals segment 0 under 13, a key of segment 1
  // ends the run, and the repeat of 13 opens a second run of segment 0.
  const std::vector<ViewKey> runs = {{13, -1}, {10, -1}, {600, -1}, {13, -1}};
  const std::vector<uint32_t> runs_rows = {3, 4, 5, 6};
  view->PutBatch(runs, true, {key_rows.data(), 5}, runs_rows,
                 LaneColumns(lanes), next_tick, 9, &remaps, &inserted);
  EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 1, 1, 0}));
  EXPECT_EQ(view->num_keys(), 13);
  EXPECT_EQ((*ReadKey(*view, {13, -1}))[0][0].AsInt64(), 73);
}

// Keys that go below the tail's last key seal the segment inside
// PutBatch. The capture still drains every undrained key exactly once,
// ascending, with the cells it was put with.
TEST(MaterializedViewTest, SealInsidePutBatchDrainsEveryKeyOnce) {
  ViewStore store;
  MaterializedView* view = store.GetOrCreate("det@v", DetSchema());
  view->set_capture_appends(true);
  // Key frame f is put with lane row f, whose obj cell is 100 + f.
  std::vector<TailLane> lanes = LanesFor(DetSchema());
  for (int64_t r = 0; r < 20; ++r) {
    lanes[0].AppendInt64(100 + r);
    lanes[1].AppendString(r % 3 == 0 ? "car" : "bus");
    lanes[2].AppendDouble(0.5);
    lanes[3].AppendDouble(0.7);
  }
  const std::function<uint64_t()> next_tick = [&store] {
    return store.NextAccessTick();
  };
  PutRemaps remaps;
  std::vector<uint8_t> inserted;
  auto put = [&](const std::vector<int64_t>& frames) {
    std::vector<ViewKey> keys;
    std::vector<uint32_t> key_rows{0};
    std::vector<uint32_t> rows;
    for (const int64_t f : frames) {
      keys.push_back({f, -1});
      rows.push_back(static_cast<uint32_t>(f));
      key_rows.push_back(static_cast<uint32_t>(rows.size()));
    }
    view->PutBatch(keys, false, key_rows, rows, LaneColumns(lanes), next_tick,
                   0, &remaps, &inserted);
  };
  auto expect_rows = [](const ColumnarSegment& chunk) {
    for (size_t k = 0; k < chunk.num_keys(); ++k) {
      ASSERT_EQ(chunk.row_begin_at(k + 1) - chunk.row_begin_at(k), 1);
      EXPECT_EQ(chunk.RowAt(chunk.row_begin_at(k))[0].AsInt64(),
                100 + chunk.key_frame(k));
    }
  };
  put({10, 12});
  auto chunks = view->TakeAppendedChunks();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(ChunkKeys(*chunks[0]), (std::vector<ViewKey>{{10, -1}, {12, -1}}));

  // 3 seals the tail {10, 12, 14, 16} (10 and 12 drained), 12 is then
  // sealed and skipped, and 1 seals the tail {3, 15, 18}.
  put({14, 16, 3, 15, 12, 18, 1});
  EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 1, 1, 1, 0, 1, 1}));
  EXPECT_EQ(store.seal_totals().segments_sealed.load(), 2);
  EXPECT_EQ(view->num_keys(), 8);
  chunks = view->TakeAppendedChunks();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(ChunkKeys(*chunks[0]),
            (std::vector<ViewKey>{
                {1, -1}, {3, -1}, {14, -1}, {15, -1}, {16, -1}, {18, -1}}));
  expect_rows(*chunks[0]);
  EXPECT_TRUE(view->TakeAppendedChunks().empty());

  // After a drain, a seal keeps only the keys appended since (19), not
  // the drained tail key 1.
  put({19, 0});
  chunks = view->TakeAppendedChunks();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(ChunkKeys(*chunks[0]), (std::vector<ViewKey>{{0, -1}, {19, -1}}));
  expect_rows(*chunks[0]);
  for (const int64_t f : {0, 1, 3, 10, 12, 14, 15, 16, 18, 19}) {
    auto rows = ReadKey(*view, {f, -1});
    ASSERT_TRUE(rows.has_value()) << f;
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ((*rows)[0][0].AsInt64(), 100 + f);
  }
}

// Passes a sealed key to PutBatch as known absent, then seals.
void PutAStoredKeyAsAbsent() {
  ViewStore store;
  MaterializedView* view = store.GetOrCreate("det@v", DetSchema());
  for (int64_t f : {1, 2, 3}) {
    PutRows(view, {f, -1}, {{Value(f), Value("car"), Value(0.3), Value(0.9)}});
  }
  view->SealAllSegments();
  std::vector<TailLane> lanes = LanesFor(DetSchema());
  lanes[0].AppendInt64(7);
  lanes[1].AppendString("bus");
  lanes[2].AppendDouble(0.5);
  lanes[3].AppendDouble(0.7);
  const std::vector<ViewKey> keys = {{2, -1}};
  const std::vector<uint32_t> key_rows = {0, 1};
  const std::vector<uint32_t> rows = {0};
  PutRemaps remaps;
  std::vector<uint8_t> inserted;
  view->PutBatch(keys, true, key_rows, rows, LaneColumns(lanes),
                 [] { return uint64_t{1}; }, 0, &remaps, &inserted);
  view->SealAllSegments();
}

// A key passed as known absent that the view in fact stores is a broken
// STORE invariant: the next seal of its segment stops the process rather
// than seal, log or persist the key twice.
TEST(MaterializedViewDeathTest, KnownAbsentKeyThatIsStoredAbortsTheSeal) {
  EXPECT_DEATH(PutAStoredKeyAsAbsent(),
               "view det@v: key \\(frame 2, obj -1\\) stored twice");
}

TEST(MaterializedViewTest, ObjectLevelKeys) {
  MaterializedView view("CarType@v", Schema({{"CarType",
                                              DataType::kString}}));
  PutRows(&view, {3, 0}, {{Value("Nissan")}});
  PutRows(&view, {3, 1}, {{Value("Toyota")}});
  EXPECT_TRUE(view.Contains({3, 0}));
  EXPECT_FALSE(view.Contains({3, 2}));
  EXPECT_FALSE(view.Contains({3, -1}));
  EXPECT_EQ((*ReadKey(view, {3, 1}))[0][0].AsString(), "Toyota");
  EXPECT_FALSE(ReadKey(view, {3, 2}).has_value());
}

TEST(MaterializedViewTest, SizeGrowsWithContent) {
  MaterializedView view("det@v", DetSchema());
  double empty_size = view.SizeBytes();
  for (int64_t f = 0; f < 100; ++f) {
    PutRows(&view, {f, -1}, {{Value(int64_t{0}), Value("car"), Value(0.3),
                              Value(0.9)}});
  }
  EXPECT_GT(view.SizeBytes(), empty_size);
  EXPECT_LT(view.SizeBytes(), 100 * 1024);  // lightweight metadata (§5.2)
}

TEST(ViewStoreTest, GetOrCreateAndFind) {
  ViewStore store;
  EXPECT_EQ(store.Find("x"), nullptr);
  MaterializedView* v = store.GetOrCreate("x", DetSchema());
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(store.GetOrCreate("x", DetSchema()), v);
  EXPECT_EQ(store.Find("x"), v);
  PutRows(v, {1, -1}, {});
  store.Clear();
  EXPECT_EQ(store.Find("x"), nullptr);
}

TEST(ViewStoreTest, TotalSizeSumsViews) {
  ViewStore store;
  PutRows(store.GetOrCreate("a", DetSchema()), {1, -1},
          {{Value(int64_t{0}), Value("car"), Value(0.1), Value(0.9)}});
  PutRows(store.GetOrCreate("b", DetSchema()), {2, -1}, {});
  EXPECT_GT(store.TotalSizeBytes(), 0);
  EXPECT_DOUBLE_EQ(store.TotalSizeBytes(),
                   store.Find("a")->SizeBytes() +
                       store.Find("b")->SizeBytes());
}

// --- Histogram --------------------------------------------------------------

TEST(HistogramTest, UniformFractions) {
  Histogram h(0, 1, 20);
  for (int i = 0; i < 1000; ++i) h.Add((i % 100) / 100.0);
  EXPECT_NEAR(h.FractionIn(symbolic::Interval::LessThan(0.5)), 0.5, 0.03);
  EXPECT_NEAR(h.FractionIn(symbolic::Interval(
                  symbolic::Bound::Closed(0.25),
                  symbolic::Bound::Closed(0.75))),
              0.5, 0.05);
  EXPECT_DOUBLE_EQ(h.FractionIn(symbolic::Interval::Full()), 1.0);
  EXPECT_DOUBLE_EQ(h.FractionIn(symbolic::Interval::Empty()), 0.0);
  EXPECT_NEAR(h.FractionIn(symbolic::Interval::GreaterThan(2.0)), 0.0,
              1e-9);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h(0, 1, 10);
  EXPECT_DOUBLE_EQ(h.FractionIn(symbolic::Interval::LessThan(0.5)), 0);
}

// --- StatisticsManager -------------------------------------------------------

class StatsTest : public ::testing::Test {
 protected:
  StatsTest()
      : video_([] {
          catalog::VideoInfo info = vbench::ShortUaDetrac();
          info.num_frames = 2000;
          return info;
        }()),
        stats_(video_) {}

  vision::SyntheticVideo video_;
  StatisticsManager stats_;
};

TEST_F(StatsTest, DimKinds) {
  EXPECT_EQ(stats_.KindOf("id"), symbolic::DimKind::kInteger);
  EXPECT_EQ(stats_.KindOf("area"), symbolic::DimKind::kReal);
  EXPECT_EQ(stats_.KindOf("score"), symbolic::DimKind::kReal);
  EXPECT_EQ(stats_.KindOf("label"), symbolic::DimKind::kCategorical);
  EXPECT_EQ(stats_.KindOf("CarType"), symbolic::DimKind::kCategorical);
}

TEST_F(StatsTest, IdRangeSelectivity) {
  auto c = symbolic::DimConstraint::Numeric(
      symbolic::DimKind::kInteger, symbolic::Interval::LessThan(1000));
  EXPECT_NEAR(stats_.ConstraintSelectivity("id", c), 0.5, 0.01);
  auto full = symbolic::DimConstraint::Full(symbolic::DimKind::kInteger);
  EXPECT_DOUBLE_EQ(stats_.ConstraintSelectivity("id", full), 1.0);
  auto empty = symbolic::DimConstraint::Empty(symbolic::DimKind::kInteger);
  EXPECT_DOUBLE_EQ(stats_.ConstraintSelectivity("id", empty), 0.0);
}

TEST_F(StatsTest, IdExcludedPointsSubtract) {
  auto c = symbolic::DimConstraint::Numeric(
               symbolic::DimKind::kInteger,
               symbolic::Interval(symbolic::Bound::Closed(0),
                                  symbolic::Bound::Closed(9)))
               .Intersect(symbolic::DimConstraint::NumericNotEqual(
                   symbolic::DimKind::kInteger, 5));
  EXPECT_NEAR(stats_.ConstraintSelectivity("id", c), 9.0 / 2000, 1e-6);
}

TEST_F(StatsTest, LabelFrequenciesMatchGenerator) {
  auto car = symbolic::DimConstraint::Categorical({"car"}, false);
  EXPECT_NEAR(stats_.ConstraintSelectivity("label", car), 0.8, 0.05);
  auto not_car = symbolic::DimConstraint::Categorical({"car"}, true);
  EXPECT_NEAR(stats_.ConstraintSelectivity("label", not_car), 0.2, 0.05);
}

TEST_F(StatsTest, VehicleTypeSkewReflected) {
  auto nissan = symbolic::DimConstraint::Categorical({"Nissan"}, false);
  auto bmw = symbolic::DimConstraint::Categorical({"BMW"}, false);
  double s_nissan = stats_.ConstraintSelectivity("CarType", nissan);
  double s_bmw = stats_.ConstraintSelectivity("CarType", bmw);
  EXPECT_NEAR(s_nissan, 0.30, 0.05);
  EXPECT_NEAR(s_bmw, 0.10, 0.05);
  EXPECT_GT(s_nissan, s_bmw);
}

TEST_F(StatsTest, AreaHistogramSkewsSmall) {
  auto large = symbolic::DimConstraint::Numeric(
      symbolic::DimKind::kReal, symbolic::Interval::GreaterThan(0.3));
  auto small = symbolic::DimConstraint::Numeric(
      symbolic::DimKind::kReal, symbolic::Interval::AtMost(0.15));
  double s_large = stats_.ConstraintSelectivity("area", large);
  double s_small = stats_.ConstraintSelectivity("area", small);
  // area = u^2 * 0.6: P(area > 0.3) = 1 - sqrt(0.5) ≈ 0.29,
  // P(area <= 0.15) = 0.5.
  EXPECT_NEAR(s_large, 0.29, 0.05);
  EXPECT_NEAR(s_small, 0.50, 0.05);
}

}  // namespace
}  // namespace eva::storage
