#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "engine/eva_engine.h"
#include "vbench/vbench.h"

namespace eva::engine {
namespace {

using optimizer::ReuseMode;

catalog::VideoInfo TinyVideo() {
  catalog::VideoInfo v;
  v.name = "tiny";
  v.num_frames = 400;
  v.mean_objects_per_frame = 8.3 / 0.8;
  v.seed = 7;
  return v;
}

std::unique_ptr<EvaEngine> MakeEngineOrDie(ReuseMode mode) {
  auto r = vbench::MakeEngine(mode, TinyVideo());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

// Canonical row-set fingerprint, order-insensitive.
std::multiset<std::string> RowSet(const Batch& batch) {
  std::multiset<std::string> out;
  for (const Row& row : batch.rows()) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += "|";
    }
    out.insert(std::move(s));
  }
  return out;
}

TEST(EngineTest, CreateUdfAndSimpleQuery) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  auto r = engine->Execute(
      "SELECT id, obj, label FROM tiny CROSS APPLY "
      "FasterRCNNResNet50(frame) WHERE id < 50 AND label = 'car';");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().batch.num_rows(), 0u);
  for (size_t i = 0; i < r.value().batch.num_rows(); ++i) {
    EXPECT_EQ(r.value().batch.GetByName(i, "label").AsString(), "car");
    EXPECT_LT(r.value().batch.GetByName(i, "id").AsInt64(), 50);
  }
}

TEST(EngineTest, ParseErrorsSurface) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  EXPECT_FALSE(engine->Execute("SELEC oops").ok());
  EXPECT_FALSE(engine->Execute("SELECT id FROM missing_video;").ok());
  EXPECT_FALSE(
      engine->Execute("SELECT id FROM tiny CROSS APPLY NoSuchUdf(frame);")
          .ok());
}

TEST(EngineTest, RepeatQueryReusesAllUdfInvocations) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  const char* sql =
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 100 AND label = 'car' AND CarType(frame, bbox) = "
      "'Nissan';";
  auto first = engine->Execute(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().metrics.TotalReused(), 0);
  EXPECT_GT(first.value().metrics.TotalInvocations(), 0);

  auto second = engine->Execute(sql);
  ASSERT_TRUE(second.ok());
  // Identical query: every UDF invocation is satisfied from the views.
  EXPECT_EQ(second.value().metrics.TotalReused(),
            second.value().metrics.TotalInvocations());
  EXPECT_EQ(RowSet(first.value().batch), RowSet(second.value().batch));
  // And the reused run charges no UDF time.
  EXPECT_DOUBLE_EQ(second.value().metrics.breakdown[CostCategory::kUdf], 0);
}

TEST(EngineTest, SubRangeQueryFullyCovered) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  auto warm = engine->Execute(
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 200 AND label = 'car';");
  ASSERT_TRUE(warm.ok());
  auto sub = engine->Execute(
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id >= 50 AND id < 150 AND label = 'car';");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().metrics.TotalReused(),
            sub.value().metrics.TotalInvocations());
}

TEST(EngineTest, PartialOverlapEvaluatesOnlyDifference) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  auto first = engine->Execute(
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 200;");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto shifted = engine->Execute(
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id >= 100 AND id < 300;");
  ASSERT_TRUE(shifted.ok());
  const auto& m = shifted.value().metrics;
  // 100 frames reused ([100,200)), 100 evaluated ([200,300)).
  EXPECT_EQ(m.invocations.at("FasterRCNNResNet50"), 200);
  EXPECT_EQ(m.reused.at("FasterRCNNResNet50"), 100);
}

TEST(EngineTest, ResultsIdenticalAcrossReuseModes) {
  // The reuse machinery must never change query answers: run the same
  // 4-query refinement session under every mode and compare row sets.
  std::vector<std::string> session = {
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 250 AND label = 'car' AND area > 0.3 AND "
      "CarType(frame, bbox) = 'Nissan';",
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 250 AND label = 'car' AND CarType(frame, bbox) = "
      "'Nissan';",
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 250 AND area > 0.25 AND label = 'car' AND "
      "CarType(frame, bbox) = 'Nissan' AND ColorDet(frame, bbox) = "
      "'Gray';",
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id > 50 AND label = 'car' AND ColorDet(frame, bbox) = "
      "'Gray';",
  };
  std::map<ReuseMode, std::vector<std::multiset<std::string>>> results;
  for (ReuseMode mode :
       {ReuseMode::kNoReuse, ReuseMode::kHashStash, ReuseMode::kFunCache,
        ReuseMode::kEva}) {
    auto engine = MakeEngineOrDie(mode);
    for (const std::string& sql : session) {
      auto r = engine->Execute(sql);
      ASSERT_TRUE(r.ok()) << optimizer::ReuseModeName(mode) << ": "
                          << r.status().ToString();
      results[mode].push_back(RowSet(r.value().batch));
    }
  }
  for (size_t q = 0; q < session.size(); ++q) {
    EXPECT_EQ(results[ReuseMode::kNoReuse][q], results[ReuseMode::kEva][q])
        << "EVA diverges on query " << q;
    EXPECT_EQ(results[ReuseMode::kNoReuse][q],
              results[ReuseMode::kFunCache][q])
        << "FunCache diverges on query " << q;
    EXPECT_EQ(results[ReuseMode::kNoReuse][q],
              results[ReuseMode::kHashStash][q])
        << "HashStash diverges on query " << q;
  }
}

TEST(EngineTest, EvaFasterThanNoReuseOnRefinementSession) {
  std::vector<std::string> session = {
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 300 AND label = 'car' AND CarType(frame, bbox) = "
      "'Nissan';",
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 300 AND label = 'car' AND CarType(frame, bbox) = "
      "'Nissan' AND ColorDet(frame, bbox) = 'Gray';",
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id > 100 AND label = 'car' AND ColorDet(frame, bbox) = "
      "'Gray';",
  };
  double totals[2] = {0, 0};
  int idx = 0;
  for (ReuseMode mode : {ReuseMode::kNoReuse, ReuseMode::kEva}) {
    auto engine = MakeEngineOrDie(mode);
    for (const std::string& sql : session) {
      auto r = engine->Execute(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      totals[idx] += r.value().metrics.TotalMs();
    }
    ++idx;
  }
  EXPECT_GT(totals[0], totals[1] * 1.5)
      << "no-reuse=" << totals[0] << "ms eva=" << totals[1] << "ms";
}

TEST(EngineTest, CountStarGroupByAggregates) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  auto r = engine->Execute(
      "SELECT id, COUNT(*) FROM tiny CROSS APPLY "
      "FasterRCNNResNet50(frame) WHERE id < 20 AND label = 'car' GROUP BY "
      "id;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Batch& batch = r.value().batch;
  ASSERT_GT(batch.num_rows(), 0u);
  int64_t total = 0;
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    total += batch.GetByName(i, "count").AsInt64();
  }
  // Cross-check against a plain row-returning query.
  auto rows = engine->Execute(
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 20 AND label = 'car';");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(total, static_cast<int64_t>(rows.value().batch.num_rows()));
}

TEST(EngineTest, UdfInSelectListIsAppliedAndMaterialized) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  auto r = engine->Execute(
      "SELECT id, obj, ColorDet(frame, bbox) FROM tiny CROSS APPLY "
      "FasterRCNNResNet50(frame) WHERE id < 30 AND label = 'car';");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r.value().batch.num_rows(), 0u);
  EXPECT_GT(r.value().metrics.invocations.at("ColorDet"), 0);
  // A follow-up query filtering on ColorDet reuses those results.
  auto follow = engine->Execute(
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 30 AND label = 'car' AND ColorDet(frame, bbox) = "
      "'Red';");
  ASSERT_TRUE(follow.ok());
  EXPECT_EQ(follow.value().metrics.reused.at("ColorDet"),
            follow.value().metrics.invocations.at("ColorDet"));
}

TEST(EngineTest, StorageFootprintTiny) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  auto r = engine->Execute(
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 400 AND label = 'car' AND CarType(frame, bbox) = "
      "'Nissan';");
  ASSERT_TRUE(r.ok());
  double video_bytes = TinyVideo().BytesPerFrame() * 400;
  EXPECT_LT(engine->views().TotalSizeBytes(), video_bytes * 0.01)
      << "views must be a negligible fraction of the video (§5.2)";
  EXPECT_GT(engine->views().TotalSizeBytes(), 0);
}

TEST(EngineTest, ClearReuseStateResetsEverything) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  const char* sql =
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 50;";
  ASSERT_TRUE(engine->Execute(sql).ok());
  EXPECT_GT(engine->views().TotalSizeBytes(), 0);
  engine->ClearReuseState();
  EXPECT_DOUBLE_EQ(engine->views().TotalSizeBytes(), 0);
  auto r = engine->Execute(sql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().metrics.TotalReused(), 0);
}

TEST(EngineTest, LogicalDetectorResolvesToCheapestSatisfyingModel) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  auto r = engine->Execute(
      "SELECT id, obj FROM tiny CROSS APPLY ObjectDetector(frame) "
      "ACCURACY 'HIGH' WHERE id < 20;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().report.detector_exec, "FasterRCNNResNet101");
  auto low = engine->Execute(
      "SELECT id, obj FROM tiny CROSS APPLY ObjectDetector(frame) "
      "ACCURACY 'LOW' WHERE id >= 300;");
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low.value().report.detector_exec, "YoloTiny");
}

TEST(EngineTest, LogicalDetectorReusesHighAccuracyView) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  // Warm a FasterRCNNResNet50 view over [0, 200).
  ASSERT_TRUE(engine
                  ->Execute(
                      "SELECT id, obj FROM tiny CROSS APPLY "
                      "ObjectDetector(frame) ACCURACY 'MEDIUM' WHERE id < "
                      "200;")
                  .ok());
  // A low-accuracy query over the same range should read that view
  // instead of running YoloTiny (Algorithm 2).
  auto r = engine->Execute(
      "SELECT id, obj FROM tiny CROSS APPLY ObjectDetector(frame) "
      "ACCURACY 'LOW' WHERE id < 200;");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().report.detector_views.size(), 1u);
  EXPECT_EQ(r.value().report.detector_views[0], "FasterRCNNResNet50");
  EXPECT_EQ(r.value().metrics.reused.at("FasterRCNNResNet50"), 200);
  EXPECT_EQ(r.value().metrics.invocations.count("YoloTiny"), 0u);
}

TEST(EngineTest, SpecializedFilterReducesDetectorInvocations) {
  // On a sparse video (few vehicles), prefiltering frames cuts detector
  // work (§5.6).
  catalog::VideoInfo sparse = vbench::Jackson();
  sparse.name = "sparse";
  sparse.num_frames = 500;
  auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, sparse);
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  auto r = engine->Execute(
      "SELECT id, obj FROM sparse CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE VehicleFilter(frame) = true AND id < 500 AND label = "
      "'car';");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().metrics.invocations.at("VehicleFilter"), 500);
  // The conservative filter passes ~55% of (mostly empty) frames; the
  // detector must still be skipped on the rest.
  EXPECT_LT(r.value().metrics.invocations.at("FasterRCNNResNet50"), 350);
}

// Pins what every WHERE shape and select item the evaluator must handle
// gives back end to end: the rows as printed, or the status code and
// message. Each shape comes from SQL: literal-literal comparisons, a
// non-boolean literal or column in a logical position, unbound names, and
// errors that AND/OR keep from being reached.
TEST(EngineTest, PredicateAndSelectShapesArePinned) {
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  video.num_frames = 300;
  EngineOptions options;
  options.observability = false;
  auto er = vbench::MakeEngine(options, video);
  ASSERT_TRUE(er.ok()) << er.status().ToString();
  std::unique_ptr<EvaEngine> engine = er.MoveValue();
  const std::string detect =
      "SELECT id, obj, label FROM short_ua_detrac CROSS APPLY "
      "FasterRCNNResNet50(frame) WHERE ";
  const std::string kHeader = "(id:INT64, obj:INT64, label:STRING) ";
  const std::string kFrame0 =
      "  0 | 0 | person\n  0 | 1 | car\n  0 | 3 | truck\n"
      "  0 | 4 | person\n  0 | 5 | car\n  0 | 6 | car\n  0 | 7 | car\n"
      "  0 | 8 | car\n  0 | 9 | car\n";
  const std::string kFrame1 =
      "  1 | 0 | car\n  1 | 1 | car\n  1 | 2 | car\n  1 | 3 | car\n"
      "  1 | 4 | car\n  1 | 5 | car\n  1 | 6 | car\n  1 | 7 | car\n";
  const std::string kFrame2 =
      "  2 | 0 | car\n  2 | 5 | person\n  2 | 6 | car\n  2 | 7 | car\n"
      "  2 | 8 | car\n  2 | 10 | car\n";
  const std::string kNoRows = kHeader + "[0 rows]\n";
  const std::string kNotBoolArea =
      "InvalidArgument: expression is not boolean: area";
  struct Case {
    std::string sql;
    std::string want;  // Batch::ToString, or Status::ToString
  } cases[] = {
      // WHERE shapes.
      {detect + "1 = 1 AND id < 3;",
       kHeader + "[23 rows]\n" + kFrame0 + kFrame1 + kFrame2},
      {detect + "'bus' < 'car' AND id < 2;",
       kHeader + "[17 rows]\n" + kFrame0 + kFrame1},
      {detect + "2 < 1 OR id < 1;", kHeader + "[9 rows]\n" + kFrame0},
      {detect + "7;", "InvalidArgument: expression is not boolean: 7"},
      {detect + "nosuch = 1;", "BindError: unknown column: nosuch"},
      {detect + "id < 5 OR area;", kNotBoolArea},
      {detect + "label = 'car' OR area;", kNotBoolArea},
      {detect + "id < 0 AND label;", kNoRows},
      {detect + "id < 0 AND nosuch = 1;", kNoRows},
      {detect + "(id >= 0 OR nosuch = 1) AND id < 2;",
       kHeader + "[17 rows]\n" + kFrame0 + kFrame1},
      {detect + "id < 2 AND obj = id;",
       kHeader + "[2 rows]\n  0 | 0 | person\n  1 | 1 | car\n"},
      {detect + "id < 2 AND TRUE;",
       kHeader + "[17 rows]\n" + kFrame0 + kFrame1},
      // Select lists.
      {"SELECT id, 5, 'x' FROM short_ua_detrac WHERE id < 1;",
       "(id:INT64, 5:INT64, 'x':STRING) [1 rows]\n  0 | 5 | x\n"},
      {"SELECT id, nosuch FROM short_ua_detrac WHERE id < 0;",
       "(id:INT64, nosuch:STRING) [0 rows]\n"},
      {"SELECT id, nosuch FROM short_ua_detrac WHERE id < 3;",
       "BindError: unknown column: nosuch"},
      {"SELECT id, obj, label, 2.5, TRUE FROM short_ua_detrac CROSS APPLY "
       "FasterRCNNResNet50(frame) WHERE id < 1;",
       "(id:INT64, obj:INT64, label:STRING, 2.5:DOUBLE, true:BOOL) "
       "[9 rows]\n"
       "  0 | 0 | person | 2.5 | true\n  0 | 1 | car | 2.5 | true\n"
       "  0 | 3 | truck | 2.5 | true\n  0 | 4 | person | 2.5 | true\n"
       "  0 | 5 | car | 2.5 | true\n  0 | 6 | car | 2.5 | true\n"
       "  0 | 7 | car | 2.5 | true\n  0 | 8 | car | 2.5 | true\n"
       "  0 | 9 | car | 2.5 | true\n"},
      {"SELECT id, VehicleFilter(frame) FROM short_ua_detrac "
       "WHERE id < 3 AND VehicleFilter(frame) = true;",
       "(id:INT64, VehicleFilter(frame):BOOL) [3 rows]\n"
       "  0 | true\n  1 | true\n  2 | true\n"},
  };
  for (const Case& c : cases) {
    auto r = engine->Execute(c.sql);
    const std::string got = r.ok() ? r.value().batch.ToString(1 << 20)
                                   : r.status().ToString();
    EXPECT_EQ(got, c.want) << c.sql;
  }
}

// A view join stamps each segment once per run of hits, and takes one
// clock tick per hit: the stamps and the clock after a reused query
// crossing several segments equal those of stamping every hit in probe
// order (hit k of the query takes tick before + k, and a segment keeps its
// last hit's tick).
TEST(EngineTest, ViewJoinStampsMatchPerHitStamping) {
  EngineOptions options;
  options.optimizer.mode = ReuseMode::kEva;
  options.segment_frames = 64;
  auto made = vbench::MakeEngine(options, TinyVideo());
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto engine = made.MoveValue();
  const char* const kQuery =
      "SELECT id, obj, label FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id >= %d AND id < %d AND label = 'car';";
  auto run = [&](int lo, int hi) {
    char sql[256];
    std::snprintf(sql, sizeof(sql), kQuery, lo, hi);
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  };
  auto stamps = [&] {
    std::map<int64_t, uint64_t> out;
    const storage::MaterializedView* view =
        engine->views().Find("FasterRCNNResNet50@tiny");
    EXPECT_NE(view, nullptr);
    if (view == nullptr) return out;
    for (const storage::SegmentStats& seg : view->Segments()) {
      out[seg.segment_id] = seg.info.last_access_tick;
    }
    return out;
  };
  run(0, 300);  // materializes frames [0, 300): segments 0-4
  for (const auto& [lo, hi] : {std::pair{30, 290}, std::pair{100, 200},
                               std::pair{0, 300}}) {
    SCOPED_TRACE("frames [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + ")");
    std::map<int64_t, uint64_t> want = stamps();
    const uint64_t before = engine->views().current_tick();
    run(lo, hi);  // every frame a hit, one key per frame, in frame order
    for (int64_t f = lo; f < hi; ++f) {
      want[f / 64] = before + static_cast<uint64_t>(f - lo + 1);
    }
    EXPECT_EQ(engine->views().current_tick(),
              before + static_cast<uint64_t>(hi - lo));
    EXPECT_EQ(stamps(), want);
  }
}

}  // namespace
}  // namespace eva::engine
