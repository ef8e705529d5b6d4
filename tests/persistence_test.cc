#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/eva_engine.h"
#include "storage/view_persistence.h"
#include "vbench/vbench.h"
#include "view_test_util.h"

namespace eva::storage {
namespace {

namespace fs = std::filesystem;

class PersistenceTest : public ::testing::Test {
 protected:
  PersistenceTest() {
    dir_ = fs::temp_directory_path() /
           ("eva_views_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  ~PersistenceTest() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(PersistenceTest, ValueEncodingRoundTrips) {
  const Value values[] = {Value::Null(),      Value(true),
                          Value(false),       Value(int64_t{-42}),
                          Value(0.3125),      Value("Nissan"),
                          Value("two words"), Value("50%")};
  for (const Value& v : values) {
    auto decoded = DecodeValue(EncodeValue(v));
    ASSERT_TRUE(decoded.ok()) << v.ToString();
    EXPECT_TRUE(decoded.value() == v)
        << v.ToString() << " -> " << EncodeValue(v) << " -> "
        << decoded.value().ToString();
  }
  EXPECT_FALSE(DecodeValue("").ok());
  EXPECT_FALSE(DecodeValue("X:1").ok());
  EXPECT_FALSE(DecodeValue("Bnocolon").ok());
}

TEST_F(PersistenceTest, ViewStoreRoundTrips) {
  ViewStore store;
  Schema det({{"obj", DataType::kInt64},
              {"label", DataType::kString},
              {"area", DataType::kDouble},
              {"score", DataType::kDouble}});
  MaterializedView* view = store.GetOrCreate("Det@v", det);
  view->Put({0, -1}, {{Value(int64_t{0}), Value("car"), Value(0.25),
                       Value(0.9)},
                      {Value(int64_t{1}), Value("bus"), Value(0.5),
                       Value(0.8)}});
  view->Put({1, -1}, {});  // presence-only entry must survive
  MaterializedView* cls =
      store.GetOrCreate("CarType@v", Schema({{"CarType",
                                              DataType::kString}}));
  cls->Put({0, 0}, {{Value("Nissan")}});
  cls->Put({0, 1}, {{Value("Toyota")}});

  udf::UdfManager manager;
  ASSERT_TRUE(SaveSession(store, manager, dir_.string()).ok());

  ViewStore loaded;
  ASSERT_TRUE(LoadSession(dir_.string(), &loaded, nullptr).ok());
  MaterializedView* lv = loaded.Find("Det@v");
  ASSERT_NE(lv, nullptr);
  EXPECT_EQ(lv->num_keys(), 2);
  EXPECT_EQ(lv->num_rows(), 2);
  EXPECT_TRUE(lv->Contains({1, -1}));
  auto presence_only = ReadKey(*lv, {1, -1});
  ASSERT_TRUE(presence_only.has_value());
  EXPECT_TRUE(presence_only->empty());
  auto det_rows = ReadKey(*lv, {0, -1});
  ASSERT_TRUE(det_rows.has_value());
  ASSERT_EQ(det_rows->size(), 2u);
  EXPECT_EQ((*det_rows)[0][1].AsString(), "car");
  EXPECT_DOUBLE_EQ((*det_rows)[1][2].AsDouble(), 0.5);
  MaterializedView* lc = loaded.Find("CarType@v");
  ASSERT_NE(lc, nullptr);
  auto cls_rows = ReadKey(*lc, {0, 1});
  ASSERT_TRUE(cls_rows.has_value());
  ASSERT_EQ(cls_rows->size(), 1u);
  EXPECT_EQ((*cls_rows)[0][0].AsString(), "Toyota");
  EXPECT_TRUE(lc->value_schema() ==
              Schema({{"CarType", DataType::kString}}));
}

TEST_F(PersistenceTest, LoadMergesWithoutOverwriting) {
  ViewStore store;
  Schema schema({{"CarType", DataType::kString}});
  store.GetOrCreate("CarType@v", schema)->Put({0, 0}, {{Value("Nissan")}});
  udf::UdfManager manager;
  ASSERT_TRUE(SaveSession(store, manager, dir_.string()).ok());

  ViewStore target;
  target.GetOrCreate("CarType@v", schema)->Put({0, 0}, {{Value("Ford")}});
  target.GetOrCreate("CarType@v", schema)->Put({0, 1}, {{Value("BMW")}});
  ASSERT_TRUE(LoadSession(dir_.string(), &target, nullptr).ok());
  // Existing keys win (append-only semantics); new keys merge in.
  auto kept = ReadKey(*target.Find("CarType@v"), {0, 0});
  ASSERT_TRUE(kept.has_value());
  ASSERT_EQ(kept->size(), 1u);
  EXPECT_EQ((*kept)[0][0].AsString(), "Ford");
  EXPECT_EQ(target.Find("CarType@v")->num_keys(), 2);
}

TEST_F(PersistenceTest, MissingDirectoryIsNotFound) {
  ViewStore store;
  EXPECT_EQ(LoadSession((dir_ / "nope").string(), &store, nullptr)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(PersistenceTest, EngineSurvivesRestart) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 120;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  const char* sql =
      "SELECT id, obj FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 120 AND label = 'car' AND CarType(frame, bbox) = "
      "'Nissan';";
  // Session 1: run and persist.
  {
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    ASSERT_TRUE(engine->Execute(sql).ok());
    ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  }
  // Session 2: load views; the same query needs zero UDF evaluations even
  // though the aggregated predicates were not persisted (the conditional
  // apply consults the view per tuple).
  {
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    ASSERT_TRUE(engine->LoadViews(dir_.string()).ok());
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.value().metrics.breakdown[CostCategory::kUdf], 0.0);
  }
}

TEST_F(PersistenceTest, LifecycleStateSurvivesEvictionAndRestart) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 120;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.segment_frames = 32;
  const char* sql =
      "SELECT id, obj FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 120 AND label = 'car';";
  const std::string key = "FasterRCNNResNet50@pv";

  auto coverage_at = [&](const engine::EvaEngine& engine, int64_t frame) {
    return engine.udf_manager().Coverage(key).Evaluate(
        [&](const std::string&) { return Value(frame); });
  };

  std::vector<bool> covered_after_eviction(120, false);
  std::string reference;
  int64_t saved_last_query = -2;
  double first_udf_ms = 0;
  // Session 1: materialize, evict under a mid-session budget, persist.
  {
    auto er = vbench::MakeEngine(options, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    auto first = engine->Execute(sql);
    ASSERT_TRUE(first.ok());
    reference = first.value().batch.ToString(1 << 20);
    first_udf_ms = first.value().metrics.breakdown[CostCategory::kUdf];
    ASSERT_GT(first_udf_ms, 0);
    // Seal first: EnforceBudget charges sealed segments at encoded size,
    // so the 50% budget must be half of the sealed footprint.
    engine->views().SealAllSegments();
    engine->lifecycle()->set_budget_bytes(
        engine->views().TotalSizeBytes() * 0.5);
    auto evicted =
        engine->lifecycle()->EnforceBudget(engine->queries_executed());
    ASSERT_FALSE(evicted.empty());
    for (int64_t f = 0; f < 120; ++f) {
      covered_after_eviction[static_cast<size_t>(f)] =
          coverage_at(*engine, f);
    }
    ASSERT_NE(std::count(covered_after_eviction.begin(),
                         covered_after_eviction.end(), true),
              0);
    saved_last_query = engine->views().Find(key)->last_access_query();
    ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  }
  // Session 2: reload. The retracted coverage and segment stamps round-trip,
  // and re-running the query recomputes exactly the evicted gap.
  {
    auto er = vbench::MakeEngine(options, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    ASSERT_TRUE(engine->LoadViews(dir_.string()).ok());
    for (int64_t f = 0; f < 120; ++f) {
      EXPECT_EQ(coverage_at(*engine, f),
                covered_after_eviction[static_cast<size_t>(f)])
          << "frame " << f;
    }
    const MaterializedView* view = engine->views().Find(key);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->last_access_query(), saved_last_query);
    ASSERT_FALSE(view->Segments().empty());

    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().batch.ToString(1 << 20), reference);
    // Retained frames reuse (coverage or view probe); only the evicted
    // gap pays UDF time again.
    const double udf_ms = r.value().metrics.breakdown[CostCategory::kUdf];
    EXPECT_GT(udf_ms, 0);
    EXPECT_LT(udf_ms, first_udf_ms);
    EXPECT_GT(r.value().metrics.TotalReused(), 0);
  }
}

// A directory without a MANIFEST never committed anything: it loads as an
// empty generation 0, its view and lifecycle files are quarantined, and
// the session recomputes (same rows, UDF time paid again).
TEST_F(PersistenceTest, DirectoryWithoutManifestQuarantinesAndRecomputes) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 60;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  const char* sql =
      "SELECT id, obj FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 60 AND label = 'car';";
  std::string reference;
  {
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok());
    reference = r.value().batch.ToString(1 << 20);
    ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  }
  fs::remove(dir_ / "MANIFEST");
  std::vector<std::string> committed;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    committed.push_back(entry.path().filename().string());
  }
  std::sort(committed.begin(), committed.end());
  ASSERT_GE(committed.size(), 2u);  // >= one .evaseg + the .evastate
  {
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    ASSERT_TRUE(engine->LoadViews(dir_.string()).ok());
    const RecoveryReport& report = engine->last_recovery();
    EXPECT_EQ(report.generation, 0);
    EXPECT_FALSE(report.manifest_corrupt);
    std::vector<std::string> quarantined;
    for (const QuarantinedFile& q : report.quarantined) {
      EXPECT_EQ(q.reason, "not in manifest") << q.file;
      EXPECT_TRUE(fs::exists(dir_ / (q.file + ".quarantined"))) << q.file;
      quarantined.push_back(q.file);
    }
    std::sort(quarantined.begin(), quarantined.end());
    EXPECT_EQ(quarantined, committed);
    EXPECT_TRUE(engine->views().views().empty());
    EXPECT_TRUE(engine->udf_manager().entries().empty());
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().batch.ToString(1 << 20), reference);
    EXPECT_GT(r.value().metrics.breakdown[CostCategory::kUdf], 0.0);
    EXPECT_EQ(r.value().metrics.TotalReused(), 0);
  }
}

// Regression: a view dropped from the store used to leave its view file
// behind, silently resurrecting on the next load. Committing the
// manifest now garbage-collects every file it does not list.
TEST_F(PersistenceTest, StaleFilesOfDroppedViewsDoNotResurrect) {
  Schema schema({{"x", DataType::kInt64}});
  {
    ViewStore store;
    store.GetOrCreate("A@v", schema)->Put({0, -1}, {{Value(int64_t{1})}});
    store.GetOrCreate("B@v", schema)->Put({0, -1}, {{Value(int64_t{2})}});
    ASSERT_TRUE(SaveSession(store, udf::UdfManager(), dir_.string()).ok());
  }
  {
    // Second save no longer contains B — its file must be deleted.
    ViewStore store;
    store.GetOrCreate("A@v", schema)->Put({0, -1}, {{Value(int64_t{1})}});
    ASSERT_TRUE(SaveSession(store, udf::UdfManager(), dir_.string()).ok());
  }
  int view_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 7 && name.substr(name.size() - 7) == ".evaseg") {
      ++view_files;
      EXPECT_EQ(name.find("B@v"), std::string::npos) << name;
    }
  }
  EXPECT_EQ(view_files, 1);
  ViewStore loaded;
  ASSERT_TRUE(LoadSession(dir_.string(), &loaded, nullptr).ok());
  EXPECT_NE(loaded.Find("A@v"), nullptr);
  EXPECT_EQ(loaded.Find("B@v"), nullptr) << "dropped view resurrected";
}

// A file someone (or an interrupted save) drops into the directory without
// a manifest entry is quarantined, never loaded.
TEST_F(PersistenceTest, UnmanifestedFileIsQuarantinedNotLoaded) {
  Schema schema({{"x", DataType::kInt64}});
  ViewStore store;
  store.GetOrCreate("A@v", schema)->Put({0, -1}, {{Value(int64_t{1})}});
  ASSERT_TRUE(SaveSession(store, udf::UdfManager(), dir_.string()).ok());
  {
    // A well-formed view file, just never committed.
    ViewStore stray;
    MaterializedView* view = stray.GetOrCreate("Stray@v", schema);
    view->Put({0, -1}, {{Value(int64_t{7})}});
    std::ofstream out(dir_ / "Stray@v.evaseg", std::ios::binary);
    out << SerializeViewSegments("Stray@v", *view);
  }
  ViewStore loaded;
  auto report = LoadSession(dir_.string(), &loaded, nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(loaded.Find("Stray@v"), nullptr);
  EXPECT_NE(loaded.Find("A@v"), nullptr);
  ASSERT_EQ(report.value().quarantined.size(), 1u);
  EXPECT_EQ(report.value().quarantined[0].file, "Stray@v.evaseg");
  EXPECT_EQ(report.value().quarantined[0].reason, "not in manifest");
  EXPECT_TRUE(fs::exists(dir_ / "Stray@v.evaseg.quarantined"));
  EXPECT_FALSE(fs::exists(dir_ / "Stray@v.evaseg"));
}

TEST_F(PersistenceTest, GenerationAdvancesAcrossSaves) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 60;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  ASSERT_TRUE(engine
                  ->Execute("SELECT id, obj FROM pv CROSS APPLY "
                            "FasterRCNNResNet50(frame) WHERE id < 30 AND "
                            "label = 'car';")
                  .ok());
  ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  ASSERT_TRUE(engine->LoadViews(dir_.string()).ok());
  EXPECT_EQ(engine->last_recovery().generation, 2);
  EXPECT_TRUE(engine->last_recovery().clean());
  // Only one generation's files survive the second commit's GC.
  int view_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 7 && name.substr(name.size() - 7) == ".evaseg") {
      ++view_files;
      EXPECT_NE(name.find(".g2."), std::string::npos) << name;
    }
  }
  EXPECT_GE(view_files, 1);
}

}  // namespace
}  // namespace eva::storage
