#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "engine/eva_engine.h"
#include "storage/view_persistence.h"
#include "udf/udf_manager.h"
#include "vbench/vbench.h"
#include "view_test_util.h"
#include "wal/wal_log.h"
#include "wal/wal_replay.h"

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

TEST_F(PersistenceTest, ViewStoreRoundTrips) {
  ViewStore store;
  Schema det({{"obj", DataType::kInt64},
              {"label", DataType::kString},
              {"area", DataType::kDouble},
              {"score", DataType::kDouble}});
  MaterializedView* view = store.GetOrCreate("Det@v", det);
  PutRows(view, {0, -1}, {{Value(int64_t{0}), Value("car"), Value(0.25),
                           Value(0.9)},
                          {Value(int64_t{1}), Value("bus"), Value(0.5),
                           Value(0.8)}});
  PutRows(view, {1, -1}, {});  // presence-only entry must survive
  MaterializedView* cls =
      store.GetOrCreate("CarType@v", Schema({{"CarType",
                                              DataType::kString}}));
  PutRows(cls, {0, 0}, {{Value("Nissan")}});
  PutRows(cls, {0, 1}, {{Value("Toyota")}});

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
  PutRows(store.GetOrCreate("CarType@v", schema), {0, 0}, {{Value("Nissan")}});
  udf::UdfManager manager;
  ASSERT_TRUE(SaveSession(store, manager, dir_.string()).ok());

  ViewStore target;
  PutRows(target.GetOrCreate("CarType@v", schema), {0, 0}, {{Value("Ford")}});
  PutRows(target.GetOrCreate("CarType@v", schema), {0, 1}, {{Value("BMW")}});
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

// A saved view whose schema is not its UDF's output schema (here the
// detector's area saved as Int64) loads, but a query that would read it
// through the UDF's typed lanes, or store into it, fails with an error.
TEST_F(PersistenceTest, ViewOfAnotherSchemaFailsTheQuery) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 40;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  {
    ViewStore store;
    MaterializedView* view = store.GetOrCreate(
        "FasterRCNNResNet50@pv", Schema({{"obj", DataType::kInt64},
                                         {"label", DataType::kString},
                                         {"area", DataType::kInt64},
                                         {"score", DataType::kDouble}}));
    for (int64_t f = 0; f < 10; ++f) {
      PutRows(view, {f, -1},
              {{Value(int64_t{0}), Value("car"), Value(f), Value(0.9)}});
    }
    udf::UdfManager manager;
    ASSERT_TRUE(SaveSession(store, manager, dir_.string()).ok());
  }
  auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  ASSERT_TRUE(engine->LoadViews(dir_.string()).ok());
  auto r = engine->Execute(
      "SELECT id, obj FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 40 AND label = 'car';");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("FasterRCNNResNet50@pv"),
            std::string::npos)
      << r.status().ToString();
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
    PutRows(store.GetOrCreate("A@v", schema), {0, -1}, {{Value(int64_t{1})}});
    PutRows(store.GetOrCreate("B@v", schema), {0, -1}, {{Value(int64_t{2})}});
    ASSERT_TRUE(SaveSession(store, udf::UdfManager(), dir_.string()).ok());
  }
  {
    // Second save no longer contains B — its file must be deleted.
    ViewStore store;
    PutRows(store.GetOrCreate("A@v", schema), {0, -1}, {{Value(int64_t{1})}});
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
  PutRows(store.GetOrCreate("A@v", schema), {0, -1}, {{Value(int64_t{1})}});
  ASSERT_TRUE(SaveSession(store, udf::UdfManager(), dir_.string()).ok());
  {
    // A well-formed view file, just never committed.
    ViewStore stray;
    MaterializedView* view = stray.GetOrCreate("Stray@v", schema);
    PutRows(view, {0, -1}, {{Value(int64_t{7})}});
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

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void ExpectSameStamps(const MaterializedView& a, const MaterializedView& b) {
  const std::vector<SegmentStats> sa = a.Segments();
  const std::vector<SegmentStats> sb = b.Segments();
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    SCOPED_TRACE("segment " + std::to_string(sa[i].segment_id));
    EXPECT_EQ(sa[i].segment_id, sb[i].segment_id);
    EXPECT_EQ(sa[i].bytes, sb[i].bytes);
    EXPECT_EQ(sa[i].info.keys, sb[i].info.keys);
    EXPECT_EQ(sa[i].info.rows, sb[i].info.rows);
    EXPECT_EQ(sa[i].info.created_tick, sb[i].info.created_tick);
    EXPECT_EQ(sa[i].info.last_access_tick, sb[i].info.last_access_tick);
    EXPECT_EQ(sa[i].info.last_access_query, sb[i].info.last_access_query);
  }
}

// Snapshot load and WAL replay install decoded columns through PutBatch.
// Over a view whose sealed columns take every codec (FOR, BitPack, RLE,
// DictNum, ExpPack), a dictionary past 65,536 entries, NULLs (also from
// rows shorter than the schema), all-NULL columns (an Int64 one, and a
// String one with an empty dictionary), a NaN payload, -0.0 and
// presence-only keys: save -> load -> save writes the same `.evaseg`
// bytes and restores the same segment stamps, and the view's captured
// segment_append records replay into an empty store that reseals to the
// source's bytes.
TEST_F(PersistenceTest, InstalledSegmentsRoundTripByteForByte) {
  const std::string name = "Mix@v";
  const Schema schema({{"for_i", DataType::kInt64},
                       {"rle_i", DataType::kInt64},
                       {"bits", DataType::kBool},
                       {"label", DataType::kString},
                       {"dict_d", DataType::kDouble},
                       {"exp_d", DataType::kDouble},
                       {"sparse", DataType::kInt64},
                       {"big_s", DataType::kString}});
  const double kNaN = std::bit_cast<double>(uint64_t{0x7FF800000000BEEF});
  const char* const kLabels[] = {"car", "bus", "person"};
  const double kLevels[] = {0.25, 0.5, 0.75, 1.5};
  for (bool compress : {false, true}) {
    SCOPED_TRACE("compress=" + std::to_string(compress));
    const SegmentBuildOptions options{compress, compress ? 10 : 0};
    auto configure = [&options](ViewStore* store) {
      store->set_segment_frames(64);
      store->set_build_options(options);
    };
    ViewStore store;
    configure(&store);
    store.set_capture_appends(true);
    MaterializedView* view = store.GetOrCreate(name, schema);
    Rng rng(compress ? 7 : 8);
    int64_t serial = 0;
    // Bit patterns of the NaN and zero exp_d cells, by key and row.
    std::map<ViewKey, std::vector<std::pair<size_t, uint64_t>>> special;
    for (int64_t f = 0; f < 300; ++f) {
      std::vector<Row> rows;
      // Presence-only keys; frame 3 carries more distinct big_s strings
      // than a dictionary holds.
      const int64_t nrows = f % 11 == 0 ? 0 : f == 3 ? 66000 : 1 + f % 5;
      for (int64_t r = 0; r < nrows; ++r) {
        const uint64_t h = rng.NextU64();
        Row row = {Value(int64_t{1000000} + static_cast<int64_t>(h % 1000)),
                   Value((f / 32) * 1000),
                   h % 13 == 0 ? Value::Null() : Value((h >> 8) % 2 == 0),
                   Value(kLabels[(h >> 12) % 3]),
                   Value(kLevels[(h >> 16) % 4]),
                   Value(1.0 + rng.NextDouble())};
        if (h % 17 == 0) row[5] = Value(kNaN);
        if (h % 19 == 0) row[5] = Value(-0.0);
        if (h % 23 == 0) row[5] = Value::Null();
        // sparse: all NULL in the first segment; big_s: in the last.
        row.push_back(f < 64 || (h >> 20) % 2 == 0
                          ? Value::Null()
                          : Value(static_cast<int64_t>(r)));
        row.push_back(f >= 256 ? Value::Null()
                               : Value(std::to_string(serial++)));
        if (h % 29 == 0) row.resize(4);  // the rest read as NULL
        if (row.size() > 5 && !row[5].is_null() &&
            (std::isnan(row[5].AsDouble()) || row[5].AsDouble() == 0)) {
          special[{f, -1}].push_back(
              {rows.size(), std::bit_cast<uint64_t>(row[5].AsDouble())});
        }
        rows.push_back(std::move(row));
      }
      ASSERT_TRUE(PutRows(view, {f, -1}, rows, static_cast<uint64_t>(f + 1),
                          f % 7));
      // A mid-build reseal: the capture keeps what it moved out.
      if (f == 150) view->SealAllSegments();
    }
    const std::vector<std::shared_ptr<const ColumnarSegment>> appended =
        view->TakeAppendedChunks();
    // Typed copies keep NaN payloads and the sign of zero.
    auto expect_special = [&special](const MaterializedView& v) {
      for (const auto& [key, cells] : special) {
        const auto rows = ReadKey(v, key);
        ASSERT_TRUE(rows.has_value());
        for (const auto& [r, bits] : cells) {
          EXPECT_EQ(std::bit_cast<uint64_t>((*rows)[r][5].AsDouble()), bits);
        }
      }
    };
    expect_special(*view);

    // Sealed columns cover every codec; every column is encoded as its
    // field's type, including the all-NULL ones.
    std::set<ColumnVec::Codec> codecs;
    for (const auto& [seg_id, seg] : view->SealedSegments()) {
      for (size_t c = 0; c < seg->cols.size(); ++c) {
        const ColumnVec& col = seg->cols[c];
        codecs.insert(col.codec());
        EXPECT_EQ(col.enc(), ColumnVec::EncOf(schema.field(c).type));
      }
      EXPECT_EQ(seg->zones[6].all_null, seg_id == 0) << "segment " << seg_id;
      EXPECT_EQ(seg->zones[7].all_null, seg_id == 4) << "segment " << seg_id;
      EXPECT_EQ(seg->cols[7].dict_.empty(), seg_id == 4);
    }
    if (compress) {
      for (ColumnVec::Codec c :
           {ColumnVec::Codec::kFor, ColumnVec::Codec::kBitPack,
            ColumnVec::Codec::kRle, ColumnVec::Codec::kDictNum,
            ColumnVec::Codec::kExpPack}) {
        EXPECT_TRUE(codecs.count(c) > 0) << ColumnVec::CodecName(c);
      }
    }

    // Snapshot: save, load into a fresh store, save again.
    const fs::path first = dir_ / ("first" + std::to_string(compress));
    const fs::path second = dir_ / ("second" + std::to_string(compress));
    udf::UdfManager manager;
    ASSERT_TRUE(SaveSession(store, manager, first.string()).ok());
    ViewStore loaded;
    configure(&loaded);
    auto report = LoadSession(first.string(), &loaded, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report.value().clean()) << report.value().Summary();
    const MaterializedView* lv = loaded.Find(name);
    ASSERT_NE(lv, nullptr);
    EXPECT_EQ(lv->num_keys(), view->num_keys());
    EXPECT_EQ(lv->num_rows(), view->num_rows());
    ASSERT_TRUE(SaveSession(loaded, manager, second.string()).ok());
    const std::string file = name + ".g1.evaseg";
    const std::string saved = ReadBytes(first / file);
    ASSERT_FALSE(saved.empty());
    EXPECT_TRUE(saved == ReadBytes(second / file));
    ExpectSameStamps(*view, *lv);
    expect_special(*lv);
    const auto presence_only = ReadKey(*lv, {11, -1});
    ASSERT_TRUE(presence_only.has_value());
    EXPECT_TRUE(presence_only->empty());
    const auto big = ReadKey(*lv, {3, -1});
    ASSERT_TRUE(big.has_value());
    EXPECT_EQ(big->size(), 66000u);

    // WAL: the captured appends, framed as segment_append records,
    // replay into an empty store.
    ASSERT_GT(appended.size(), 3u);
    std::string log;
    for (const auto& chunk : appended) {
      log += wal::EncodeFrame(
          wal::SegmentAppendRecord(name, schema, /*query_id=*/4, *chunk));
    }
    const fs::path wal_path = dir_ / ("replay" + std::to_string(compress));
    {
      std::ofstream out(wal_path, std::ios::binary);
      out.write(log.data(), static_cast<std::streamsize>(log.size()));
    }
    catalog::Catalog catalog;
    ViewStore replayed;
    configure(&replayed);
    auto replay = wal::ReplayWal(wal_path.string(), &catalog, &replayed,
                                 &manager, symbolic::SymbolicBudget());
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay.value().appends, static_cast<int64_t>(appended.size()));
    EXPECT_EQ(replay.value().keys_applied, view->num_keys());
    const MaterializedView* rv = replayed.Find(name);
    ASSERT_NE(rv, nullptr);
    EXPECT_TRUE(SerializeViewSegments(name, *rv) == saved);
    expect_special(*rv);
    // One record per segment, in segment order, and one tick per record
    // stamped on every key it inserted.
    const std::vector<SegmentStats> stamps = rv->Segments();
    ASSERT_EQ(stamps.size(), appended.size());
    for (size_t i = 0; i < stamps.size(); ++i) {
      EXPECT_EQ(stamps[i].info.created_tick, i + 1);
      EXPECT_EQ(stamps[i].info.last_access_tick, i + 1);
      EXPECT_EQ(stamps[i].info.last_access_query, 4);
    }
  }
}

}  // namespace
}  // namespace eva::storage
