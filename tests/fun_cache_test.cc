#include <gtest/gtest.h>

#include "baselines/fun_cache.h"
#include "engine/eva_engine.h"
#include "vbench/vbench.h"

namespace eva::baselines {
namespace {

TEST(FunCacheTest, LookupInsertSemantics) {
  FunCache cache;
  storage::ViewKey key{5, -1};
  EXPECT_EQ(cache.Lookup("Det", key), nullptr);
  cache.Insert("Det", key, {{Value("car")}});
  const std::vector<Row>* hit = cache.Lookup("Det", key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0][0].AsString(), "car");
  // Per-UDF namespaces are isolated.
  EXPECT_EQ(cache.Lookup("Other", key), nullptr);
  EXPECT_EQ(cache.NumEntries("Det"), 1);
  EXPECT_EQ(cache.NumEntries("Other"), 0);
  EXPECT_EQ(cache.TotalEntries(), 1);
  cache.Clear();
  EXPECT_EQ(cache.TotalEntries(), 0);
}

TEST(FunCacheTest, EmptyResultsAreCached) {
  // Frames with zero detections must hit the cache too — otherwise sparse
  // videos re-run the detector forever (the bug class §5.5 exposes).
  FunCache cache;
  cache.Insert("Det", {7, -1}, {});
  const std::vector<Row>* hit = cache.Lookup("Det", {7, -1});
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->empty());
}

class FunCacheEngineTest : public ::testing::Test {
 protected:
  FunCacheEngineTest() {
    catalog::VideoInfo video;
    video.name = "fc";
    video.num_frames = 150;
    video.mean_objects_per_frame = 5;
    video.seed = 77;
    auto er =
        vbench::MakeEngine(optimizer::ReuseMode::kFunCache, video);
    EXPECT_TRUE(er.ok());
    engine_ = er.MoveValue();
  }
  std::unique_ptr<engine::EvaEngine> engine_;
};

TEST_F(FunCacheEngineTest, HashingChargedOnEveryInvocation) {
  const char* sql =
      "SELECT id, obj FROM fc CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 100 AND label = 'car';";
  auto first = engine_->Execute(sql);
  ASSERT_TRUE(first.ok());
  double hash_first =
      first.value().metrics.breakdown[CostCategory::kHashing];
  EXPECT_GT(hash_first, 0);
  auto second = engine_->Execute(sql);
  ASSERT_TRUE(second.ok());
  // All detector results reused...
  EXPECT_EQ(second.value().metrics.reused.at("FasterRCNNResNet50"), 100);
  EXPECT_DOUBLE_EQ(second.value().metrics.breakdown[CostCategory::kUdf],
                   0.0);
  // ...but the hashing overhead is paid again (the FunCache weakness the
  // paper highlights on VBENCH-LOW).
  EXPECT_NEAR(second.value().metrics.breakdown[CostCategory::kHashing],
              hash_first, 1e-6);
}

TEST_F(FunCacheEngineTest, NoViewsAreMaterialized) {
  ASSERT_TRUE(engine_
                  ->Execute("SELECT id, obj FROM fc CROSS APPLY "
                            "FasterRCNNResNet50(frame) WHERE id < 50;")
                  .ok());
  EXPECT_DOUBLE_EQ(engine_->views().TotalSizeBytes(), 0);
  EXPECT_GT(engine_->funcache().TotalEntries(), 0);
  EXPECT_EQ(engine_->funcache().NumEntries("FasterRCNNResNet50"), 50);
}

// FunCache sees every invocation the workload makes, so over VBENCH-HIGH
// its per-UDF invocations equal a no-reuse run's, and each invocation
// either made a cache entry or reused one: Table 3's #DI and Eq. 7's
// distinct counts read its entries.
TEST(FunCacheWorkloadTest, EntriesCountTheWorkloadsDistinctInvocations) {
  catalog::VideoInfo video;
  video.name = "fcw";
  video.num_frames = 300;
  video.mean_objects_per_frame = 5;
  video.seed = 78;
  const std::vector<std::string> queries =
      vbench::VbenchHigh(video.name, video.num_frames);
  auto noreuse = vbench::MakeEngine(optimizer::ReuseMode::kNoReuse, video);
  auto funcache = vbench::MakeEngine(optimizer::ReuseMode::kFunCache, video);
  ASSERT_TRUE(noreuse.ok());
  ASSERT_TRUE(funcache.ok());
  auto want = vbench::RunWorkload(noreuse.value().get(), queries);
  auto got = vbench::RunWorkload(funcache.value().get(), queries);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  const exec::QueryMetrics& w = want.value().aggregate;
  const exec::QueryMetrics& g = got.value().aggregate;
  EXPECT_EQ(g.invocations, w.invocations);
  ASSERT_EQ(g.invocations.size(), 3u);
  for (const auto& [udf, n] : g.invocations) {
    SCOPED_TRACE(udf);
    const auto reused = g.reused.find(udf);
    const int64_t r = reused == g.reused.end() ? 0 : reused->second;
    EXPECT_GT(r, 0);
    EXPECT_EQ(funcache.value()->funcache().NumEntries(udf) + r, n);
  }
}

TEST_F(FunCacheEngineTest, CacheWorksAtTupleGranularityForClassifiers) {
  ASSERT_TRUE(engine_
                  ->Execute("SELECT id, obj FROM fc CROSS APPLY "
                            "FasterRCNNResNet50(frame) WHERE id < 80 AND "
                            "label = 'car' AND CarType(frame, bbox) = "
                            "'Nissan';")
                  .ok());
  // A different CarType constant still reuses the cached classifier
  // outputs (cache keys are input tuples, not predicates).
  auto r = engine_->Execute(
      "SELECT id, obj FROM fc CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 80 AND label = 'car' AND CarType(frame, bbox) = "
      "'Toyota';");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().metrics.reused.at("CarType"),
            r.value().metrics.invocations.at("CarType"));
}

}  // namespace
}  // namespace eva::baselines
