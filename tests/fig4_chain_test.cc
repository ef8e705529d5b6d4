// The materialization-aware rewrite of Fig. 4 (§4.4) end to end: the
// EXPLAIN ANALYZE text of the VBENCH query sets against committed
// goldens, and a differential oracle for logical-UDF reuse (§4.3): a
// view holds only its own model's rows, so a physical query over it
// equals a no-reuse engine row for row.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/eva_engine.h"
#include "vbench/vbench.h"

namespace eva::engine {
namespace {

using optimizer::ReuseMode;

std::unique_ptr<EvaEngine> MakeEngineOrDie(EngineOptions options,
                                           const catalog::VideoInfo& video) {
  auto r = vbench::MakeEngine(options, video);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

// EXPLAIN ANALYZE of `queries`, run twice on one fresh engine: the first
// pass plans Apply + STORE, the second ViewJoin / CondApply / STORE.
std::string ExplainTranscript(const catalog::VideoInfo& video,
                              const std::vector<std::string>& queries,
                              int64_t batch_size) {
  EngineOptions options;
  options.batch_size = batch_size;
  auto engine = MakeEngineOrDie(options, video);
  std::string out;
  for (int pass = 1; pass <= 2; ++pass) {
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = engine->Execute("EXPLAIN ANALYZE " + queries[i]);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return out;
      out += "-- pass " + std::to_string(pass) + " query " +
             std::to_string(i + 1) + ": " + queries[i] + "\n";
      out += r.value().report.plan_text;
    }
  }
  return out;
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(EVA_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// The goldens hold simulated times only, so they are exact on any host.
TEST(Fig4ChainTest, ExplainAnalyzeVbenchHighMatchesGolden) {
  const catalog::VideoInfo video = vbench::ShortUaDetrac();
  EXPECT_EQ(ExplainTranscript(video,
                              vbench::VbenchHigh(video.name, video.num_frames),
                              1024),
            ReadGolden("explain_vbench_high.txt"));
}

TEST(Fig4ChainTest, ExplainAnalyzeVbenchLowMatchesGolden) {
  const catalog::VideoInfo video = vbench::ShortUaDetrac();
  EXPECT_EQ(ExplainTranscript(video,
                              vbench::VbenchLow(video.name, video.num_frames),
                              1024),
            ReadGolden("explain_vbench_low.txt"));
}

// A sparse video in 8-frame chunks: many chunks hold no object, so joins
// and STOREs that emit nothing for a chunk pull the next one.
TEST(Fig4ChainTest, ExplainAnalyzeSparseSmallBatchesMatchesGolden) {
  catalog::VideoInfo video = vbench::Jackson();
  video.num_frames = 2000;
  EXPECT_EQ(ExplainTranscript(video,
                              vbench::VbenchHigh(video.name, video.num_frames),
                              8),
            ReadGolden("explain_jackson_high.txt"));
}

// Runs `sql` on both engines and expects the same rows in the same order.
void ExpectSameRows(EvaEngine* reuse, EvaEngine* plain,
                    const std::string& sql) {
  auto got = reuse->Execute(sql);
  auto want = plain->Execute(sql);
  ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
  ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
  const std::vector<Row>& a = got.value().batch.rows();
  const std::vector<Row>& b = want.value().batch.rows();
  ASSERT_EQ(a.size(), b.size()) << sql;
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size()) << sql;
    for (size_t c = 0; c < a[r].size(); ++c) {
      ASSERT_EQ(a[r][c].ToString(), b[r][c].ToString())
          << sql << " row " << r << " column " << c;
    }
  }
}

catalog::VideoInfo TrimmedUaDetrac(int64_t frames) {
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  video.num_frames = frames;
  return video;
}

EngineOptions NoReuse() {
  EngineOptions options;
  options.optimizer.mode = ReuseMode::kNoReuse;
  options.optimizer.reuse_enabled = false;
  return options;
}

// ROADMAP repro: the MEDIUM query reads ResNet-101's rows for frames
// [0, 200) and runs ResNet-50 on [200, 400). ResNet-50's view must not
// take ResNet-101's rows, so the physical ResNet-50 query over [0, 200)
// returns ResNet-50's own 1,675 detections.
TEST(Fig4ChainTest, PhysicalQueryAfterLogicalReuseReadsItsOwnModel) {
  const catalog::VideoInfo video = vbench::ShortUaDetrac();
  auto reuse = MakeEngineOrDie(EngineOptions(), video);
  auto plain = MakeEngineOrDie(NoReuse(), video);
  const std::string from = "SELECT id, obj, label FROM short_ua_detrac ";
  for (const char* q :
       {"CROSS APPLY ObjectDetector(frame) ACCURACY 'HIGH' WHERE id < 200;",
        "CROSS APPLY ObjectDetector(frame) ACCURACY 'MEDIUM' WHERE id < 400;"}) {
    auto r = reuse->Execute(from + q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const std::string physical =
      from + "CROSS APPLY FasterRCNNResNet50(frame) WHERE id < 200;";
  auto r = reuse->Execute(physical);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().batch.num_rows(), 1675u);
  ExpectSameRows(reuse.get(), plain.get(), physical);
}

// Random sessions mixing logical queries of every accuracy with physical
// queries of every model: each physical query equals a no-reuse engine
// row for row, whatever the logical queries before it reused or stored.
TEST(Fig4ChainTest, PhysicalQueriesEqualNoReuseAfterRandomLogicalQueries) {
  const catalog::VideoInfo video = TrimmedUaDetrac(1200);
  const char* const accuracies[] = {"LOW", "MEDIUM", "HIGH"};
  const char* const models[] = {"YoloTiny", "FasterRCNNResNet50",
                                "FasterRCNNResNet101"};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto reuse = MakeEngineOrDie(EngineOptions(), video);
    auto plain = MakeEngineOrDie(NoReuse(), video);
    Rng rng(seed);
    int physical = 0;
    for (int q = 0; q < 24; ++q) {
      const auto lo = static_cast<int64_t>(rng.NextBelow(1000));
      const int64_t hi = lo + 50 + static_cast<int64_t>(rng.NextBelow(300));
      const std::string range = " WHERE id >= " + std::to_string(lo) +
                                " AND id < " + std::to_string(hi);
      const std::string label = rng.NextBool(0.5) ? " AND label = 'car'" : "";
      if (rng.NextBool(0.5)) {
        const std::string sql =
            "SELECT id, obj, label FROM " + video.name +
            " CROSS APPLY ObjectDetector(frame) ACCURACY '" +
            accuracies[rng.NextBelow(3)] + "'" + range + label + ";";
        auto r = reuse->Execute(sql);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
        continue;
      }
      ++physical;
      const std::string sql = "SELECT id, obj, label, area FROM " +
                              video.name + " CROSS APPLY " +
                              models[rng.NextBelow(3)] + "(frame)" + range +
                              label + ";";
      ExpectSameRows(reuse.get(), plain.get(), sql);
    }
    EXPECT_GT(physical, 0);
  }
}

}  // namespace
}  // namespace eva::engine
