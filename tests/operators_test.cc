#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <utility>

#include "exec/operators.h"
#include "parser/parser.h"
#include "storage/view_store.h"
#include "udf/udf_runtime.h"
#include "vision/synthetic_video.h"

namespace eva::exec {
namespace {

// Harness giving each operator test a tiny video, a catalog with one
// detector + one classifier, and a fresh execution context.
class OperatorTest : public ::testing::Test {
 protected:
  OperatorTest() : runtime_(&catalog_) {
    catalog::UdfDef det;
    det.name = "Det";
    det.kind = catalog::UdfKind::kDetector;
    det.cost_ms = 99;
    det.recall = 1.0;
    det.recall_small = 1.0;  // perfect detector: output == ground truth
    EXPECT_TRUE(catalog_.AddUdf(det).ok());
    det.name = "Det2";  // a second model of the same logical detector
    EXPECT_TRUE(catalog_.AddUdf(det).ok());
    catalog::UdfDef cls;
    cls.name = "CarType";
    cls.kind = catalog::UdfKind::kClassifier;
    cls.cost_ms = 6;
    cls.classifier_accuracy = 1.0;
    cls.target_attribute = "car_type";
    EXPECT_TRUE(catalog_.AddUdf(cls).ok());

    catalog::VideoInfo info;
    info.name = "v";
    info.num_frames = 40;
    info.mean_objects_per_frame = 3;
    info.seed = 5;
    EXPECT_TRUE(catalog_.AddVideo(info).ok());
    video_ = std::make_unique<vision::SyntheticVideo>(info);

    ctx_.clock = &clock_;
    ctx_.views = &views_;
    ctx_.catalog = &catalog_;
    ctx_.udfs = &runtime_;
    ctx_.video = video_.get();
    ctx_.metrics = &metrics_;
    ctx_.batch_size = 16;  // force multiple batches
  }

  Batch Run(const plan::PlanNodePtr& plan) {
    auto r = ExecutePlan(plan, &ctx_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.MoveValue() : Batch();
  }

  static plan::PlanNodePtr Scan(int64_t lo, int64_t hi) {
    return std::make_shared<plan::VideoScanNode>("v", lo, hi);
  }
  static plan::PlanNodePtr Chain(plan::PlanNodePtr parent,
                                 plan::PlanNodePtr child) {
    parent->AddChild(std::move(child));
    return parent;
  }

  int64_t TotalGtObjects(int64_t lo, int64_t hi) const {
    int64_t n = 0;
    for (int64_t f = lo; f < hi; ++f) {
      n += static_cast<int64_t>(video_->FrameObjects(f).size());
    }
    return n;
  }

  catalog::Catalog catalog_;
  std::unique_ptr<vision::SyntheticVideo> video_;
  udf::UdfRuntime runtime_;
  storage::ViewStore views_;
  SimClock clock_;
  QueryMetrics metrics_;
  ExecContext ctx_;
};

TEST_F(OperatorTest, VideoScanEmitsRangeAndChargesReads) {
  Batch out = Run(Scan(5, 25));
  EXPECT_EQ(out.num_rows(), 20u);
  EXPECT_EQ(out.rows().front()[0].AsInt64(), 5);
  EXPECT_EQ(out.rows().back()[0].AsInt64(), 24);
  EXPECT_DOUBLE_EQ(clock_.Elapsed(CostCategory::kReadVideo),
                   20 * ctx_.costs.video_read_ms_per_frame);
}

TEST_F(OperatorTest, VideoScanClampsToVideoBounds) {
  EXPECT_EQ(Run(Scan(-5, 1000)).num_rows(), 40u);
  EXPECT_EQ(Run(Scan(50, 60)).num_rows(), 0u);
}

TEST_F(OperatorTest, DetectorApplyExpandsFrames) {
  auto apply = std::make_shared<plan::ApplyNode>("Det");
  Batch out = Run(Chain(apply, Scan(0, 40)));
  EXPECT_EQ(static_cast<int64_t>(out.num_rows()), TotalGtObjects(0, 40));
  EXPECT_EQ(metrics_.invocations["Det"], 40);
  EXPECT_DOUBLE_EQ(clock_.Elapsed(CostCategory::kUdf), 40 * 99.0);
  // Output schema: id + detector outputs.
  EXPECT_GE(out.schema().IndexOf(kColObj), 0);
  EXPECT_GE(out.schema().IndexOf(kColLabel), 0);
}

TEST_F(OperatorTest, ClassifierApplyAnnotatesColumn) {
  auto det = Chain(std::make_shared<plan::ApplyNode>("Det"), Scan(0, 10));
  auto cls = Chain(std::make_shared<plan::ApplyNode>("CarType"), det);
  Batch out = Run(cls);
  int idx = out.schema().IndexOf("CarType");
  ASSERT_GE(idx, 0);
  // Perfect classifier: matches ground truth.
  for (size_t r = 0; r < out.num_rows(); ++r) {
    int64_t frame = out.GetByName(r, kColId).AsInt64();
    int64_t obj = out.GetByName(r, kColObj).AsInt64();
    EXPECT_EQ(out.At(r, static_cast<size_t>(idx)).AsString(),
              video_->FrameObjects(frame)[static_cast<size_t>(obj)]
                  .car_type());
  }
  EXPECT_EQ(metrics_.invocations["CarType"],
            static_cast<int64_t>(out.num_rows()));
}

TEST_F(OperatorTest, FilterDropsRows) {
  auto det = Chain(std::make_shared<plan::ApplyNode>("Det"), Scan(0, 40));
  auto pred = parser::ParseExpression("label = 'car'");
  ASSERT_TRUE(pred.ok());
  auto filter =
      Chain(std::make_shared<plan::FilterNode>(pred.value()), det);
  Batch out = Run(filter);
  EXPECT_GT(out.num_rows(), 0u);
  for (size_t r = 0; r < out.num_rows(); ++r) {
    EXPECT_EQ(out.GetByName(r, kColLabel).AsString(), "car");
  }
}

TEST_F(OperatorTest, StoreMaterializesDetectorResultsIncludingEmptyFrames) {
  auto apply = std::make_shared<plan::ApplyNode>("Det");
  apply->set_emit_presence_placeholders(true);
  auto store = Chain(std::make_shared<plan::StoreNode>("Det", "Det@v"),
                     Chain(apply, Scan(0, 40)));
  Batch out = Run(store);
  // Placeholders are consumed by the store, so only object rows flow out.
  EXPECT_EQ(static_cast<int64_t>(out.num_rows()), TotalGtObjects(0, 40));
  const storage::MaterializedView* view = views_.Find("Det@v");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->num_keys(), 40);  // presence for every frame
  EXPECT_EQ(view->num_rows(), TotalGtObjects(0, 40));
  EXPECT_GT(clock_.Elapsed(CostCategory::kMaterialize), 0);
}

TEST_F(OperatorTest, ViewJoinServesHitsAndMarksMisses) {
  // Materialize [0, 20) first.
  {
    auto apply = std::make_shared<plan::ApplyNode>("Det");
    apply->set_emit_presence_placeholders(true);
    Run(Chain(std::make_shared<plan::StoreNode>("Det", "Det@v"),
              Chain(apply, Scan(0, 20))));
  }
  metrics_ = QueryMetrics();
  // Join [10, 30): 10 hits, 10 misses flowing through CondApply.
  auto join = Chain(std::make_shared<plan::ViewJoinNode>("Det", "Det@v"),
                    Scan(10, 30));
  auto cond = Chain(std::make_shared<plan::CondApplyNode>("Det"), join);
  auto store =
      Chain(std::make_shared<plan::StoreNode>("Det", "Det@v"), cond);
  Batch out = Run(store);
  EXPECT_EQ(static_cast<int64_t>(out.num_rows()), TotalGtObjects(10, 30));
  EXPECT_EQ(metrics_.reused["Det"], 10);
  EXPECT_EQ(metrics_.invocations["Det"], 20);
  EXPECT_EQ(views_.Find("Det@v")->num_keys(), 30);
  EXPECT_GT(clock_.Elapsed(CostCategory::kReadView), 0);
}

// A logical-reuse chain: Det2's view fills frames [0, 20), whose rows pass
// Det's ViewJoin unprobed, and Det's view already holds [10, 30). STORE
// must check those pass-through keys against the view (inserting
// [0, 10), skipping [10, 20)), skip Det's probe hits [20, 30) and insert
// its misses [30, 40) unchecked: no key twice, and the materialize count
// of a STORE that checked every key.
TEST_F(OperatorTest, LogicalReuseChainStoresPassThroughKeysOnce) {
  auto materialize = [this](const std::string& udf, int64_t lo, int64_t hi) {
    auto apply = std::make_shared<plan::ApplyNode>(udf);
    apply->set_emit_presence_placeholders(true);
    Run(Chain(std::make_shared<plan::StoreNode>(udf, udf + "@v"),
              Chain(apply, Scan(lo, hi))));
  };
  materialize("Det2", 0, 20);
  materialize("Det", 10, 30);
  std::map<const plan::PlanNode*, obs::OperatorStats> stats;
  ctx_.node_stats = &stats;
  clock_.Reset();
  auto first = Chain(std::make_shared<plan::ViewJoinNode>("Det2", "Det2@v"),
                     Scan(0, 40));
  auto second =
      Chain(std::make_shared<plan::ViewJoinNode>("Det", "Det@v"), first);
  auto cond = Chain(std::make_shared<plan::CondApplyNode>("Det"), second);
  auto store = Chain(std::make_shared<plan::StoreNode>("Det", "Det@v"), cond);
  Batch out = Run(store);
  EXPECT_EQ(static_cast<int64_t>(out.num_rows()), TotalGtObjects(0, 40));

  // Each inserted detector key charges its rows plus its presence.
  const int64_t materialized = TotalGtObjects(0, 10) + 10 +
                               TotalGtObjects(30, 40) + 10;
  EXPECT_EQ(stats[store.get()].rows_materialized.load(), materialized);
  EXPECT_DOUBLE_EQ(clock_.Elapsed(CostCategory::kMaterialize),
                   ctx_.costs.materialize_ms_per_row *
                       static_cast<double>(materialized));
  storage::MaterializedView* view = views_.Find("Det@v");
  EXPECT_EQ(view->num_keys(), 40);
  EXPECT_EQ(view->num_rows(), TotalGtObjects(0, 40));
  std::vector<int64_t> frames;
  for (const auto& [seg_id, seg] : view->SealedSegments()) {
    for (size_t k = 0; k < seg->num_keys(); ++k) {
      frames.push_back(seg->key_frame(k));
    }
  }
  std::vector<int64_t> want(40);
  for (int64_t f = 0; f < 40; ++f) want[static_cast<size_t>(f)] = f;
  EXPECT_EQ(frames, want);
}

TEST_F(OperatorTest, ClassifierViewJoinChain) {
  // Warm CarType over frames [0, 15).
  {
    auto det = Chain(std::make_shared<plan::ApplyNode>("Det"), Scan(0, 15));
    auto cls = Chain(std::make_shared<plan::ApplyNode>("CarType"), det);
    Run(Chain(std::make_shared<plan::StoreNode>("CarType", "CarType@v"),
              cls));
  }
  metrics_ = QueryMetrics();
  clock_.Reset();
  // Re-run over [0, 15) with the view: zero classifier evaluation cost.
  auto det = Chain(std::make_shared<plan::ApplyNode>("Det"), Scan(0, 15));
  auto join = Chain(
      std::make_shared<plan::ViewJoinNode>("CarType", "CarType@v"), det);
  auto cond = Chain(std::make_shared<plan::CondApplyNode>("CarType"), join);
  Batch out = Run(cond);
  EXPECT_EQ(metrics_.reused["CarType"],
            static_cast<int64_t>(out.num_rows()));
  int idx = out.schema().IndexOf("CarType");
  for (size_t r = 0; r < out.num_rows(); ++r) {
    EXPECT_FALSE(out.At(r, static_cast<size_t>(idx)).is_null());
  }
}

TEST_F(OperatorTest, CondApplyWithoutViewColumnsFails) {
  auto cond = Chain(std::make_shared<plan::CondApplyNode>("Det"),
                    Scan(0, 5));
  auto r = ExecutePlan(cond, &ctx_);
  EXPECT_FALSE(r.ok());
}

TEST_F(OperatorTest, ProjectEvaluatesExpressions) {
  auto det = Chain(std::make_shared<plan::ApplyNode>("Det"), Scan(0, 5));
  std::vector<expr::ExprPtr> exprs = {expr::Expr::Column("id"),
                                      expr::Expr::Column("label")};
  auto proj = Chain(std::make_shared<plan::ProjectNode>(
                        exprs, std::vector<std::string>{"id", "label"}),
                    det);
  Batch out = Run(proj);
  EXPECT_EQ(out.schema().num_fields(), 2u);
  EXPECT_EQ(out.schema().field(0).name, "id");
}

TEST_F(OperatorTest, AggregateCountsPerGroup) {
  auto det = Chain(std::make_shared<plan::ApplyNode>("Det"), Scan(0, 10));
  auto agg = Chain(std::make_shared<plan::AggregateNode>(
                       std::vector<std::string>{"id"}),
                   det);
  Batch out = Run(agg);
  int64_t total = 0;
  for (size_t r = 0; r < out.num_rows(); ++r) {
    int64_t frame = out.GetByName(r, "id").AsInt64();
    int64_t count = out.GetByName(r, "count").AsInt64();
    EXPECT_EQ(count, static_cast<int64_t>(
                         video_->FrameObjects(frame).size()));
    total += count;
  }
  EXPECT_EQ(total, TotalGtObjects(0, 10));
}

TEST_F(OperatorTest, AggregateWithoutGroupsCountsAll) {
  auto det = Chain(std::make_shared<plan::ApplyNode>("Det"), Scan(0, 10));
  auto agg = Chain(
      std::make_shared<plan::AggregateNode>(std::vector<std::string>{}),
      det);
  Batch out = Run(agg);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.GetByName(0, "count").AsInt64(), TotalGtObjects(0, 10));
}

TEST_F(OperatorTest, GroupByKeysOnValuesNotTheirText) {
  // Areas are doubles that differ past six significant digits: one group
  // per distinct value, and every detection counted once.
  catalog::VideoInfo info;
  info.name = "v";
  info.num_frames = 3000;
  info.mean_objects_per_frame = 7;
  info.seed = 11;
  video_ = std::make_unique<vision::SyntheticVideo>(info);
  ctx_.video = video_.get();
  ctx_.batch_size = 1024;
  auto det = Chain(std::make_shared<plan::ApplyNode>("Det"), Scan(0, 3000));
  std::set<double> distinct;
  int64_t detections = 0;
  for (int64_t f = 0; f < 3000; ++f) {
    for (const vision::GtObject& d : video_->FrameObjects(f)) {
      distinct.insert(d.area);
      ++detections;
    }
  }
  auto agg = Chain(std::make_shared<plan::AggregateNode>(
                       std::vector<std::string>{"area"}),
                   det);
  Batch out = Run(agg);
  EXPECT_EQ(out.num_rows(), distinct.size());
  int64_t total = 0;
  std::set<double> seen;
  for (size_t r = 0; r < out.num_rows(); ++r) {
    const Value area = out.GetByName(r, "area");
    ASSERT_EQ(area.type(), DataType::kDouble);
    EXPECT_TRUE(seen.insert(area.AsDouble()).second) << area.ToString();
    total += out.GetByName(r, "count").AsInt64();
  }
  EXPECT_EQ(total, detections);
  // Keys are compared, not printed: Int64 ids stay apart from each other.
  auto by_id = Chain(std::make_shared<plan::AggregateNode>(
                         std::vector<std::string>{"id", "label"}),
                     Chain(std::make_shared<plan::ApplyNode>("Det"),
                           Scan(0, 50)));
  Batch groups = Run(by_id);
  std::set<std::pair<int64_t, std::string>> expected;
  for (int64_t f = 0; f < 50; ++f) {
    for (const vision::GtObject& d : video_->FrameObjects(f)) {
      expected.insert({f, d.label()});
    }
  }
  EXPECT_EQ(groups.num_rows(), expected.size());
}

TEST_F(OperatorTest, ChunkWithNoRowsLeftDoesNotEndTheQuery) {
  // An empty chunk means end of stream, so an operator whose output for
  // one input chunk is empty must go on to the next one.
  views_.set_segment_frames(16);  // one segment per 16-frame chunk
  {
    auto apply = std::make_shared<plan::ApplyNode>("Det");
    apply->set_emit_presence_placeholders(true);
    Run(Chain(std::make_shared<plan::StoreNode>("Det", "Det@v"),
              Chain(apply, Scan(0, 32))));
  }
  // ViewJoin: the first chunk's hits are all zone-skipped.
  auto later = expr::Expr::Compare(expr::CompareOp::kGe,
                                   expr::Expr::Column("id"),
                                   expr::Expr::Literal(Value(int64_t{16})));
  std::vector<size_t> rows;
  for (bool zones : {false, true}) {
    ctx_.zone_map_skipping = zones;
    auto join = std::make_shared<plan::ViewJoinNode>("Det", "Det@v");
    join->set_residual_predicate(later);
    Batch out = Run(Chain(std::make_shared<plan::FilterNode>(later),
                          Chain(std::make_shared<plan::CondApplyNode>("Det"),
                                Chain(join, Scan(0, 32)))));
    rows.push_back(out.num_rows());
  }
  EXPECT_EQ(rows[0], static_cast<size_t>(TotalGtObjects(16, 32)));
  EXPECT_EQ(rows[1], rows[0]);

  // Store: a chunk of placeholder rows only (frames without objects).
  catalog::VideoInfo info;
  info.name = "v";
  info.num_frames = 400;
  info.mean_objects_per_frame = 0.05;
  info.seed = 3;
  video_ = std::make_unique<vision::SyntheticVideo>(info);
  ctx_.video = video_.get();
  int empty_chunks = 0;
  for (int64_t c = 0; c < 400; c += 16) {
    empty_chunks += TotalGtObjects(c, c + 16) == 0 ? 1 : 0;
  }
  ASSERT_GT(empty_chunks, 0);
  ASSERT_GT(TotalGtObjects(0, 400), 0);
  auto apply = std::make_shared<plan::ApplyNode>("Det");
  apply->set_emit_presence_placeholders(true);
  Batch stored = Run(Chain(std::make_shared<plan::StoreNode>("Det", "Sparse@v"),
                           Chain(apply, Scan(0, 400))));
  EXPECT_EQ(stored.num_rows(), static_cast<size_t>(TotalGtObjects(0, 400)));
  EXPECT_EQ(views_.Find("Sparse@v")->num_keys(), 400);

  // Apply without placeholders: a chunk of frames without detections.
  Batch applied = Run(Chain(std::make_shared<plan::ApplyNode>("Det"),
                            Scan(0, 400)));
  EXPECT_EQ(applied.num_rows(), static_cast<size_t>(TotalGtObjects(0, 400)));
}

TEST_F(OperatorTest, WrongKindModelFailsAtTheFirstCall) {
  // The runtime resolves models from its own catalog; there "Det" is a
  // classifier. The operator resolves the model once and keeps it, so the
  // error must still surface at the first evaluation, before any charge.
  catalog::Catalog other;
  catalog::UdfDef det;
  det.name = "Det";
  det.kind = catalog::UdfKind::kClassifier;
  det.cost_ms = 99;
  ASSERT_TRUE(other.AddUdf(det).ok());
  udf::UdfRuntime runtime(&other);
  ctx_.udfs = &runtime;
  auto r = ExecutePlan(
      Chain(std::make_shared<plan::ApplyNode>("Det"), Scan(0, 5)), &ctx_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("not a detector"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(clock_.Elapsed(CostCategory::kUdf), 0.0);
  EXPECT_EQ(metrics_.TotalInvocations(), 0);
  ctx_.udfs = &runtime_;
}

TEST_F(OperatorTest, HashStashFullScanChargesWholeView) {
  // Materialize 20 frames, then join 1 frame with scan_all_for_dedup: the
  // dedup pass reads all materialized rows.
  {
    auto apply = std::make_shared<plan::ApplyNode>("Det");
    apply->set_emit_presence_placeholders(true);
    Run(Chain(std::make_shared<plan::StoreNode>("Det", "Det@v"),
              Chain(apply, Scan(0, 20))));
  }
  clock_.Reset();
  auto join = std::make_shared<plan::ViewJoinNode>("Det", "Det@v");
  join->set_scan_all_for_dedup(true);
  auto cond = Chain(std::make_shared<plan::CondApplyNode>("Det"),
                    Chain(join, Scan(0, 1)));
  Run(cond);
  double expected_min = ctx_.costs.view_read_ms_per_row *
                        static_cast<double>(TotalGtObjects(0, 20));
  EXPECT_GE(clock_.Elapsed(CostCategory::kReadView), expected_min);
}

TEST(SpinForTest, NonPositiveIsNoOpAndPositiveWaits) {
  SpinFor(0);
  SpinFor(-5);
  auto start = std::chrono::steady_clock::now();
  SpinFor(200);  // 200us
  auto elapsed = std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_GE(elapsed, 180.0);
}

}  // namespace
}  // namespace eva::exec
