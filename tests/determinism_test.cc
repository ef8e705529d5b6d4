// Regression test for the determinism contract (docs/RUNTIME.md): two
// fresh engines replaying the same multi-query exploratory session must
// produce IDENTICAL traces — same row sets, bitwise-equal simulated times
// and breakdowns, same per-UDF invocation/reuse counts, the same aggregated
// predicates, and the same view footprint. Host wall time is the only
// thing allowed to differ between runs.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/eva_engine.h"
#include "vbench/vbench.h"

namespace eva {
namespace {

struct SessionTrace {
  std::vector<std::string> batches;  // rendered row sets, one per query
  std::vector<double> total_ms;      // simulated time per query
  std::vector<SimClock::Snapshot> breakdowns;
  std::map<std::string, int64_t> invocations;
  std::map<std::string, int64_t> reused;
  std::map<std::string, std::string> coverage;  // aggregated predicates
  double view_bytes = 0;
};

SessionTrace RunSession() {
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  video.num_frames = 900;  // trimmed for test runtime; several batches
  std::vector<std::string> queries =
      vbench::VbenchHigh(video.name, video.num_frames);

  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.observability = false;  // isolate from the global registry
  auto engine_or = vbench::MakeEngine(options, video);
  EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  std::unique_ptr<engine::EvaEngine> engine = engine_or.MoveValue();

  SessionTrace trace;
  for (const std::string& sql : queries) {
    auto r = engine->Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) continue;
    trace.batches.push_back(r.value().batch.ToString(1 << 20));
    trace.total_ms.push_back(r.value().metrics.TotalMs());
    trace.breakdowns.push_back(r.value().metrics.breakdown);
    for (const auto& [udf, n] : r.value().metrics.invocations) {
      trace.invocations[udf] += n;
    }
    for (const auto& [udf, n] : r.value().metrics.reused) {
      trace.reused[udf] += n;
    }
  }
  for (const auto& [key, entry] : engine->udf_manager().entries()) {
    trace.coverage[key] = entry.coverage.ToString();
  }
  trace.view_bytes = engine->views().TotalSizeBytes();
  return trace;
}

TEST(DeterminismTest, FreshEnginesReplaySessionBitIdentically) {
  SessionTrace base = RunSession();
  ASSERT_FALSE(base.batches.empty());
  ASSERT_FALSE(base.invocations.empty());
  SessionTrace other = RunSession();
  ASSERT_EQ(base.batches.size(), other.batches.size());
  for (size_t q = 0; q < base.batches.size(); ++q) {
    EXPECT_EQ(base.batches[q], other.batches[q])
        << "row set of query " << q;
    // Bitwise equality on purpose: the clock must add the same charges in
    // the same order, not approximately the same doubles.
    EXPECT_EQ(base.total_ms[q], other.total_ms[q])
        << "simulated time of query " << q;
    for (size_t c = 0;
         c < static_cast<size_t>(CostCategory::kNumCategories); ++c) {
      EXPECT_EQ(base.breakdowns[q].ms[c], other.breakdowns[q].ms[c])
          << "breakdown[" << c << "] of query " << q;
    }
  }
  EXPECT_EQ(base.invocations, other.invocations);
  EXPECT_EQ(base.reused, other.reused);
  EXPECT_EQ(base.coverage, other.coverage);
  EXPECT_EQ(base.view_bytes, other.view_bytes);
}

}  // namespace
}  // namespace eva
