// Engine-level property test: for randomly generated exploratory sessions,
// (1) every reuse mode returns exactly the same rows as no-reuse, (2) EVA
// is never slower than no-reuse by more than the bounded reuse overhead,
// and (3) reused + evaluated invocation counts are consistent.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/eva_engine.h"
#include "vbench/vbench.h"

namespace eva::engine {
namespace {

using optimizer::ReuseMode;

catalog::VideoInfo PropertyVideo() {
  catalog::VideoInfo v;
  v.name = "prop";
  v.num_frames = 300;
  v.mean_objects_per_frame = 6;
  v.seed = 99;
  return v;
}

// Generates a random exploratory session: range zooms/shifts with random
// attribute constraints, mirroring vbench's refinement patterns.
std::vector<std::string> RandomSession(Rng& rng, int num_queries) {
  std::vector<std::string> out;
  int64_t lo = 0, hi = 150;
  for (int i = 0; i < num_queries; ++i) {
    switch (rng.NextBelow(3)) {
      case 0:  // shift
        lo = static_cast<int64_t>(rng.NextBelow(150));
        hi = lo + 50 + static_cast<int64_t>(rng.NextBelow(150));
        break;
      case 1:  // zoom out
        lo = std::max<int64_t>(0, lo - 30);
        hi = hi + 30;
        break;
      default:  // keep range, refine attributes
        break;
    }
    std::string where = "id >= " + std::to_string(lo) + " AND id < " +
                        std::to_string(std::min<int64_t>(hi, 300)) +
                        " AND label = 'car'";
    if (rng.NextBool(0.5)) {
      const auto& types = vision::VehicleTypes();
      where += " AND CarType(frame, bbox) = '" +
               types[rng.NextBelow(types.size())] + "'";
    }
    if (rng.NextBool(0.5)) {
      const auto& colors = vision::VehicleColors();
      where += " AND ColorDet(frame, bbox) = '" +
               colors[rng.NextBelow(colors.size())] + "'";
    }
    if (rng.NextBool(0.4)) {
      where += " AND area > 0." +
               std::to_string(5 + rng.NextBelow(30));
    }
    out.push_back("SELECT id, obj FROM prop CROSS APPLY "
                  "FasterRCNNResNet50(frame) WHERE " +
                  where + ";");
  }
  return out;
}

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

class EnginePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnginePropertyTest, AllModesAgreeOnRandomSessions) {
  Rng rng(GetParam());
  std::vector<std::string> session = RandomSession(rng, 6);
  std::vector<std::vector<std::multiset<std::string>>> per_mode;
  std::vector<double> totals;
  for (ReuseMode mode : {ReuseMode::kNoReuse, ReuseMode::kHashStash,
                         ReuseMode::kFunCache, ReuseMode::kEva}) {
    auto er = vbench::MakeEngine(mode, PropertyVideo());
    ASSERT_TRUE(er.ok()) << er.status().ToString();
    auto engine = er.MoveValue();
    std::vector<std::multiset<std::string>> rows;
    double total = 0;
    for (const std::string& sql : session) {
      auto r = engine->Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
      rows.push_back(RowSet(r.value().batch));
      total += r.value().metrics.TotalMs();
      // Reused never exceeds required invocations, per UDF.
      for (const auto& [udf, reused] : r.value().metrics.reused) {
        ASSERT_LE(reused, r.value().metrics.invocations.at(udf)) << udf;
      }
    }
    per_mode.push_back(std::move(rows));
    totals.push_back(total);
  }
  for (size_t mode = 1; mode < per_mode.size(); ++mode) {
    for (size_t q = 0; q < session.size(); ++q) {
      ASSERT_EQ(per_mode[0][q], per_mode[mode][q])
          << "mode " << mode << " diverges on query " << q << ": "
          << session[q];
    }
  }
  // EVA (last) must not exceed no-reuse (first) by more than 5%.
  EXPECT_LT(totals.back(), totals.front() * 1.05);
}

TEST_P(EnginePropertyTest, WarmRerunIsFullyReused) {
  Rng rng(GetParam() * 131 + 7);
  std::vector<std::string> session = RandomSession(rng, 4);
  auto er = vbench::MakeEngine(ReuseMode::kEva, PropertyVideo());
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  for (const std::string& sql : session) {
    ASSERT_TRUE(engine->Execute(sql).ok());
  }
  // Re-running the whole session must hit the views for every invocation
  // and charge zero UDF time.
  for (const std::string& sql : session) {
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().metrics.TotalReused(),
              r.value().metrics.TotalInvocations())
        << sql;
    EXPECT_DOUBLE_EQ(r.value().metrics.breakdown[CostCategory::kUdf], 0.0)
        << sql;
  }
}

TEST_P(EnginePropertyTest, CoverageIsMonotone) {
  Rng rng(GetParam() * 977 + 13);
  std::vector<std::string> session = RandomSession(rng, 5);
  auto er = vbench::MakeEngine(ReuseMode::kEva, PropertyVideo());
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  int64_t prev_keys = 0;
  for (const std::string& sql : session) {
    ASSERT_TRUE(engine->Execute(sql).ok());
    int64_t keys = 0;
    for (const auto& [name, view] : engine->views().views()) {
      keys += view->num_keys();
    }
    EXPECT_GE(keys, prev_keys) << "materialized state shrank";
    prev_keys = keys;
  }
}

// Differential oracle: a session that suffers transient UDF faults (each
// retried with backoff) must return row-for-row exactly what the fault-free
// session returns. Faults may only cost simulated time, never change
// results.
TEST_P(EnginePropertyTest, TransientUdfFaultsAreInvisibleInResults) {
  Rng rng(GetParam() * 389 + 5);
  std::vector<std::string> session = RandomSession(rng, 4);

  std::vector<std::string> baseline;
  {
    auto er = vbench::MakeEngine(ReuseMode::kEva, PropertyVideo());
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    for (const std::string& sql : session) {
      auto r = engine->Execute(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      baseline.push_back(r.value().batch.ToString(1 << 20));
    }
  }

  auto er = vbench::MakeEngine(ReuseMode::kEva, PropertyVideo());
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  // Every UDF invocation fails transiently twice, then succeeds on the
  // third attempt (udf_max_retries defaults to 3).
  ASSERT_TRUE(engine->SetFaultSchedule("error@udf:*#1-2").ok());
  int64_t retries = 0;
  for (size_t q = 0; q < session.size(); ++q) {
    auto r = engine->Execute(session[q]);
    ASSERT_TRUE(r.ok()) << session[q] << "\n" << r.status().ToString();
    EXPECT_EQ(r.value().batch.ToString(1 << 20), baseline[q])
        << "faulted session diverges on query " << q;
    retries += r.value().metrics.udf_retries;
  }
  EXPECT_GT(engine->fault_injector()->fired(), 0)
      << "the schedule never fired — the test proved nothing";
  EXPECT_GT(retries, 0);
}

// When the transient fault outlasts the retry budget the query must fail
// with a clean error — and the coverage rollback must leave the engine in
// a state where clearing the fault yields exactly the right answer (no
// poisoned aggregated predicates claiming frames that never computed).
TEST_P(EnginePropertyTest, ExhaustedRetriesFailCleanlyAndRollBack) {
  Rng rng(GetParam() * 877 + 3);
  std::vector<std::string> session = RandomSession(rng, 2);

  std::vector<std::string> baseline;
  {
    auto er = vbench::MakeEngine(ReuseMode::kEva, PropertyVideo());
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    for (const std::string& sql : session) {
      auto r = engine->Execute(sql);
      ASSERT_TRUE(r.ok());
      baseline.push_back(r.value().batch.ToString(1 << 20));
    }
  }

  auto er = vbench::MakeEngine(ReuseMode::kEva, PropertyVideo());
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  // Outlasts the default 3 retries: every invocation of the first frame's
  // detector point keeps failing.
  ASSERT_TRUE(engine->SetFaultSchedule("error@udf:*#1-10").ok());
  auto failed = engine->Execute(session[0]);
  ASSERT_FALSE(failed.ok()) << "retry budget should have been exhausted";
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
      << failed.status().ToString();

  // Heal the fault; the session must now produce the fault-free rows from
  // the rolled-back state.
  ASSERT_TRUE(engine->SetFaultSchedule("").ok());
  for (size_t q = 0; q < session.size(); ++q) {
    auto r = engine->Execute(session[q]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().batch.ToString(1 << 20), baseline[q])
        << "post-rollback session diverges on query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace eva::engine
