// The one symbolic cache (docs/SYMBOLIC.md): each UdfEntry's NOT(p_u),
// which DiffCoverage replays. It must be dropped whenever p_u changes,
// kept across unions that leave p_u as it was, recomputed when the budget
// differs, and live in the engine's single UdfManager so every service
// session shares it. A seeded differential checks that Inter/Diff always
// equal the plain Predicate algebra.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/eva_service.h"
#include "symbolic_test_util.h"
#include "udf/udf_manager.h"
#include "vbench/vbench.h"

namespace eva {
namespace {

using symbolic::IdRange;
using symbolic::Predicate;
using symbolic::SymbolicBudget;

bool Cached(const udf::UdfManager& manager, const std::string& key) {
  return manager.entries().at(key).complement.has_value();
}

void Diff(udf::UdfManager& manager, const std::string& key) {
  ASSERT_TRUE(manager.DiffCoverage(key, IdRange(50, 150)).ok());
}

TEST(SymbolicCacheTest, RepeatDiffReplaysTheComplement) {
  udf::UdfManager manager;
  manager.UpdateCoverage("det@v", IdRange(0, 100));
  EXPECT_FALSE(Cached(manager, "det@v"));
  Diff(manager, "det@v");
  ASSERT_TRUE(Cached(manager, "det@v"));
  // Inter never needs NOT(p_u); a repeat Diff replays the cached one.
  ASSERT_TRUE(manager.InterCoverage("det@v", IdRange(50, 150)).ok());
  Diff(manager, "det@v");
  EXPECT_TRUE(Cached(manager, "det@v"));
  auto diff = manager.DiffCoverage("det@v", IdRange(50, 150));
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff.value().Equals(IdRange(100, 150)));
}

TEST(SymbolicCacheTest, EveryRealMutationInvalidates) {
  udf::UdfManager manager;
  manager.UpdateCoverage("det@v", IdRange(0, 100));
  Diff(manager, "det@v");
  manager.UpdateCoverage("det@v", IdRange(200, 300));  // union
  EXPECT_FALSE(Cached(manager, "det@v"));
  Diff(manager, "det@v");
  manager.RetractCoverage("det@v", IdRange(500, 600));  // eviction
  EXPECT_FALSE(Cached(manager, "det@v"));
  Diff(manager, "det@v");
  manager.SetCoverage("det@v", manager.Coverage("det@v"));  // reload
  EXPECT_FALSE(Cached(manager, "det@v"));
  Diff(manager, "det@v");
  manager.Clear();
  EXPECT_TRUE(manager.entries().empty());
}

TEST(SymbolicCacheTest, NoOpUnionsKeepTheCacheWarm) {
  udf::UdfManager manager;
  manager.UpdateCoverage("det@v", IdRange(0, 100));
  Diff(manager, "det@v");
  manager.UpdateCoverage("det@v", IdRange(20, 80));  // already covered
  EXPECT_TRUE(Cached(manager, "det@v"));
  // Another key's writes leave this key's cache alone.
  manager.UpdateCoverage("cls@v", IdRange(0, 10));
  EXPECT_TRUE(Cached(manager, "det@v"));
}

TEST(SymbolicCacheTest, BudgetChangeRecomputes) {
  udf::UdfManager manager;
  manager.UpdateCoverage("det@v", IdRange(0, 100));
  manager.UpdateCoverage("det@v", IdRange(200, 300));
  manager.UpdateCoverage("det@v", IdRange(400, 500));
  const Predicate q = IdRange(50, 450);
  const SymbolicBudget tight{1, 64};
  // A tight budget caches NOT's budget error ...
  auto failed = manager.DiffCoverage("det@v", q, tight);
  ASSERT_EQ(failed.ok(), Predicate::Diff(manager.Coverage("det@v"), q,
                                         tight).ok());
  ASSERT_FALSE(failed.ok());
  // ... which a later Diff under the default budget must not replay.
  auto diff = manager.DiffCoverage("det@v", q);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_TRUE(diff.value().Equals(
      Predicate::Diff(manager.Coverage("det@v"), q).value()));
}

void ExpectSameResult(const Result<Predicate>& got,
                      const Result<Predicate>& want, const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!got.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
    return;
  }
  EXPECT_TRUE(got.value().Equals(want.value()))
      << what << "\ngot:  " << got.value().ToString()
      << "\nwant: " << want.value().ToString();
}

// Seeded random op sequences — update, retract, wholesale set, Clear,
// inter, diff — under budgets that change between calls, one of them small
// enough to exhaust. Every Inter/Diff must equal a fresh
// Predicate::Inter/Diff on the current coverage, cell for cell and status
// for status: a stale cached NOT(p_u) shows up as a mismatch.
TEST(SymbolicCacheTest, InterDiffMatchPredicateAlgebraUnderRandomOps) {
  const std::vector<SymbolicBudget> budgets = {
      SymbolicBudget{},
      SymbolicBudget{6, 64},    // NOT of a few cells exhausts this
      SymbolicBudget{4096, 1},  // one reduction pass: different shapes
  };
  const std::vector<std::string> keys = {"det@v", "cls@v"};
  int diffs = 0, replays = 0, errors = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(0xfeed00 + seed);
    udf::UdfManager manager;
    // (key, budget) of the last Diff whose NOT is still cached, if any.
    std::string cached_key;
    size_t cached_budget = budgets.size();
    for (int step = 0; step < 150; ++step) {
      const std::string& key = keys[rng.NextBelow(keys.size())];
      const size_t b = rng.NextBelow(budgets.size());
      const SymbolicBudget& budget = budgets[b];
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const uint64_t op = rng.NextBelow(10);
      if (op <= 1) {  // streaming-ish union
        double lo = static_cast<double>(rng.NextBelow(180));
        manager.UpdateCoverage(key, IdRange(lo, lo + 1 + rng.NextBelow(40)),
                               budget);
      } else if (op == 2) {  // arbitrary-shape union
        manager.UpdateCoverage(key, symbolic::RandomPredicate(rng, 3, 3),
                               budget);
      } else if (op == 3) {  // eviction
        manager.RetractCoverage(key, symbolic::RandomPredicate(rng, 2, 2),
                                budget);
      } else if (op == 4) {  // recovery reload / fault rollback
        manager.SetCoverage(key, symbolic::RandomPredicate(rng, 3, 3));
      } else if (op == 5 && rng.NextBool(0.2)) {
        manager.Clear();
        cached_key.clear();
      } else {  // lookups, repeated so the cached NOT is replayed
        Predicate q = symbolic::RandomPredicate(rng, 3, 3);
        const Predicate coverage = manager.Coverage(key);
        ExpectSameResult(manager.InterCoverage(key, q, budget),
                         Predicate::Inter(coverage, q, budget),
                         "inter @ " + where);
        for (int rep = 0; rep < 2; ++rep) {
          if (!coverage.IsFalse() && cached_key == key && cached_budget == b) {
            ++replays;
          }
          Result<Predicate> want = Predicate::Diff(coverage, q, budget);
          if (!want.ok()) ++errors;
          ExpectSameResult(manager.DiffCoverage(key, q, budget), want,
                           "diff @ " + where);
          ++diffs;
          cached_key = key;
          cached_budget = b;
        }
        continue;
      }
      if (key == cached_key) cached_key.clear();
    }
  }
  // The sequence must exercise replays and the NOT's budget error.
  EXPECT_GT(replays, diffs / 3);
  EXPECT_GT(errors, 0);
}

// The cache lives on the engine's single UdfManager, so a complement the
// optimizer computed for one service session is there for every other.
TEST(SymbolicCacheTest, CacheIsSharedAcrossServiceSessions) {
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.observability = false;
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  video.num_frames = 600;
  auto engine_or = vbench::MakeEngine(options, video);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  service::EvaService service(engine_or.MoveValue());

  auto s1 = service.CreateSession("a");
  auto s2 = service.CreateSession("b");
  // A UDF-based predicate (CarType) drives the optimizer's ranking
  // Inter/Diff coverage lookups.
  const std::string query =
      "SELECT id, obj FROM short_ua_detrac CROSS APPLY "
      "FasterRCNNResNet50(frame) WHERE id >= 100 AND id < 200 "
      "AND label = 'car' AND CarType(frame, bbox) = 'Nissan';";
  auto r1 = service.Execute(s1->id(), query);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  // Session b's optimizer diffs against the coverage session a left, and
  // its own execution only re-claims frames that are already covered.
  auto r2 = service.Execute(s2->id(), query);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1.value().batch.num_rows(), r2.value().batch.num_rows());
  int cached = 0;
  for (const auto& [key, entry] :
       service.engine()->udf_manager().entries()) {
    if (entry.complement.has_value()) ++cached;
  }
  EXPECT_GT(cached, 0);
}

}  // namespace
}  // namespace eva
