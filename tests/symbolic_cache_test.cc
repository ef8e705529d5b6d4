// Epoch-tagged remainder-cache tests (docs/SYMBOLIC.md): hits only repeat
// within a coverage epoch, every real coverage mutation — union, eviction,
// recovery reload — invalidates, no-op mutations keep the cache warm, and
// the cache is genuinely shared across service sessions through the
// engine's single UdfManager.

#include <gtest/gtest.h>

#include <string>

#include "service/eva_service.h"
#include "symbolic/predicate.h"
#include "udf/udf_manager.h"
#include "vbench/vbench.h"

namespace eva {
namespace {

using symbolic::DimConstraint;
using symbolic::DimKind;
using symbolic::Interval;
using symbolic::Predicate;

Predicate IdRange(double lo, double hi) {
  symbolic::Conjunct c;
  c.Constrain("id", DimConstraint::Numeric(DimKind::kInteger,
                                           Interval::AtLeast(lo)));
  c.Constrain("id", DimConstraint::Numeric(DimKind::kInteger,
                                           Interval::LessThan(hi)));
  return Predicate::FromConjunct(std::move(c));
}

TEST(SymbolicCacheTest, RepeatLookupHitsWithinEpoch) {
  udf::UdfManager manager;
  manager.UpdateCoverage("det@v", IdRange(0, 100));
  udf::SymbolicOpStats stats;
  ASSERT_TRUE(manager.InterCoverage("det@v", IdRange(50, 150), {},
                                    &stats).ok());
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, 0);
  ASSERT_TRUE(manager.InterCoverage("det@v", IdRange(50, 150), {},
                                    &stats).ok());
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, 1);
  // Diff keys independently but shares the same epoch discipline.
  ASSERT_TRUE(manager.DiffCoverage("det@v", IdRange(50, 150), {},
                                   &stats).ok());
  EXPECT_EQ(stats.cache_misses, 2);
  ASSERT_TRUE(manager.DiffCoverage("det@v", IdRange(50, 150), {},
                                   &stats).ok());
  EXPECT_EQ(stats.cache_hits, 2);
}

TEST(SymbolicCacheTest, EveryRealMutationInvalidates) {
  udf::UdfManager manager;
  manager.UpdateCoverage("det@v", IdRange(0, 100));
  const Predicate q = IdRange(50, 150);
  udf::SymbolicOpStats stats;

  auto lookup = [&] {
    ASSERT_TRUE(manager.InterCoverage("det@v", q, {}, &stats).ok());
    ASSERT_TRUE(manager.DiffCoverage("det@v", q, {}, &stats).ok());
  };

  lookup();  // primes: 2 misses
  uint64_t epoch = manager.CoverageEpoch("det@v");

  // Union that actually grows the coverage → new epoch, fresh misses.
  manager.UpdateCoverage("det@v", IdRange(200, 300));
  EXPECT_GT(manager.CoverageEpoch("det@v"), epoch);
  epoch = manager.CoverageEpoch("det@v");
  stats = {};
  lookup();
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.cache_hits, 0);

  // Eviction that removes covered tuples → new epoch.
  manager.RetractCoverage("det@v", IdRange(0, 10));
  EXPECT_GT(manager.CoverageEpoch("det@v"), epoch);
  epoch = manager.CoverageEpoch("det@v");
  stats = {};
  lookup();
  EXPECT_EQ(stats.cache_misses, 2);

  // Recovery reload with different coverage → new epoch.
  manager.SetCoverage("det@v", IdRange(0, 42));
  EXPECT_GT(manager.CoverageEpoch("det@v"), epoch);
  stats = {};
  lookup();
  EXPECT_EQ(stats.cache_misses, 2);
}

TEST(SymbolicCacheTest, NoOpMutationsKeepTheCacheWarm) {
  udf::UdfManager manager;
  manager.UpdateCoverage("det@v", IdRange(0, 100));
  const Predicate q = IdRange(50, 150);
  udf::SymbolicOpStats stats;
  ASSERT_TRUE(manager.InterCoverage("det@v", q, {}, &stats).ok());
  uint64_t epoch = manager.CoverageEpoch("det@v");

  // A fleet session re-claiming an already-covered range, an eviction of
  // nothing, and a reload of the identical predicate must all keep the
  // epoch — and therefore the cached result.
  manager.UpdateCoverage("det@v", IdRange(20, 80));
  manager.RetractCoverage("det@v", IdRange(500, 600));
  manager.SetCoverage("det@v", manager.Coverage("det@v"));
  EXPECT_EQ(manager.CoverageEpoch("det@v"), epoch);

  ASSERT_TRUE(manager.InterCoverage("det@v", q, {}, &stats).ok());
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);
}

TEST(SymbolicCacheTest, FastpathOffBypassesTheCache) {
  udf::UdfManager manager;
  manager.set_symbolic_fastpath(false);
  manager.UpdateCoverage("det@v", IdRange(0, 100));
  udf::SymbolicOpStats stats;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(manager.InterCoverage("det@v", IdRange(10, 20), {},
                                      &stats).ok());
  }
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 0);
}

TEST(SymbolicCacheTest, EvictionBoundsTheCache) {
  udf::UdfManager manager;
  manager.UpdateCoverage("det@v", IdRange(0, 100));
  // Far more distinct queries than the cache holds: size stays bounded and
  // old entries are evicted FIFO, yet every lookup still returns.
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        manager.InterCoverage("det@v", IdRange(i, i + 5)).ok());
  }
  EXPECT_GT(manager.symbolic_cache_stats().evictions, 0);
  EXPECT_EQ(manager.symbolic_cache_stats().hits, 0);
}

// Two service sessions issue the same query shape: the second session's
// optimizer must be served from the remainder cache the first session
// populated — the cross-session sharing the fleet speedup rests on.
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
  // A UDF-based predicate (CarType) is what drives the optimizer's ranking
  // Inter/Diff coverage lookups — a bare detector APPLY never consults the
  // remainder cache.
  const std::string query =
      "SELECT id, obj FROM short_ua_detrac CROSS APPLY "
      "FasterRCNNResNet50(frame) WHERE id >= 100 AND id < 200 "
      "AND label = 'car' AND CarType(frame, bbox) = 'Nissan';";

  auto r1 = service.Execute(s1->id(), query);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  // Identical statement from the other session: its EXPLAIN-time coverage
  // lookups hit the entries session a's execution left behind (the
  // coverage union after r1 bumped the epoch, so r2 first misses, then its
  // own repeat hits). What matters: the fleet shares one cache.
  auto r2 = service.Execute(s2->id(), query);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  auto r3 = service.Execute(s2->id(), query);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  const auto& stats = service.engine()->udf_manager().symbolic_cache_stats();
  EXPECT_GT(stats.hits, 0) << "hits=" << stats.hits
                           << " misses=" << stats.misses;
  EXPECT_GT(r3.value().metrics.symbolic_cache_hits, 0);
}

}  // namespace
}  // namespace eva
