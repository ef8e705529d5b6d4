// Engine-level tests for the view lifecycle manager (src/lifecycle/):
// budget enforcement with bit-identical results, symbolic coverage
// retraction on eviction, Eq. 3 admission gating, and policy plumbing.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/eva_engine.h"
#include "storage/view_persistence.h"
#include "vbench/vbench.h"
#include "view_test_util.h"

namespace eva::lifecycle {
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

std::unique_ptr<engine::EvaEngine> MakeEngineOrDie(
    engine::EngineOptions options) {
  auto r = vbench::MakeEngine(options, TinyVideo());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

engine::EngineOptions EvaOptions() {
  engine::EngineOptions options;
  options.optimizer.mode = ReuseMode::kEva;
  return options;
}

std::string FullText(const engine::QueryResult& r) {
  return r.batch.ToString(1 << 20);
}

const char* const kDetectorQuery =
    "SELECT id, obj, label FROM tiny CROSS APPLY "
    "FasterRCNNResNet50(frame) WHERE id < 300 AND label = 'car';";

TEST(LifecycleTest, BudgetedSessionStaysUnderBudgetWithIdenticalResults) {
  const std::vector<std::string> workload =
      vbench::VbenchHigh("tiny", TinyVideo().num_frames);

  // Pass 1 (unbounded EVA): reference results + the working-set peak.
  auto unbounded = MakeEngineOrDie(EvaOptions());
  std::vector<std::string> expected;
  double peak_bytes = 0;
  for (const std::string& sql : workload) {
    auto r = unbounded->Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(FullText(r.value()));
    // Seal before measuring: budget enforcement charges sealed segments at
    // their encoded size, so the peak must be the sealed footprint too.
    unbounded->views().SealAllSegments();
    peak_bytes = std::max(peak_bytes, unbounded->views().TotalSizeBytes());
  }
  ASSERT_GT(peak_bytes, 0);

  // Pass 2 (no materialization): the ground truth nothing can drift from.
  {
    engine::EngineOptions options;
    options.optimizer.mode = ReuseMode::kNoReuse;
    auto baseline = MakeEngineOrDie(options);
    for (size_t i = 0; i < workload.size(); ++i) {
      auto r = baseline->Execute(workload[i]);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(FullText(r.value()), expected[i]) << workload[i];
    }
  }

  // Pass 3: budget well below the working set. Results stay bit-identical
  // and the store never exceeds the budget after a query completes.
  engine::EngineOptions options = EvaOptions();
  options.storage_budget_bytes = peak_bytes * 0.4;
  options.segment_frames = 64;
  auto budgeted = MakeEngineOrDie(options);
  ASSERT_NE(budgeted->lifecycle(), nullptr);
  EXPECT_EQ(budgeted->lifecycle()->budget_bytes(), peak_bytes * 0.4);
  for (size_t i = 0; i < workload.size(); ++i) {
    auto r = budgeted->Execute(workload[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(FullText(r.value()), expected[i]) << workload[i];
    EXPECT_LE(budgeted->views().TotalSizeBytes(),
              options.storage_budget_bytes)
        << "after query " << i;
  }
  EXPECT_GT(budgeted->lifecycle()->evictions(), 0);
  EXPECT_GT(budgeted->lifecycle()->evicted_bytes(), 0);
}

TEST(LifecycleTest, EvictionRetractsCoverageAndRecomputes) {
  engine::EngineOptions options = EvaOptions();
  options.segment_frames = 64;
  auto engine = MakeEngineOrDie(options);
  auto first = engine->Execute(kDetectorQuery);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first.value().metrics.TotalInvocations(), 0);

  const std::string key = "FasterRCNNResNet50@tiny";
  auto covered = [&](int64_t frame) {
    return engine->udf_manager().Coverage(key).Evaluate(
        [&](const std::string& dim) {
          EXPECT_EQ(dim, "id");
          return Value(frame);
        });
  };
  ASSERT_TRUE(covered(0));
  ASSERT_TRUE(covered(299));

  // Shrink the budget mid-session; some segments must go. Seal first so
  // the 50% mark is half of the sealed (encoded) footprint — the same
  // accounting EnforceBudget uses.
  engine->views().SealAllSegments();
  const double budget = engine->views().TotalSizeBytes() * 0.5;
  engine->lifecycle()->set_budget_bytes(budget);
  auto evicted = engine->lifecycle()->EnforceBudget(
      engine->queries_executed());
  ASSERT_FALSE(evicted.empty());
  EXPECT_LE(engine->views().TotalSizeBytes(), budget);

  // Retraction: coverage no longer claims any evicted frame; frames of
  // retained segments keep their claim.
  std::vector<bool> evicted_frame(400, false);
  for (const EvictionEvent& ev : evicted) {
    EXPECT_EQ(ev.view, key);
    for (int64_t f = ev.first_frame; f < ev.frame_end && f < 400; ++f) {
      evicted_frame[static_cast<size_t>(f)] = true;
    }
  }
  for (int64_t f = 0; f < 300; ++f) {
    EXPECT_EQ(covered(f), !evicted_frame[static_cast<size_t>(f)])
        << "frame " << f;
  }

  // Re-running the query recomputes the evicted range (invocations > 0)
  // and returns exactly the first run's rows.
  auto second = engine->Execute(kDetectorQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second.value().metrics.TotalInvocations(), 0);
  EXPECT_EQ(FullText(second.value()), FullText(first.value()));
}

TEST(LifecycleTest, AdmissionDeniesCheapUdfAfterNoReuseEvidence) {
  auto engine = MakeEngineOrDie(EvaOptions());
  engine->lifecycle()->set_admission_min_evidence(1);

  // VehicleFilter costs 1 ms/tuple; after a no-reuse query its Laplace
  // reuse estimate drops below write_cost / c_e and admission denies it.
  const char* q1 =
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE VehicleFilter(frame) = true AND id < 60 AND label = 'car';";
  const char* q2 =
      "SELECT id, obj FROM tiny CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE VehicleFilter(frame) = true AND id >= 60 AND id < 120 AND "
      "label = 'car';";
  auto r1 = engine->Execute(q1);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = engine->Execute(q2);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();

  EXPECT_GT(engine->lifecycle()->admissions_denied(), 0);
  bool denied_filter = false, admitted_detector = false;
  for (const optimizer::AdmissionReport& a : r2.value().report.admissions) {
    if (a.udf.rfind("VehicleFilter", 0) == 0 && !a.admitted) {
      denied_filter = true;
      EXPECT_LT(a.predicted_benefit_ms, a.write_cost_ms);
    }
    if (a.udf.rfind("FasterRCNNResNet50", 0) == 0 && a.admitted) {
      admitted_detector = true;
    }
  }
  EXPECT_TRUE(denied_filter) << FullText(r2.value());
  EXPECT_TRUE(admitted_detector);
  // Denied means not materialized: the filter view holds only q1's frames.
  const storage::MaterializedView* filter_view =
      engine->views().Find("VehicleFilter@tiny");
  if (filter_view != nullptr) {
    EXPECT_LE(filter_view->num_keys(), 60);
  }

  // The denial must not change answers: a fresh no-reuse engine agrees.
  engine::EngineOptions options;
  options.optimizer.mode = ReuseMode::kNoReuse;
  auto baseline = MakeEngineOrDie(options);
  auto b2 = baseline->Execute(q2);
  ASSERT_TRUE(b2.ok());
  EXPECT_EQ(FullText(r2.value()), FullText(b2.value()));
}

TEST(LifecycleTest, DefaultEvidenceThresholdNeverDenies) {
  auto engine = MakeEngineOrDie(EvaOptions());
  auto workload = vbench::VbenchHigh("tiny", TinyVideo().num_frames);
  auto r = vbench::RunWorkload(engine.get(), workload);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(engine->lifecycle()->admissions_denied(), 0);
  EXPECT_GT(engine->lifecycle()->admissions_granted(), 0);
}

TEST(LifecycleTest, PolicyOptionPlumbing) {
  engine::EngineOptions options = EvaOptions();
  options.eviction_policy = "lru";
  auto engine = MakeEngineOrDie(options);
  EXPECT_EQ(engine->lifecycle()->policy_kind(), EvictionPolicyKind::kLru);
  EXPECT_STREQ(engine->lifecycle()->policy_name(), "lru");

  engine->lifecycle()->SetPolicy(EvictionPolicyKind::kFifo);
  EXPECT_STREQ(engine->lifecycle()->policy_name(), "fifo");

  EXPECT_FALSE(ParseEvictionPolicy("mru").ok());
  EXPECT_TRUE(ParseEvictionPolicy("cb").ok());
  EXPECT_EQ(ParseEvictionPolicy("cost-benefit").value(),
            EvictionPolicyKind::kCostBenefit);
}

TEST(LifecycleTest, ClearReuseStateResetsLifecycle) {
  engine::EngineOptions options = EvaOptions();
  options.storage_budget_bytes = 1;  // evict everything after each query
  options.segment_frames = 64;
  auto engine = MakeEngineOrDie(options);
  ASSERT_TRUE(engine->Execute(kDetectorQuery).ok());
  EXPECT_GT(engine->lifecycle()->evictions(), 0);
  engine->ClearReuseState();
  EXPECT_EQ(engine->lifecycle()->evictions(), 0);
  EXPECT_EQ(engine->lifecycle()->admissions_granted(), 0);
  EXPECT_EQ(engine->queries_executed(), 0);
  // The session still works from the clean slate.
  auto r = engine->Execute(kDetectorQuery);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(engine->views().TotalSizeBytes(), 1.0);
}

// The eviction loop EnforceBudget replaced: every round rescores every
// remaining segment and evicts the lowest (score, view, segment id).
std::vector<EvictionEvent> ReferenceEnforce(storage::ViewStore* views,
                                            const catalog::Catalog& catalog,
                                            const EvictionPolicy& policy,
                                            double budget,
                                            const ScoreContext& ctx) {
  std::vector<EvictionEvent> events;
  views->SealAllSegments();
  double total = views->TotalSizeBytes();
  while (total > budget) {
    bool found = false;
    SegmentCandidate victim;
    double victim_score = 0;
    for (const auto& [name, view] : views->views()) {
      auto def = catalog.GetUdf(name.substr(0, name.find('@')));
      for (const storage::SegmentStats& seg : view->Segments()) {
        SegmentCandidate cand;
        cand.view = name;
        cand.seg = seg;
        cand.cost_e_ms = def.ok() ? def.value().cost_ms : 0;
        const double score = policy.Score(cand, ctx);
        if (!found || score < victim_score ||
            (score == victim_score &&
             (cand.view < victim.view ||
              (cand.view == victim.view &&
               cand.seg.segment_id < victim.seg.segment_id)))) {
          found = true;
          victim = cand;
          victim_score = score;
        }
      }
    }
    if (!found) break;
    const storage::EvictedSegment ev =
        views->Find(victim.view)->EvictSegment(victim.seg.segment_id);
    if (ev.keys == 0 && ev.rows == 0) break;
    events.push_back({victim.view, victim.seg.segment_id, ev.first_frame,
                      ev.frame_end, ev.keys, ev.rows, victim.seg.bytes});
    total -= victim.seg.bytes;
  }
  return events;
}

// Fills `views` with three views of random segments whose access and
// creation ticks tie often (LRU and FIFO ties across views and segments),
// then moves the clock past them. Keys come in random order, so most
// segments end sealed with an open tail (a key below a tail's last key
// seals the segment first); frames from 200 up take ascending keys into
// segments with no sealed part. Deterministic in `seed`.
void FillStore(storage::ViewStore* views, uint64_t seed, bool compress) {
  views->set_segment_frames(16);
  views->set_build_options({compress, 10});
  const Schema schema({{"label", DataType::kString},
                       {"score", DataType::kDouble}});
  uint64_t state = seed;
  auto pick = [&state](uint64_t k) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % k;
  };
  for (const char* name :
       {"CarType@v", "ColorDetector@v", "FasterRCNNResNet50@v"}) {
    storage::MaterializedView* view = views->GetOrCreate(name, schema);
    for (int k = 0; k < 120; ++k) {
      const storage::ViewKey key{static_cast<int64_t>(pick(200)), -1};
      std::vector<Row> rows;
      for (uint64_t r = pick(4); r > 0; --r) {
        rows.push_back({Value(pick(2) == 0 ? "car" : "bus"),
                        Value(0.125 * static_cast<double>(pick(40)))});
      }
      storage::PutRows(view, key, rows, /*tick=*/10 * (1 + pick(6)),
                       /*query_id=*/static_cast<int64_t>(pick(3)));
    }
    for (int64_t frame = 200; frame < 248; frame += 1 + pick(3)) {
      storage::PutRows(view, {frame, -1},
                       {{Value("car"), Value(0.5 * static_cast<double>(
                                                       pick(9)))}},
                       /*tick=*/10 * (1 + pick(6)), /*query_id=*/1);
    }
  }
  views->AdvanceAccessTick(100);
}

// Segments with an open tail across the views of `views`.
int64_t StaleSegments(const storage::ViewStore& views) {
  int64_t stale = 0;
  for (const auto& [name, view] : views.views()) {
    const storage::ViewCompressionStats stats = view->CompressionStats();
    stale += stats.segments - stats.sealed_segments;
  }
  return stale;
}

// EnforceBudget scores each segment once and evicts in ascending (score,
// view, segment id) order: the same victims, events and evicted bytes as
// sealing everything and then rescoring every segment before each
// eviction, for every policy, with codecs on and off. Stale segments are
// charged their planned seal, and only the survivors are sealed: the store
// ends byte-identical to the reference, and no evicted segment was
// encoded.
TEST(LifecycleTest, EnforceBudgetMatchesRescoringLoop) {
  catalog::Catalog catalog;
  for (const auto& [name, cost] :
       {std::pair{"CarType", 4.0}, std::pair{"ColorDetector", 2.5},
        std::pair{"FasterRCNNResNet50", 40.0}}) {
    catalog::UdfDef def;
    def.name = name;
    def.cost_ms = cost;
    ASSERT_TRUE(catalog.AddUdf(def).ok());
  }
  int64_t evictions = 0, stale_evicted = 0;
  for (const EvictionPolicyKind kind :
       {EvictionPolicyKind::kCostBenefit, EvictionPolicyKind::kLru,
        EvictionPolicyKind::kFifo}) {
    for (const bool compress : {true, false}) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        for (const double fraction : {0.1, 0.5, 0.9, 1.5}) {
          SCOPED_TRACE(std::string(EvictionPolicyName(kind)) + " compress " +
                       std::to_string(compress) + " seed " +
                       std::to_string(seed) + " budget " +
                       std::to_string(fraction));
          storage::ViewStore live, reference, survivors;
          FillStore(&live, seed, compress);
          FillStore(&reference, seed, compress);
          FillStore(&survivors, seed, compress);
          const int64_t stale = StaleSegments(live);
          ASSERT_GT(stale, 0);
          const int64_t sealed_before =
              live.seal_totals().segments_sealed.load();
          const double budget = [&] {
            storage::ViewStore sealed;
            FillStore(&sealed, seed, compress);
            sealed.SealAllSegments();
            return fraction * sealed.TotalSizeBytes();
          }();

          udf::UdfManager manager;
          LifecycleOptions options;
          options.storage_budget_bytes = budget;
          options.policy = kind;
          ViewLifecycleManager lifecycle(options, &live, &manager, &catalog);
          const std::vector<EvictionEvent> got = lifecycle.EnforceBudget(7);

          // The first call calibrates a query's tick volume to the clock.
          ScoreContext ctx;
          ctx.current_query = 7;
          ctx.current_tick = reference.current_tick();
          ctx.ticks_per_query = reference.current_tick();
          const std::vector<EvictionEvent> want = ReferenceEnforce(
              &reference, catalog, *MakeEvictionPolicy(kind), budget, ctx);

          ASSERT_EQ(got.size(), want.size());
          double want_bytes = 0;
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].view, want[i].view) << i;
            EXPECT_EQ(got[i].segment_id, want[i].segment_id) << i;
            EXPECT_EQ(got[i].first_frame, want[i].first_frame) << i;
            EXPECT_EQ(got[i].frame_end, want[i].frame_end) << i;
            EXPECT_EQ(got[i].keys, want[i].keys) << i;
            EXPECT_EQ(got[i].rows, want[i].rows) << i;
            EXPECT_EQ(got[i].bytes, want[i].bytes) << i;
            want_bytes += want[i].bytes;
          }
          EXPECT_EQ(lifecycle.evictions(), static_cast<int64_t>(want.size()));
          EXPECT_EQ(lifecycle.evicted_bytes(), want_bytes);
          EXPECT_EQ(live.TotalSizeBytes(), reference.TotalSizeBytes());
          EXPECT_EQ(StaleSegments(live), 0);
          for (const auto& [name, view] : reference.views()) {
            EXPECT_EQ(storage::SerializeViewSegments(name, *live.Find(name)),
                      storage::SerializeViewSegments(name, *view))
                << name;
          }
          // Exactly the stale segments that survive were sealed.
          for (const EvictionEvent& ev : want) {
            survivors.Find(ev.view)->EvictSegment(ev.segment_id);
          }
          const int64_t stale_survivors = StaleSegments(survivors);
          EXPECT_EQ(live.seal_totals().segments_sealed.load() - sealed_before,
                    stale_survivors);
          stale_evicted += stale - stale_survivors;
          evictions += static_cast<int64_t>(got.size());
        }
      }
    }
  }
  EXPECT_GT(evictions, 200);
  EXPECT_GT(stale_evicted, 100);
}

}  // namespace
}  // namespace eva::lifecycle
