// Microbenchmarks (google-benchmark) for the storage substrate: view
// presence/append throughput (the STORE operator's inner loop), the
// columnar batch-probe path, the vectorized filter evaluator, and
// synthetic-video generation/statistics costs.
//
// Two entry modes (custom main below):
//   default       google-benchmark CLI (--benchmark_filter=..., etc.)
//   --quick       fixed-iteration wall-clock run of the probe/filter
//                 benches, p50/p95 JSON on stdout — the CI perf-smoke
//                 job's artifact (see .github/workflows/ci.yml).

#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_util.h"
#include "exec/vector_filter.h"
#include "expr/expr.h"
#include "storage/statistics.h"
#include "storage/view_store.h"
#include "vbench/vbench.h"
#include "vision/synthetic_video.h"

namespace {

using eva::Batch;
using eva::Row;
using eva::Schema;
using eva::Value;
using eva::exec::FilterProgram;
using eva::expr::CompareOp;
using eva::expr::Expr;
using eva::expr::ExprPtr;
using eva::storage::MaterializedView;
using eva::storage::ProbeResult;
using eva::storage::ViewKey;

constexpr int64_t kProbeViewFrames = 20000;
constexpr size_t kProbeBatchKeys = 1024;

Schema DetSchema() {
  return Schema({{"obj", eva::DataType::kInt64},
                 {"label", eva::DataType::kString},
                 {"area", eva::DataType::kDouble},
                 {"score", eva::DataType::kDouble}});
}

// One detection row per frame over [0, kProbeViewFrames); probes draw from
// twice that range so half the lookups miss.
void FillProbeView(MaterializedView* view) {
  for (int64_t f = 0; f < kProbeViewFrames; ++f) {
    view->Put(ViewKey{f, -1},
              {{Value(static_cast<int64_t>(0)), Value("car"), Value(0.3),
                Value(0.9)}});
  }
}

void BM_ViewPut(benchmark::State& state) {
  for (auto _ : state) {
    MaterializedView view("bench", DetSchema());
    for (int64_t f = 0; f < state.range(0); ++f) {
      std::vector<Row> rows;
      for (int o = 0; o < 8; ++o) {
        rows.push_back({Value(static_cast<int64_t>(o)), Value("car"),
                        Value(0.3), Value(0.9)});
      }
      view.Put(ViewKey{f, -1}, std::move(rows));
    }
    benchmark::DoNotOptimize(view.num_rows());
  }
}
BENCHMARK(BM_ViewPut)->Arg(1000)->Arg(10000);

// Point presence check (StoreOp's per-key test) against sealed segments:
// Bloom filter when present, then the key-index search. Half the keys miss.
void BM_ViewContains(benchmark::State& state) {
  MaterializedView view("bench", DetSchema());
  FillProbeView(&view);
  view.SealAllSegments();
  int64_t f = 0;
  for (auto _ : state) {
    f = (f + 7919) % (2 * kProbeViewFrames);  // half hits, half misses
    benchmark::DoNotOptimize(view.Contains(ViewKey{f, -1}));
  }
}
BENCHMARK(BM_ViewContains);

// StoreOp's append (the --quick `view_append` entry): one detection row
// per key, cells read in place from a wider input row into the open tail.
void AppendKeys(MaterializedView* view, int64_t keys) {
  const Row input = {Value(int64_t{0}), Value(int64_t{0}), Value("car"),
                     Value(0.3), Value(0.9)};
  const Row* rows[] = {&input};
  const std::function<uint64_t()> tick = [] { return uint64_t{0}; };
  for (int64_t f = 0; f < keys; ++f) {
    view->Put(ViewKey{f, -1}, rows, /*first_col=*/1, tick, 0);
  }
}

// Columnar batch probe: one lock + binary-search cursor for a whole
// frame-ascending batch. Reported per key probed.
void BM_ViewProbeBatch(benchmark::State& state) {
  MaterializedView view("bench", DetSchema());
  FillProbeView(&view);
  std::vector<ViewKey> keys(kProbeBatchKeys);
  ProbeResult res;
  int64_t start = 0;
  // Seal the columnar projections outside the timed region (the engine
  // pays this once per segment per session, not per batch).
  view.ProbeBatch({ViewKey{0, -1}}, nullptr, &res);
  for (auto _ : state) {
    start = (start + 7919) % kProbeViewFrames;
    for (size_t i = 0; i < kProbeBatchKeys; ++i) {
      keys[i] = ViewKey{(start + static_cast<int64_t>(i)) %
                            (2 * kProbeViewFrames),
                        -1};
    }
    view.ProbeBatch(keys, nullptr, &res);
    benchmark::DoNotOptimize(res.outcomes.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kProbeBatchKeys));
}
BENCHMARK(BM_ViewProbeBatch);

// Probe-hit vs probe-miss over compressed segments with/without the
// split-block Bloom filter. Only even frames are stored, so odd-frame
// probes miss *inside* the segment frame range and must be rejected by
// the filter (or, without one, by the packed key-index binary search) —
// out-of-range misses would short-circuit earlier and measure nothing.
void FillBloomView(MaterializedView* view, int bloom_bits_per_key) {
  view->set_build_options({true, bloom_bits_per_key});
  for (int64_t f = 0; f < kProbeViewFrames; f += 2) {
    view->Put(ViewKey{f, -1},
              {{Value(static_cast<int64_t>(0)), Value("car"), Value(0.3),
                Value(0.9)}});
  }
  view->SealAllSegments();
}

// odd_stride=0 probes stored (even) keys; 1 probes absent odd keys.
std::vector<ViewKey> BloomProbeKeys(int64_t odd_stride) {
  std::vector<ViewKey> keys(kProbeBatchKeys);
  int64_t f = 0;
  for (size_t i = 0; i < kProbeBatchKeys; ++i) {
    f = (f + 7919 * 2) % kProbeViewFrames;
    keys[i] = ViewKey{f + odd_stride, -1};
  }
  return keys;
}

void BM_ProbeBatchBloom(benchmark::State& state) {
  const bool miss = state.range(0) != 0;
  const int bloom_bits = static_cast<int>(state.range(1));
  MaterializedView view("bench", DetSchema());
  FillBloomView(&view, bloom_bits);
  std::vector<ViewKey> keys = BloomProbeKeys(miss ? 1 : 0);
  ProbeResult res;
  for (auto _ : state) {
    view.ProbeBatch(keys, nullptr, &res);
    benchmark::DoNotOptimize(res.outcomes.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kProbeBatchKeys));
}
BENCHMARK(BM_ProbeBatchBloom)
    ->ArgNames({"miss", "bloom_bits"})
    ->Args({0, 10})   // hits, bloom on
    ->Args({1, 10})   // misses, bloom on — must beat the hit path
    ->Args({1, 0});   // misses, bloom off — the key-index binary search

ExprPtr FilterBenchPredicate() {
  // label = 'car' AND area > 0.2 — the shape every vbench query carries.
  return Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::Column("label"),
                    Expr::Literal(Value("car"))),
      Expr::Compare(CompareOp::kGt, Expr::Column("area"),
                    Expr::Literal(Value(0.2))));
}

Batch FilterBenchBatch() {
  Batch batch(DetSchema());
  for (int64_t i = 0; i < 1024; ++i) {
    batch.AddRow({Value(i % 8), Value(i % 3 == 0 ? "car" : "bus"),
                  Value(0.05 + 0.001 * static_cast<double>(i % 400)),
                  Value(0.9)});
  }
  return batch;
}

// Per-row recursive interpreter over one 1024-row batch.
void BM_FilterScalar(benchmark::State& state) {
  Schema schema = DetSchema();
  Batch batch = FilterBenchBatch();
  ExprPtr pred = FilterBenchPredicate();
  for (auto _ : state) {
    int64_t kept = 0;
    for (const Row& row : batch.rows()) {
      auto r = eva::expr::EvaluateBool(*pred, schema, row);
      if (r.ok() && r.value()) ++kept;
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.num_rows()));
}
BENCHMARK(BM_FilterScalar);

// Compiled register program over the same batch.
void BM_FilterVectorized(benchmark::State& state) {
  Schema schema = DetSchema();
  Batch batch = FilterBenchBatch();
  ExprPtr pred = FilterBenchPredicate();
  auto program = FilterProgram::Compile(*pred, schema);
  if (!program.has_value()) {
    state.SkipWithError("predicate did not compile");
    return;
  }
  std::vector<uint8_t> keep;
  for (auto _ : state) {
    benchmark::DoNotOptimize(program->Execute(batch, &keep).ok());
    benchmark::DoNotOptimize(keep.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.num_rows()));
}
BENCHMARK(BM_FilterVectorized);

void BM_SyntheticVideoGeneration(benchmark::State& state) {
  eva::catalog::VideoInfo info = eva::vbench::ShortUaDetrac();
  info.num_frames = state.range(0);
  for (auto _ : state) {
    eva::vision::SyntheticVideo video(info);
    benchmark::DoNotOptimize(video.FrameObjects(0).size());
  }
}
BENCHMARK(BM_SyntheticVideoGeneration)->Arg(1000)->Arg(7500);

void BM_StatisticsBuild(benchmark::State& state) {
  eva::catalog::VideoInfo info = eva::vbench::ShortUaDetrac();
  info.num_frames = 7500;
  eva::vision::SyntheticVideo video(info);
  for (auto _ : state) {
    eva::storage::StatisticsManager stats(video);
    benchmark::DoNotOptimize(stats.num_frames());
  }
}
BENCHMARK(BM_StatisticsBuild);

void BM_HistogramSelectivity(benchmark::State& state) {
  eva::catalog::VideoInfo info = eva::vbench::ShortUaDetrac();
  info.num_frames = 2000;
  eva::vision::SyntheticVideo video(info);
  eva::storage::StatisticsManager stats(video);
  auto constraint = eva::symbolic::DimConstraint::Numeric(
      eva::symbolic::DimKind::kReal,
      eva::symbolic::Interval::GreaterThan(0.3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats.ConstraintSelectivity("area", constraint));
  }
}
BENCHMARK(BM_HistogramSelectivity);

// ---------------------------------------------------------------------------
// --quick mode: fixed-size wall-clock samples, p50/p95 JSON on stdout.
// ---------------------------------------------------------------------------

int RunQuick() {
  constexpr int kWarmup = 3;
  constexpr int kSamples = 30;
  constexpr int64_t kOps = 100000;  // point probes per sample

  MaterializedView view("bench", DetSchema());
  FillProbeView(&view);
  view.SealAllSegments();  // the probes read sealed segments; seal untimed

  auto view_contains = [&] {
    int64_t f = 0, hits = 0;
    for (int64_t i = 0; i < kOps; ++i) {
      f = (f + 7919) % (2 * kProbeViewFrames);
      if (view.Contains(ViewKey{f, -1})) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  };
  auto view_append = [&] {
    MaterializedView fresh("bench_append", DetSchema());
    AppendKeys(&fresh, kOps);
    benchmark::DoNotOptimize(fresh.num_rows());
  };
  ProbeResult res;
  std::vector<ViewKey> keys(kProbeBatchKeys);
  auto probe_batch = [&] {
    int64_t start = 0;
    for (int64_t b = 0; b * static_cast<int64_t>(kProbeBatchKeys) < kOps;
         ++b) {
      start = (start + 7919) % kProbeViewFrames;
      for (size_t i = 0; i < kProbeBatchKeys; ++i) {
        keys[i] = ViewKey{(start + static_cast<int64_t>(i)) %
                              (2 * kProbeViewFrames),
                          -1};
      }
      view.ProbeBatch(keys, nullptr, &res);
      benchmark::DoNotOptimize(res.outcomes.size());
    }
  };

  MaterializedView bloom_view("bench_bloom", DetSchema());
  FillBloomView(&bloom_view, 10);
  MaterializedView nobloom_view("bench_nobloom", DetSchema());
  FillBloomView(&nobloom_view, 0);
  std::vector<ViewKey> hit_keys = BloomProbeKeys(0);
  std::vector<ViewKey> miss_keys = BloomProbeKeys(1);
  auto probe_rounds = [&](MaterializedView& v,
                          const std::vector<ViewKey>& probe_keys) {
    ProbeResult r;
    for (int64_t b = 0; b * static_cast<int64_t>(kProbeBatchKeys) < kOps;
         ++b) {
      v.ProbeBatch(probe_keys, nullptr, &r);
      benchmark::DoNotOptimize(r.outcomes.size());
    }
  };
  auto probe_hit_bloom = [&] { probe_rounds(bloom_view, hit_keys); };
  auto probe_miss_bloom = [&] { probe_rounds(bloom_view, miss_keys); };
  auto probe_miss_nobloom = [&] { probe_rounds(nobloom_view, miss_keys); };

  Schema schema = DetSchema();
  Batch batch = FilterBenchBatch();
  ExprPtr pred = FilterBenchPredicate();
  auto program = FilterProgram::Compile(*pred, schema);
  if (!program.has_value()) {
    std::fprintf(stderr, "FATAL quick-mode predicate did not compile\n");
    return 1;
  }
  const int64_t filter_rounds = kOps / static_cast<int64_t>(batch.num_rows());
  auto filter_scalar = [&] {
    for (int64_t r = 0; r < filter_rounds; ++r) {
      int64_t kept = 0;
      for (const Row& row : batch.rows()) {
        auto v = eva::expr::EvaluateBool(*pred, schema, row);
        if (v.ok() && v.value()) ++kept;
      }
      benchmark::DoNotOptimize(kept);
    }
  };
  std::vector<uint8_t> keep;
  auto filter_vectorized = [&] {
    for (int64_t r = 0; r < filter_rounds; ++r) {
      benchmark::DoNotOptimize(program->Execute(batch, &keep).ok());
      benchmark::DoNotOptimize(keep.data());
    }
  };

  const int64_t filter_ops = filter_rounds *
                             static_cast<int64_t>(batch.num_rows());
  std::string out = "{\"bench\":\"bench_micro_storage\",\"mode\":\"quick\","
                    "\"benchmarks\":[";
  out += eva::bench::WallStatsJson(
      "view_contains",
      eva::bench::MeasureWall(view_contains, kWarmup, kSamples, kOps));
  out += ',';
  out += eva::bench::WallStatsJson(
      "view_append",
      eva::bench::MeasureWall(view_append, kWarmup, kSamples, kOps));
  out += ',';
  out += eva::bench::WallStatsJson(
      "view_probe_batch",
      eva::bench::MeasureWall(probe_batch, kWarmup, kSamples, kOps));
  out += ',';
  out += eva::bench::WallStatsJson(
      "probe_batch_hit_bloom",
      eva::bench::MeasureWall(probe_hit_bloom, kWarmup, kSamples, kOps));
  out += ',';
  out += eva::bench::WallStatsJson(
      "probe_batch_miss_bloom",
      eva::bench::MeasureWall(probe_miss_bloom, kWarmup, kSamples, kOps));
  out += ',';
  out += eva::bench::WallStatsJson(
      "probe_batch_miss_nobloom",
      eva::bench::MeasureWall(probe_miss_nobloom, kWarmup, kSamples, kOps));
  out += ',';
  out += eva::bench::WallStatsJson(
      "filter_scalar",
      eva::bench::MeasureWall(filter_scalar, kWarmup, kSamples, filter_ops));
  out += ',';
  out += eva::bench::WallStatsJson(
      "filter_vectorized", eva::bench::MeasureWall(filter_vectorized, kWarmup,
                                                   kSamples, filter_ops));
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return RunQuick();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
