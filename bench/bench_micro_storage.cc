// Microbenchmarks (google-benchmark) for the storage substrate: view
// presence/append throughput (the STORE operator's inner loop), the
// columnar batch-probe path, the reseal of a segment with an open tail,
// the seal and the seal plan of a detector segment, the filter evaluators
// over an execution chunk, and synthetic-video generation/statistics
// costs.
//
// Two entry modes (custom main below):
//   default       google-benchmark CLI (--benchmark_filter=..., etc.)
//   --quick       fixed-iteration wall-clock run of the probe/reseal/seal/
//                 filter benches, p50/p95 JSON on stdout — the CI perf-smoke
//                 job's artifact (see .github/workflows/ci.yml).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "exec/vector_filter.h"
#include "expr/expr.h"
#include "storage/statistics.h"
#include "storage/view_store.h"
#include "vbench/vbench.h"
#include "view_test_util.h"
#include "vision/synthetic_video.h"

namespace {

using eva::Row;
using eva::Schema;
using eva::Value;
using eva::exec::Chunk;
using eva::exec::FilterProgram;
using eva::expr::CompareOp;
using eva::expr::Expr;
using eva::expr::ExprPtr;
using eva::storage::ColumnVec;
using eva::storage::MaterializedView;
using eva::storage::ProbeResult;
using eva::storage::PutRows;
using eva::storage::SegmentBuildOptions;
using eva::storage::SegmentCells;
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
    PutRows(view, ViewKey{f, -1},
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
      PutRows(&view, ViewKey{f, -1}, rows);
    }
    benchmark::DoNotOptimize(view.num_rows());
  }
}
BENCHMARK(BM_ViewPut)->Arg(1000)->Arg(10000);

// Point presence check against sealed segments (PutBatch runs the same
// check for each key STORE did not probe): Bloom filter when present,
// then the key-index search. Half the keys miss.
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
// per key, copied lane to lane from a wider input chunk into the open
// tail, one PutBatch per kProbeBatchKeys keys as STORE puts a chunk.
void AppendKeys(MaterializedView* view, int64_t keys) {
  const Row input = {Value(int64_t{0}), Value(int64_t{0}), Value("car"),
                     Value(0.3), Value(0.9)};
  Chunk chunk(Schema({{"id", eva::DataType::kInt64},
                      {"obj", eva::DataType::kInt64},
                      {"label", eva::DataType::kString},
                      {"area", eva::DataType::kDouble},
                      {"score", eva::DataType::kDouble}}));
  chunk.AppendRow(input);
  const std::vector<const ColumnVec*> values =
      eva::storage::LaneColumns({chunk.cols().data() + 1, 4});
  const std::function<uint64_t()> tick = [] { return uint64_t{0}; };
  eva::storage::PutRemaps remaps;
  std::vector<ViewKey> batch;
  std::vector<uint32_t> key_rows;
  const std::vector<uint32_t> rows(kProbeBatchKeys, 0);
  std::vector<uint8_t> inserted;
  for (int64_t f = 0; f < keys;) {
    batch.clear();
    key_rows.assign(1, 0);
    for (; f < keys && batch.size() < kProbeBatchKeys; ++f) {
      batch.push_back(ViewKey{f, -1});
      key_rows.push_back(static_cast<uint32_t>(batch.size()));
    }
    view->PutBatch(batch, {}, key_rows, rows, values, tick, 0, &remaps,
                   &inserted);
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
    PutRows(view, ViewKey{f, -1},
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

// Reseal cost (the --quick `view_reseal` entry): a sealed 512-frame
// detector segment takes a small tail, and a probe that touches it
// reseals the whole segment. The base leaves every eighth frame free:
// kResealTails tails of kResealTailFrames frames fill them. Reported per
// reseal.
constexpr int64_t kResealTails = 16;
constexpr int64_t kResealTailFrames = 4;

// Three detections per frame; labels repeat, areas and scores do not.
std::vector<Row> Detections(int64_t frame) {
  static const char* const kLabels[] = {"car", "bus", "person", "truck"};
  std::vector<Row> rows;
  uint64_t h = static_cast<uint64_t>(frame) * 0x9E3779B97F4A7C15ULL;
  for (int64_t obj = 0; obj < 3; ++obj) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    rows.push_back({Value(obj), Value(kLabels[(h >> 8) % 4]),
                    Value(0.01 + 0.3 * u), Value(0.5 + 0.5 * (1 - u * u))});
  }
  return rows;
}

std::unique_ptr<MaterializedView> SealedDetectorSegment() {
  auto view = std::make_unique<MaterializedView>("bench_reseal", DetSchema());
  view->set_build_options({/*compress=*/true, /*bloom_bits_per_key=*/10});
  for (int64_t f = 0; f < view->segment_frames(); ++f) {
    if (f % 8 != 7) PutRows(view.get(), ViewKey{f, -1}, Detections(f));
  }
  view->SealAllSegments();
  return view;
}

void ResealTails(MaterializedView* view) {
  ProbeResult res;
  int64_t f = 7;
  for (int64_t t = 0; t < kResealTails; ++t) {
    const ViewKey first{f, -1};
    for (int64_t k = 0; k < kResealTailFrames; ++k, f += 8) {
      PutRows(view, ViewKey{f, -1}, Detections(f));
    }
    view->ProbeBatch({first}, nullptr, &res);
    benchmark::DoNotOptimize(res.outcomes.size());
  }
}

void BM_ViewReseal(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<MaterializedView> view = SealedDetectorSegment();
    state.ResumeTiming();
    ResealTails(view.get());
  }
  state.SetItemsProcessed(state.iterations() * kResealTails);
}
BENCHMARK(BM_ViewReseal);

// Seal and seal plan of one detector segment (the --quick `seal_detector`
// and `plan_detector` entries): kDetectorRows rows of (obj, label, area,
// score) under one key per frame, 1 to 16 detections per frame; labels
// repeat, areas and scores do not. Reported per segment.
constexpr int64_t kDetectorRows = 4000;
constexpr int kPlanRounds = 10;  // plans per --quick sample
const SegmentBuildOptions kSealOptions{/*compress=*/true,
                                       /*bloom_bits_per_key=*/10};

SegmentCells DetectorCells() {
  static const char* const kLabels[] = {"car", "bus", "person", "truck"};
  SegmentCells cells;
  cells.cols = eva::storage::LanesFor(DetSchema());
  uint64_t h = 0x5EA1;
  auto next = [&h] {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    return h;
  };
  int32_t rows = 0;
  for (int64_t frame = 0; rows < kDetectorRows; ++frame) {
    const int64_t objs = std::min<int64_t>(
        1 + static_cast<int64_t>(next() >> 60), kDetectorRows - rows);
    for (int64_t obj = 0; obj < objs; ++obj) {
      const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
      cells.cols[0].AppendInt64(obj);
      cells.cols[1].AppendString(kLabels[(h >> 8) % 4]);
      cells.cols[2].AppendDouble(0.01 + 0.3 * u);
      cells.cols[3].AppendDouble(0.5 + 0.5 * (1 - u * u));
    }
    rows += static_cast<int32_t>(objs);
    cells.keys.push_back(ViewKey{frame, -1});
    cells.row_begin.push_back(rows);
  }
  return cells;
}

void BM_SealDetector(benchmark::State& state) {
  const SegmentCells cells = DetectorCells();
  for (auto _ : state) {
    state.PauseTiming();
    SegmentCells input = cells;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        eva::storage::BuildColumnarSegment(std::move(input), kSealOptions));
  }
}
BENCHMARK(BM_SealDetector);

void BM_PlanDetector(benchmark::State& state) {
  const SegmentCells cells = DetectorCells();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eva::storage::PlanSegmentBytes(cells, kSealOptions));
  }
}
BENCHMARK(BM_PlanDetector);

ExprPtr FilterBenchPredicate() {
  // label = 'car' AND area > 0.2 — the shape every vbench query carries.
  return Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::Column("label"),
                    Expr::Literal(Value("car"))),
      Expr::Compare(CompareOp::kGt, Expr::Column("area"),
                    Expr::Literal(Value(0.2))));
}

// One 1024-row execution chunk of detector outputs.
Chunk FilterBenchChunk() {
  Chunk chunk(DetSchema());
  for (int64_t i = 0; i < 1024; ++i) {
    chunk.AppendRow({Value(i % 8), Value(i % 3 == 0 ? "car" : "bus"),
                     Value(0.05 + 0.001 * static_cast<double>(i % 400)),
                     Value(0.9)});
  }
  return chunk;
}

// Compiled register program over the same chunk's lanes.
void BM_FilterVectorized(benchmark::State& state) {
  Chunk chunk = FilterBenchChunk();
  ExprPtr pred = FilterBenchPredicate();
  const FilterProgram program = FilterProgram::Compile(*pred, chunk.schema());
  std::vector<uint8_t> keep;
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.Execute(chunk, &keep).ok());
    benchmark::DoNotOptimize(keep.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(chunk.num_rows()));
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

  // One freshly sealed segment per sample, built before the clock runs.
  std::vector<std::unique_ptr<MaterializedView>> reseal_views;
  for (int i = 0; i < kWarmup + kSamples; ++i) {
    reseal_views.push_back(SealedDetectorSegment());
  }
  size_t next_reseal_view = 0;
  auto view_reseal = [&] {
    ResealTails(reseal_views[next_reseal_view++].get());
  };

  // One copy of the detector cells per seal sample, made before the clock
  // runs (a seal consumes its cells).
  const SegmentCells detector = DetectorCells();
  std::vector<SegmentCells> seal_inputs(kWarmup + kSamples, detector);
  size_t next_seal_input = 0;
  auto seal_detector = [&] {
    benchmark::DoNotOptimize(eva::storage::BuildColumnarSegment(
        std::move(seal_inputs[next_seal_input++]), kSealOptions));
  };
  auto plan_detector = [&] {
    for (int i = 0; i < kPlanRounds; ++i) {
      benchmark::DoNotOptimize(
          eva::storage::PlanSegmentBytes(detector, kSealOptions));
    }
  };

  Chunk chunk = FilterBenchChunk();
  ExprPtr pred = FilterBenchPredicate();
  const FilterProgram program = FilterProgram::Compile(*pred, chunk.schema());
  const int64_t filter_rounds = kOps / static_cast<int64_t>(chunk.num_rows());
  std::vector<uint8_t> keep;
  auto filter_vectorized = [&] {
    for (int64_t r = 0; r < filter_rounds; ++r) {
      benchmark::DoNotOptimize(program.Execute(chunk, &keep).ok());
      benchmark::DoNotOptimize(keep.data());
    }
  };

  const int64_t filter_ops = filter_rounds *
                             static_cast<int64_t>(chunk.num_rows());
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
      "view_reseal", eva::bench::MeasureWall(view_reseal, kWarmup, kSamples,
                                             kResealTails));
  out += ',';
  out += eva::bench::WallStatsJson(
      "seal_detector",
      eva::bench::MeasureWall(seal_detector, kWarmup, kSamples, 1));
  out += ',';
  out += eva::bench::WallStatsJson(
      "plan_detector", eva::bench::MeasureWall(plan_detector, kWarmup,
                                               kSamples, kPlanRounds));
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
