// Microbenchmarks (google-benchmark) for the symbolic engine: the paper's
// §5.3 claim that the optimizer overhead is negligible rests on these
// operations being fast — INTER/DIFF/UNION plus Algorithm 1 reduction run
// once per UDF occurrence per query.
//
// Two entry modes (custom main below):
//   default       google-benchmark CLI (--benchmark_filter=..., etc.)
//   --quick       fixed-iteration wall-clock run of the INTER/DIFF/REDUCE
//                 paths, p50/p95 JSON on stdout for the CI perf gate
//                 (bench/check_regression.py).

#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_util.h"
#include "common/rng.h"
#include "symbolic/predicate.h"

namespace {

using eva::Rng;
using eva::symbolic::Conjunct;
using eva::symbolic::DimConstraint;
using eva::symbolic::DimKind;
using eva::symbolic::Interval;
using eva::symbolic::Predicate;

// Builds a coverage predicate of `n` overlapping range conjuncts over
// (id, area, label) — the shape the UDFMANAGER accumulates on vbench.
Predicate CoverageOfSize(int n, uint64_t seed) {
  Rng rng(seed);
  Predicate p = Predicate::False();
  for (int i = 0; i < n; ++i) {
    Conjunct c;
    double lo = static_cast<double>(rng.NextBelow(10000));
    double len = 1000 + static_cast<double>(rng.NextBelow(4000));
    c.Constrain("id",
                DimConstraint::Numeric(
                    DimKind::kInteger,
                    Interval(Interval::AtLeast(lo).lo(),
                             Interval::AtMost(lo + len).hi())));
    c.Constrain("area",
                DimConstraint::Numeric(
                    DimKind::kReal,
                    Interval::GreaterThan(0.05 *
                                          static_cast<double>(
                                              rng.NextBelow(8)))));
    c.Constrain("label", DimConstraint::Categorical({"car"}, false));
    p.AddConjunct(std::move(c));
  }
  return p;
}

Predicate QueryPred(uint64_t seed) {
  Rng rng(seed);
  Conjunct c;
  double lo = static_cast<double>(rng.NextBelow(10000));
  c.Constrain("id", DimConstraint::Numeric(
                        DimKind::kInteger,
                        Interval(Interval::AtLeast(lo).lo(),
                                 Interval::AtMost(lo + 5000).hi())));
  c.Constrain("label", DimConstraint::Categorical({"car"}, false));
  return Predicate::FromConjunct(std::move(c));
}

void BM_Reduce(benchmark::State& state) {
  Predicate p = CoverageOfSize(static_cast<int>(state.range(0)), 17);
  for (auto _ : state) {
    Predicate copy = p;
    copy.Reduce();
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Reduce)->Arg(2)->Arg(8)->Arg(32);

void BM_Inter(benchmark::State& state) {
  Predicate cov = CoverageOfSize(static_cast<int>(state.range(0)), 23);
  cov.Reduce();
  Predicate q = QueryPred(5);
  for (auto _ : state) {
    auto r = Predicate::Inter(cov, q);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Inter)->Arg(2)->Arg(8)->Arg(32);

void BM_Diff(benchmark::State& state) {
  Predicate cov = CoverageOfSize(static_cast<int>(state.range(0)), 29);
  cov.Reduce();
  Predicate q = QueryPred(7);
  for (auto _ : state) {
    auto r = Predicate::Diff(cov, q);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Diff)->Arg(2)->Arg(8)->Arg(16);

void BM_UnionCoverageGrowth(benchmark::State& state) {
  // The UDFMANAGER's hot loop: p_u = UNION(p_u, q) across a session.
  for (auto _ : state) {
    Predicate cov = Predicate::False();
    for (uint64_t i = 0; i < static_cast<uint64_t>(state.range(0)); ++i) {
      cov = Predicate::Union(cov, QueryPred(i * 31 + 1));
    }
    benchmark::DoNotOptimize(cov);
  }
}
BENCHMARK(BM_UnionCoverageGrowth)->Arg(8)->Arg(32);

void BM_EvaluatePredicate(benchmark::State& state) {
  Predicate cov = CoverageOfSize(8, 41);
  cov.Reduce();
  int64_t id = 0;
  for (auto _ : state) {
    id = (id + 37) % 20000;
    bool r = cov.Evaluate([id](const std::string& dim) {
      if (dim == "id") return eva::Value(id);
      if (dim == "area") return eva::Value(0.31);
      return eva::Value("car");
    });
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EvaluatePredicate);

// ---------------------------------------------------------------------------
// --quick mode: fixed-size wall-clock samples, p50/p95 JSON on stdout.
// ---------------------------------------------------------------------------

int RunQuick() {
  constexpr int kWarmup = 3;
  constexpr int kSamples = 30;
  // Symbolic ops per sample, sized so each loop takes well under a second
  // in total: diff_16 costs about 5 ms per op and reduce_32 about 1.25 ms.
  // MeasureWall reports per-op time, so the counts do not move the numbers.
  constexpr int64_t kReduceOps = 16;
  constexpr int64_t kInterOps = 100;
  constexpr int64_t kDiffOps = 8;
  constexpr int64_t kUnionOps = 200;

  Predicate cov32 = CoverageOfSize(32, 23);
  cov32.Reduce();
  Predicate cov16 = CoverageOfSize(16, 29);
  cov16.Reduce();
  Predicate q5 = QueryPred(5);
  Predicate q7 = QueryPred(7);
  Predicate raw32 = CoverageOfSize(32, 17);

  auto reduce32 = [&] {
    for (int64_t i = 0; i < kReduceOps; ++i) {
      Predicate copy = raw32;
      copy.Reduce();
      benchmark::DoNotOptimize(copy);
    }
  };
  auto inter32 = [&] {
    for (int64_t i = 0; i < kInterOps; ++i) {
      auto r = Predicate::Inter(cov32, q5);
      benchmark::DoNotOptimize(r);
    }
  };
  auto diff16 = [&] {
    for (int64_t i = 0; i < kDiffOps; ++i) {
      auto r = Predicate::Diff(cov16, q7);
      benchmark::DoNotOptimize(r);
    }
  };
  auto union8 = [&] {
    for (int64_t i = 0; i < kUnionOps; ++i) {
      Predicate cov = Predicate::False();
      for (uint64_t j = 0; j < 8; ++j) {
        cov = Predicate::Union(cov, QueryPred(j * 31 + 1));
      }
      benchmark::DoNotOptimize(cov);
    }
  };

  std::string out = "{\"bench\":\"bench_micro_symbolic\",\"mode\":\"quick\","
                    "\"benchmarks\":[";
  using eva::bench::MeasureWall;
  using eva::bench::WallStatsJson;
  out += WallStatsJson("reduce_32",
                       MeasureWall(reduce32, kWarmup, kSamples, kReduceOps));
  out += ',';
  out += WallStatsJson("inter_32",
                       MeasureWall(inter32, kWarmup, kSamples, kInterOps));
  out += ',';
  out += WallStatsJson("diff_16",
                       MeasureWall(diff16, kWarmup, kSamples, kDiffOps));
  out += ',';
  out += WallStatsJson("union_growth_8",
                       MeasureWall(union8, kWarmup, kSamples, kUnionOps));
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
