// Table 3 — UDF statistics under VBENCH-HIGH / MEDIUM-UA-DETRAC: per-UDF
// per-tuple cost C_u, number of distinct invocations (#DI) and total
// invocations (#TI) of the workload itself, read from runs that see every
// invocation: #TI from a no-reuse run, #DI from a FunCache run's cache
// entries (one per distinct input). The view footprint line is EVA's.
//
// Paper values: FasterRCNNResNet50 99 ms, 13,820 / 72,457 (GPU);
// CarType 6 ms, 114,431 / 414,119 (GPU); ColorDet 5 ms, 111,631 / 219,264
// (CPU). The shape to hold: detector #TI ≈ 5x #DI; classifiers invoked
// one order of magnitude more often than the detector in total.

#include <cstdio>
#include <map>

#include "bench_util.h"

using namespace eva;         // NOLINT
using namespace eva::bench;  // NOLINT

int main(int argc, char** argv) {
  if (bench::QuickRequested(argc, argv)) return bench::RunQuickGate("table3_udf_stats");
  catalog::VideoInfo video = vbench::MediumUaDetrac();
  auto queries = vbench::VbenchHigh(video.name, video.num_frames);
  const vbench::WorkloadResult noreuse =
      RunMode(optimizer::ReuseMode::kNoReuse, video, queries);
  auto funcache = Unwrap(
      vbench::MakeEngine(optimizer::ReuseMode::kFunCache, video), "engine");
  Unwrap(vbench::RunWorkload(funcache.get(), queries), "funcache workload");
  const vbench::WorkloadResult result =
      RunMode(optimizer::ReuseMode::kEva, video, queries);

  std::map<std::string, int64_t> totals;
  for (const auto& q : noreuse.queries) {
    for (const auto& [udf, n] : q.metrics.invocations) totals[udf] += n;
  }

  PrintHeader("Table 3: UDF statistics (VBENCH-HIGH, MEDIUM-UA-DETRAC)");
  std::printf("%-22s %8s %10s %10s %8s\n", "UDF", "C_u(ms)", "#DI", "#TI",
              "device");
  for (const auto& [udf, ti] : totals) {
    auto def = Unwrap(funcache->catalog().GetUdf(udf), "udf def");
    std::printf("%-22s %8.0f %10lld %10lld %8s\n", udf.c_str(), def.cost_ms,
                static_cast<long long>(funcache->funcache().NumEntries(udf)),
                static_cast<long long>(ti), def.is_gpu ? "GPU" : "CPU");
  }
  std::printf("\nMaterialized view footprint: %.1f MiB (video: %.1f GiB; "
              "overhead %.4f%%)\n",
              result.view_bytes / (1024.0 * 1024.0),
              video.BytesPerFrame() * static_cast<double>(video.num_frames) /
                  (1024.0 * 1024.0 * 1024.0),
              100.0 * result.view_bytes /
                  (video.BytesPerFrame() *
                   static_cast<double>(video.num_frames)));
  return 0;
}
