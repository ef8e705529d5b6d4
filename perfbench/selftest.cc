// Tests of the benchmark's own arithmetic (stats.h). Exits non-zero on the
// first failed expectation. Run through `python3 perfbench/run.py
// --self-test`, which also checks BENCHMARK.json against the metric tables.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentileIndex() {
  using perfbench::PercentileIndex;
  Expect(PercentileIndex(100, 50) == 49, "p50 of 100 is index 49");
  Expect(PercentileIndex(100, 90) == 89, "p90 of 100 is index 89");
  Expect(PercentileIndex(100, 100) == 99, "p100 is the maximum");
  Expect(PercentileIndex(100, 0) == 0, "p0 is the minimum");
  Expect(PercentileIndex(7, 50) == 3, "p50 of 7 is the middle");
  Expect(PercentileIndex(1, 90) == 0, "single sample");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  Expect(Near(perfbench::Percentile(v, 90), 90), "p90 of 1..100 is 90");
  Expect(Near(perfbench::Median({3, 1, 2}), 2), "median of 3 values");
  Expect(perfbench::Percentile({}, 50) == 0, "empty input is 0");
}

void TestTail() {
  using perfbench::HighestPercentileWithTail;
  Expect(HighestPercentileWithTail(100, 10) == 90, "100 samples -> p90");
  Expect(HighestPercentileWithTail(1000, 10) == 99, "1000 samples -> p99");
  Expect(HighestPercentileWithTail(104, 10) == 90, "104 samples -> p90");
  Expect(HighestPercentileWithTail(10, 10) == -1, "10 samples -> none");
  Expect(HighestPercentileWithTail(11, 10) == 9, "11 samples -> p9");
  for (size_t n : {11, 50, 100, 128, 257, 1000}) {
    const int p = HighestPercentileWithTail(n, 10);
    Expect(perfbench::SamplesBeyond(n, p) >= 10, "tail kept");
    Expect(p == 100 || perfbench::SamplesBeyond(n, p + 1) < 10,
           "next percentile loses the tail");
  }
}

void TestFifoSplit() {
  using perfbench::FifoStamp;
  // Four clients submit at t=0; service takes 10 ms each, back to back;
  // then client 1 resubmits at 10 and waits behind the other three.
  std::vector<FifoStamp> stamps = {
      {0, 10}, {0, 20}, {0, 30}, {0, 40}, {10, 50}};
  auto split = perfbench::SplitFifo(stamps);
  Expect(split.size() == 5, "one split per stamp");
  Expect(Near(split[0].queue_wait_ms, 0) && Near(split[0].service_ms, 10),
         "first request never waits");
  Expect(Near(split[3].queue_wait_ms, 30) && Near(split[3].service_ms, 10),
         "fourth waits for three");
  Expect(Near(split[4].queue_wait_ms, 30) && Near(split[4].service_ms, 10),
         "resubmission waits for the queue ahead");
  // An idle gap: the request starts at its own submit time.
  auto idle = perfbench::SplitFifo({{0, 5}, {8, 12}});
  Expect(Near(idle[1].queue_wait_ms, 0) && Near(idle[1].service_ms, 4),
         "idle executor starts at submit");
  for (const auto& s : split) {
    Expect(s.queue_wait_ms >= 0 && s.service_ms >= 0, "non-negative");
  }
}

void TestMetricTables() {
  using perfbench::ValidMetricName;
  Expect(ValidMetricName("query_wall_ms.p50"), "dotted name is valid");
  Expect(!ValidMetricName("bad name"), "space is invalid");
  Expect(!ValidMetricName("_lead"), "leading underscore is invalid");
  Expect(!ValidMetricName("a{b}"), "braces are invalid");
  Expect(!ValidMetricName(std::string(65, 'a')), "65 characters is too long");
  std::set<std::string> seen;
  bool setup = false;
  for (const auto* table :
       {&perfbench::EndToEndMetrics(), &perfbench::PerLayerMetrics()}) {
    for (const perfbench::MetricDef& d : *table) {
      Expect(ValidMetricName(d.name), d.name);
      Expect(seen.insert(d.name).second, "metric names are unique");
      const std::string better = d.better;
      Expect(better == "lower" || better == "higher",
             "every metric has a direction");
      Expect(std::string(d.unit).size() <= 16, "unit length");
      setup = setup || (std::string(d.name) == "setup_s" &&
                        std::string(d.unit) == "s" && better == "lower");
    }
  }
  Expect(setup, "setup_s is an end-to-end metric in s, lower is better");
}

void TestResultJson() {
  const std::string line = perfbench::ResultJson(
      true, 3, 0, {{"setup_s", "s", 0.125}, {"hit_pct", "%", 46.5}});
  Expect(line ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"setup_s\": {\"value\": 0.125, \"unit\": "
             "\"s\"}, \"hit_pct\": {\"value\": 46.5, \"unit\": \"%\"}}}",
         "result line layout");
}

void TestFnv() {
  using perfbench::FnvMix;
  using perfbench::kFnvOffset;
  Expect(FnvMix(FnvMix(kFnvOffset, 1), 2) != FnvMix(FnvMix(kFnvOffset, 2), 1),
         "order-sensitive");
  Expect(perfbench::DoubleBits(0.0) != perfbench::DoubleBits(-0.0),
         "bit-exact doubles");
}

}  // namespace

int main() {
  TestPercentileIndex();
  TestTail();
  TestFifoSplit();
  TestMetricTables();
  TestResultJson();
  TestFnv();
  std::printf("%s (%d failure(s))\n", failures == 0 ? "ok" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
