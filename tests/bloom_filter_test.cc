// Split-block Bloom filter tests (docs/STORAGE.md): zero false negatives
// by construction (checked exhaustively), measured false-positive rate
// within 2x of the analytic target, and a brute-force oracle proving that
// a Bloom-negative probe never changes a view's answer.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "storage/bloom_filter.h"
#include "storage/view_store.h"
#include "view_test_util.h"

namespace eva::storage {
namespace {

uint64_t Splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(BloomFilterTest, NoFalseNegativesExhaustive) {
  for (size_t n : {1u, 7u, 64u, 1000u, 50000u}) {
    std::vector<uint64_t> hashes;
    hashes.reserve(n);
    for (size_t i = 0; i < n; ++i) hashes.push_back(Splitmix(i * 3 + 1));
    BloomFilter filter;
    filter.Build(hashes, /*bits_per_key=*/10);
    ASSERT_TRUE(filter.enabled());
    for (uint64_t h : hashes) {
      ASSERT_TRUE(filter.MayContain(h)) << "n=" << n;
    }
  }
}

TEST(BloomFilterTest, EmptyOrDisabledFilterAdmitsEverything) {
  BloomFilter empty;
  EXPECT_FALSE(empty.enabled());
  EXPECT_TRUE(empty.MayContain(123));
  BloomFilter zero_bits;
  zero_bits.Build({1, 2, 3}, /*bits_per_key=*/0);
  EXPECT_FALSE(zero_bits.enabled());
  EXPECT_TRUE(zero_bits.MayContain(999));
}

TEST(BloomFilterTest, FalsePositiveRateNearTarget) {
  // Analytic split-block FPP with 8 probe bits in a 256-bit block and c
  // bits per key: (1 - e^(-8/c))^8. The measured rate over disjoint
  // non-member hashes must stay within 2x (plus a small-sample floor).
  const size_t n = 20000;
  for (int bits_per_key : {8, 10, 16}) {
    std::vector<uint64_t> members;
    for (size_t i = 0; i < n; ++i) members.push_back(Splitmix(i));
    BloomFilter filter;
    filter.Build(members, bits_per_key);
    size_t fps = 0;
    const size_t trials = 200000;
    for (size_t i = 0; i < trials; ++i) {
      if (filter.MayContain(Splitmix(n + i))) ++fps;
    }
    const double measured = static_cast<double>(fps) / trials;
    const double target =
        std::pow(1.0 - std::exp(-8.0 / bits_per_key), 8.0);
    EXPECT_LE(measured, 2.0 * target + 0.001)
        << "bits_per_key=" << bits_per_key << " measured=" << measured
        << " target=" << target;
    EXPECT_GT(measured, 0.0) << "a real filter has some false positives";
  }
}

TEST(BloomFilterTest, SizeScalesWithKeysNotTrials) {
  std::vector<uint64_t> hashes;
  for (size_t i = 0; i < 10000; ++i) hashes.push_back(Splitmix(i));
  BloomFilter filter;
  filter.Build(hashes, 10);
  // 10 bits/key over 10k keys ≈ 12.5 KiB, rounded up to whole 32-byte
  // blocks — an order of magnitude under the keys themselves.
  EXPECT_GE(filter.SizeBytes(), 10000u * 10 / 8);
  EXPECT_LE(filter.SizeBytes(), 10000u * 10 / 8 + 64);
  EXPECT_EQ(filter.SizeBytes(), filter.blocks().size() * 32);
}

TEST(BloomFilterTest, RestoreRoundTripsBlocks) {
  std::vector<uint64_t> hashes;
  for (size_t i = 0; i < 500; ++i) hashes.push_back(Splitmix(i ^ 0xABCD));
  BloomFilter filter;
  filter.Build(hashes, 10);
  BloomFilter restored;
  restored.RestoreBlocks(filter.blocks());
  ASSERT_TRUE(restored.enabled());
  for (uint64_t h : hashes) EXPECT_TRUE(restored.MayContain(h));
  size_t disagreements = 0;
  for (size_t i = 0; i < 10000; ++i) {
    uint64_t probe = Splitmix(0xF00D + i);
    if (filter.MayContain(probe) != restored.MayContain(probe)) {
      ++disagreements;
    }
  }
  EXPECT_EQ(disagreements, 0u);
}

// Brute-force oracle: probes against a Bloom-filtered view answer exactly
// like the full key-index path. Every kMiss outcome is checked against a
// std::set oracle of the stored keys, so a Bloom negative that skipped the
// key-index search can never have hidden a present key.
TEST(BloomFilterTest, ProbeOracleDifferential) {
  Schema schema({{"v", DataType::kInt64}});
  MaterializedView view("t@v", schema);
  view.set_segment_frames(64);
  view.set_build_options({/*compress=*/true, /*bloom_bits_per_key=*/10});
  std::set<ViewKey> oracle;
  uint64_t state = 42;
  for (int i = 0; i < 3000; ++i) {
    state = Splitmix(state);
    ViewKey key{static_cast<int64_t>(state % 2000),
                static_cast<int64_t>((state >> 32) % 4) - 1};
    if (oracle.insert(key).second) {
      PutRows(&view, key, {{Value(static_cast<int64_t>(i))}});
    }
  }
  std::vector<ViewKey> probes;
  for (int64_t f = 0; f < 2200; ++f) {
    for (int64_t o = -1; o < 3; ++o) probes.push_back({f, o});
  }
  ProbeResult res;
  view.ProbeBatch(probes, nullptr, &res);
  ASSERT_EQ(res.outcomes.size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    const bool stored = oracle.count(probes[i]) > 0;
    EXPECT_EQ(res.outcomes[i].status == ProbeStatus::kHit, stored)
        << "key (" << probes[i].frame << ", " << probes[i].obj << ")";
  }
  // The filter actually engaged: most of the misses short-circuited, and
  // no stored key was ever filtered (that would be a wrong kMiss above).
  EXPECT_GT(res.bloom_negatives, 0);
  EXPECT_GT(res.bloom_hits, 0);
  const int64_t misses =
      static_cast<int64_t>(probes.size() - oracle.size());
  EXPECT_LE(res.bloom_fps, misses / 10);  // far under the miss count
}

}  // namespace
}  // namespace eva::storage
