// Stress tests for the concurrency-safe view store (docs/RUNTIME.md):
// concurrent probes and inserts of overlapping key ranges must leave the
// store in exactly the state a serial run produces, and registry lookups
// must hand every thread the same view object.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/row.h"
#include "lifecycle/view_lifecycle.h"
#include "storage/view_store.h"
#include "view_test_util.h"

namespace eva::storage {
namespace {

Schema TestSchema() {
  return Schema({{"label", DataType::kString}, {"score", DataType::kDouble}});
}

// Deterministic rows for a key, so every thread that puts `key` puts the
// same payload — two writers racing to materialize the same frame's UDF
// result, the worst case the store's lock protocol must survive.
std::vector<Row> RowsForKey(int64_t frame) {
  std::vector<Row> rows;
  int n = static_cast<int>(frame % 3);  // 0..2 rows; 0 = presence-only key
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value("label" + std::to_string(frame)),
                    Value(static_cast<double>(frame) + 0.25 * i)});
  }
  return rows;
}

TEST(ViewStoreConcurrencyTest, OverlappingInsertsMatchSerialState) {
  constexpr int kThreads = 8;
  constexpr int64_t kSpan = 300;    // keys per thread
  constexpr int64_t kStride = 100;  // thread t covers [t*100, t*100+300)
  MaterializedView parallel("v", TestSchema());
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&parallel, t] {
        for (int64_t k = 0; k < kSpan; ++k) {
          int64_t frame = static_cast<int64_t>(t) * kStride + k;
          PutRows(&parallel, {frame, -1}, RowsForKey(frame));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  MaterializedView serial("v", TestSchema());
  for (int t = 0; t < kThreads; ++t) {
    for (int64_t k = 0; k < kSpan; ++k) {
      int64_t frame = static_cast<int64_t>(t) * kStride + k;
      PutRows(&serial, {frame, -1}, RowsForKey(frame));
    }
  }

  EXPECT_EQ(parallel.num_keys(), serial.num_keys());
  EXPECT_EQ(parallel.num_rows(), serial.num_rows());
  EXPECT_EQ(parallel.SizeBytes(), serial.SizeBytes());
  for (int64_t frame = 0;
       frame < static_cast<int64_t>(kThreads - 1) * kStride + kSpan;
       ++frame) {
    ViewKey key{frame, -1};
    ASSERT_EQ(parallel.Contains(key), serial.Contains(key))
        << "frame " << frame;
    auto p = ReadKey(parallel, key);
    auto s = ReadKey(serial, key);
    ASSERT_EQ(p.has_value(), s.has_value()) << "frame " << frame;
    if (!p.has_value()) continue;
    ASSERT_EQ(p->size(), s->size()) << "frame " << frame;
    for (size_t r = 0; r < p->size(); ++r) {
      ASSERT_EQ((*p)[r].size(), (*s)[r].size());
      for (size_t c = 0; c < (*p)[r].size(); ++c) {
        EXPECT_EQ((*p)[r][c].ToString(), (*s)[r][c].ToString());
      }
    }
  }
}

TEST(ViewStoreConcurrencyTest, ProbesDuringInsertsSeeConsistentEntries) {
  MaterializedView view("v", TestSchema());
  constexpr int64_t kKeys = 2000;
  std::atomic<bool> writer_done{false};
  std::atomic<int64_t> inconsistencies{0};
  std::thread writer([&] {
    for (int64_t frame = 0; frame < kKeys; ++frame) {
      PutRows(&view, {frame, -1}, RowsForKey(frame));
    }
    writer_done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!writer_done.load()) {
        for (int64_t frame = 0; frame < kKeys; frame += 37) {
          ViewKey key{frame, -1};
          // Once present, a key is immutable: it must hold exactly the
          // rows the writer put, whether read from a tail just sealed or
          // from an older sealed segment.
          bool present = view.Contains(key);
          auto rows = ReadKey(view, key);
          if (present && !rows.has_value()) inconsistencies.fetch_add(1);
          if (rows.has_value() && rows->size() != RowsForKey(frame).size()) {
            inconsistencies.fetch_add(1);
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_EQ(view.num_keys(), kKeys);
}

TEST(ViewStoreConcurrencyTest, GetOrCreateReturnsOneViewToAllThreads) {
  ViewStore store;
  constexpr int kThreads = 8;
  std::vector<MaterializedView*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &seen, t] {
      seen[static_cast<size_t>(t)] =
          store.GetOrCreate("shared@video", TestSchema());
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  EXPECT_EQ(store.views().size(), 1u);
}

TEST(ViewStoreConcurrencyTest, ConcurrentFindAndTotalsDoNotRace) {
  ViewStore store;
  for (int v = 0; v < 8; ++v) {
    MaterializedView* view =
        store.GetOrCreate("v" + std::to_string(v), TestSchema());
    for (int64_t frame = 0; frame < 50; ++frame) {
      PutRows(view, {frame, -1}, RowsForKey(frame));
    }
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, &stop, t] {
      const ViewStore& cstore = store;
      while (!stop.load()) {
        const MaterializedView* view =
            cstore.Find("v" + std::to_string(t % 8));
        if (view != nullptr) {
          (void)view->num_rows();
        }
        (void)cstore.TotalSizeBytes();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(store.views().size(), 8u);
}

// Compressed-segment seal racing against batch probes: writers keep
// adding keys (which marks segments stale), a sealer thread re-seals with
// codecs + Bloom filters, and reader threads ProbeBatch throughout. Every
// hit's reconstructed row must match the deterministic payload — a torn
// codec lane or a swapped-mid-read segment would surface here (and under
// TSan in CI).
TEST(ViewStoreConcurrencyTest, ProbesDuringCompressedSealStayExact) {
  MaterializedView view("v", TestSchema());
  view.set_segment_frames(64);
  view.set_build_options({/*compress=*/true, /*bloom_bits_per_key=*/10});
  constexpr int64_t kKeys = 4000;
  std::atomic<bool> writer_done{false};
  std::atomic<int64_t> mismatches{0};
  std::thread writer([&] {
    for (int64_t frame = 0; frame < kKeys; ++frame) {
      PutRows(&view, {frame, -1}, RowsForKey(frame));
    }
    writer_done.store(true);
  });
  std::thread sealer([&] {
    while (!writer_done.load()) view.SealAllSegments();
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::vector<ViewKey> probes;
      for (int64_t frame = 0; frame < kKeys; frame += 13) {
        probes.push_back({frame, -1});
      }
      ProbeResult res;
      while (!writer_done.load()) {
        res.Clear();
        view.ProbeBatch(probes, nullptr, &res);
        for (size_t i = 0; i < probes.size(); ++i) {
          const ProbeOutcome& oc = res.outcomes[i];
          if (oc.status != ProbeStatus::kHit) continue;
          std::vector<Row> want = RowsForKey(probes[i].frame);
          if (oc.rows_count != static_cast<int32_t>(want.size())) {
            mismatches.fetch_add(1);
            continue;
          }
          for (int32_t j = 0; j < oc.rows_count; ++j) {
            Row got = res.segment(oc).RowAt(oc.rows_begin + j);
            if (got.size() != want[j].size() ||
                got[0] != want[j][0] || got[1] != want[j][1]) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  writer.join();
  sealer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(view.num_keys(), kKeys);
}

// Puts `keys` with their deterministic payloads in one PutBatch.
void PutKeys(MaterializedView* view, const std::vector<ViewKey>& keys) {
  std::vector<TailLane> lanes = LanesFor(view->value_schema());
  std::vector<uint32_t> key_rows{0};
  for (const ViewKey& key : keys) {
    const std::vector<Row> rows = RowsForKey(key.frame);
    for (const Row& row : rows) {
      for (size_t c = 0; c < lanes.size(); ++c) lanes[c].Append(row[c]);
    }
    key_rows.push_back(key_rows.back() + static_cast<uint32_t>(rows.size()));
  }
  std::vector<uint32_t> rows(key_rows.back());
  for (uint32_t r = 0; r < rows.size(); ++r) rows[r] = r;
  PutRemaps remaps;
  std::vector<uint8_t> inserted;
  view->PutBatch(keys, {}, key_rows, rows, LaneColumns(lanes),
                 [] { return uint64_t{0}; }, -1, &remaps, &inserted);
}

// Run-at-a-time probes over many segments racing multi-segment PutBatches
// (some in descending key order, which reseal mid-batch) and a resealer:
// ascending, backwards and repeated probe batches each walk a dozen
// segments' key indexes while their tails grow and their sealed parts are
// swapped. Every hit reads its key's exact payload, the runs cover the
// outcomes, and a key once seen present stays present.
TEST(ViewStoreConcurrencyTest, MultiSegmentProbeWalksRacePutsAndReseals) {
  MaterializedView view("v", TestSchema());
  view.set_segment_frames(32);
  view.set_build_options({/*compress=*/true, /*bloom_bits_per_key=*/10});
  constexpr int64_t kFrames = 768;  // 24 segments
  std::atomic<int> writers_left{2};
  std::atomic<int64_t> errors{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      // Batches of 40 frames striding over a dozen segments; odd batches
      // go in descending order.
      for (int64_t start = w; start < 48; start += 2) {
        std::vector<ViewKey> keys;
        for (int64_t f = start; f < kFrames; f += 48) keys.push_back({f, -1});
        if (start % 4 >= 2) std::reverse(keys.begin(), keys.end());
        PutKeys(&view, keys);
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    while (writers_left.load() > 0) view.SealAllSegments();
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::vector<uint8_t> seen(kFrames, 0);
      ProbeResult res;
      // The last round starts after the writers finished and probes
      // every frame.
      bool last = false;
      for (int round = 0; !last; ++round) {
        last = writers_left.load() == 0;
        const int64_t stride = last ? 1 : 1 + (round + r) % 3;
        std::vector<ViewKey> probes;
        for (int64_t f = 0; f < kFrames; f += stride) {
          probes.push_back({f, -1});
          if (round % 4 == 3) probes.push_back({f, -1});  // repeated
        }
        if (round % 2 == 1) std::reverse(probes.begin(), probes.end());
        view.ProbeBatch(probes, nullptr, &res);
        if (res.outcomes.size() != probes.size() || res.runs.empty() ||
            res.runs.back().end != probes.size()) {
          errors.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < probes.size(); ++i) {
          const ProbeOutcome& oc = res.outcomes[i];
          const auto f = static_cast<size_t>(probes[i].frame);
          if (oc.status == ProbeStatus::kMiss) {
            if (seen[f] != 0) errors.fetch_add(1);
            continue;
          }
          seen[f] = 1;
          const std::vector<Row> want = RowsForKey(probes[i].frame);
          if (oc.rows_count != static_cast<int32_t>(want.size())) {
            errors.fetch_add(1);
            continue;
          }
          for (int32_t j = 0; j < oc.rows_count; ++j) {
            const Row got = res.segment(oc).RowAt(oc.rows_begin + j);
            if (got[0] != want[j][0] || got[1] != want[j][1]) {
              errors.fetch_add(1);
            }
          }
        }
      }
      for (int64_t f = 0; f < kFrames; ++f) {
        if (seen[static_cast<size_t>(f)] == 0) errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(view.num_keys(), kFrames);
}

// The lifecycle's plan-evict-seal pass racing footprint readers, as the
// HTTP scraper reads /views and /metrics while the executor thread runs
// EnforceBudget. Each round the driver thread puts keys into two views
// (fresh tails, and tails on sealed segments that reseal by merge), then
// EnforceBudget plans every stale segment, evicts the lowest-scored and
// seals the rest, while readers call TotalSizeBytes() and Segments()
// throughout. Every pass leaves the store sealed and within budget.
TEST(ViewStoreConcurrencyTest, FootprintReadersRacePlanEvictSeal) {
  ViewStore store;
  store.set_segment_frames(32);
  store.set_build_options({/*compress=*/true, /*bloom_bits_per_key=*/10});
  MaterializedView* const views[] = {store.GetOrCreate("A@v", TestSchema()),
                                     store.GetOrCreate("B@v", TestSchema())};
  catalog::Catalog catalog;
  udf::UdfManager manager;
  lifecycle::LifecycleOptions options;
  options.storage_budget_bytes = 8000;
  lifecycle::ViewLifecycleManager lifecycle(options, &store, &manager,
                                            &catalog);
  std::atomic<bool> done{false};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        if (store.TotalSizeBytes() < 0) errors.fetch_add(1);
        for (const MaterializedView* view : views) {
          for (const SegmentStats& seg : view->Segments()) {
            if (seg.bytes < 0 || seg.info.keys < 0) errors.fetch_add(1);
          }
        }
        reads.fetch_add(1);
      }
    });
  }
  int64_t evictions = 0;
  for (int round = 0; round < 40; ++round) {
    for (MaterializedView* view : views) {
      std::vector<ViewKey> keys;
      for (int64_t f = round; f < 640; f += 7) keys.push_back({f, -1});
      PutKeys(view, keys);
    }
    evictions += static_cast<int64_t>(lifecycle.EnforceBudget(round).size());
    for (const MaterializedView* view : views) {
      const ViewCompressionStats stats = view->CompressionStats();
      EXPECT_EQ(stats.segments, stats.sealed_segments) << "round " << round;
    }
    EXPECT_LE(store.TotalSizeBytes(), options.storage_budget_bytes)
        << "round " << round;
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(evictions, 0);
  EXPECT_GT(reads.load(), 0);
}

}  // namespace
}  // namespace eva::storage
