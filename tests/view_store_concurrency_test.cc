// Stress tests for the concurrency-safe view store (docs/RUNTIME.md):
// concurrent probes and inserts of overlapping key ranges must leave the
// store in exactly the state a serial run produces, and registry lookups
// must hand every thread the same view object.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/row.h"
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
          parallel.Put({frame, -1}, RowsForKey(frame));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  MaterializedView serial("v", TestSchema());
  for (int t = 0; t < kThreads; ++t) {
    for (int64_t k = 0; k < kSpan; ++k) {
      int64_t frame = static_cast<int64_t>(t) * kStride + k;
      serial.Put({frame, -1}, RowsForKey(frame));
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
      view.Put({frame, -1}, RowsForKey(frame));
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
      view->Put({frame, -1}, RowsForKey(frame));
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
      view.Put({frame, -1}, RowsForKey(frame));
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

}  // namespace
}  // namespace eva::storage
