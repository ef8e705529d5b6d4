// Differential property tests for the columnar probe path (PR 5):
//
//  1. FilterProgram (src/exec/vector_filter.h) must agree row-for-row with
//     the scalar Expr interpreter over randomized schemas, NULLs, and
//     predicate trees whenever it compiles and executes.
//  2. MaterializedView::Put / ProbeBatch must agree with a std::map
//     oracle, cell for cell and type for type, across segment
//     boundaries, re-appends, open tails, reseals, and eviction.
//  3. Zone-map skipping must be sound: every row of a segment reported
//     kHitSkipped must fail the residual predicate under scalar
//     evaluation.
//  4. The engine must produce identical row sets with the vectorized /
//     zone-skipping paths on or off.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/eva_engine.h"
#include "exec/vector_filter.h"
#include "expr/expr.h"
#include "storage/view_store.h"
#include "vbench/vbench.h"
#include "view_test_util.h"

namespace eva {
namespace {

using exec::FilterProgram;
using expr::CompareOp;
using expr::Expr;
using expr::ExprPtr;
using storage::MaterializedView;
using storage::ProbeResult;
using storage::ProbeStatus;
using storage::ViewKey;

// Deterministic 64-bit LCG — the test must not depend on wall clock or
// std::random_device.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
  double Unit() { return static_cast<double>(Next() % 10000) / 10000.0; }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

const char* kLabels[] = {"car", "bus", "truck", "person", "bike"};

Value RandomValue(Lcg& rng, DataType type) {
  switch (type) {
    case DataType::kBool:
      return Value(rng.Chance(0.5));
    case DataType::kInt64:
      return Value(rng.Below(20) - 5);
    case DataType::kDouble:
      return Value(rng.Unit() * 2.0 - 0.5);
    case DataType::kString:
      return Value(std::string(kLabels[rng.Below(5)]));
    default:
      return Value::Null();
  }
}

DataType RandomType(Lcg& rng) {
  switch (rng.Below(4)) {
    case 0:
      return DataType::kBool;
    case 1:
      return DataType::kInt64;
    case 2:
      return DataType::kDouble;
    default:
      return DataType::kString;
  }
}

// ---------------------------------------------------------------------------
// 1. FilterProgram vs per-row EvaluateBool
// ---------------------------------------------------------------------------

struct RandomTable {
  Schema schema;
  std::vector<DataType> col_types;  // nominal type per column
  Batch batch{Schema{}};
};

RandomTable MakeTable(Lcg& rng) {
  RandomTable t;
  int cols = 1 + static_cast<int>(rng.Below(5));
  for (int c = 0; c < cols; ++c) {
    DataType type = RandomType(rng);
    t.col_types.push_back(type);
    t.schema.AddField({"c" + std::to_string(c), type});
  }
  t.batch = Batch(t.schema);
  // Row counts straddle typical selection-vector block sizes.
  int rows = static_cast<int>(rng.Below(200));
  bool mixed_cols = rng.Chance(0.2);
  for (int r = 0; r < rows; ++r) {
    Row row;
    for (int c = 0; c < cols; ++c) {
      if (rng.Chance(0.15)) {
        row.push_back(Value::Null());
      } else if (mixed_cols && rng.Chance(0.1)) {
        // Type-unstable cell: exercises the kValue fallback and the
        // vectorized evaluator's runtime bail-out.
        row.push_back(RandomValue(rng, RandomType(rng)));
      } else {
        row.push_back(RandomValue(rng, t.col_types[static_cast<size_t>(c)]));
      }
    }
    t.batch.AddRow(std::move(row));
  }
  return t;
}

ExprPtr RandomPredicate(Lcg& rng, const RandomTable& t, int depth) {
  if (depth > 0 && rng.Chance(0.55)) {
    switch (rng.Below(3)) {
      case 0:
        return Expr::And(RandomPredicate(rng, t, depth - 1),
                         RandomPredicate(rng, t, depth - 1));
      case 1:
        return Expr::Or(RandomPredicate(rng, t, depth - 1),
                        RandomPredicate(rng, t, depth - 1));
      default:
        return Expr::Not(RandomPredicate(rng, t, depth - 1));
    }
  }
  auto op = static_cast<CompareOp>(rng.Below(6));
  size_t c = static_cast<size_t>(rng.Below(
      static_cast<int64_t>(t.col_types.size())));
  ExprPtr col = Expr::Column("c" + std::to_string(c));
  switch (rng.Below(6)) {
    case 0:  // column op literal (type usually matching, sometimes not)
    case 1: {
      DataType lt = rng.Chance(0.8) ? t.col_types[c] : RandomType(rng);
      Value lit = rng.Chance(0.1) ? Value::Null() : RandomValue(rng, lt);
      return Expr::Compare(op, col, Expr::Literal(std::move(lit)));
    }
    case 2: {  // literal op column (mirrored compile path)
      Value lit = RandomValue(rng, t.col_types[c]);
      return Expr::Compare(op, Expr::Literal(std::move(lit)), col);
    }
    case 3: {  // column op column
      size_t c2 = static_cast<size_t>(rng.Below(
          static_cast<int64_t>(t.col_types.size())));
      return Expr::Compare(op, col, Expr::Column("c" + std::to_string(c2)));
    }
    case 4:  // bare column in boolean position (sometimes a missing one,
             // which must make Compile bail)
      return rng.Chance(0.15) ? Expr::Column("no_such_col") : col;
    default:  // literal in boolean position; non-bool forces a compile bail
      if (rng.Chance(0.15)) return Expr::Literal(Value(int64_t{7}));
      return Expr::Literal(rng.Chance(0.2) ? Value::Null()
                                           : Value(rng.Chance(0.5)));
  }
}

TEST(VectorizedFilterProperty, MatchesScalarInterpreter) {
  Lcg rng(0x5eed0001);
  int compiled = 0, executed = 0, bailed = 0, runtime_errors = 0;
  for (int iter = 0; iter < 400; ++iter) {
    RandomTable t = MakeTable(rng);
    ExprPtr pred = RandomPredicate(rng, t, 3);
    auto program = FilterProgram::Compile(*pred, t.schema);
    if (!program.has_value()) {
      ++bailed;  // scalar path stays authoritative; nothing to compare
      continue;
    }
    ++compiled;
    std::vector<uint8_t> keep;
    Status s = program->Execute(t.batch, &keep);
    if (!s.ok()) {
      // A runtime bail (non-bool cell in a logical position) sends the
      // whole batch back to the interpreter; the verdict set is whatever
      // the interpreter says, so there is nothing vectorized to check.
      ++runtime_errors;
      continue;
    }
    ++executed;
    ASSERT_EQ(keep.size(), t.batch.num_rows());
    for (size_t r = 0; r < t.batch.num_rows(); ++r) {
      auto scalar = expr::EvaluateBool(*pred, t.schema, t.batch.rows()[r]);
      // Vectorized success implies the scalar interpreter cannot error on
      // any row: every cell the program touched was bool-or-null, and the
      // interpreter touches a subset (short-circuit).
      ASSERT_TRUE(scalar.ok())
          << "scalar error after vectorized success: "
          << scalar.status().ToString() << " pred=" << pred->ToString();
      EXPECT_EQ(keep[r] != 0, scalar.value())
          << "row " << r << " pred=" << pred->ToString();
    }
  }
  // The generator must actually exercise the vectorized path.
  EXPECT_GT(executed, 100);
  EXPECT_GT(bailed, 0);
  EXPECT_GT(runtime_errors, 0);
}

// ---------------------------------------------------------------------------
// 2. Put / ProbeBatch vs a std::map oracle through tails, seals, eviction
// ---------------------------------------------------------------------------

Schema DetectorValueSchema() {
  return Schema({{"obj", DataType::kInt64},
                 {"label", DataType::kString},
                 {"area", DataType::kDouble},
                 {"score", DataType::kDouble}});
}

std::vector<Row> RandomDetections(Lcg& rng) {
  std::vector<Row> rows;
  int n = static_cast<int>(rng.Below(4));  // 0 = presence-only frame
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(static_cast<int64_t>(i)),
                    Value(std::string(kLabels[rng.Below(5)])),
                    Value(rng.Unit() * 0.6), Value(0.5 + rng.Unit() * 0.5)});
  }
  return rows;
}

// RandomDetections with occasional NULL and off-type cells, so open tails
// take their all-null and mixed-type paths.
std::vector<Row> RandomMixedDetections(Lcg& rng) {
  std::vector<Row> rows = RandomDetections(rng);
  for (Row& row : rows) {
    for (Value& cell : row) {
      switch (rng.Below(40)) {
        case 0:
          cell = Value::Null();
          break;
        case 1:
          cell = Value(static_cast<int64_t>(rng.Below(3)));
          break;
        case 2:
          cell = Value(rng.Unit());
          break;
        default:
          break;
      }
    }
  }
  return rows;
}

TEST(VectorizedFilterProperty, ViewMatchesMapOracle) {
  Lcg rng(0x5eed0002);
  MaterializedView view("v", DetectorValueSchema());
  view.set_segment_frames(8);  // small segments: many boundaries
  std::map<ViewKey, std::vector<Row>> oracle;
  const int64_t max_frame = 96;
  int64_t reappends = 0, evicted_keys = 0;
  for (int round = 0; round < 60; ++round) {
    // Appends (some re-appends of present keys) into open tails.
    int puts = 1 + static_cast<int>(rng.Below(16));
    for (int p = 0; p < puts; ++p) {
      ViewKey key{rng.Below(max_frame), -1};
      std::vector<Row> rows = RandomMixedDetections(rng);
      bool inserted = view.Put(key, rows,
                               static_cast<uint64_t>(round * 100 + p), round);
      ASSERT_EQ(inserted, oracle.emplace(key, rows).second)
          << "frame " << key.frame;
      if (!inserted) ++reappends;
    }
    switch (rng.Below(4)) {
      case 0:
        view.SealAllSegments();
        break;
      case 1: {
        // Evict a segment: the view and the oracle drop the same keys.
        int64_t seg = rng.Below(max_frame / 8);
        int64_t keys = 0, rows = 0;
        for (auto it = oracle.lower_bound({seg * 8, INT64_MIN});
             it != oracle.end() && it->first.frame < seg * 8 + 8;) {
          ++keys;
          rows += static_cast<int64_t>(it->second.size());
          it = oracle.erase(it);
        }
        storage::EvictedSegment ev = view.EvictSegment(seg);
        ASSERT_EQ(ev.keys, keys);
        ASSERT_EQ(ev.rows, rows);
        evicted_keys += keys;
        break;
      }
      default:
        break;  // leave tails open across the probe
    }
    int64_t oracle_rows = 0;
    for (const auto& [key, rows] : oracle) {
      oracle_rows += static_cast<int64_t>(rows.size());
    }
    ASSERT_EQ(view.num_keys(), static_cast<int64_t>(oracle.size()));
    ASSERT_EQ(view.num_rows(), oracle_rows);
    std::vector<ViewKey> keys;
    int64_t start = rng.Below(max_frame);
    for (int64_t f = start; f < start + 24; ++f) {
      keys.push_back(ViewKey{f, -1});  // some present, some missing
    }
    ProbeResult res;
    view.ProbeBatch(keys, nullptr, &res);
    ASSERT_EQ(res.outcomes.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      auto expected = oracle.find(keys[i]);
      const storage::ProbeOutcome& oc = res.outcomes[i];
      ASSERT_EQ(view.Contains(keys[i]), expected != oracle.end());
      if (expected == oracle.end()) {
        EXPECT_EQ(oc.status, ProbeStatus::kMiss) << "frame " << keys[i].frame;
        continue;
      }
      ASSERT_EQ(oc.status, ProbeStatus::kHit) << "frame " << keys[i].frame;
      ASSERT_EQ(static_cast<size_t>(oc.rows_count), expected->second.size());
      if (oc.rows_count > 0) {
        ASSERT_GE(oc.seg_index, 0);
      }
      for (int32_t r = 0; r < oc.rows_count; ++r) {
        Row got = res.segment(oc).RowAt(oc.rows_begin + r);
        const Row& want = expected->second[static_cast<size_t>(r)];
        ASSERT_EQ(got.size(), want.size());
        for (size_t c = 0; c < want.size(); ++c) {
          EXPECT_TRUE(got[c] == want[c])
              << got[c].ToString() << " vs " << want[c].ToString();
          EXPECT_EQ(got[c].type(), want[c].type())
              << "columnar reconstruction must not widen types";
        }
      }
    }
  }
  EXPECT_GT(reappends, 0);
  EXPECT_GT(evicted_keys, 0);
}

// ---------------------------------------------------------------------------
// 3. Zone-map skipping soundness
// ---------------------------------------------------------------------------

TEST(VectorizedFilterProperty, ZoneSkippingIsSound) {
  Lcg rng(0x5eed0003);
  Schema value_schema = DetectorValueSchema();
  // Scalar re-check schema: value columns plus the synthetic key columns
  // the zone check can reason about.
  Schema check_schema = value_schema;
  check_schema.AddField({"id", DataType::kInt64});
  MaterializedView view("v", value_schema);
  view.set_segment_frames(8);
  for (int64_t f = 0; f < 96; ++f) {
    view.Put(ViewKey{f, -1}, RandomDetections(rng),
             static_cast<uint64_t>(f), 0);
  }
  std::vector<ViewKey> keys;
  for (int64_t f = 0; f < 96; ++f) keys.push_back(ViewKey{f, -1});

  // Well-typed residual predicates over value + key columns, including
  // always-false ones so skipping demonstrably fires.
  auto gen_leaf = [&](Lcg& r) -> ExprPtr {
    auto op = static_cast<CompareOp>(r.Below(6));
    switch (r.Below(5)) {
      case 0:
        return Expr::Compare(op, Expr::Column("area"),
                             Expr::Literal(Value(r.Unit() * 1.2 - 0.3)));
      case 1:
        return Expr::Compare(op, Expr::Column("score"),
                             Expr::Literal(Value(r.Unit())));
      case 2:
        return Expr::Compare(
            op, Expr::Column("label"),
            Expr::Literal(Value(std::string(kLabels[r.Below(5)]))));
      case 3:
        return Expr::Compare(op, Expr::Column("id"),
                             Expr::Literal(Value(r.Below(120))));
      default:
        return Expr::Compare(op, Expr::Column("obj"),
                             Expr::Literal(Value(r.Below(6) - 1)));
    }
  };
  int64_t total_skipped = 0;
  for (int iter = 0; iter < 200; ++iter) {
    ExprPtr pred = gen_leaf(rng);
    if (rng.Chance(0.5)) {
      pred = rng.Chance(0.5) ? Expr::And(pred, gen_leaf(rng))
                             : Expr::Or(pred, gen_leaf(rng));
    }
    ProbeResult res;
    view.ProbeBatch(
        keys,
        [&](const storage::ColumnarSegment& seg) {
          return exec::ZoneCanMatch(*pred, seg, value_schema);
        },
        &res);
    total_skipped += res.segments_skipped;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (res.outcomes[i].status != ProbeStatus::kHitSkipped) continue;
      // Soundness: every stored row of a skipped hit fails the residual.
      auto rows = storage::ReadKey(view, keys[i]);
      ASSERT_TRUE(rows.has_value());
      for (const Row& vr : *rows) {
        Row check = vr;
        check.push_back(Value(keys[i].frame));  // "id"
        auto verdict = expr::EvaluateBool(*pred, check_schema, check);
        ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
        EXPECT_FALSE(verdict.value())
            << "skipped a row satisfying " << pred->ToString();
      }
    }
  }
  EXPECT_GT(total_skipped, 0) << "generator never exercised skipping";

  // Deterministic corner cases: an unsatisfiable residual skips every
  // segment; a tautology skips none and matches point lookups.
  ExprPtr never = Expr::Compare(CompareOp::kGt, Expr::Column("area"),
                                Expr::Literal(Value(100.0)));
  ProbeResult res;
  view.ProbeBatch(
      keys,
      [&](const storage::ColumnarSegment& seg) {
        return exec::ZoneCanMatch(*never, seg, value_schema);
      },
      &res);
  EXPECT_EQ(res.segments_skipped, res.segments_probed);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_NE(res.outcomes[i].status, ProbeStatus::kHit);
  }
  ExprPtr always = Expr::Compare(CompareOp::kGe, Expr::Column("area"),
                                 Expr::Literal(Value(-100.0)));
  view.ProbeBatch(
      keys,
      [&](const storage::ColumnarSegment& seg) {
        return exec::ZoneCanMatch(*always, seg, value_schema);
      },
      &res);
  EXPECT_EQ(res.segments_skipped, 0);
}

// ---------------------------------------------------------------------------
// 4. Engine-level differential: flags off/on
// ---------------------------------------------------------------------------

struct EngineTrace {
  std::vector<std::string> batches;
  std::vector<double> total_ms;
};

EngineTrace RunEngineSession(bool vectorized, bool zones) {
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  video.num_frames = 300;  // trimmed for test runtime
  std::vector<std::string> queries =
      vbench::VbenchHigh(video.name, video.num_frames);
  engine::EngineOptions options;
  options.observability = false;
  options.vectorized_filter = vectorized;
  options.zone_map_skipping = zones;
  auto engine_or = vbench::MakeEngine(options, video);
  EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  std::unique_ptr<engine::EvaEngine> engine = engine_or.MoveValue();
  EngineTrace trace;
  for (const std::string& sql : queries) {
    auto r = engine->Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) continue;
    trace.batches.push_back(r.value().batch.ToString(1 << 20));
    trace.total_ms.push_back(r.value().metrics.TotalMs());
  }
  return trace;
}

TEST(VectorizedFilterProperty, EngineResultsInvariantUnderFlags) {
  EngineTrace base = RunEngineSession(true, true);
  EngineTrace scalar = RunEngineSession(false, false);
  EngineTrace no_zones = RunEngineSession(true, false);
  ASSERT_EQ(base.batches.size(), scalar.batches.size());
  ASSERT_EQ(base.batches.size(), no_zones.batches.size());
  for (size_t q = 0; q < base.batches.size(); ++q) {
    // Rows are identical whatever the flags.
    EXPECT_EQ(base.batches[q], scalar.batches[q]) << "query " << q;
    EXPECT_EQ(base.batches[q], no_zones.batches[q]) << "query " << q;
    // The vectorized evaluator itself never changes simulated costs.
    EXPECT_EQ(no_zones.total_ms[q], scalar.total_ms[q]) << "query " << q;
  }
}

}  // namespace
}  // namespace eva
