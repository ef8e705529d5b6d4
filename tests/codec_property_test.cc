// Differential property tests for the seal-time segment codecs
// (docs/STORAGE.md): every encoding x column type x adversarial value
// distribution must reconstruct the exact stored Values and answer
// ProbeBatch / Contains probes identically to an uncompressed view, and
// a reseal of sealed + open tail must equal a one-shot seal.
// Deterministic LCG-driven generation — failures replay from the printed
// seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/eva_engine.h"
#include "storage/column_segment.h"
#include "storage/view_persistence.h"
#include "storage/view_store.h"
#include "vbench/vbench.h"
#include "view_test_util.h"

namespace eva::storage {
namespace {

// Deterministic 64-bit LCG (MMIX constants); every test derives its data
// from an explicit seed so a failure is reproducible from the log alone.
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
  }
  int64_t NextInt(int64_t lo, int64_t hi) {  // [lo, hi)
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo));
  }
  double NextDouble() {  // full-entropy mantissa in [0, 1)
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
};

// Bit-identical Value equality: Compare() orders numerically, but codecs
// must preserve the exact payload — including -0.0 and NaN bit patterns.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_null()) return true;
  if (a.type() == DataType::kDouble) {
    uint64_t ab = 0, bb = 0;
    double ad = a.AsDouble(), bd = b.AsDouble();
    std::memcpy(&ab, &ad, sizeof(ab));
    std::memcpy(&bb, &bd, sizeof(bb));
    return ab == bb;
  }
  return a == b;
}

// ---------------------------------------------------------------------------
// Layer 1: column codec differential — plain lane vs codec lane.
// ---------------------------------------------------------------------------

// The seal's codec step for one plain column: PlanColumn's choice, applied.
void Compress(ColumnVec* col) { EncodeColumn(PlanColumn(*col).codec, col); }

ColumnVec PlainInt64(const std::vector<int64_t>& vals,
                     const std::vector<bool>& nulls) {
  ColumnVec c;
  c.enc_ = ColumnVec::Enc::kInt64;
  c.n_ = vals.size();
  c.i64_ = vals;
  for (size_t i = 0; i < nulls.size(); ++i) {
    if (!nulls[i]) continue;
    if (c.null_bits_.empty()) c.null_bits_.resize((vals.size() + 63) / 64, 0);
    c.null_bits_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  return c;
}

void ExpectColumnRoundTrip(const ColumnVec& plain) {
  ColumnVec packed = plain;
  Compress(&packed);
  ASSERT_EQ(packed.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ASSERT_TRUE(SameValue(packed.At(i), plain.At(i)))
        << "row " << i << " codec=" << static_cast<int>(packed.codec())
        << ": " << packed.At(i).ToString() << " vs "
        << plain.At(i).ToString();
  }
  // The pick must never lose: the encoded footprint is at most the plain
  // one (kPlain is always a candidate).
  EXPECT_LE(packed.EncodedBytes(), plain.EncodedBytes());
}

TEST(CodecColumnTest, Int64Distributions) {
  Lcg rng(0xC0DEC1);
  struct Case {
    const char* name;
    std::vector<int64_t> vals;
    ColumnVec::Codec expect;
  };
  std::vector<Case> cases;
  // Constant: width-0 frame-of-reference (8 bytes total) beats even RLE.
  cases.push_back({"constant", std::vector<int64_t>(500, 42),
                   ColumnVec::Codec::kFor});
  // Sorted small range: FOR packs to a few bits.
  {
    std::vector<int64_t> v;
    for (int i = 0; i < 500; ++i) v.push_back(1000000 + i);
    cases.push_back({"sorted", v, ColumnVec::Codec::kFor});
  }
  // Alternating two values: numeric dictionary (1-bit indexes).
  {
    std::vector<int64_t> v;
    for (int i = 0; i < 500; ++i) v.push_back(i % 2 == 0 ? INT64_MIN : 7);
    cases.push_back({"alternating", v, ColumnVec::Codec::kDictNum});
  }
  // Heavy tail: mostly tiny, rare huge outliers — full-width FOR loses,
  // the dictionary of few distinct values wins.
  {
    std::vector<int64_t> v;
    for (int i = 0; i < 500; ++i) {
      v.push_back(rng.Next() % 100 == 0 ? INT64_MAX - 1
                                        : rng.NextInt(0, 4));
    }
    cases.push_back({"heavy_tail", v, ColumnVec::Codec::kDictNum});
  }
  // Single row: FOR ties plain at 8 bytes; ties keep the plain lane.
  cases.push_back({"single", {123}, ColumnVec::Codec::kPlain});
  // High cardinality full-entropy: nothing helps, plain must survive.
  {
    std::vector<int64_t> v;
    for (int i = 0; i < 500; ++i) v.push_back(static_cast<int64_t>(rng.Next()));
    cases.push_back({"entropy", v, ColumnVec::Codec::kPlain});
  }
  for (const Case& c : cases) {
    ColumnVec plain = PlainInt64(c.vals, {});
    ColumnVec packed = plain;
    Compress(&packed);
    EXPECT_EQ(packed.codec(), c.expect) << c.name;
    ExpectColumnRoundTrip(plain);
  }
}

TEST(CodecColumnTest, NullsNeverBreakEncodingChoiceOrValues) {
  Lcg rng(0xC0DEC2);
  for (double null_frac : {0.0, 0.05, 0.5, 1.0}) {
    std::vector<int64_t> vals;
    std::vector<bool> nulls;
    for (int i = 0; i < 400; ++i) {
      bool is_null = rng.NextDouble() < null_frac;
      nulls.push_back(is_null);
      vals.push_back(is_null ? 0 : 5000 + i);  // sorted when present
    }
    ExpectColumnRoundTrip(PlainInt64(vals, nulls));
  }
  // All-null column: a single run, nulls read back as nulls.
  ColumnVec all_null = PlainInt64(std::vector<int64_t>(64, 0),
                                  std::vector<bool>(64, true));
  ColumnVec packed = all_null;
  Compress(&packed);
  for (size_t i = 0; i < 64; ++i) EXPECT_TRUE(packed.At(i).is_null());
}

TEST(CodecColumnTest, DoubleBitPatternsSurvive) {
  // -0.0, NaN payloads, denormals, infinities: the numeric dictionary and
  // RLE compare bit patterns, never doubles, so every payload round-trips.
  std::vector<double> specials = {0.0,
                                  -0.0,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::denorm_min(),
                                  1.5};
  ColumnVec plain;
  plain.enc_ = ColumnVec::Enc::kDouble;
  for (int rep = 0; rep < 40; ++rep) {
    for (double d : specials) plain.f64_.push_back(d);
  }
  plain.n_ = plain.f64_.size();
  ColumnVec packed = plain;
  Compress(&packed);
  EXPECT_NE(packed.codec(), ColumnVec::Codec::kPlain);
  for (size_t i = 0; i < plain.n_; ++i) {
    ASSERT_TRUE(SameValue(packed.At(i), plain.At(i))) << "row " << i;
  }
}

TEST(CodecColumnTest, EntropyDoublesExpPack) {
  // Full-entropy mantissas defeat RLE and the value dictionary, but the
  // 12-bit sign/exponent prefix takes a handful of values, so the prefix
  // dictionary + packed-mantissa codec must win and reconstruct every bit.
  Lcg rng(0xC0DEC5);
  std::vector<double> dists[3];
  for (int i = 0; i < 600; ++i) {
    double u = rng.NextDouble();
    dists[0].push_back(0.5 + 0.5 * u);          // one exponent
    dists[1].push_back(u * u * 0.6);            // geometric exponent spread
    dists[2].push_back((u - 0.5) * 1e12 * u);   // signed, wide magnitudes
  }
  for (const std::vector<double>& vals : dists) {
    ColumnVec plain;
    plain.enc_ = ColumnVec::Enc::kDouble;
    plain.f64_ = vals;
    plain.n_ = vals.size();
    ColumnVec packed = plain;
    Compress(&packed);
    EXPECT_EQ(packed.codec(), ColumnVec::Codec::kExpPack);
    EXPECT_LT(packed.EncodedBytes(), plain.EncodedBytes());
    for (size_t i = 0; i < plain.n_; ++i) {
      ASSERT_TRUE(SameValue(packed.At(i), plain.At(i))) << "row " << i;
    }
  }
  // NaN payloads and nulls mixed into an entropy lane still round-trip.
  ColumnVec noisy;
  noisy.enc_ = ColumnVec::Enc::kDouble;
  for (int i = 0; i < 400; ++i) {
    noisy.f64_.push_back(i % 97 == 0
                             ? std::numeric_limits<double>::quiet_NaN()
                             : rng.NextDouble());
  }
  noisy.n_ = noisy.f64_.size();
  noisy.null_bits_.resize((noisy.n_ + 63) / 64, 0);
  for (size_t i = 0; i < noisy.n_; i += 13) {
    noisy.null_bits_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  ColumnVec noisy_packed = noisy;
  Compress(&noisy_packed);
  for (size_t i = 0; i < noisy.n_; ++i) {
    ASSERT_TRUE(SameValue(noisy_packed.At(i), noisy.At(i))) << "row " << i;
  }
}

TEST(CodecColumnTest, BoolColumnsBitPack) {
  for (int pattern = 0; pattern < 3; ++pattern) {
    ColumnVec plain;
    plain.enc_ = ColumnVec::Enc::kBool;
    for (int i = 0; i < 300; ++i) {
      bool v = pattern == 0   ? true              // constant → RLE
               : pattern == 1 ? (i % 2 == 0)      // alternating → bitpack
                              : ((i * 2654435761U) % 3 == 0);
      plain.b8_.push_back(v ? 1 : 0);
    }
    plain.n_ = plain.b8_.size();
    ColumnVec packed = plain;
    Compress(&packed);
    EXPECT_NE(packed.codec(), ColumnVec::Codec::kPlain) << pattern;
    for (size_t i = 0; i < plain.n_; ++i) {
      ASSERT_TRUE(SameValue(packed.At(i), plain.At(i)));
    }
  }
}

// Oracle for the numeric-dictionary search: PlanColumn's pick for
// Int64 / Double lanes recomputed with the plain std::unordered_map
// dictionary, no early exit. Codec, dictionary order and lanes must match.
template <typename T>
bool ReferenceNumDict(const std::vector<T>& v, std::vector<T>* dict,
                      std::vector<uint64_t>* indexes) {
  std::unordered_map<T, uint64_t> seen;
  for (const T& x : v) {
    auto [it, inserted] = seen.emplace(x, dict->size());
    if (inserted) {
      dict->push_back(x);
      if (dict->size() > 4096) return false;
    }
    indexes->push_back(it->second);
  }
  return true;
}

struct ReferencePick {
  ColumnVec::Codec codec = ColumnVec::Codec::kPlain;
  std::vector<uint64_t> dict;  // kDictNum values / kExpPack prefixes (bits)
  std::vector<uint64_t> lane;  // kDictNum indexes / kExpPack packed cells
};

ReferencePick ReferenceCompress(const ColumnVec& col) {
  const size_t n = col.n_;
  auto bits_at = [&col](size_t i) -> uint64_t {
    if (col.enc_ == ColumnVec::Enc::kInt64) {
      return static_cast<uint64_t>(col.i64_[i]);
    }
    uint64_t b;
    std::memcpy(&b, &col.f64_[i], 8);
    return b;
  };
  // Nulls carry the previous non-null cell (leading nulls the first one).
  std::vector<uint64_t> eff(n);
  uint64_t fill = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!col.NullAt(i)) {
      fill = bits_at(i);
      break;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!col.NullAt(i)) fill = bits_at(i);
    eff[i] = fill;
  }
  size_t runs = n == 0 ? 0 : 1;
  for (size_t i = 1; i < n; ++i) runs += eff[i] != eff[i - 1] ? 1 : 0;
  ReferencePick pick;
  std::vector<uint64_t> dict, idx;
  const bool dict_ok = ReferenceNumDict(eff, &dict, &idx);
  const int dict_w = BitPackedVec::WidthFor(dict.size() - 1);
  const size_t cost_dict =
      dict_ok ? dict.size() * 8 + BitPackedVec::PackedBytes(n, dict_w)
              : ~size_t{0};
  const size_t cost_plain = 8 * n;
  const size_t cost_rle = runs * 12;
  auto take_dict = [&] {
    pick.codec = ColumnVec::Codec::kDictNum;
    pick.dict = dict;
    pick.lane = idx;
  };
  if (col.enc_ == ColumnVec::Enc::kInt64) {
    int64_t mn = static_cast<int64_t>(eff[0]), mx = mn;
    for (uint64_t b : eff) {
      mn = std::min(mn, static_cast<int64_t>(b));
      mx = std::max(mx, static_cast<int64_t>(b));
    }
    const size_t cost_for =
        BitPackedVec::PackedBytes(
            n, BitPackedVec::WidthFor(static_cast<uint64_t>(mx) -
                                      static_cast<uint64_t>(mn))) +
        8;
    const size_t best = std::min({cost_plain, cost_for, cost_rle, cost_dict});
    if (best == cost_plain) return pick;
    if (best == cost_for) {
      pick.codec = ColumnVec::Codec::kFor;
    } else if (best == cost_rle) {
      pick.codec = ColumnVec::Codec::kRle;
    } else {
      take_dict();
    }
    return pick;
  }
  std::vector<uint64_t> prefixes(n), exp_dict, exp_idx;
  for (size_t i = 0; i < n; ++i) prefixes[i] = eff[i] >> 52;
  ReferenceNumDict(prefixes, &exp_dict, &exp_idx);
  const int exp_w = 52 + BitPackedVec::WidthFor(exp_dict.size() - 1);
  const size_t cost_exp =
      exp_dict.size() * 8 + BitPackedVec::PackedBytes(n, exp_w);
  const size_t best = std::min({cost_plain, cost_rle, cost_dict, cost_exp});
  if (best == cost_plain) return pick;
  if (best == cost_rle) {
    pick.codec = ColumnVec::Codec::kRle;
  } else if (best == cost_dict) {
    take_dict();
  } else {
    pick.codec = ColumnVec::Codec::kExpPack;
    pick.dict = exp_dict;
    for (size_t i = 0; i < n; ++i) {
      pick.lane.push_back((exp_idx[i] << 52) |
                          (eff[i] & ((uint64_t{1} << 52) - 1)));
    }
  }
  return pick;
}

void ExpectMatchesReference(const ColumnVec& plain) {
  const ReferencePick want = ReferenceCompress(plain);
  ColumnVec got = plain;
  Compress(&got);
  ASSERT_EQ(got.codec(), want.codec);
  for (size_t i = 0; i < plain.size(); ++i) {
    ASSERT_TRUE(SameValue(got.At(i), plain.At(i))) << "row " << i;
  }
  if (want.codec == ColumnVec::Codec::kDictNum ||
      want.codec == ColumnVec::Codec::kExpPack) {
    std::vector<uint64_t> dict;
    if (got.codec() == ColumnVec::Codec::kExpPack ||
        got.enc() == ColumnVec::Enc::kInt64) {
      for (int64_t v : got.i64_) dict.push_back(static_cast<uint64_t>(v));
    } else {
      for (double d : got.f64_) {
        uint64_t b;
        std::memcpy(&b, &d, 8);
        dict.push_back(b);
      }
    }
    ASSERT_EQ(dict, want.dict);
    ASSERT_EQ(got.packed_.size(), want.lane.size());
    for (size_t i = 0; i < want.lane.size(); ++i) {
      ASSERT_EQ(got.packed_.Get(i), want.lane[i]) << "row " << i;
    }
  }
}

// `distinct` values over n rows: each value once (in a shuffled order),
// then random repeats; with nulls, some repeat rows become nulls, so the
// effective lane keeps exactly `distinct` values.
ColumnVec DictLane(ColumnVec::Enc enc, const std::vector<uint64_t>& values,
                   size_t n, bool nulls, Lcg* rng) {
  std::vector<size_t> pick(values.size());
  for (size_t i = 0; i < pick.size(); ++i) pick[i] = i;
  for (size_t i = pick.size(); i > 1; --i) {
    std::swap(pick[i - 1], pick[(rng->Next() >> 33) % i]);
  }
  while (pick.size() < n) {
    pick.push_back((rng->Next() >> 33) % values.size());
  }
  ColumnVec col;
  col.enc_ = enc;
  col.n_ = n;
  for (size_t i = 0; i < n; ++i) {
    const bool null =
        nulls && i >= values.size() && (rng->Next() >> 33) % 3 == 0;
    const uint64_t b = null ? 0 : values[pick[i]];
    if (enc == ColumnVec::Enc::kInt64) {
      col.i64_.push_back(static_cast<int64_t>(b));
    } else {
      double d;
      std::memcpy(&d, &b, 8);
      col.f64_.push_back(d);
    }
    if (null) {
      if (col.null_bits_.empty()) col.null_bits_.assign((n + 63) / 64, 0);
      col.null_bits_[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  return col;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, 8);
  return b;
}

TEST(CodecColumnTest, NumDictMatchesUnorderedMapOracle) {
  Lcg rng(0xD1C7);
  using Enc = ColumnVec::Enc;
  // Cardinality sweep, across the 4096-value cap, over narrow and wide
  // integers and over one-exponent and many-exponent doubles.
  for (size_t distinct : {1, 2, 3, 47, 300, 4095, 4096, 4097}) {
    for (size_t n : {size_t{64}, size_t{500}, size_t{20000}}) {
      if (distinct > n) continue;
      std::vector<uint64_t> narrow, wide, one_exp, many_exp;
      for (size_t k = 0; k < distinct; ++k) {
        narrow.push_back(1000 + 3 * k);
        wide.push_back(rng.Next());
        one_exp.push_back(Bits(1.0 + static_cast<double>(k) / 8192.0));
        many_exp.push_back(Bits((rng.NextDouble() - 0.5) *
                                std::ldexp(1.0, static_cast<int>(k % 40))));
      }
      for (bool nulls : {false, true}) {
        SCOPED_TRACE("distinct=" + std::to_string(distinct) +
                     " n=" + std::to_string(n) +
                     " nulls=" + std::to_string(nulls));
        ExpectMatchesReference(DictLane(Enc::kInt64, narrow, n, nulls, &rng));
        ExpectMatchesReference(DictLane(Enc::kInt64, wide, n, nulls, &rng));
        ExpectMatchesReference(DictLane(Enc::kDouble, one_exp, n, nulls, &rng));
        ExpectMatchesReference(
            DictLane(Enc::kDouble, many_exp, n, nulls, &rng));
      }
    }
  }
  // The cap itself: 4096 distinct wide values still take the dictionary,
  // 4097 cannot.
  {
    std::vector<uint64_t> wide;
    for (int k = 0; k < 4097; ++k) wide.push_back(rng.Next());
    ColumnVec at_cap = DictLane(Enc::kInt64, {wide.begin(), wide.end() - 1},
                                20000, false, &rng);
    Compress(&at_cap);
    EXPECT_EQ(at_cap.codec(), ColumnVec::Codec::kDictNum);
    ColumnVec past_cap = DictLane(Enc::kInt64, wide, 20000, false, &rng);
    Compress(&past_cap);
    EXPECT_NE(past_cap.codec(), ColumnVec::Codec::kDictNum);
  }
  // Exact cost ties, which the early exit must leave to the earlier codec.
  for (bool nulls : {false, true}) {
    SCOPED_TRACE("nulls=" + std::to_string(nulls));
    // dict = RLE = 24 B over 64 rows in two runs of far-apart values:
    // RLE wins the tie.
    for (Enc enc : {Enc::kInt64, Enc::kDouble}) {
      ColumnVec col;
      col.enc_ = enc;
      col.n_ = 64;
      for (size_t i = 0; i < 64; ++i) {
        // Null rows (inside both runs) hold 0 in the lane, as appends do.
        const bool null = nulls && (i == 5 || i == 40);
        if (null) {
          if (col.null_bits_.empty()) col.null_bits_.assign(1, 0);
          col.null_bits_[0] |= uint64_t{1} << i;
        }
        if (enc == Enc::kInt64) {
          col.i64_.push_back(null ? 0 : i < 32 ? INT64_MIN / 2 : INT64_MAX / 2);
        } else {
          col.f64_.push_back(null ? 0 : i < 32 ? -1e300 : 3e-300);
        }
      }
      ExpectMatchesReference(col);
      Compress(&col);
      EXPECT_EQ(col.codec(), ColumnVec::Codec::kRle);
    }
    // dict = exp = 424 B: 64 one-exponent doubles over 47 distinct values
    // (8 * 47 + 64 * 6 / 8 vs 8 + 64 * 52 / 8). The dictionary wins the
    // tie; one more distinct value hands the lane to the prefix codec.
    for (size_t distinct : {46, 47, 48}) {
      std::vector<uint64_t> vals;
      for (size_t k = 0; k < distinct; ++k) {
        vals.push_back(Bits(1.0 + static_cast<double>(k) / 64.0));
      }
      ColumnVec col = DictLane(Enc::kDouble, vals, 64, nulls, &rng);
      ExpectMatchesReference(col);
      Compress(&col);
      EXPECT_EQ(col.codec(), distinct <= 47 ? ColumnVec::Codec::kDictNum
                                            : ColumnVec::Codec::kExpPack)
          << distinct;
    }
  }
}

// ---------------------------------------------------------------------------
// Layer 2: whole-view differential — compressed vs uncompressed stores
// built from identical Puts must agree on every probe surface.
// ---------------------------------------------------------------------------

struct ViewPair {
  MaterializedView plain;
  MaterializedView packed;
  ViewPair(const Schema& schema, int64_t segment_frames)
      : plain("t@v", schema), packed("t@v", schema) {
    plain.set_segment_frames(segment_frames);
    packed.set_segment_frames(segment_frames);
    packed.set_build_options({/*compress=*/true});
  }
  void Put(const ViewKey& key, const std::vector<Row>& rows) {
    PutRows(&plain, key, rows);
    PutRows(&packed, key, rows);
  }
};

void ExpectProbesAgree(const ViewPair& pair,
                       const std::vector<ViewKey>& probes) {
  ProbeResult rp, rc;
  pair.plain.ProbeBatch(probes, &rp);
  pair.packed.ProbeBatch(probes, &rc);
  ASSERT_EQ(rp.outcomes.size(), rc.outcomes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    const ProbeOutcome& op = rp.outcomes[i];
    const ProbeOutcome& oc = rc.outcomes[i];
    ASSERT_EQ(op.status, oc.status)
        << "key (" << probes[i].frame << ", " << probes[i].obj << ")";
    ASSERT_EQ(op.rows_count, oc.rows_count);
    if (op.status != ProbeStatus::kHit) continue;
    for (int32_t r = 0; r < op.rows_count; ++r) {
      Row rowp = rp.segment(op).RowAt(op.rows_begin + r);
      Row rowc = rc.segment(oc).RowAt(oc.rows_begin + r);
      ASSERT_EQ(rowp.size(), rowc.size());
      for (size_t cidx = 0; cidx < rowp.size(); ++cidx) {
        ASSERT_TRUE(SameValue(rowp[cidx], rowc[cidx]))
            << "key (" << probes[i].frame << ", " << probes[i].obj
            << ") row " << r << " col " << cidx << ": "
            << rowc[cidx].ToString() << " vs " << rowp[cidx].ToString();
      }
    }
  }
  // The presence check (packed key index on one side, plain key index on
  // the other) agrees with the probe outcome on both sides.
  for (size_t i = 0; i < probes.size(); ++i) {
    const bool present = rp.outcomes[i].status != ProbeStatus::kMiss;
    EXPECT_EQ(pair.plain.Contains(probes[i]), present);
    EXPECT_EQ(pair.packed.Contains(probes[i]), present);
  }
}

std::vector<ViewKey> ProbeMix(int64_t frame_end, Lcg* rng) {
  std::vector<ViewKey> probes;
  for (int64_t f = 0; f < frame_end * 2; ++f) {
    probes.push_back({f, -1});  // half land past the stored range
  }
  for (int i = 0; i < 200; ++i) {  // scattered object-level misses
    probes.push_back({rng->NextInt(0, frame_end), rng->NextInt(0, 8)});
  }
  return probes;
}

TEST(CodecViewDifferentialTest, AdversarialDistributionsAllTypes) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString}});
  // Per-distribution generators for a row at frame f.
  enum Dist {
    kConstant = 0,
    kSorted,
    kAlternating,
    kHeavyTail,
    kAllNull,
    kEntropy,
    kNumDists
  };
  for (int dist = 0; dist < kNumDists; ++dist) {
    Lcg rng(0xD15D00 + static_cast<uint64_t>(dist));
    ViewPair pair(schema, /*segment_frames=*/64);
    const int64_t frames = 300;
    for (int64_t f = 0; f < frames; ++f) {
      Row row;
      switch (dist) {
        case kConstant:
          row = {Value(int64_t{7}), Value(2.5), Value(true), Value("car")};
          break;
        case kSorted:
          row = {Value(f), Value(static_cast<double>(f) * 0.5),
                 Value(f % 2 == 0), Value("label_" + std::to_string(f / 50))};
          break;
        case kAlternating:
          row = {Value(f % 2 == 0 ? int64_t{-1} : int64_t{1}),
                 Value(f % 2 == 0 ? -0.0 : 0.0), Value(f % 2 == 0),
                 Value(f % 2 == 0 ? "a" : "b")};
          break;
        case kHeavyTail:
          row = {Value(rng.Next() % 50 == 0 ? INT64_MAX / 2
                                            : rng.NextInt(0, 3)),
                 Value(rng.Next() % 50 == 0 ? 1e300 : 0.25),
                 Value(rng.Next() % 50 == 0), Value("x")};
          break;
        case kAllNull:
          row = {Value::Null(), Value::Null(), Value::Null(), Value::Null()};
          break;
        case kEntropy:
        default:
          row = {Value(static_cast<int64_t>(rng.Next())),
                 Value(rng.NextDouble()), Value((rng.Next() & 1) != 0),
                 Value("s" + std::to_string(rng.Next()))};
          break;
      }
      // Some frames carry several rows, some zero (presence-only keys).
      std::vector<Row> rows;
      int nrows = static_cast<int>(rng.Next() % 3);
      for (int r = 0; r < nrows; ++r) rows.push_back(row);
      pair.Put({f, -1}, rows);
    }
    Lcg probe_rng(0x9E3779B9);
    ExpectProbesAgree(pair, ProbeMix(frames, &probe_rng));
  }
}

TEST(CodecViewDifferentialTest, SingleRowAndSparseKeys) {
  Schema schema({{"v", DataType::kInt64}});
  ViewPair pair(schema, 64);
  pair.Put({17, -1}, {{Value(int64_t{99})}});   // a single stored key
  pair.Put({4099, 3}, {{Value(int64_t{-5})}});  // far-away object key
  Lcg rng(0x5EED);
  ExpectProbesAgree(pair, ProbeMix(4200, &rng));
}

TEST(CodecViewDifferentialTest, LargeDictionaryStaysADictionary) {
  // > 64Ki distinct strings in one segment stay a dictionary: probes
  // answer identically on both sides, and the column round-trips through
  // the .evaseg encoding.
  Schema schema({{"s", DataType::kString}});
  ViewPair pair(schema, /*segment_frames=*/1 << 20);  // one segment
  const int64_t frames = (1 << 16) + 500;
  for (int64_t f = 0; f < frames; ++f) {
    pair.Put({f, -1}, {{Value("unique_" + std::to_string(f))}});
  }
  std::vector<ViewKey> probes;
  for (int64_t f = 0; f < frames; f += 97) probes.push_back({f, -1});
  probes.push_back({frames + 1, -1});
  ExpectProbesAgree(pair, probes);
  auto segs = pair.packed.SealedSegments();
  ASSERT_EQ(segs.size(), 1u);
  const ColumnVec& col = segs[0].second->cols[0];
  EXPECT_EQ(col.enc(), ColumnVec::Enc::kDict);
  EXPECT_EQ(col.dict_.size(), static_cast<size_t>(frames));
  auto decoded = storage::DecodeSegmentBody(
      storage::SerializeSegments("s@v", schema, {segs[0].second.get()}),
      "test");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().segments.size(), 1u);
  const ColumnVec& back = decoded.value().segments[0].cols[0];
  EXPECT_EQ(back.enc(), ColumnVec::Enc::kDict);
  EXPECT_EQ(back.codec(), col.codec());
  EXPECT_EQ(back.dict_, col.dict_);
  ASSERT_EQ(back.size(), col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    ASSERT_EQ(back.At(i).AsString(), col.At(i).AsString()) << "row " << i;
  }
}

TEST(CodecViewDifferentialTest, CompressedFootprintNeverLarger) {
  Schema schema({{"obj", DataType::kInt64},
                 {"label", DataType::kString},
                 {"score", DataType::kDouble}});
  ViewPair pair(schema, 64);
  Lcg rng(0xFEED);
  for (int64_t f = 0; f < 512; ++f) {
    pair.Put({f, -1}, {{Value(rng.NextInt(0, 10)),
                        Value(rng.Next() % 4 == 0 ? "car" : "person"),
                        Value(rng.NextDouble())}});
  }
  pair.plain.SealAllSegments();
  pair.packed.SealAllSegments();
  for (const auto& [seg_id, seg] : pair.packed.SealedSegments()) {
    EXPECT_LE(seg->encoded_bytes, seg->raw_bytes) << "segment " << seg_id;
    EXPECT_GT(seg->encoded_bytes, 0);
  }
  ViewCompressionStats cs = pair.packed.CompressionStats();
  EXPECT_GT(cs.sealed_segments, 0);
  EXPECT_LT(cs.encoded_bytes, cs.raw_bytes);
}

// ---------------------------------------------------------------------------
// Reseal identity: a segment filled by k appends with seals in between is
// field-for-field the segment a one-shot seal of the same content builds.
// ---------------------------------------------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

void ExpectSamePacked(const BitPackedVec& a, const BitPackedVec& b,
                      const char* what) {
  EXPECT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(a.width(), b.width()) << what;
  EXPECT_EQ(a.words(), b.words()) << what;
}

// Encoding, codec, every lane and the dictionary order.
void ExpectSameColumn(const ColumnVec& x, const ColumnVec& y) {
  EXPECT_EQ(x.enc(), y.enc());
  EXPECT_EQ(x.codec(), y.codec());
  EXPECT_EQ(x.n_, y.n_);
  EXPECT_EQ(x.null_bits_, y.null_bits_);
  EXPECT_EQ(x.i64_, y.i64_);
  ASSERT_EQ(x.f64_.size(), y.f64_.size());
  for (size_t i = 0; i < x.f64_.size(); ++i) {
    EXPECT_TRUE(SameBits(x.f64_[i], y.f64_[i])) << "f64 " << i;
  }
  EXPECT_EQ(x.b8_, y.b8_);
  EXPECT_EQ(x.codes_, y.codes_);
  EXPECT_EQ(x.dict_, y.dict_);
  EXPECT_EQ(x.for_base_, y.for_base_);
  ExpectSamePacked(x.packed_, y.packed_, "packed_");
  EXPECT_EQ(x.rle_end_, y.rle_end_);
}

void ExpectSameSegment(const ColumnarSegment& a, const ColumnarSegment& b) {
  // Key index.
  EXPECT_EQ(a.packed_keys, b.packed_keys);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.objs, b.objs);
  EXPECT_EQ(a.row_begin, b.row_begin);
  EXPECT_EQ(a.frame_base, b.frame_base);
  EXPECT_EQ(a.row_stride, b.row_stride);
  EXPECT_EQ(a.row_res_base, b.row_res_base);
  ExpectSamePacked(a.frames_p, b.frames_p, "frames_p");
  ExpectSamePacked(a.objs_p, b.objs_p, "objs_p");
  ExpectSamePacked(a.row_begin_p, b.row_begin_p, "row_begin_p");
  EXPECT_EQ(a.obj_min, b.obj_min);
  // Footprint and codec accounting.
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.encoded_bytes, b.encoded_bytes);
  for (int c = 0; c < ColumnVec::kNumCodecs; ++c) {
    EXPECT_EQ(a.codec_cols[c], b.codec_cols[c]) << "codec " << c;
  }
  // Columns: encoding, codec, lanes, dictionary order.
  ASSERT_EQ(a.cols.size(), b.cols.size());
  for (size_t c = 0; c < a.cols.size(); ++c) {
    SCOPED_TRACE("col " + std::to_string(c));
    ExpectSameColumn(a.cols[c], b.cols[c]);
  }
}

TEST(CodecResealTest, ResealEqualsOneShotSeal) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString},
                 {"m", DataType::kInt64}});  // NULL below frame 80
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (bool compress : {false, true}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Lcg rng(0x5EA1 * seed);
      // Content: frame-level and object-level keys over two segments,
      // presence-only keys, nulls, -0.0/NaN doubles, repeats for RLE.
      std::vector<std::pair<ViewKey, std::vector<Row>>> content;
      for (int64_t f = 0; f < 120; ++f) {
        const bool object_keys = f % 5 == 0;
        for (int64_t obj = object_keys ? 0 : -1;
             obj < (object_keys ? 3 : 0); ++obj) {
          std::vector<Row> rows;
          const int nrows = static_cast<int>(rng.Next() % 3);
          for (int r = 0; r < nrows; ++r) {
            // All NULL in the first segment, NULLs first in the second.
            const Value m = f < 80 || rng.Next() % 4 == 0
                                ? Value::Null()
                                : Value(rng.NextInt(0, 5));
            const uint64_t dpick = rng.Next() % 6;
            rows.push_back(
                {rng.Next() % 7 == 0 ? Value::Null()
                                     : Value(rng.NextInt(-3, 40)),
                 Value(dpick == 0   ? -0.0
                       : dpick == 1 ? kNaN
                       : dpick == 2 ? 0.25
                                    : rng.NextDouble()),
                 rng.Next() % 5 == 0 ? Value::Null()
                                     : Value(rng.Next() % 3 == 0),
                 Value(seed == 4 ? "s" + std::to_string(rng.Next() % 200)
                                 : std::string(rng.Next() % 2 == 0 ? "car"
                                                                  : "bus")),
                 m});
          }
          content.push_back({{f, obj}, std::move(rows)});
        }
      }
      // Append in a shuffled order so each reseal merges tail keys into
      // the middle of the sealed key index, not just past its end.
      std::vector<size_t> order(content.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[static_cast<size_t>(rng.Next() % i)]);
      }
      const SegmentBuildOptions options{compress};
      MaterializedView resealed("t@v", schema);
      resealed.set_segment_frames(64);
      resealed.set_build_options(options);
      const size_t k = 2 + seed;  // appends between seals
      for (size_t i = 0; i < order.size(); ++i) {
        const auto& [key, rows] = content[order[i]];
        ASSERT_TRUE(PutRows(&resealed, key, rows));
        if (i % k == k - 1) {
          if (i % 2 == 0) {
            resealed.SealAllSegments();
          } else {
            ProbeResult res;  // a probe seals the touched segment
            resealed.ProbeBatch({key}, &res);
          }
        }
      }
      MaterializedView one_shot("t@v", schema);
      one_shot.set_segment_frames(64);
      one_shot.set_build_options(options);
      for (const auto& [key, rows] : content) {
        ASSERT_TRUE(PutRows(&one_shot, key, rows));
      }
      auto a = resealed.SealedSegments();
      auto b = one_shot.SealedSegments();
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("compress=" + std::to_string(compress) +
                     " seed=" + std::to_string(seed) +
                     " segment=" + std::to_string(a[i].first));
        EXPECT_EQ(a[i].first, b[i].first);
        ExpectSameSegment(*a[i].second, *b[i].second);
      }
    }
  }
}

// The field type of column kind `kind` (0 Int64, 1 Double, 2 Bool,
// 3 String).
DataType KindType(int kind) {
  const DataType types[] = {DataType::kInt64, DataType::kDouble,
                            DataType::kBool, DataType::kString};
  return types[kind];
}

// TailLane::AppendFrom against its definition: appending rows [b, e) of
// a source equals Append(src.At(i)) row by row — lanes, null bitmap and
// dictionary order — for sources under every codec, all-null sources,
// and merges that switch sources.
TEST(CodecResealTest, AppendFromMatchesValueAppends) {
  Lcg rng(0xA99E);
  // High bits only: the LCG's low bits cycle with short periods.
  auto pick = [&rng](uint64_t k) { return (rng.Next() >> 33) % k; };
  auto seal = [](DataType type, const std::vector<Value>& cells) {
    TailLane lane(type);
    for (const Value& v : cells) lane.Append(v);
    return std::move(lane).Seal();
  };
  auto cells = [&rng, &pick](int kind) {
    std::vector<Value> out;
    for (int i = 0; i < 300; ++i) {
      const bool null = pick(6) == 0;
      switch (kind) {
        case 0:  // narrow ints (FOR)
          out.push_back(null ? Value::Null()
                             : Value(static_cast<int64_t>(pick(50))));
          break;
        case 1:  // long runs (RLE)
          out.push_back(null ? Value::Null() : Value(int64_t{i / 60}));
          break;
        case 2:  // few far-apart ints (numeric dictionary)
          out.push_back(
              Value(static_cast<int64_t>(pick(3)) * (INT64_MAX / 4)));
          break;
        case 3:  // entropy doubles (prefix dictionary)
          out.push_back(null ? Value::Null() : Value(rng.NextDouble()));
          break;
        case 4:  // double runs, -0.0 included (RLE)
          out.push_back(Value(i < 150 ? -0.0 : 0.25));
          break;
        case 5:  // few doubles (numeric dictionary)
          out.push_back(Value(0.5 * static_cast<double>(pick(5))));
          break;
        case 6:  // bools (bit-packed)
          out.push_back(null ? Value::Null() : Value(pick(2) == 0));
          break;
        case 7:  // strings (bit-packed codes)
          out.push_back(null ? Value::Null()
                             : Value("s" + std::to_string(pick(9))));
          break;
        case 8:  // string runs (RLE codes)
          out.push_back(Value(i < 200 ? "car" : "bus"));
          break;
        default:  // all null
          out.push_back(Value::Null());
          break;
      }
    }
    return out;
  };
  // Sources by cell type: ints, doubles, bools, strings; each plain and
  // under the codec PlanColumn picks, and one of only NULLs.
  const int kGroups[4][3] = {{0, 1, 2}, {3, 4, 5}, {6, 6, 6}, {7, 8, 8}};
  std::vector<std::vector<ColumnVec>> groups(4);
  for (int g = 0; g < 4; ++g) {
    const DataType type = KindType(g);
    for (int kind : kGroups[g]) {
      ColumnVec plain = seal(type, cells(kind));
      ColumnVec packed = plain;
      Compress(&packed);
      groups[static_cast<size_t>(g)].push_back(plain);
      groups[static_cast<size_t>(g)].push_back(packed);
    }
    groups[static_cast<size_t>(g)].push_back(seal(type, cells(9)));
  }
  for (int trial = 0; trial < 400; ++trial) {
    const size_t g = pick(4);
    std::vector<const ColumnVec*> sources;
    for (const ColumnVec& c : groups[g]) sources.push_back(&c);
    TailLane merged(KindType(static_cast<int>(g)));
    TailLane by_value(KindType(static_cast<int>(g)));
    std::vector<std::vector<int32_t>> remaps(sources.size());
    for (int step = 0; step < 8; ++step) {
      const size_t s = pick(sources.size());
      const ColumnVec& src = *sources[s];
      const size_t b = pick(src.size());
      const size_t e = b + pick(src.size() - b);
      merged.AppendFrom(src, b, e, &remaps[s]);
      for (size_t i = b; i < e; ++i) by_value.Append(src.At(i));
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const ColumnVec cm = std::move(merged).Seal();
    const ColumnVec cv = std::move(by_value).Seal();
    ExpectSameColumn(cm, cv);
    if (HasFailure()) break;
  }
}

// A segment resealed in phases must equal a one-shot seal of the same
// content, however its cells split between the sealed part and the tails.
using Content = std::vector<std::pair<ViewKey, std::vector<Row>>>;

// Puts every phase's content into one view, sealing it after each phase,
// and into a second view sealed once at the end; compares their segments
// with and without compression.
void ExpectPhasedResealMatchesOneShot(const Schema& schema,
                                      const std::vector<Content>& phases) {
  for (bool compress : {false, true}) {
    SCOPED_TRACE("compress=" + std::to_string(compress));
    const SegmentBuildOptions options{compress};
    MaterializedView resealed("t@v", schema);
    MaterializedView one_shot("t@v", schema);
    for (MaterializedView* view : {&resealed, &one_shot}) {
      view->set_segment_frames(1 << 20);  // one segment
      view->set_build_options(options);
    }
    for (size_t p = 0; p < phases.size(); ++p) {
      for (const auto& [key, rows] : phases[p]) {
        ASSERT_TRUE(PutRows(&resealed, key, rows));
        ASSERT_TRUE(PutRows(&one_shot, key, rows));
      }
      if (p % 2 == 0) {
        resealed.SealAllSegments();
      } else {
        ProbeResult res;  // a probe reseals the touched segment
        resealed.ProbeBatch({phases[p].front().first}, &res);
      }
    }
    auto a = resealed.SealedSegments();
    auto b = one_shot.SealedSegments();
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    ExpectSameSegment(*a[0].second, *b[0].second);
  }
}

// One single-row key per frame in [first, first + count * stride) step
// `stride`: interleaved strides make a reseal alternate its sources.
Content Frames(int64_t first, int64_t count, int64_t stride,
               const std::function<Row(int64_t)>& row_of) {
  Content out;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t f = first + i * stride;
    out.push_back({{f, -1}, {row_of(f)}});
  }
  return out;
}

TEST(CodecResealTest, AllNullSealedPartThenTypedTail) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString}});
  auto nulls = [](int64_t) {
    return Row{Value::Null(), Value::Null(), Value::Null(), Value::Null()};
  };
  auto typed = [](int64_t f) {
    return Row{f % 3 == 0 ? Value::Null() : Value(f * 7),
               Value(static_cast<double>(f) * 0.5), Value(f % 2 == 0),
               Value("c" + std::to_string(f % 5))};
  };
  // Sealed nulls ahead of the tail, then interleaved with it.
  ExpectPhasedResealMatchesOneShot(schema, {Frames(0, 80, 1, nulls),
                                            Frames(80, 80, 1, typed)});
  ExpectPhasedResealMatchesOneShot(
      schema, {Frames(0, 80, 2, nulls), Frames(1, 80, 2, typed),
               Frames(400, 20, 1, nulls), Frames(161, 40, 2, typed)});
}

TEST(CodecResealTest, StringDictCrossesCapAcrossReseal) {
  // 40,000 distinct strings seal as a dictionary, and the reseals that
  // bring the segment past 65,536 entries keep it one.
  Schema schema({{"s", DataType::kString}, {"v", DataType::kInt64}});
  auto row = [](int64_t f) {
    return Row{Value("u" + std::to_string(f)), Value(f % 11)};
  };
  ExpectPhasedResealMatchesOneShot(
      schema, {Frames(0, 40000, 2, row), Frames(1, 30000, 2, row),
               Frames(80000, 500, 1, row)});
}

// ---------------------------------------------------------------------------
// Layer 3: engine differential — a real vbench workload with compression
// on vs off must return byte-identical result sets.
// ---------------------------------------------------------------------------

// A random cell of column kind `kind` (see KindType): NULLs, -0.0 and
// NaN, repeats.
Value RandomCell(Lcg* rng, int kind) {
  const uint64_t r = rng->Next() >> 33;
  if (r % 9 == 0) return Value::Null();
  switch (kind) {
    case 0:
      return Value(static_cast<int64_t>(r % 40) - 3);
    case 1: {
      const uint64_t d = r % 8;
      return Value(d == 0   ? -0.0
                   : d == 1 ? std::numeric_limits<double>::quiet_NaN()
                   : d == 2 ? 0.25
                            : rng->NextDouble());
    }
    case 2:
      return Value(r % 3 == 0);
    default:
      return Value("s" + std::to_string(r % 12));
  }
}

// The typed appends against their definition: AppendInt64(x) is
// Append(Value(x)), and so on for every type, NULLs included.
TEST(CodecResealTest, TypedAppendsMatchValueAppends) {
  Lcg rng(0x7A9E);
  for (int trial = 0; trial < 200; ++trial) {
    const int kind = static_cast<int>((rng.Next() >> 33) % 4);
    TailLane typed(KindType(kind)), by_value(KindType(kind));
    for (int i = 0; i < 150; ++i) {
      const Value v = RandomCell(&rng, kind);
      by_value.Append(v);
      switch (v.type()) {
        case DataType::kNull:
          typed.AppendNull();
          break;
        case DataType::kInt64:
          typed.AppendInt64(v.AsInt64());
          break;
        case DataType::kDouble:
          typed.AppendDouble(v.AsDouble());
          break;
        case DataType::kBool:
          typed.AppendBool(v.AsBool());
          break;
        case DataType::kString:
          typed.AppendString(v.AsString());
          break;
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const ColumnVec ct = std::move(typed).Seal();
    const ColumnVec cv = std::move(by_value).Seal();
    ExpectSameColumn(ct, cv);
    if (HasFailure()) break;
  }
}

// TailLane::AppendLabel(vocab, id) against AppendString(vocab[id]), cell
// for cell and after Seal: after a null prefix, with NULLs between, one
// lane fed from vocabularies that share a name, and a lane moved
// mid-stream.
TEST(CodecResealTest, AppendLabelMatchesAppendString) {
  const std::vector<std::vector<std::string>> vocabs = {
      {"car", "truck", "bus", "person"}, {"unknown"}, {"true", "false", "car"}};
  Lcg rng(0x1ABE);
  auto pick = [&rng](uint64_t k) { return (rng.Next() >> 33) % k; };
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    TailLane labels(DataType::kString), strings(DataType::kString);
    const int nulls = static_cast<int>(pick(3));
    for (int i = 0; i < nulls; ++i) {
      labels.AppendNull();
      strings.AppendNull();
    }
    // Most trials stay on one vocabulary; some mix all three.
    const uint64_t nvocabs = pick(2) == 0 ? vocabs.size() : 1;
    for (int i = 0; i < 120; ++i) {
      if (i == 60 && pick(2) == 0) {
        TailLane moved_labels(std::move(labels));
        TailLane moved_strings(std::move(strings));
        labels = std::move(moved_labels);
        strings = std::move(moved_strings);
      }
      if (pick(10) == 0) {
        labels.AppendNull();
        strings.AppendNull();
        continue;
      }
      const std::vector<std::string>& vocab = vocabs[pick(nvocabs)];
      const size_t id = pick(vocab.size());
      labels.AppendLabel(vocab, id);
      strings.AppendString(vocab[id]);
    }
    ASSERT_EQ(labels.lane().size(), strings.lane().size());
    for (size_t i = 0; i < labels.lane().size(); ++i) {
      EXPECT_TRUE(SameValue(labels.lane().At(i), strings.lane().At(i)))
          << "row " << i;
    }
    ExpectSameColumn(labels.lane(), strings.lane());
    const ColumnVec cl = std::move(labels).Seal();
    const ColumnVec cs = std::move(strings).Seal();
    ExpectSameColumn(cl, cs);
    if (HasFailure()) break;
  }
}

// TailLane::AppendGather against its definition: appending rows rows[k]
// of a source equals Append(src.At(rows[k])) in order, for sources of
// every type under every codec and all-null sources, with repeated and
// unordered indexes.
TEST(CodecResealTest, AppendGatherMatchesValueAppends) {
  Lcg rng(0x6A7E);
  // Per type: a source plain and packed, and one of only NULLs.
  std::vector<std::vector<ColumnVec>> sources(4);
  for (int kind = 0; kind < 4; ++kind) {
    for (const bool nulls : {false, true}) {
      TailLane lane(KindType(kind));
      for (int i = 0; i < 200; ++i) {
        lane.Append(nulls ? Value::Null() : RandomCell(&rng, kind));
      }
      ColumnVec plain = std::move(lane).Seal();
      ColumnVec packed = plain;
      Compress(&packed);
      sources[static_cast<size_t>(kind)].push_back(std::move(plain));
      if (!nulls) {
        sources[static_cast<size_t>(kind)].push_back(std::move(packed));
      }
    }
  }
  for (int trial = 0; trial < 300; ++trial) {
    const int kind = static_cast<int>((rng.Next() >> 33) % 4);
    const std::vector<ColumnVec>& of_kind =
        sources[static_cast<size_t>(kind)];
    TailLane gathered(KindType(kind)), by_value(KindType(kind));
    std::vector<std::vector<int32_t>> remaps(of_kind.size());
    for (int step = 0; step < 6; ++step) {
      const size_t s = (rng.Next() >> 33) % of_kind.size();
      const ColumnVec& src = of_kind[s];
      std::vector<uint32_t> rows((rng.Next() >> 33) % 40);
      for (uint32_t& r : rows) {
        r = static_cast<uint32_t>((rng.Next() >> 33) % src.size());
      }
      gathered.AppendGather(src, rows.data(), rows.size(), &remaps[s]);
      for (uint32_t r : rows) by_value.Append(src.At(r));
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const ColumnVec cg = std::move(gathered).Seal();
    const ColumnVec cv = std::move(by_value).Seal();
    ExpectSameColumn(cg, cv);
    if (HasFailure()) break;
  }
}

// Range (AppendFrom) and index-list (AppendGather) appends read each
// source codec through its own loop; cell by cell they must give the
// source's At(). Sources cover every (encoding, codec) pair the seal can
// produce, with and without NULLs, and the lists are ascending (dense and
// sparse, walking and jumping RLE runs), descending, repeated and
// shuffled.
TEST(CodecResealTest, RangeAndIndexAppendsMatchAtForEveryCodec) {
  Lcg rng(0xC0DEC5);
  auto pick = [&rng](uint64_t k) { return (rng.Next() >> 33) % k; };
  constexpr int kRows = 400;
  // Cell i of a source of `kind` (0-9): which codec the seal picks.
  auto cell = [&](int kind, int i) -> Value {
    switch (kind) {
      case 0:  // Int64 full range: plain
        return Value(static_cast<int64_t>(rng.Next()));
      case 1:  // Int64 narrow: FOR
        return Value(static_cast<int64_t>(pick(50)) - 7);
      case 2:  // Int64 runs: RLE
        return Value(int64_t{i / 37});
      case 3:  // Int64 few far-apart values: numeric dictionary
        return Value(static_cast<int64_t>(pick(3)) * (INT64_MAX / 4));
      case 4: {  // Double over every exponent: plain
        const uint64_t bits = rng.Next();
        double d;
        std::memcpy(&d, &bits, 8);
        return Value(d);
      }
      case 5:  // Double runs, -0.0 included: RLE
        return Value(i < 150 ? -0.0 : 0.25 * static_cast<double>(i / 50));
      case 6:  // few doubles: numeric dictionary
        return Value(0.5 * static_cast<double>(pick(5)));
      case 7:  // entropy doubles: prefix dictionary
        return Value(rng.NextDouble());
      case 8:  // bools: bit-packed
        return Value(pick(2) == 0);
      case 9:  // bool runs: RLE
        return Value((i / 45) % 2 == 0);
      case 10:  // strings: bit-packed codes
        return Value("s" + std::to_string(pick(9)));
      default:  // string runs: RLE codes
        return Value(i / 80 % 2 == 0 ? "car" : "bus");
    }
  };
  const DataType kind_type[] = {
      DataType::kInt64,  DataType::kInt64,  DataType::kInt64,
      DataType::kInt64,  DataType::kDouble, DataType::kDouble,
      DataType::kDouble, DataType::kDouble, DataType::kBool,
      DataType::kBool,   DataType::kString, DataType::kString};
  std::vector<ColumnVec> sources;
  std::set<std::pair<int, int>> covered;  // (encoding, codec)
  for (int kind = 0; kind < 12; ++kind) {
    for (const bool nulls : {false, true}) {
      TailLane lane(kind_type[kind]);
      for (int i = 0; i < kRows; ++i) {
        const Value v = cell(kind, i);
        lane.Append(nulls && pick(7) == 0 ? Value::Null() : v);
      }
      ColumnVec plain = std::move(lane).Seal();
      ColumnVec packed = plain;
      Compress(&packed);
      for (const ColumnVec* c : {&plain, &packed}) {
        covered.insert({static_cast<int>(c->enc()),
                        static_cast<int>(c->codec())});
      }
      sources.push_back(std::move(plain));
      sources.push_back(std::move(packed));
    }
  }
  using Enc = ColumnVec::Enc;
  using Codec = ColumnVec::Codec;
  auto pair = [](Enc e, Codec c) {
    return std::make_pair(static_cast<int>(e), static_cast<int>(c));
  };
  const std::set<std::pair<int, int>> every = {
      pair(Enc::kInt64, Codec::kPlain),    pair(Enc::kInt64, Codec::kFor),
      pair(Enc::kInt64, Codec::kRle),      pair(Enc::kInt64, Codec::kDictNum),
      pair(Enc::kDouble, Codec::kPlain),   pair(Enc::kDouble, Codec::kRle),
      pair(Enc::kDouble, Codec::kDictNum), pair(Enc::kDouble, Codec::kExpPack),
      pair(Enc::kBool, Codec::kPlain),     pair(Enc::kBool, Codec::kBitPack),
      pair(Enc::kBool, Codec::kRle),       pair(Enc::kDict, Codec::kPlain),
      pair(Enc::kDict, Codec::kBitPack),   pair(Enc::kDict, Codec::kRle)};
  EXPECT_EQ(covered, every);

  // Appends `rows` of `src` to a fresh lane, `AppendFrom` when they are
  // one range, and checks each appended cell against src.At.
  auto check = [](const ColumnVec& src, const std::vector<uint32_t>& rows,
                  bool as_range) {
    const auto type = [&src] {
      switch (src.enc()) {
        case Enc::kInt64:
          return DataType::kInt64;
        case Enc::kDouble:
          return DataType::kDouble;
        case Enc::kBool:
          return DataType::kBool;
        default:
          return DataType::kString;
      }
    }();
    TailLane lane(type);
    std::vector<int32_t> remap;
    if (as_range) {
      lane.AppendFrom(src, rows.front(), rows.back() + 1, &remap);
    } else {
      lane.AppendGather(src, rows.data(), rows.size(), &remap);
    }
    ASSERT_EQ(lane.lane().size(), rows.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      ASSERT_TRUE(SameValue(lane.lane().At(k), src.At(rows[k])))
          << "codec " << ColumnVec::CodecName(src.codec()) << " row "
          << rows[k] << " (list position " << k << ")";
    }
  };
  for (const ColumnVec& src : sources) {
    SCOPED_TRACE(std::string("codec ") + ColumnVec::CodecName(src.codec()) +
                 " enc " + std::to_string(static_cast<int>(src.enc())));
    for (int trial = 0; trial < 20; ++trial) {
      // A range [b, e).
      const auto b = static_cast<uint32_t>(pick(kRows));
      const auto e = b + 1 + static_cast<uint32_t>(pick(kRows - b));
      std::vector<uint32_t> range(e - b);
      std::iota(range.begin(), range.end(), b);
      check(src, range, /*as_range=*/true);
      // Index lists.
      std::vector<uint32_t> rows;
      switch (trial % 5) {
        case 0:  // dense ascending
          rows = range;
          break;
        case 1:  // sparse ascending: jumps across several runs
          for (uint32_t r = static_cast<uint32_t>(pick(30)); r < kRows;
               r += 1 + static_cast<uint32_t>(pick(120))) {
            rows.push_back(r);
          }
          break;
        case 2:  // descending
          rows.assign(range.rbegin(), range.rend());
          break;
        case 3:  // repeated
          for (int i = 0; i < 30; ++i) {
            const auto r = static_cast<uint32_t>(pick(kRows));
            rows.insert(rows.end(), 1 + pick(3), r);
          }
          break;
        default:  // shuffled
          for (int i = 0; i < 60; ++i) {
            rows.push_back(static_cast<uint32_t>(pick(kRows)));
          }
          break;
      }
      check(src, rows, /*as_range=*/false);
      if (HasFailure()) return;
    }
  }
}

// STORE's PutBatch against PutRows, one key at a time (each key's rows
// appended to fresh lanes value by value), of the same rows: the
// inserted flags, access ticks, segment stamps, captured
// appends and sealed segments must be equal. Each source chunk has a key
// lane ahead of the value lanes and rows that are not stored
// (placeholders), as STORE's input does. A chunk goes in as a few
// batches, some in reverse key order, whose keys repeat earlier keys (in
// the sealed part, the tail, or the same batch) and span segments; one
// PutRemaps serves the chunk while seals, probes and an eviction between
// batches restart the tails under it.
TEST(CodecResealTest, LanePutMatchesValuePuts) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString},
                 {"m", DataType::kInt64}});  // all NULL in some chunks
  for (bool compress : {false, true}) {
    SCOPED_TRACE("compress=" + std::to_string(compress));
    Lcg rng(compress ? 0x1A9E : 0x2A9E);
    auto pick = [&rng](uint64_t k) { return (rng.Next() >> 33) % k; };
    const SegmentBuildOptions options{compress};
    MaterializedView by_lanes("t@v", schema);
    MaterializedView by_values("t@v", schema);
    for (MaterializedView* view : {&by_lanes, &by_values}) {
      view->set_segment_frames(16);
      view->set_build_options(options);
      view->set_capture_appends(true);
    }
    uint64_t lane_clock = 0, value_clock = 0;
    const std::function<uint64_t()> next_tick = [&lane_clock] {
      return ++lane_clock;
    };
    int64_t frame = 0;
    int64_t puts = 0, reputs = 0;
    for (int chunk = 0; chunk < 60; ++chunk) {
      std::vector<TailLane> lanes{TailLane(DataType::kInt64)};
      for (const Field& f : schema.fields()) lanes.emplace_back(f.type);
      const bool m_nulls = pick(3) == 0;
      std::vector<Row> cells;  // value cells by source row
      auto add_row = [&](int64_t key_frame) {
        Row row;
        lanes[0].AppendInt64(key_frame);
        for (size_t c = 0; c < schema.num_fields(); ++c) {
          if (c == 4) {
            row.push_back(m_nulls ? Value::Null() : RandomCell(&rng, 0));
          } else {
            row.push_back(RandomCell(&rng, static_cast<int>(c)));
          }
          lanes[c + 1].Append(row.back());
        }
        cells.push_back(std::move(row));
        return static_cast<uint32_t>(cells.size() - 1);
      };
      std::vector<std::pair<ViewKey, std::vector<uint32_t>>> keys;
      const int nkeys = 1 + static_cast<int>(pick(12));
      for (int k = 0; k < nkeys; ++k) {
        // Now and then a key that is already stored (STORE skips it).
        const int64_t f = pick(8) == 0 && frame > 0
                              ? static_cast<int64_t>(pick(
                                    static_cast<uint64_t>(frame)))
                              : frame++;
        const int64_t obj = pick(4) == 0 ? static_cast<int64_t>(pick(3)) : -1;
        std::vector<uint32_t> rows;
        const int nrows = static_cast<int>(pick(4));
        for (int r = 0; r < nrows; ++r) {
          if (pick(3) == 0) add_row(f);  // a row that is not stored
          rows.push_back(add_row(f));
        }
        keys.push_back({{f, obj}, std::move(rows)});
      }
      const std::vector<const ColumnVec*> values =
          LaneColumns({lanes.data() + 1, schema.num_fields()});
      PutRemaps remaps;
      for (size_t begin = 0; begin < keys.size();) {
        const size_t end =
            std::min(keys.size(), begin + 1 + static_cast<size_t>(pick(6)));
        if (pick(4) == 0) {
          std::reverse(keys.begin() + static_cast<std::ptrdiff_t>(begin),
                       keys.begin() + static_cast<std::ptrdiff_t>(end));
        }
        std::vector<ViewKey> batch_keys;
        std::vector<uint32_t> key_rows{0};
        std::vector<uint32_t> batch_rows;
        for (size_t k = begin; k < end; ++k) {
          batch_keys.push_back(keys[k].first);
          batch_rows.insert(batch_rows.end(), keys[k].second.begin(),
                            keys[k].second.end());
          key_rows.push_back(static_cast<uint32_t>(batch_rows.size()));
        }
        std::vector<uint8_t> inserted;
        by_lanes.PutBatch(batch_keys, false, key_rows, batch_rows, values,
                          next_tick, -1, &remaps, &inserted);
        ASSERT_EQ(inserted.size(), batch_keys.size());
        for (size_t k = begin; k < end; ++k) {
          const auto& [key, rows] = keys[k];
          std::vector<Row> value_rows;
          for (uint32_t r : rows) value_rows.push_back(cells[r]);
          const bool a = inserted[k - begin] != 0;
          const bool b =
              PutRows(&by_values, key, value_rows, value_clock + 1);
          if (b) ++value_clock;
          ASSERT_EQ(a, b) << "frame " << key.frame;
          (a ? puts : reputs) += 1;
        }
        EXPECT_EQ(lane_clock, value_clock);
        const ViewKey& key = keys[end - 1].first;
        switch (pick(10)) {
          case 0:
            by_lanes.SealAllSegments();
            break;
          case 1: {
            ProbeResult res;  // a probe reseals the touched segment
            by_lanes.ProbeBatch({key}, &res);
            break;
          }
          case 2: {
            const int64_t seg = key.frame / 16;
            EXPECT_EQ(by_lanes.EvictSegment(seg).keys,
                      by_values.EvictSegment(seg).keys);
            break;
          }
          default:
            break;
        }
        // The capture survives the reseals above (they move the tail out)
        // and forgets an evicted segment, in both views alike.
        const auto captured = by_lanes.TakeAppendedChunks();
        const auto expected = by_values.TakeAppendedChunks();
        ASSERT_EQ(captured.size(), expected.size());
        for (size_t i = 0; i < captured.size(); ++i) {
          ExpectSameSegment(*captured[i], *expected[i]);
        }
        begin = end;
      }
    }
    EXPECT_GT(reputs, 0);
    const std::vector<SegmentStats> sa = by_lanes.Segments();
    const std::vector<SegmentStats> sb = by_values.Segments();
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].segment_id, sb[i].segment_id);
      EXPECT_EQ(sa[i].info.keys, sb[i].info.keys);
      EXPECT_EQ(sa[i].info.rows, sb[i].info.rows);
      EXPECT_EQ(sa[i].info.created_tick, sb[i].info.created_tick);
      EXPECT_EQ(sa[i].info.last_access_tick, sb[i].info.last_access_tick);
    }
    auto a = by_lanes.SealedSegments();
    auto b = by_values.SealedSegments();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 3u);
    for (size_t i = 0; i < a.size(); ++i) {
      SCOPED_TRACE("segment " + std::to_string(a[i].first));
      EXPECT_EQ(a[i].first, b[i].first);
      ExpectSameSegment(*a[i].second, *b[i].second);
    }
    EXPECT_EQ(by_lanes.num_rows(), by_values.num_rows());
    EXPECT_GT(puts, 300);
  }
}

// A PutBatch whose keys go below the tail's last key seals the segment
// before appending the key, so tails stay ascending; the seals leave a
// segment equal to a one-shot seal of the same content.
TEST(CodecResealTest, OutOfOrderPutBatchSealsFirst) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString}});
  for (bool compress : {false, true}) {
    SCOPED_TRACE("compress=" + std::to_string(compress));
    Lcg rng(compress ? 0x0D1A : 0x0D1B);
    // Frames 0..39 in two segments of 32, each key with 0-2 rows; the
    // batch visits them in three descending blocks, ascending inside.
    std::vector<TailLane> lanes = LanesFor(schema);
    std::vector<std::vector<uint32_t>> key_rows_of(40);
    uint32_t nrows = 0;
    for (auto& rows : key_rows_of) {
      for (uint64_t r = (rng.Next() >> 33) % 3; r > 0; --r) {
        for (size_t c = 0; c < lanes.size(); ++c) {
          lanes[c].Append(RandomCell(&rng, static_cast<int>(c)));
        }
        rows.push_back(nrows++);
      }
    }
    auto put = [&](MaterializedView* view, const std::vector<int64_t>& order,
                   bool known_absent) {
      std::vector<ViewKey> keys;
      std::vector<uint32_t> key_rows{0};
      std::vector<uint32_t> rows;
      for (const int64_t f : order) {
        keys.push_back({f, -1});
        const auto& r = key_rows_of[static_cast<size_t>(f)];
        rows.insert(rows.end(), r.begin(), r.end());
        key_rows.push_back(static_cast<uint32_t>(rows.size()));
      }
      PutRemaps remaps;
      std::vector<uint8_t> inserted;
      view->PutBatch(keys, known_absent, key_rows, rows, LaneColumns(lanes),
                     [] { return uint64_t{1}; }, -1, &remaps, &inserted);
      return inserted;
    };
    std::vector<int64_t> shuffled;
    for (const auto& [first, end] :
         {std::pair{28, 40}, std::pair{12, 28}, std::pair{0, 12}}) {
      for (int64_t f = first; f < end; ++f) shuffled.push_back(f);
    }
    std::vector<int64_t> ascending(40);
    std::iota(ascending.begin(), ascending.end(), int64_t{0});
    for (const bool flagged : {false, true}) {
      SCOPED_TRACE("absent flags " + std::to_string(flagged));
      ViewStore store;
      store.set_segment_frames(32);
      store.set_build_options({compress});
      MaterializedView* disordered = store.GetOrCreate("t@v", schema);
      MaterializedView one_shot("t@v", schema);
      one_shot.set_segment_frames(32);
      one_shot.set_build_options({compress});
      const std::vector<uint8_t> inserted = put(disordered, shuffled, flagged);
      EXPECT_EQ(inserted, std::vector<uint8_t>(40, 1));
      // Segment 0 went below its tail at frames 12 and 0; segment 1
      // (frames 32..39) only ever ascended.
      EXPECT_EQ(store.seal_totals().segments_sealed.load(), 2);
      put(&one_shot, ascending, false);
      auto a = disordered->SealedSegments();
      auto b = one_shot.SealedSegments();
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("segment " + std::to_string(a[i].first));
        EXPECT_EQ(a[i].first, b[i].first);
        ExpectSameSegment(*a[i].second, *b[i].second);
      }
    }
  }
}

// A segment's first seal builds from its tail by move; the segment must
// equal the one built from a gathered copy of the same lanes (the path a
// reseal takes), for lanes whose first cells are NULL and for a
// dictionary past 65,536 entries.
TEST(CodecResealTest, MovedFirstSealEqualsGatheredSeal) {
  Schema schema({{"v", DataType::kInt64}, {"s", DataType::kString}});
  auto leading_nulls = [](int64_t f) {
    return f < 50 ? Row{Value::Null(), Value::Null()}
                  : Row{Value(f), Value("n" + std::to_string(f % 4))};
  };
  auto dict_overflow = [](int64_t f) {
    return Row{Value(f % 11), Value("u" + std::to_string(f))};
  };
  const struct {
    const char* name;
    std::function<Row(int64_t)> row_of;
    int64_t frames;
  } cases[] = {{"leading nulls", leading_nulls, 120},
               {"dictionary past 65536", dict_overflow, 70000}};
  for (const auto& c : cases) {
    for (bool compress : {false, true}) {
      SCOPED_TRACE(std::string(c.name) +
                   " compress=" + std::to_string(compress));
      const SegmentBuildOptions options{compress};
      // The view's tail, filled in one ascending PutBatch, and the same
      // cells appended value by value.
      MaterializedView view("t@v", schema);
      view.set_segment_frames(1 << 20);
      view.set_build_options(options);
      SegmentCells tail;
      tail.cols = LanesFor(schema);
      std::vector<ViewKey> keys;
      std::vector<uint32_t> rows;
      for (int64_t f = 0; f < c.frames; ++f) {
        const Row row = c.row_of(f);
        for (size_t col = 0; col < row.size(); ++col) {
          tail.cols[col].Append(row[col]);
        }
        keys.push_back({f, -1});
        tail.keys.push_back({f, -1});
        tail.row_begin.push_back(static_cast<int32_t>(f + 1));
        rows.push_back(static_cast<uint32_t>(f));
      }
      std::vector<uint32_t> key_rows(keys.size() + 1);
      std::iota(key_rows.begin(), key_rows.end(), uint32_t{0});
      PutRemaps remaps;
      std::vector<uint8_t> inserted;
      std::vector<TailLane>& lanes = tail.cols;
      view.PutBatch(keys, false, key_rows, rows, LaneColumns(lanes),
                    [] { return uint64_t{1}; }, -1, &remaps, &inserted);
      // The gather: every key's rows copied lane to lane, as a merge does.
      SegmentCells gathered;
      gathered.cols = LanesFor(schema);
      gathered.keys = tail.keys;
      gathered.row_begin = tail.row_begin;
      for (size_t col = 0; col < lanes.size(); ++col) {
        std::vector<int32_t> remap;
        for (size_t k = 0; k < keys.size(); ++k) {
          gathered.cols[col].AppendFrom(lanes[col].lane(), k, k + 1, &remap);
        }
      }
      auto sealed = view.SealedSegments();
      ASSERT_EQ(sealed.size(), 1u);
      ExpectSameSegment(*sealed[0].second,
                        *BuildColumnarSegment(std::move(gathered), options));
    }
  }
}

TEST(CodecEngineDifferentialTest, WorkloadBitIdenticalAcrossConfigs) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 150;
  video.mean_objects_per_frame = 5;
  video.seed = 11;
  const std::vector<std::string> workload = {
      "SELECT id, obj, label FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 100 AND label = 'car';",
      "SELECT id, obj, label FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id >= 50 AND id < 150 AND label = 'car';",
      "SELECT id, obj, label FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 150 AND score > 0.5 AND label = 'car';",
  };
  std::vector<std::string> reference;
  for (bool compress : {false, true}) {
    engine::EngineOptions options;
    options.optimizer.mode = optimizer::ReuseMode::kEva;
    options.segment_frames = 32;
    options.segment_compression = compress;
    auto er = vbench::MakeEngine(options, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    for (size_t i = 0; i < workload.size(); ++i) {
      auto r = engine->Execute(workload[i]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::string text = r.value().batch.ToString(1 << 20);
      if (!compress) {
        reference.push_back(text);
      } else {
        EXPECT_EQ(text, reference[i]) << "compressed, query " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Planner / seal agreement: PlanSegment predicts, without building, each
// column's codec and the exact encoded_bytes BuildColumnarSegment
// produces, and a build that reuses the plan is the same segment.
// ---------------------------------------------------------------------------

// Null placement of a generated lane.
enum class NullPattern { kNone, kScattered, kLeading, kAll };

// n cells of column kind `kind` (see KindType) in value shape `shape`:
// 0 constant, 1 long runs, 2 a few distinct values, 3 a narrow range
// (Int64) or one exponent (Double), 4 high entropy, 5 NaN payloads, -0.0
// and infinities mixed in, 6 random bit patterns.
TailLane PlanLane(int kind, int shape, NullPattern nulls, size_t n,
                  Lcg* rng) {
  TailLane lane(KindType(kind));
  for (size_t i = 0; i < n; ++i) {
    const bool null = nulls == NullPattern::kAll ||
                      (nulls == NullPattern::kLeading && i < n / 2) ||
                      (nulls == NullPattern::kScattered && rng->Next() % 5 == 0);
    if (null) {
      lane.AppendNull();
      continue;
    }
    const uint64_t r = rng->Next();
    uint64_t pick = 0;  // which of a small value set
    switch (shape) {
      case 0:
        pick = 0;
        break;
      case 1:
        pick = i / 97;
        break;
      case 2:
        pick = (r >> 33) % 5;
        break;
      default:
        pick = r >> 11;
    }
    switch (kind) {
      case 0:
        lane.AppendInt64(shape == 3   ? 1000 + static_cast<int64_t>(r % 300)
                         : shape <= 2 ? static_cast<int64_t>(pick) * 977 - 5
                                      : static_cast<int64_t>(r));
        break;
      case 1: {
        double d = static_cast<double>(pick) * 0.75 - 1.0;
        if (shape == 3) d = 1.0 + static_cast<double>(r >> 40) * 0x1.0p-24;
        if (shape == 4) d = 0.01 + 0.3 * rng->NextDouble();
        if (shape == 5) {
          const uint64_t special[] = {0x7ff8000000000123ULL,
                                      0x8000000000000000ULL,
                                      0x7ff0000000000000ULL, Bits(0.5)};
          const uint64_t b = special[(r >> 33) % 4];
          std::memcpy(&d, &b, 8);
        }
        if (shape == 6) std::memcpy(&d, &r, 8);
        lane.AppendDouble(d);
        break;
      }
      case 2:
        lane.AppendBool(shape == 0 ? true : shape == 1 ? pick % 2 == 0
                                                       : (r >> 40) % 2 == 0);
        break;
      default:
        lane.AppendString(shape >= 4 ? "s" + std::to_string(r % 5000)
                                     : "s" + std::to_string(pick % 7));
    }
  }
  return lane;
}

// Ascending keys over `rows` rows, each key 0 to 3 rows (one row each
// when `one_row`), frames with gaps and (frame, obj) pairs.
void PlanKeys(size_t rows, bool one_row, Lcg* rng, SegmentCells* cells) {
  int64_t frame = rng->NextInt(0, 50), obj = -1;
  size_t placed = 0;
  while (placed < rows || cells->keys.empty()) {
    const size_t k =
        one_row ? 1 : std::min<size_t>(rows - placed, rng->Next() % 4);
    cells->keys.push_back({frame, obj});
    placed += k;
    cells->row_begin.push_back(static_cast<int32_t>(placed));
    if (rng->Next() % 3 == 0) {
      ++obj;
    } else {
      frame += rng->NextInt(1, 4);
      obj = rng->Next() % 2 == 0 ? -1 : 0;
    }
  }
}

// The (encoding, codec) pairs a seal produces.
std::set<std::pair<int, int>> SealCodecPairs() {
  using Enc = ColumnVec::Enc;
  using Codec = ColumnVec::Codec;
  std::set<std::pair<int, int>> pairs;
  auto add = [&pairs](Enc e, std::initializer_list<Codec> codecs) {
    for (Codec c : codecs) {
      pairs.insert({static_cast<int>(e), static_cast<int>(c)});
    }
  };
  add(Enc::kInt64, {Codec::kPlain, Codec::kFor, Codec::kRle, Codec::kDictNum});
  add(Enc::kDouble,
      {Codec::kPlain, Codec::kRle, Codec::kDictNum, Codec::kExpPack});
  add(Enc::kBool, {Codec::kPlain, Codec::kBitPack, Codec::kRle});
  add(Enc::kDict, {Codec::kPlain, Codec::kBitPack, Codec::kRle});
  return pairs;
}

// PlanSegment(cells) against BuildColumnarSegment(cells) with and without
// compression: the bytes, every column's codec, and the segment a build
// reusing the plan makes. Records the (encoding, codec) pairs built.
void ExpectPlanMatchesBuild(const SegmentCells& cells,
                            std::set<std::pair<int, int>>* seen) {
  for (const bool compress : {false, true}) {
    SCOPED_TRACE("compress " + std::to_string(compress));
    const SegmentBuildOptions options{compress};
    const SegmentPlan plan = PlanSegment(cells, options);
    const auto built = BuildColumnarSegment(cells, options);
    EXPECT_EQ(plan.encoded_bytes, built->encoded_bytes);
    EXPECT_EQ(PlanSegmentBytes(cells, options), built->encoded_bytes);
    ASSERT_EQ(plan.codecs.size(), built->cols.size());
    for (size_t c = 0; c < built->cols.size(); ++c) {
      EXPECT_EQ(plan.codecs[c], built->cols[c].codec()) << "col " << c;
      seen->insert({static_cast<int>(built->cols[c].enc()),
                    static_cast<int>(built->cols[c].codec())});
    }
    ExpectSameSegment(*BuildColumnarSegment(cells, options, &plan), *built);
  }
}

TEST(CodecPlanTest, PlanMatchesBuildForEveryCodecAndNullPattern) {
  Lcg rng(0x9A7);
  std::set<std::pair<int, int>> seen;
  for (const size_t rows : {size_t{0}, size_t{1}, size_t{3}, size_t{64},
                            size_t{700}, size_t{4000}}) {
    for (const NullPattern nulls :
         {NullPattern::kNone, NullPattern::kScattered, NullPattern::kLeading,
          NullPattern::kAll}) {
      for (int shape = 0; shape <= 6; ++shape) {
        SCOPED_TRACE("rows " + std::to_string(rows) + " nulls " +
                     std::to_string(static_cast<int>(nulls)) + " shape " +
                     std::to_string(shape));
        SegmentCells cells;
        PlanKeys(rows, shape % 2 == 0, &rng, &cells);
        const size_t n = static_cast<size_t>(cells.row_begin.back());
        for (int kind = 0; kind < 4; ++kind) {
          cells.cols.push_back(PlanLane(kind, shape, nulls, n, &rng));
        }
        ExpectPlanMatchesBuild(cells, &seen);
        if (HasFailure()) return;
      }
    }
  }
  // No value columns at all, and no keys.
  SegmentCells bare;
  PlanKeys(5, false, &rng, &bare);
  ExpectPlanMatchesBuild(bare, &seen);
  ExpectPlanMatchesBuild(SegmentCells(), &seen);
  for (const auto& pair : SealCodecPairs()) {
    EXPECT_TRUE(seen.count(pair) != 0)
        << "encoding " << pair.first << " codec " << pair.second;
  }
}

// NumDictCost as the seal computes it.
size_t NumDictBytes(size_t n, size_t distinct) {
  return distinct * 8 +
         BitPackedVec::PackedBytes(n, BitPackedVec::WidthFor(distinct - 1));
}

// The numeric dictionary's give-up count: the fewest distinct values
// whose dictionary costs at least `give_up` (or passes the 4096 cap).
size_t GiveUpCount(size_t n, size_t give_up) {
  size_t d = 1;
  while (d <= 4096 && NumDictBytes(n, d) < give_up) ++d;
  return d;
}

// Lanes at the dictionary's give-up count and one below it, where every
// cost the dictionary must beat is fixed: wide Int64 values (INT64_MIN and
// INT64_MAX among them, so FOR costs more than plain) and one-exponent
// Doubles, with no two neighbouring rows equal and NULLs only on repeated
// rows. One below, the dictionary wins; at the count, it is ruled out
// (for many lanes by the hash bitmap alone). The plan agrees with the
// unordered_map oracle and with the build.
TEST(CodecPlanTest, GiveUpCountBoundary) {
  Lcg rng(0x61FE);
  using Enc = ColumnVec::Enc;
  using Codec = ColumnVec::Codec;
  std::set<std::pair<int, int>> seen;
  int dict_wins = 0;
  for (const size_t n : {16, 40, 64, 128, 256, 1000}) {
    const size_t int_give_up = 8 * n;  // plain; FOR and RLE cost more
    const size_t exp_give_up =
        8 + BitPackedVec::PackedBytes(n, 52) + 1;  // one prefix, ties to dict
    for (const Enc enc : {Enc::kInt64, Enc::kDouble}) {
      const size_t g =
          GiveUpCount(n, enc == Enc::kInt64 ? int_give_up : exp_give_up);
      ASSERT_GE(g, 3u);
      ASSERT_LE(g, n);
      for (const size_t distinct : {g - 1, g}) {
        for (uint64_t trial = 0; trial < 8; ++trial) {
          for (const bool nulls : {false, true}) {
            SCOPED_TRACE("n " + std::to_string(n) + " enc " +
                         std::to_string(static_cast<int>(enc)) +
                         " distinct " + std::to_string(distinct) +
                         " nulls " + std::to_string(nulls));
            std::vector<uint64_t> values;
            for (size_t k = 0; k < distinct; ++k) {
              values.push_back(
                  enc == Enc::kInt64
                      ? rng.Next()
                      : Bits(1.0 + static_cast<double>(rng.Next() >> 12) *
                                       0x1.0p-52));
            }
            if (enc == Enc::kInt64) {
              values[0] = static_cast<uint64_t>(INT64_MIN);
              values[1] = static_cast<uint64_t>(INT64_MAX);
            }
            std::sort(values.begin(), values.end());
            values.erase(std::unique(values.begin(), values.end()),
                         values.end());
            ASSERT_EQ(values.size(), distinct);
            for (size_t i = values.size(); i > 1; --i) {
              std::swap(values[i - 1], values[(rng.Next() >> 33) % i]);
            }
            SegmentCells cells;
            cells.cols.emplace_back(enc == Enc::kInt64 ? DataType::kInt64
                                                       : DataType::kDouble);
            TailLane& lane = cells.cols.back();
            for (size_t i = 0; i < n; ++i) {
              // Row i repeats row i - distinct; a null there keeps every
              // value present and joins the previous row's run, which
              // leaves the plain (Int64) and prefix (Double) costs the
              // cheapest the dictionary must beat.
              if (nulls && i >= distinct && i % 3 == 0) {
                lane.AppendNull();
              } else if (enc == Enc::kInt64) {
                lane.AppendInt64(static_cast<int64_t>(values[i % distinct]));
              } else {
                double d;
                std::memcpy(&d, &values[i % distinct], 8);
                lane.AppendDouble(d);
              }
              cells.keys.push_back({static_cast<int64_t>(i), -1});
              cells.row_begin.push_back(static_cast<int32_t>(i + 1));
            }
            const ColumnVec& col = lane.lane();
            ExpectMatchesReference(col);
            const Codec want = distinct < g ? Codec::kDictNum
                               : enc == Enc::kInt64 ? Codec::kPlain
                                                    : Codec::kExpPack;
            EXPECT_EQ(PlanColumn(col).codec, want);
            dict_wins += want == Codec::kDictNum ? 1 : 0;
            ExpectPlanMatchesBuild(cells, &seen);
            if (HasFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_GT(dict_wins, 100);
}

// First seals and merge reseals inside a view: after PlanStaleSegments
// each stale segment is charged the bytes its seal then encodes, and the
// seal that reuses the plan builds the segments a view that never planned
// builds.
TEST(CodecPlanTest, PlannedViewSealsMatchUnplannedSeals) {
  const Schema schema({{"i", DataType::kInt64},
                       {"d", DataType::kDouble},
                       {"b", DataType::kBool},
                       {"s", DataType::kString}});
  for (const bool compress : {false, true}) {
    SCOPED_TRACE("compress " + std::to_string(compress));
    Lcg rng(0x5EA1);
    MaterializedView planned("p", schema), unplanned("u", schema);
    for (MaterializedView* view : {&planned, &unplanned}) {
      view->set_segment_frames(32);
      view->set_build_options({compress});
    }
    for (int round = 0; round < 6; ++round) {
      // Random frames below 256 reseal sealed segments; the ascending
      // frames above open segments with no sealed part.
      // Cells with NULLs, -0.0, NaN and repeats in every column.
      auto cell = [&rng](int kind) {
        static const char* const kNames[] = {"car", "bus", "van"};
        const uint64_t r = rng.Next() >> 33;
        if (r % 9 == 0) return Value::Null();
        switch (kind) {
          case 0:
            return Value(static_cast<int64_t>(r % 40) - 3);
          case 1:
            return Value(r % 8 == 0   ? -0.0
                         : r % 8 == 1 ? std::numeric_limits<double>::quiet_NaN()
                                      : rng.NextDouble());
          case 2:
            return Value(r % 3 == 0);
          default:
            return Value(kNames[r % 3]);
        }
      };
      std::vector<std::pair<ViewKey, std::vector<Row>>> puts;
      for (int k = 0; k < 60; ++k) {
        std::vector<Row> rows(rng.Next() % 3);
        for (Row& row : rows) {
          for (int kind = 0; kind < 4; ++kind) row.push_back(cell(kind));
        }
        puts.push_back({{rng.NextInt(0, 256), -1}, rows});
      }
      for (int64_t f = 256 + round * 40; f < 256 + round * 40 + 40; ++f) {
        puts.push_back({{f, -1}, {{Value(f), Value(0.5), Value(true),
                                   Value("t")}}});
      }
      for (const auto& [key, rows] : puts) {
        PutRows(&planned, key, rows);
        PutRows(&unplanned, key, rows);
      }
      planned.PlanStaleSegments();
      const std::vector<SegmentStats> charged = planned.Segments();
      planned.SealAllSegments();
      unplanned.SealAllSegments();
      const std::vector<SegmentStats> sealed = planned.Segments();
      ASSERT_EQ(charged.size(), sealed.size());
      for (size_t i = 0; i < sealed.size(); ++i) {
        EXPECT_EQ(charged[i].bytes, sealed[i].bytes)
            << "segment " << sealed[i].segment_id;
      }
      EXPECT_EQ(SerializeViewSegments("v", planned),
                SerializeViewSegments("v", unplanned));
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace eva::storage
