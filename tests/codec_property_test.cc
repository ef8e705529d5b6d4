// Differential property tests for the seal-time segment codecs
// (docs/STORAGE.md): every encoding x column type x adversarial value
// distribution must reconstruct the exact stored Values and answer
// ProbeBatch / Contains / zone-skip probes identically to an uncompressed
// view, and a reseal of sealed + open tail must equal a one-shot seal.
// Deterministic LCG-driven generation — failures replay from the printed
// seed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "engine/eva_engine.h"
#include "storage/column_segment.h"
#include "storage/view_store.h"
#include "vbench/vbench.h"

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
// Layer 1: CompressColumn differential — plain lane vs codec lane.
// ---------------------------------------------------------------------------

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
  CompressColumn(&packed);
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
    CompressColumn(&packed);
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
  CompressColumn(&packed);
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
  CompressColumn(&packed);
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
    CompressColumn(&packed);
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
  CompressColumn(&noisy_packed);
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
    CompressColumn(&packed);
    EXPECT_NE(packed.codec(), ColumnVec::Codec::kPlain) << pattern;
    for (size_t i = 0; i < plain.n_; ++i) {
      ASSERT_TRUE(SameValue(packed.At(i), plain.At(i)));
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
    packed.set_build_options({/*compress=*/true, /*bloom_bits_per_key=*/10});
  }
  void Put(const ViewKey& key, const std::vector<Row>& rows) {
    plain.Put(key, rows);
    packed.Put(key, rows);
  }
};

void ExpectProbesAgree(const ViewPair& pair,
                       const std::vector<ViewKey>& probes,
                       const ZoneCheckFn& zone = nullptr) {
  ProbeResult rp, rc;
  pair.plain.ProbeBatch(probes, zone, &rp);
  pair.packed.ProbeBatch(probes, zone, &rc);
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
  // The presence check (Bloom + key index on the packed side, plain key
  // index on the other) agrees with the probe outcome on both sides.
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

TEST(CodecViewDifferentialTest, DictOverflowFallsBackToValueStorage) {
  // > 64Ki distinct strings in one segment: the dictionary encoding must
  // step aside (code space is int32 but the cost model caps the dict) and
  // the raw Value fallback still answers probes identically.
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
  // The packed side fell back to kValue for the overflowing column.
  auto segs = pair.packed.SealedSegments();
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].second->cols[0].enc(), ColumnVec::Enc::kValue);
}

TEST(CodecViewDifferentialTest, ZoneSkipDecisionsMatch) {
  // Zone maps are computed before compression, so a residual-predicate
  // zone check must skip exactly the same segments on both sides.
  Schema schema({{"score", DataType::kDouble}});
  ViewPair pair(schema, 32);
  for (int64_t f = 0; f < 256; ++f) {
    // Segment k holds scores centered on k: zones differ per segment.
    double score = static_cast<double>(f / 32) + 0.25;
    pair.Put({f, -1}, {{Value(score)}});
  }
  ZoneCheckFn require_high = [](const ColumnarSegment& seg) {
    return seg.zones[0].valid && seg.zones[0].num_max >= 4.0;
  };
  std::vector<ViewKey> probes;
  for (int64_t f = 0; f < 256; ++f) probes.push_back({f, -1});
  ProbeResult rp, rc;
  pair.plain.ProbeBatch(probes, require_high, &rp);
  pair.packed.ProbeBatch(probes, require_high, &rc);
  ASSERT_EQ(rp.outcomes.size(), rc.outcomes.size());
  int skipped = 0;
  for (size_t i = 0; i < rp.outcomes.size(); ++i) {
    ASSERT_EQ(rp.outcomes[i].status, rc.outcomes[i].status) << i;
    if (rp.outcomes[i].status == ProbeStatus::kHitSkipped) ++skipped;
  }
  EXPECT_GT(skipped, 0);                           // the check does bite
  EXPECT_EQ(rp.segments_skipped, rc.segments_skipped);
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
  EXPECT_EQ(a.obj_max, b.obj_max);
  // Footprint and codec accounting.
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.encoded_bytes, b.encoded_bytes);
  for (int c = 0; c < ColumnVec::kNumCodecs; ++c) {
    EXPECT_EQ(a.codec_cols[c], b.codec_cols[c]) << "codec " << c;
  }
  // Bloom bits.
  ASSERT_EQ(a.bloom.num_blocks(), b.bloom.num_blocks());
  for (size_t i = 0; i < a.bloom.num_blocks(); ++i) {
    EXPECT_EQ(std::memcmp(&a.bloom.blocks()[i], &b.bloom.blocks()[i],
                          sizeof(BloomFilter::Block)),
              0)
        << "bloom block " << i;
  }
  // Columns: encoding, codec, lanes, dictionary order, zone maps.
  ASSERT_EQ(a.cols.size(), b.cols.size());
  ASSERT_EQ(a.zones.size(), b.zones.size());
  for (size_t c = 0; c < a.cols.size(); ++c) {
    const ColumnVec& x = a.cols[c];
    const ColumnVec& y = b.cols[c];
    EXPECT_EQ(x.enc(), y.enc()) << "col " << c;
    EXPECT_EQ(x.codec(), y.codec()) << "col " << c;
    EXPECT_EQ(x.n_, y.n_) << "col " << c;
    EXPECT_EQ(x.null_bits_, y.null_bits_) << "col " << c;
    EXPECT_EQ(x.i64_, y.i64_) << "col " << c;
    ASSERT_EQ(x.f64_.size(), y.f64_.size()) << "col " << c;
    for (size_t i = 0; i < x.f64_.size(); ++i) {
      EXPECT_TRUE(SameBits(x.f64_[i], y.f64_[i])) << "col " << c;
    }
    EXPECT_EQ(x.b8_, y.b8_) << "col " << c;
    EXPECT_EQ(x.codes_, y.codes_) << "col " << c;
    EXPECT_EQ(x.dict_, y.dict_) << "col " << c;
    ASSERT_EQ(x.raw_.size(), y.raw_.size()) << "col " << c;
    for (size_t i = 0; i < x.raw_.size(); ++i) {
      EXPECT_TRUE(SameValue(x.raw_[i], y.raw_[i])) << "col " << c;
    }
    EXPECT_EQ(x.for_base_, y.for_base_) << "col " << c;
    ExpectSamePacked(x.packed_, y.packed_, "packed_");
    EXPECT_EQ(x.rle_end_, y.rle_end_) << "col " << c;
    const ZoneMapEntry& zx = a.zones[c];
    const ZoneMapEntry& zy = b.zones[c];
    EXPECT_EQ(zx.valid, zy.valid) << "col " << c;
    EXPECT_EQ(zx.type, zy.type) << "col " << c;
    EXPECT_EQ(zx.has_nulls, zy.has_nulls) << "col " << c;
    EXPECT_EQ(zx.all_null, zy.all_null) << "col " << c;
    EXPECT_TRUE(SameBits(zx.num_min, zy.num_min)) << "col " << c;
    EXPECT_TRUE(SameBits(zx.num_max, zy.num_max)) << "col " << c;
    EXPECT_EQ(zx.strings, zy.strings) << "col " << c;
  }
}

TEST(CodecResealTest, ResealEqualsOneShotSeal) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString},
                 {"m", DataType::kInt64}});  // mixed types: raw Values
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
            Value m;
            switch (rng.Next() % 4) {
              case 0:
                m = Value(rng.NextInt(0, 5));
                break;
              case 1:
                m = Value("x" + std::to_string(rng.NextInt(0, 3)));
                break;
              case 2:
                m = Value(rng.NextDouble());
                break;
              default:
                break;  // NULL
            }
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
      const SegmentBuildOptions options{compress, compress ? 10 : 0};
      MaterializedView resealed("t@v", schema);
      resealed.set_segment_frames(64);
      resealed.set_build_options(options);
      const size_t k = 2 + seed;  // appends between seals
      for (size_t i = 0; i < order.size(); ++i) {
        const auto& [key, rows] = content[order[i]];
        ASSERT_TRUE(resealed.Put(key, rows));
        if (i % k == k - 1) {
          if (i % 2 == 0) {
            resealed.SealAllSegments();
          } else {
            ProbeResult res;  // a probe seals the touched segment
            resealed.ProbeBatch({key}, nullptr, &res);
          }
        }
      }
      MaterializedView one_shot("t@v", schema);
      one_shot.set_segment_frames(64);
      one_shot.set_build_options(options);
      for (const auto& [key, rows] : content) {
        ASSERT_TRUE(one_shot.Put(key, rows));
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

// ---------------------------------------------------------------------------
// Layer 3: engine differential — a real vbench workload with compression
// on vs off must return byte-identical result sets.
// ---------------------------------------------------------------------------

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
    options.bloom_bits_per_key = compress ? 10 : 0;
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

}  // namespace
}  // namespace eva::storage
