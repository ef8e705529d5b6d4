#include "storage/column_segment.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <type_traits>

namespace eva::storage {

namespace {

// Numeric dictionaries stop being considered past this distinct count.
constexpr size_t kMaxNumDictCardinality = 4096;

// The cost of a codec that is not a candidate.
constexpr size_t kNoCost = ~size_t{0};

void SetNullBit(std::vector<uint64_t>* bits, size_t i) {
  (*bits)[i >> 6] |= uint64_t{1} << (i & 63);
}

uint64_t DoubleBits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, 8);
  return b;
}

double BitsDouble(uint64_t b) {
  double d;
  std::memcpy(&d, &b, 8);
  return d;
}

// Effective lane for codec selection: null rows carry the previous
// non-null value (leading nulls the first non-null), so nulls never break
// runs and never widen the FOR range. At() masks them via the null bitmap,
// so the substituted cell is never observed.
template <typename T, typename GetFn>
std::vector<T> EffectiveLane(const ColumnVec& col, size_t n, GetFn get) {
  std::vector<T> eff(n);
  // Find the first non-null value as the leading fill.
  T fill = T{};
  for (size_t i = 0; i < n; ++i) {
    if (!col.NullAt(i)) {
      fill = get(i);
      break;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (col.NullAt(i)) {
      eff[i] = fill;
    } else {
      eff[i] = get(i);
      fill = eff[i];
    }
  }
  return eff;
}

// Calls fn(eff), where eff(i) reads row i of the column's effective lane:
// the lane itself when the column has no NULLs, EffectiveLane's copy when
// it has some.
template <typename T, typename GetFn, typename Fn>
void WithEffectiveLane(const ColumnVec& col, GetFn get, Fn fn) {
  if (col.null_bits_.empty()) return fn(get);
  const std::vector<T> eff = EffectiveLane<T>(col, col.n_, get);
  fn([p = eff.data()](size_t i) { return p[i]; });
}

// The effective lane of a column of each encoding, as its codecs compare
// it: Int64 cells, Double bit patterns (codecs compare and rebuild bits,
// so -0.0 and NaN payloads survive), Bool bytes, dictionary codes.
template <typename Fn>
void WithEffectiveInt64(const ColumnVec& col, Fn fn) {
  WithEffectiveLane<int64_t>(
      col, [p = col.i64_.data()](size_t i) { return p[i]; }, fn);
}
template <typename Fn>
void WithEffectiveBits(const ColumnVec& col, Fn fn) {
  WithEffectiveLane<uint64_t>(
      col, [p = col.f64_.data()](size_t i) { return DoubleBits(p[i]); }, fn);
}
template <typename Fn>
void WithEffectiveBools(const ColumnVec& col, Fn fn) {
  WithEffectiveLane<uint8_t>(
      col, [p = col.b8_.data()](size_t i) { return p[i]; }, fn);
}
template <typename Fn>
void WithEffectiveCodes(const ColumnVec& col, Fn fn) {
  WithEffectiveLane<int32_t>(
      col, [p = col.codes_.data()](size_t i) { return p[i]; }, fn);
}

template <typename T, typename Eff>
void BuildRuns(Eff eff, size_t n, std::vector<T>* values,
               std::vector<uint32_t>* ends) {
  values->clear();
  ends->clear();
  for (size_t i = 0; i < n; ++i) {
    const T v = static_cast<T>(eff(i));
    if (i == 0 || !(v == values->back())) {
      values->push_back(v);
      ends->push_back(static_cast<uint32_t>(i + 1));
    } else {
      ends->back() = static_cast<uint32_t>(i + 1);
    }
  }
}

// Byte cost of a numeric dictionary of `distinct` values over n rows.
size_t NumDictCost(size_t n, size_t distinct) {
  return distinct * 8 +
         BitPackedVec::PackedBytes(
             n, BitPackedVec::WidthFor(distinct == 0 ? 0 : distinct - 1));
}

// The fewest distinct values at which a numeric dictionary over n rows
// stops being a candidate: past the cardinality cap, or once its cost
// reaches `give_up` (the cheapest codec it must beat), from where it
// cannot win. NumDictCost never falls as the count grows, so bisection
// finds it.
size_t DictGiveUpCount(size_t n, size_t give_up) {
  size_t lo = 1, hi = kMaxNumDictCardinality + 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (NumDictCost(n, mid) >= give_up) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// First-occurrence dictionary of the lane eff(0..n), found through an
// open-addressing table of dictionary positions; with `indexes`, also
// every row's position. Returns false once the dictionary reaches `limit`
// values.
template <typename T, typename Eff>
bool BuildNumDict(Eff eff, size_t n, size_t limit, std::vector<T>* dict,
                  std::vector<uint64_t>* indexes) {
  dict->clear();
  if (indexes != nullptr) {
    indexes->clear();
    indexes->reserve(n);
  }
  // At most half full: the table never holds more than `limit` values.
  const size_t max_distinct = std::min(n, limit);
  int bits = 4;
  while ((size_t{1} << bits) < 2 * max_distinct) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  std::vector<int32_t> slots(mask + 1, -1);
  for (size_t i = 0; i < n; ++i) {
    const T x = eff(i);
    size_t h = static_cast<size_t>(
        (static_cast<uint64_t>(x) * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
    while (slots[h] >= 0 && (*dict)[static_cast<size_t>(slots[h])] != x) {
      h = (h + 1) & mask;
    }
    if (slots[h] < 0) {
      slots[h] = static_cast<int32_t>(dict->size());
      dict->push_back(x);
      if (dict->size() >= limit) return false;
    }
    if (indexes != nullptr) {
      indexes->push_back(static_cast<uint64_t>(slots[h]));
    }
  }
  return true;
}

// Whether the lane eff(0..n) holds at least `limit` distinct values, as
// shown by a bitmap of hashed values: its set bits never outnumber the
// distinct values, so true is exact, while false only means the bitmap
// did not show it. Stops once the count reaches `limit`. The bitmap has
// about 16 bits per value counted, at most 4 KB, so its count stays close
// to the distinct count.
template <typename Eff>
bool HashedCountReaches(Eff eff, size_t n, size_t limit) {
  if (limit > n) return false;
  constexpr int kMaxBits = 15;
  int bits = 6;
  while (bits < kMaxBits && (size_t{1} << bits) < 16 * limit) ++bits;
  uint64_t words[(size_t{1} << kMaxBits) / 64];
  std::fill(words, words + (size_t{1} << bits) / 64, 0);
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h =
        (static_cast<uint64_t>(eff(i)) * 0x9E3779B97F4A7C15ULL) >> (64 - bits);
    uint64_t& word = words[h >> 6];
    const uint64_t bit = uint64_t{1} << (h & 63);
    if ((word & bit) != 0) continue;
    word |= bit;
    if (++count >= limit) return true;
  }
  return false;
}

// NumDictCost of the lane's dictionary, or kNoCost when the dictionary is
// no candidate (DictGiveUpCount). A lane whose hash bitmap reaches the
// give-up count reaches it in distinct values too, so it is ruled out
// without building a dictionary.
template <typename T, typename Eff>
size_t DictCost(Eff eff, size_t n, size_t give_up) {
  const size_t limit = DictGiveUpCount(n, give_up);
  if (HashedCountReaches(eff, n, limit)) return kNoCost;
  std::vector<T> dict;
  if (!BuildNumDict<T>(eff, n, limit, &dict, nullptr)) return kNoCost;
  return NumDictCost(n, dict.size());
}

struct Candidate {
  ColumnVec::Codec codec;
  size_t cost;
};

// The first candidate of least cost: candidates come in Codec order, so a
// tie goes to the earlier codec.
Candidate Cheapest(std::initializer_list<Candidate> candidates) {
  Candidate best = *candidates.begin();
  for (const Candidate& c : candidates) {
    if (c.cost < best.cost) best = c;
  }
  return best;
}

// The codec choices over the effective lane eff(0..n), n > 0, of each
// encoding. One pass counts the runs and, for numeric lanes, the FOR range
// or the sign/exponent prefixes, none of which changes inside a run. The
// dictionary's cost is then bounded (DictCost) before it is tried.
template <typename Eff>
Candidate PlanInt64(Eff eff, size_t n) {
  using Codec = ColumnVec::Codec;
  int64_t prev = eff(0), mn = prev, mx = prev;
  size_t runs = 1;
  for (size_t i = 1; i < n; ++i) {
    const int64_t v = eff(i);
    if (v == prev) continue;
    ++runs;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    prev = v;
  }
  const size_t cost_plain = 8 * n;
  const size_t cost_for =
      BitPackedVec::PackedBytes(
          n, BitPackedVec::WidthFor(static_cast<uint64_t>(mx) -
                                    static_cast<uint64_t>(mn))) +
      8;
  const size_t cost_rle = runs * 12;  // 8 B value + 4 B run end
  // The dictionary must beat all three: ties go to the earlier codec.
  const size_t cost_dict =
      DictCost<int64_t>(eff, n, std::min({cost_plain, cost_for, cost_rle}));
  return Cheapest({{Codec::kPlain, cost_plain},
                   {Codec::kFor, cost_for},
                   {Codec::kRle, cost_rle},
                   {Codec::kDictNum, cost_dict}});
}

template <typename Eff>
Candidate PlanDouble(Eff eff, size_t n) {
  using Codec = ColumnVec::Codec;
  // Sign/exponent prefix dictionary + packed 52-bit mantissas: the codec
  // of last resort for high-entropy doubles (detector areas and scores),
  // whose 12-bit prefix takes a handful of values while the mantissa is
  // incompressible. A bitset over the 4096 prefixes counts them.
  uint64_t prefixes[4096 / 64] = {};
  auto add_prefix = [&prefixes](uint64_t bits) {
    prefixes[bits >> 58] |= uint64_t{1} << ((bits >> 52) & 63);
  };
  uint64_t prev = eff(0);
  size_t runs = 1;
  add_prefix(prev);
  for (size_t i = 1; i < n; ++i) {
    const uint64_t v = eff(i);
    if (v == prev) continue;
    ++runs;
    add_prefix(v);
    prev = v;
  }
  size_t num_prefixes = 0;
  for (uint64_t word : prefixes) num_prefixes += std::popcount(word);
  const size_t cost_plain = 8 * n;
  const size_t cost_rle = runs * 12;
  const size_t cost_exp =
      num_prefixes * 8 +
      BitPackedVec::PackedBytes(
          n, 52 + BitPackedVec::WidthFor(num_prefixes - 1));
  // The value dictionary must beat plain and RLE, and at most tie the
  // prefix dictionary.
  const size_t cost_dict = DictCost<uint64_t>(
      eff, n, std::min({cost_plain, cost_rle, cost_exp + 1}));
  return Cheapest({{Codec::kPlain, cost_plain},
                   {Codec::kRle, cost_rle},
                   {Codec::kDictNum, cost_dict},
                   {Codec::kExpPack, cost_exp}});
}

template <typename Eff>
size_t CountRuns(Eff eff, size_t n) {
  size_t runs = 1;
  for (size_t i = 1; i < n; ++i) runs += eff(i) != eff(i - 1) ? 1 : 0;
  return runs;
}

// Packs eff(0..n) through `value` at `width` bits.
template <typename Eff, typename ValueFn>
void PackLane(Eff eff, size_t n, int width, ValueFn value,
              BitPackedVec* out) {
  std::vector<uint64_t> lane(n);
  for (size_t i = 0; i < n; ++i) lane[i] = value(eff(i));
  out->Pack(lane, width);
}

// `*lane` = values, at capacity.
template <typename T>
void ReplaceLane(std::vector<T>* lane, std::vector<T> values) {
  *lane = std::move(values);
  lane->shrink_to_fit();
}

std::vector<double> AsDoubles(const std::vector<uint64_t>& bits) {
  std::vector<double> out(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) out[i] = BitsDouble(bits[i]);
  return out;
}

// Encoders of a non-empty plain column `col` of each encoding, whose
// effective lane is eff, under `codec`; false when the codec does not
// apply. Every read of eff comes before the first write to `col` (eff may
// read the column's own lane).
template <typename Eff>
bool EncodeInt64(ColumnVec::Codec codec, Eff eff, ColumnVec* col) {
  const size_t n = col->n_;
  switch (codec) {
    case ColumnVec::Codec::kFor: {
      int64_t mn = eff(0), mx = mn;
      for (size_t i = 1; i < n; ++i) {
        mn = std::min(mn, eff(i));
        mx = std::max(mx, eff(i));
      }
      const uint64_t base = static_cast<uint64_t>(mn);
      PackLane(eff, n,
               BitPackedVec::WidthFor(static_cast<uint64_t>(mx) - base),
               [base](int64_t v) { return static_cast<uint64_t>(v) - base; },
               &col->packed_);
      col->for_base_ = mn;
      ReplaceLane(&col->i64_, {});
      return true;
    }
    case ColumnVec::Codec::kRle: {
      std::vector<int64_t> runs;
      BuildRuns<int64_t>(eff, n, &runs, &col->rle_end_);
      ReplaceLane(&col->i64_, std::move(runs));
      return true;
    }
    case ColumnVec::Codec::kDictNum: {
      std::vector<int64_t> dict;
      std::vector<uint64_t> idx;
      BuildNumDict<int64_t>(eff, n, kMaxNumDictCardinality + 1, &dict, &idx);
      col->packed_.Pack(idx, BitPackedVec::WidthFor(dict.size() - 1));
      ReplaceLane(&col->i64_, std::move(dict));
      return true;
    }
    default:
      return false;
  }
}

template <typename Eff>
bool EncodeDouble(ColumnVec::Codec codec, Eff eff, ColumnVec* col) {
  const size_t n = col->n_;
  switch (codec) {
    case ColumnVec::Codec::kRle: {
      std::vector<uint64_t> runs;
      BuildRuns<uint64_t>(eff, n, &runs, &col->rle_end_);
      ReplaceLane(&col->f64_, AsDoubles(runs));
      return true;
    }
    case ColumnVec::Codec::kDictNum: {
      std::vector<uint64_t> dict;
      std::vector<uint64_t> idx;
      BuildNumDict<uint64_t>(eff, n, kMaxNumDictCardinality + 1, &dict,
                             &idx);
      col->packed_.Pack(idx, BitPackedVec::WidthFor(dict.size() - 1));
      ReplaceLane(&col->f64_, AsDoubles(dict));
      return true;
    }
    case ColumnVec::Codec::kExpPack: {
      // Lane value = (prefix code << 52) | mantissa, with prefix codes in
      // first-occurrence order. A code is read only once assigned, so the
      // table needs no initialization beyond the `assigned` bitset.
      constexpr uint64_t kMantissa = (uint64_t{1} << 52) - 1;
      uint64_t assigned[4096 / 64] = {};
      uint16_t code[4096];
      std::vector<int64_t> exp_dict;
      std::vector<uint64_t> lane(n);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t bits = eff(i);
        const uint64_t p = bits >> 52;
        if (((assigned[p >> 6] >> (p & 63)) & 1) == 0) {
          assigned[p >> 6] |= uint64_t{1} << (p & 63);
          code[p] = static_cast<uint16_t>(exp_dict.size());
          exp_dict.push_back(static_cast<int64_t>(p));
        }
        lane[i] = (static_cast<uint64_t>(code[p]) << 52) | (bits & kMantissa);
      }
      col->packed_.Pack(lane,
                        52 + BitPackedVec::WidthFor(exp_dict.size() - 1));
      col->i64_.assign(exp_dict.begin(), exp_dict.end());
      ReplaceLane(&col->f64_, {});
      return true;
    }
    default:
      return false;
  }
}

// Bool bytes and dictionary codes: bit-packed or run-length. `width` is
// the bit-packing width.
template <typename T, typename Eff>
bool EncodeSmall(ColumnVec::Codec codec, Eff eff, int width,
                 std::vector<T>* lane, ColumnVec* col) {
  switch (codec) {
    case ColumnVec::Codec::kBitPack:
      PackLane(eff, col->n_, width,
               [](T v) {
                 if constexpr (std::is_same_v<T, uint8_t>) {
                   return uint64_t{v != 0 ? 1u : 0u};  // a Bool packs 0/1
                 }
                 return static_cast<uint64_t>(v);
               },
               &col->packed_);
      ReplaceLane(lane, {});
      return true;
    case ColumnVec::Codec::kRle: {
      std::vector<T> runs;
      BuildRuns<T>(eff, col->n_, &runs, &col->rle_end_);
      ReplaceLane(lane, std::move(runs));
      return true;
    }
    default:
      return false;
  }
}

// The bytes of a column that no codec changes: the null bitmap and the
// string dictionary.
size_t CodecFreeBytes(const ColumnVec& col) {
  size_t bytes = col.null_bits_.size() * 8;
  for (const std::string& s : col.dict_) bytes += s.size();
  return bytes;
}

// The bit-packed key index of ascending keys (compression on): FOR bases
// and widths of the frame and obj lanes, and the row offsets as residuals
// against the mean rows-per-key stride (prefix sums stay O(1) random
// access). Views with exactly one row per key (every classifier output)
// pack their offsets at width 0.
struct KeyIndexLayout {
  int64_t frame_base = 0;
  int frame_width = 0;
  int64_t obj_min = 0;
  int obj_width = 0;
  int64_t row_stride = 0;
  int64_t row_res_base = 0;
  int row_width = 0;

  // The packed lanes plus the frame/obj FOR bases and the row stride and
  // residual base.
  size_t Bytes(size_t nkeys) const {
    return BitPackedVec::PackedBytes(nkeys, frame_width) +
           BitPackedVec::PackedBytes(nkeys, obj_width) +
           BitPackedVec::PackedBytes(nkeys + 1, row_width) + 32;
  }
};

// The layout of a non-empty key index: `keys` ascending, `row_begin` its
// keys.size() + 1 prefix row offsets.
KeyIndexLayout LayOutKeys(const std::vector<ViewKey>& keys,
                          const std::vector<int32_t>& row_begin) {
  KeyIndexLayout out;
  const size_t nkeys = keys.size();
  out.frame_base = keys.front().frame;
  out.frame_width = BitPackedVec::WidthFor(
      static_cast<uint64_t>(keys.back().frame) -
      static_cast<uint64_t>(out.frame_base));
  out.obj_min = keys.front().obj;
  int64_t obj_hi = out.obj_min;
  for (const ViewKey& key : keys) {
    out.obj_min = std::min(out.obj_min, key.obj);
    obj_hi = std::max(obj_hi, key.obj);
  }
  out.obj_width = BitPackedVec::WidthFor(static_cast<uint64_t>(obj_hi) -
                                         static_cast<uint64_t>(out.obj_min));
  const int64_t n = static_cast<int64_t>(nkeys);
  out.row_stride = (static_cast<int64_t>(row_begin[nkeys]) + n / 2) / n;
  int64_t res_max = 0;
  for (size_t i = 0; i <= nkeys; ++i) {
    const int64_t res = static_cast<int64_t>(row_begin[i]) -
                        out.row_stride * static_cast<int64_t>(i);
    if (i == 0 || res < out.row_res_base) out.row_res_base = res;
    if (i == 0 || res > res_max) res_max = res;
  }
  out.row_width =
      BitPackedVec::WidthFor(static_cast<uint64_t>(res_max - out.row_res_base));
  return out;
}

// Bytes of the key index of `keys` with prefix offsets `row_begin`: the
// packed layout with compression on, 16 B/key + 4 B/offset without.
size_t KeyIndexBytes(const std::vector<ViewKey>& keys,
                     const std::vector<int32_t>& row_begin, bool compress) {
  if (compress && !keys.empty()) {
    return LayOutKeys(keys, row_begin).Bytes(keys.size());
  }
  return keys.size() * 16 + row_begin.size() * 4;
}

}  // namespace

ColumnVec::Enc ColumnVec::EncOf(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return Enc::kInt64;
    case DataType::kDouble:
      return Enc::kDouble;
    case DataType::kBool:
      return Enc::kBool;
    case DataType::kNull:
    case DataType::kString:
      break;
  }
  return Enc::kDict;
}

const char* ColumnVec::CodecName(Codec c) {
  switch (c) {
    case Codec::kPlain:
      return "plain";
    case Codec::kFor:
      return "for";
    case Codec::kBitPack:
      return "bitpack";
    case Codec::kRle:
      return "rle";
    case Codec::kDictNum:
      return "dictnum";
    case Codec::kExpPack:
      return "exppack";
  }
  return "?";
}

size_t ColumnVec::EncodedBytes() const {
  size_t bytes = null_bits_.size() * 8;
  bytes += i64_.size() * 8;
  bytes += f64_.size() * 8;
  bytes += b8_.size();
  bytes += codes_.size() * 4;
  for (const std::string& s : dict_) bytes += s.size();
  bytes += packed_.SizeBytes();
  bytes += rle_end_.size() * 4;
  if (codec_ == Codec::kFor) bytes += 8;
  return bytes;
}

namespace {

// Sign of (key i of `seg`) - (frame, obj): the frame decides unless it
// ties.
int CompareKey(const ColumnarSegment& seg, size_t i, int64_t frame,
               int64_t obj) {
  const int64_t f = seg.key_frame(i);
  if (f != frame) return f < frame ? -1 : 1;
  const int64_t o = seg.key_obj(i);
  return o < obj ? -1 : (o == obj ? 0 : 1);
}

}  // namespace

size_t ColumnarSegment::FindKey(int64_t frame, int64_t obj,
                                KeyCursor* cursor) const {
  KeyCursor fresh;
  KeyCursor& c = cursor != nullptr ? *cursor : fresh;
  const ViewKey key{frame, obj};
  // Keys [0, c.pos) are at or below the previous key: below this one only
  // when it comes after that one.
  if (c.started && !(c.last < key)) c.pos = 0;
  c.started = true;
  c.last = key;
  // Gallop from the cursor: probe pos, pos + 1, pos + 3, ... until a key
  // at or above `key`; every key before `lo` is below it.
  const size_t n = num_keys();
  size_t lo = c.pos, hi = c.pos, step = 1;
  int cmp = 1;  // of key `hi`; past the end counts as above
  while (hi < n && (cmp = CompareKey(*this, hi, frame, obj)) < 0) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  if (hi >= n) {
    hi = n;
    cmp = 1;
  }
  // Bisect [lo, hi) for the first key at or above `key`.
  const size_t top = hi;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const int m = CompareKey(*this, mid, frame, obj);
    if (m == 0) {
      c.pos = mid + 1;
      return mid;
    }
    if (m < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == top && cmp == 0) {
    c.pos = lo + 1;
    return lo;
  }
  c.pos = lo;
  return npos;
}

ColumnPlan PlanColumn(const ColumnVec& col) {
  const size_t n = col.n_;
  if (col.codec_ != ColumnVec::Codec::kPlain || n == 0) {
    return {col.codec_, col.EncodedBytes()};
  }
  Candidate best{};
  switch (col.enc_) {
    case ColumnVec::Enc::kInt64:
      WithEffectiveInt64(col, [&](auto eff) { best = PlanInt64(eff, n); });
      break;
    case ColumnVec::Enc::kDouble:
      WithEffectiveBits(col, [&](auto eff) { best = PlanDouble(eff, n); });
      break;
    case ColumnVec::Enc::kBool:
      WithEffectiveBools(col, [&](auto eff) {
        best = Cheapest({{ColumnVec::Codec::kPlain, n},
                         {ColumnVec::Codec::kBitPack,
                          BitPackedVec::PackedBytes(n, 1)},
                         // 1 B value + 4 B run end
                         {ColumnVec::Codec::kRle, CountRuns(eff, n) * 5}});
      });
      break;
    case ColumnVec::Enc::kDict:
      WithEffectiveCodes(col, [&](auto eff) {
        const int width = BitPackedVec::WidthFor(
            col.dict_.empty() ? 0 : col.dict_.size() - 1);
        best = Cheapest({{ColumnVec::Codec::kPlain, 4 * n},
                         {ColumnVec::Codec::kBitPack,
                          BitPackedVec::PackedBytes(n, width)},
                         // 4 B code + 4 B run end
                         {ColumnVec::Codec::kRle, CountRuns(eff, n) * 8}});
      });
      break;
  }
  return {best.codec, CodecFreeBytes(col) + best.cost};
}

void EncodeColumn(ColumnVec::Codec codec, ColumnVec* col) {
  if (codec == ColumnVec::Codec::kPlain ||
      col->codec_ != ColumnVec::Codec::kPlain || col->n_ == 0) {
    return;
  }
  bool applied = false;
  switch (col->enc_) {
    case ColumnVec::Enc::kInt64:
      WithEffectiveInt64(
          *col, [&](auto eff) { applied = EncodeInt64(codec, eff, col); });
      break;
    case ColumnVec::Enc::kDouble:
      WithEffectiveBits(
          *col, [&](auto eff) { applied = EncodeDouble(codec, eff, col); });
      break;
    case ColumnVec::Enc::kBool:
      WithEffectiveBools(*col, [&](auto eff) {
        applied = EncodeSmall(codec, eff, 1, &col->b8_, col);
      });
      break;
    case ColumnVec::Enc::kDict:
      WithEffectiveCodes(*col, [&](auto eff) {
        const int width = BitPackedVec::WidthFor(
            col->dict_.empty() ? 0 : col->dict_.size() - 1);
        applied = EncodeSmall(codec, eff, width, &col->codes_, col);
      });
      break;
  }
  if (!applied) {
    std::fprintf(stderr, "codec %s does not apply to column encoding %d\n",
                 ColumnVec::CodecName(codec), static_cast<int>(col->enc_));
    std::abort();
  }
  col->codec_ = codec;
}

SegmentPlan PlanSegment(const SegmentCells& cells,
                        const SegmentBuildOptions& options) {
  SegmentPlan plan;
  plan.codecs.reserve(cells.cols.size());
  size_t bytes = 0;
  for (const TailLane& lane : cells.cols) {
    const ColumnPlan col =
        options.compress
            ? PlanColumn(lane.lane())
            : ColumnPlan{ColumnVec::Codec::kPlain, lane.lane().EncodedBytes()};
    plan.codecs.push_back(col.codec);
    bytes += col.bytes;
  }
  bytes += KeyIndexBytes(cells.keys, cells.row_begin, options.compress);
  plan.encoded_bytes = static_cast<int64_t>(bytes);
  return plan;
}

std::shared_ptr<const ColumnarSegment> BuildColumnarSegment(
    SegmentCells cells, const SegmentBuildOptions& options,
    const SegmentPlan* plan) {
  auto seg = std::make_shared<ColumnarSegment>();
  const size_t num_value_cols = cells.cols.size();
  const size_t nkeys = cells.keys.size();
  if (plan != nullptr && plan->codecs.size() != num_value_cols) {
    std::fprintf(stderr, "seal plan of %zu columns for %zu columns\n",
                 plan->codecs.size(), num_value_cols);
    std::abort();
  }
  KeyIndexLayout keys;
  if (nkeys > 0) {
    keys = LayOutKeys(cells.keys, cells.row_begin);
    seg->obj_min = keys.obj_min;
  }
  seg->cols.reserve(num_value_cols);
  for (size_t c = 0; c < num_value_cols; ++c) {
    seg->cols.push_back(std::move(cells.cols[c]).Seal());
  }

  // Footprint accounting against the plain representation, then codecs.
  int64_t raw = static_cast<int64_t>(nkeys) * 16 +
                static_cast<int64_t>(cells.row_begin.size()) * 4;
  int64_t encoded = 0;
  for (size_t c = 0; c < num_value_cols; ++c) {
    ColumnVec& col = seg->cols[c];
    raw += static_cast<int64_t>(col.EncodedBytes());
    if (options.compress) {
      EncodeColumn(plan != nullptr ? plan->codecs[c] : PlanColumn(col).codec,
                   &col);
    }
    encoded += static_cast<int64_t>(col.EncodedBytes());
    seg->codec_cols[static_cast<int>(col.codec_)] += 1;
  }

  if (options.compress && nkeys > 0) {
    // Bit-pack the key index (KeyIndexLayout).
    std::vector<uint64_t> tmp(nkeys);
    for (size_t i = 0; i < nkeys; ++i) {
      tmp[i] = static_cast<uint64_t>(cells.keys[i].frame) -
               static_cast<uint64_t>(keys.frame_base);
    }
    seg->frames_p.Pack(tmp, keys.frame_width);
    for (size_t i = 0; i < nkeys; ++i) {
      tmp[i] = static_cast<uint64_t>(cells.keys[i].obj) -
               static_cast<uint64_t>(keys.obj_min);
    }
    seg->objs_p.Pack(tmp, keys.obj_width);
    tmp.resize(nkeys + 1);
    for (size_t i = 0; i <= nkeys; ++i) {
      tmp[i] = static_cast<uint64_t>(
          static_cast<int64_t>(cells.row_begin[i]) -
          keys.row_stride * static_cast<int64_t>(i) - keys.row_res_base);
    }
    seg->row_begin_p.Pack(tmp, keys.row_width);
    seg->frame_base = keys.frame_base;
    seg->row_stride = keys.row_stride;
    seg->row_res_base = keys.row_res_base;
    seg->packed_keys = true;
    encoded += static_cast<int64_t>(seg->frames_p.SizeBytes() +
                                    seg->objs_p.SizeBytes() +
                                    seg->row_begin_p.SizeBytes()) +
               32;  // frame/obj FOR bases + row stride/residual base
  } else {
    seg->frames.reserve(nkeys);
    seg->objs.reserve(nkeys);
    for (const ViewKey& key : cells.keys) {
      seg->frames.push_back(key.frame);
      seg->objs.push_back(key.obj);
    }
    seg->row_begin = std::move(cells.row_begin);
    encoded += static_cast<int64_t>(nkeys) * 16 +
               static_cast<int64_t>(seg->row_begin.size()) * 4;
  }

  if (plan != nullptr && encoded != plan->encoded_bytes) {
    std::fprintf(stderr, "seal planned %lld bytes, built %lld\n",
                 static_cast<long long>(plan->encoded_bytes),
                 static_cast<long long>(encoded));
    std::abort();
  }
  seg->raw_bytes = raw;
  seg->encoded_bytes = encoded;
  return seg;
}

TailLane::TailLane(DataType type) : type_(type) {
  lane_.enc_ = ColumnVec::EncOf(type);
}

std::vector<TailLane> LanesFor(const Schema& schema) {
  std::vector<TailLane> lanes;
  lanes.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) lanes.emplace_back(f.type);
  return lanes;
}

void TailLane::WrongType(DataType type) const {
  std::fprintf(stderr, "lane of type %s: appended a %s cell\n",
               DataTypeName(type_), DataTypeName(type));
  std::abort();
}

void TailLane::Append(const Value& v) {
  if (v.is_null()) return AppendNull();
  switch (v.type()) {
    case DataType::kInt64:
      return AppendInt64(v.AsInt64());
    case DataType::kDouble:
      return AppendDouble(v.AsDouble());
    case DataType::kBool:
      return AppendBool(v.AsBool());
    case DataType::kString:
      return AppendString(v.AsString());
    case DataType::kNull:
      break;
  }
}

namespace {

// Reads an RLE lane's cells through a run cursor: a row in the cursor's
// run or the next one costs no search (ascending rows walk the runs), any
// other row bisects for its run.
template <typename T>
class RunReader {
 public:
  RunReader(const std::vector<uint32_t>& ends, const std::vector<T>& values)
      : ends_(ends.data()),
        runs_(ends.size()),
        values_(values.data()),
        end_(ends.empty() ? 0 : ends[0]) {}

  T operator()(size_t i) {
    if (i < begin_ || i >= end_) Seek(i);
    return values_[run_];
  }

 private:
  void Seek(size_t i) {
    if (i >= end_ && run_ + 1 < runs_ && i < ends_[run_ + 1]) {
      ++run_;
    } else {
      run_ = static_cast<size_t>(std::upper_bound(ends_, ends_ + runs_, i) -
                                 ends_);
    }
    begin_ = run_ == 0 ? 0 : ends_[run_ - 1];
    end_ = ends_[run_];
  }

  const uint32_t* ends_;
  size_t runs_;
  const T* values_;
  size_t run_ = 0;
  size_t begin_ = 0;  // the cursor run's rows [begin_, end_)
  size_t end_ = 0;
};

// The cell readers of a column, one per codec of its encoding: each calls
// fn(read) once, where read(i) reads non-null row i, so a copy loop runs
// with the codec fixed instead of switching per cell.
template <typename Fn>
void WithInt64Reader(const ColumnVec& src, Fn fn) {
  switch (src.codec_) {
    case ColumnVec::Codec::kFor:
      return fn([&src](size_t i) {
        return src.for_base_ + static_cast<int64_t>(src.packed_.Get(i));
      });
    case ColumnVec::Codec::kRle:
      return fn(RunReader<int64_t>(src.rle_end_, src.i64_));
    case ColumnVec::Codec::kDictNum:
      return fn([&src](size_t i) { return src.i64_[src.packed_.Get(i)]; });
    default:
      return fn([p = src.i64_.data()](size_t i) { return p[i]; });
  }
}

template <typename Fn>
void WithDoubleReader(const ColumnVec& src, Fn fn) {
  switch (src.codec_) {
    case ColumnVec::Codec::kRle:
      return fn(RunReader<double>(src.rle_end_, src.f64_));
    case ColumnVec::Codec::kDictNum:
      return fn([&src](size_t i) { return src.f64_[src.packed_.Get(i)]; });
    case ColumnVec::Codec::kExpPack:
      return fn([&src](size_t i) { return src.ExpPackAt(i); });
    default:
      return fn([p = src.f64_.data()](size_t i) { return p[i]; });
  }
}

template <typename Fn>
void WithBoolReader(const ColumnVec& src, Fn fn) {
  switch (src.codec_) {
    case ColumnVec::Codec::kBitPack:
      return fn([&src](size_t i) {
        return static_cast<uint8_t>(src.packed_.Get(i) != 0 ? 1 : 0);
      });
    case ColumnVec::Codec::kRle:
      return fn([run = RunReader<uint8_t>(src.rle_end_, src.b8_)](
                    size_t i) mutable {
        return static_cast<uint8_t>(run(i) != 0 ? 1 : 0);
      });
    default:
      return fn([p = src.b8_.data()](size_t i) {
        return static_cast<uint8_t>(p[i] != 0 ? 1 : 0);
      });
  }
}

template <typename Fn>
void WithCodeReader(const ColumnVec& src, Fn fn) {
  switch (src.codec_) {
    case ColumnVec::Codec::kBitPack:
      return fn([&src](size_t i) {
        return static_cast<int32_t>(src.packed_.Get(i));
      });
    case ColumnVec::Codec::kRle:
      return fn(RunReader<int32_t>(src.rle_end_, src.codes_));
    default:
      return fn([p = src.codes_.data()](size_t i) { return p[i]; });
  }
}

}  // namespace

template <typename RowFn>
void TailLane::AppendRows(const ColumnVec& src, size_t n, RowFn row,
                          std::vector<int32_t>* remap) {
  if (src.enc_ != lane_.enc_) {
    std::fprintf(stderr, "lane of type %s: appended a lane of encoding %d\n",
                 DataTypeName(type_), static_cast<int>(src.enc_));
    std::abort();
  }
  if (n == 0) return;
  // Typed copies of the n rows into `dst`; cell(i) reads non-null source
  // row i. A source without nulls records its rows in one step.
  auto copy = [&](auto* dst, auto cell) {
    using T = typename std::decay_t<decltype(*dst)>::value_type;
    const size_t base = dst->size();
    dst->resize(base + n);
    T* out = dst->data() + base;
    if (src.null_bits_.empty()) {
      for (size_t j = 0; j < n; ++j) out[j] = cell(row(j));
      PushRows(n);
      return;
    }
    for (size_t j = 0; j < n; ++j) {
      const size_t i = row(j);
      const bool null = src.NullAt(i);
      PushRow(null);
      out[j] = null ? T{} : cell(i);
    }
  };
  switch (lane_.enc_) {
    case ColumnVec::Enc::kInt64:
      WithInt64Reader(src, [&](auto read) { copy(&lane_.i64_, read); });
      break;
    case ColumnVec::Enc::kDouble:
      WithDoubleReader(src, [&](auto read) { copy(&lane_.f64_, read); });
      break;
    case ColumnVec::Enc::kBool:
      WithBoolReader(src, [&](auto read) { copy(&lane_.b8_, read); });
      break;
    case ColumnVec::Enc::kDict:
      if (remap->size() < src.dict_.size()) {
        remap->resize(src.dict_.size(), -1);
      }
      WithCodeReader(src, [&](auto code) {
        copy(&lane_.codes_, [this, &src, remap, code](size_t i) mutable {
          const int32_t src_code = code(i);
          int32_t& mapped = (*remap)[static_cast<size_t>(src_code)];
          if (mapped < 0) {
            mapped = CodeOf(src.dict_[static_cast<size_t>(src_code)]);
          }
          return mapped;
        });
      });
      break;
  }
}

void TailLane::AppendFrom(const ColumnVec& src, size_t begin, size_t end,
                          std::vector<int32_t>* remap) {
  if (end <= begin) return;
  AppendRows(src, end - begin, [begin](size_t k) { return begin + k; },
             remap);
}

void TailLane::AppendGather(const ColumnVec& src, const uint32_t* rows,
                            size_t n, std::vector<int32_t>* remap) {
  AppendRows(src, n, [rows](size_t k) { return size_t{rows[k]}; }, remap);
}

void TailLane::AppendString(const std::string& x) {
  Expect(DataType::kString);
  PushRow(false);
  lane_.codes_.push_back(CodeOf(x));
}

void TailLane::AppendNull() {
  // The typed lane gets a zero placeholder that NullAt masks.
  PushRow(true);
  switch (lane_.enc_) {
    case ColumnVec::Enc::kInt64:
      lane_.i64_.push_back(0);
      break;
    case ColumnVec::Enc::kDouble:
      lane_.f64_.push_back(0);
      break;
    case ColumnVec::Enc::kBool:
      lane_.b8_.push_back(0);
      break;
    case ColumnVec::Enc::kDict:
      lane_.codes_.push_back(0);
      break;
  }
}

void TailLane::PushRowWithNulls(bool null) {
  const size_t i = lane_.n_++;
  // The null bitmap, once allocated, covers every row (NullAt's contract).
  if (!lane_.null_bits_.empty() && (i >> 6) >= lane_.null_bits_.size()) {
    lane_.null_bits_.push_back(0);
  }
  if (null) {
    if (lane_.null_bits_.empty()) lane_.null_bits_.assign((i >> 6) + 1, 0);
    SetNullBit(&lane_.null_bits_, i);
  }
}

void TailLane::PushRows(size_t count) {
  lane_.n_ += count;
  if (!lane_.null_bits_.empty()) {
    lane_.null_bits_.resize((lane_.n_ + 63) >> 6, 0);
  }
}

int32_t TailLane::CodeOf(const std::string& s) {
  auto [it, inserted] =
      codes_.emplace(s, static_cast<int32_t>(lane_.dict_.size()));
  if (inserted) lane_.dict_.push_back(s);
  return it->second;
}

int32_t TailLane::LabelCode(const std::vector<std::string>& vocab,
                            size_t id) {
  // A lane sees one or two vocabularies; the last one comes first.
  size_t t = label_codes_.size();
  while (t > 0 && label_codes_[t - 1].vocab != &vocab) --t;
  if (t == 0) {
    label_codes_.push_back({&vocab, std::vector<int32_t>(vocab.size(), -1)});
    t = label_codes_.size();
  }
  int32_t& code = label_codes_[t - 1].codes[id];
  if (code < 0) code = CodeOf(vocab[id]);
  return code;
}

ColumnVec TailLane::Seal() && { return std::move(lane_); }

}  // namespace eva::storage
