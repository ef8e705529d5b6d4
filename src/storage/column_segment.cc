#include "storage/column_segment.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace eva::storage {

namespace {

// Integer magnitudes beyond this are not exactly representable as doubles;
// zone bounds for such columns are marked invalid rather than approximate.
constexpr double kDoubleExactLimit = 4503599627370496.0;  // 2^52

// Numeric dictionaries stop being considered past this distinct count.
constexpr size_t kMaxNumDictCardinality = 4096;

void SetNullBit(std::vector<uint64_t>* bits, size_t i) {
  (*bits)[i >> 6] |= uint64_t{1} << (i & 63);
}

uint64_t DoubleBits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, 8);
  return b;
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

template <typename T>
size_t CountRuns(const std::vector<T>& v) {
  if (v.empty()) return 0;
  size_t runs = 1;
  for (size_t i = 1; i < v.size(); ++i) {
    if (!(v[i] == v[i - 1])) ++runs;
  }
  return runs;
}

template <typename T>
void BuildRuns(const std::vector<T>& v, std::vector<T>* values,
               std::vector<uint32_t>* ends) {
  values->clear();
  ends->clear();
  for (size_t i = 0; i < v.size(); ++i) {
    if (i == 0 || !(v[i] == v[i - 1])) {
      values->push_back(v[i]);
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

// First-occurrence dictionary over an integer-comparable lane, found
// through an open-addressing table of dictionary positions. Returns false
// once the cardinality cap is passed, or once the dictionary's byte cost
// reaches `give_up`: the cost only grows with the dictionary, so from then
// on the codec cannot win.
template <typename T>
bool BuildNumDict(const std::vector<T>& v, size_t give_up,
                  std::vector<T>* dict, std::vector<uint64_t>* indexes) {
  dict->clear();
  indexes->clear();
  indexes->reserve(v.size());
  // At most half full: the table never holds more than cap + 1 values.
  const size_t max_distinct = std::min(v.size(), kMaxNumDictCardinality + 1);
  int bits = 4;
  while ((size_t{1} << bits) < 2 * max_distinct) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  std::vector<int32_t> slots(mask + 1, -1);
  for (const T& x : v) {
    size_t h = static_cast<size_t>(
        (static_cast<uint64_t>(x) * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
    while (slots[h] >= 0 && (*dict)[static_cast<size_t>(slots[h])] != x) {
      h = (h + 1) & mask;
    }
    if (slots[h] < 0) {
      slots[h] = static_cast<int32_t>(dict->size());
      dict->push_back(x);
      if (dict->size() > kMaxNumDictCardinality ||
          NumDictCost(v.size(), dict->size()) >= give_up) {
        return false;
      }
    }
    indexes->push_back(static_cast<uint64_t>(slots[h]));
  }
  return true;
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

void CompressColumn(ColumnVec* col) {
  if (col->codec_ != ColumnVec::Codec::kPlain) return;  // already encoded
  const size_t n = col->n_;
  if (n == 0) return;

  switch (col->enc_) {
    case ColumnVec::Enc::kInt64: {
      auto eff = EffectiveLane<int64_t>(
          *col, n, [&](size_t i) { return col->i64_[i]; });
      int64_t mn = eff[0], mx = eff[0];
      for (int64_t v : eff) {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      uint64_t range = static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
      int for_w = BitPackedVec::WidthFor(range);
      size_t cost_plain = 8 * n;
      size_t cost_for = BitPackedVec::PackedBytes(n, for_w) + 8;
      size_t runs = CountRuns(eff);
      size_t cost_rle = runs * 12;  // 8 B value + 4 B run end
      // Ties go to the earlier codec, so the dictionary must beat all three.
      std::vector<int64_t> dict;
      std::vector<uint64_t> idx;
      bool dict_ok = BuildNumDict(
          eff, std::min({cost_plain, cost_for, cost_rle}), &dict, &idx);
      int dict_w =
          dict_ok ? BitPackedVec::WidthFor(dict.empty() ? 0 : dict.size() - 1)
                  : 0;
      size_t cost_dict = dict_ok ? NumDictCost(n, dict.size()) : ~size_t{0};
      size_t best = std::min({cost_plain, cost_for, cost_rle, cost_dict});
      if (best == cost_plain) return;
      if (best == cost_for) {
        std::vector<uint64_t> deltas(n);
        for (size_t i = 0; i < n; ++i) {
          deltas[i] = static_cast<uint64_t>(eff[i]) -
                      static_cast<uint64_t>(mn);
        }
        col->packed_.Pack(deltas, for_w);
        col->for_base_ = mn;
        col->i64_.clear();
        col->i64_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kFor;
      } else if (best == cost_rle) {
        std::vector<int64_t> run_vals;
        BuildRuns(eff, &run_vals, &col->rle_end_);
        col->i64_ = std::move(run_vals);
        col->i64_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kRle;
      } else {
        col->packed_.Pack(idx, dict_w);
        col->i64_ = std::move(dict);
        col->i64_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kDictNum;
      }
      break;
    }
    case ColumnVec::Enc::kDouble: {
      // Codec equality is over bit patterns so -0.0 / NaN payloads survive
      // the round trip exactly.
      auto eff = EffectiveLane<uint64_t>(
          *col, n, [&](size_t i) { return DoubleBits(col->f64_[i]); });
      size_t cost_plain = 8 * n;
      size_t runs = CountRuns(eff);
      size_t cost_rle = runs * 12;
      // Sign/exponent prefix dictionary + packed 52-bit mantissas: the
      // codec of last resort for high-entropy doubles (detector areas and
      // scores), whose 12-bit prefix takes a handful of values while the
      // mantissa is incompressible. At most 4096 distinct prefixes exist,
      // so this dictionary never overflows and a direct table finds them.
      std::vector<int32_t> prefix_code(4096, -1);
      std::vector<uint64_t> exp_dict;
      for (uint64_t bits : eff) {
        int32_t& code = prefix_code[bits >> 52];
        if (code < 0) {
          code = static_cast<int32_t>(exp_dict.size());
          exp_dict.push_back(bits >> 52);
        }
      }
      int exp_w = 52 + BitPackedVec::WidthFor(
                           exp_dict.empty() ? 0 : exp_dict.size() - 1);
      size_t cost_exp =
          exp_dict.size() * 8 + BitPackedVec::PackedBytes(n, exp_w);
      // Ties go to the earlier codec: the value dictionary must beat plain
      // and RLE, and at most tie the prefix dictionary.
      std::vector<uint64_t> dict;
      std::vector<uint64_t> idx;
      bool dict_ok = BuildNumDict(
          eff, std::min({cost_plain, cost_rle, cost_exp + 1}), &dict, &idx);
      int dict_w =
          dict_ok ? BitPackedVec::WidthFor(dict.empty() ? 0 : dict.size() - 1)
                  : 0;
      size_t cost_dict = dict_ok ? NumDictCost(n, dict.size()) : ~size_t{0};
      size_t best = std::min({cost_plain, cost_rle, cost_dict, cost_exp});
      if (best == cost_plain) return;
      auto to_double = [](uint64_t b) {
        double d;
        std::memcpy(&d, &b, 8);
        return d;
      };
      if (best == cost_rle) {
        std::vector<uint64_t> run_vals;
        BuildRuns(eff, &run_vals, &col->rle_end_);
        col->f64_.clear();
        col->f64_.reserve(run_vals.size());
        for (uint64_t b : run_vals) col->f64_.push_back(to_double(b));
        col->f64_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kRle;
      } else if (best == cost_dict) {
        col->packed_.Pack(idx, dict_w);
        col->f64_.clear();
        col->f64_.reserve(dict.size());
        for (uint64_t b : dict) col->f64_.push_back(to_double(b));
        col->f64_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kDictNum;
      } else {
        constexpr uint64_t kMantissa = (uint64_t{1} << 52) - 1;
        std::vector<uint64_t> lane(n);
        for (size_t i = 0; i < n; ++i) {
          lane[i] = (static_cast<uint64_t>(prefix_code[eff[i] >> 52]) << 52) |
                    (eff[i] & kMantissa);
        }
        col->packed_.Pack(lane, exp_w);
        col->i64_.assign(exp_dict.begin(), exp_dict.end());
        col->f64_.clear();
        col->f64_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kExpPack;
      }
      break;
    }
    case ColumnVec::Enc::kBool: {
      auto eff = EffectiveLane<uint8_t>(
          *col, n, [&](size_t i) { return col->b8_[i]; });
      size_t cost_plain = n;
      size_t cost_pack = BitPackedVec::PackedBytes(n, 1);
      size_t runs = CountRuns(eff);
      size_t cost_rle = runs * 5;
      size_t best = std::min({cost_plain, cost_pack, cost_rle});
      if (best == cost_plain) return;
      if (best == cost_pack) {
        std::vector<uint64_t> bits(n);
        for (size_t i = 0; i < n; ++i) bits[i] = eff[i] ? 1 : 0;
        col->packed_.Pack(bits, 1);
        col->b8_.clear();
        col->b8_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kBitPack;
      } else {
        std::vector<uint8_t> run_vals;
        BuildRuns(eff, &run_vals, &col->rle_end_);
        col->b8_ = std::move(run_vals);
        col->b8_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kRle;
      }
      break;
    }
    case ColumnVec::Enc::kDict: {
      auto eff = EffectiveLane<int32_t>(
          *col, n, [&](size_t i) { return col->codes_[i]; });
      size_t cost_plain = 4 * n;
      int pack_w = BitPackedVec::WidthFor(
          col->dict_.empty() ? 0 : col->dict_.size() - 1);
      size_t cost_pack = BitPackedVec::PackedBytes(n, pack_w);
      size_t runs = CountRuns(eff);
      size_t cost_rle = runs * 8;  // 4 B code + 4 B run end
      size_t best = std::min({cost_plain, cost_pack, cost_rle});
      if (best == cost_plain) return;
      if (best == cost_pack) {
        std::vector<uint64_t> idx(n);
        for (size_t i = 0; i < n; ++i) {
          idx[i] = static_cast<uint64_t>(eff[i]);
        }
        col->packed_.Pack(idx, pack_w);
        col->codes_.clear();
        col->codes_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kBitPack;
      } else {
        std::vector<int32_t> run_vals;
        BuildRuns(eff, &run_vals, &col->rle_end_);
        col->codes_ = std::move(run_vals);
        col->codes_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kRle;
      }
      break;
    }
  }
}

std::shared_ptr<const ColumnarSegment> BuildColumnarSegment(
    SegmentCells cells, const SegmentBuildOptions& options) {
  auto seg = std::make_shared<ColumnarSegment>();
  const size_t num_value_cols = cells.cols.size();
  seg->row_begin = std::move(cells.row_begin);
  seg->frames.reserve(cells.keys.size());
  seg->objs.reserve(cells.keys.size());
  for (const ViewKey& key : cells.keys) {
    seg->frames.push_back(key.frame);
    seg->objs.push_back(key.obj);
  }
  if (!cells.keys.empty()) {
    auto [mn, mx] = std::minmax_element(seg->objs.begin(), seg->objs.end());
    seg->obj_min = *mn;
    seg->obj_max = *mx;
  }
  const int32_t rows_total = seg->row_begin.back();
  seg->cols.reserve(num_value_cols);
  seg->zones.resize(num_value_cols);
  for (size_t c = 0; c < num_value_cols; ++c) {
    seg->cols.push_back(std::move(cells.cols[c]).Seal(&seg->zones[c]));
  }

  // Footprint accounting against the plain representation, then codecs.
  const size_t nkeys = seg->frames.size();
  int64_t raw = static_cast<int64_t>(nkeys) * 16 +
                static_cast<int64_t>(seg->row_begin.size()) * 4;
  int64_t encoded = 0;
  for (ColumnVec& col : seg->cols) {
    raw += static_cast<int64_t>(col.EncodedBytes());
  }
  if (options.compress) {
    for (ColumnVec& col : seg->cols) CompressColumn(&col);
  }
  for (ColumnVec& col : seg->cols) {
    encoded += static_cast<int64_t>(col.EncodedBytes());
    seg->codec_cols[static_cast<int>(col.codec_)] += 1;
  }

  if (options.compress && nkeys > 0) {
    // Bit-pack the key index: frames/objs as FOR deltas, row offsets as
    // fixed-width absolutes (prefix sums stay O(1) random access).
    seg->frame_base = seg->frames.front();
    uint64_t frange = static_cast<uint64_t>(seg->frames.back()) -
                      static_cast<uint64_t>(seg->frame_base);
    uint64_t orange = static_cast<uint64_t>(seg->obj_max) -
                      static_cast<uint64_t>(seg->obj_min);
    std::vector<uint64_t> tmp(nkeys);
    for (size_t i = 0; i < nkeys; ++i) {
      tmp[i] = static_cast<uint64_t>(seg->frames[i]) -
               static_cast<uint64_t>(seg->frame_base);
    }
    seg->frames_p.Pack(tmp, BitPackedVec::WidthFor(frange));
    for (size_t i = 0; i < nkeys; ++i) {
      tmp[i] = static_cast<uint64_t>(seg->objs[i]) -
               static_cast<uint64_t>(seg->obj_min);
    }
    seg->objs_p.Pack(tmp, BitPackedVec::WidthFor(orange));
    // Row offsets pack as residuals against the mean rows-per-key stride
    // (prefix sums stay O(1) random access). Views with exactly one row
    // per key — every classifier output — collapse to width 0.
    const int64_t stride =
        (rows_total + static_cast<int64_t>(nkeys) / 2) /
        static_cast<int64_t>(nkeys);
    int64_t res_min = 0, res_max = 0;
    for (size_t i = 0; i <= nkeys; ++i) {
      int64_t res = static_cast<int64_t>(seg->row_begin[i]) -
                    stride * static_cast<int64_t>(i);
      if (i == 0 || res < res_min) res_min = res;
      if (i == 0 || res > res_max) res_max = res;
    }
    tmp.resize(nkeys + 1);
    for (size_t i = 0; i <= nkeys; ++i) {
      tmp[i] = static_cast<uint64_t>(
          static_cast<int64_t>(seg->row_begin[i]) -
          stride * static_cast<int64_t>(i) - res_min);
    }
    seg->row_begin_p.Pack(
        tmp, BitPackedVec::WidthFor(
                 static_cast<uint64_t>(res_max - res_min)));
    seg->row_stride = stride;
    seg->row_res_base = res_min;
    seg->packed_keys = true;
    encoded += static_cast<int64_t>(seg->frames_p.SizeBytes() +
                                    seg->objs_p.SizeBytes() +
                                    seg->row_begin_p.SizeBytes()) +
               32;  // frame/obj FOR bases + row stride/residual base
    seg->frames.clear();
    seg->frames.shrink_to_fit();
    seg->objs.clear();
    seg->objs.shrink_to_fit();
    seg->row_begin.clear();
    seg->row_begin.shrink_to_fit();
  } else {
    encoded += static_cast<int64_t>(nkeys) * 16 +
               static_cast<int64_t>(seg->row_begin.size()) * 4;
  }

  if (options.bloom_bits_per_key > 0 && nkeys > 0) {
    std::vector<uint64_t> hashes(nkeys);
    for (size_t i = 0; i < nkeys; ++i) {
      hashes[i] = HashViewKey(seg->key_frame(i), seg->key_obj(i));
    }
    seg->bloom.Build(hashes, options.bloom_bits_per_key);
    encoded += static_cast<int64_t>(seg->bloom.SizeBytes());
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

void TailLane::Expect(DataType type) const {
  if (type == type_) return;
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

void TailLane::AppendInt64(int64_t x) {
  Expect(DataType::kInt64);
  PushRow(false);
  lane_.i64_.push_back(x);
}

void TailLane::AppendDouble(double x) {
  Expect(DataType::kDouble);
  PushRow(false);
  lane_.f64_.push_back(x);
}

void TailLane::AppendBool(bool x) {
  Expect(DataType::kBool);
  PushRow(false);
  lane_.b8_.push_back(x ? 1 : 0);
}

void TailLane::AppendString(const std::string& x) {
  Expect(DataType::kString);
  PushRow(false);
  lane_.codes_.push_back(CodeOf(x));
}

void TailLane::AppendLabel(const std::vector<std::string>& vocab,
                           size_t id) {
  Expect(DataType::kString);
  PushRow(false);
  lane_.codes_.push_back(LabelCode(vocab, id));
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

void TailLane::PushRow(bool null) {
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

ColumnVec TailLane::Seal(ZoneMapEntry* zone) && {
  // Zone maps (and the string distinct list) come from the cells in row
  // order, before any codec touches the lane.
  ColumnVec col = std::move(lane_);
  zone->valid = true;
  zone->type = type_;
  zone->has_nulls = !col.null_bits_.empty();
  size_t nulls = 0;
  for (uint64_t word : col.null_bits_) nulls += std::popcount(word);
  // An all-null column keeps an (empty-bounds) valid zone so skipping can
  // reason about it.
  zone->all_null = nulls == col.n_;
  bool first = true;
  auto update = [&](double d) {
    zone->num_min = first ? d : std::min(zone->num_min, d);
    zone->num_max = first ? d : std::max(zone->num_max, d);
    first = false;
  };
  for (size_t i = 0; i < col.n_; ++i) {
    if (col.NullAt(i)) continue;
    switch (col.enc_) {
      case ColumnVec::Enc::kInt64:
        if (std::llabs(col.i64_[i]) > static_cast<int64_t>(kDoubleExactLimit)) {
          zone->valid = false;
        }
        update(static_cast<double>(col.i64_[i]));
        break;
      case ColumnVec::Enc::kDouble:
        if (std::isnan(col.f64_[i])) zone->valid = false;
        update(col.f64_[i]);
        break;
      case ColumnVec::Enc::kBool:
        update(col.b8_[i] != 0 ? 1.0 : 0.0);
        break;
      case ColumnVec::Enc::kDict:
        break;
    }
  }
  if (col.enc_ == ColumnVec::Enc::kDict) {
    zone->strings = col.dict_;
    std::sort(zone->strings.begin(), zone->strings.end());
  }
  return col;
}

}  // namespace eva::storage
