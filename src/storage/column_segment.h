#ifndef EVA_STORAGE_COLUMN_SEGMENT_H_
#define EVA_STORAGE_COLUMN_SEGMENT_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "storage/bloom_filter.h"
#include "storage/segment_codec.h"

namespace eva::storage {

/// Key identifying the input tuple a UDF result belongs to: a frame for
/// detectors/filters, a (frame, object) pair for classifiers (obj = -1 for
/// frame-level results).
struct ViewKey {
  int64_t frame = 0;
  int64_t obj = -1;

  bool operator==(const ViewKey& other) const {
    return frame == other.frame && obj == other.obj;
  }
  bool operator<(const ViewKey& other) const {
    return frame != other.frame ? frame < other.frame : obj < other.obj;
  }
};

struct ViewKeyHash {
  size_t operator()(const ViewKey& k) const {
    return std::hash<int64_t>()(k.frame * 1000003 + k.obj);
  }
};

/// Typed column vector of one materialized-view segment or execution
/// chunk. A column's encoding follows from its schema field's type
/// (EncOf), and a NULL cell is a bit in the null bitmap. On top of the
/// type encoding a lightweight codec may compress the physical lane
/// (chosen at seal time by byte cost — see docs/STORAGE.md):
/// frame-of-reference bit-packing for integers, run-length for any
/// repetitive lane, plain bit-packing for bools and dictionary codes, and a
/// numeric dictionary for low-cardinality Int64/Double columns. At(i)
/// reconstructs the exact Value that was stored — segments are the only
/// copy of a view's rows (Value::Compare distinguishes Int64 from Double,
/// so codecs never widen, quantize, or reorder).
class ColumnVec {
 public:
  enum class Enc : uint8_t {
    kInt64 = 0,  // Int64 cells
    kDouble,     // Double cells
    kBool,       // Bool cells
    kDict,       // String cells, dictionary-coded
  };

  /// The encoding of a column of `type` cells. A NULL-typed column (a
  /// NULL literal's select item) is a dictionary that never gets an entry.
  static Enc EncOf(DataType type);

  /// Physical lane codec (orthogonal to Enc).
  enum class Codec : uint8_t {
    kPlain = 0,  // the typed lane as-is
    kFor,        // Int64: bit-packed deltas from for_base_
    kBitPack,    // Bool / dict codes: bit-packed raw values
    kRle,        // run values in the typed lane + cumulative run ends
    kDictNum,    // Int64/Double: distinct values + bit-packed indexes
    kExpPack,    // Double: sign/exponent dictionary + packed mantissas
  };
  static constexpr int kNumCodecs = 6;
  static const char* CodecName(Codec c);

  Value At(size_t i) const {
    if (NullAt(i)) return Value::Null();
    switch (enc_) {
      case Enc::kInt64:
        return Value(Int64At(i));
      case Enc::kDouble:
        return Value(DoubleAt(i));
      case Enc::kBool:
        return Value(BoolAt(i));
      case Enc::kDict:
        return Value(dict_[static_cast<size_t>(CodeAt(i))]);
    }
    return Value::Null();
  }

  // Typed readers: the cell at non-null row i of a column of the matching
  // encoding, decoded through whatever codec the lane carries.
  int64_t Int64At(size_t i) const {
    switch (codec_) {
      case Codec::kFor:
        return for_base_ + static_cast<int64_t>(packed_.Get(i));
      case Codec::kRle:
        return i64_[RunOf(i)];
      case Codec::kDictNum:
        return i64_[packed_.Get(i)];
      default:
        return i64_[i];
    }
  }
  double DoubleAt(size_t i) const {
    switch (codec_) {
      case Codec::kRle:
        return f64_[RunOf(i)];
      case Codec::kDictNum:
        return f64_[packed_.Get(i)];
      case Codec::kExpPack:
        return ExpPackAt(i);
      default:
        return f64_[i];
    }
  }
  /// DoubleAt of a kExpPack lane.
  double ExpPackAt(size_t i) const {
    // Lane value = (prefix code << 52) | 52-bit mantissa; i64_
    // dictionaries the distinct sign/exponent prefixes. Bit-level
    // reconstruction, so NaN payloads and -0.0 survive.
    uint64_t v = packed_.Get(i);
    uint64_t bits =
        (static_cast<uint64_t>(i64_[static_cast<size_t>(v >> 52)]) << 52) |
        (v & ((uint64_t{1} << 52) - 1));
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
  }
  bool BoolAt(size_t i) const {
    switch (codec_) {
      case Codec::kBitPack:
        return packed_.Get(i) != 0;
      case Codec::kRle:
        return b8_[RunOf(i)] != 0;
      default:
        return b8_[i] != 0;
    }
  }
  int32_t CodeAt(size_t i) const {  // index into dict_
    switch (codec_) {
      case Codec::kBitPack:
        return static_cast<int32_t>(packed_.Get(i));
      case Codec::kRle:
        return codes_[RunOf(i)];
      default:
        return codes_[i];
    }
  }

  bool NullAt(size_t i) const {
    return !null_bits_.empty() &&
           ((null_bits_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  Enc enc() const { return enc_; }
  Codec codec() const { return codec_; }
  size_t size() const { return n_; }

  /// Heap bytes of the current physical representation (data lanes +
  /// null bitmap + dictionary) — the number eviction accounting charges.
  size_t EncodedBytes() const;

  // Representation is internal to the storage layer; BuildColumnarSegment,
  // TailLane, and the .evaseg codec fill it directly.
  Enc enc_ = Enc::kInt64;
  Codec codec_ = Codec::kPlain;
  size_t n_ = 0;                      // logical row count
  std::vector<uint64_t> null_bits_;   // packed; empty = no nulls
  std::vector<int64_t> i64_;          // plain/RLE/dict values; kExpPack
                                      // sign+exponent prefix dictionary
  std::vector<double> f64_;
  std::vector<uint8_t> b8_;
  std::vector<int32_t> codes_;        // plain / RLE-run dict codes
  std::vector<std::string> dict_;     // insertion order
  int64_t for_base_ = 0;              // kFor reference value
  BitPackedVec packed_;               // kFor deltas / kBitPack / kDictNum idx
  std::vector<uint32_t> rle_end_;     // kRle cumulative run end offsets

  /// Run index containing row i (upper_bound over rle_end_).
  size_t RunOf(size_t i) const {
    size_t lo = 0, hi = rle_end_.size();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (rle_end_[mid] <= i) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
};

/// Per-column zone summary used for segment skipping: a probe can prove a
/// residual predicate unsatisfiable for every row of a segment and skip
/// materializing its hits. `valid` is the master flag — it is false when
/// integer magnitudes exceed the double-exact range or a Double cell is
/// NaN, and consumers must then treat the column as unbounded. Zone maps
/// are computed from the raw cells BEFORE any codec is applied, so skip
/// decisions are independent of the compression configuration.
struct ZoneMapEntry {
  bool valid = false;
  DataType type = DataType::kNull;  // the column's field type
  bool has_nulls = false;
  bool all_null = true;  // no non-null cell in the segment
  double num_min = 0;    // Int64 / Double / Bool(0,1) bounds
  double num_max = 0;
  std::vector<std::string> strings;  // sorted distinct values (kString)
};

/// Seal-time storage configuration, threaded from EngineOptions through
/// ViewStore/MaterializedView. Defaults preserve the pre-codec behavior
/// (plain lanes, no filter) for direct library callers; the engine turns
/// both features on unless configured otherwise.
struct SegmentBuildOptions {
  bool compress = false;     // pick per-column codecs + pack the key index
  int bloom_bits_per_key = 0;  // 0 disables the per-segment Bloom filter
};

/// Where a walk of one segment's key index stands (FindKey's cursor):
/// keys [0, pos) are at or below `last`, the previous key searched.
struct KeyCursor {
  size_t pos = 0;
  ViewKey last;
  bool started = false;
};

/// Immutable sealed part of one view segment: keys sorted by (frame, obj)
/// with prefix row offsets, one ColumnVec per value-schema field, and a
/// zone map per column. Shared via shared_ptr so a probe can keep reading
/// a segment that a concurrent reseal replaces. When built with
/// compression the key index lives in bit-packed lanes (access via
/// key_frame/key_obj/row_begin_at); a per-segment split-block Bloom filter
/// over the keys short-circuits probe misses before the key-index search.
struct ColumnarSegment {
  std::vector<int64_t> frames;     // per key, ascending (frame, obj)
  std::vector<int64_t> objs;       // per key
  std::vector<int32_t> row_begin;  // size keys+1: offsets into the columns
  // Bit-packed key index (compression on): frames/objs/row_begin above are
  // empty and these hold FOR-packed absolutes (O(1) random access).
  // row_begin packs residuals against the mean rows-per-key stride, so
  // one-row-per-key views (classifier outputs) collapse to width 0.
  bool packed_keys = false;
  int64_t frame_base = 0;
  int64_t row_stride = 0;    // rows per key, rounded
  int64_t row_res_base = 0;  // FOR base of the stride residuals
  BitPackedVec frames_p;
  BitPackedVec objs_p;
  BitPackedVec row_begin_p;

  std::vector<ColumnVec> cols;      // one per value-schema field
  std::vector<ZoneMapEntry> zones;  // parallel to cols
  BloomFilter bloom;                // over HashViewKey of every key
  int64_t obj_min = 0;  // over keys (classifier zone checks on "obj")
  int64_t obj_max = 0;

  /// Footprint accounting (docs/STORAGE.md): raw = the plain columnar
  /// representation (16 B/key index + 4 B/key offsets + plain lanes),
  /// encoded = the representation actually held (codec lanes + packed
  /// keys + Bloom blocks). Equal but for the Bloom bytes when built
  /// without compression.
  int64_t raw_bytes = 0;
  int64_t encoded_bytes = 0;
  int codec_cols[ColumnVec::kNumCodecs] = {};

  int64_t key_frame(size_t i) const {
    return packed_keys ? frame_base + static_cast<int64_t>(frames_p.Get(i))
                       : frames[i];
  }
  int64_t key_obj(size_t i) const {
    return packed_keys ? obj_min + static_cast<int64_t>(objs_p.Get(i))
                       : objs[i];
  }
  int32_t row_begin_at(size_t i) const {
    return packed_keys
               ? static_cast<int32_t>(
                     row_res_base +
                     row_stride * static_cast<int64_t>(i) +
                     static_cast<int64_t>(row_begin_p.Get(i)))
               : row_begin[i];
  }

  size_t num_keys() const {
    return packed_keys ? frames_p.size() : frames.size();
  }
  int64_t num_rows() const {
    size_t n = num_keys();
    return n == 0 ? 0 : row_begin_at(n);
  }
  int64_t frame_min() const {
    return num_keys() == 0 ? 0 : key_frame(0);
  }
  int64_t frame_max() const {
    size_t n = num_keys();
    return n == 0 ? 0 : key_frame(n - 1);
  }

  /// Index of (frame, obj) in the sorted key arrays, or npos when absent.
  /// With `cursor` (the previous search of this segment's key index), a
  /// key above the previous one is searched from where that one ended,
  /// galloping forward: one key-index entry read per key for dense
  /// ascending probes. A repeated or backwards key restarts from the
  /// front, as does a null cursor.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t FindKey(int64_t frame, int64_t obj, KeyCursor* cursor) const;

  /// Reconstructs the value row at flattened row index `r`.
  Row RowAt(int64_t r) const {
    Row row;
    row.reserve(cols.size());
    for (const ColumnVec& c : cols) {
      row.push_back(c.At(static_cast<size_t>(r)));
    }
    return row;
  }
};

/// Append-only plain column lane of one schema field's type: a segment's
/// open tail, the lanes a seal gathers, and an execution chunk's columns.
/// A lane holds only cells of its type and NULLs; appending a cell of
/// another type is a programming error and aborts. lane().At(i) reads it
/// like any plain ColumnVec.
class TailLane {
 public:
  explicit TailLane(DataType type);

  DataType type() const { return type_; }
  /// Appends `v`, which is NULL or of type().
  void Append(const Value& v);
  /// Appends rows [begin, end) of `src` (a sealed column or another lane
  /// of the same encoding), with the same result as appending each
  /// src.At(i). Cells are copied as typed values, and dictionary codes go
  /// through `remap`: src code -> this lane's code, -1 until first seen.
  /// Pass one `remap` per source column and keep it across calls.
  void AppendFrom(const ColumnVec& src, size_t begin, size_t end,
                  std::vector<int32_t>* remap);
  /// Index-list form of AppendFrom: appends src rows rows[0..n), in that
  /// order, with the same result as appending each src.At(rows[k]).
  void AppendGather(const ColumnVec& src, const uint32_t* rows, size_t n,
                    std::vector<int32_t>* remap);
  // Typed appends, each equal to Append(Value(x)) without building the
  // Value.
  void AppendInt64(int64_t x);
  void AppendDouble(double x);
  void AppendBool(bool x);
  void AppendString(const std::string& x);
  /// AppendString(vocab[id]) for an entry of a long-lived vocabulary: the
  /// entry's lane code comes from a per-vocabulary table, so the name is
  /// neither copied nor hashed after its first append. `vocab` must
  /// outlive the lane and not change.
  void AppendLabel(const std::vector<std::string>& vocab, size_t id);
  void AppendNull();
  const ColumnVec& lane() const { return lane_; }
  /// The sealed plain column and its zone map (computed before codecs).
  ColumnVec Seal(ZoneMapEntry* zone) &&;

 private:
  /// Appends src.At(row(k)) for k in [0, n): AppendFrom and AppendGather.
  template <typename RowFn>
  void AppendRows(const ColumnVec& src, size_t n, RowFn row,
                  std::vector<int32_t>* remap);
  /// Aborts unless the lane is of `type`.
  void Expect(DataType type) const;
  void PushRow(bool null);
  /// PushRow(false) `count` times.
  void PushRows(size_t count);
  int32_t CodeOf(const std::string& s);
  /// Lane code of vocab[id] through the vocabulary's table.
  int32_t LabelCode(const std::vector<std::string>& vocab, size_t id);

  ColumnVec lane_;
  DataType type_;
  std::unordered_map<std::string, int32_t> codes_;  // kDict: cell -> code
  struct LabelCodes {
    const std::vector<std::string>* vocab;
    std::vector<int32_t> codes;  // vocabulary id -> lane code, -1 unseen
  };
  std::vector<LabelCodes> label_codes_;  // kDict: one per vocabulary seen
};

/// One empty lane per field of `schema`, typed by the field.
std::vector<TailLane> LanesFor(const Schema& schema);

/// Keys with prefix row offsets over one TailLane per value-schema field:
/// key i's rows are [row_begin[i], row_begin[i + 1]) of every lane. An open
/// tail holds its keys strictly ascending; a reseal gathers the sealed and
/// tail keys ascending.
struct SegmentCells {
  std::vector<ViewKey> keys;
  std::vector<int32_t> row_begin{0};
  std::vector<TailLane> cols;
};

/// A seal's codec choice for one plain column, and the bytes the column
/// holds once encoded with it (its EncodedBytes()).
struct ColumnPlan {
  ColumnVec::Codec codec = ColumnVec::Codec::kPlain;
  size_t bytes = 0;
};

/// Chooses the codec of one plain column: the cheapest applicable one by
/// byte cost, ties to the earlier Codec value (docs/STORAGE.md). One pass
/// over the column's effective lane prices every codec but the numeric
/// dictionary; a hash bitmap of the lane, filled until it shows the
/// dictionary cannot win, comes before any dictionary is built. An encoded
/// column keeps its codec.
ColumnPlan PlanColumn(const ColumnVec& col);

/// Rewrites the plain column `col` in place under `codec`, a codec
/// PlanColumn can choose for the column's encoding (aborts otherwise);
/// kPlain, and a column already encoded, stay as they are. Under the codec
/// PlanColumn chose, the column then holds exactly the planned bytes.
void EncodeColumn(ColumnVec::Codec codec, ColumnVec* col);

/// What BuildColumnarSegment(cells, options) builds, without building it:
/// each value column's codec and the segment's exact encoded_bytes.
struct SegmentPlan {
  std::vector<ColumnVec::Codec> codecs;  // one per value column
  int64_t encoded_bytes = 0;
};

/// Plans the seal of ascending-key cells: the column plans plus the key
/// index and Bloom filter sizes, with no encoded lane built.
SegmentPlan PlanSegment(const SegmentCells& cells,
                        const SegmentBuildOptions& options);

/// BuildColumnarSegment(cells, options)->encoded_bytes, without building.
inline int64_t PlanSegmentBytes(const SegmentCells& cells,
                                const SegmentBuildOptions& options) {
  return PlanSegment(cells, options).encoded_bytes;
}

/// Seals ascending-key cells into an immutable segment. `options` selects
/// the seal-time codecs and Bloom filter; the reconstructed values are
/// bit-identical for every configuration, and the result depends only on
/// the cells (a reseal of sealed + tail equals a one-shot seal). With
/// `plan` (PlanSegment of the same cells and options) the columns take the
/// planned codecs instead of choosing again; a plan whose bytes the build
/// does not reproduce aborts.
std::shared_ptr<const ColumnarSegment> BuildColumnarSegment(
    SegmentCells cells, const SegmentBuildOptions& options = {},
    const SegmentPlan* plan = nullptr);

}  // namespace eva::storage

#endif  // EVA_STORAGE_COLUMN_SEGMENT_H_
