#include "storage/view_persistence.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <functional>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "common/crc32.h"
#include "common/num_parse.h"
#include "common/string_util.h"
#include "symbolic/predicate_io.h"

namespace eva::storage {

namespace {

namespace stdfs = std::filesystem;

std::string SanitizeFilename(const std::string& name) {
  std::string out;
  for (char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '-' || c == '.' || c == '@')
               ? c
               : '_';
  }
  return out;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string JoinPath(const std::string& dir, const std::string& file) {
  return (stdfs::path(dir) / file).string();
}

/// Files the persistence layer owns inside a save directory; anything else
/// (user files) is never removed or quarantined.
bool IsManagedFile(const std::string& name) {
  return EndsWith(name, ".evaseg") || EndsWith(name, ".evastate") ||
         EndsWith(name, ".tmp") || EndsWith(name, ".quarantined") ||
         name == "MANIFEST";
}

/// Sorted basenames of the regular files in `dir` — sorted so the fault
/// points consulted during a sweep form a deterministic sequence the
/// crash-matrix test can enumerate.
std::vector<std::string> ListFiles(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : stdfs::directory_iterator(dir, ec)) {
    std::error_code fec;
    if (!entry.is_regular_file(fec)) continue;
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

struct ManifestEntry {
  std::string file;
  uint64_t size = 0;
  uint32_t crc = 0;
  bool is_lifecycle = false;
  std::string view_name;  // logical view key, "" for the lifecycle entry
};

struct Manifest {
  int64_t generation = 0;
  std::vector<ManifestEntry> entries;
};

enum class ManifestState { kAbsent, kCorrupt, kValid };

std::string RenderManifest(const Manifest& m) {
  std::string out = "eva-manifest 1\n";
  out += "generation " + std::to_string(m.generation) + "\n";
  for (const ManifestEntry& e : m.entries) {
    out += "file " + e.file + " " + std::to_string(e.size) + " " +
           StrFormat("%08x", e.crc) + " " +
           (e.is_lifecycle ? std::string("lifecycle -")
                           : "vseg " + PercentEscape(e.view_name)) +
           "\n";
  }
  out += "checksum " + StrFormat("%08x", Crc32(out)) + "\n";
  return out;
}

bool ParseHex32(const std::string& s, uint32_t* out) {
  if (s.empty() || s.size() > 8 ||
      !std::all_of(s.begin(), s.end(), [](char c) {
        return std::isxdigit(static_cast<unsigned char>(c)) != 0;
      })) {
    return false;
  }
  *out = static_cast<uint32_t>(std::stoul(s, nullptr, 16));
  return true;
}

bool ParseManifest(const std::string& content, Manifest* m) {
  // The self-checksum line must be last and cover every preceding byte.
  size_t pos = content.rfind("\nchecksum ");
  if (pos == std::string::npos) return false;
  const std::string body = content.substr(0, pos + 1);
  {
    std::istringstream is(content.substr(pos + 1));
    std::string tag, hex, extra;
    if (!(is >> tag >> hex) || tag != "checksum" || (is >> extra)) {
      return false;
    }
    uint32_t claimed = 0;
    if (!ParseHex32(hex, &claimed) || claimed != Crc32(body)) return false;
  }
  std::istringstream lines(body);
  std::string line;
  if (!std::getline(lines, line) || line != "eva-manifest 1") return false;
  if (!std::getline(lines, line) || !StartsWith(line, "generation ")) {
    return false;
  }
  if (!ParseInt64(line.substr(11), &m->generation) || m->generation < 1) {
    return false;
  }
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (!StartsWith(line, "file ")) return false;
    std::istringstream is(line.substr(5));
    ManifestEntry e;
    std::string size_tok, crc_tok, kind, name_tok;
    if (!(is >> e.file >> size_tok >> crc_tok >> kind >> name_tok)) {
      return false;
    }
    int64_t size = 0;
    if (!ParseInt64(size_tok, &size) || size < 0) return false;
    e.size = static_cast<uint64_t>(size);
    if (!ParseHex32(crc_tok, &e.crc)) return false;
    if (kind == "lifecycle") {
      e.is_lifecycle = true;
    } else if (kind == "vseg") {
      auto name = PercentUnescape(name_tok);
      if (!name.ok()) return false;
      e.view_name = std::move(name.value());
    } else {
      return false;
    }
    m->entries.push_back(std::move(e));
  }
  return true;
}

/// Reads and verifies dir/MANIFEST. Returns a Status only for a simulated
/// crash (the injector halted); every other failure degrades to kAbsent or
/// kCorrupt so recovery can proceed.
Result<ManifestState> ReadManifest(const std::string& dir, fault::FaultFs* fs,
                                   Manifest* out) {
  auto res = fs->ReadFile(JoinPath(dir, "MANIFEST"));
  if (!res.ok()) {
    if (fs->halted()) return res.status();
    return res.status().code() == StatusCode::kNotFound
               ? ManifestState::kAbsent
               : ManifestState::kCorrupt;
  }
  return ParseManifest(res.value(), out) ? ManifestState::kValid
                                         : ManifestState::kCorrupt;
}

/// Commits `m` as dir/MANIFEST (tmp + fsync + rename), then garbage
/// collects every managed file the new manifest does not list: stale views
/// of dropped/evicted signatures, the previous generation, leftover tmp
/// and quarantine files. Removal failures are ignored (the next load
/// quarantines whatever survived) unless the injector halted.
Status CommitManifest(const std::string& dir, const Manifest& m,
                      fault::FaultFs* fs) {
  const std::string text = RenderManifest(m);
  const std::string tmp = JoinPath(dir, "MANIFEST.tmp");
  EVA_RETURN_IF_ERROR(fs->WriteFile(tmp, text));
  EVA_RETURN_IF_ERROR(fs->Rename(tmp, JoinPath(dir, "MANIFEST")));
  std::set<std::string> keep = {"MANIFEST"};
  for (const ManifestEntry& e : m.entries) keep.insert(e.file);
  for (const std::string& name : ListFiles(dir)) {
    if (keep.count(name) > 0 || !IsManagedFile(name)) continue;
    Status st = fs->Remove(JoinPath(dir, name));
    if (!st.ok() && fs->halted()) return st;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Binary .evaseg codec files (compressed sealed segments)
// ---------------------------------------------------------------------------

constexpr char kSegMagic[] = "eva-seg 1\n";

void WritePacked(ByteWriter* w, const BitPackedVec& p) {
  w->U8(static_cast<uint8_t>(p.width()));
  for (uint64_t word : p.words()) w->U64(word);
}

bool ReadPacked(ByteReader* r, size_t n, BitPackedVec* p) {
  uint8_t width;
  if (!r->U8(&width) || width > 64) return false;
  size_t bytes = BitPackedVec::PackedBytes(n, width);
  if (r->remaining() < bytes) return false;
  std::vector<uint64_t> words(bytes / 8);
  for (uint64_t& word : words) {
    if (!r->U64(&word)) return false;
  }
  p->Restore(n, width, std::move(words));
  return true;
}

void WriteNullBits(ByteWriter* w, const ColumnVec& col) {
  w->U8(col.null_bits_.empty() ? 0 : 1);
  for (uint64_t word : col.null_bits_) w->U64(word);
}

bool ReadNullBits(ByteReader* r, size_t n, ColumnVec* col) {
  uint8_t has;
  if (!r->U8(&has) || has > 1) return false;
  if (has == 0) return true;
  size_t words = (n + 63) / 64;
  if (r->remaining() < words * 8) return false;
  col->null_bits_.resize(words);
  for (uint64_t& word : col->null_bits_) {
    if (!r->U64(&word)) return false;
  }
  return true;
}

bool ReadRleEnds(ByteReader* r, size_t runs, size_t n,
                 std::vector<uint32_t>* ends) {
  ends->resize(runs);
  uint64_t prev = 0;
  for (size_t i = 0; i < runs; ++i) {
    uint64_t e;
    if (!r->Varint(&e)) return false;
    if (e <= prev || e > n) return false;  // strictly increasing, in range
    (*ends)[i] = static_cast<uint32_t>(e);
    prev = e;
  }
  return runs == 0 ? n == 0 : prev == n;
}

void WriteColumn(ByteWriter* w, const ColumnVec& col) {
  w->U8(static_cast<uint8_t>(col.enc_));
  w->U8(static_cast<uint8_t>(col.codec_));
  w->Varint(col.n_);
  WriteNullBits(w, col);
  switch (col.enc_) {
    case ColumnVec::Enc::kInt64:
      if (col.codec_ == ColumnVec::Codec::kFor) {
        w->Zigzag(col.for_base_);
        WritePacked(w, col.packed_);
      } else if (col.codec_ == ColumnVec::Codec::kDictNum) {
        w->Varint(col.i64_.size());
        for (int64_t v : col.i64_) w->Zigzag(v);
        WritePacked(w, col.packed_);
      } else {  // kPlain / kRle value lane (+ run ends for kRle)
        w->Varint(col.i64_.size());
        for (int64_t v : col.i64_) w->Zigzag(v);
        if (col.codec_ == ColumnVec::Codec::kRle) {
          for (uint32_t e : col.rle_end_) w->Varint(e);
        }
      }
      break;
    case ColumnVec::Enc::kDouble:
      if (col.codec_ == ColumnVec::Codec::kExpPack) {
        // Sign/exponent prefix dictionary (12-bit values) + packed lane.
        w->Varint(col.i64_.size());
        for (int64_t v : col.i64_) w->Varint(static_cast<uint64_t>(v));
        WritePacked(w, col.packed_);
        break;
      }
      w->Varint(col.f64_.size());
      for (double v : col.f64_) w->F64(v);
      if (col.codec_ == ColumnVec::Codec::kRle) {
        for (uint32_t e : col.rle_end_) w->Varint(e);
      } else if (col.codec_ == ColumnVec::Codec::kDictNum) {
        WritePacked(w, col.packed_);
      }
      break;
    case ColumnVec::Enc::kBool:
      if (col.codec_ == ColumnVec::Codec::kBitPack) {
        WritePacked(w, col.packed_);
      } else {
        w->Varint(col.b8_.size());
        w->Bytes(col.b8_.data(), col.b8_.size());
        if (col.codec_ == ColumnVec::Codec::kRle) {
          for (uint32_t e : col.rle_end_) w->Varint(e);
        }
      }
      break;
    case ColumnVec::Enc::kDict:
      w->Varint(col.dict_.size());
      for (const std::string& s : col.dict_) w->Str(s);
      if (col.codec_ == ColumnVec::Codec::kBitPack) {
        WritePacked(w, col.packed_);
      } else {
        w->Varint(col.codes_.size());
        for (int32_t c : col.codes_) w->Varint(static_cast<uint64_t>(c));
        if (col.codec_ == ColumnVec::Codec::kRle) {
          for (uint32_t e : col.rle_end_) w->Varint(e);
        }
      }
      break;
  }
}

/// Reads and exhaustively validates one column of a `type` field: the
/// encoding the type implies, lane sizes, codec/enc legality, dictionary
/// code ranges, run offsets. After a successful read, At(i) is safe for
/// every i < n.
bool ReadColumn(ByteReader* r, size_t expected_rows, DataType type,
                ColumnVec* col) {
  uint8_t enc_b, codec_b;
  if (!r->U8(&enc_b) || !r->U8(&codec_b)) return false;
  if (enc_b != static_cast<uint8_t>(ColumnVec::EncOf(type))) return false;
  if (codec_b >= ColumnVec::kNumCodecs) return false;
  col->enc_ = static_cast<ColumnVec::Enc>(enc_b);
  col->codec_ = static_cast<ColumnVec::Codec>(codec_b);
  const auto codec = col->codec_;
  uint64_t n;
  if (!r->Varint(&n) || n > ByteReader::kMaxCount) return false;
  if (n != expected_rows) return false;
  col->n_ = static_cast<size_t>(n);
  if (!ReadNullBits(r, col->n_, col)) return false;
  auto read_ends = [&](size_t runs) {
    return ReadRleEnds(r, runs, col->n_, &col->rle_end_);
  };
  switch (col->enc_) {
    case ColumnVec::Enc::kInt64: {
      if (codec == ColumnVec::Codec::kBitPack ||
          codec == ColumnVec::Codec::kExpPack) {
        return false;
      }
      if (codec == ColumnVec::Codec::kFor) {
        return r->Zigzag(&col->for_base_) &&
               ReadPacked(r, col->n_, &col->packed_);
      }
      uint64_t m;
      if (!r->Count(&m)) return false;
      if (codec == ColumnVec::Codec::kPlain && m != n) return false;
      if (codec != ColumnVec::Codec::kPlain && (m == 0 || m > n)) {
        return false;
      }
      col->i64_.resize(static_cast<size_t>(m));
      for (int64_t& v : col->i64_) {
        if (!r->Zigzag(&v)) return false;
      }
      if (codec == ColumnVec::Codec::kRle) return read_ends(col->i64_.size());
      if (codec == ColumnVec::Codec::kDictNum) {
        if (!ReadPacked(r, col->n_, &col->packed_)) return false;
        for (size_t i = 0; i < col->n_; ++i) {
          if (col->packed_.Get(i) >= m) return false;
        }
      }
      return true;
    }
    case ColumnVec::Enc::kDouble: {
      if (codec == ColumnVec::Codec::kBitPack ||
          codec == ColumnVec::Codec::kFor) {
        return false;
      }
      if (codec == ColumnVec::Codec::kExpPack) {
        // Prefix dictionary: 1..4096 distinct 12-bit values, then the
        // packed lane whose top bits index it. After validation At(i)
        // is safe for every i < n.
        uint64_t m;
        if (!r->Count(&m) || m == 0 || m > 4096) return false;
        col->i64_.resize(static_cast<size_t>(m));
        for (int64_t& v : col->i64_) {
          uint64_t u;
          if (!r->Varint(&u) || u > 0xFFF) return false;
          v = static_cast<int64_t>(u);
        }
        if (!ReadPacked(r, col->n_, &col->packed_)) return false;
        for (size_t i = 0; i < col->n_; ++i) {
          if ((col->packed_.Get(i) >> 52) >= m) return false;
        }
        return true;
      }
      uint64_t m;
      if (!r->Count(&m, 8)) return false;
      if (codec == ColumnVec::Codec::kPlain && m != n) return false;
      if (codec != ColumnVec::Codec::kPlain && (m == 0 || m > n)) {
        return false;
      }
      col->f64_.resize(static_cast<size_t>(m));
      for (double& v : col->f64_) {
        if (!r->F64(&v)) return false;
      }
      if (codec == ColumnVec::Codec::kRle) return read_ends(col->f64_.size());
      if (codec == ColumnVec::Codec::kDictNum) {
        if (!ReadPacked(r, col->n_, &col->packed_)) return false;
        for (size_t i = 0; i < col->n_; ++i) {
          if (col->packed_.Get(i) >= m) return false;
        }
      }
      return true;
    }
    case ColumnVec::Enc::kBool: {
      if (codec == ColumnVec::Codec::kFor ||
          codec == ColumnVec::Codec::kDictNum ||
          codec == ColumnVec::Codec::kExpPack) {
        return false;
      }
      if (codec == ColumnVec::Codec::kBitPack) {
        return ReadPacked(r, col->n_, &col->packed_) &&
               col->packed_.width() <= 1;
      }
      uint64_t m;
      if (!r->Count(&m)) return false;
      if (codec == ColumnVec::Codec::kPlain && m != n) return false;
      if (codec == ColumnVec::Codec::kRle && (m == 0 || m > n)) return false;
      if (r->remaining() < m) return false;
      col->b8_.resize(static_cast<size_t>(m));
      for (uint8_t& v : col->b8_) {
        if (!r->U8(&v)) return false;
      }
      if (codec == ColumnVec::Codec::kRle) return read_ends(col->b8_.size());
      return true;
    }
    case ColumnVec::Enc::kDict: {
      if (codec == ColumnVec::Codec::kFor ||
          codec == ColumnVec::Codec::kDictNum ||
          codec == ColumnVec::Codec::kExpPack) {
        return false;
      }
      uint64_t d;
      if (!r->Count(&d)) return false;
      col->dict_.resize(static_cast<size_t>(d));
      for (std::string& s : col->dict_) {
        if (!r->Str(&s)) return false;
      }
      // Every non-null row has a dictionary entry; a NULL row holds code
      // 0, which only a column without non-null rows may leave undefined.
      if (d == 0) {
        for (size_t i = 0; i < col->n_; ++i) {
          if (!col->NullAt(i)) return false;
        }
      }
      const uint64_t codes = std::max<uint64_t>(d, 1);
      if (codec == ColumnVec::Codec::kBitPack) {
        if (!ReadPacked(r, col->n_, &col->packed_)) return false;
        for (size_t i = 0; i < col->n_; ++i) {
          if (col->packed_.Get(i) >= codes) return false;
        }
        return true;
      }
      uint64_t m;
      if (!r->Count(&m)) return false;
      if (codec == ColumnVec::Codec::kPlain && m != n) return false;
      if (codec == ColumnVec::Codec::kRle && (m == 0 || m > n)) return false;
      col->codes_.resize(static_cast<size_t>(m));
      for (int32_t& c : col->codes_) {
        uint64_t v;
        if (!r->Varint(&v) || v >= codes) return false;
        c = static_cast<int32_t>(v);
      }
      if (codec == ColumnVec::Codec::kRle) {
        return read_ends(col->codes_.size());
      }
      return true;
    }
  }
  return false;
}

}  // namespace

std::string SerializeSegments(
    const std::string& name, const Schema& schema,
    const std::vector<const ColumnarSegment*>& segments) {
  ByteWriter w;
  w.Bytes(kSegMagic, sizeof(kSegMagic) - 1);
  w.Str(name);
  w.Varint(schema.num_fields());
  for (const Field& f : schema.fields()) {
    w.Str(f.name);
    w.U8(static_cast<uint8_t>(f.type));
  }
  w.Varint(segments.size());
  for (const ColumnarSegment* seg : segments) {
    const size_t nkeys = seg->num_keys();
    w.Varint(nkeys);
    int64_t prev_frame = 0;
    for (size_t i = 0; i < nkeys; ++i) {
      int64_t f = seg->key_frame(i);
      w.Zigzag(f - prev_frame);
      prev_frame = f;
    }
    for (size_t i = 0; i < nkeys; ++i) w.Zigzag(seg->key_obj(i));
    for (size_t i = 0; i < nkeys; ++i) {
      w.Varint(static_cast<uint64_t>(seg->row_begin_at(i + 1) -
                                     seg->row_begin_at(i)));
    }
    w.Varint(seg->cols.size());
    for (const ColumnVec& col : seg->cols) WriteColumn(&w, col);
  }
  return w.Take();
}

std::string SerializeViewSegments(const std::string& name,
                                  const MaterializedView& view) {
  auto sealed = view.SealedSegments();
  std::vector<const ColumnarSegment*> segments;
  segments.reserve(sealed.size());
  for (const auto& [seg_id, seg] : sealed) segments.push_back(seg.get());
  return SerializeSegments(name, view.value_schema(), segments);
}

Result<DecodedSegments> DecodeSegmentBody(std::string_view content,
                                          const std::string& file) {
  const size_t magic_len = sizeof(kSegMagic) - 1;
  if (content.substr(0, magic_len) != kSegMagic) {
    return Status::InvalidArgument("bad segment file header: " + file);
  }
  ByteReader r(content.data() + magic_len, content.size() - magic_len);
  auto corrupt = [&file](const char* what) {
    return Status::InvalidArgument(std::string("corrupt segment file ") +
                                   file + ": " + what);
  };
  DecodedSegments out;
  if (!r.Str(&out.name)) return corrupt("name");
  uint64_t nfields;
  if (!r.Count(&nfields)) return corrupt("schema count");
  for (uint64_t i = 0; i < nfields; ++i) {
    std::string fname;
    uint8_t type;
    // A view's fields are typed; only an execution chunk has NULL fields.
    if (!r.Str(&fname) || !r.U8(&type) ||
        type == static_cast<uint8_t>(DataType::kNull) ||
        type > static_cast<uint8_t>(DataType::kString)) {
      return corrupt("schema field");
    }
    out.schema.AddField({fname, static_cast<DataType>(type)});
  }
  uint64_t nsegs;
  if (!r.Count(&nsegs)) return corrupt("segment count");
  for (uint64_t s = 0; s < nsegs; ++s) {
    uint64_t nkeys;
    if (!r.Count(&nkeys)) return corrupt("key count");
    DecodedSegment seg;
    seg.keys.resize(static_cast<size_t>(nkeys));
    int64_t frame = 0;
    for (ViewKey& k : seg.keys) {
      int64_t delta;
      if (!r.Zigzag(&delta)) return corrupt("frame delta");
      frame += delta;
      k.frame = frame;
    }
    for (ViewKey& k : seg.keys) {
      if (!r.Zigzag(&k.obj)) return corrupt("obj");
    }
    for (size_t i = 1; i < seg.keys.size(); ++i) {
      if (!(seg.keys[i - 1] < seg.keys[i])) return corrupt("key order");
    }
    uint64_t total_rows = 0;
    for (size_t i = 0; i < seg.keys.size(); ++i) {
      uint64_t v;
      if (!r.Varint(&v) || v > ByteReader::kMaxCount) {
        return corrupt("row count");
      }
      total_rows += v;
      if (total_rows > ByteReader::kMaxCount) return corrupt("row total");
      seg.key_rows.push_back(static_cast<uint32_t>(total_rows));
    }
    uint64_t ncols;
    if (!r.Count(&ncols)) return corrupt("column count");
    if (ncols != nfields) return corrupt("column count mismatch");
    seg.cols.resize(static_cast<size_t>(ncols));
    for (size_t c = 0; c < seg.cols.size(); ++c) {
      if (!ReadColumn(&r, static_cast<size_t>(total_rows),
                      out.schema.field(c).type, &seg.cols[c])) {
        return corrupt("column");
      }
    }
    out.segments.push_back(std::move(seg));
  }
  if (!r.done()) return corrupt("trailing bytes");
  return out;
}

Status InstallSegments(const DecodedSegments& decoded, uint64_t tick,
                       int64_t query_id, ViewStore* store) {
  MaterializedView* view = store->GetOrCreate(decoded.name, decoded.schema);
  if (!(view->value_schema() == decoded.schema)) {
    return Status::InvalidArgument(
        "segments of view " + decoded.name + " have schema " +
        decoded.schema.ToString() + ", the view has " +
        view->value_schema().ToString());
  }
  const std::function<uint64_t()> next_tick = [tick] { return tick; };
  std::vector<uint32_t> rows;  // identity: key_rows index the columns
  std::vector<const ColumnVec*> cols;
  std::vector<uint8_t> inserted;
  for (const DecodedSegment& seg : decoded.segments) {
    rows.resize(seg.key_rows.back());
    std::iota(rows.begin(), rows.end(), uint32_t{0});
    cols.clear();
    for (const ColumnVec& col : seg.cols) cols.push_back(&col);
    PutRemaps remaps;  // each segment's columns have their own dictionaries
    view->PutBatch(seg.keys, {}, seg.key_rows, rows, cols, next_tick,
                   query_id, &remaps, &inserted);
  }
  return Status::OK();
}

Status ParseSegmentBody(const std::string& content, const std::string& file,
                        ViewStore* store) {
  EVA_ASSIGN_OR_RETURN(DecodedSegments decoded,
                       DecodeSegmentBody(content, file));
  return InstallSegments(decoded, /*tick=*/0, /*query_id=*/-1, store);
}

namespace {

// ---------------------------------------------------------------------------
// Lifecycle serialization / parsing
// ---------------------------------------------------------------------------

std::string SerializeLifecycle(const ViewStore& store,
                               const udf::UdfManager& manager) {
  std::ostringstream out;
  out << "eva-lifecycle 1\n";
  for (const auto& [name, view] : store.views()) {
    out << "view " << PercentEscape(name) << " " << view->segment_frames()
        << "\n";
    for (const SegmentStats& seg : view->Segments()) {
      out << "segment " << seg.segment_id << " " << seg.info.keys << " "
          << seg.info.rows << " " << seg.info.created_tick << " "
          << seg.info.last_access_tick << " " << seg.info.last_access_query
          << "\n";
    }
  }
  for (const auto& [key, entry] : manager.entries()) {
    out << "coverage " << PercentEscape(key) << " "
        << symbolic::EncodePredicate(entry.coverage) << "\n";
  }
  return out.str();
}

struct LifecycleStaged {
  struct ViewStamps {
    std::string name;
    int64_t segment_frames = 0;
    std::vector<std::pair<int64_t, SegmentInfo>> segments;
  };
  std::vector<ViewStamps> views;
  std::vector<std::pair<std::string, symbolic::Predicate>> coverage;
};

/// Parses the whole lifecycle body before anything is applied — a file
/// that fails halfway installs no stamps and no coverage, so a torn
/// lifecycle file can never leave partially-claimed coverage behind.
Status ParseLifecycleBody(const std::string& content,
                          const std::string& file, LifecycleStaged* out) {
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line) || line != "eva-lifecycle 1") {
    return Status::InvalidArgument("bad lifecycle file header: " + file);
  }
  while (std::getline(in, line)) {
    if (StartsWith(line, "view ")) {
      std::istringstream is(line.substr(5));
      std::string name_tok;
      LifecycleStaged::ViewStamps stamps;
      if (!(is >> name_tok >> stamps.segment_frames)) {
        return Status::InvalidArgument("truncated view line: " + line);
      }
      EVA_ASSIGN_OR_RETURN(stamps.name, PercentUnescape(name_tok));
      out->views.push_back(std::move(stamps));
    } else if (StartsWith(line, "segment ")) {
      if (out->views.empty()) {
        return Status::InvalidArgument("segment before view: " + line);
      }
      std::istringstream is(line.substr(8));
      int64_t id = 0;
      SegmentInfo info;
      if (!(is >> id >> info.keys >> info.rows >> info.created_tick >>
            info.last_access_tick >> info.last_access_query)) {
        return Status::InvalidArgument("truncated segment line: " + line);
      }
      out->views.back().segments.emplace_back(id, info);
    } else if (StartsWith(line, "coverage ")) {
      std::istringstream is(line.substr(9));
      std::string key_tok;
      if (!(is >> key_tok)) {
        return Status::InvalidArgument("truncated coverage line: " + line);
      }
      EVA_ASSIGN_OR_RETURN(std::string key, PercentUnescape(key_tok));
      std::string encoded;
      std::getline(is, encoded);
      if (!encoded.empty() && encoded.front() == ' ') encoded.erase(0, 1);
      EVA_ASSIGN_OR_RETURN(symbolic::Predicate coverage,
                           symbolic::DecodePredicate(encoded));
      out->coverage.emplace_back(std::move(key), std::move(coverage));
    } else if (!line.empty()) {
      return Status::InvalidArgument("unexpected lifecycle line: " + line);
    }
  }
  return Status::OK();
}

void ApplyLifecycle(const LifecycleStaged& staged, ViewStore* store,
                    udf::UdfManager* manager) {
  uint64_t newest = 0;
  for (const auto& stamps : staged.views) {
    MaterializedView* view = store->Find(stamps.name);
    // A view absent from the store, or reloaded with a different segment
    // width, keeps fresh stamps — a safe default.
    if (view == nullptr || view->segment_frames() != stamps.segment_frames) {
      continue;
    }
    for (const auto& [id, info] : stamps.segments) {
      view->RestoreSegmentStamps(id, info);
      newest = std::max({newest, info.created_tick, info.last_access_tick});
    }
  }
  store->AdvanceAccessTick(newest);
  if (manager == nullptr) return;
  for (const auto& [key, coverage] : staged.coverage) {
    // Existing coverage wins, mirroring the "existing keys win" merge
    // semantics of the view loader.
    if (!manager->HasCoverage(key)) {
      manager->SetCoverage(key, coverage);
    }
  }
}

// ---------------------------------------------------------------------------
// Quarantine + save/load internals
// ---------------------------------------------------------------------------

/// Sets `file` aside as `<file>.quarantined` and records it. The rename
/// failing (file already gone, injected fault) still records the
/// quarantine — the file is skipped by the load either way — unless the
/// injector halted (simulated crash propagates).
Status Quarantine(fault::FaultFs* fs, const std::string& dir,
                  const std::string& file, const std::string& view_key,
                  const std::string& reason, RecoveryReport* report) {
  Status st =
      fs->Rename(JoinPath(dir, file), JoinPath(dir, file + ".quarantined"));
  if (!st.ok() && fs->halted()) return st;
  report->quarantined.push_back({file, view_key, reason});
  return Status::OK();
}

/// Removes leftover `.tmp` files (an interrupted save never renamed them)
/// and quarantines every other managed file outside `keep`: it was never
/// committed, so it cannot be trusted.
Status Sweep(fault::FaultFs* fs, const std::string& dir,
             const std::set<std::string>& keep, const std::string& reason,
             RecoveryReport* report) {
  for (const std::string& name : ListFiles(dir)) {
    if (keep.count(name) > 0 || !IsManagedFile(name)) continue;
    if (EndsWith(name, ".quarantined")) continue;
    if (EndsWith(name, ".tmp")) {
      Status st = fs->Remove(JoinPath(dir, name));
      if (!st.ok() && fs->halted()) return st;
      if (st.ok()) ++report->tmp_removed;
      continue;
    }
    EVA_RETURN_IF_ERROR(Quarantine(fs, dir, name, "", reason, report));
  }
  return Status::OK();
}

}  // namespace

std::string RecoveryReport::Summary() const {
  std::string out =
      StrFormat("generation %lld", static_cast<long long>(generation));
  if (clean() && tmp_removed == 0) return out + ", clean";
  if (manifest_corrupt) out += ", MANIFEST corrupt (quarantined)";
  if (!quarantined.empty()) {
    out += StrFormat(", quarantined %d file(s):",
                     static_cast<int>(quarantined.size()));
    for (const QuarantinedFile& q : quarantined) {
      out += " " + q.file + " (" + q.reason + ")";
    }
  }
  if (!retracted.empty()) {
    out += StrFormat(", retracted coverage for %d signature(s)",
                     static_cast<int>(retracted.size()));
  }
  if (tmp_removed > 0) {
    out += StrFormat(", removed %lld tmp file(s)",
                     static_cast<long long>(tmp_removed));
  }
  return out;
}

Status SaveSession(const ViewStore& store, const udf::UdfManager& manager,
                   const std::string& dir, fault::FaultFs* fs) {
  fault::FaultFs plain;
  if (fs == nullptr) fs = &plain;
  EVA_RETURN_IF_ERROR(fs->CreateDirs(dir));
  Manifest old;
  EVA_ASSIGN_OR_RETURN(ManifestState old_state, ReadManifest(dir, fs, &old));
  Manifest next;
  next.generation =
      (old_state == ManifestState::kValid ? old.generation : 0) + 1;
  const std::string gen_tag = ".g" + std::to_string(next.generation);
  auto write_atomic = [&](const std::string& file, const std::string& body,
                          bool is_lifecycle,
                          const std::string& view_name) -> Status {
    const std::string path = JoinPath(dir, file);
    EVA_RETURN_IF_ERROR(fs->WriteFile(path + ".tmp", body));
    EVA_RETURN_IF_ERROR(fs->Rename(path + ".tmp", path));
    next.entries.push_back(
        {file, body.size(), Crc32(body), is_lifecycle, view_name});
    return Status::OK();
  };
  for (const auto& [name, view] : store.views()) {
    EVA_RETURN_IF_ERROR(
        write_atomic(SanitizeFilename(name) + gen_tag + ".evaseg",
                     SerializeViewSegments(name, *view), false, name));
  }
  EVA_RETURN_IF_ERROR(write_atomic("lifecycle" + gen_tag + ".evastate",
                                   SerializeLifecycle(store, manager), true,
                                   ""));
  return CommitManifest(dir, next, fs);
}

Result<int64_t> ManifestGeneration(const std::string& dir,
                                   fault::FaultFs* fs) {
  fault::FaultFs plain;
  if (fs == nullptr) fs = &plain;
  Manifest manifest;
  EVA_ASSIGN_OR_RETURN(ManifestState state, ReadManifest(dir, fs, &manifest));
  switch (state) {
    case ManifestState::kValid:
      return manifest.generation;
    case ManifestState::kAbsent:
      return static_cast<int64_t>(0);
    case ManifestState::kCorrupt:
      break;
  }
  return Status::Internal("corrupt MANIFEST in " + dir);
}

Result<RecoveryReport> LoadSession(const std::string& dir, ViewStore* store,
                                   udf::UdfManager* manager,
                                   fault::FaultFs* fs) {
  fault::FaultFs plain;
  if (fs == nullptr) fs = &plain;
  std::error_code ec;
  if (!stdfs::is_directory(dir, ec)) {
    return Status::NotFound("view directory missing: " + dir);
  }
  RecoveryReport report;
  Manifest manifest;
  EVA_ASSIGN_OR_RETURN(ManifestState state,
                       ReadManifest(dir, fs, &manifest));
  if (state == ManifestState::kCorrupt) {
    // A torn or bit-flipped manifest means nothing in the directory can be
    // verified: quarantine everything and install no coverage. Pure
    // underclaim — every query recomputes, results stay correct.
    report.manifest_corrupt = true;
    EVA_RETURN_IF_ERROR(
        Quarantine(fs, dir, "MANIFEST", "", "manifest corrupt", &report));
    EVA_RETURN_IF_ERROR(
        Sweep(fs, dir, {"MANIFEST"}, "manifest corrupt", &report));
    return report;
  }
  // No MANIFEST reads as an empty generation 0: nothing was ever
  // committed, so the sweep below quarantines every view file.
  report.generation = manifest.generation;
  LifecycleStaged lifecycle;
  auto load_entry = [&](const ManifestEntry& e) -> Status {
    auto res = fs->ReadFile(JoinPath(dir, e.file));
    if (!res.ok()) {
      if (fs->halted()) return res.status();
      return Status::Internal("unreadable: " + res.status().message());
    }
    const std::string& body = res.value();
    if (body.size() != e.size || Crc32(body) != e.crc) {
      return Status::Internal("checksum mismatch");
    }
    if (!e.is_lifecycle) return ParseSegmentBody(body, e.file, store);
    // Staged whole, so a torn lifecycle file installs no stamps and no
    // coverage.
    LifecycleStaged staged;
    EVA_RETURN_IF_ERROR(ParseLifecycleBody(body, e.file, &staged));
    lifecycle = std::move(staged);
    return Status::OK();
  };
  std::set<std::string> listed = {"MANIFEST"};
  for (const ManifestEntry& e : manifest.entries) {
    listed.insert(e.file);
    Status loaded = load_entry(e);
    if (loaded.ok()) continue;
    if (fs->halted()) return loaded;
    // Quarantine and carry on; for the lifecycle file, fresh stamps and
    // empty coverage are always safe.
    EVA_RETURN_IF_ERROR(Quarantine(fs, dir, e.file, e.view_name,
                                   loaded.message(), &report));
  }
  EVA_RETURN_IF_ERROR(Sweep(fs, dir, listed, "not in manifest", &report));
  ApplyLifecycle(lifecycle, store, manager);
  if (manager != nullptr) {
    // Soundness: a quarantined view's rows are gone, so any coverage its
    // signature claims would overclaim — retract it entirely (p_u ← FALSE
    // via Subtract with TRUE; underclaiming only costs recomputation).
    std::set<std::string> done;
    for (const QuarantinedFile& q : report.quarantined) {
      if (q.view_key.empty() || done.count(q.view_key) > 0) continue;
      done.insert(q.view_key);
      if (!manager->HasCoverage(q.view_key)) continue;
      manager->RetractCoverage(q.view_key, symbolic::Predicate::True());
      report.retracted.push_back(q.view_key);
    }
  }
  return report;
}

}  // namespace eva::storage
