#include "wal/wal_log.h"

#include <sstream>
#include <string_view>

#include "common/crc32.h"
#include "common/string_util.h"
#include "storage/segment_codec.h"
#include "storage/view_persistence.h"
#include "symbolic/predicate_io.h"

namespace eva::wal {

namespace {

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t GetU32(const char* p) {
  auto b = [&](int i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

/// A frame longer than this is assumed to be garbage, not a record — it
/// bounds how much memory a corrupt length header can make replay touch.
constexpr uint32_t kMaxFrameLength = 64u << 20;

bool KnownType(uint8_t t) {
  return std::string_view(WalRecordTypeName(static_cast<WalRecordType>(t))) !=
         "unknown";
}

}  // namespace

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kCheckpoint:
      return "checkpoint";
    case WalRecordType::kSegmentAppend:
      return "segment_append";
    case WalRecordType::kCoverageUnion:
      return "coverage_union";
    case WalRecordType::kCoverageSet:
      return "coverage_set";
    case WalRecordType::kCoverageRetraction:
      return "coverage_retraction";
    case WalRecordType::kViewEviction:
      return "view_eviction";
    case WalRecordType::kIngestAdvance:
      return "ingest_advance";
  }
  return "unknown";
}

std::string WalFileName(int64_t generation) {
  return "wal.g" + std::to_string(generation) + ".evalog";
}

std::string EncodeFrame(const WalRecord& rec) {
  std::string body;
  body.push_back(static_cast<char>(rec.type));
  body += rec.payload;
  std::string out;
  out.reserve(8 + body.size());
  PutU32(&out, static_cast<uint32_t>(body.size()));
  PutU32(&out, Crc32(body));
  out += body;
  return out;
}

WalScan ScanWal(const std::string& bytes) {
  WalScan scan;
  size_t pos = 0;
  while (pos + 8 <= bytes.size()) {
    uint32_t length = GetU32(bytes.data() + pos);
    uint32_t crc = GetU32(bytes.data() + pos + 4);
    if (length == 0 || length > kMaxFrameLength ||
        pos + 8 + length > bytes.size()) {
      break;  // truncated or garbage header
    }
    const char* body = bytes.data() + pos + 8;
    if (Crc32(body, length) != crc ||
        !KnownType(static_cast<uint8_t>(body[0]))) {
      break;  // torn or corrupt frame
    }
    WalRecord rec;
    rec.type = static_cast<WalRecordType>(static_cast<uint8_t>(body[0]));
    rec.payload.assign(body + 1, length - 1);
    scan.records.push_back(std::move(rec));
    pos += 8 + length;
  }
  scan.valid_bytes = pos;
  scan.torn = pos < bytes.size();
  return scan;
}

// --- typed record constructors -------------------------------------------

WalRecord CheckpointRecord(
    int64_t generation,
    const std::vector<std::pair<std::string, int64_t>>& horizons) {
  std::ostringstream os;
  os << "generation " << generation << "\n";
  for (const auto& [source, visible] : horizons) {
    os << "source " << PercentEscape(source) << " " << visible << "\n";
  }
  return {WalRecordType::kCheckpoint, os.str()};
}

WalRecord SegmentAppendRecord(const std::string& name,
                              const Schema& value_schema, int64_t query_id,
                              const storage::ColumnarSegment& chunk) {
  storage::ByteWriter w;
  w.Zigzag(query_id);
  std::string payload = w.Take();
  payload += storage::SerializeSegments(name, value_schema, {&chunk});
  return {WalRecordType::kSegmentAppend, std::move(payload)};
}

namespace {
WalRecord CoverageRecord(WalRecordType type, const std::string& key,
                         const symbolic::Predicate& q) {
  std::ostringstream os;
  os << "key " << PercentEscape(key) << "\n";
  os << "pred " << symbolic::EncodePredicate(q) << "\n";
  return {type, os.str()};
}
}  // namespace

WalRecord CoverageUnionRecord(const std::string& key,
                              const symbolic::Predicate& q) {
  return CoverageRecord(WalRecordType::kCoverageUnion, key, q);
}

WalRecord CoverageSetRecord(const std::string& key,
                            const symbolic::Predicate& q) {
  return CoverageRecord(WalRecordType::kCoverageSet, key, q);
}

WalRecord CoverageRetractionRecord(const std::string& key,
                                   const symbolic::Predicate& q) {
  return CoverageRecord(WalRecordType::kCoverageRetraction, key, q);
}

WalRecord ViewEvictionRecord(const std::string& view, int64_t segment_id,
                             int64_t first_frame, int64_t frame_end) {
  std::ostringstream os;
  os << "view " << PercentEscape(view) << " " << segment_id << " "
     << first_frame << " " << frame_end << "\n";
  return {WalRecordType::kViewEviction, os.str()};
}

WalRecord IngestAdvanceRecord(const std::string& source, int64_t visible,
                              int64_t flushed) {
  std::ostringstream os;
  os << "source " << PercentEscape(source) << " " << visible << " " << flushed
     << "\n";
  return {WalRecordType::kIngestAdvance, os.str()};
}

// --- group-commit writer -------------------------------------------------

void WalWriter::Stage(const WalRecord& rec) {
  pending_ += EncodeFrame(rec);
  ++staged_records_;
}

Status WalWriter::Commit(fault::FaultFs* fs) {
  if (pending_.empty()) return Status::OK();
  fault::FaultFs plain;
  if (fs == nullptr) fs = &plain;
  EVA_RETURN_IF_ERROR(fs->AppendFile(path_, pending_));
  committed_bytes_ += pending_.size();
  committed_records_ += staged_records_;
  pending_.clear();
  staged_records_ = 0;
  return Status::OK();
}

void WalWriter::DiscardStaged() {
  pending_.clear();
  staged_records_ = 0;
}

}  // namespace eva::wal
