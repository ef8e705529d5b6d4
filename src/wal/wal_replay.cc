#include "wal/wal_replay.h"

#include <sstream>
#include <string_view>

#include "common/num_parse.h"
#include "common/string_util.h"
#include "exec/exec_context.h"
#include "lifecycle/view_lifecycle.h"
#include "storage/segment_codec.h"
#include "storage/view_persistence.h"
#include "symbolic/dim_constraint.h"
#include "symbolic/interval.h"
#include "symbolic/predicate_io.h"

namespace eva::wal {

namespace {

std::vector<std::string> SplitLines(const std::string& payload) {
  std::vector<std::string> lines;
  std::istringstream is(payload);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

Status Malformed(const WalRecord& rec, const std::string& why) {
  return Status::Internal(std::string("malformed ") +
                          WalRecordTypeName(rec.type) + " record: " + why);
}

Status ApplyCheckpoint(const WalRecord& rec, catalog::Catalog* catalog) {
  auto lines = SplitLines(rec.payload);
  if (lines.empty() || !StartsWith(lines[0], "generation ")) {
    return Malformed(rec, "missing generation line");
  }
  int64_t generation = 0;
  if (!ParseInt64(lines[0].substr(11), &generation)) {
    return Malformed(rec, "bad generation");
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    std::istringstream is(lines[i]);
    std::string tag, name_tok, visible_tok;
    if (!(is >> tag >> name_tok >> visible_tok) || tag != "source") {
      return Malformed(rec, "bad source line: " + lines[i]);
    }
    EVA_ASSIGN_OR_RETURN(std::string name, PercentUnescape(name_tok));
    int64_t visible = 0;
    if (!ParseInt64(visible_tok, &visible)) {
      return Malformed(rec, "bad horizon: " + lines[i]);
    }
    // A source registered in a previous run but not this one: its claims
    // are unreachable (no catalog entry, no queries), so skip silently.
    if (catalog->HasVideo(name)) {
      EVA_RETURN_IF_ERROR(catalog->SetVideoFrames(name, visible));
    }
  }
  return Status::OK();
}

/// Decodes the whole chunk before touching the store, so a malformed
/// record installs nothing.
Status ApplyAppend(const WalRecord& rec, storage::ViewStore* views,
                   int64_t* keys_applied) {
  storage::ByteReader r(rec.payload);
  int64_t query_id = -1;
  if (!r.Zigzag(&query_id)) return Malformed(rec, "bad query id");
  auto decoded = storage::DecodeSegmentBody(
      std::string_view(rec.payload).substr(rec.payload.size() - r.remaining()),
      "segment_append");
  if (!decoded.ok()) return Malformed(rec, decoded.status().message());
  // One access tick stamps every key of the record.
  Status installed = storage::InstallSegments(
      decoded.value(), views->NextAccessTick(), query_id, views);
  if (!installed.ok()) return Malformed(rec, installed.message());
  for (const storage::DecodedSegment& seg : decoded.value().segments) {
    *keys_applied += static_cast<int64_t>(seg.keys.size());
  }
  return Status::OK();
}

struct CoverageRecordBody {
  std::string key;
  symbolic::Predicate pred;
};

Result<CoverageRecordBody> ParseCoverage(const WalRecord& rec) {
  auto lines = SplitLines(rec.payload);
  if (lines.size() != 2 || !StartsWith(lines[0], "key ") ||
      !StartsWith(lines[1], "pred ")) {
    return Malformed(rec, "expected key + pred lines");
  }
  CoverageRecordBody body;
  EVA_ASSIGN_OR_RETURN(body.key, PercentUnescape(lines[0].substr(4)));
  EVA_ASSIGN_OR_RETURN(body.pred,
                       symbolic::DecodePredicate(lines[1].substr(5)));
  return body;
}

Status ApplyEviction(const WalRecord& rec, storage::ViewStore* views,
                     udf::UdfManager* manager,
                     const symbolic::SymbolicBudget& budget) {
  auto lines = SplitLines(rec.payload);
  if (lines.size() != 1 || !StartsWith(lines[0], "view ")) {
    return Malformed(rec, "expected one view line");
  }
  std::istringstream is(lines[0].substr(5));
  std::string name_tok, seg_tok, first_tok, end_tok;
  if (!(is >> name_tok >> seg_tok >> first_tok >> end_tok)) {
    return Malformed(rec, "short view line");
  }
  EVA_ASSIGN_OR_RETURN(std::string name, PercentUnescape(name_tok));
  int64_t segment_id = 0, first = 0, end = 0;
  if (!ParseInt64(seg_tok, &segment_id) || !ParseInt64(first_tok, &first) ||
      !ParseInt64(end_tok, &end)) {
    return Malformed(rec, "bad view line");
  }
  if (storage::MaterializedView* view = views->Find(name)) {
    view->EvictSegment(segment_id);
  }
  // The eviction record implies the retraction a live eviction performed;
  // retractions are deliberately not journaled separately (a replay that
  // subtracted twice would diverge from the live representation).
  manager->RetractCoverage(name, lifecycle::SegmentPredicate(first, end),
                           budget);
  return Status::OK();
}

Status ApplyIngestAdvance(const WalRecord& rec, catalog::Catalog* catalog) {
  auto lines = SplitLines(rec.payload);
  if (lines.size() != 1 || !StartsWith(lines[0], "source ")) {
    return Malformed(rec, "expected one source line");
  }
  std::istringstream is(lines[0].substr(7));
  std::string name_tok, visible_tok, flushed_tok;
  if (!(is >> name_tok >> visible_tok >> flushed_tok)) {
    return Malformed(rec, "short source line");
  }
  EVA_ASSIGN_OR_RETURN(std::string name, PercentUnescape(name_tok));
  int64_t visible = 0, flushed = 0;
  if (!ParseInt64(visible_tok, &visible) ||
      !ParseInt64(flushed_tok, &flushed)) {
    return Malformed(rec, "bad source line");
  }
  if (catalog->HasVideo(name)) {
    EVA_RETURN_IF_ERROR(catalog->SetVideoFrames(name, visible));
  }
  return Status::OK();
}

/// p_u claims past a streaming source's recovered horizon are retracted.
/// Expected to fire never (the FIFO serializes every ingest_advance ahead
/// of the claims it enables), but a guard this cheap is worth its weight:
/// an overclaim silently reads "processed, no objects" for frames that
/// never existed.
void HorizonGuard(catalog::Catalog* catalog, udf::UdfManager* manager,
                  const symbolic::SymbolicBudget& budget,
                  WalReplayReport* report) {
  for (const auto& [name, video] : catalog->videos()) {
    if (!video.streaming) continue;
    symbolic::Predicate beyond = symbolic::Predicate::Atom(
        exec::kColId,
        symbolic::DimConstraint::Numeric(
            symbolic::DimKind::kInteger,
            symbolic::Interval::AtLeast(
                static_cast<double>(video.num_frames))));
    const std::string suffix = "@" + name;
    for (const auto& [key, entry] : manager->entries()) {
      if (key.size() < suffix.size() ||
          key.compare(key.size() - suffix.size(), suffix.size(), suffix) !=
              0) {
        continue;
      }
      auto overlap = symbolic::Predicate::Inter(entry.coverage, beyond,
                                                budget);
      if (overlap.ok() && overlap.value().DefinitelyFalse()) continue;
      report->guard_retractions.emplace_back(key, beyond);
    }
    // Retract outside the iteration: RetractCoverage may touch the map.
  }
  for (const auto& [key, beyond] : report->guard_retractions) {
    manager->RetractCoverage(key, beyond, budget);
  }
}

}  // namespace

std::string WalReplayReport::Summary() const {
  std::ostringstream os;
  os << "wal replay: " << records << " records (" << appends << " appends, "
     << keys_applied << " keys, "
     << (coverage_unions + coverage_sets + coverage_retractions)
     << " coverage ops, " << evictions << " evictions, " << ingest_advances
     << " ingest advances)";
  if (!found) os << ", no log";
  if (torn) {
    os << ", torn tail: " << truncated_bytes << " bytes quarantined";
  }
  if (!guard_retractions.empty()) {
    os << ", horizon guard retracted " << guard_retractions.size()
       << " claim(s)";
  }
  return os.str();
}

Result<WalReplayReport> ReplayWal(const std::string& path,
                                  catalog::Catalog* catalog,
                                  storage::ViewStore* views,
                                  udf::UdfManager* manager,
                                  const symbolic::SymbolicBudget& budget,
                                  fault::FaultFs* fs, bool horizons_only) {
  fault::FaultFs plain;
  if (fs == nullptr) fs = &plain;
  WalReplayReport report;
  report.path = path;

  auto bytes_res = fs->ReadFile(path);
  if (!bytes_res.ok()) {
    if (bytes_res.status().code() == StatusCode::kNotFound && !fs->halted()) {
      if (!horizons_only) HorizonGuard(catalog, manager, budget, &report);
      return report;  // nothing since the checkpoint
    }
    return bytes_res.status();
  }
  report.found = true;
  const std::string& bytes = bytes_res.value();

  WalScan scan = ScanWal(bytes);
  if (scan.torn) {
    report.torn = true;
    report.truncated_bytes = bytes.size() - scan.valid_bytes;
    // Quarantine the tail for post-mortems, then rewrite the log to its
    // valid prefix via tmp+rename so the truncation itself is atomic.
    // Horizons-only passes read a log that is about to be deleted, so the
    // repair would be wasted writes.
    if (!horizons_only) {
      EVA_RETURN_IF_ERROR(
          fs->WriteFile(path + ".torn", bytes.substr(scan.valid_bytes)));
      EVA_RETURN_IF_ERROR(
          fs->WriteFile(path + ".tmp", bytes.substr(0, scan.valid_bytes)));
      EVA_RETURN_IF_ERROR(fs->Rename(path + ".tmp", path));
    }
  }

  for (const WalRecord& rec : scan.records) {
    if (horizons_only && rec.type != WalRecordType::kCheckpoint &&
        rec.type != WalRecordType::kIngestAdvance) {
      // Already inside the snapshot that superseded this log.
      ++report.records;
      continue;
    }
    switch (rec.type) {
      case WalRecordType::kCheckpoint:
        EVA_RETURN_IF_ERROR(ApplyCheckpoint(rec, catalog));
        ++report.checkpoints;
        break;
      case WalRecordType::kSegmentAppend:
        EVA_RETURN_IF_ERROR(ApplyAppend(rec, views, &report.keys_applied));
        ++report.appends;
        break;
      case WalRecordType::kCoverageUnion: {
        EVA_ASSIGN_OR_RETURN(CoverageRecordBody body, ParseCoverage(rec));
        manager->UpdateCoverage(body.key, body.pred, budget);
        ++report.coverage_unions;
        break;
      }
      case WalRecordType::kCoverageSet: {
        EVA_ASSIGN_OR_RETURN(CoverageRecordBody body, ParseCoverage(rec));
        manager->SetCoverage(body.key, std::move(body.pred));
        ++report.coverage_sets;
        break;
      }
      case WalRecordType::kCoverageRetraction: {
        EVA_ASSIGN_OR_RETURN(CoverageRecordBody body, ParseCoverage(rec));
        manager->RetractCoverage(body.key, body.pred, budget);
        ++report.coverage_retractions;
        break;
      }
      case WalRecordType::kViewEviction:
        EVA_RETURN_IF_ERROR(ApplyEviction(rec, views, manager, budget));
        ++report.evictions;
        break;
      case WalRecordType::kIngestAdvance:
        EVA_RETURN_IF_ERROR(ApplyIngestAdvance(rec, catalog));
        ++report.ingest_advances;
        break;
    }
    ++report.records;
  }

  if (!horizons_only) HorizonGuard(catalog, manager, budget, &report);
  return report;
}

}  // namespace eva::wal
