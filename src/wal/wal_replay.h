#ifndef EVA_WAL_WAL_REPLAY_H_
#define EVA_WAL_WAL_REPLAY_H_

#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "fault/fault_fs.h"
#include "storage/view_store.h"
#include "symbolic/predicate.h"
#include "udf/udf_manager.h"
#include "wal/wal_log.h"

namespace eva::wal {

/// What ReplayWal found and applied (docs/STREAMING.md §recovery).
struct WalReplayReport {
  std::string path;
  bool found = false;  // the log file existed
  int64_t records = 0;
  int64_t checkpoints = 0;
  int64_t appends = 0;  // segment_append records
  int64_t keys_applied = 0;
  int64_t coverage_unions = 0;
  int64_t coverage_sets = 0;
  int64_t coverage_retractions = 0;
  int64_t evictions = 0;
  int64_t ingest_advances = 0;
  /// Torn-tail repair: bytes past the first bad CRC were moved to
  /// `<path>.torn` and the log rewritten to its valid prefix.
  bool torn = false;
  size_t truncated_bytes = 0;
  /// Horizon-guard retractions: coverage claims found past a streaming
  /// source's recovered horizon, already retracted in memory. The engine
  /// stages matching coverage_retraction records into the fresh log so the
  /// repair itself is durable. Expected empty — the FIFO orders every
  /// ingest_advance before the claims that depend on it — but kept as a
  /// belt-and-braces guarantee that reuse never overclaims unarrived
  /// frames.
  std::vector<std::pair<std::string, symbolic::Predicate>> guard_retractions;

  bool clean() const { return !torn && guard_retractions.empty(); }
  /// One-line summary for the shell / replay_done event.
  std::string Summary() const;
};

/// Replays the WAL at `path` on top of the already-loaded snapshot state:
/// applies every intact record in order to the catalog / view store / UDF
/// manager, truncates at the first bad CRC (quarantining the tail), and
/// runs the streaming horizon guard. NotFound from the filesystem is not
/// an error — a missing log means nothing happened since the checkpoint.
/// A CRC-valid record that fails to parse IS an error: the prefix was
/// durable, so malformed contents mean a writer bug, not a crash.
///
/// `horizons_only` handles the mid-checkpoint crash window: the manifest
/// committed generation G but the fresh log's checkpoint record never did,
/// so the stale G-1 log is fully subsumed by the snapshot EXCEPT for the
/// ingestion horizons (which live only in the log). In this mode only
/// checkpoint and ingest_advance records are applied; everything else is
/// skipped, the torn-tail repair is not performed (the file is about to be
/// deleted), and the horizon guard does not run (the caller's full replay
/// runs it after horizons settle).
Result<WalReplayReport> ReplayWal(const std::string& path,
                                  catalog::Catalog* catalog,
                                  storage::ViewStore* views,
                                  udf::UdfManager* manager,
                                  const symbolic::SymbolicBudget& budget,
                                  fault::FaultFs* fs = nullptr,
                                  bool horizons_only = false);

}  // namespace eva::wal

#endif  // EVA_WAL_WAL_REPLAY_H_
