#ifndef EVA_STORAGE_VIEW_PERSISTENCE_H_
#define EVA_STORAGE_VIEW_PERSISTENCE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "fault/fault_fs.h"
#include "storage/view_store.h"
#include "udf/udf_manager.h"

namespace eva::storage {

/// Crash-safe persistence for materialized UDF views (the paper stores
/// views on disk next to the Parquet-encoded video, §4.2/§5.2)
/// (docs/RELIABILITY.md).
///
/// A save directory holds one file per view plus the lifecycle state,
/// both named with a generation number, and a MANIFEST that commits the
/// generation atomically:
///
///   <name>.g<G>.evaseg         view data: the `.evaseg` segment body
///                              (sealed segments, codec-encoded columns)
///   lifecycle.g<G>.evastate    segment stamps + coverage (text)
///   MANIFEST                   generation + per-file size and CRC32
///
/// Every file is written as `<file>.tmp`, fsynced, then renamed; the
/// MANIFEST is written last, the same way. An interrupted save therefore
/// leaves the previous generation fully loadable — the new generation's
/// files are ignored (and quarantined) because the MANIFEST never came to
/// claim them. Committing the MANIFEST also garbage-collects every managed
/// file it does not list, which is what removes stale files of dropped or
/// fully-evicted views (they used to silently resurrect on reload) and the
/// previous generation.
///
/// The `.evaseg` body is also the write-ahead log's `segment_append`
/// payload (src/wal/), so view rows have one encoding on disk and in the
/// log.

/// One file set aside during recovery (renamed to `<file>.quarantined`).
struct QuarantinedFile {
  std::string file;      // basename within the save directory
  std::string view_key;  // logical view name, "" when unknown
  std::string reason;
};

/// What LoadSession found and repaired. Recovery is never fatal: corrupt
/// or unmanifested state is quarantined and its symbolic coverage
/// retracted, so a reload can only underclaim (recompute), never overclaim
/// (§4.1 soundness).
struct RecoveryReport {
  int64_t generation = 0;  // manifest generation loaded; 0 = none
  bool manifest_corrupt = false;
  std::vector<QuarantinedFile> quarantined;
  std::vector<std::string> retracted;  // coverage keys retracted
  int64_t tmp_removed = 0;

  bool clean() const { return !manifest_corrupt && quarantined.empty(); }
  /// One-line summary for the shell's .load output.
  std::string Summary() const;
};

/// Saves views + lifecycle state as one new generation with a single
/// MANIFEST commit — the engine's save path. All filesystem traffic goes
/// through `fs` (pass nullptr for a plain pass-through shim).
Status SaveSession(const ViewStore& store, const udf::UdfManager& manager,
                   const std::string& dir, fault::FaultFs* fs = nullptr);

/// Loads a save directory with full recovery: verifies the MANIFEST and
/// every file's size/CRC32, quarantines what fails (or was never
/// manifested), removes leftover `.tmp` files, and retracts the symbolic
/// coverage of every quarantined view so reuse never overclaims. A
/// directory without a MANIFEST loads as an empty generation 0 (its view
/// files are quarantined as never committed). Returns NotFound only when
/// `dir` itself is missing.
Result<RecoveryReport> LoadSession(const std::string& dir, ViewStore* store,
                                   udf::UdfManager* manager,
                                   fault::FaultFs* fs = nullptr);

/// Generation number the directory's MANIFEST currently commits: 0 when no
/// MANIFEST exists, an error only on a corrupt MANIFEST or a simulated
/// crash. The WAL names its log file after this generation (src/wal/) so a
/// checkpoint and its log tail stay paired.
Result<int64_t> ManifestGeneration(const std::string& dir,
                                   fault::FaultFs* fs = nullptr);

/// Binary `.evaseg` body: magic, view name, value schema, then per
/// segment the keys and the codec-encoded columns (WriteColumn form; plain
/// lanes when built without compression).
std::string SerializeSegments(
    const std::string& name, const Schema& schema,
    const std::vector<const ColumnarSegment*>& segments);

/// SerializeSegments over every sealed segment of `view` (seals tails
/// first; runs between queries).
std::string SerializeViewSegments(const std::string& name,
                                  const MaterializedView& view);

/// A decoded `.evaseg` body, not yet installed anywhere: per segment the
/// ascending keys, prefix row offsets (key k's rows are [key_rows[k],
/// key_rows[k + 1]) of every column) and one validated column per schema
/// field, in its stored codec.
struct DecodedSegment {
  std::vector<ViewKey> keys;
  std::vector<uint32_t> key_rows{0};
  std::vector<ColumnVec> cols;
};
struct DecodedSegments {
  std::string name;
  Schema schema;
  std::vector<DecodedSegment> segments;
};

/// Parses a `.evaseg` body and validates it exhaustively (each column's
/// encoding against its field's type, lane sizes, dict code ranges, run
/// offsets, key ordering, no trailing bytes), so At(i) is safe on every
/// decoded column. Never crashes on hostile bytes
/// (reader_fuzz_test). `file` only labels error messages.
Result<DecodedSegments> DecodeSegmentBody(std::string_view content,
                                          const std::string& file);

/// Installs `decoded` into its view of `store` (created with the decoded
/// schema when missing), one PutBatch per segment over the decoded
/// columns: existing keys win, inserted keys are stamped `tick` /
/// `query_id` and reseal on the first probe. An existing view of another
/// schema installs nothing and returns an error. Snapshot load and WAL
/// replay both install through here.
Status InstallSegments(const DecodedSegments& decoded, uint64_t tick,
                       int64_t query_id, ViewStore* store);

/// DecodeSegmentBody, then InstallSegments at tick 0, query -1. A body
/// that fails anywhere installs nothing — corrupt codec files underclaim,
/// never surface wrong rows.
Status ParseSegmentBody(const std::string& content, const std::string& file,
                        ViewStore* store);

}  // namespace eva::storage

#endif  // EVA_STORAGE_VIEW_PERSISTENCE_H_
