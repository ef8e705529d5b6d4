// WAL crash-recovery matrix (docs/STREAMING.md): run a scripted streaming
// session — queries, ingestion ticks, a mid-session checkpoint — with the
// fault injector recording every filesystem point the write-ahead log
// consults, then simulate a process death at each recorded (point,
// occurrence) and recover a fresh engine from the directory. The oracle is
// a cold engine pinned to whatever horizon the recovery settled on: rows
// must be bit-identical, which is exactly the "coverage never overclaims"
// contract — an overclaiming recovery silently reads "processed, no
// objects" and drops rows. Also covers silent torn tails (shortwrite),
// recovery idempotence, and the horizon guard against claims racing past
// the last durable ingest advance.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "engine/eva_engine.h"
#include "fault/fault_injector.h"
#include "storage/segment_codec.h"
#include "storage/view_persistence.h"
#include "vbench/vbench.h"
#include "wal/wal_log.h"
#include "wal/wal_replay.h"

namespace eva::engine {
namespace {

namespace stdfs = std::filesystem;

constexpr int64_t kTotal = 120;
constexpr int64_t kInitial = 60;
constexpr int64_t kTick = 30;
const char kSource[] = "sv";
const char kDetectorKey[] = "FasterRCNNResNet50@sv";

catalog::VideoInfo StreamVideo() {
  catalog::VideoInfo v;
  v.name = kSource;
  v.mean_objects_per_frame = 6;
  v.seed = 11;
  return v;
}

const char kQ1[] =
    "SELECT id, obj FROM sv CROSS APPLY FasterRCNNResNet50(frame) "
    "WHERE id < 50 AND label = 'car';";
const char kQ2[] =
    "SELECT id, obj FROM sv CROSS APPLY FasterRCNNResNet50(frame) "
    "WHERE id >= 20 AND label = 'car' "
    "AND CarType(frame, bbox) = 'Nissan';";
/// The probe: every visible car frame — its row set is a pure function of
/// the recovered horizon.
const char kProbe[] =
    "SELECT id, obj FROM sv CROSS APPLY FasterRCNNResNet50(frame) "
    "WHERE label = 'car';";

class WalRecoveryTest : public ::testing::Test {
 protected:
  WalRecoveryTest() {
    root_ = stdfs::temp_directory_path() /
            ("eva_wal_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    stdfs::remove_all(root_);
    stdfs::create_directories(root_);
  }
  ~WalRecoveryTest() override { stdfs::remove_all(root_); }

  /// A streaming engine with the source registered at `initial` visible
  /// frames and no WAL yet (EnableWal is each test's recovery entry point).
  std::unique_ptr<EvaEngine> MakeStreamEngine(
      int64_t initial, engine::EngineOptions options = {}) {
    options.optimizer.mode = optimizer::ReuseMode::kEva;
    auto engine = std::make_unique<EvaEngine>(
        options, std::make_shared<catalog::Catalog>());
    EXPECT_TRUE(vbench::RegisterStandardUdfs(engine.get()).ok());
    ingest::StreamOptions sopts;
    sopts.initial_frames = initial;
    sopts.total_frames = kTotal;
    EXPECT_TRUE(engine->RegisterStream(StreamVideo(), sopts).ok());
    return engine;
  }

  /// The scripted session every matrix entry replays: recovery + queries +
  /// two ingestion ticks with a checkpoint between them. Statuses are
  /// collected, not asserted — once a crash fires, everything after it
  /// fails by design.
  std::vector<Status> RunScript(EvaEngine* engine, const std::string& dir) {
    std::vector<Status> out;
    out.push_back(engine->EnableWal(dir));
    out.push_back(engine->Execute(kQ1).status());
    out.push_back(engine->IngestFrames(kSource, kTick).status());
    out.push_back(engine->Execute(kQ2).status());
    out.push_back(engine->Checkpoint());
    out.push_back(engine->IngestFrames(kSource, kTick).status());
    out.push_back(engine->Execute(kProbe).status());
    return out;
  }

  int64_t VisibleHorizon(const EvaEngine& engine) {
    auto sources = engine.ingestor().Sources();
    EXPECT_EQ(sources.size(), 1u);
    return sources.empty() ? -1 : sources[0].visible;
  }

  /// Probe rows of a cold engine pinned to horizon `h` — the reference a
  /// recovered engine at that horizon must reproduce bit-for-bit. Cached:
  /// the matrix recovers to the same few horizons over and over.
  const std::string& OracleRows(int64_t h) {
    auto it = oracle_.find(h);
    if (it != oracle_.end()) return it->second;
    auto engine = MakeStreamEngine(h);
    auto r = engine->Execute(kProbe);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return oracle_
        .emplace(h, r.ok() ? r.value().batch.ToString(1 << 20) : "")
        .first->second;
  }

  /// Recovers a fresh engine from `dir` and asserts the soundness
  /// contract: recovery succeeds, the horizon is one the script could have
  /// made durable, and the probe matches the cold oracle at that horizon.
  /// Returns the recovered engine for further assertions.
  std::unique_ptr<EvaEngine> RecoverAndCheck(const std::string& dir,
                                             const std::string& context) {
    auto engine = MakeStreamEngine(kInitial);
    Status armed = engine->EnableWal(dir);
    EXPECT_TRUE(armed.ok()) << context << ": " << armed.ToString();
    if (!armed.ok()) return engine;
    const int64_t h = VisibleHorizon(*engine);
    EXPECT_TRUE(h == kInitial || h == kInitial + kTick ||
                h == kInitial + 2 * kTick)
        << context << ": recovered horizon " << h;
    auto r = engine->Execute(kProbe);
    EXPECT_TRUE(r.ok()) << context << ": " << r.status().ToString();
    if (r.ok()) {
      EXPECT_EQ(r.value().batch.ToString(1 << 20), OracleRows(h))
          << context << ": probe rows diverge from cold oracle at horizon "
          << h << " (replay: " << engine->last_replay().Summary() << ")";
    }
    return engine;
  }

  stdfs::path root_;
  std::map<int64_t, std::string> oracle_;
};

/// Kill the session at every filesystem point the WAL consults — log
/// appends, the checkpoint's snapshot rewrite, log-file rotation — and
/// prove each crashed directory recovers to a sound state.
TEST_F(WalRecoveryTest, CrashMatrixRecoversSoundlyAtEveryPoint) {
  const stdfs::path dir = root_ / "wal";
  std::vector<fault::FaultHit> points;
  {
    auto engine = MakeStreamEngine(kInitial);
    engine->fault_injector()->set_recording(true);
    for (const Status& s : RunScript(engine.get(), dir.string())) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    points = engine->fault_injector()->hits();
  }
  ASSERT_GE(points.size(), 12u)
      << "the scripted session consults too few fault points";

  for (const fault::FaultHit& hit : points) {
    const std::string label =
        hit.point + "#" + std::to_string(hit.occurrence);
    stdfs::remove_all(dir);
    auto engine = MakeStreamEngine(kInitial);
    ASSERT_TRUE(engine
                    ->SetFaultSchedule("crash@" + hit.point + "#" +
                                       std::to_string(hit.occurrence))
                    .ok());
    (void)RunScript(engine.get(), dir.string());
    EXPECT_GE(engine->fault_injector()->fired(), 1)
        << label << ": the scheduled crash never fired";
    RecoverAndCheck(dir.string(), "crash at " + label);
  }
}

/// A silently torn group commit (short write that still returned success)
/// must be caught by the CRC framing: the tail is truncated and
/// quarantined, every record before it replays, and the probe stays sound.
TEST_F(WalRecoveryTest, TornTailIsQuarantinedAndSound) {
  const stdfs::path dir = root_ / "torn";
  {
    auto engine = MakeStreamEngine(kInitial);
    ASSERT_TRUE(engine->EnableWal(dir.string()).ok());
    // Tear the SECOND commit (the first ingest advance); the query commits
    // after it land beyond the tear and must be dropped by the scan.
    ASSERT_TRUE(
        engine->SetFaultSchedule("shortwrite@fs.append:wal.g0.evalog#2")
            .ok());
    ASSERT_TRUE(engine->Execute(kQ1).ok());
    ASSERT_TRUE(engine->IngestFrames(kSource, kTick).ok());
    ASSERT_TRUE(engine->Execute(kQ2).ok());
    ASSERT_TRUE(engine->IngestFrames(kSource, kTick).ok());
    ASSERT_TRUE(engine->Execute(kProbe).ok());
    ASSERT_TRUE(engine->SetFaultSchedule("").ok());
  }

  auto recovered = RecoverAndCheck(dir.string(), "torn tail");
  const wal::WalReplayReport& replay = recovered->last_replay();
  EXPECT_TRUE(replay.torn) << replay.Summary();
  EXPECT_GT(replay.truncated_bytes, 0u);
  EXPECT_FALSE(replay.clean());
  // Only the first commit (kQ1's) survived: the torn ingest advance was
  // never acknowledged, so the recovered horizon is the initial one.
  EXPECT_EQ(VisibleHorizon(*recovered), kInitial);
  EXPECT_NE(replay.Summary().find("torn tail"), std::string::npos);
  // The tail is set aside for forensics, never deleted.
  EXPECT_TRUE(stdfs::exists(dir / "wal.g0.evalog.torn"));

  // The repair is durable: a second recovery of the same directory is
  // clean and lands on the identical state.
  recovered.reset();
  auto again = RecoverAndCheck(dir.string(), "torn tail, second recovery");
  EXPECT_TRUE(again->last_replay().clean())
      << again->last_replay().Summary();
  EXPECT_EQ(VisibleHorizon(*again), kInitial);
}

/// Recovering the same directory twice must be deterministic: identical
/// replay summaries, horizons, and probe rows (the probe of the first
/// recovery extends the log; the second replays it on top).
TEST_F(WalRecoveryTest, DoubleRecoveryIsDeterministic) {
  const stdfs::path dir = root_ / "twice";
  {
    auto engine = MakeStreamEngine(kInitial);
    for (const Status& s : RunScript(engine.get(), dir.string())) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }
  auto first = RecoverAndCheck(dir.string(), "first recovery");
  EXPECT_TRUE(first->last_replay().clean())
      << first->last_replay().Summary();
  const int64_t h1 = VisibleHorizon(*first);
  // Everything the session computed is covered; the probe reuses it all.
  auto probe = first->Execute(kProbe);
  ASSERT_TRUE(probe.ok());
  EXPECT_DOUBLE_EQ(probe.value().metrics.breakdown[CostCategory::kUdf], 0.0)
      << "a clean recovery must reuse the whole session";
  first.reset();

  auto second = RecoverAndCheck(dir.string(), "second recovery");
  EXPECT_TRUE(second->last_replay().clean());
  EXPECT_EQ(VisibleHorizon(*second), h1);
}

/// Belt-and-braces: a coverage claim past the last durable ingest advance
/// (impossible through the FIFO, so the record is hand-crafted) must be
/// retracted by the replay horizon guard, the retraction itself made
/// durable, and later ingestion + queries must recompute — not skip — the
/// frames the bogus claim covered.
TEST_F(WalRecoveryTest, HorizonGuardRetractsOverHorizonClaims) {
  const stdfs::path dir = root_ / "guard";
  {
    auto engine = MakeStreamEngine(kInitial);
    ASSERT_TRUE(engine->EnableWal(dir.string()).ok());
    ASSERT_TRUE(engine->Execute(kQ1).ok());
  }
  // Craft a claim over frames the log never made visible ([60, 120)) by
  // borrowing the aggregated predicate of a cold engine that really did
  // process them, and append it as a CRC-valid coverage_union record.
  {
    auto donor = MakeStreamEngine(kTotal);
    ASSERT_TRUE(donor
                    ->Execute(
                        "SELECT id, obj FROM sv CROSS APPLY "
                        "FasterRCNNResNet50(frame) "
                        "WHERE id >= 60 AND label = 'car';")
                    .ok());
    const symbolic::Predicate& beyond =
        donor->udf_manager().Coverage(kDetectorKey);
    std::ofstream log(dir / "wal.g0.evalog",
                      std::ios::binary | std::ios::app);
    ASSERT_TRUE(log.good());
    log << wal::EncodeFrame(wal::CoverageUnionRecord(kDetectorKey, beyond));
  }

  auto recovered = RecoverAndCheck(dir.string(), "horizon guard");
  const wal::WalReplayReport& replay = recovered->last_replay();
  ASSERT_FALSE(replay.guard_retractions.empty()) << replay.Summary();
  EXPECT_EQ(replay.guard_retractions[0].first, kDetectorKey);
  EXPECT_FALSE(replay.clean());
  EXPECT_EQ(VisibleHorizon(*recovered), kInitial);

  // Ingest to the full length and probe: the guard must have cleared the
  // bogus claim, so frames [60, 120) are recomputed and the rows match the
  // full-length oracle exactly.
  while (VisibleHorizon(*recovered) < kTotal) {
    ASSERT_TRUE(recovered->IngestFrames(kSource, kTick).ok());
  }
  auto r = recovered->Execute(kProbe);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().batch.ToString(1 << 20), OracleRows(kTotal))
      << "over-horizon claim survived recovery: frames were skipped";
  recovered.reset();

  // The retraction was committed during recovery: replaying again is
  // clean, and everything the previous engine computed is reusable.
  auto again = RecoverAndCheck(dir.string(), "guard, second recovery");
  EXPECT_TRUE(again->last_replay().guard_retractions.empty())
      << again->last_replay().Summary();
  auto probe = again->Execute(kProbe);
  ASSERT_TRUE(probe.ok());
  EXPECT_DOUBLE_EQ(probe.value().metrics.breakdown[CostCategory::kUdf], 0.0);
}

/// The stale-generation crash window: a checkpoint that committed its
/// snapshot (manifest generation G) but died before the fresh log's
/// checkpoint record must still recover the ingestion horizons — they live
/// only in the stale G-1 log at that point.
TEST_F(WalRecoveryTest, MidCheckpointCrashKeepsIngestionHorizons) {
  const stdfs::path dir = root_ / "midckpt";
  {
    auto engine = MakeStreamEngine(kInitial);
    ASSERT_TRUE(engine->EnableWal(dir.string()).ok());
    ASSERT_TRUE(engine->Execute(kQ1).ok());
    ASSERT_TRUE(engine->IngestFrames(kSource, kTick).ok());
    // Die on the first append to the NEW generation's log — after the
    // snapshot committed, before the checkpoint record did.
    ASSERT_TRUE(
        engine->SetFaultSchedule("crash@fs.append:wal.g1.evalog#1").ok());
    EXPECT_FALSE(engine->Checkpoint().ok());
  }
  auto recovered = RecoverAndCheck(dir.string(), "mid-checkpoint crash");
  EXPECT_EQ(VisibleHorizon(*recovered), kInitial + kTick)
      << "the acknowledged ingest advance was lost "
      << "(replay: " << recovered->last_replay().Summary() << ")";
}

/// Kill-point inside the checkpoint's compressed-segment codec write: the
/// snapshot dies mid-.evaseg, the manifest never advances, and recovery
/// replays the old (snapshot, log) pair — including the acknowledged
/// ingest advance the unborn snapshot was meant to absorb.
TEST_F(WalRecoveryTest, CheckpointCrashInsideSegmentCodecWriteIsSound) {
  const stdfs::path dir = root_ / "segckpt";
  {
    auto engine = MakeStreamEngine(kInitial);
    ASSERT_TRUE(engine->EnableWal(dir.string()).ok());
    ASSERT_TRUE(engine->Execute(kQ1).ok());
    ASSERT_TRUE(engine->IngestFrames(kSource, kTick).ok());
    ASSERT_TRUE(
        engine->SetFaultSchedule("crash@fs.write:*.evaseg.tmp#1").ok());
    EXPECT_FALSE(engine->Checkpoint().ok());
    EXPECT_GE(engine->fault_injector()->fired(), 1)
        << "checkpoint never reached the segment codec write";
  }
  auto recovered =
      RecoverAndCheck(dir.string(), "checkpoint crash in .evaseg write");
  EXPECT_EQ(VisibleHorizon(*recovered), kInitial + kTick)
      << "the acknowledged ingest advance was lost "
      << "(replay: " << recovered->last_replay().Summary() << ")";
}

/// Every key of `view` with its rows, as text, segment by segment.
std::string ViewCells(const storage::MaterializedView& view) {
  std::string out;
  for (const auto& [seg_id, seg] : view.SealedSegments()) {
    for (size_t k = 0; k < seg->num_keys(); ++k) {
      out += std::to_string(seg->key_frame(k)) + "/" +
             std::to_string(seg->key_obj(k)) + ":";
      for (int32_t r = seg->row_begin_at(k); r < seg->row_begin_at(k + 1);
           ++r) {
        for (const Value& v : seg->RowAt(r)) {
          out += ' ';
          out += v.ToString();
        }
        out += ";";
      }
      out += "\n";
    }
  }
  return out;
}

/// With chunks narrower than a segment, the next chunk's probe reseals
/// the segment the previous chunk appended to, in the same query. The
/// reseal hands the appended cells to the WAL capture, so the query still
/// logs one segment_append for the segment, holding the keys appended
/// before and after each reseal, and recovery rebuilds the view cell for
/// cell.
TEST_F(WalRecoveryTest, ResealMidQueryLogsTheWholeAppendInOneRecord) {
  const stdfs::path dir = root_ / "reseal";
  engine::EngineOptions options;
  options.batch_size = 16;
  options.segment_frames = 64;
  std::string cells;
  {
    auto engine = MakeStreamEngine(kInitial, options);
    ASSERT_TRUE(engine->EnableWal(dir.string()).ok());
    ASSERT_TRUE(engine
                    ->Execute("SELECT id, obj FROM sv CROSS APPLY "
                              "FasterRCNNResNet50(frame) WHERE id < 20 AND "
                              "label = 'car';")
                    .ok());
    const int64_t sealed_before =
        engine->views().seal_totals().segments_sealed.load();
    ASSERT_TRUE(engine
                    ->Execute("SELECT id, obj FROM sv CROSS APPLY "
                              "FasterRCNNResNet50(frame) WHERE id < 50 AND "
                              "label = 'car';")
                    .ok());
    // Chunks [16, 32), [32, 48) and [48, 50) each reseal segment 0.
    EXPECT_GE(engine->views().seal_totals().segments_sealed.load(),
              sealed_before + 3);
    cells = ViewCells(*engine->views().Find(kDetectorKey));
    ASSERT_FALSE(cells.empty());
  }

  std::ifstream in(dir / "wal.g0.evalog", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  // Detector keys of each query's segment_append records, by query id.
  std::map<int64_t, std::vector<std::vector<int64_t>>> appends;
  for (const wal::WalRecord& rec : wal::ScanWal(bytes).records) {
    if (rec.type != wal::WalRecordType::kSegmentAppend) continue;
    storage::ByteReader r(rec.payload);
    int64_t query_id = -1;
    ASSERT_TRUE(r.Zigzag(&query_id));
    auto decoded = storage::DecodeSegmentBody(
        std::string_view(rec.payload).substr(rec.payload.size() -
                                             r.remaining()),
        "segment_append");
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    if (decoded.value().name != kDetectorKey) continue;
    std::vector<int64_t> frames;
    for (const storage::DecodedSegment& seg : decoded.value().segments) {
      for (const storage::ViewKey& key : seg.keys) frames.push_back(key.frame);
    }
    appends[query_id].push_back(std::move(frames));
  }
  ASSERT_EQ(appends.size(), 2u);
  std::vector<int64_t> second;
  for (int64_t f = 20; f < 50; ++f) second.push_back(f);
  ASSERT_EQ(appends.rbegin()->second.size(), 1u)
      << "the second query's appends to segment 0 were split";
  EXPECT_EQ(appends.rbegin()->second[0], second);

  auto recovered = MakeStreamEngine(kInitial, options);
  ASSERT_TRUE(recovered->EnableWal(dir.string()).ok());
  EXPECT_TRUE(recovered->last_replay().clean())
      << recovered->last_replay().Summary();
  EXPECT_EQ(ViewCells(*recovered->views().Find(kDetectorKey)), cells);
}

/// A segment_append record whose column encodings disagree with the field
/// types it declares is malformed and installs nothing: not into a fresh
/// store, and not into a view an earlier record created. A record whose
/// schema disagrees with the existing view's is malformed too.
TEST_F(WalRecoveryTest, AppendOfAnotherColumnTypeInstallsNothing) {
  const Schema schema({{"obj", DataType::kInt64},
                       {"label", DataType::kString},
                       {"area", DataType::kDouble}});
  storage::MaterializedView view("Det@v", schema);
  for (int64_t f = 0; f < 20; ++f) {
    std::vector<storage::TailLane> lanes = storage::LanesFor(schema);
    lanes[0].AppendInt64(f);
    lanes[1].AppendString(f % 2 == 0 ? "car" : "bus");
    lanes[2].AppendDouble(0.25 * static_cast<double>(f));
    const storage::ViewKey key{f, -1};
    const uint32_t key_rows[] = {0, 1};
    const uint32_t rows[] = {0};
    std::vector<const storage::ColumnVec*> cols;
    for (const storage::TailLane& lane : lanes) cols.push_back(&lane.lane());
    storage::PutRemaps remaps;
    std::vector<uint8_t> inserted;
    view.PutBatch({&key, 1}, {}, key_rows, rows, cols,
                  [] { return uint64_t{1}; }, -1, &remaps, &inserted);
  }
  const auto sealed = view.SealedSegments();
  ASSERT_EQ(sealed.size(), 1u);
  const storage::ColumnarSegment& chunk = *sealed[0].second;
  std::vector<Field> fields = schema.fields();
  fields[2].type = DataType::kInt64;  // the area column is Double-encoded
  const Schema retyped(fields);
  fields = schema.fields();
  fields[1].name = "name";
  const Schema renamed(fields);

  // Replays `records` into a fresh store; returns the status and the keys
  // of Det@v (-1 when the view does not exist).
  auto replay = [this](const std::vector<wal::WalRecord>& records,
                       int64_t* keys) {
    const stdfs::path path = root_ / "typed.evalog";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      for (const wal::WalRecord& rec : records) out << wal::EncodeFrame(rec);
    }
    catalog::Catalog catalog;
    storage::ViewStore views;
    udf::UdfManager manager;
    auto r = wal::ReplayWal(path.string(), &catalog, &views, &manager,
                            symbolic::SymbolicBudget());
    const storage::MaterializedView* v = views.Find("Det@v");
    *keys = v == nullptr ? -1 : v->num_keys();
    return r.status();
  };
  const wal::WalRecord good =
      wal::SegmentAppendRecord("Det@v", schema, 1, chunk);
  int64_t keys = 0;
  ASSERT_TRUE(replay({good}, &keys).ok());
  EXPECT_EQ(keys, 20);
  EXPECT_FALSE(
      replay({wal::SegmentAppendRecord("Det@v", retyped, 2, chunk)}, &keys)
          .ok());
  EXPECT_EQ(keys, -1);
  // After a good record, a bad one adds nothing to the view it made.
  for (const Schema* bad : {&retyped, &renamed}) {
    EXPECT_FALSE(
        replay({good, wal::SegmentAppendRecord("Det@v", *bad, 2, chunk)},
               &keys)
            .ok());
    EXPECT_EQ(keys, 20);
  }
}

/// A snapshot load restores each segment's access stamps; the store's
/// access clock must move past them, so WAL replay and the queries after
/// recovery stamp newer ticks than every restored one, and no segment
/// reads as last accessed before it was created.
TEST_F(WalRecoveryTest, RecoveredClockStampsAfterRestoredTicks) {
  const stdfs::path dir = root_ / "clock";
  engine::EngineOptions options;
  options.batch_size = 16;
  options.segment_frames = 16;
  uint64_t checkpoint_newest = 0;
  {
    auto engine = MakeStreamEngine(kInitial, options);
    ASSERT_TRUE(engine->EnableWal(dir.string()).ok());
    ASSERT_TRUE(engine->Execute(kQ1).ok());
    ASSERT_TRUE(engine->Execute(kQ2).ok());
    ASSERT_TRUE(engine->Checkpoint().ok());
    checkpoint_newest = engine->views().current_tick();
    // Appends after the checkpoint reach the log only.
    ASSERT_TRUE(engine->IngestFrames(kSource, kTick).ok());
    ASSERT_TRUE(engine->Execute(kProbe).ok());
  }
  ASSERT_GT(checkpoint_newest, 100u);

  using Stamps =
      std::map<std::pair<std::string, int64_t>, storage::SegmentInfo>;
  auto stamps = [](const EvaEngine& engine) {
    Stamps out;
    for (const auto& [name, view] : engine.views().views()) {
      for (const storage::SegmentStats& seg : view->Segments()) {
        EXPECT_GE(seg.info.last_access_tick, seg.info.created_tick)
            << name << " segment " << seg.segment_id;
        out[{name, seg.segment_id}] = seg.info;
      }
    }
    return out;
  };
  auto recovered = MakeStreamEngine(kInitial, options);
  ASSERT_TRUE(recovered->EnableWal(dir.string()).ok());
  ASSERT_GT(recovered->last_replay().records, 0);
  const Stamps restored = stamps(*recovered);
  uint64_t restored_newest = 0;
  for (const auto& [key, info] : restored) {
    restored_newest = std::max(restored_newest, info.last_access_tick);
  }
  // Replay stamped its appends after every snapshot stamp.
  EXPECT_GT(restored_newest, checkpoint_newest);

  ASSERT_TRUE(recovered->Execute(kProbe).ok());
  int64_t restamped = 0;
  for (const auto& [key, info] : stamps(*recovered)) {
    auto before = restored.find(key);
    if (before != restored.end() &&
        before->second.last_access_tick == info.last_access_tick) {
      continue;
    }
    ++restamped;
    EXPECT_GT(info.last_access_tick, restored_newest)
        << key.first << " segment " << key.second;
  }
  EXPECT_GT(restamped, 0);
}

}  // namespace
}  // namespace eva::engine
