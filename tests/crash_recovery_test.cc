// Crash-recovery matrix (docs/RELIABILITY.md): enumerate every filesystem
// fault point a save (or load) consults, simulate a process death at each
// one, and assert that a fresh engine reloading the directory returns
// results bit-identical to a fault-free run. Also covers the silent torn
// write (shortwrite) cases the CRC manifest exists to catch, and the
// schedule / glob parsing the injector is driven by.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "engine/eva_engine.h"
#include "fault/fault_injector.h"
#include "storage/view_persistence.h"
#include "vbench/vbench.h"

namespace eva::engine {
namespace {

namespace stdfs = std::filesystem;
using fault::FaultAction;
using fault::FaultInjector;
using fault::ParseFaultSchedule;

catalog::VideoInfo CrashVideo() {
  catalog::VideoInfo v;
  v.name = "cv";
  v.num_frames = 90;
  v.mean_objects_per_frame = 6;
  v.seed = 7;
  return v;
}

std::vector<std::string> SessionSql() {
  return {
      "SELECT id, obj FROM cv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 60 AND label = 'car';",
      "SELECT id, obj FROM cv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id >= 30 AND id < 90 AND label = 'car' "
      "AND CarType(frame, bbox) = 'Nissan';",
  };
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  CrashRecoveryTest() {
    root_ = stdfs::temp_directory_path() /
            ("eva_crash_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    stdfs::remove_all(root_);
    stdfs::create_directories(root_);
  }
  ~CrashRecoveryTest() override { stdfs::remove_all(root_); }

  std::unique_ptr<EvaEngine> MakeEva() {
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, CrashVideo());
    EXPECT_TRUE(er.ok()) << er.status().ToString();
    return er.MoveValue();
  }

  /// Per-query row text of the session run on a cold EVA engine — the
  /// reference every recovered engine must reproduce bit-for-bit.
  std::vector<std::string> Baseline() {
    auto engine = MakeEva();
    std::vector<std::string> out;
    for (const std::string& sql : SessionSql()) {
      auto r = engine->Execute(sql);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(r.value().batch.ToString(1 << 20));
    }
    return out;
  }

  /// Runs the session on `engine` and asserts each query's rows match the
  /// baseline exactly. Returns total simulated UDF milliseconds.
  double AssertSessionMatches(EvaEngine* engine,
                              const std::vector<std::string>& baseline,
                              const std::string& context) {
    const std::vector<std::string> session = SessionSql();
    double udf_ms = 0;
    for (size_t q = 0; q < session.size(); ++q) {
      auto r = engine->Execute(session[q]);
      EXPECT_TRUE(r.ok()) << context << ": " << r.status().ToString();
      if (!r.ok()) return udf_ms;
      EXPECT_EQ(r.value().batch.ToString(1 << 20), baseline[q])
          << context << ": query " << q << " rows diverge";
      udf_ms += r.value().metrics.breakdown[CostCategory::kUdf];
    }
    return udf_ms;
  }

  static void CopyDir(const stdfs::path& from, const stdfs::path& to) {
    stdfs::remove_all(to);
    stdfs::copy(from, to, stdfs::copy_options::recursive);
  }

  stdfs::path root_;
};

TEST(FaultScheduleTest, ParsesActionsPatternsAndOccurrences) {
  auto s = ParseFaultSchedule(
      "crash@fs.rename:MANIFEST#1; error@udf:*#1-2; fail@fs.write:*#3-; "
      "shortwrite@fs.write:MANIFEST.tmp#*; crash-exit@fs.remove:x");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  const auto& rules = s.value().rules;
  ASSERT_EQ(rules.size(), 5u);
  EXPECT_EQ(rules[0].action, FaultAction::kCrash);
  EXPECT_EQ(rules[0].pattern, "fs.rename:MANIFEST");
  EXPECT_EQ(rules[0].first, 1);
  EXPECT_EQ(rules[0].last, 1);
  EXPECT_EQ(rules[1].action, FaultAction::kError);
  EXPECT_EQ(rules[1].first, 1);
  EXPECT_EQ(rules[1].last, 2);
  EXPECT_EQ(rules[2].action, FaultAction::kFail);
  EXPECT_EQ(rules[2].first, 3);
  EXPECT_LT(rules[2].last, 0);  // open-ended
  EXPECT_EQ(rules[3].action, FaultAction::kShortWrite);
  EXPECT_EQ(rules[3].first, 1);
  EXPECT_LT(rules[3].last, 0);  // '*' = every occurrence
  EXPECT_EQ(rules[4].action, FaultAction::kCrashExit);

  EXPECT_TRUE(ParseFaultSchedule("").ok());
  EXPECT_TRUE(ParseFaultSchedule("  ;  ").ok());
  EXPECT_FALSE(ParseFaultSchedule("bogus@x").ok());
  EXPECT_FALSE(ParseFaultSchedule("crash@").ok());
  EXPECT_FALSE(ParseFaultSchedule("crash").ok());
  EXPECT_FALSE(ParseFaultSchedule("crash@x#0").ok());
  EXPECT_FALSE(ParseFaultSchedule("crash@x#2-1").ok());
  EXPECT_FALSE(ParseFaultSchedule("crash@x#a").ok());
}

TEST(FaultScheduleTest, GlobMatchBacktracks) {
  EXPECT_TRUE(fault::GlobMatch("*", ""));
  EXPECT_TRUE(fault::GlobMatch("*", "anything"));
  EXPECT_TRUE(fault::GlobMatch("fs.write:*", "fs.write:MANIFEST.tmp"));
  EXPECT_TRUE(fault::GlobMatch("udf:*:17:*", "udf:CarType:17:3"));
  EXPECT_TRUE(fault::GlobMatch("a*b*c", "a__b__b__c"));
  EXPECT_FALSE(fault::GlobMatch("a*b*c", "a__c__b"));
  EXPECT_FALSE(fault::GlobMatch("fs.read:*", "fs.write:x"));
  EXPECT_FALSE(fault::GlobMatch("", "x"));
  EXPECT_TRUE(fault::GlobMatch("", ""));
}

TEST(FaultInjectorTest, CountsPerPointAndLatchesOnCrash) {
  auto sched = ParseFaultSchedule("error@udf:*#2; crash@fs.rename:M#1");
  ASSERT_TRUE(sched.ok());
  FaultInjector inj(sched.MoveValue());
  // Occurrences are counted per exact point name: the second consultation
  // of the SAME point fires, a second distinct point does not.
  EXPECT_EQ(inj.At("udf:A:0:0"), FaultAction::kNone);
  EXPECT_EQ(inj.At("udf:B:0:0"), FaultAction::kNone);
  EXPECT_EQ(inj.At("udf:A:0:0"), FaultAction::kError);
  EXPECT_EQ(inj.At("udf:A:0:0"), FaultAction::kNone);
  EXPECT_FALSE(inj.halted());
  EXPECT_EQ(inj.At("fs.rename:M"), FaultAction::kCrash);
  EXPECT_TRUE(inj.halted());
  // After the crash the process is "dead": every operation reports kCrash,
  // but only genuine rule firings count toward fired().
  EXPECT_EQ(inj.At("fs.write:anything"), FaultAction::kCrash);
  EXPECT_EQ(inj.At("udf:A:0:0"), FaultAction::kCrash);
  EXPECT_EQ(inj.fired(), 2);
  inj.Reset();
  EXPECT_FALSE(inj.halted());
  EXPECT_EQ(inj.At("udf:A:0:0"), FaultAction::kNone);
}

/// Crash at every fault point of a save OVER an existing generation: the
/// previous generation must stay fully loadable (or the new one, when the
/// crash lands after the manifest commit) and the reloaded session must
/// reuse everything — zero UDF time, rows bit-identical.
TEST_F(CrashRecoveryTest, SaveCrashMatrixPreservesACompleteGeneration) {
  const std::vector<std::string> baseline = Baseline();
  auto engine = MakeEva();
  for (const std::string& sql : SessionSql()) {
    ASSERT_TRUE(engine->Execute(sql).ok());
  }
  const stdfs::path good = root_ / "good";
  ASSERT_TRUE(engine->SaveViews(good.string()).ok());

  // Enumerate the fault points of a second save over generation 1 by
  // recording one. Point names embed the generation number and the
  // directory basename, so the recording save and every crashing save
  // must start from the same directory state AND the same path.
  const stdfs::path dir = root_ / "work";
  CopyDir(good, dir);
  engine->fault_injector()->set_recording(true);
  ASSERT_TRUE(engine->SaveViews(dir.string()).ok());
  std::vector<fault::FaultHit> points = engine->fault_injector()->hits();
  engine->fault_injector()->set_recording(false);
  engine->fault_injector()->Reset();
  ASSERT_GE(points.size(), 8u) << "save consults too few fault points";

  for (const fault::FaultHit& hit : points) {
    const std::string label =
        hit.point + "#" + std::to_string(hit.occurrence);
    CopyDir(good, dir);
    ASSERT_TRUE(engine
                    ->SetFaultSchedule("crash@" + hit.point + "#" +
                                       std::to_string(hit.occurrence))
                    .ok());
    Status s = engine->SaveViews(dir.string());
    EXPECT_FALSE(s.ok()) << label << ": crashed save reported success";
    ASSERT_TRUE(engine->SetFaultSchedule("").ok());

    auto fresh = MakeEva();
    ASSERT_TRUE(fresh->LoadViews(dir.string()).ok())
        << label << ": recovery load failed";
    // Whatever generation survived holds the same fully-covered data.
    const double udf_ms =
        AssertSessionMatches(fresh.get(), baseline, "crash at " + label);
    EXPECT_DOUBLE_EQ(udf_ms, 0.0)
        << label << ": a complete generation should reuse everything "
        << "(recovery: " << fresh->last_recovery().Summary() << ")";
  }
}

/// Crash at every fault point of a FIRST save into an empty directory.
/// Anything recoverable afterwards (usually a partial set of complete view
/// files with no manifest) may only underclaim: the session recomputes the
/// gaps and returns exactly the baseline rows.
TEST_F(CrashRecoveryTest, FirstSaveCrashMatrixNeverOverclaims) {
  const std::vector<std::string> baseline = Baseline();
  auto engine = MakeEva();
  for (const std::string& sql : SessionSql()) {
    ASSERT_TRUE(engine->Execute(sql).ok());
  }
  // Record a first save into `dir`, then crash repeated first saves into
  // the SAME path (emptied each time) so every recorded point — including
  // fs.mkdir:<basename> — lines up.
  const stdfs::path dir = root_ / "work";
  engine->fault_injector()->set_recording(true);
  ASSERT_TRUE(engine->SaveViews(dir.string()).ok());
  std::vector<fault::FaultHit> points = engine->fault_injector()->hits();
  engine->fault_injector()->set_recording(false);
  engine->fault_injector()->Reset();

  for (const fault::FaultHit& hit : points) {
    const std::string label =
        hit.point + "#" + std::to_string(hit.occurrence);
    stdfs::remove_all(dir);
    ASSERT_TRUE(engine
                    ->SetFaultSchedule("crash@" + hit.point + "#" +
                                       std::to_string(hit.occurrence))
                    .ok());
    EXPECT_FALSE(engine->SaveViews(dir.string()).ok()) << label;
    ASSERT_TRUE(engine->SetFaultSchedule("").ok());

    auto fresh = MakeEva();
    Status loaded = fresh->LoadViews(dir.string());
    if (!loaded.ok()) {
      // Crash before the directory existed — nothing was persisted.
      EXPECT_EQ(loaded.code(), StatusCode::kNotFound) << label;
    }
    AssertSessionMatches(fresh.get(), baseline, "first-save crash " + label);
  }
}

/// Crash at every fault point of a LOAD: an interrupted recovery must not
/// damage the directory — a later fault-free load still reuses everything.
TEST_F(CrashRecoveryTest, LoadCrashMatrixLeavesDirectoryLoadable) {
  const std::vector<std::string> baseline = Baseline();
  const stdfs::path good = root_ / "good";
  {
    auto engine = MakeEva();
    for (const std::string& sql : SessionSql()) {
      ASSERT_TRUE(engine->Execute(sql).ok());
    }
    ASSERT_TRUE(engine->SaveViews(good.string()).ok());
  }
  std::vector<fault::FaultHit> points;
  {
    auto rec = MakeEva();
    rec->fault_injector()->set_recording(true);
    ASSERT_TRUE(rec->LoadViews(good.string()).ok());
    points = rec->fault_injector()->hits();
  }
  ASSERT_GE(points.size(), 3u);

  for (const fault::FaultHit& hit : points) {
    const std::string label =
        hit.point + "#" + std::to_string(hit.occurrence);
    auto crashed = MakeEva();
    ASSERT_TRUE(crashed
                    ->SetFaultSchedule("crash@" + hit.point + "#" +
                                       std::to_string(hit.occurrence))
                    .ok());
    EXPECT_FALSE(crashed->LoadViews(good.string()).ok()) << label;

    auto fresh = MakeEva();
    ASSERT_TRUE(fresh->LoadViews(good.string()).ok()) << label;
    EXPECT_TRUE(fresh->last_recovery().clean()) << label;
    const double udf_ms =
        AssertSessionMatches(fresh.get(), baseline, "load crash " + label);
    EXPECT_DOUBLE_EQ(udf_ms, 0.0) << label;
  }
}

/// A torn MANIFEST (short write that still renamed into place) means
/// nothing in the directory can be verified: recovery quarantines every
/// managed file and the session recomputes from scratch — correct rows,
/// no overclaim.
TEST_F(CrashRecoveryTest, TornManifestQuarantinesEverything) {
  const std::vector<std::string> baseline = Baseline();
  auto engine = MakeEva();
  for (const std::string& sql : SessionSql()) {
    ASSERT_TRUE(engine->Execute(sql).ok());
  }
  const stdfs::path dir = root_ / "torn";
  ASSERT_TRUE(engine->SetFaultSchedule("shortwrite@fs.write:MANIFEST.tmp#1")
                  .ok());
  // The save itself reports success — a torn write is silent by nature.
  ASSERT_TRUE(engine->SaveViews(dir.string()).ok());
  ASSERT_TRUE(engine->SetFaultSchedule("").ok());

  auto fresh = MakeEva();
  ASSERT_TRUE(fresh->LoadViews(dir.string()).ok());
  const storage::RecoveryReport& report = fresh->last_recovery();
  EXPECT_TRUE(report.manifest_corrupt);
  EXPECT_FALSE(report.quarantined.empty());
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.Summary().find("MANIFEST corrupt"), std::string::npos);
  EXPECT_TRUE(fresh->views().views().empty())
      << "unverifiable views must not load";
  const double udf_ms =
      AssertSessionMatches(fresh.get(), baseline, "torn manifest");
  EXPECT_GT(udf_ms, 0.0) << "everything was quarantined; must recompute";
}

/// A torn view file is caught by its manifest checksum: the file is
/// quarantined, its symbolic coverage retracted, and the session recomputes
/// exactly that view's answers — rows stay bit-identical.
TEST_F(CrashRecoveryTest, TornViewFileIsQuarantinedAndCoverageRetracted) {
  const std::vector<std::string> baseline = Baseline();
  const std::string key = "FasterRCNNResNet50@cv";
  auto engine = MakeEva();
  for (const std::string& sql : SessionSql()) {
    ASSERT_TRUE(engine->Execute(sql).ok());
  }
  const stdfs::path dir = root_ / "tornview";
  ASSERT_TRUE(
      engine->SetFaultSchedule("shortwrite@fs.write:FasterRCNN*").ok());
  ASSERT_TRUE(engine->SaveViews(dir.string()).ok());
  ASSERT_TRUE(engine->SetFaultSchedule("").ok());

  auto fresh = MakeEva();
  ASSERT_TRUE(fresh->LoadViews(dir.string()).ok());
  const storage::RecoveryReport& report = fresh->last_recovery();
  ASSERT_EQ(report.quarantined.size(), 1u) << report.Summary();
  EXPECT_EQ(report.quarantined[0].view_key, key);
  EXPECT_EQ(report.quarantined[0].reason, "checksum mismatch");
  ASSERT_EQ(report.retracted.size(), 1u);
  EXPECT_EQ(report.retracted[0], key);
  // The lifecycle file claimed coverage for the torn view; retraction must
  // have cleared it so reuse cannot overclaim rows that no longer exist.
  EXPECT_FALSE(fresh->udf_manager().Coverage(key).Evaluate(
      [](const std::string&) { return Value(int64_t{0}); }));
  EXPECT_EQ(fresh->views().Find(key), nullptr);
  // The intact CarType view still loads.
  EXPECT_NE(fresh->views().Find("CarType@cv"), nullptr);
  const double udf_ms =
      AssertSessionMatches(fresh.get(), baseline, "torn view file");
  EXPECT_GT(udf_ms, 0.0) << "the detector view must be recomputed";

  // The quarantined copy is set aside on disk, not deleted.
  bool found_quarantined = false;
  for (const auto& entry : stdfs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 12 &&
        name.compare(name.size() - 12, 12, ".quarantined") == 0) {
      found_quarantined = true;
    }
  }
  EXPECT_TRUE(found_quarantined);
}

/// A permanent filesystem failure (fail@) during save must surface as an
/// error and leave the previous generation untouched.
TEST_F(CrashRecoveryTest, FailedRenameLeavesPreviousGenerationIntact) {
  const std::vector<std::string> baseline = Baseline();
  auto engine = MakeEva();
  for (const std::string& sql : SessionSql()) {
    ASSERT_TRUE(engine->Execute(sql).ok());
  }
  const stdfs::path dir = root_ / "failrename";
  ASSERT_TRUE(engine->SaveViews(dir.string()).ok());
  ASSERT_TRUE(engine->SetFaultSchedule("fail@fs.rename:MANIFEST#1").ok());
  EXPECT_FALSE(engine->SaveViews(dir.string()).ok());
  ASSERT_TRUE(engine->SetFaultSchedule("").ok());

  auto fresh = MakeEva();
  ASSERT_TRUE(fresh->LoadViews(dir.string()).ok());
  EXPECT_EQ(fresh->last_recovery().generation, 1);
  const double udf_ms = AssertSessionMatches(fresh.get(), baseline,
                                             "failed manifest rename");
  EXPECT_DOUBLE_EQ(udf_ms, 0.0);
}

/// Kill-points inside the compressed-segment write itself: crash at the
/// binary .evaseg codec file's tmp write and at its rename-into-place.
/// Either way the new generation never committed, so the previous one
/// reloads complete — zero UDF time, rows bit-identical.
TEST_F(CrashRecoveryTest, CompressedSegmentWriteCrashKeepsPreviousGen) {
  const std::vector<std::string> baseline = Baseline();
  auto engine = MakeEva();
  for (const std::string& sql : SessionSql()) {
    ASSERT_TRUE(engine->Execute(sql).ok());
  }
  const stdfs::path dir = root_ / "segcrash";
  ASSERT_TRUE(engine->SaveViews(dir.string()).ok());
  // The engine's saves write binary codec files; prove that's the format
  // under test before crashing inside it.
  bool saw_evaseg = false;
  for (const auto& entry : stdfs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 7 && name.substr(name.size() - 7) == ".evaseg") {
      saw_evaseg = true;
    }
  }
  ASSERT_TRUE(saw_evaseg) << "engine save should emit .evaseg codec files";

  for (const char* schedule : {"crash@fs.write:*.evaseg.tmp#1",
                               "crash@fs.rename:*.evaseg#1"}) {
    ASSERT_TRUE(engine->SetFaultSchedule(schedule).ok());
    Status s = engine->SaveViews(dir.string());
    EXPECT_FALSE(s.ok()) << schedule << ": crashed save reported success";
    EXPECT_GE(engine->fault_injector()->fired(), 1)
        << schedule << ": the scheduled crash never fired";
    ASSERT_TRUE(engine->SetFaultSchedule("").ok());

    auto fresh = MakeEva();
    ASSERT_TRUE(fresh->LoadViews(dir.string()).ok()) << schedule;
    const double udf_ms =
        AssertSessionMatches(fresh.get(), baseline, schedule);
    EXPECT_DOUBLE_EQ(udf_ms, 0.0)
        << schedule << ": the surviving generation should reuse everything";
  }
}

/// Cross-configuration interop: a directory saved WITHOUT segment
/// compression holds plain-lane .evaseg files and loads into a
/// compression-enabled engine with full reuse, and a compressed save loads
/// into a compression-off engine the same way.
TEST_F(CrashRecoveryTest, UncompressedV2DirectoryInteropLoads) {
  const std::vector<std::string> baseline = Baseline();
  auto make = [&](bool compress) {
    engine::EngineOptions options;
    options.optimizer.mode = optimizer::ReuseMode::kEva;
    options.segment_compression = compress;
    auto er = vbench::MakeEngine(options, CrashVideo());
    EXPECT_TRUE(er.ok());
    return er.MoveValue();
  };
  std::map<bool, uintmax_t> view_bytes;
  for (bool save_compressed : {false, true}) {
    const stdfs::path dir =
        root_ / (save_compressed ? "from_seg" : "from_plain");
    {
      auto writer = make(save_compressed);
      for (const std::string& sql : SessionSql()) {
        ASSERT_TRUE(writer->Execute(sql).ok());
      }
      ASSERT_TRUE(writer->SaveViews(dir.string()).ok());
      // Both configurations write .evaseg view files; only their lanes
      // differ, so the plain save is the larger one.
      for (const auto& entry : stdfs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 7 && name.substr(name.size() - 7) == ".evaseg") {
          view_bytes[save_compressed] += entry.file_size();
        }
      }
      ASSERT_GT(view_bytes[save_compressed], 0u) << dir;
    }
    auto reader = make(!save_compressed);
    ASSERT_TRUE(reader->LoadViews(dir.string()).ok());
    EXPECT_TRUE(reader->last_recovery().clean());
    const double udf_ms = AssertSessionMatches(
        reader.get(), baseline,
        save_compressed ? "compressed save into plain engine"
                        : "plain save into compressed engine");
    EXPECT_DOUBLE_EQ(udf_ms, 0.0) << "cross-config load must reuse fully";
  }
  EXPECT_GT(view_bytes[false], view_bytes[true]);
}

}  // namespace
}  // namespace eva::engine
