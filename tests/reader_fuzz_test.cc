// Fuzz property tests for every parser that consumes untrusted bytes: the
// EVA-QL parser/lexer, the predicate codec, the segment / manifest /
// lifecycle file readers, and WAL replay. The property is
// uniform — malformed input (random bytes, truncations, bit flips) yields
// a Status error or a successful parse, never a crash, throw, or sanitizer
// report. CI runs this binary
// under ASan/UBSan; the seeds are fixed so failures replay exactly.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "engine/eva_engine.h"
#include "parser/parser.h"
#include "storage/view_persistence.h"
#include "symbolic/predicate.h"
#include "symbolic/predicate_io.h"
#include "vbench/vbench.h"
#include "view_test_util.h"
#include "wal/wal_log.h"
#include "wal/wal_replay.h"

namespace eva {
namespace {

namespace stdfs = std::filesystem;

// Printable-ish alphabet biased toward the tokens our grammars use, plus
// raw control bytes so the lexer sees genuinely hostile input.
std::string RandomText(Rng& rng, size_t max_len) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
      "0123456789 \t\n.,;:%#@*()<>=!'\"-+_";
  const size_t len = rng.NextBelow(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    if (rng.NextBool(0.05)) {
      out += static_cast<char>(rng.NextBelow(256));
    } else {
      out += kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
    }
  }
  return out;
}

std::string Truncate(Rng& rng, const std::string& s) {
  if (s.empty()) return s;
  return s.substr(0, rng.NextBelow(s.size()));
}

std::string BitFlip(Rng& rng, const std::string& s) {
  if (s.empty()) return s;
  std::string out = s;
  const size_t flips = 1 + rng.NextBelow(4);
  for (size_t i = 0; i < flips; ++i) {
    const size_t pos = rng.NextBelow(out.size());
    out[pos] = static_cast<char>(out[pos] ^ (1u << rng.NextBelow(8)));
  }
  return out;
}

std::string Mutate(Rng& rng, const std::string& s) {
  switch (rng.NextBelow(3)) {
    case 0:
      return Truncate(rng, s);
    case 1:
      return BitFlip(rng, s);
    default:
      return BitFlip(rng, Truncate(rng, s));
  }
}

TEST(ReaderFuzzTest, SqlParserNeverCrashes) {
  const std::vector<std::string> corpus = {
      "SELECT id, obj FROM v CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 300 AND label = 'car' LIMIT 5;",
      "SELECT id FROM v WHERE area > 0.25 AND CarType(frame, bbox) = "
      "'Nissan' AND id >= 10 AND id < 20;",
      "CREATE UDF Foo TYPE classifier ON FasterRCNNResNet50 COST 10;",
      "EXPLAIN ANALYZE SELECT id FROM v WHERE id < 5;",
      "DROP UDF Foo;",
      "SHOW UDFS;",
  };
  Rng rng(20260805);
  for (int i = 0; i < 4000; ++i) {
    std::string input = (i % 4 == 0)
                            ? RandomText(rng, 160)
                            : Mutate(rng, corpus[rng.NextBelow(corpus.size())]);
    auto r = parser::ParseStatement(input);  // must return, never throw
    (void)r;
  }
  // Regression: numeric literals that overflow int64/double used to throw
  // out of std::stoll/std::stod and abort the process.
  EXPECT_FALSE(
      parser::ParseStatement(
          "SELECT id FROM v WHERE id < 99999999999999999999999999;")
          .ok());
  EXPECT_FALSE(
      parser::ParseStatement("SELECT id FROM v LIMIT 99999999999999999999;")
          .ok());
  auto big_double =
      parser::ParseStatement("SELECT id FROM v WHERE area > 1.0e999999;");
  (void)big_double;  // overflow to an error, not a throw
}

TEST(ReaderFuzzTest, PredicateCodecNeverCrashes) {
  // Round-trip corpus: encode a few real predicates.
  std::vector<std::string> corpus;
  {
    symbolic::Conjunct c;
    c.Constrain("id", symbolic::DimConstraint::Numeric(
                          symbolic::DimKind::kInteger,
                          symbolic::Interval(symbolic::Bound::Closed(10),
                                             symbolic::Bound::Open(300))));
    c.Constrain("label", symbolic::DimConstraint::Categorical({"car"}, false));
    symbolic::Predicate p;
    p.AddConjunct(c);
    corpus.push_back(symbolic::EncodePredicate(p));
    corpus.push_back(symbolic::EncodePredicate(symbolic::Predicate::True()));
    corpus.push_back(symbolic::EncodePredicate(symbolic::Predicate::False()));
  }
  Rng rng(97);
  for (int i = 0; i < 4000; ++i) {
    std::string input = (i % 4 == 0)
                            ? RandomText(rng, 120)
                            : Mutate(rng, corpus[rng.NextBelow(corpus.size())]);
    auto r = symbolic::DecodePredicate(input);
    (void)r;
  }
  // Hostile counts and kinds must fail cleanly instead of allocating or
  // indexing past the enum.
  EXPECT_FALSE(symbolic::DecodePredicate("P 1 C 1 x 7 Ci 1 a").ok());
  EXPECT_FALSE(symbolic::DecodePredicate("P 1 C 1 x -3 Ci 1 a").ok());
  EXPECT_FALSE(
      symbolic::DecodePredicate("P 1 C 1 x 2 Ci 999999999999999999 a").ok());
  EXPECT_FALSE(symbolic::DecodePredicate("P 99999999 C 1").ok());
  // Bad escapes and numeric garbage used to decode to wrong values (a NUL
  // in the dimension name, a bound of 0 or of the numeric prefix).
  EXPECT_FALSE(symbolic::DecodePredicate("P 1 C 1 x%ZZ 0 N c:1 c:2 0").ok());
  EXPECT_FALSE(symbolic::DecodePredicate("P 1 C 1 x 0 N c:junk inf 0").ok());
  EXPECT_FALSE(symbolic::DecodePredicate("P 1 C 1 x 0 N c:1xyz c:5 0").ok());
}

class FileReaderFuzzTest : public ::testing::Test {
 protected:
  FileReaderFuzzTest() {
    dir_ = stdfs::temp_directory_path() /
           ("eva_fuzz_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  ~FileReaderFuzzTest() override { stdfs::remove_all(dir_); }

  void WriteRaw(const std::string& name, const std::string& body) {
    stdfs::remove_all(dir_);
    stdfs::create_directories(dir_);
    std::ofstream out(dir_ / name, std::ios::binary);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  }

  /// Writes `body` as the one file of a committed generation: a valid
  /// MANIFEST lists it with its true size and CRC32, so the loader's
  /// parser, not the checksum, is what meets the bytes.
  void WriteCommitted(const std::string& name, const std::string& kind,
                      const std::string& body) {
    WriteRaw(name, body);
    std::string manifest = "eva-manifest 1\ngeneration 1\nfile " + name +
                           " " + std::to_string(body.size()) + " " +
                           StrFormat("%08x", Crc32(body)) + " " + kind + "\n";
    manifest += "checksum " + StrFormat("%08x", Crc32(manifest)) + "\n";
    std::ofstream out(dir_ / "MANIFEST", std::ios::binary);
    out << manifest;
  }

  stdfs::path dir_;
};

TEST_F(FileReaderFuzzTest, SegmentCodecReaderNeverCrashes) {
  // Corpus: a real binary .evaseg body over columns that exercise every
  // codec family — FOR ints, RLE/dict strings, bit-packed bools, doubles,
  // nulls, and a packed key index.
  storage::ViewStore store;
  store.set_build_options({/*compress=*/true});
  Schema schema({{"obj", DataType::kInt64},
                 {"label", DataType::kString},
                 {"flag", DataType::kBool},
                 {"score", DataType::kDouble}});
  storage::MaterializedView* view = store.GetOrCreate("Det@v", schema);
  for (int64_t f = 0; f < 300; ++f) {
    if (f % 17 == 0) {
      PutRows(view, {f, -1}, {});  // presence-only keys
      continue;
    }
    PutRows(view, {f, -1},
            {{Value(f % 6), Value(f % 3 == 0 ? "car" : "person"),
              Value(f % 2 == 0), Value(0.5 + static_cast<double>(f % 7))},
             {Value::Null(), Value("bus"), Value::Null(), Value(0.125)}});
  }
  const std::string body = storage::SerializeViewSegments("Det@v", *view);
  ASSERT_FALSE(body.empty());

  // Sanity: the untouched body round-trips into an identical store.
  {
    storage::ViewStore loaded;
    Status s = storage::ParseSegmentBody(body, "x.evaseg", &loaded);
    ASSERT_TRUE(s.ok()) << s.ToString();
    const storage::MaterializedView* lv = loaded.Find("Det@v");
    ASSERT_NE(lv, nullptr);
    EXPECT_EQ(lv->num_keys(), view->num_keys());
    EXPECT_EQ(lv->num_rows(), view->num_rows());
    for (int64_t f = 0; f < 300; ++f) {
      auto a = storage::ReadKey(*view, {f, -1});
      auto b = storage::ReadKey(*lv, {f, -1});
      ASSERT_EQ(a.has_value(), b.has_value()) << f;
      if (!a.has_value()) continue;
      ASSERT_EQ(a->size(), b->size()) << f;
      for (size_t r = 0; r < a->size(); ++r) {
        for (size_t c = 0; c < (*a)[r].size(); ++c) {
          EXPECT_EQ((*a)[r][c], (*b)[r][c]) << f;
        }
      }
    }
  }

  // Property: mutated bodies parse to an error (installing nothing) or
  // parse cleanly to rows that existed in the original view — never a
  // crash, never an invented row. Direct ParseSegmentBody has no CRC
  // shield, so this exercises the format validation itself.
  Rng rng(1234);
  for (int i = 0; i < 600; ++i) {
    const std::string mutated =
        (i % 5 == 0) ? RandomText(rng, 600) : Mutate(rng, body);
    storage::ViewStore loaded;
    Status s = storage::ParseSegmentBody(mutated, "fz.evaseg", &loaded);
    if (!s.ok()) {
      EXPECT_TRUE(loaded.views().empty());
      continue;
    }
    const storage::MaterializedView* lv = loaded.Find("Det@v");
    if (lv == nullptr) continue;  // parsed under a mutated name
    // ParseSegmentBody installed exactly what the decoder returned: each
    // decoded key with its decoded row count (a key repeated across
    // segments keeps its first occurrence), and nothing else.
    auto decoded = storage::DecodeSegmentBody(mutated, "fz.evaseg");
    ASSERT_TRUE(decoded.ok());
    const size_t nfields = decoded.value().schema.num_fields();
    std::set<storage::ViewKey> installed;
    for (const storage::DecodedSegment& seg : decoded.value().segments) {
      ASSERT_EQ(seg.key_rows.size(), seg.keys.size() + 1);
      ASSERT_EQ(seg.cols.size(), nfields);
      for (size_t k = 0; k < seg.keys.size(); ++k) {
        const auto rows = storage::ReadKey(*lv, seg.keys[k]);
        ASSERT_TRUE(rows.has_value());
        if (!installed.insert(seg.keys[k]).second) continue;
        EXPECT_EQ(rows->size(), seg.key_rows[k + 1] - seg.key_rows[k]);
        // Lane sizes, dict indexes, and run offsets were all revalidated,
        // so installed rows always have the right shape.
        for (const Row& row : *rows) EXPECT_EQ(row.size(), nfields);
      }
    }
    EXPECT_EQ(lv->num_keys(), static_cast<int64_t>(installed.size()));
  }

  // Through the manifested v2 load path the CRC catches what the parser
  // cannot: corrupt .evaseg files quarantine and retract, never load.
  {
    stdfs::remove_all(dir_);
    udf::UdfManager manager;
    ASSERT_TRUE(storage::SaveSession(store, manager, dir_.string()).ok());
    std::string seg_file;
    for (const auto& entry : stdfs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > 7 && name.substr(name.size() - 7) == ".evaseg") {
        seg_file = name;
      }
    }
    ASSERT_FALSE(seg_file.empty());
    Rng crc_rng(4321);
    std::ifstream in(dir_ / seg_file, std::ios::binary);
    std::string good((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    for (int i = 0; i < 60; ++i) {
      std::string bad = BitFlip(crc_rng, good);
      if (bad == good) continue;
      {
        std::ofstream out(dir_ / seg_file, std::ios::binary);
        out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
      }
      storage::ViewStore loaded;
      auto report = storage::LoadSession(dir_.string(), &loaded, nullptr);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(loaded.Find("Det@v"), nullptr);
      ASSERT_EQ(report.value().quarantined.size(), 1u);
      EXPECT_EQ(report.value().quarantined[0].view_key, "Det@v");
      // Restore for the next round (quarantine renamed the file away).
      std::error_code ec;
      stdfs::remove(dir_ / (seg_file + ".quarantined"), ec);
      std::ofstream out(dir_ / seg_file, std::ios::binary);
      out.write(good.data(), static_cast<std::streamsize>(good.size()));
    }
  }
}

// A segment body whose column encodings are valid but disagree with the
// schema's field types installs nothing: the direct parse fails, and a
// committed snapshot file of it is quarantined.
TEST_F(FileReaderFuzzTest, ColumnOfAnotherTypeInstallsNothing) {
  storage::ViewStore store;
  const Schema schema({{"obj", DataType::kInt64},
                       {"label", DataType::kString},
                       {"flag", DataType::kBool},
                       {"score", DataType::kDouble}});
  storage::MaterializedView* view = store.GetOrCreate("Det@v", schema);
  for (int64_t f = 0; f < 40; ++f) {
    PutRows(view, {f, -1},
            {{Value(f % 6), Value(f % 3 == 0 ? "car" : "person"),
              Value(f % 2 == 0), Value(0.5 + static_cast<double>(f % 7))},
             {Value::Null(), Value::Null(), Value::Null(), Value::Null()}});
  }
  std::vector<const storage::ColumnarSegment*> segments;
  const auto sealed = view->SealedSegments();
  for (const auto& [seg_id, seg] : sealed) segments.push_back(seg.get());
  ASSERT_TRUE(storage::ParseSegmentBody(
                  storage::SerializeSegments("Det@v", schema, segments),
                  "ok.evaseg", &store)
                  .ok());
  int cases = 0;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    for (const DataType type : {DataType::kNull, DataType::kBool,
                                DataType::kInt64, DataType::kDouble,
                                DataType::kString}) {
      if (type == schema.field(c).type) continue;
      std::vector<Field> fields = schema.fields();
      fields[c].type = type;
      const std::string body =
          storage::SerializeSegments("Det@v", Schema(fields), segments);
      SCOPED_TRACE("field " + fields[c].name + " as " + DataTypeName(type));
      storage::ViewStore loaded;
      EXPECT_FALSE(storage::ParseSegmentBody(body, "bad.evaseg", &loaded).ok());
      EXPECT_TRUE(loaded.views().empty());
      WriteCommitted("Det@v.g1.evaseg", "vseg Det@v", body);
      auto report = storage::LoadSession(dir_.string(), &loaded, nullptr);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(loaded.Find("Det@v"), nullptr);
      ASSERT_EQ(report.value().quarantined.size(), 1u);
      EXPECT_EQ(report.value().quarantined[0].file, "Det@v.g1.evaseg");
      ++cases;
    }
  }
  EXPECT_EQ(cases, 16);
}

TEST_F(FileReaderFuzzTest, ManifestReaderNeverCrashes) {
  Rng rng(777);
  const std::string valid =
      "eva-manifest 1\ngeneration 3\n"
      "file Det@v.g3.evaseg 120 0a1b2c3d vseg Det@v\n"
      "file lifecycle.g3.evastate 64 11223344 lifecycle -\n";
  for (int i = 0; i < 300; ++i) {
    const std::string mutated =
        (i % 5 == 0) ? RandomText(rng, 200) : Mutate(rng, valid);
    WriteRaw("MANIFEST", mutated);
    storage::ViewStore loaded;
    auto report = storage::LoadSession(dir_.string(), &loaded, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // A mutated manifest is (almost) always a checksum failure; nothing
    // may load off the back of one.
    if (report.value().manifest_corrupt) {
      EXPECT_TRUE(loaded.views().empty());
    }
  }
}

TEST_F(FileReaderFuzzTest, LifecycleReaderNeverCrashes) {
  // Corpus: the lifecycle file of a real session save.
  catalog::VideoInfo video;
  video.name = "fz";
  video.num_frames = 60;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  ASSERT_TRUE(engine
                  ->Execute("SELECT id, obj FROM fz CROSS APPLY "
                            "FasterRCNNResNet50(frame) WHERE id < 60 AND "
                            "label = 'car';")
                  .ok());
  stdfs::create_directories(dir_);
  ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  std::string body;
  for (const auto& entry : stdfs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 9 && name.substr(name.size() - 9) == ".evastate") {
      std::ifstream in(entry.path(), std::ios::binary);
      body.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
  }
  ASSERT_FALSE(body.empty());

  Rng rng(999);
  for (int i = 0; i < 300; ++i) {
    const std::string mutated =
        (i % 5 == 0) ? RandomText(rng, 400) : Mutate(rng, body);
    WriteCommitted("lifecycle.g1.evastate", "lifecycle -", mutated);
    storage::ViewStore store;
    udf::UdfManager manager;
    auto report = storage::LoadSession(dir_.string(), &store, &manager);
    // A file that fails to parse is quarantined whole: no coverage.
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (!report.value().clean()) {
      EXPECT_TRUE(manager.entries().empty());
    }
  }
}

TEST_F(FileReaderFuzzTest, WalReplayNeverCrashes) {
  // Corpus: the log of a small streaming session (queries, an ingest
  // tick, more queries), which carries several binary segment_append
  // records.
  const stdfs::path wal_dir = dir_ / "wal";
  {
    engine::EngineOptions options;
    options.optimizer.mode = optimizer::ReuseMode::kEva;
    engine::EvaEngine engine(options, std::make_shared<catalog::Catalog>());
    ASSERT_TRUE(vbench::RegisterStandardUdfs(&engine).ok());
    catalog::VideoInfo video;
    video.name = "ws";
    video.mean_objects_per_frame = 6;
    video.seed = 5;
    ingest::StreamOptions sopts;
    sopts.initial_frames = 40;
    sopts.total_frames = 80;
    ASSERT_TRUE(engine.RegisterStream(video, sopts).ok());
    ASSERT_TRUE(engine.EnableWal(wal_dir.string()).ok());
    const char* q1 =
        "SELECT id, obj FROM ws CROSS APPLY FasterRCNNResNet50(frame) "
        "WHERE label = 'car';";
    const char* q2 =
        "SELECT id, obj FROM ws CROSS APPLY FasterRCNNResNet50(frame) "
        "WHERE label = 'car' AND CarType(frame, bbox) = 'Nissan';";
    ASSERT_TRUE(engine.Execute(q1).ok());
    ASSERT_TRUE(engine.IngestFrames("ws", 40).ok());
    ASSERT_TRUE(engine.Execute(q2).ok());
  }
  std::string log;
  {
    std::ifstream in(wal_dir / wal::WalFileName(0), std::ios::binary);
    log.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  const wal::WalScan scan = wal::ScanWal(log);
  ASSERT_FALSE(scan.torn);
  std::vector<size_t> appends;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    if (scan.records[i].type == wal::WalRecordType::kSegmentAppend) {
      appends.push_back(i);
    }
  }
  ASSERT_GE(appends.size(), 2u);

  struct Replayed {
    Status status;
    size_t views = 0;
    int64_t keys = 0;
  };
  // Replays `records[0, n)` followed by `extra` (when non-null), each
  // framed with a valid CRC, into a fresh store.
  auto replay = [&](size_t n, const wal::WalRecord* extra) {
    std::string bytes;
    for (size_t i = 0; i < n; ++i) bytes += wal::EncodeFrame(scan.records[i]);
    if (extra != nullptr) bytes += wal::EncodeFrame(*extra);
    const stdfs::path path = dir_ / "fuzz.evalog";
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    catalog::Catalog catalog;
    storage::ViewStore views;
    udf::UdfManager manager;
    auto r = wal::ReplayWal(path.string(), &catalog, &views, &manager,
                            symbolic::SymbolicBudget());
    Replayed out{r.status(), views.views().size(), 0};
    for (const auto& [name, view] : views.views()) {
      out.keys += view->num_keys();
    }
    return out;
  };
  // The intact log replays cleanly and installs every appended key.
  const Replayed full = replay(scan.records.size(), nullptr);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  ASSERT_GT(full.keys, 0);

  Rng rng(2468);
  int rejected = 0;
  for (int i = 0; i < 240; ++i) {
    const size_t k = appends[rng.NextBelow(appends.size())];
    const Replayed before = replay(k, nullptr);
    ASSERT_TRUE(before.status.ok()) << before.status.ToString();
    wal::WalRecord bad = scan.records[k];
    bad.payload = Mutate(rng, bad.payload);
    const Replayed after = replay(k, &bad);
    if (after.status.ok()) continue;  // mutation stayed inside value lanes
    ++rejected;
    // A rejected record installs nothing: no view, no key.
    EXPECT_EQ(after.views, before.views) << i;
    EXPECT_EQ(after.keys, before.keys) << i;
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace eva
