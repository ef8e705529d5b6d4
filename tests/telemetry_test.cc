// Live telemetry plane tests (docs/OBSERVABILITY.md): the embedded HTTP
// exporter served from a live engine, the structured JSONL event log, the
// sampling profiler, and the zero-overhead contract when observability is
// off. The concurrent-scrape test is part of the TSan CI matrix — the
// exporter's thread-safety claims are checked there, not just here.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/eva_engine.h"
#include "obs/event_log.h"
#include "obs/json_util.h"
#include "obs/profiler.h"
#include "vbench/vbench.h"

namespace eva {
namespace {

// ---------------------------------------------------------------------------
// Raw-socket HTTP client — the tests exercise the exporter the way curl
// would, without adding an HTTP library dependency.
// ---------------------------------------------------------------------------

struct HttpReply {
  int status = -1;
  std::string body;
  std::string raw;
};

HttpReply HttpGet(int port, const std::string& target,
                  const std::string& method = "GET") {
  HttpReply reply;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  std::string req = method + " " + target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
                    "\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<size_t>(n);
  }
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (reply.raw.rfind("HTTP/1.1 ", 0) == 0 && reply.raw.size() > 12) {
    reply.status = std::atoi(reply.raw.c_str() + 9);
  }
  size_t sep = reply.raw.find("\r\n\r\n");
  if (sep != std::string::npos) reply.body = reply.raw.substr(sep + 4);
  return reply;
}

catalog::VideoInfo TestVideo() {
  catalog::VideoInfo video;
  video.name = "demo";
  video.num_frames = 1000;
  video.mean_objects_per_frame = 8.3 / 0.8;
  video.seed = 2022;
  return video;
}

std::string TempPath(const std::string& stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string base = (dir != nullptr && *dir != '\0') ? dir : "/tmp";
  return base + "/" + stem + "." + std::to_string(::getpid());
}

std::vector<obs::JsonValue> ReadEventLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<obs::JsonValue> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = obs::ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << "bad JSONL line: " << line;
    if (parsed.ok()) events.push_back(parsed.MoveValue());
  }
  return events;
}

std::set<std::string> EventTypes(const std::vector<obs::JsonValue>& events) {
  std::set<std::string> types;
  for (const auto& e : events) {
    const obs::JsonValue* t = e.Find("type");
    if (t != nullptr && t->is_string()) types.insert(t->str());
  }
  return types;
}

// ---------------------------------------------------------------------------
// HTTP exporter from a live engine.
// ---------------------------------------------------------------------------

TEST(TelemetryHttpTest, EndpointsServeLiveEngine) {
  obs::MetricsRegistry local;
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  auto er = vbench::MakeEngine(options, TestVideo());
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  engine->set_metrics_registry(&local);

  ASSERT_TRUE(engine->StartTelemetryServer(0).ok());
  const int port = engine->telemetry_port();
  ASSERT_GT(port, 0);

  // A second server on the same engine must be refused.
  EXPECT_FALSE(engine->StartTelemetryServer(0).ok());

  auto queries = vbench::VbenchHigh("demo", 1000);
  for (int q = 0; q < 3; ++q) {
    ASSERT_TRUE(engine->Execute(queries[q]).ok());
  }

  HttpReply health = HttpGet(port, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  HttpReply metrics = HttpGet(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# HELP"), std::string::npos);
  EXPECT_NE(metrics.body.find("eva_"), std::string::npos);
  EXPECT_NE(metrics.raw.find("text/plain; version=0.0.4"),
            std::string::npos);

  HttpReply mjson = HttpGet(port, "/metrics.json");
  EXPECT_EQ(mjson.status, 200);
  auto parsed = obs::ParseJson(mjson.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed.value().Find("metrics"), nullptr);

  HttpReply trace = HttpGet(port, "/trace");
  EXPECT_EQ(trace.status, 200);
  auto trace_json = obs::ParseJson(trace.body);
  ASSERT_TRUE(trace_json.ok()) << trace_json.status().ToString();
  ASSERT_TRUE(trace_json.value().is_array());
  EXPECT_FALSE(trace_json.value().array().empty());

  HttpReply views = HttpGet(port, "/views");
  EXPECT_EQ(views.status, 200);
  auto views_json = obs::ParseJson(views.body);
  ASSERT_TRUE(views_json.ok()) << views_json.status().ToString();
  const obs::JsonValue* view_list = views_json.value().Find("views");
  ASSERT_NE(view_list, nullptr);
  ASSERT_TRUE(view_list->is_array());
  EXPECT_FALSE(view_list->array().empty())
      << "EVA-mode queries should have materialized at least one view";
  const obs::JsonValue& first = view_list->array()[0];
  EXPECT_NE(first.Find("name"), nullptr);
  EXPECT_NE(first.Find("rows"), nullptr);
  EXPECT_NE(first.Find("coverage_atoms"), nullptr);

  // A short profile window must return the folded-stack content type.
  HttpReply profile = HttpGet(port, "/profile?seconds=0.05&hz=200");
  EXPECT_EQ(profile.status, 200);

  EXPECT_EQ(HttpGet(port, "/nope").status, 404);
  EXPECT_EQ(HttpGet(port, "/metrics", "POST").status, 405);

  engine->StopTelemetryServer();
  EXPECT_EQ(engine->telemetry_port(), -1);
  EXPECT_LT(HttpGet(port, "/healthz").status, 0)
      << "stopped server still accepting connections";

  // The port is free again: a fresh server can bind it.
  ASSERT_TRUE(engine->StartTelemetryServer(port).ok());
  EXPECT_EQ(engine->telemetry_port(), port);
  EXPECT_EQ(HttpGet(port, "/healthz").status, 200);
}

// TSan target: the test thread executes a workload while a scraper thread
// hammers every endpoint. The exporter, tracer, metrics registry, and
// views snapshot must all be safe against the concurrent reads.
TEST(TelemetryHttpTest, ConcurrentScrapeUnderLoad) {
  obs::MetricsRegistry local;
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.udf_spin_us = 5;  // give UDF calls real wall time to overlap
  auto er = vbench::MakeEngine(options, TestVideo());
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  engine->set_metrics_registry(&local);
  ASSERT_TRUE(engine->StartTelemetryServer(0).ok());
  const int port = engine->telemetry_port();
  ASSERT_GT(port, 0);

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> failures{0};
  std::thread scraper([&] {
    const char* targets[] = {"/metrics", "/metrics.json", "/trace",
                             "/views", "/healthz"};
    size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      HttpReply r = HttpGet(port, targets[i++ % 5]);
      if (r.status != 200) {
        failures.fetch_add(1);
      }
      scrapes.fetch_add(1);
    }
  });

  auto queries = vbench::VbenchHigh("demo", 1000);
  for (const std::string& sql : queries) {
    ASSERT_TRUE(engine->Execute(sql).ok());
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  engine->StopTelemetryServer();

  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Structured event log.
// ---------------------------------------------------------------------------

TEST(EventLogTest, EngineEmitsTypedRecords) {
  const std::string log_path = TempPath("eva_event_log");
  std::remove(log_path.c_str());
  std::remove((log_path + ".1").c_str());

  {
    obs::MetricsRegistry local;
    engine::EngineOptions options;
    options.optimizer.mode = optimizer::ReuseMode::kEva;
    options.event_log_path = log_path;
    options.storage_budget_bytes = 16 * 1024;  // force segment evictions
    auto er = vbench::MakeEngine(options, TestVideo());
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    engine->set_metrics_registry(&local);
    ASSERT_NE(engine->event_log(), nullptr);

    // Two transient faults per invocation point → udf_retry records.
    ASSERT_TRUE(engine->SetFaultSchedule("error@udf:*#1-2").ok());
    auto queries = vbench::VbenchHigh("demo", 1000);
    for (int q = 0; q < 4; ++q) {
      ASSERT_TRUE(engine->Execute(queries[q]).ok());
    }
    EXPECT_GT(engine->lifecycle()->evictions(), 0)
        << "budget never forced an eviction — eviction records untested";
  }

  auto events = ReadEventLines(log_path);
  ASSERT_FALSE(events.empty());
  std::set<std::string> types = EventTypes(events);
  EXPECT_TRUE(types.count("query_start")) << "missing query_start";
  EXPECT_TRUE(types.count("query_end")) << "missing query_end";
  EXPECT_TRUE(types.count("view_admission")) << "missing view_admission";
  EXPECT_TRUE(types.count("view_eviction")) << "missing view_eviction";
  EXPECT_TRUE(types.count("coverage_retraction"))
      << "missing coverage_retraction";
  EXPECT_TRUE(types.count("udf_retry")) << "missing udf_retry";

  // Every record carries seq (monotone) and wall_us; query_end carries
  // both clocks plus the coverage-atom count.
  int64_t last_seq = -1;
  for (const auto& e : events) {
    const obs::JsonValue* seq = e.Find("seq");
    ASSERT_NE(seq, nullptr);
    EXPECT_GT(static_cast<int64_t>(seq->number()), last_seq);
    last_seq = static_cast<int64_t>(seq->number());
    ASSERT_NE(e.Find("wall_us"), nullptr);
    EXPECT_GE(e.Find("wall_us")->number(), 0);
  }
  bool saw_query_end = false;
  for (const auto& e : events) {
    if (e.Find("type")->str() != "query_end") continue;
    saw_query_end = true;
    EXPECT_GT(e.NumberOr("sim_ms", -1), 0);
    EXPECT_GE(e.NumberOr("wall_ms", -1), 0);
    EXPECT_GE(e.NumberOr("coverage_atoms", -1), 0);
    EXPECT_GE(e.NumberOr("query_id", -1), 1);
  }
  EXPECT_TRUE(saw_query_end);
  for (const auto& e : events) {
    if (e.Find("type")->str() != "udf_retry") continue;
    EXPECT_GE(e.NumberOr("attempt", -1), 1);
    const obs::JsonValue* udf = e.Find("udf");
    ASSERT_NE(udf, nullptr);
    EXPECT_FALSE(udf->str().empty());
  }

  std::remove(log_path.c_str());
  std::remove((log_path + ".1").c_str());
}

TEST(EventLogTest, RotationBoundsDiskUse) {
  const std::string log_path = TempPath("eva_event_log_rot");
  std::remove(log_path.c_str());
  std::remove((log_path + ".1").c_str());

  obs::EventLog log;
  ASSERT_TRUE(log.Open(log_path, 512));
  for (int i = 0; i < 200; ++i) {
    log.Append(obs::Event("test_event").Int("i", i).Str(
        "payload", "0123456789abcdef0123456789abcdef"));
  }
  EXPECT_EQ(log.events_written(), 200);
  EXPECT_GE(log.rotations(), 1);
  log.Close();

  // Both generations exist and the bound holds: the live file plus one
  // rotation, each at most max_bytes + one record of slack.
  std::ifstream current(log_path), rotated(log_path + ".1");
  EXPECT_TRUE(current.good());
  EXPECT_TRUE(rotated.good());
  auto size_of = [](const std::string& p) {
    std::ifstream f(p, std::ios::ate | std::ios::binary);
    return static_cast<int64_t>(f.tellg());
  };
  EXPECT_LE(size_of(log_path), 512 + 256);
  EXPECT_LE(size_of(log_path + ".1"), 512 + 256);

  // Rotated stream still parses line-by-line.
  auto events = ReadEventLines(log_path + ".1");
  EXPECT_FALSE(events.empty());

  std::remove(log_path.c_str());
  std::remove((log_path + ".1").c_str());
}

TEST(EventLogTest, RecoveryEventOnLoad) {
  const std::string log_path = TempPath("eva_event_log_rec");
  const std::string view_dir = TempPath("eva_views_rec");
  std::remove(log_path.c_str());

  obs::MetricsRegistry local;
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  auto er = vbench::MakeEngine(options, TestVideo());
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  engine->set_metrics_registry(&local);
  auto queries = vbench::VbenchHigh("demo", 1000);
  ASSERT_TRUE(engine->Execute(queries[0]).ok());
  ASSERT_TRUE(engine->SaveViews(view_dir).ok());

  engine::EngineOptions options2 = options;
  options2.event_log_path = log_path;
  auto er2 = vbench::MakeEngine(options2, TestVideo());
  ASSERT_TRUE(er2.ok());
  auto engine2 = er2.MoveValue();
  engine2->set_metrics_registry(&local);
  ASSERT_TRUE(engine2->LoadViews(view_dir).ok());

  auto events = ReadEventLines(log_path);
  std::set<std::string> types = EventTypes(events);
  EXPECT_TRUE(types.count("recovery")) << "missing recovery record";
  for (const auto& e : events) {
    if (e.Find("type")->str() != "recovery") continue;
    const obs::JsonValue* clean = e.Find("clean");
    ASSERT_NE(clean, nullptr);
    EXPECT_TRUE(clean->boolean()) << "clean load reported as dirty";
  }
  std::remove(log_path.c_str());
}

// ---------------------------------------------------------------------------
// Sampling profiler.
// ---------------------------------------------------------------------------

TEST(ProfilerTest, FoldedStacksAttributeNestedTags) {
  obs::Profiler& prof = obs::Profiler::Global();
  prof.Start(2000);
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    obs::ProfScope outer("executor");
    obs::ProfScope inner("udf");
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Deadline loop: wait until the sampler has attributed samples (bounded
  // at 5 s so a loaded CI machine cannot hang the suite).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (prof.samples() < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  worker.join();
  prof.Stop();

  EXPECT_GE(prof.samples(), 5);
  std::string folded = prof.RenderFolded();
  EXPECT_NE(folded.find("executor;udf "), std::string::npos)
      << "folded output:\n" << folded;
}

TEST(ProfilerTest, EngineRunAttributesExecutorAndUdfTags) {
  obs::MetricsRegistry local;
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.udf_spin_us = 100;  // real wall time inside the udf scope
  auto er = vbench::MakeEngine(options, TestVideo());
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  engine->set_metrics_registry(&local);

  obs::Profiler& prof = obs::Profiler::Global();
  prof.Start(2000);
  auto queries = vbench::VbenchHigh("demo", 1000);
  // Re-run the workload from scratch until samples land in both the
  // executor scope and the udf scope nested under it, bounded at 20 s.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::string folded;
  do {
    engine->ClearReuseState();
    for (int q = 0; q < 2; ++q) {
      ASSERT_TRUE(engine->Execute(queries[q]).ok());
    }
    folded = prof.RenderFolded();
  } while ((folded.find("executor") == std::string::npos ||
            folded.find("executor;udf") == std::string::npos) &&
           std::chrono::steady_clock::now() < deadline);
  prof.Stop();

  EXPECT_NE(folded.find("executor"), std::string::npos)
      << "no executor samples:\n" << folded;
  EXPECT_NE(folded.find("executor;udf"), std::string::npos)
      << "no udf samples under the executor:\n" << folded;
}

TEST(ProfilerTest, ProfileForIsBoundedAndStops) {
  obs::Profiler& prof = obs::Profiler::Global();
  auto t0 = std::chrono::steady_clock::now();
  std::string folded = prof.ProfileFor(0.05, 500);
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(prof.active());
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 5.0);
  // An idle process may legitimately produce an empty profile; the folded
  // output must still be well-formed (every line "stack count").
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find(' '), std::string::npos) << "bad line: " << line;
  }
}

// ---------------------------------------------------------------------------
// Zero-overhead contract: observability=false creates no telemetry
// machinery at all.
// ---------------------------------------------------------------------------

TEST(TelemetryTest, ObservabilityOffIsZeroOverhead) {
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.observability = false;
  options.metrics_port = 0;                        // must be ignored
  options.event_log_path = TempPath("eva_should_not_exist");
  auto er = vbench::MakeEngine(options, TestVideo());
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();

  EXPECT_EQ(engine->telemetry_port(), -1);
  EXPECT_EQ(engine->event_log(), nullptr);
  EXPECT_EQ(engine->metrics_registry(), nullptr);
  EXPECT_FALSE(obs::Profiler::Global().active());
  EXPECT_FALSE(engine->StartTelemetryServer(0).ok());

  auto queries = vbench::VbenchHigh("demo", 1000);
  ASSERT_TRUE(engine->Execute(queries[0]).ok());
  EXPECT_EQ(engine->telemetry_port(), -1);
  std::ifstream log(options.event_log_path);
  EXPECT_FALSE(log.good()) << "event log written despite observability=off";
}

}  // namespace
}  // namespace eva
