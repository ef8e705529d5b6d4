// Multi-session service tests (docs/SERVICE.md): session lifecycle,
// cross-session reuse through the shared ViewStore, session_id tagging on
// metrics and event-log records, the /sessions telemetry endpoint, the
// save/load busy guard, and the service determinism contract — a fixed
// (seed, schedule) submission order is bit-identical to the same queries
// run directly on one engine.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_util.h"
#include "service/eva_service.h"
#include "vbench/vbench.h"

namespace eva {
namespace {

catalog::VideoInfo TestVideo(int64_t frames = 900) {
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  video.num_frames = frames;
  return video;
}

std::unique_ptr<engine::EvaEngine> MakeTestEngine(
    engine::EngineOptions options, int64_t frames = 900) {
  auto engine_or = vbench::MakeEngine(options, TestVideo(frames));
  EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  return engine_or.MoveValue();
}

engine::EngineOptions QuietOptions() {
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.observability = false;
  return options;
}

std::string TempPath(const std::string& stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string base = (dir != nullptr && *dir != '\0') ? dir : "/tmp";
  return base + "/" + stem + "." + std::to_string(::getpid());
}

const char* kQuery =
    "SELECT id, obj FROM short_ua_detrac CROSS APPLY "
    "FasterRCNNResNet50(frame) WHERE id >= 100 AND id < 400 "
    "AND label = 'car';";

TEST(ServiceTest, SessionLifecycle) {
  service::EvaService svc(MakeTestEngine(QuietOptions()));
  auto a = svc.CreateSession("alice");
  auto b = svc.CreateSession();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->id(), 1);
  EXPECT_EQ(b->id(), 2);
  EXPECT_EQ(a->name(), "alice");
  EXPECT_EQ(b->name(), "session-2");
  EXPECT_EQ(svc.open_sessions(), 2);
  EXPECT_EQ(svc.FindSession(1), a);
  EXPECT_EQ(svc.FindSession(99), nullptr);

  EXPECT_TRUE(svc.CloseSession(2).ok());
  EXPECT_FALSE(b->open());
  EXPECT_EQ(svc.open_sessions(), 1);
  // Closing twice is fine; closing an unknown id is NotFound.
  EXPECT_TRUE(svc.CloseSession(2).ok());
  EXPECT_EQ(svc.CloseSession(99).code(), StatusCode::kNotFound);

  // Submissions to closed or unknown sessions fail without executing.
  auto closed = svc.Execute(2, kQuery);
  EXPECT_EQ(closed.status().code(), StatusCode::kFailedPrecondition);
  auto unknown = svc.Execute(99, kQuery);
  EXPECT_EQ(unknown.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(b->stats().queries, 0);
}

TEST(ServiceTest, CrossSessionSharingThroughSharedStore) {
  service::EvaService svc(MakeTestEngine(QuietOptions()));
  auto a = svc.CreateSession("warmer");
  auto b = svc.CreateSession("rider");

  auto first = svc.Execute(a->id(), kQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().metrics.session_id, a->id());
  EXPECT_EQ(first.value().metrics.TotalReused(), 0);

  // The same query from another session rides A's materialized view: all
  // invocations are reused, the row set is identical, and it is cheaper.
  auto second = svc.Execute(b->id(), kQuery);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().metrics.session_id, b->id());
  EXPECT_EQ(second.value().metrics.TotalReused(),
            second.value().metrics.TotalInvocations());
  EXPECT_GT(second.value().metrics.TotalReused(), 0);
  EXPECT_EQ(first.value().batch.ToString(1 << 20),
            second.value().batch.ToString(1 << 20));
  EXPECT_LT(second.value().metrics.TotalMs(),
            first.value().metrics.TotalMs());

  EXPECT_EQ(a->stats().queries, 1);
  EXPECT_EQ(b->stats().queries, 1);
  EXPECT_NEAR(b->stats().HitPercentage(), 100.0, 1e-9);
  EXPECT_NEAR(a->stats().HitPercentage(), 0.0, 1e-9);
}

TEST(ServiceTest, DirectEnginePathKeepsSessionZero) {
  auto engine = MakeTestEngine(QuietOptions());
  auto r = engine->Execute(kQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().metrics.session_id, 0);
}

TEST(ServiceTest, SubmitReturnsFifoFutures) {
  service::EvaService svc(MakeTestEngine(QuietOptions()));
  auto s = svc.CreateSession();
  std::vector<std::string> queries =
      vbench::VbenchHigh("short_ua_detrac", 900);
  std::vector<std::future<Result<engine::QueryResult>>> futures;
  for (size_t i = 0; i < 4; ++i) {
    futures.push_back(svc.Submit(s->id(), queries[i]));
  }
  for (auto& f : futures) {
    auto r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(s->stats().queries, 4);
  EXPECT_EQ(s->stats().errors, 0);
}

TEST(ServiceTest, EventLogRecordsCarrySessionIds) {
  std::string log_path = TempPath("service_events");
  std::remove(log_path.c_str());
  engine::EngineOptions options = QuietOptions();
  options.observability = true;
  options.event_log_path = log_path;
  {
    service::EvaService svc(MakeTestEngine(options));
    svc.engine()->set_metrics_registry(nullptr);
    auto a = svc.CreateSession();
    auto b = svc.CreateSession();
    ASSERT_TRUE(svc.Execute(a->id(), kQuery).ok());
    ASSERT_TRUE(svc.Execute(b->id(), kQuery).ok());
  }
  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::set<double> query_sessions;
  std::set<double> admission_sessions;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const obs::JsonValue* type = parsed.value().Find("type");
    if (type == nullptr) continue;
    if (type->str() == "query_start" || type->str() == "query_end") {
      query_sessions.insert(parsed.value().NumberOr("session_id", -1));
    }
    if (type->str() == "view_admission") {
      admission_sessions.insert(parsed.value().NumberOr("session_id", -1));
    }
  }
  std::remove(log_path.c_str());
  EXPECT_EQ(query_sessions, (std::set<double>{1, 2}));
  // Every admission decision is attributed to the session whose optimize
  // made it — never to the 0 single-session placeholder.
  EXPECT_TRUE(admission_sessions.count(1) == 1);
  for (double s : admission_sessions) {
    EXPECT_TRUE(s == 1 || s == 2) << "unattributed admission record";
  }
}

TEST(ServiceTest, SaveWhileQueryInFlightFailsCleanly) {
  engine::EngineOptions options = QuietOptions();
  // Make the query slow in wall-clock terms so it is observably in flight.
  options.udf_spin_us = 300;
  service::EvaService svc(MakeTestEngine(options));
  auto s = svc.CreateSession();
  std::string dir = TempPath("service_saves");

  Status busy = Status::OK();
  for (int attempt = 0; attempt < 3 && busy.ok(); ++attempt) {
    auto future = svc.Submit(s->id(), kQuery);
    // Wait until the executor has actually started the query.
    for (int i = 0; i < 2000 && svc.engine()->queries_in_flight() == 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (svc.engine()->queries_in_flight() == 1) {
      // Bypassing the service mid-query must be refused, not produce a
      // torn snapshot.
      busy = svc.engine()->SaveViews(dir);
    }
    ASSERT_TRUE(future.get().ok());
  }
  EXPECT_EQ(busy.code(), StatusCode::kFailedPrecondition) << busy.ToString();

  // Through the service the save queues behind the queries and succeeds.
  Status ok = svc.SaveViews(dir);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_TRUE(svc.LoadViews(dir).ok());
}

// ---------------------------------------------------------------------------
// /sessions endpoint
// ---------------------------------------------------------------------------

std::string HttpGetBody(int port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string req = "GET " + target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
                    "\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t sep = raw.find("\r\n\r\n");
  return sep == std::string::npos ? "" : raw.substr(sep + 4);
}

TEST(ServiceTest, SessionsEndpointReportsLiveCounts) {
  engine::EngineOptions options = QuietOptions();
  options.observability = true;
  service::EvaService svc(MakeTestEngine(options));
  svc.engine()->set_metrics_registry(nullptr);
  ASSERT_TRUE(svc.engine()->StartTelemetryServer(0).ok());
  int port = svc.engine()->telemetry_port();
  ASSERT_GT(port, 0);

  auto a = svc.CreateSession("alice");
  auto b = svc.CreateSession("bob");
  ASSERT_TRUE(svc.Execute(a->id(), kQuery).ok());
  ASSERT_TRUE(svc.Execute(b->id(), kQuery).ok());
  ASSERT_TRUE(svc.CloseSession(b->id()).ok());

  auto parsed = obs::ParseJson(HttpGetBody(port, "/sessions"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& root = parsed.value();
  EXPECT_EQ(root.NumberOr("session_count", -1), 1);
  EXPECT_EQ(root.NumberOr("sessions_created", -1), 2);
  EXPECT_EQ(root.NumberOr("total_queries", -1), 2);
  // One of the two identical queries rode the other's view: the shared
  // store served half of all invocations.
  EXPECT_NEAR(root.NumberOr("shared_store_hit_pct", -1), 50.0, 1e-6);
  const obs::JsonValue* sessions = root.Find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_EQ(sessions->array().size(), 2u);
  EXPECT_EQ(sessions->array()[0].Find("name")->str(), "alice");
  EXPECT_EQ(sessions->array()[0].NumberOr("queries", -1), 1);
  EXPECT_EQ(sessions->array()[1].NumberOr("hit_pct", -1), 100);

  // /views stays scrapeable alongside /sessions.
  auto views = obs::ParseJson(HttpGetBody(port, "/views"));
  EXPECT_TRUE(views.ok());
  svc.engine()->StopTelemetryServer();
}

// ---------------------------------------------------------------------------
// Determinism: a fixed (seed, schedule) pair through the service is
// bit-identical to the same query sequence run directly on one engine
// (docs/SERVICE.md): sessions change attribution, never results.
// ---------------------------------------------------------------------------

struct FleetTrace {
  std::vector<std::string> batches;
  std::vector<double> total_ms;

  void Add(const Result<engine::QueryResult>& r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return;
    batches.push_back(r.value().batch.ToString(1 << 20));
    total_ms.push_back(r.value().metrics.TotalMs());
  }
};

// The fixed schedule: sessions alternate, B replays A's set shifted.
std::vector<std::string> FleetSchedule() {
  std::vector<std::string> queries =
      vbench::VbenchHigh("short_ua_detrac", 900);
  std::vector<std::string> schedule;
  for (size_t i = 0; i < 6; ++i) {
    schedule.push_back(queries[(i * 3 + (i % 2)) % queries.size()]);
  }
  return schedule;
}

TEST(ServiceTest, FixedScheduleMatchesDirectEngine) {
  const std::vector<std::string> schedule = FleetSchedule();
  FleetTrace fleet;
  {
    service::EvaService svc(MakeTestEngine(QuietOptions()));
    auto a = svc.CreateSession();
    auto b = svc.CreateSession();
    for (size_t i = 0; i < schedule.size(); ++i) {
      fleet.Add(svc.Execute(i % 2 == 0 ? a->id() : b->id(), schedule[i]));
    }
  }
  FleetTrace direct;
  auto engine = MakeTestEngine(QuietOptions());
  for (const std::string& sql : schedule) direct.Add(engine->Execute(sql));

  ASSERT_EQ(fleet.batches.size(), schedule.size());
  ASSERT_EQ(direct.batches.size(), schedule.size());
  for (size_t q = 0; q < schedule.size(); ++q) {
    EXPECT_EQ(fleet.batches[q], direct.batches[q]) << "query " << q;
    // Bitwise: both paths charge the same clock in the same order.
    EXPECT_EQ(fleet.total_ms[q], direct.total_ms[q]) << "query " << q;
  }
}

}  // namespace
}  // namespace eva
