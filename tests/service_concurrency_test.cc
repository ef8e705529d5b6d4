// Service concurrency test (docs/SERVICE.md), written for the TSan CI
// matrix: K sessions submit from K threads at once, racing admissions and
// evictions on the shared ViewStore (a small storage budget keeps the
// lifecycle manager evicting and retracting coverage throughout), while a
// scraper thread hammers /views and /sessions. The correctness oracle is
// the coverage-overclaim check: after the race, a probe pass over the
// canonical query set must return exactly the row sets a fresh serial
// no-reuse engine computes — if any interleaving had claimed coverage for
// tuples that were never materialized (or evicted without retraction),
// the probe pass would silently drop objects.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "service/eva_service.h"
#include "vbench/vbench.h"

namespace eva {
namespace {

constexpr int kSessions = 4;
constexpr int64_t kFrames = 900;

catalog::VideoInfo TestVideo() {
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  video.num_frames = kFrames;
  return video;
}

std::unique_ptr<engine::EvaEngine> MakeTestEngine(
    engine::EngineOptions options) {
  auto engine_or = vbench::MakeEngine(options, TestVideo());
  EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  return engine_or.MoveValue();
}

/// Ground truth: the canonical query set on a fresh engine with reuse
/// disabled — row sets are pure functions of the video content.
std::vector<std::string> SerialOracle() {
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kNoReuse;
  options.optimizer.reuse_enabled = false;
  options.observability = false;
  auto engine = MakeTestEngine(options);
  std::vector<std::string> batches;
  for (const std::string& sql :
       vbench::VbenchHigh("short_ua_detrac", kFrames)) {
    auto r = engine->Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    batches.push_back(r.ok() ? r.value().batch.ToString(1 << 20) : "");
  }
  return batches;
}

std::string HttpGetRaw(int port, const std::string& target) {
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
  return raw;
}

TEST(ServiceConcurrencyTest, RacingSessionsNeverOverclaimCoverage) {
  std::vector<std::string> oracle = SerialOracle();
  ASSERT_FALSE(oracle.empty());

  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.observability = true;  // scraping is part of the race surface
  // Small enough that segments are evicted (and coverage retracted)
  // throughout the run, large enough that some reuse survives.
  options.storage_budget_bytes = 24 * 1024;
  service::EvaService svc(MakeTestEngine(options));
  svc.engine()->set_metrics_registry(nullptr);
  ASSERT_TRUE(svc.engine()->StartTelemetryServer(0).ok());
  int port = svc.engine()->telemetry_port();
  ASSERT_GT(port, 0);

  std::vector<std::shared_ptr<service::EvaSession>> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(svc.CreateSession("racer-" + std::to_string(s)));
  }

  // K submitter threads race the op queue; each replays a different
  // seeded permutation, so admissions interleave across sessions.
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSessions; ++s) {
    submitters.emplace_back([&, s] {
      std::vector<std::string> queries = vbench::Permute(
          vbench::VbenchHigh("short_ua_detrac", kFrames),
          static_cast<uint64_t>(7 + s));
      queries.resize(5);
      for (const std::string& sql : queries) {
        auto r = svc.Execute(sessions[static_cast<size_t>(s)]->id(), sql);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  std::atomic<bool> stop_scraper{false};
  std::thread scraper([&] {
    while (!stop_scraper.load(std::memory_order_acquire)) {
      EXPECT_NE(HttpGetRaw(port, "/views").find("200"), std::string::npos);
      EXPECT_NE(HttpGetRaw(port, "/sessions").find("200"),
                std::string::npos);
    }
  });
  for (auto& t : submitters) t.join();
  stop_scraper.store(true, std::memory_order_release);
  scraper.join();
  svc.Drain();
  EXPECT_EQ(failures.load(), 0);

  // The race actually raced: every session ran its queries, and the
  // budget forced evictions (so coverage retraction was exercised).
  int64_t total_queries = 0;
  for (const auto& s : svc.Sessions()) total_queries += s->stats().queries;
  EXPECT_EQ(total_queries, kSessions * 5);
  EXPECT_GT(svc.engine()->lifecycle()->evictions(), 0);
  EXPECT_LE(svc.engine()->views().TotalSizeBytes(),
            options.storage_budget_bytes);

  // Overclaim oracle: a probe pass through a fresh session must match the
  // serial no-reuse ground truth bit for bit.
  auto probe = svc.CreateSession("probe");
  std::vector<std::string> canonical =
      vbench::VbenchHigh("short_ua_detrac", kFrames);
  for (size_t q = 0; q < canonical.size(); ++q) {
    auto r = svc.Execute(probe->id(), canonical[q]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().batch.ToString(1 << 20), oracle[q])
        << "row set of probe query " << q
        << " diverged from the serial oracle — coverage overclaim";
  }
  svc.engine()->StopTelemetryServer();
}

TEST(ServiceConcurrencyTest, ConcurrentCreateCloseAndSubmit) {
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.observability = false;
  service::EvaService svc(MakeTestEngine(options));

  const std::string sql =
      "SELECT id, obj FROM short_ua_detrac CROSS APPLY "
      "FasterRCNNResNet50(frame) WHERE id < 200 AND label = 'car';";
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        auto session = svc.CreateSession();
        if (!svc.Execute(session->id(), sql).ok()) failures.fetch_add(1);
        if (!svc.CloseSession(session->id()).ok()) failures.fetch_add(1);
        // Submission after close fails without executing.
        if (svc.Execute(session->id(), sql).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.open_sessions(), 0);
  EXPECT_EQ(static_cast<int>(svc.Sessions().size()), 12);
  for (const auto& s : svc.Sessions()) {
    EXPECT_EQ(s->stats().queries, 1);
    EXPECT_EQ(s->stats().errors, 0);
  }
}

}  // namespace
}  // namespace eva
