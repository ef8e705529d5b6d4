// Fleet sharing: the multi-session service (docs/SERVICE.md) vs isolated
// per-user engines. K simulated users each replay a seeded permutation of
// the VBENCH-HIGH query set (the high-reuse split, §5.1); a seeded
// scheduler interleaves their streams into one submission order. The
// shared run drives one EvaService with K sessions over a single
// ViewStore, so one user's materialized UDF results serve every other
// user's queries; the isolated baseline gives each user a private engine
// that can only reuse its own work.
//
// Reported: aggregate simulated time of both fleets, the aggregate
// speedup (isolated / shared), and per-session hit percentages. For a
// fixed (seed, schedule) pair the FIFO executor makes every figure
// deterministic.
//
// Output: a table on stdout and a JSON dump to argv[1] (default
// "BENCH_fleet.json"). --quick emits the one-line gate JSON for
// bench/check_regression.py.

#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/eva_service.h"

using namespace eva;  // NOLINT

namespace {

constexpr uint64_t kSeed = 42;
constexpr int kUsers = 4;

// splitmix64: tiny, seedable, stable across platforms — the schedule must
// be a pure function of the seed.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One schedule entry: user `user` submits their next pending query.
struct Slot {
  int user = 0;
  std::string sql;
};

/// Per-user streams: seeded permutations of the same VBENCH-HIGH set, so
/// the users genuinely overlap (iterative refinement over one part of the
/// video) without submitting identical sequences.
std::vector<std::vector<std::string>> UserStreams(
    const catalog::VideoInfo& video, int users, size_t queries_per_user) {
  std::vector<std::vector<std::string>> streams;
  for (int u = 0; u < users; ++u) {
    std::vector<std::string> qs = vbench::Permute(
        vbench::VbenchHigh(video.name, video.num_frames),
        kSeed * 1000 + static_cast<uint64_t>(u));
    if (qs.size() > queries_per_user) qs.resize(queries_per_user);
    streams.push_back(std::move(qs));
  }
  return streams;
}

/// Interleaves the user streams into one submission order: each slot picks
/// uniformly among the users with queries remaining. Pure function of
/// (seed, streams) — the "(seed, schedule) pair" of the determinism claim.
std::vector<Slot> MakeSchedule(
    const std::vector<std::vector<std::string>>& streams, uint64_t seed) {
  std::vector<size_t> next(streams.size(), 0);
  size_t remaining = 0;
  for (const auto& s : streams) remaining += s.size();
  std::vector<Slot> schedule;
  schedule.reserve(remaining);
  uint64_t state = seed;
  while (remaining > 0) {
    std::vector<int> ready;
    for (size_t u = 0; u < streams.size(); ++u) {
      if (next[u] < streams[u].size()) ready.push_back(static_cast<int>(u));
    }
    int user = ready[SplitMix64(&state) % ready.size()];
    Slot slot;
    slot.user = user;
    slot.sql = streams[static_cast<size_t>(user)][next[static_cast<size_t>(
        user)]++];
    schedule.push_back(std::move(slot));
    --remaining;
  }
  return schedule;
}

struct FleetStats {
  double total_ms = 0;
  std::vector<double> per_query_ms;  // schedule order
  int64_t invocations = 0;
  int64_t reused = 0;
  int64_t rows_out = 0;

  void Fold(const exec::QueryMetrics& m) {
    double ms = m.TotalMs();
    total_ms += ms;
    per_query_ms.push_back(ms);
    invocations += m.TotalInvocations();
    reused += m.TotalReused();
    rows_out += m.rows_out;
  }

  double HitPercentage() const {
    return invocations == 0 ? 0
                            : 100.0 * static_cast<double>(reused) /
                                  static_cast<double>(invocations);
  }
};

engine::EngineOptions FleetOptions() {
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  return options;
}

/// The shared fleet: one service, one view store, K sessions. The whole
/// schedule is submitted in order up front (the futures resolve FIFO), so
/// the executor queue — not the submitting thread — carries the
/// interleaving.
FleetStats RunShared(const catalog::VideoInfo& video,
                     const std::vector<Slot>& schedule, int users,
                     std::vector<service::SessionStats>* per_session) {
  auto engine = bench::Unwrap(vbench::MakeEngine(FleetOptions(), video),
                              "shared engine");
  service::EvaService svc(std::move(engine));
  std::vector<std::shared_ptr<service::EvaSession>> sessions;
  for (int u = 0; u < users; ++u) {
    sessions.push_back(svc.CreateSession("user-" + std::to_string(u)));
  }
  std::vector<std::future<Result<engine::QueryResult>>> futures;
  futures.reserve(schedule.size());
  for (const Slot& slot : schedule) {
    futures.push_back(
        svc.Submit(sessions[static_cast<size_t>(slot.user)]->id(), slot.sql));
  }
  FleetStats stats;
  for (size_t i = 0; i < futures.size(); ++i) {
    auto r = futures[i].get();
    bench::CheckOk(r.status(), schedule[i].sql.c_str());
    stats.Fold(r.value().metrics);
  }
  if (per_session != nullptr) {
    per_session->clear();
    for (const auto& s : svc.Sessions()) per_session->push_back(s->stats());
  }
  return stats;
}

/// The isolated fleet: K private engines, each replaying its user's
/// stream in the same relative order the schedule gave it. Folded in
/// schedule order so the two fleets are comparable per query.
FleetStats RunIsolated(const catalog::VideoInfo& video,
                       const std::vector<Slot>& schedule, int users) {
  std::vector<std::unique_ptr<engine::EvaEngine>> engines;
  for (int u = 0; u < users; ++u) {
    engines.push_back(bench::Unwrap(
        vbench::MakeEngine(FleetOptions(), video), "isolated engine"));
  }
  FleetStats stats;
  for (const Slot& slot : schedule) {
    auto r = engines[static_cast<size_t>(slot.user)]->Execute(slot.sql);
    bench::CheckOk(r.status(), slot.sql.c_str());
    stats.Fold(r.value().metrics);
  }
  return stats;
}

std::string FleetResultJson(const std::string& name, const FleetStats& s) {
  std::vector<double> ms = s.per_query_ms;
  std::sort(ms.begin(), ms.end());
  auto pct = [&](double p) {
    if (ms.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * static_cast<double>(ms.size() - 1));
    return ms[idx];
  };
  std::string out = "{";
  obs::AppendJsonString(&out, "name");
  out += ':';
  obs::AppendJsonString(&out, name);
  out += ",\"p50_ms\":" + obs::FormatJsonNumber(pct(0.50));
  out += ",\"p95_ms\":" + obs::FormatJsonNumber(pct(0.95));
  out += ",\"total_ms\":" + obs::FormatJsonNumber(s.total_ms);
  out += ",\"hit_pct\":" +
         obs::FormatJsonNumber(
             static_cast<double>(static_cast<int64_t>(s.HitPercentage() *
                                                      100)) /
             100.0);
  out += ",\"queries\":" + std::to_string(s.per_query_ms.size());
  out += '}';
  return out;
}

// --quick: 4 users x 4 queries on the small gate video; shared vs
// isolated totals are simulated and deterministic, so the gate can hold
// them to the tight _ms tolerance.
int RunQuick() {
  catalog::VideoInfo video = bench::QuickVideo();
  auto streams = UserStreams(video, kUsers, 4);
  auto schedule = MakeSchedule(streams, kSeed);
  bench::QuickProfileDump profile;
  FleetStats isolated = RunIsolated(video, schedule, kUsers);
  FleetStats shared = RunShared(video, schedule, kUsers, nullptr);
  std::string out = "{\"benchmark\":\"fleet_sharing\","
                    "\"mode\":\"quick\",\"results\":[";
  out += FleetResultJson("fleet_sharing/isolated", isolated);
  out += ',';
  out += FleetResultJson("fleet_sharing/shared", shared);
  out += "],\"speedup\":" +
         obs::FormatJsonNumber(shared.total_ms > 0
                                   ? isolated.total_ms / shared.total_ms
                                   : 0);
  out += '}';
  profile.Finish();
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::QuickRequested(argc, argv)) return RunQuick();
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_fleet.json");
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  auto streams = UserStreams(video, kUsers, SIZE_MAX);
  auto schedule = MakeSchedule(streams, kSeed);

  bench::PrintHeader("Fleet sharing — " + std::to_string(kUsers) +
                     " users x VBENCH-HIGH / SHORT-UA-DETRAC");
  std::printf("seed %llu, %zu queries total\n",
              static_cast<unsigned long long>(kSeed), schedule.size());

  FleetStats isolated = RunIsolated(video, schedule, kUsers);
  std::printf("isolated fleet (%d private engines): sim %.1f s | "
              "hit %.1f%%\n",
              kUsers, isolated.total_ms / 1000.0, isolated.HitPercentage());

  std::vector<service::SessionStats> per_session;
  FleetStats shared = RunShared(video, schedule, kUsers, &per_session);
  double speedup =
      shared.total_ms > 0 ? isolated.total_ms / shared.total_ms : 0;
  std::printf("shared service  (1 engine, %d sessions):  sim %.1f s | "
              "hit %.1f%% | aggregate speedup %.2fx\n",
              kUsers, shared.total_ms / 1000.0, shared.HitPercentage(),
              speedup);
  for (size_t u = 0; u < per_session.size(); ++u) {
    std::printf("  user-%zu: %lld queries | hit %.1f%% | sim %.1f s\n", u,
                static_cast<long long>(per_session[u].queries),
                per_session[u].HitPercentage(),
                per_session[u].sim_ms / 1000.0);
  }

  std::string json = "{\n  \"benchmark\": \"fleet_sharing\",\n";
  json += "  \"video\": \"short_ua_detrac\",\n";
  json += "  \"workload\": \"VBENCH-HIGH\",\n";
  json += "  \"users\": " + std::to_string(kUsers) + ",\n";
  json += "  \"seed\": " + std::to_string(kSeed) + ",\n";
  json += "  \"queries\": " + std::to_string(schedule.size()) + ",\n";
  json += "  \"isolated\": " +
          FleetResultJson("fleet_sharing/isolated", isolated) + ",\n";
  json += "  \"shared\": " + FleetResultJson("fleet_sharing/shared", shared) +
          ",\n";
  json += "  \"per_session\": [\n";
  for (size_t u = 0; u < per_session.size(); ++u) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "    {\"user\": %zu, \"queries\": %lld, \"hit_pct\": "
                  "%.2f, \"sim_ms\": %.6f}%s\n",
                  u, static_cast<long long>(per_session[u].queries),
                  per_session[u].HitPercentage(), per_session[u].sim_ms,
                  u + 1 < per_session.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  json += "  \"aggregate_speedup\": " + obs::FormatJsonNumber(speedup) +
          "\n}\n";

  std::ofstream out(json_path);
  if (out) {
    out << json;
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "WARN cannot write %s\n", json_path.c_str());
  }
  return 0;
}
