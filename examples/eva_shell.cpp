// Interactive EVA-QL shell: type statements against a demo video and watch
// the reuse machinery work. Supports all EVA-QL statements (SELECT /
// EXPLAIN / CREATE UDF / DROP UDF / SHOW UDFS) plus shell commands:
//
//   .views     list materialized views: rows, bytes, coverage atoms, and
//              the id of the last query that touched each view
//   .budget    show the storage budget / eviction policy; `.budget N`
//              sets the budget to N bytes and evicts down to it;
//              `.budget N POLICY` also switches policy (cost-benefit /
//              lru / fifo) — see docs/LIFECYCLE.md
//   .coverage  print each UDF signature's aggregated predicate p_u
//   .metrics   Prometheus exposition of the session's metrics
//              (.metrics json / .metrics reset variants)
//   .trace     session span tree   (.trace chrome FILE writes Chrome
//              trace-event JSON for chrome://tracing / Perfetto)
//   .serve     start the telemetry HTTP server (`.serve` = ephemeral port,
//              `.serve PORT` = fixed, `.serve stop` stops it); endpoints:
//              /metrics /metrics.json /trace /views /sessions /profile
//              /healthz
//   .session   multi-session service controls (docs/SERVICE.md): bare
//              `.session` lists every session and marks the current one;
//              `.session new [NAME]` opens a session and switches to it;
//              `.session use ID` switches; `.session close [ID]` closes.
//              All sessions share one ViewStore, so views materialized in
//              one session serve the others
//   .profile   sampling wall-clock profiler: `.profile start [HZ]`,
//              `.profile stop [FILE]` (folded stacks for flamegraph.pl),
//              bare `.profile` shows status — see docs/OBSERVABILITY.md
//   .faults    show the active fault schedule; `.faults SCHEDULE` installs
//              one (e.g. `.faults crash-exit@fs.rename:MANIFEST#1`) and
//              `.faults off` disables injection — see docs/RELIABILITY.md
//   .stream    `.stream NAME TOTAL [INITIAL]` registers a streaming video
//              source: TOTAL eventual frames, INITIAL (default 1) visible
//              now; frames arrive via .ingest — see docs/STREAMING.md
//   .wal DIR   enable the write-ahead log on DIR: recovers the last
//              checkpoint + log tail, then group-commits every view
//              append / coverage change / ingestion advance. Register
//              streams first
//   .ingest    `.ingest SOURCE FRAMES [TICKS]` runs TICKS (default 1)
//              ingestion ticks of FRAMES arrivals each; views materialized
//              at an earlier horizon are incrementally extended, not
//              invalidated, so re-running a query shows hit% climbing
//   .checkpoint fold the WAL into a fresh snapshot generation
//   .clear     drop all reuse state
//   .save DIR  persist views to a directory     .load DIR  restore them
//              (.load prints what crash recovery found and repaired)
//   .quit
//
// Commands accept either a '.' or the legacy '\' prefix.
//
// Usage: ./build/examples/eva_shell   (then e.g.:)
//   SELECT id, obj FROM demo CROSS APPLY FasterRCNNResNet50(frame)
//     WHERE id < 300 AND label = 'car' LIMIT 5;

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "engine/eva_engine.h"
#include "obs/profiler.h"
#include "service/eva_service.h"
#include "vbench/vbench.h"

using namespace eva;  // NOLINT

namespace {

void PrintResult(const engine::QueryResult& r) {
  std::printf("%s", r.batch.ToString(12).c_str());
  if (r.metrics.TotalInvocations() > 0) {
    std::printf("-- %.2f simulated s | UDF invocations %lld (reused "
                "%lld)\n",
                r.metrics.TotalMs() / 1000.0,
                static_cast<long long>(r.metrics.TotalInvocations()),
                static_cast<long long>(r.metrics.TotalReused()));
  }
}

}  // namespace

int main() {
  engine::EngineOptions options;
  auto owned = std::make_unique<engine::EvaEngine>(
      options, std::make_shared<catalog::Catalog>());
  if (!vbench::RegisterStandardUdfs(owned.get()).ok()) return 1;
  catalog::VideoInfo video;
  video.name = "demo";
  video.num_frames = 1000;
  video.mean_objects_per_frame = 8.3 / 0.8;
  video.seed = 2022;
  if (!owned->CreateVideo(video).ok()) return 1;

  // The shell is one client of the multi-session service: every SQL
  // statement and store-wide op goes through the service executor, so a
  // second shell command (or a scraper) can never observe a torn store.
  service::EvaService svc(std::move(owned));
  engine::EvaEngine* engine = svc.engine();
  std::shared_ptr<service::EvaSession> current = svc.CreateSession("shell");

  std::printf("EVA shell — demo video 'demo' (1000 frames) loaded; UDFs "
              "registered.\nStatements end with ';'. \\quit to exit. "
              "Session %lld ('%s') is current; .session to manage.\n",
              static_cast<long long>(current->id()),
              current->name().c_str());

  std::string buffer;
  std::string line;
  while (true) {
    std::printf(buffer.empty() ? "eva> " : "...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    // Shell commands.
    if (buffer.empty() && !line.empty() &&
        (line[0] == '\\' || line[0] == '.')) {
      line[0] = '\\';  // normalize the '.' prefix to the legacy one
      if (line == "\\quit" || line == "\\q") break;
      if (line == "\\metrics" || line.rfind("\\metrics ", 0) == 0) {
        obs::MetricsRegistry* registry = engine->metrics_registry();
        if (registry == nullptr) {
          std::printf("observability is disabled.\n");
        } else if (line == "\\metrics json") {
          std::printf("%s\n", registry->RenderJson().c_str());
        } else if (line == "\\metrics reset") {
          registry->Reset();
          std::printf("metrics reset.\n");
        } else {
          std::printf("%s", registry->RenderPrometheus().c_str());
        }
        continue;
      }
      if (line == "\\trace" || line.rfind("\\trace ", 0) == 0) {
        if (line.rfind("\\trace chrome ", 0) == 0) {
          const std::string path = line.substr(14);
          std::ofstream out(path);
          if (!out) {
            std::printf("cannot write %s\n", path.c_str());
          } else {
            out << engine->tracer().RenderChromeTrace();
            std::printf("wrote %s (load via chrome://tracing).\n",
                        path.c_str());
          }
        } else {
          std::printf("%s", engine->tracer().RenderText().c_str());
        }
        continue;
      }
      if (line == "\\views") {
        for (const auto& [name, view] : engine->views().views()) {
          const int atoms = engine->udf_manager().CoverageAtomCount(name);
          const int64_t last_q = view->last_access_query();
          const storage::ViewCompressionStats cs = view->CompressionStats();
          std::printf("  %-40s %8lld keys %8lld rows %10.1f KiB "
                      "%3d coverage atoms  last query %s",
                      name.c_str(),
                      static_cast<long long>(view->num_keys()),
                      static_cast<long long>(view->num_rows()),
                      view->SizeBytes() / 1024.0, atoms,
                      last_q < 0 ? "-"
                                 : std::to_string(last_q).c_str());
          if (cs.sealed_segments > 0 && cs.raw_bytes > 0) {
            std::printf("  [%.1f -> %.1f KiB sealed, %.2fx]",
                        cs.raw_bytes / 1024.0, cs.encoded_bytes / 1024.0,
                        cs.encoded_bytes > 0
                            ? static_cast<double>(cs.raw_bytes) /
                                  static_cast<double>(cs.encoded_bytes)
                            : 0.0);
          }
          std::printf("\n");
        }
        continue;
      }
      if (line == "\\budget" || line.rfind("\\budget ", 0) == 0) {
        lifecycle::ViewLifecycleManager* lc = engine->lifecycle();
        if (line != "\\budget") {
          std::istringstream is(line.substr(8));
          double bytes = -1;
          std::string policy;
          if (!(is >> bytes) || bytes < 0) {
            std::printf("usage: .budget [BYTES [cost-benefit|lru|fifo]]\n");
            continue;
          }
          if (is >> policy) {
            auto kind = lifecycle::ParseEvictionPolicy(policy);
            if (!kind.ok()) {
              std::printf("%s\n", kind.status().ToString().c_str());
              continue;
            }
            lc->SetPolicy(kind.value());
          }
          lc->set_budget_bytes(bytes);
          auto evicted = lc->EnforceBudget(engine->queries_executed());
          if (!evicted.empty()) {
            for (const auto& ev : evicted) {
              std::printf("  evicted %s frames [%lld, %lld) "
                          "(%lld keys, %.1f KiB)\n",
                          ev.view.c_str(),
                          static_cast<long long>(ev.first_frame),
                          static_cast<long long>(ev.frame_end),
                          static_cast<long long>(ev.keys),
                          ev.bytes / 1024.0);
            }
          }
        }
        std::printf("budget: %s bytes | policy: %s | store: %.1f KiB | "
                    "session evictions: %lld (%.1f KiB)\n",
                    lc->budget_bytes() <= 0
                        ? "unbounded"
                        : std::to_string(
                              static_cast<long long>(lc->budget_bytes()))
                              .c_str(),
                    lc->policy_name(),
                    engine->views().TotalSizeBytes() / 1024.0,
                    static_cast<long long>(lc->evictions()),
                    lc->evicted_bytes() / 1024.0);
        continue;
      }
      if (line == "\\coverage") {
        for (const auto& [key, entry] :
             engine->udf_manager().entries()) {
          std::printf("  %-40s %s\n", key.c_str(),
                      entry.coverage.ToString().c_str());
        }
        continue;
      }
      if (line == "\\faults" || line.rfind("\\faults ", 0) == 0) {
        if (line == "\\faults") {
          const std::string text =
              engine->fault_injector()->schedule_text();
          std::printf("fault schedule: %s\n",
                      text.empty() ? "(off)" : text.c_str());
        } else {
          std::string sched = line.substr(8);
          if (sched == "off") sched.clear();
          Status s = engine->SetFaultSchedule(sched);
          if (!s.ok()) {
            std::printf("%s\n", s.ToString().c_str());
          } else {
            std::printf("fault schedule: %s\n",
                        sched.empty() ? "(off)" : sched.c_str());
          }
        }
        continue;
      }
      if (line == "\\serve" || line.rfind("\\serve ", 0) == 0) {
        if (line == "\\serve stop") {
          if (engine->telemetry_port() < 0) {
            std::printf("telemetry server is not running.\n");
          } else {
            engine->StopTelemetryServer();
            std::printf("telemetry server stopped.\n");
          }
        } else {
          int port = 0;  // bare .serve picks an ephemeral port
          if (line != "\\serve") port = std::atoi(line.substr(7).c_str());
          Status s = engine->StartTelemetryServer(port);
          if (!s.ok()) {
            std::printf("%s\n", s.ToString().c_str());
          } else {
            std::printf("telemetry server on http://127.0.0.1:%d — try "
                        "/metrics /metrics.json /trace /views /sessions "
                        "/profile?seconds=1 /healthz\n",
                        engine->telemetry_port());
          }
        }
        continue;
      }
      if (line == "\\profile" || line.rfind("\\profile ", 0) == 0) {
        obs::Profiler& prof = obs::Profiler::Global();
        if (line.rfind("\\profile start", 0) == 0) {
          int hz = 997;
          if (line.size() > 15) hz = std::atoi(line.substr(15).c_str());
          if (hz < 1) hz = 997;
          prof.Start(hz);
          std::printf("profiler sampling at %d Hz; run queries, then "
                      ".profile stop [FILE]\n",
                      hz);
        } else if (line.rfind("\\profile stop", 0) == 0) {
          prof.Stop();
          const std::string folded = prof.RenderFolded();
          std::string path =
              line.size() > 14 ? line.substr(14) : std::string();
          if (path.empty()) {
            std::printf("%s(%lld samples)\n", folded.c_str(),
                        static_cast<long long>(prof.samples()));
          } else {
            std::ofstream out(path);
            if (!out) {
              std::printf("cannot write %s\n", path.c_str());
            } else {
              out << folded;
              std::printf("wrote %s (%lld samples) — flamegraph.pl %s "
                          "> flame.svg\n",
                          path.c_str(),
                          static_cast<long long>(prof.samples()),
                          path.c_str());
            }
          }
        } else {
          std::printf("profiler: %s (%lld samples)\n",
                      prof.active() ? "sampling" : "stopped",
                      static_cast<long long>(prof.samples()));
        }
        continue;
      }
      if (line == "\\session" || line.rfind("\\session ", 0) == 0) {
        if (line == "\\session") {
          for (const auto& s : svc.Sessions()) {
            service::SessionStats st = s->stats();
            std::printf("%c %3lld  %-16s %-6s %4lld queries | hit %5.1f%% "
                        "| %.2f sim s\n",
                        s->id() == current->id() ? '*' : ' ',
                        static_cast<long long>(s->id()), s->name().c_str(),
                        s->open() ? "open" : "closed",
                        static_cast<long long>(st.queries),
                        st.HitPercentage(), st.sim_ms / 1000.0);
          }
        } else if (line.rfind("\\session new", 0) == 0) {
          std::string name =
              line.size() > 13 ? line.substr(13) : std::string();
          current = svc.CreateSession(name);
          std::printf("session %lld ('%s') created and current.\n",
                      static_cast<long long>(current->id()),
                      current->name().c_str());
        } else if (line.rfind("\\session use ", 0) == 0) {
          int64_t id = std::atoll(line.substr(13).c_str());
          auto found = svc.FindSession(id);
          if (found == nullptr) {
            std::printf("unknown session: %lld\n",
                        static_cast<long long>(id));
          } else {
            current = found;
            std::printf("session %lld ('%s') is current%s.\n",
                        static_cast<long long>(id), found->name().c_str(),
                        found->open() ? "" : " (closed — reads only)");
          }
        } else if (line.rfind("\\session close", 0) == 0) {
          int64_t id = line.size() > 15 ? std::atoll(line.substr(15).c_str())
                                        : current->id();
          Status s = svc.CloseSession(id);
          std::printf("%s\n", s.ok() ? "closed." : s.ToString().c_str());
        } else {
          std::printf("usage: .session [new [NAME] | use ID | close "
                      "[ID]]\n");
        }
        continue;
      }
      if (line.rfind("\\stream ", 0) == 0) {
        std::istringstream is(line.substr(8));
        std::string name;
        long long total = 0, initial = 1;
        if (!(is >> name >> total) || total < 1) {
          std::printf("usage: .stream NAME TOTAL_FRAMES [INITIAL_FRAMES]\n");
          continue;
        }
        is >> initial;
        // Registration touches the catalog the executor reads; drain the
        // queue so it lands at a quiescent point.
        svc.Drain();
        catalog::VideoInfo info;
        info.name = name;
        info.mean_objects_per_frame = 8.3 / 0.8;
        info.seed = 2022;
        ingest::StreamOptions opts;
        opts.total_frames = total;
        opts.initial_frames = initial < 1 ? 1 : initial;
        Status s = engine->RegisterStream(info, opts);
        if (!s.ok()) {
          std::printf("%s\n", s.ToString().c_str());
        } else {
          std::printf("stream '%s': %lld of %lld frames visible; "
                      ".ingest %s N to advance.\n",
                      name.c_str(), static_cast<long long>(opts.initial_frames),
                      total, name.c_str());
        }
        continue;
      }
      if (line.rfind("\\wal ", 0) == 0) {
        svc.Drain();
        Status s = engine->EnableWal(line.substr(5));
        if (!s.ok()) {
          std::printf("%s\n", s.ToString().c_str());
        } else {
          std::printf("WAL enabled — %s\n",
                      engine->last_replay().Summary().c_str());
        }
        continue;
      }
      if (line.rfind("\\ingest ", 0) == 0) {
        std::istringstream is(line.substr(8));
        std::string source;
        long long frames = 0, ticks = 1;
        if (!(is >> source >> frames) || frames < 1) {
          std::printf("usage: .ingest SOURCE FRAMES_PER_TICK [TICKS]\n");
          continue;
        }
        is >> ticks;
        if (ticks < 1) ticks = 1;
        for (long long t = 0; t < ticks; ++t) {
          auto r = svc.Ingest(source, frames);
          if (!r.ok()) {
            std::printf("%s\n", r.status().ToString().c_str());
            break;
          }
          std::printf("  tick %lld: +%lld frames, %lld visible\n", t + 1,
                      static_cast<long long>(r.value().flushed),
                      static_cast<long long>(r.value().visible));
        }
        continue;
      }
      if (line == "\\checkpoint") {
        Status s = svc.Checkpoint();
        std::printf("%s\n", s.ToString().c_str());
        continue;
      }
      if (line == "\\clear") {
        svc.ClearReuseState();
        std::printf("reuse state cleared.\n");
        continue;
      }
      if (line.rfind("\\save ", 0) == 0) {
        Status s = svc.SaveViews(line.substr(6));
        std::printf("%s\n", s.ToString().c_str());
        continue;
      }
      if (line.rfind("\\load ", 0) == 0) {
        Status s = svc.LoadViews(line.substr(6));
        if (s.ok()) {
          std::printf("OK — recovery: %s\n",
                      engine->last_recovery().Summary().c_str());
        } else {
          std::printf("%s\n", s.ToString().c_str());
        }
        continue;
      }
      std::printf("unknown command: %s\n", line.c_str());
      continue;
    }
    buffer += line + "\n";
    if (buffer.find(';') == std::string::npos) continue;  // multi-line
    auto r = svc.Execute(current->id(), buffer);
    buffer.clear();
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      continue;
    }
    PrintResult(r.value());
  }
  std::printf("\nbye.\n");
  return 0;
}
