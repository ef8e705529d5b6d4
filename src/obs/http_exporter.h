#ifndef EVA_OBS_HTTP_EXPORTER_H_
#define EVA_OBS_HTTP_EXPORTER_H_

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>

namespace eva::obs {

/// Parsed request line of an incoming HTTP/1.x request. Only the pieces the
/// telemetry endpoints need: method, path, and decoded query parameters.
struct HttpRequest {
  std::string method;
  std::string path;    // without the query string
  std::map<std::string, std::string> params;

  /// params[key] parsed as double, or `fallback` when absent/malformed.
  double ParamOr(const std::string& key, double fallback) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Dependency-free embedded HTTP server for the telemetry plane. A single
/// background thread blocks in poll() on the listening socket plus a
/// self-pipe (so Stop() interrupts the wait), accepting and serving one
/// connection at a time: scrapes are rare (seconds apart) and handlers are
/// fast, so sequential handling keeps the server trivially correct — no
/// thread pool to race, one writer touching each socket.
///
/// Binds 127.0.0.1 only: telemetry is an operator-facing local plane, not
/// an internet-facing service. Port 0 requests an ephemeral port;
/// `port()` reports the bound port after Start() succeeds.
///
/// Handlers run on the server thread while engine queries run on the
/// driver thread, so anything a handler touches must be
/// thread-safe (the metrics registry and tracer are; see each endpoint's
/// wiring in EvaEngine::StartTelemetryServer).
class HttpExporter {
 public:
  HttpExporter() = default;
  ~HttpExporter() { Stop(); }
  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Registers a handler for an exact path ("/metrics"). Must be called
  /// before Start(); the route table is read-only afterwards.
  void Handle(const std::string& path, HttpHandler handler);

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and spawns the server thread.
  /// Returns false (with no thread started) when the bind fails.
  bool Start(int port);
  /// Stops and joins the server thread; idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (useful with port 0); -1 when not running.
  int port() const { return port_; }

 private:
  void ServeLoop();
  void HandleConnection(int fd);

  std::map<std::string, HttpHandler> routes_;
  std::thread thread_;
  /// Written by Start()/Stop() on the owning thread, read by the server
  /// thread's poll loop — atomic so the shutdown handshake is race-free.
  std::atomic<bool> running_{false};
  int port_ = -1;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
};

}  // namespace eva::obs

#endif  // EVA_OBS_HTTP_EXPORTER_H_
