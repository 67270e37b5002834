#ifndef OD_SERVICE_HTTP_EXPORTER_H_
#define OD_SERVICE_HTTP_EXPORTER_H_

#include <atomic>
#include <string>
#include <thread>

namespace od {
namespace service {

class Server;

struct HttpExporterOptions {
  /// Bind address. Loopback by default — the exporter is an in-process
  /// diagnostics port, not a public API.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one from port() after
  /// Start().
  int port = 0;
  /// Optional service whose Server::StatusJson /statusz serves; /metrics,
  /// /healthz and /tracez work without one.
  Server* server = nullptr;
};

/// A deliberately minimal blocking HTTP/1.1 listener on its own thread —
/// no third-party dependencies, GET only, Connection: close — serving the
/// engine's scrape surface:
///
///   /metrics   Prometheus text exposition of the global MetricRegistry
///              (round-trips through MetricRegistry::FromPrometheusText).
///   /healthz   "ok" — liveness.
///   /statusz   Server::StatusJson: per-tenant epochs, session pins, memo
///              counters, request-latency quantiles (p50/p95/p99), the
///              slow-query threshold, and the flight-recorder tail.
///   /tracez    The tracer's Chrome trace JSON (open in ui.perfetto.dev).
///
/// One request per connection, handled serially on the accept thread: a
/// scrape every few seconds from one or two collectors, not a web server.
/// A connection that has not sent its request headers within a fixed
/// timeout is answered 400 and closed, and one whose response has not all
/// been sent within a fixed deadline is closed, so neither an idle client
/// nor one that stops reading can hold the accept thread (or Stop()) for
/// longer. `HandleRequest` is the socket-free dispatch core, unit-tested
/// directly.
class HttpExporter {
 public:
  explicit HttpExporter(HttpExporterOptions options = HttpExporterOptions());
  /// Stops if running.
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Binds, listens, and starts the accept thread. Throws
  /// std::runtime_error when the bind fails (port taken, bad host).
  void Start();
  /// Unblocks the accept thread and joins it. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (the real one when options.port was 0). 0 before
  /// Start().
  int port() const { return port_; }

  /// Maps a request target path to a full HTTP/1.1 response (status line,
  /// headers, body). Exposed for tests — the accept loop calls exactly
  /// this.
  std::string HandleRequest(const std::string& path) const;

 private:
  void AcceptLoop();

  HttpExporterOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
};

/// Minimal blocking HTTP/1.1 GET client for tests, CI smoke checks, and
/// demos: returns the response body, stores the status code in
/// `status_out` when non-null, throws std::runtime_error on connection
/// failure or a malformed response.
std::string HttpGet(const std::string& host, int port,
                    const std::string& path, int* status_out = nullptr);

}  // namespace service
}  // namespace od

#endif  // OD_SERVICE_HTTP_EXPORTER_H_
