// The HTTP scrape endpoint end-to-end: a real listener on a loopback
// ephemeral port, fetched with the in-repo HttpGet helper. /metrics must
// round-trip through MetricRegistry::FromPrometheusText, /statusz must
// reflect a request the server just classified as slow and stay valid
// JSON for any tenant name, and neither an idle client nor one that stops
// reading may wedge the listener or Stop().

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "service/http_exporter.h"
#include "service/service.h"

namespace od {
namespace service {
namespace {

AttributeList L(std::initializer_list<AttributeId> attrs) {
  AttributeList list;
  for (AttributeId a : attrs) list = list.Append(a);
  return list;
}

OrderDependency Od(std::initializer_list<AttributeId> lhs,
                   std::initializer_list<AttributeId> rhs) {
  return OrderDependency(L(lhs), L(rhs));
}

/// One listener + one server reused by the tests below; each test still
/// talks to it through a fresh TCP connection.
class HttpExporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions opts;
    opts.slow_query_floor_us = 0;  // everything classifies slow
    server_ = std::make_unique<Server>(opts);
    server_->CreateTenant("http_t");
    server_->Add("http_t", Od({0}, {1}));
    Session s = server_->OpenSession("http_t");
    ASSERT_TRUE(s.Implies(Od({0}, {1})));
    (void)s.ProveAll({Od({0}, {1}), Od({1}, {2})});

    HttpExporterOptions hopts;
    hopts.server = server_.get();
    hopts.port = 0;  // ephemeral
    exporter_ = std::make_unique<HttpExporter>(hopts);
    exporter_->Start();
    ASSERT_TRUE(exporter_->running());
    ASSERT_GT(exporter_->port(), 0);
  }

  void TearDown() override {
    exporter_->Stop();
    EXPECT_FALSE(exporter_->running());
  }

  std::string Get(const std::string& path, int* status = nullptr) {
    return HttpGet("127.0.0.1", exporter_->port(), path, status);
  }

  std::unique_ptr<Server> server_;
  std::unique_ptr<HttpExporter> exporter_;
};

TEST_F(HttpExporterTest, HealthzIsOk) {
  int status = 0;
  EXPECT_EQ(Get("/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);
}

TEST_F(HttpExporterTest, MetricsParseBackThroughPrometheusText) {
  int status = 0;
  const std::string body = Get("/metrics", &status);
  EXPECT_EQ(status, 200);
  const common::MetricsSnapshot snap =
      common::MetricRegistry::FromPrometheusText(body);
  // The scrape must carry the service metrics this fixture just moved.
  bool saw_sessions = false, saw_request_us = false;
  for (const auto& [key, value] : snap.counters) {
    if (key.find("od_service_sessions_opened_total") != std::string::npos) {
      saw_sessions = value >= 1;
    }
  }
  for (const auto& [key, hist] : snap.histograms) {
    if (key.find("od_service_request_us") != std::string::npos &&
        key.find("http_t") != std::string::npos) {
      saw_request_us = hist.count >= 1;
    }
  }
  EXPECT_TRUE(saw_sessions) << body.substr(0, 400);
  EXPECT_TRUE(saw_request_us) << body.substr(0, 400);
}

TEST_F(HttpExporterTest, StatuszReflectsJustExecutedSlowQuery) {
  int status = 0;
  const std::string body = Get("/statusz", &status);
  EXPECT_EQ(status, 200);
  // The fixture's floor-0 tenant classified its requests slow; the page
  // must show the tenant, a nonzero slow count, and the profiles.
  EXPECT_NE(body.find("\"http_t\""), std::string::npos);
  EXPECT_NE(body.find("\"kind\":\"prove_all\""), std::string::npos);
  EXPECT_NE(body.find("\"slow\":["), std::string::npos);
  EXPECT_EQ(body.find("\"slow_queries\":0,"), std::string::npos)
      << "floor-0 tenant should have slow queries: " << body;
  EXPECT_NE(body.find("\"request_p50_us\":"), std::string::npos);
}

TEST_F(HttpExporterTest, IdleClientDoesNotWedgeTheListener) {
  // A client that connects and never sends a request.
  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(exporter_->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  auto probe = std::async(std::launch::async, [this] {
    int status = 0;
    std::string body = Get("/healthz", &status);
    return std::make_pair(status, std::move(body));
  });
  const bool answered = probe.wait_for(std::chrono::seconds(3)) ==
                        std::future_status::ready;
  std::string idle_reply;
  if (answered) {
    // The listener gave up on the idle client before serving the probe.
    char buf[256];
    const ssize_t n = ::recv(idle, buf, sizeof(buf), 0);
    if (n > 0) idle_reply.assign(buf, static_cast<size_t>(n));
  }
  ::close(idle);  // unwedges a listener stuck on it, so a failure ends here
  EXPECT_TRUE(answered) << "/healthz unanswered within 3 s of an idle client";
  const auto [status, body] = probe.get();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
  if (answered) {
    EXPECT_EQ(idle_reply.rfind("HTTP/1.1 400", 0), 0u) << idle_reply;
  }
}

/// Connects to the exporter with a 4 KB receive buffer, sends `request`,
/// and never reads: a client that stalls mid-response.
int ConnectStalledReader(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// True once the exporter has started sending the response to `fd`.
bool ResponseStarted(int fd) {
  pollfd readable{fd, POLLIN, 0};
  return ::poll(&readable, 1, 3000) == 1;
}

TEST_F(HttpExporterTest, StalledReaderDoesNotWedgeTheListenerOrStop) {
  // 60,000 spans make a /tracez body of about 9 MB, far more than the
  // stalled client's receive buffer and the listener's send buffer hold.
  common::Tracer& tracer = common::Tracer::Global();
  tracer.Clear();
  for (int i = 0; i < 60000; ++i) {
    tracer.Record("http_exporter_test.span", i, 1, 0, 1, i + 1, 0);
  }
  const std::string tracez = "GET /tracez HTTP/1.1\r\n\r\n";
  constexpr auto kBound = std::chrono::seconds(4);

  // /healthz is answered within the bound while a stalled reader is
  // connected ahead of it.
  const int stalled = ConnectStalledReader(exporter_->port(), tracez);
  ASSERT_GE(stalled, 0);
  ASSERT_TRUE(ResponseStarted(stalled));
  auto probe = std::async(std::launch::async, [this] {
    int status = 0;
    std::string body = Get("/healthz", &status);
    return std::make_pair(status, std::move(body));
  });
  const bool answered =
      probe.wait_for(kBound) == std::future_status::ready;
  ::close(stalled);  // unwedges a listener stuck on it, so a failure ends here
  EXPECT_TRUE(answered) << "/healthz unanswered within 4 s of a stalled reader";
  const auto [status, body] = probe.get();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");

  // Stop() returns within the bound while the listener is sending to a
  // stalled reader.
  const int stalled_again = ConnectStalledReader(exporter_->port(), tracez);
  ASSERT_GE(stalled_again, 0);
  ASSERT_TRUE(ResponseStarted(stalled_again));
  auto stop = std::async(std::launch::async, [this] { exporter_->Stop(); });
  const bool stopped = stop.wait_for(kBound) == std::future_status::ready;
  ::close(stalled_again);
  stop.get();
  EXPECT_TRUE(stopped) << "Stop() blocked over 4 s on a stalled reader";
  tracer.Clear();
}

TEST_F(HttpExporterTest, TracezServesChromeTraceShape) {
  int status = 0;
  const std::string body = Get("/tracez", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.rfind("{\"traceEvents\":[", 0), 0u) << body.substr(0, 120);
}

TEST_F(HttpExporterTest, UnknownPathIs404AndNonGetIs400) {
  int status = 0;
  (void)Get("/nope", &status);
  EXPECT_EQ(status, 404);
}

TEST_F(HttpExporterTest, StopIsIdempotentAndRestartable) {
  exporter_->Stop();
  exporter_->Stop();
  EXPECT_FALSE(exporter_->running());
  exporter_->Start();
  EXPECT_TRUE(exporter_->running());
  int status = 0;
  EXPECT_EQ(Get("/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);
}

TEST(HttpExporterUnitTest, StatuszEscapesEveryControlByteOfATenantName) {
  const std::string name = "q\"b\\t\tn\nc\x01";
  const std::string escaped = "\"q\\\"b\\\\t\\tn\\nc\\u0001\"";
  Server server;
  server.CreateTenant(name);
  Session session = server.OpenSession(name);
  EXPECT_FALSE(session.Implies(Od({0}, {1})));  // one profiled request

  HttpExporterOptions opts;
  opts.server = &server;
  const HttpExporter exporter(opts);
  const std::string response = exporter.HandleRequest("/statusz");
  const size_t header_end = response.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  const std::string body = response.substr(header_end + 4);
  const auto tail = server.FlightRecorderTail(name);
  ASSERT_EQ(tail.size(), 1u);
  const std::string profile = tail.back().ToJson();

  for (const std::string* json : {&body, &profile}) {
    for (const char c : *json) {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20) << *json;
    }
  }
  EXPECT_NE(body.find("{\"tenants\":{" + escaped + ":{\"epoch\":"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"tenant\":" + escaped), std::string::npos) << body;
  EXPECT_NE(profile.find("\"tenant\":" + escaped), std::string::npos)
      << profile;
}

TEST(HttpExporterUnitTest, HandleRequestDispatchesWithoutASocket) {
  HttpExporter exporter(HttpExporterOptions{});  // no server attached
  const std::string ok = exporter.HandleRequest("/healthz");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("ok\n"), std::string::npos);
  EXPECT_NE(exporter.HandleRequest("/metrics").find("text/plain"),
            std::string::npos);
  // No Server wired in: /statusz still renders a valid empty document.
  EXPECT_NE(exporter.HandleRequest("/statusz").find("{\"tenants\":{}}"),
            std::string::npos);
  EXPECT_NE(exporter.HandleRequest("/bogus").find("404"),
            std::string::npos);
}

}  // namespace
}  // namespace service
}  // namespace od
