// The OD service's scrape surface, end to end: start a Server, run a few
// profiled requests through a Session, expose /metrics, /healthz, /statusz
// and /tracez over the built-in HTTP exporter, and fetch them back.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/service_http_demo              # self-check
//               ./build/examples/service_http_demo --serve 8080 # then curl
//               curl -s localhost:8080/metrics | \
//                 ./build/examples/service_http_demo --parse-metrics
//
// Modes:
//   (none)           start on an ephemeral port, fetch every endpoint
//                    in-process, verify the responses, exit 0/1.
//   --serve [port]   serve until killed (default port 8080) — for curl.
//   --parse-metrics  read Prometheus text from stdin, round-trip it
//                    through MetricRegistry::FromPrometheusText, and
//                    print what survived — proves the exposition format
//                    parses back, not just that bytes came out.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "common/trace.h"
#include "service/http_exporter.h"
#include "service/service.h"

using namespace od;

namespace {

AttributeList L(std::initializer_list<AttributeId> attrs) {
  AttributeList list;
  for (AttributeId a : attrs) list = list.Append(a);
  return list;
}

/// A tenant name with a quote, a backslash, a tab and a newline: /statusz
/// must escape it and still serve valid JSON (CI's endpoint-smoke job
/// json-loads the page and looks the name up as a key).
const char kHostileTenant[] = "odd \"name\" back\\slash\ttab\nnewline";

/// A tenant with a date-hierarchy catalog and a bit of request traffic,
/// so every endpoint has something to show, plus one request on a tenant
/// whose name needs escaping.
void SeedTraffic(service::Server* server) {
  server->CreateTenant(kHostileTenant);
  server->OpenSession(kHostileTenant).Implies(OrderDependency(L({0}), L({1})));
  server->CreateTenant("demo");
  server->Add("demo", OrderDependency(L({0}), L({1})));  // [date] -> [month]
  server->Add("demo", OrderDependency(L({1}), L({2})));  // [month] -> [qtr]
  service::Session session = server->OpenSession("demo");
  session.Implies(OrderDependency(L({0}), L({2})));  // transitivity, proved
  session.Implies(OrderDependency(L({0}), L({2})));  // memo fast path
  session.ProveAll({OrderDependency(L({0}), L({1})),
                    OrderDependency(L({2}), L({0}))});
}

int SelfCheck() {
  common::Tracer::Global().Enable();
  service::ServerOptions sopts;
  sopts.slow_query_floor_us = 0;  // classify everything slow: /statusz demo
  service::Server server(sopts);
  SeedTraffic(&server);

  service::HttpExporterOptions hopts;
  hopts.server = &server;
  hopts.port = 0;  // ephemeral
  service::HttpExporter exporter(hopts);
  exporter.Start();
  std::printf("exporter listening on 127.0.0.1:%d\n", exporter.port());

  int status = 0;
  const std::string health =
      service::HttpGet("127.0.0.1", exporter.port(), "/healthz", &status);
  std::printf("GET /healthz -> %d %s", status, health.c_str());
  if (status != 200 || health != "ok\n") return 1;

  const std::string metrics =
      service::HttpGet("127.0.0.1", exporter.port(), "/metrics", &status);
  const common::MetricsSnapshot snap =
      common::MetricRegistry::FromPrometheusText(metrics);
  std::printf("GET /metrics -> %d (%zu bytes, %zu counters round-tripped)\n",
              status, metrics.size(), snap.counters.size());
  if (status != 200 || snap.counters.empty()) return 1;

  const std::string statusz =
      service::HttpGet("127.0.0.1", exporter.port(), "/statusz", &status);
  std::printf("GET /statusz -> %d (%zu bytes)\n", status, statusz.size());
  std::string hostile_key;
  common::AppendJsonString(kHostileTenant, &hostile_key);
  if (status != 200 ||
      statusz.find("\"demo\"") == std::string::npos ||
      statusz.find("\"kind\":\"prove_all\"") == std::string::npos ||
      statusz.find(hostile_key + ":{") == std::string::npos) {
    return 1;
  }
  for (const char c : statusz) {
    if (static_cast<unsigned char>(c) < 0x20) return 1;  // unescaped byte
  }

  const std::string tracez =
      service::HttpGet("127.0.0.1", exporter.port(), "/tracez", &status);
  std::printf("GET /tracez -> %d (%zu bytes)\n", status, tracez.size());
  if (status != 200 || tracez.rfind("{\"traceEvents\":[", 0) != 0) return 1;

  (void)service::HttpGet("127.0.0.1", exporter.port(), "/nope", &status);
  std::printf("GET /nope -> %d\n", status);
  if (status != 404) return 1;

  std::printf("self-check OK\n");
  return 0;
}

int Serve(int port) {
  service::ServerOptions sopts;
  sopts.slow_query_floor_us = 0;
  service::Server server(sopts);
  common::Tracer::Global().Enable();
  SeedTraffic(&server);

  service::HttpExporterOptions hopts;
  hopts.server = &server;
  hopts.port = port;
  service::HttpExporter exporter(hopts);
  exporter.Start();
  std::printf("serving on http://127.0.0.1:%d — try:\n", exporter.port());
  std::printf("  curl -s localhost:%d/metrics\n", exporter.port());
  std::printf("  curl -s localhost:%d/statusz\n", exporter.port());
  std::printf("  curl -s localhost:%d/tracez\n", exporter.port());
  std::fflush(stdout);
  // Block until killed; the exporter's own thread does the serving.
  for (;;) pause();
}

int ParseMetrics() {
  std::ostringstream text;
  text << std::cin.rdbuf();
  const common::MetricsSnapshot snap =
      common::MetricRegistry::FromPrometheusText(text.str());
  std::printf("parsed %zu counters, %zu gauges, %zu histograms\n",
              snap.counters.size(), snap.gauges.size(),
              snap.histograms.size());
  if (snap.counters.empty() && snap.gauges.empty() &&
      snap.histograms.empty()) {
    std::fprintf(stderr, "nothing parsed back — exposition format broke\n");
    return 1;
  }
  for (const auto& [key, value] : snap.counters) {
    std::printf("  counter %s = %lld\n", key.c_str(),
                static_cast<long long>(value));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--serve") == 0) {
    return Serve(argc > 2 ? std::atoi(argv[2]) : 8080);
  }
  if (argc > 1 && std::strcmp(argv[1], "--parse-metrics") == 0) {
    return ParseMetrics();
  }
  return SelfCheck();
}
