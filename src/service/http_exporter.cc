#include "service/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "service/service.h"

namespace od {
namespace service {

namespace {

std::string StatusLine(int code) {
  switch (code) {
    case 200: return "HTTP/1.1 200 OK\r\n";
    case 404: return "HTTP/1.1 404 Not Found\r\n";
    default: return "HTTP/1.1 400 Bad Request\r\n";
  }
}

std::string Response(int code, const std::string& content_type,
                     const std::string& body) {
  return StatusLine(code) + "Content-Type: " + content_type +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n" + body;
}

/// How long an accepted connection may take to send its request headers.
/// A scraper sends them at once; a client that sends nothing is answered
/// 400 after this and closed, so it cannot wedge the accept thread.
constexpr std::chrono::seconds kRequestTimeout{1};

/// Reads until the end of the request headers, the size cap, or
/// kRequestTimeout after the call; returns what was read.
std::string ReadRequest(int fd) {
  const auto deadline = std::chrono::steady_clock::now() + kRequestTimeout;
  timeval tv{};
  tv.tv_sec = kRequestTimeout.count();
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string request;
  char buf[1024];
  while (request.size() < 16384 &&
         request.find("\r\n\r\n") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  return request;
}

/// How long one connection's whole response may take to send. A scraper
/// reads as fast as the response arrives; a client that stops reading is
/// cut off after this and closed, so it cannot hold the accept thread (nor
/// Stop(), which joins it).
constexpr std::chrono::seconds kSendTimeout{2};

/// Sends `data` until it is all out, the peer fails, or kSendTimeout after
/// the call.
void WriteAll(int fd, const std::string& data) {
  const auto deadline = std::chrono::steady_clock::now() + kSendTimeout;
  size_t off = 0;
  while (off < data.size()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd writable{fd, POLLOUT, 0};
    if (left.count() <= 0 ||
        ::poll(&writable, 1, static_cast<int>(left.count())) <= 0) {
      return;
    }
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

}  // namespace

HttpExporter::HttpExporter(HttpExporterOptions options)
    : options_(std::move(options)) {}

HttpExporter::~HttpExporter() { Stop(); }

void HttpExporter::Start() {
  if (running()) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("HttpExporter: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpExporter: bad host '" + options_.host +
                             "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpExporter: cannot listen on " +
                             options_.host + ":" +
                             std::to_string(options_.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void HttpExporter::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() unblocks the accept() in flight; close() frees the fd.
  // listen_fd_ is reset only after the join — the accept thread reads it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
}

void HttpExporter::AcceptLoop() {
  // Snapshot the listener fd: Stop() writes listen_fd_ = -1 concurrently
  // (after shutdown(), which is what actually unblocks accept()), and the
  // fd never changes while this thread lives.
  const int listen_fd = listen_fd_;
  while (running()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (!running()) return;  // Stop() shut the listener down
      continue;                // transient (EINTR etc.)
    }
    const std::string request = ReadRequest(fd);
    // "GET <path> HTTP/1.1..." — anything else is a 400.
    std::string response;
    if (request.rfind("GET ", 0) == 0) {
      const size_t path_end = request.find(' ', 4);
      response = path_end == std::string::npos
                     ? Response(400, "text/plain", "bad request\n")
                     : HandleRequest(request.substr(4, path_end - 4));
    } else {
      response = Response(400, "text/plain", "GET only\n");
    }
    WriteAll(fd, response);
    ::close(fd);
  }
}

std::string HttpExporter::HandleRequest(const std::string& path) const {
  if (path == "/metrics") {
    return Response(200, "text/plain; version=0.0.4",
                    common::MetricRegistry::Global().SnapshotPrometheus());
  }
  if (path == "/healthz") {
    return Response(200, "text/plain", "ok\n");
  }
  if (path == "/statusz") {
    return Response(200, "application/json",
                    options_.server != nullptr ? options_.server->StatusJson()
                                               : "{\"tenants\":{}}");
  }
  if (path == "/tracez") {
    return Response(200, "application/json",
                    common::Tracer::Global().ExportChromeTrace());
  }
  return Response(404, "text/plain", "not found\n");
}

std::string HttpGet(const std::string& host, int port,
                    const std::string& path, int* status_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("HttpGet: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw std::runtime_error("HttpGet: cannot connect to " + host + ":" +
                             std::to_string(port));
  }
  WriteAll(fd, "GET " + path + " HTTP/1.1\r\nHost: " + host +
                   "\r\nConnection: close\r\n\r\n");
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.1 ", 0) != 0 || body == std::string::npos) {
    throw std::runtime_error("HttpGet: malformed response");
  }
  if (status_out != nullptr) {
    *status_out = std::atoi(response.c_str() + 9);
  }
  return response.substr(body + 4);
}

}  // namespace service
}  // namespace od
