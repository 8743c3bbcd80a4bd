#include "jobsvc/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <list>
#include <stdexcept>

#include "util/log.hpp"

namespace phish::jobsvc {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

}  // namespace

std::optional<std::string> url_decode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%') {
      if (i + 2 >= s.size()) return std::nullopt;
      const auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi < 0 || lo < 0) return std::nullopt;
      out.push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

struct HttpServer::Connection {
  int fd = -1;
  std::string in;        // bytes read, not yet consumed
  std::string out;       // bytes to write
  bool close_after = false;  // half-closed or protocol error: drain and close
};

HttpServer::HttpServer(HttpServerConfig config, HttpHandler handler)
    : config_(config), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  if (running_.load()) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("HttpServer: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: cannot bind 127.0.0.1:" +
                             std::to_string(config_.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);
  if (::pipe(wake_fds_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: pipe() failed");
  }
  set_nonblocking(wake_fds_[0]);
  running_.store(true);
  thread_ = std::thread([this] { serve(); });
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  // Wake the poll loop so it observes running_ == false.
  const char b = 'x';
  [[maybe_unused]] const auto n = ::write(wake_fds_[1], &b, 1);
  if (thread_.joinable()) thread_.join();
  for (int* fd : {&listen_fd_, &wake_fds_[0], &wake_fds_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void HttpServer::serve() {
  std::list<Connection> conns;
  while (running_.load()) {
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    for (Connection& c : conns) {
      short events = POLLIN;
      if (!c.out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
    }
    if (::poll(fds.data(), fds.size(), 1000) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!running_.load()) break;
    // Accept.
    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (conns.size() >= config_.max_connections) {
          ::close(fd);
          continue;
        }
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        conns.push_back(Connection{fd});
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.connections;
      }
    }
    // Service the connections that were polled: fds[2..] matches the front
    // of conns.  Ones accepted above sit at the back with no pollfd yet;
    // the next round polls them.
    std::size_t i = 2;
    for (auto it = conns.begin(); i < fds.size(); ++i) {
      Connection& c = *it;
      const short revents = fds[i].revents;
      bool drop = (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
                  (revents & POLLIN) == 0;
      if (!drop && (revents & POLLIN) != 0) {
        char buf[4096];
        for (;;) {
          const ssize_t n = ::read(c.fd, buf, sizeof(buf));
          if (n > 0) {
            c.in.append(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) c.close_after = true;  // peer finished sending
          break;
        }
        handle_readable(c);
      }
      if (!drop && (revents & POLLOUT) != 0 && !c.out.empty()) {
        const ssize_t n = ::write(c.fd, c.out.data(), c.out.size());
        if (n > 0) c.out.erase(0, static_cast<std::size_t>(n));
        else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) drop = true;
      }
      if (drop || (c.close_after && c.out.empty())) {
        ::close(c.fd);
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (Connection& c : conns) ::close(c.fd);
}

void HttpServer::handle_readable(Connection& conn) {
  // Serve every complete request already buffered (keep-alive pipelining).
  while (try_dispatch(conn)) {
  }
  // Flush what we can immediately; poll handles the rest.
  if (!conn.out.empty()) {
    const ssize_t n = ::write(conn.fd, conn.out.data(), conn.out.size());
    if (n > 0) conn.out.erase(0, static_cast<std::size_t>(n));
  }
}

bool HttpServer::try_dispatch(Connection& conn) {
  if (conn.close_after && conn.in.empty()) return false;
  const std::size_t head_end = conn.in.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    if (conn.in.size() > config_.max_head_bytes) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.overflows;
      conn.out += "HTTP/1.1 431 Request Header Fields Too Large\r\n"
                  "content-length: 0\r\nconnection: close\r\n\r\n";
      conn.close_after = true;
      conn.in.clear();
    }
    return false;
  }

  HttpRequest req;
  bool bad = false;
  {
    const std::string head = conn.in.substr(0, head_end);
    std::size_t line_start = 0;
    std::size_t line_no = 0;
    while (line_start <= head.size() && !bad) {
      std::size_t line_end = head.find("\r\n", line_start);
      if (line_end == std::string::npos) line_end = head.size();
      const std::string line = head.substr(line_start, line_end - line_start);
      if (line_no == 0) {
        // Request line: METHOD SP target SP HTTP/1.x
        const std::size_t sp1 = line.find(' ');
        const std::size_t sp2 =
            sp1 == std::string::npos ? sp1 : line.find(' ', sp1 + 1);
        if (sp2 == std::string::npos ||
            line.compare(sp2 + 1, 7, "HTTP/1.") != 0) {
          bad = true;
        } else {
          req.method = line.substr(0, sp1);
          req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
        }
      } else if (!line.empty()) {
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) {
          bad = true;
        } else {
          std::string value = line.substr(colon + 1);
          const std::size_t first = value.find_first_not_of(" \t");
          value = first == std::string::npos ? "" : value.substr(first);
          req.headers[lower(line.substr(0, colon))] = std::move(value);
        }
      }
      ++line_no;
      if (line_end >= head.size()) break;
      line_start = line_end + 2;
    }
  }

  std::size_t body_len = 0;
  if (!bad) {
    const auto cl = req.headers.find("content-length");
    if (cl != req.headers.end()) {
      errno = 0;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(cl->second.c_str(), &end, 10);
      if (errno != 0 || end == nullptr || *end != '\0') bad = true;
      else body_len = static_cast<std::size_t>(v);
    }
    if (req.headers.count("transfer-encoding") != 0) bad = true;  // no chunked
  }
  if (bad) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.bad_requests;
    conn.out += "HTTP/1.1 400 Bad Request\r\ncontent-length: 0\r\n"
                "connection: close\r\n\r\n";
    conn.close_after = true;
    conn.in.clear();
    return false;
  }
  if (body_len > config_.max_body_bytes) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.overflows;
    conn.out += "HTTP/1.1 413 Content Too Large\r\ncontent-length: 0\r\n"
                "connection: close\r\n\r\n";
    conn.close_after = true;
    conn.in.clear();
    return false;
  }
  if (conn.in.size() < head_end + 4 + body_len) return false;  // body pending

  req.body = conn.in.substr(head_end + 4, body_len);
  conn.in.erase(0, head_end + 4 + body_len);

  // Split target into path + query.
  const std::size_t qmark = req.target.find('?');
  req.path = req.target.substr(0, qmark);
  if (qmark != std::string::npos) {
    const std::string qs = req.target.substr(qmark + 1);
    std::size_t start = 0;
    while (start < qs.size()) {
      std::size_t amp = qs.find('&', start);
      if (amp == std::string::npos) amp = qs.size();
      const std::string pair = qs.substr(start, amp - start);
      const std::size_t eq = pair.find('=');
      const auto key = url_decode(pair.substr(0, eq));
      const auto value = url_decode(
          eq == std::string::npos ? "" : pair.substr(eq + 1));
      if (key && value && !key->empty()) req.query[*key] = *value;
      start = amp + 1;
    }
  }

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
  }
  HttpResponse resp;
  try {
    resp = handler_(req);
  } catch (const std::exception& e) {
    PHISH_LOG(kError) << "jobd: handler threw: " << e.what();
    resp = HttpResponse::json(500, "{\"error\":\"internal\"}\n");
  }
  const bool keep_alive =
      lower(req.headers.count("connection") != 0 ? req.headers.at("connection")
                                                 : "keep-alive") != "close";
  conn.out += "HTTP/1.1 " + std::to_string(resp.status) + " " +
              status_text(resp.status) + "\r\ncontent-type: " +
              resp.content_type + "\r\ncontent-length: " +
              std::to_string(resp.body.size()) + "\r\nconnection: " +
              (keep_alive ? "keep-alive" : "close") + "\r\n\r\n" + resp.body;
  if (!keep_alive) conn.close_after = true;
  return !conn.close_after;
}

std::string HttpServer::status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Content Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

HttpServer::Stats HttpServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace phish::jobsvc
