#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "util/fault_injection.h"

namespace wsnlink::serve {

namespace {

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// send() that never raises SIGPIPE; returns bytes written or -1.
ssize_t SendSome(int fd, const char* data, std::size_t size) {
#ifdef MSG_NOSIGNAL
  return ::send(fd, data, size, MSG_NOSIGNAL);
#else
  return ::send(fd, data, size, 0);
#endif
}

/// The instrumented send both flush loops go through. An armed
/// "serve.send" schedule degrades the selected operation into the failure
/// modes a loaded kernel produces anyway: a short write (exactly one byte
/// reaches the wire) when more than one byte was offered, a clean EINTR
/// when only one was. Either way no bytes are corrupted or reordered, so
/// the response-resumption paths must reassemble replies byte-exactly —
/// which is precisely what the drill asserts.
ssize_t SendChunk(int fd, const char* data, std::size_t size) {
  auto& injector = util::FaultInjector::Global();
  if (injector.Armed() && injector.ShouldFail("serve.send")) {
    if (size > 1) return SendSome(fd, data, 1);
    errno = EINTR;
    return -1;
  }
  return SendSome(fd, data, size);
}

}  // namespace

void ConfigureAcceptedSocket(int fd) {
  SetNonBlocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Server::Server(QueryService& service, ServerOptions options)
    : service_(service), options_(options) {
  if (options_.max_inflight == 0) options_.max_inflight = 1;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve: cannot create listen socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = ::htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" +
                             std::to_string(options_.port) + ": " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: listen failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ::ntohs(bound.sin_port);
  }
  SetNonBlocking(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot create wakeup pipe");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
}

Server::~Server() {
  for (const Connection& conn : connections_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

void Server::Stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

void Server::AcceptNew() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try next cycle
    ConfigureAcceptedSocket(fd);
    Connection conn;
    conn.fd = fd;
    connections_.push_back(std::move(conn));
  }
}

bool Server::ReadFrom(std::size_t index, std::vector<std::string>& lines,
                      std::vector<std::size_t>& owners) {
  Connection& conn = connections_[index];
  char buf[4096];
  while (!conn.eof) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n == 0) {
      conn.eof = true;
      break;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    conn.in.append(buf, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof(buf)) break;
  }

  // Overlong unterminated line: drop its bytes now (bounded memory) and
  // answer with a structured error once its terminator shows up.
  if (conn.discarding) {
    const std::size_t nl = conn.in.find('\n');
    if (nl == std::string::npos) {
      conn.in.clear();
    } else {
      conn.in.erase(0, nl + 1);
      conn.discarding = false;
      conn.out +=
          ErrorResponse("request line exceeds " +
                        std::to_string(kMaxRequestBytes) + " bytes");
      conn.out += '\n';
    }
  }
  if (!conn.discarding && conn.in.size() > kMaxRequestBytes &&
      conn.in.find('\n') == std::string::npos) {
    conn.discarding = true;
    conn.in.clear();
  }

  std::size_t harvested = 0;
  for (std::string& line : ExtractCompleteLines(conn.in)) {
    lines.push_back(std::move(line));
    owners.push_back(index);
    ++harvested;
  }
  // A half-closed peer is kept until its last reply byte is on the wire.
  if (conn.eof && harvested == 0 && conn.out.empty()) return false;
  return true;
}

void Server::FlushAllBlocking() {
  for (Connection& conn : connections_) {
    while (conn.fd >= 0 && !conn.out.empty()) {
      const ssize_t n = SendChunk(conn.fd, conn.out.data() + conn.sent,
                                  conn.out.size() - conn.sent);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          pollfd pfd{conn.fd, POLLOUT, 0};
          if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) break;
          continue;
        }
        break;
      }
      conn.Consume(static_cast<std::size_t>(n));
    }
  }
}

void Server::Run() {
  std::vector<pollfd> pfds;
  std::vector<std::string> lines;
  std::vector<std::size_t> owners;

  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    pfds.push_back({wake_read_fd_, POLLIN, 0});
    for (const Connection& conn : connections_) {
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      pfds.push_back({conn.fd, events, 0});
    }

    // No wall clock: block until traffic or a Stop() wakeup.
    const int ready = ::poll(pfds.data(), pfds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (pfds[1].revents & POLLIN) {
      char drain[16];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    if (pfds[0].revents & POLLIN) AcceptNew();

    // Harvest complete request lines from every readable connection.
    lines.clear();
    owners.clear();
    std::vector<std::size_t> to_close;
    for (std::size_t i = 0; i + 2 < pfds.size() && i < connections_.size();
         ++i) {
      const short revents = pfds[i + 2].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        to_close.push_back(i);
        continue;
      }
      if (revents & (POLLIN | POLLHUP)) {
        if (!ReadFrom(i, lines, owners)) to_close.push_back(i);
      }
    }

    // Answer this cycle's batch; overflow past max_inflight is rejected
    // up front so a flood cannot queue unbounded compute.
    if (!lines.empty()) {
      std::vector<std::string> accepted;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i < options_.max_inflight) {
          accepted.push_back(std::move(lines[i]));
        }
      }
      const std::size_t rejected = lines.size() - accepted.size();
      if (rejected > 0) service_.CountBusyRejected(rejected);

      const std::vector<std::string> responses =
          service_.AnswerBatch(accepted);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        Connection& conn = connections_[owners[i]];
        if (i < responses.size()) {
          conn.out += responses[i];
        } else {
          conn.out += ErrorResponse("busy: max inflight exceeded");
        }
        conn.out += '\n';
      }
      answered_ += lines.size();
    }

    // Write what we can without blocking.
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      Connection& conn = connections_[i];
      while (!conn.out.empty()) {
        const ssize_t n = SendChunk(conn.fd, conn.out.data() + conn.sent,
                                    conn.out.size() - conn.sent);
        if (n > 0) {
          conn.Consume(static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        to_close.push_back(i);
        break;
      }
    }

    // Crash drill: answers are on the wire, now die without cleanup.
    if (options_.abort_after != 0 && answered_ >= options_.abort_after) {
      FlushAllBlocking();
      std::_Exit(3);
    }

    if (!to_close.empty()) {
      // Close marked connections (dedupe via the highest-index-first
      // erase; indices were recorded against the same vector).
      std::vector<Connection> kept;
      kept.reserve(connections_.size());
      for (std::size_t i = 0; i < connections_.size(); ++i) {
        bool close_it = false;
        for (const std::size_t idx : to_close) {
          if (idx == i) close_it = true;
        }
        if (close_it) {
          ::close(connections_[i].fd);
        } else {
          kept.push_back(std::move(connections_[i]));
        }
      }
      connections_ = std::move(kept);
    }
  }
  FlushAllBlocking();
}

}  // namespace wsnlink::serve
