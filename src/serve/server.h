// wsnlinkd's transport: a single-threaded poll() loop over loopback TCP.
//
// The server is deliberately thin — it frames newline-delimited request
// lines out of per-connection byte streams (protocol.h
// ExtractCompleteLines), hands each poll cycle's harvest to
// QueryService::AnswerBatch (where the shared work-stealing pool does the
// actual computing), and writes the replies back in arrival order. All
// protocol/compute smarts live below it, which is why the test battery can
// drive QueryService in-process and trust that the socket path adds nothing
// but framing.
//
// Concurrency model: one event loop thread, nonblocking sockets, no
// per-connection threads. A cycle's lines are answered as one batch, so
// concurrent clients batch into the pooled executor exactly like sweep
// work. Lines past `max_inflight` in a cycle are answered with a
// structured busy error without being parsed or computed.
//
// There is no wall clock anywhere in this layer: poll() blocks until bytes
// or a stop wakeup arrive (infinite timeout), and responses carry no
// timestamps. Latency measurement belongs to the clients and benches.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/query_service.h"

namespace wsnlink::serve {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see Port()).
  std::uint16_t port = 0;
  /// Max request lines answered per poll cycle; the overflow is rejected
  /// with a busy error (counted in ServiceStats::busy_rejected).
  std::size_t max_inflight = 64;
  /// Crash-drill hook: after answering this many request lines, flush the
  /// pending replies and die with _Exit(3) — no destructors, no cache
  /// flush. 0 disables. Exercised by the CI crash drill, which restarts
  /// the daemon on the same cache and asserts warm answers.
  std::uint64_t abort_after = 0;
};

/// Readies an accepted connection socket: nonblocking, and with Nagle's
/// algorithm off (TCP_NODELAY) so that a reply written while an earlier
/// one is unacknowledged goes out at once instead of waiting for the
/// peer's delayed ACK.
void ConfigureAcceptedSocket(int fd);

/// Line-protocol TCP front end over a QueryService.
class Server {
 public:
  /// Binds and listens on 127.0.0.1 immediately (throws std::runtime_error
  /// on failure). The service must outlive the server.
  Server(QueryService& service, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves option port 0 to the ephemeral choice).
  [[nodiscard]] std::uint16_t Port() const noexcept { return port_; }

  /// Runs the event loop until Stop(). Call from exactly one thread.
  void Run();

  /// Signals Run() to drain and return (safe from any thread/handler).
  void Stop();

 private:
  struct Connection {
    int fd = -1;
    /// Bytes received but not yet framed into complete lines.
    std::string in;
    /// Reply bytes; out[sent, out.size()) is not yet written to the socket.
    std::string out;
    /// Bytes of `out` already written. The consumed prefix is dropped when
    /// the buffer drains (or is more than half consumed), so a run of
    /// partial sends costs time linear in the bytes sent, not quadratic in
    /// the backlog.
    std::size_t sent = 0;

    /// Marks `n` more reply bytes as written.
    void Consume(std::size_t n) {
      sent += n;
      if (sent == out.size()) {
        out.clear();
        sent = 0;
      } else if (sent > out.size() / 2) {
        out.erase(0, sent);
        sent = 0;
      }
    }
    /// True while discarding an overlong (unterminated) request line; the
    /// error reply is emitted when its newline finally arrives.
    bool discarding = false;
    /// Peer half-closed its write side; the connection stays alive until
    /// every buffered request is answered and every reply byte written.
    bool eof = false;
  };

  void AcceptNew();
  /// Reads from connections[index]; returns false when it must be closed.
  bool ReadFrom(std::size_t index, std::vector<std::string>& lines,
                std::vector<std::size_t>& owners);
  /// Best-effort blocking flush of every pending reply (crash-drill path).
  void FlushAllBlocking();

  QueryService& service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::uint64_t answered_ = 0;
  std::vector<Connection> connections_;
};

}  // namespace wsnlink::serve
