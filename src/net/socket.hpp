// Minimal POSIX TCP layer for the distributed NoW campaign service.
//
// The paper ran its 27-workstation campaigns over an NFS share; the service
// replaces that with an explicit master/worker protocol over TCP. This header
// is the only place raw socket syscalls live: RAII descriptors, a listener, a
// connection with bounded-backoff connect and timeout-guarded blocking I/O on
// non-blocking fds, and a self-pipe so a signal can wake the master's poll
// loop. Everything above it (framing, dispatch) is byte-level and testable
// without a network.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

namespace gemfi::net {

/// Thrown on socket-level failures (connect/bind/send/recv). Protocol-level
/// damage (bad frames) is frame.hpp's ProtocolError instead.
class SocketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Monotonic host seconds (the clock every timeout in this layer uses).
double mono_seconds();

/// Move-only owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// A connected TCP stream. The fd is non-blocking; send_all/recv_some layer
/// poll-based waits on top so callers get bounded blocking semantics.
class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(Fd fd) : fd_(std::move(fd)) {}

  /// Connect to host:port (IPv4; numeric or resolvable name). Retries up to
  /// `attempts` times with exponential backoff starting at `backoff_s`
  /// (doubling, capped at 2 s). Throws SocketError when the budget runs out.
  static TcpConn connect(const std::string& host, std::uint16_t port,
                         unsigned attempts = 1, double backoff_s = 0.1);

  /// Write the whole span, waiting (poll POLLOUT) as needed; throws
  /// SocketError on a connection error or if `timeout_s` elapses while the
  /// peer accepts no bytes (a dead or wedged reader).
  void send_all(std::span<const std::uint8_t> data, double timeout_s = 30.0);

  /// Read whatever is available into `out`. Returns the byte count, 0 if the
  /// socket would block (no data), and nullopt on EOF. Throws on errors.
  std::optional<std::size_t> recv_some(std::span<std::uint8_t> out);

  /// Block (poll) until readable, EOF, or timeout. True if readable/EOF.
  [[nodiscard]] bool wait_readable(double timeout_s) const;

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }
  void close() noexcept { fd_.reset(); }

 private:
  Fd fd_;
};

/// A listening IPv4 socket (non-blocking, SO_REUSEADDR). port 0 binds an
/// ephemeral port; port() reports the actual one.
class TcpListener {
 public:
  TcpListener() = default;
  static TcpListener bind_listen(const std::string& host, std::uint16_t port,
                                 int backlog = 16);

  /// Accept one pending connection; nullopt if none is queued.
  std::optional<TcpConn> accept();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }
  void close() noexcept { fd_.reset(); }

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

/// Classic self-pipe: an async-signal-safe notify() end and a pollable read
/// end, so a SIGINT handler can wake the master's poll loop for a graceful
/// drain instead of killing the campaign mid-experiment.
class SelfPipe {
 public:
  SelfPipe();

  void notify() noexcept;      // async-signal-safe
  void drain() noexcept;       // consume pending notifications
  [[nodiscard]] int read_fd() const noexcept { return rd_.get(); }

 private:
  Fd rd_;
  Fd wr_;
};

}  // namespace gemfi::net
