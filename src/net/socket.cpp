#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace gemfi::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

sockaddr_in resolve_ipv4(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr)
    throw SocketError("cannot resolve host '" + host + "': " + ::gai_strerror(rc));
  addr.sin_addr = reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return addr;
}

}  // namespace

double mono_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Fd& Fd::operator=(Fd&& o) noexcept {
  if (this != &o) {
    reset();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Fd::reset() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

TcpConn TcpConn::connect(const std::string& host, std::uint16_t port,
                         unsigned attempts, double backoff_s) {
  const sockaddr_in addr = resolve_ipv4(host, port);
  std::string last_error = "no attempts made";
  for (unsigned attempt = 0; attempt < std::max(attempts, 1u); ++attempt) {
    if (attempt != 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
      backoff_s = std::min(backoff_s * 2.0, 2.0);
    }
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) throw_errno("socket");
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      set_nonblocking(fd.get());
      return TcpConn(std::move(fd));
    }
    last_error = std::strerror(errno);
  }
  throw SocketError("cannot connect to " + host + ":" + std::to_string(port) + ": " +
                    last_error);
}

void TcpConn::send_all(std::span<const std::uint8_t> data, double timeout_s) {
  const double deadline = mono_seconds() + timeout_s;
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_.get(), data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += std::size_t(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      throw_errno("send");
    const double remaining = deadline - mono_seconds();
    if (remaining <= 0.0) throw SocketError("send timed out (peer not reading)");
    pollfd pfd{fd_.get(), POLLOUT, 0};
    ::poll(&pfd, 1, int(std::min(remaining, 0.25) * 1000.0) + 1);
  }
}

std::optional<std::size_t> TcpConn::recv_some(std::span<std::uint8_t> out) {
  for (;;) {
    const ssize_t n = ::recv(fd_.get(), out.data(), out.size(), 0);
    if (n > 0) return std::size_t(n);
    if (n == 0) return std::nullopt;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::size_t(0);
    if (errno == EINTR) continue;
    throw_errno("recv");
  }
}

bool TcpConn::wait_readable(double timeout_s) const {
  pollfd pfd{fd_.get(), POLLIN, 0};
  const int rc = ::poll(&pfd, 1, int(timeout_s * 1000.0));
  return rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

TcpListener TcpListener::bind_listen(const std::string& host, std::uint16_t port,
                                     int backlog) {
  sockaddr_in addr = resolve_ipv4(host, port);
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0)
    throw_errno("bind " + host + ":" + std::to_string(port));
  if (::listen(fd.get(), backlog) < 0) throw_errno("listen");
  set_nonblocking(fd.get());

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) < 0)
    throw_errno("getsockname");

  TcpListener l;
  l.fd_ = std::move(fd);
  l.port_ = ntohs(bound.sin_port);
  return l;
}

std::optional<TcpConn> TcpListener::accept() {
  const int fd = ::accept(fd_.get(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return std::nullopt;
    throw_errno("accept");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  Fd owned(fd);
  set_nonblocking(owned.get());
  return TcpConn(std::move(owned));
}

SelfPipe::SelfPipe() {
  int fds[2];
  if (::pipe(fds) < 0) throw_errno("pipe");
  rd_ = Fd(fds[0]);
  wr_ = Fd(fds[1]);
  set_nonblocking(rd_.get());
  set_nonblocking(wr_.get());
}

void SelfPipe::notify() noexcept {
  const std::uint8_t byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wr_.get(), &byte, 1);
}

void SelfPipe::drain() noexcept {
  std::uint8_t buf[64];
  while (::read(rd_.get(), buf, sizeof buf) > 0) {
  }
}

}  // namespace gemfi::net
