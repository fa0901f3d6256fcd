#include "src/net/udp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace detector {

namespace {

int OpenNonblockingUdpSocket(std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket(): ") + std::strerror(errno);
    }
    return -1;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    if (error != nullptr) {
      *error = std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

sockaddr_in LocalhostAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

std::unique_ptr<UdpTransport> UdpTransport::Bind(uint16_t port, std::string* error) {
  const int fd = OpenNonblockingUdpSocket(error);
  if (fd < 0) {
    return nullptr;
  }
  sockaddr_in addr = LocalhostAddr(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) {
      *error = std::string("bind(127.0.0.1): ") + std::strerror(errno);
    }
    ::close(fd);
    return nullptr;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    if (error != nullptr) {
      *error = std::string("getsockname(): ") + std::strerror(errno);
    }
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<UdpTransport>(
      new UdpTransport(fd, ntohs(bound.sin_port), /*connected=*/false));
}

std::unique_ptr<UdpTransport> UdpTransport::Connect(uint16_t port, std::string* error) {
  const int fd = OpenNonblockingUdpSocket(error);
  if (fd < 0) {
    return nullptr;
  }
  sockaddr_in addr = LocalhostAddr(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) {
      *error = std::string("connect(127.0.0.1): ") + std::strerror(errno);
    }
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<UdpTransport>(new UdpTransport(fd, port, /*connected=*/true));
}

UdpTransport::~UdpTransport() { ::close(fd_); }

bool UdpTransport::Send(std::span<const uint8_t> frame) {
  // Only the Connect side has a destination; Send on a Bind-side transport would otherwise
  // surface as an opaque EDESTADDRREQ from the kernel.
  if (!connected_ || frame.size() > kMaxDatagramBytes) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.frames_sent;
    ++stats_.frames_dropped;
    return false;
  }
  const ssize_t sent = ::send(fd_, frame.data(), frame.size(), 0);
  const int send_errno = errno;  // before the lock below, which may clobber errno
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.frames_sent;
  stats_.bytes_sent += frame.size();
  if (sent < 0) {
    // Buffer pressure (EAGAIN) is a real datagram loss no sender can act on. ECONNREFUSED
    // on a connected localhost socket is different: the kernel is telling us nothing listens
    // on that port — the collector is down — and that hard signal must reach the caller (a
    // ReportEmitter counts it in frames_send_failed) instead of passing as silent loss.
    ++stats_.frames_dropped;
    return send_errno == EAGAIN || send_errno == EWOULDBLOCK;
  }
  return true;
}

bool UdpTransport::Receive(std::vector<uint8_t>& out) {
  out.resize(kMaxDatagramBytes);
  const ssize_t got = ::recv(fd_, out.data(), out.size(), 0);
  if (got < 0) {
    out.clear();
    return false;
  }
  out.resize(static_cast<size_t>(got));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.frames_received;
  return true;
}

bool UdpTransport::ReceiveTimeout(std::vector<uint8_t>& out, int timeout_ms) {
  if (Receive(out)) {
    return true;
  }
  pollfd pfd{fd_, POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) {
    return false;
  }
  return Receive(out);
}

TransportStats UdpTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace detector
