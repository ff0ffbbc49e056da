#include "src/net/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/base/log.h"

namespace demos {
namespace {
// Wire framing: 2-byte source machine id, then the kernel message bytes.
// Large move-data packets fit comfortably below the loopback datagram limit.
constexpr std::size_t kMaxDatagram = 60 * 1024;

sockaddr_in PortAddress(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}
}  // namespace

UdpTransport::UdpTransport(MachineId self, std::uint16_t port_base)
    : self_(self), port_base_(port_base) {}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status UdpTransport::Open() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    return InternalError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr = PortAddress(static_cast<std::uint16_t>(port_base_ + self_));
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status failed = InternalError(std::string("bind: ") + std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
    return failed;
  }
  return OkStatus();
}

void UdpTransport::Attach(MachineId node, DeliveryHandler handler) {
  if (node != self_) {
    DEMOS_LOG(kError, "udp") << "machine m" << node << " attached to transport owned by m"
                             << self_;
  }
  handler_ = std::move(handler);
}

void UdpTransport::Send(MachineId src, MachineId dst, PayloadRef payload) {
  if (fd_ < 0) {
    return;
  }
  // Local delivery (src == dst) also loops through the socket to self, which
  // keeps it asynchronous like SimNetwork's local path.
  const std::size_t size = payload.size() + 2;
  if (size > kMaxDatagram) {
    DEMOS_LOG(kError, "udp") << "dropping oversized datagram (" << size << " B)";
    return;
  }
  // Gather the 2-byte source prefix and the frame straight from the payload:
  // no datagram buffer is built.
  std::uint8_t header[2] = {static_cast<std::uint8_t>(src & 0xFF),
                            static_cast<std::uint8_t>(src >> 8)};
  iovec parts[2] = {{header, sizeof(header)},
                    {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  sockaddr_in addr = PortAddress(static_cast<std::uint16_t>(port_base_ + dst));
  msghdr msg{};
  msg.msg_name = &addr;
  msg.msg_namelen = sizeof(addr);
  msg.msg_iov = parts;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  (void)::sendmsg(fd_, &msg, 0);
}

int UdpTransport::Poll() {
  if (fd_ < 0 || !handler_) {
    return 0;
  }
  // One receive buffer for the transport's lifetime; each datagram is copied
  // out into an exact-size pooled buffer, so nothing 60 KiB outlives a recv.
  if (receive_buffer_.empty()) {
    receive_buffer_.resize(kMaxDatagram);
  }
  int delivered = 0;
  for (;;) {
    const ssize_t n = ::recv(fd_, receive_buffer_.data(), receive_buffer_.size(), MSG_DONTWAIT);
    if (n < 0) {
      break;  // EWOULDBLOCK (or error): drained
    }
    if (n < 2) {
      continue;
    }
    const std::uint8_t* datagram = receive_buffer_.data();
    const MachineId src = static_cast<MachineId>(datagram[0] | (datagram[1] << 8));
    handler_(src, PayloadRef::Copy(datagram + 2, static_cast<std::size_t>(n - 2)));
    ++delivered;
  }
  return delivered;
}

int UdpTransport::Wait(int timeout_ms) {
  if (fd_ < 0) {
    return 0;
  }
  pollfd pfd{fd_, POLLIN, 0};
  (void)::poll(&pfd, 1, timeout_ms);
  return Poll();
}

}  // namespace demos
