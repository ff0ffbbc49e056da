// A real-socket transport: each machine is an OS process, and inter-kernel
// messages travel as UDP datagrams on the loopback interface.
//
// This is the "native mode" counterpart to SimNetwork: the same kernel code
// runs unchanged (the paper's software ran both on the Z8000 network and in
// VAX simulation mode, Sec. 2).  Datagram loss on loopback is effectively
// nil, matching the reliable-delivery assumption; for genuinely lossy fabrics
// wrap this in ReliableTransport exactly as with SimNetwork.
//
// Single-threaded usage: the owner pumps Poll() from its event loop; Attach
// registers the local kernel; Send targets peers by machine id -> UDP port.

#ifndef DEMOS_NET_UDP_TRANSPORT_H_
#define DEMOS_NET_UDP_TRANSPORT_H_

#include <cstdint>

#include "src/base/status.h"
#include "src/net/transport.h"

namespace demos {

class UdpTransport final : public Transport {
 public:
  // Machine `m` listens on port_base + m; peers are addressed the same way.
  UdpTransport(MachineId self, std::uint16_t port_base);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // Bind the local socket.  Must succeed before Send/Poll.
  Status Open();

  void Attach(MachineId node, DeliveryHandler handler) override;
  void Send(MachineId src, MachineId dst, PayloadRef payload) override;

  // Drain every datagram currently readable, dispatching each to the
  // attached handler.  Returns the number of datagrams delivered.
  int Poll();

  // Block up to `timeout_ms` for readability, then Poll().
  int Wait(int timeout_ms);

  bool is_open() const { return fd_ >= 0; }

 private:
  MachineId self_;
  std::uint16_t port_base_;
  int fd_ = -1;
  DeliveryHandler handler_;
  Bytes receive_buffer_;  // sized on the first Poll, reused by every recv
};

}  // namespace demos

#endif  // DEMOS_NET_UDP_TRANSPORT_H_
