// Tests for the real-socket transport (single process, multiple sockets on
// loopback, pumped manually).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/net/udp_transport.h"
#include "src/sim/event_queue.h"
#include "tests/test_util.h"

namespace demos {
namespace {

// Pick a port base unlikely to collide across test shards.
std::uint16_t PortBase() { return static_cast<std::uint16_t>(34000 + (getpid() % 2000)); }

TEST(UdpTransportTest, DatagramRoundTrip) {
  const std::uint16_t base = PortBase();
  UdpTransport a(0, base);
  UdpTransport b(1, base);
  ASSERT_TRUE(a.Open().ok());
  ASSERT_TRUE(b.Open().ok());

  std::vector<std::pair<MachineId, Bytes>> received;
  b.Attach(1, [&](MachineId src, PayloadRef payload) {
    received.emplace_back(src, payload.ToBytes());
  });

  a.Send(0, 1, {1, 2, 3, 4});
  for (int i = 0; i < 100 && received.empty(); ++i) {
    b.Wait(10);
  }
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, 0);
  EXPECT_EQ(received[0].second, (Bytes{1, 2, 3, 4}));

  // Many datagrams of different sizes and sources queued up, then drained by
  // one Poll through the single reused receive buffer: each must arrive with
  // exactly its own bytes and source (a shorter datagram after a longer one
  // must not pick up the longer one's tail).
  UdpTransport c(2, base);
  ASSERT_TRUE(c.Open().ok());
  received.clear();
  std::vector<std::pair<MachineId, Bytes>> sent;
  for (int i = 0; i < 32; ++i) {
    Bytes bytes(static_cast<std::size_t>((i * 37) % 300 + 1));
    for (std::size_t j = 0; j < bytes.size(); ++j) {
      bytes[j] = static_cast<std::uint8_t>(i + j);
    }
    UdpTransport& sender = i % 2 == 0 ? a : c;
    const MachineId src = i % 2 == 0 ? 0 : 2;
    sender.Send(src, 1, PayloadRef::Copy(bytes.data(), bytes.size()));
    sent.emplace_back(src, std::move(bytes));
  }
  ::usleep(20000);  // let the datagrams queue up before draining
  int most_in_one_poll = 0;
  for (int i = 0; i < 100 && received.size() < sent.size(); ++i) {
    most_in_one_poll = std::max(most_in_one_poll, b.Poll());
    ::usleep(1000);
  }
  EXPECT_GT(most_in_one_poll, 1) << "a Poll drains every datagram already queued";
  ASSERT_EQ(received.size(), sent.size());
  // Loopback keeps each sender's datagrams in order; compare per source.
  for (const MachineId src : {MachineId{0}, MachineId{2}}) {
    std::vector<Bytes> want;
    std::vector<Bytes> got;
    for (const auto& [s, bytes] : sent) {
      if (s == src) {
        want.push_back(bytes);
      }
    }
    for (const auto& [s, bytes] : received) {
      if (s == src) {
        got.push_back(bytes);
      }
    }
    EXPECT_EQ(got, want) << "source m" << src;
  }
}

TEST(UdpTransportTest, SelfSendLoopsThroughSocket) {
  const std::uint16_t base = static_cast<std::uint16_t>(PortBase() + 10);
  UdpTransport a(0, base);
  ASSERT_TRUE(a.Open().ok());
  int got = 0;
  a.Attach(0, [&](MachineId src, PayloadRef payload) {
    EXPECT_EQ(src, 0);
    EXPECT_EQ(payload.size(), 2u);
    ++got;
  });
  a.Send(0, 0, {9, 9});
  for (int i = 0; i < 100 && got == 0; ++i) {
    a.Wait(10);
  }
  EXPECT_EQ(got, 1);
}

TEST(UdpTransportTest, BindFailureIsReported) {
  const std::uint16_t base = static_cast<std::uint16_t>(PortBase() + 20);
  UdpTransport first(0, base);
  ASSERT_TRUE(first.Open().ok());
  UdpTransport clash(0, base);  // same machine id -> same port
  EXPECT_FALSE(clash.Open().ok());
}

TEST(UdpTransportTest, FullKernelMigrationOverRealSockets) {
  // Two kernels in this process, each on its own socket, pumped round-robin;
  // the counter migrates m0 -> m1 and keeps counting.  This is the in-process
  // version of examples/realtime_sockets.cpp.
  testutil::RegisterPrograms();
  const std::uint16_t base = static_cast<std::uint16_t>(PortBase() + 30);
  EventQueue q0;
  EventQueue q1;
  UdpTransport t0(0, base);
  UdpTransport t1(1, base);
  ASSERT_TRUE(t0.Open().ok());
  ASSERT_TRUE(t1.Open().ok());
  Kernel k0(0, &q0, &t0, {});
  Kernel k1(1, &q1, &t1, {});

  auto pump = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      t0.Poll();
      t1.Poll();
      // Advance both virtual clocks in lockstep 1ms slices.
      q0.RunFor(1000);
      q1.RunFor(1000);
    }
  };

  auto counter = k0.SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  pump(5);
  for (int i = 0; i < 3; ++i) {
    k1.SendFromKernel(*counter, kIncrement, {});
  }
  pump(10);

  ASSERT_TRUE(k0.StartMigration(counter->pid, 1, k0.kernel_address()).ok());
  pump(50);
  ProcessRecord* moved = k1.FindProcess(counter->pid);
  ASSERT_NE(moved, nullptr);
  ByteReader r(moved->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 3u);

  // Stale-address traffic is forwarded by k0's real forwarding address.
  k1.SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  pump(20);
  ByteReader r2(moved->memory.ReadData(0, 8));
  EXPECT_EQ(r2.U64(), 4u);
  EXPECT_EQ(k0.stats().Get(stat::kMsgsForwarded), 1);
}

}  // namespace
}  // namespace demos
