// The addressing state machine on its own: an Addressing built from an event
// queue, a process table and a capturing output, with no Kernel and no
// Cluster.  Pins the negative cache (locate-gave-up marker vs tombstone vs
// later news), what a gossip flush may carry, and the chain-collapse guard.

#include "src/kernel/addressing.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace demos {
namespace {

constexpr MachineId kHere = 1;
constexpr std::uint64_t kDead = Addressing::LocationEntry::kDeadVersion;

class CapturingOutput final : public AddressingOutput {
 public:
  void Transmit(Message&& msg) override { sent.push_back(std::move(msg)); }
  void DeliverHere(Message&& msg) override { delivered.push_back(std::move(msg)); }
  bool halted() const override { return false; }

  std::vector<Message> sent;
  std::vector<Message> delivered;
};

class AddressingTest : public ::testing::Test {
 protected:
  // A resident process on this machine, the sender of the sends under test.
  ProcessRecord& Resident(const ProcessId& pid, std::vector<MachineId> history = {}) {
    auto record = std::make_unique<ProcessRecord>();
    record->pid = pid;
    record->migration_history = std::move(history);
    return *table_.Insert(std::move(record));
  }

  // Deliver a {u16 type, pid} kNotDeliverable verdict about `dead` to `to`.
  void DeliverVerdict(ProcessRecord& to, const ProcessId& dead) {
    ByteWriter w;
    w.U16(static_cast<std::uint16_t>(MsgType::kUserBase));
    w.Pid(dead);
    Message verdict;
    verdict.sender = KernelAddress(kHere);
    verdict.receiver = ProcessAddress{kHere, to.pid};
    verdict.type = MsgType::kNotDeliverable;
    verdict.payload = w.Take();
    addressing_.OnDeliver(to, verdict);
  }

  void Receive(MsgType type, Bytes payload, MachineId from = 3) {
    Message msg;
    msg.sender = KernelAddress(from);
    msg.receiver = KernelAddress(kHere);
    msg.type = type;
    msg.payload = std::move(payload);
    addressing_.HandleMessage(msg, from);
  }

  void ReceiveGossip(const ProcessId& pid, MachineId where, std::uint64_t version) {
    ByteWriter w;
    w.U16(1);
    w.Pid(pid);
    w.U16(where);
    w.U64(version);
    Receive(MsgType::kGossip, w.Take());
  }

  void ReceiveCollapse(const ProcessId& pid, MachineId owner, std::uint64_t version) {
    ByteWriter w;
    w.Pid(pid);
    w.U16(owner);
    w.U64(version);
    Receive(MsgType::kChainCollapse, w.Take());
  }

  // Messages sent so far of one type.
  std::vector<Message> Sent(MsgType type) const {
    std::vector<Message> out;
    for (const Message& m : out_.sent) {
      if (m.type == type) {
        out.push_back(m);
      }
    }
    return out;
  }

  bool Refused(const ProcessAddress& sender, const ProcessId& to) {
    return addressing_.RefuseSendToDead(sender, ProcessAddress{0, to}, MsgType::kUserBase);
  }

  KernelConfig config_;
  EventQueue queue_;
  ProcessTable table_;
  Rng rng_{7};
  StatSlab stats_;
  Tracer tracer_{kHere};
  KernelEvents events_{tracer_, queue_, kHere};
  CapturingOutput out_;
  Addressing addressing_{kHere, config_, queue_, table_, rng_, stats_, events_, out_};
};

TEST_F(AddressingTest, GaveUpMarkerRefusesTheNextSendLocally) {
  ProcessRecord& sender = Resident(ProcessId{kHere, 5});
  const ProcessAddress from{kHere, sender.pid};
  const ProcessId dead{0, 9};
  EXPECT_FALSE(Refused(from, dead));  // nothing known: the send goes out

  DeliverVerdict(sender, dead);
  ASSERT_TRUE(Refused(from, dead));
  EXPECT_EQ(stats_.Get(StatId::kSendsRefused), 1);
  const std::vector<Message> reports = Sent(MsgType::kNotDeliverable);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].receiver, from);
  ByteReader r(reports[0].payload);
  EXPECT_EQ(r.U16(), static_cast<std::uint16_t>(MsgType::kUserBase));
  EXPECT_EQ(r.Pid(), dead);
  EXPECT_TRUE(r.ok() && r.AtEnd());
}

TEST_F(AddressingTest, LaterNewsOverridesTheMarker) {
  ProcessRecord& sender = Resident(ProcessId{kHere, 5});
  const ProcessAddress from{kHere, sender.pid};
  const ProcessId moved{0, 9};
  DeliverVerdict(sender, moved);
  ASSERT_TRUE(addressing_.HasLocationTombstone(moved));

  // A same-version rumor naming a machine is still an advance over the marker.
  ReceiveGossip(moved, 2, 0);
  EXPECT_EQ(addressing_.LocationHint(moved), 2);
  EXPECT_FALSE(Refused(from, moved));

  DeliverVerdict(sender, moved);
  ASSERT_TRUE(Refused(from, moved));
  addressing_.NoteLocationAdvance(moved, 3, 4);
  EXPECT_EQ(addressing_.LocationHint(moved), 3);
  EXPECT_FALSE(Refused(from, moved));
  EXPECT_EQ(stats_.Get(StatId::kSendsRefused), 1);
}

TEST_F(AddressingTest, MarkerNeverOverridesATombstone) {
  ProcessRecord& sender = Resident(ProcessId{kHere, 5});
  const ProcessAddress from{kHere, sender.pid};
  const ProcessId dead{0, 9};
  ByteWriter w;
  w.Pid(dead);
  w.U16(kNoMachine);
  w.U64(kDead);
  Receive(MsgType::kLocationRegister, w.Take());
  DeliverVerdict(sender, dead);

  // Still a tombstone: sends take the normal bounce path, and a locate is
  // answered "dead", not "unknown".
  EXPECT_FALSE(Refused(from, dead));
  ByteWriter req;
  req.Pid(dead);
  Receive(MsgType::kLocateReq, req.Take());
  const std::vector<Message> answers = Sent(MsgType::kLocateResp);
  ASSERT_EQ(answers.size(), 1u);
  ByteReader r(answers[0].payload);
  EXPECT_EQ(r.Pid(), dead);
  EXPECT_EQ(r.U16(), kNoMachine);
  EXPECT_EQ(r.U64(), kDead);
}

TEST_F(AddressingTest, GossipCarriesNoMarkerAndNoEntryOlderThanGrace) {
  addressing_.HeardFrom(2);
  addressing_.HeardFrom(3);
  const ProcessId old_news{kHere, 1};
  addressing_.OnSpawned(old_news);  // registry only: never a pending rumor
  queue_.RunFor(config_.reclaim_grace_us + 1);

  ProcessRecord& sender = Resident(ProcessId{kHere, 5});
  const ProcessId marked{0, 9};
  DeliverVerdict(sender, marked);

  // Many flushes, each a fresh rumor plus anti-entropy from a random start.
  std::vector<ProcessId> rumored;
  for (std::uint32_t i = 0; i < 40; ++i) {
    queue_.RunFor(config_.gossip_interval_us);
    rumored.push_back(ProcessId{4, 100 + i});
    addressing_.NoteLocationAdvance(rumored.back(), 4, 1);
  }

  std::size_t flushes = 0;
  std::size_t anti_entropy = 0;
  for (const Message& gossip : Sent(MsgType::kGossip)) {
    ++flushes;
    ByteReader r(gossip.payload);
    const std::uint16_t count = r.U16();
    for (std::uint16_t i = 0; i < count; ++i) {
      const ProcessId pid = r.Pid();
      const MachineId where = r.U16();
      const std::uint64_t version = r.U64();
      EXPECT_NE(pid, marked) << "a locate-gave-up marker was gossiped";
      EXPECT_NE(pid, old_news) << "an entry older than the grace window was gossiped";
      EXPECT_TRUE(where != kNoMachine || version == kDead);
      anti_entropy += i > 0 ? 1 : 0;
    }
    EXPECT_TRUE(r.ok() && r.AtEnd());
  }
  EXPECT_GT(flushes, 20u);
  EXPECT_GT(anti_entropy, 0u);  // the scan ran, and found younger entries
  EXPECT_EQ(addressing_.LocationHint(old_news), kHere);
}

TEST_F(AddressingTest, ChainCollapseNeedsANewerVersionAndAnotherOwner) {
  const ProcessId pid{0, 9};
  Resident(pid, {0, 3});
  addressing_.OnDeparted(pid, 2, table_.Find(pid)->migration_history, {});
  const ProcessTable::Entry* entry = table_.FindEntry(pid);
  ASSERT_TRUE(entry != nullptr && entry->IsForwarding());
  ASSERT_EQ(entry->version, 3u);
  ASSERT_EQ(entry->forward_to, 2);

  ReceiveCollapse(pid, 4, 3);      // same version
  ReceiveCollapse(pid, 4, 2);      // older
  ReceiveCollapse(pid, kHere, 9);  // names this machine: a routing cycle
  EXPECT_EQ(entry->forward_to, 2);
  EXPECT_EQ(entry->version, 3u);
  EXPECT_EQ(stats_.Get(StatId::kChainCollapseApplied), 0);

  ReceiveCollapse(pid, 4, 4);
  EXPECT_EQ(entry->forward_to, 4);
  EXPECT_EQ(entry->version, 4u);
  EXPECT_EQ(stats_.Get(StatId::kChainCollapseApplied), 1);
}

}  // namespace
}  // namespace demos
