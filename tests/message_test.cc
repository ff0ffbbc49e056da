// Tests for message serialization and the wire format.

#include <gtest/gtest.h>

#include "src/kernel/message.h"

namespace demos {
namespace {

Message SampleMessage() {
  Message m;
  m.sender = ProcessAddress{1, {1, 10}};
  m.receiver = ProcessAddress{2, {0, 20}};
  m.flags = kLinkDeliverToKernel;
  m.type = MsgType::kMigrateRequest;
  m.payload = {1, 2, 3, 4};
  m.hop_count = 3;
  Link carried;
  carried.address = ProcessAddress{1, {1, 10}};
  carried.flags = kLinkReply;
  m.carried_links.push_back(carried);
  return m;
}

TEST(MessageTest, RoundTrip) {
  Message m = SampleMessage();
  Result<Message> back = Message::Deserialize(m.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->sender, m.sender);
  EXPECT_EQ(back->receiver, m.receiver);
  EXPECT_EQ(back->flags, m.flags);
  EXPECT_EQ(back->type, m.type);
  EXPECT_EQ(back->payload, m.payload);
  EXPECT_EQ(back->hop_count, m.hop_count);
  ASSERT_EQ(back->carried_links.size(), 1u);
  EXPECT_EQ(back->carried_links[0], m.carried_links[0]);
}

TEST(MessageTest, WireSizeMatchesSerialization) {
  Message m = SampleMessage();
  EXPECT_EQ(m.Serialize().size(), m.WireSize());
}

TEST(MessageTest, EmptyMessageIsHeaderOnly) {
  Message m;
  m.sender = KernelAddress(0);
  m.receiver = KernelAddress(1);
  m.type = MsgType::kCleanupDone;
  EXPECT_EQ(m.Serialize().size(), Message::WireHeaderSize());
}

TEST(MessageTest, TruncatedWireFails) {
  Message m = SampleMessage();
  Bytes wire = m.Serialize();
  wire.resize(wire.size() - 3);
  Result<Message> back = Message::Deserialize(wire);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(MessageTest, DeliverToKernelFlag) {
  Message m;
  EXPECT_FALSE(m.deliver_to_kernel());
  m.flags = kLinkDeliverToKernel;
  EXPECT_TRUE(m.deliver_to_kernel());
}

TEST(MessageTest, KernelAddressUsesLocalIdZero) {
  ProcessAddress k = KernelAddress(7);
  EXPECT_EQ(k.last_known_machine, 7);
  EXPECT_EQ(k.pid.creating_machine, 7);
  EXPECT_EQ(k.pid.local_id, 0u);
  EXPECT_TRUE(IsKernelPid(k.pid));
  EXPECT_FALSE(IsKernelPid(ProcessId{7, 1}));
}

TEST(MessageTest, AdminTypeClassification) {
  // Exactly the paper's 9-message control protocol counts as administrative.
  EXPECT_TRUE(IsMigrationAdminType(MsgType::kMigrateRequest));
  EXPECT_TRUE(IsMigrationAdminType(MsgType::kMigrateOffer));
  EXPECT_TRUE(IsMigrationAdminType(MsgType::kMigrateAccept));
  EXPECT_TRUE(IsMigrationAdminType(MsgType::kMigrateReject));
  EXPECT_TRUE(IsMigrationAdminType(MsgType::kMoveDataReq));
  EXPECT_TRUE(IsMigrationAdminType(MsgType::kTransferComplete));
  EXPECT_TRUE(IsMigrationAdminType(MsgType::kCleanupDone));
  EXPECT_TRUE(IsMigrationAdminType(MsgType::kMigrateDone));

  EXPECT_FALSE(IsMigrationAdminType(MsgType::kMoveDataPacket));
  EXPECT_FALSE(IsMigrationAdminType(MsgType::kMoveDataAck));
  EXPECT_FALSE(IsMigrationAdminType(MsgType::kLinkUpdate));
  EXPECT_FALSE(IsMigrationAdminType(MsgType::kUserBase));
}

TEST(MessageTest, TypeNamesAreDistinctive) {
  EXPECT_STREQ(MsgTypeName(MsgType::kMigrateOffer), "MIGRATE_OFFER");
  EXPECT_STREQ(MsgTypeName(MsgType::kLinkUpdate), "LINK_UPDATE");
  EXPECT_STREQ(MsgTypeName(static_cast<MsgType>(2000)), "USER");
}

TEST(MessageTest, ToStringMentionsEndpoints) {
  Message m = SampleMessage();
  const std::string s = m.ToString();
  EXPECT_NE(s.find("MIGRATE_REQUEST"), std::string::npos);
  EXPECT_NE(s.find("p1.10@m1"), std::string::npos);
}

TEST(MessageTest, ManyCarriedLinksRoundTrip) {
  Message m;
  m.sender = KernelAddress(0);
  m.receiver = ProcessAddress{1, {1, 1}};
  m.type = MsgType::kUserBase;
  for (std::uint32_t i = 0; i < 20; ++i) {
    Link l;
    l.address = ProcessAddress{0, {0, i + 1}};
    m.carried_links.push_back(l);
  }
  Result<Message> back = Message::Deserialize(m.Serialize());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->carried_links.size(), 20u);
  EXPECT_EQ(back->carried_links[19].address.pid.local_id, 20u);
}

TEST(MessageTest, ViaPathRoundTrips) {
  Message m = SampleMessage();
  m.RecordVia(3);
  m.RecordVia(7);
  Result<Message> back = Message::Deserialize(m.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->via_count, 2);
  EXPECT_EQ(back->via[0], 3);
  EXPECT_EQ(back->via[1], 7);
}

TEST(MessageTest, ViaPathSaturatesSlotsButKeepsTrueCount) {
  // A chain longer than kMaxViaSlots keeps the first hops (the ones worth
  // collapsing -- they are the stalest) and the true traversal count.
  Message m = SampleMessage();
  for (std::uint16_t i = 0; i < 6; ++i) {
    m.RecordVia(static_cast<MachineId>(i));
  }
  Result<Message> back = Message::Deserialize(m.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->via_count, 6);
  for (std::size_t i = 0; i < Message::kMaxViaSlots; ++i) {
    EXPECT_EQ(back->via[i], i);
  }
}

// --- Deserialize: in-place header decoding over a shared frame. ---

TEST(MessageDeserializeTest, PayloadAliasesTheFrameBuffer) {
  Message m = SampleMessage();
  PayloadRef frame(m.Serialize());
  Result<Message> back = Message::Deserialize(frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->sender, m.sender);
  EXPECT_EQ(back->receiver, m.receiver);
  EXPECT_EQ(back->type, m.type);
  EXPECT_EQ(back->hop_count, m.hop_count);
  EXPECT_TRUE(back->deliver_to_kernel());
  // The payload is a window into the frame, not a copy.
  EXPECT_EQ(back->payload, m.payload);
  EXPECT_TRUE(back->payload.SharesBufferWith(frame));
}

TEST(MessageDeserializeTest, PayloadIsZeroCopy) {
  Message m = SampleMessage();
  PayloadRef frame(m.Serialize());
  const std::uint64_t allocations = PayloadCounters::allocations.load();
  const std::uint64_t copied = PayloadCounters::copied_bytes.load();
  Result<Message> back = Message::Deserialize(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(PayloadCounters::allocations.load(), allocations);
  EXPECT_EQ(PayloadCounters::copied_bytes.load(), copied);
  EXPECT_EQ(back->payload, m.payload);
  EXPECT_TRUE(back->payload.SharesBufferWith(frame));
}

TEST(MessageDeserializeTest, TruncatedFrameReportsError) {
  Message m = SampleMessage();
  Bytes wire = m.Serialize();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
    Result<Message> back = Message::Deserialize(PayloadRef(std::move(truncated)));
    EXPECT_FALSE(back.ok()) << "cut at " << cut;
  }
}

// With no carried links the frame is the fixed header, the link count, the
// 4-byte payload length and the payload.
constexpr std::size_t kLinkCountOffset = 37;
constexpr std::size_t kPayloadLengthOffset = kLinkCountOffset + 1;

TEST(MessageDeserializeTest, LinkCountPastTheEndReportsError) {
  Message m = SampleMessage();
  m.carried_links.clear();
  Bytes wire = m.Serialize();
  ASSERT_EQ(wire.size(), Message::WireHeaderSize() + m.payload.size());
  ASSERT_EQ(wire[kLinkCountOffset], 0);
  for (const std::uint8_t links : {1, 255}) {
    Bytes bad = wire;
    bad[kLinkCountOffset] = links;
    EXPECT_FALSE(Message::Deserialize(PayloadRef(std::move(bad))).ok())
        << static_cast<int>(links) << " links";
  }
}

TEST(MessageDeserializeTest, PayloadLengthPastTheEndReportsError) {
  Message m = SampleMessage();
  m.carried_links.clear();
  Bytes wire = m.Serialize();
  ASSERT_EQ(wire[kPayloadLengthOffset], m.payload.size());
  for (const std::uint32_t len :
       {static_cast<std::uint32_t>(m.payload.size() + 1), std::uint32_t{0xFFFFFFFF}}) {
    Bytes bad = wire;
    for (std::size_t i = 0; i < 4; ++i) {
      bad[kPayloadLengthOffset + i] = static_cast<std::uint8_t>(len >> (8 * i));
    }
    EXPECT_FALSE(Message::Deserialize(PayloadRef(std::move(bad))).ok()) << len << " bytes";
  }
}

// --- Frame(): one allocation end to end, patched in place when forwarded. ---

TEST(MessageFrameTest, ReceivedMessageReframesWithoutReserializing) {
  // Emulate the pipeline: the sender's Message dies after framing, so the
  // receiver is the sole owner of the wire buffer (as after SimNetwork moves
  // the frame into the delivery handler).
  const std::uint8_t expected_hops = SampleMessage().hop_count + 1;
  PayloadRef frame;
  {
    Message m = SampleMessage();
    frame = m.Frame();
  }
  Result<Message> received = Message::Deserialize(std::move(frame));
  ASSERT_TRUE(received.ok());

  // Forwarding patches machine/hop in the existing frame: no new buffer, no
  // bytes copied.
  received->receiver.last_known_machine = 9;
  received->hop_count++;
  PayloadCounters::Reset();
  PayloadRef forwarded = received->Frame();
  EXPECT_EQ(PayloadCounters::allocations, 0u) << "re-frame must not re-serialize";
  EXPECT_EQ(PayloadCounters::copied_bytes, 0u) << "re-frame must patch in place";
  EXPECT_TRUE(forwarded.SharesBufferWith(received->payload));

  Result<Message> at_dest = Message::Deserialize(forwarded);
  ASSERT_TRUE(at_dest.ok());
  EXPECT_EQ(at_dest->receiver.last_known_machine, 9);
  EXPECT_EQ(at_dest->hop_count, expected_hops);
  EXPECT_EQ(at_dest->payload, SampleMessage().payload);
}

TEST(MessageFrameTest, PatchingCopiesWhenFrameIsShared) {
  Message m = SampleMessage();
  Result<Message> received = Message::Deserialize(m.Frame());
  ASSERT_TRUE(received.ok());
  PayloadRef retransmit_copy = received->Frame();  // e.g. held by ReliableTransport

  received->receiver.last_known_machine = 9;
  PayloadRef forwarded = received->Frame();
  // COW: the retransmit buffer must keep the original receiver machine.
  EXPECT_FALSE(forwarded.SharesBufferWith(retransmit_copy));
  Result<Message> old_frame = Message::Deserialize(retransmit_copy);
  ASSERT_TRUE(old_frame.ok());
  EXPECT_EQ(old_frame->receiver.last_known_machine, m.receiver.last_known_machine);
}

TEST(MessageFrameTest, ViaPathPatchesInPlaceOnForward) {
  // Forwarding appends a via hop; like receiver machine and hop count, it is
  // a hop-mutable header field patched into the owned frame, not a cause for
  // re-serialization.
  PayloadRef frame;
  {
    Message m = SampleMessage();
    frame = m.Frame();
  }
  Result<Message> received = Message::Deserialize(std::move(frame));
  ASSERT_TRUE(received.ok());
  received->RecordVia(4);
  PayloadCounters::Reset();
  PayloadRef forwarded = received->Frame();
  EXPECT_EQ(PayloadCounters::allocations, 0u);
  Result<Message> at_dest = Message::Deserialize(forwarded);
  ASSERT_TRUE(at_dest.ok());
  EXPECT_EQ(at_dest->via_count, 1);
  EXPECT_EQ(at_dest->via[0], 4);
}

TEST(MessageFrameTest, MutatedPayloadForcesReserialize) {
  Message m = SampleMessage();
  Result<Message> received = Message::Deserialize(m.Frame());
  ASSERT_TRUE(received.ok());
  received->payload = {9, 9, 9, 9, 9};
  Result<Message> back = Message::Deserialize(received->Frame());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->payload, (Bytes{9, 9, 9, 9, 9}));
}

}  // namespace
}  // namespace demos
