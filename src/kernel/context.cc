// Implementation of the process-visible kernel calls (Sec. 2.1).

#include "src/kernel/context_impl.h"

#include <utility>

namespace demos {

Link KernelContext::MakeLink(std::uint8_t flags, std::uint32_t data_offset,
                             std::uint32_t data_length) {
  Link link;
  link.address = self();
  link.flags = flags;
  link.data_offset = data_offset;
  link.data_length = data_length;
  return link;
}

Status KernelContext::SendOnLink(const Link& link, MsgType type, PayloadRef payload,
                                 CarriedLinks carry) {
  if (!link.address.valid()) {
    return InvalidArgumentError("send over an invalid link");
  }
  // Negative cache: if a locate already gave up on this pid, answer with the
  // same kNotDeliverable verdict locally instead of repeating the whole
  // bounce/locate cycle on the wire.
  if (kernel_.addressing().RefuseSendToDead(self(), link.address, type)) {
    return OkStatus();
  }
  if (link.address.last_known_machine != kernel_.machine()) {
    record_.remote_sends[link.address.last_known_machine]++;
  }
  Message msg;
  msg.sender = self();
  msg.receiver = link.address;
  msg.flags = link.flags;
  msg.type = type;
  msg.payload = std::move(payload);
  msg.carried_links = std::move(carry);
  kernel_.Transmit(std::move(msg));
  return OkStatus();
}

Status KernelContext::Send(LinkId link_id, MsgType type, PayloadRef payload,
                           CarriedLinks carry) {
  const Link* link = record_.links.Get(link_id);
  if (link == nullptr) {
    return NotFoundError("no link " + std::to_string(link_id) + " in table");
  }
  const Link link_copy = *link;
  // Reply links are single-use (Sec. 2.4): consume on send.
  if (link_copy.reply_link()) {
    (void)record_.links.Remove(link_id);
  }
  return SendOnLink(link_copy, type, std::move(payload), std::move(carry));
}

Status KernelContext::Reply(const Message& request, MsgType type, PayloadRef payload,
                            CarriedLinks carry) {
  if (request.carried_links.empty()) {
    return InvalidArgumentError("request carried no reply link");
  }
  return SendOnLink(request.carried_links[0], type, std::move(payload), std::move(carry));
}

Status KernelContext::MoveDataTo(LinkId link_id, std::uint32_t area_offset, PayloadRef data,
                                 std::uint64_t cookie) {
  const Link* link = record_.links.Get(link_id);
  if (link == nullptr) {
    return NotFoundError("no link " + std::to_string(link_id) + " in table");
  }
  if (!link->data_write()) {
    return PermissionDeniedError("link lacks data-write access");
  }
  if (std::uint64_t{area_offset} + data.size() > link->data_length) {
    return InvalidArgumentError("write exceeds the link's data window");
  }

  const std::uint32_t transfer_id = kernel_.AllocateTransferId();
  DataPacket prototype;
  prototype.mode = StreamMode::kPush;
  prototype.transfer_id = transfer_id;
  prototype.area_base = link->data_offset + area_offset;
  prototype.window_offset = link->data_offset;
  prototype.window_length = link->data_length;
  prototype.link_flags = link->flags;
  prototype.instigator = self();
  prototype.cookie = cookie;
  // Push packets travel DELIVERTOKERNEL so they chase the target process
  // through any forwarding addresses (Sec. 2.2).
  kernel_.StreamBytes(data, prototype, link->address, kLinkDeliverToKernel);

  OutgoingTransfer& out = kernel_.outgoing_transfers_[transfer_id];
  out.purpose = OutgoingTransfer::Purpose::kAreaWrite;
  out.instigator = self();
  out.cookie = cookie;
  return OkStatus();
}

Status KernelContext::MoveDataFrom(LinkId link_id, std::uint32_t area_offset,
                                   std::uint32_t length, std::uint64_t cookie) {
  const Link* link = record_.links.Get(link_id);
  if (link == nullptr) {
    return NotFoundError("no link " + std::to_string(link_id) + " in table");
  }
  if (!link->data_read()) {
    return PermissionDeniedError("link lacks data-read access");
  }
  if (std::uint64_t{area_offset} + length > link->data_length) {
    return InvalidArgumentError("read exceeds the link's data window");
  }

  const std::uint32_t transfer_id = kernel_.AllocateTransferId();
  IncomingPull pull;
  pull.purpose = IncomingPull::Purpose::kAreaRead;
  pull.instigator = self();
  pull.cookie = cookie;
  kernel_.incoming_pulls_.emplace(transfer_id, std::move(pull));

  ReadAreaRequest req;
  req.transfer_id = transfer_id;
  req.area_offset = area_offset;
  req.length = length;
  req.window_offset = link->data_offset;
  req.window_length = link->data_length;
  req.link_flags = link->flags;
  req.reply_machine = kernel_.machine();
  req.instigator = self();
  req.cookie = cookie;

  Message announce;
  announce.sender = self();
  announce.receiver = link->address;
  announce.flags = kLinkDeliverToKernel;
  announce.type = MsgType::kReadDataArea;
  announce.payload = req.Encode();
  kernel_.Transmit(std::move(announce));
  return OkStatus();
}

void KernelContext::SetTimer(SimDuration delay, std::uint64_t cookie) {
  TimerEntry entry;
  entry.due = now() + delay;
  entry.cookie = cookie;
  record_.timers.push_back(entry);
  kernel_.ArmTimer(record_, entry);
}

void KernelContext::RequestMigration(MachineId destination) {
  // "One more piece of information the process manager can use" (Sec. 3.1):
  // here the process addresses the request directly to its own kernel.
  (void)kernel_.StartMigration(record_.pid, destination, self());
}

}  // namespace demos
