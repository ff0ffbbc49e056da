#include "src/sys/switchboard.h"

#include <memory>

#include "src/base/log.h"

namespace demos {

void SwitchboardProgram::OnMessage(Context& ctx, const Message& msg) {
  switch (TypeCode(msg.type)) {
    case TypeCode(kSbRegister): {
      ByteReader r(msg.payload);
      const std::string name = r.Str();
      if (msg.carried_links.empty() || !r.ok()) {
        return;
      }
      auto it = directory_.find(name);
      if (it != directory_.end()) {
        (void)ctx.RemoveLink(it->second);  // re-registration replaces
      }
      directory_[name] = ctx.AddLink(msg.carried_links[0]);
      DEMOS_LOG(kDebug, "switchboard") << "registered '" << name << "'";
      return;
    }
    case TypeCode(kSbLookup): {
      ByteReader r(msg.payload);
      const std::string name = r.Str();
      ByteWriter reply;
      auto it = directory_.find(name);
      const Link* link = it == directory_.end() ? nullptr : ctx.GetLink(it->second);
      reply.U8(static_cast<std::uint8_t>(link != nullptr ? StatusCode::kOk
                                                         : StatusCode::kNotFound));
      reply.Str(name);
      CarriedLinks carry;
      if (link != nullptr) {
        carry.push_back(*link);  // duplicate the stored link into the reply
      }
      (void)ctx.Reply(msg, kSbLookupReply, reply.Take(), std::move(carry));
      return;
    }
    case TypeCode(kSbList): {
      ByteWriter reply;
      reply.U32(static_cast<std::uint32_t>(directory_.size()));
      for (const auto& [name, link] : directory_) {
        reply.Str(name);
      }
      (void)ctx.Reply(msg, kSbListReply, reply.Take());
      return;
    }
    default:
      return;
  }
}

Bytes SwitchboardProgram::SaveState() const {
  // The links themselves travel in the link table (swappable state); only the
  // name -> slot map needs saving.
  ByteWriter w;
  w.U32(static_cast<std::uint32_t>(directory_.size()));
  for (const auto& [name, slot] : directory_) {
    w.Str(name);
    w.U32(slot);
  }
  return w.Take();
}

void SwitchboardProgram::RestoreState(const Bytes& state) {
  directory_.clear();
  ByteReader r(state);
  const std::uint32_t n = r.U32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const std::string name = r.Str();
    const LinkId slot = r.U32();
    directory_[name] = slot;
  }
}

void RegisterSwitchboardProgram() {
  static const bool registered = [] {
    ProgramRegistry::Instance().Register(
        "switchboard", [] { return std::make_unique<SwitchboardProgram>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace demos
