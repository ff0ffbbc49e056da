#include "src/sys/command_interpreter.h"

#include <memory>
#include <sstream>

#include "src/base/log.h"
#include "src/sys/process_manager.h"

namespace demos {
namespace {
constexpr std::uint64_t kWaitCookie = 0xC1;

std::vector<std::string> Tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}
}  // namespace

void CommandInterpreterProgram::OnMessage(Context& ctx, const Message& msg) {
  switch (TypeCode(msg.type)) {
    case TypeCode(kCiRun): {
      ByteReader r(msg.payload);
      const std::string script = r.Str();
      script_.clear();
      std::istringstream in(script);
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty()) {
          script_.push_back(line);
        }
      }
      pc_ = 0;
      done_ = false;
      // Find the process manager before running.
      ByteWriter w;
      w.Str(kNameProcessManager);
      (void)ctx.Send(kSwitchboardSlot, kSbLookup, w.Take(), {ctx.MakeLink(kLinkReply)});
      return;
    }
    case TypeCode(kSbLookupReply): {
      ByteReader r(msg.payload);
      const auto status = static_cast<StatusCode>(r.U8());
      if (status == StatusCode::kOk && !msg.carried_links.empty()) {
        pm_slot_ = ctx.AddLink(msg.carried_links[0]);
      }
      Step(ctx);
      return;
    }
    case TypeCode(kPmCreateReply): {
      ByteReader r(msg.payload);
      (void)r.U64();  // cookie
      const auto status = static_cast<StatusCode>(r.U8());
      const ProcessAddress created = r.Address();
      if (status == StatusCode::kOk && !pending_alias_.empty()) {
        aliases_[pending_alias_] = created;
      }
      pending_alias_.clear();
      waiting_reply_ = false;
      Advance(ctx);
      return;
    }
    case TypeCode(kPmMigrateReply): {
      waiting_reply_ = false;
      Advance(ctx);
      return;
    }
    default:
      return;
  }
}

void CommandInterpreterProgram::OnTimer(Context& ctx, std::uint64_t cookie) {
  if (cookie == kWaitCookie) {
    waiting_reply_ = false;
    Advance(ctx);
  }
}

void CommandInterpreterProgram::Advance(Context& ctx) {
  ++pc_;
  Step(ctx);
}

void CommandInterpreterProgram::Step(Context& ctx) {
  while (!waiting_reply_ && pc_ < script_.size()) {
    RunCommand(ctx, script_[pc_]);
    if (waiting_reply_) {
      return;  // resumed by a reply or timer
    }
    ++pc_;
  }
  if (pc_ >= script_.size()) {
    done_ = true;
  }
}

void CommandInterpreterProgram::RunCommand(Context& ctx, const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) {
    return;
  }
  const std::string& cmd = tokens[0];

  if (cmd == "print") {
    std::string text;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      text += (i > 1 ? " " : "") + tokens[i];
    }
    output_.push_back(text);
    DEMOS_LOG(kInfo, "ci") << text;
    return;
  }
  if (cmd == "wait" && tokens.size() >= 2) {
    waiting_reply_ = true;
    ctx.SetTimer(static_cast<SimDuration>(std::stoull(tokens[1])), kWaitCookie);
    return;
  }
  if (cmd == "spawn" && tokens.size() >= 4 && pm_slot_ != kNoLink) {
    pending_alias_ = tokens[1];
    const MachineId machine = tokens[3] == "any"
                                  ? kNoMachine
                                  : static_cast<MachineId>(std::stoul(tokens[3]));
    ByteWriter w;
    w.U64(0);
    w.Str(tokens[2]);
    w.U16(machine);
    w.U32(tokens.size() > 4 ? std::stoul(tokens[4]) : 4096);
    w.U32(tokens.size() > 5 ? std::stoul(tokens[5]) : 4096);
    w.U32(tokens.size() > 6 ? std::stoul(tokens[6]) : 2048);
    waiting_reply_ = true;
    (void)ctx.Send(pm_slot_, kPmCreate, w.Take(), {ctx.MakeLink(kLinkReply)});
    return;
  }
  if (cmd == "migrate" && tokens.size() >= 3 && pm_slot_ != kNoLink) {
    auto it = aliases_.find(tokens[1]);
    if (it == aliases_.end()) {
      output_.push_back("error: unknown alias " + tokens[1]);
      return;
    }
    ByteWriter w;
    w.Pid(it->second.pid);
    w.U16(kNoMachine);  // let the manager use its inventory
    w.U16(static_cast<MachineId>(std::stoul(tokens[2])));
    waiting_reply_ = true;
    (void)ctx.Send(pm_slot_, kPmMigrate, w.Take(), {ctx.MakeLink(kLinkReply)});
    return;
  }
  if (cmd == "send" && tokens.size() >= 3) {
    auto it = aliases_.find(tokens[1]);
    if (it == aliases_.end()) {
      output_.push_back("error: unknown alias " + tokens[1]);
      return;
    }
    Bytes payload;
    for (std::size_t i = 3; i < tokens.size(); ++i) {
      payload.push_back(static_cast<std::uint8_t>(std::stoul(tokens[i])));
    }
    Link target;
    target.address = it->second;
    (void)ctx.SendOnLink(target, static_cast<MsgType>(std::stoul(tokens[2])),
                         std::move(payload));
    return;
  }
  if (cmd == "evacuate" && tokens.size() >= 2 && pm_slot_ != kNoLink) {
    ByteWriter w;
    w.U16(static_cast<MachineId>(std::stoul(tokens[1])));
    (void)ctx.Send(pm_slot_, kPmEvacuate, w.Take());
    return;
  }
  output_.push_back("error: bad command '" + line + "'");
}

Bytes CommandInterpreterProgram::SaveState() const {
  ByteWriter w;
  w.U32(static_cast<std::uint32_t>(script_.size()));
  for (const std::string& line : script_) {
    w.Str(line);
  }
  w.U64(pc_);
  w.U8(waiting_reply_ ? 1 : 0);
  w.U8(done_ ? 1 : 0);
  w.U32(static_cast<std::uint32_t>(aliases_.size()));
  for (const auto& [alias, addr] : aliases_) {
    w.Str(alias);
    w.Address(addr);
  }
  w.Str(pending_alias_);
  w.U32(static_cast<std::uint32_t>(output_.size()));
  for (const std::string& line : output_) {
    w.Str(line);
  }
  w.U32(pm_slot_);
  return w.Take();
}

void CommandInterpreterProgram::RestoreState(const Bytes& state) {
  ByteReader r(state);
  script_.clear();
  const std::uint32_t n_lines = r.U32();
  for (std::uint32_t i = 0; i < n_lines && r.ok(); ++i) {
    script_.push_back(r.Str());
  }
  pc_ = r.U64();
  waiting_reply_ = r.U8() != 0;
  done_ = r.U8() != 0;
  aliases_.clear();
  const std::uint32_t n_aliases = r.U32();
  for (std::uint32_t i = 0; i < n_aliases && r.ok(); ++i) {
    const std::string alias = r.Str();
    aliases_[alias] = r.Address();
  }
  pending_alias_ = r.Str();
  output_.clear();
  const std::uint32_t n_output = r.U32();
  for (std::uint32_t i = 0; i < n_output && r.ok(); ++i) {
    output_.push_back(r.Str());
  }
  pm_slot_ = r.U32();
}

void RegisterCommandInterpreterProgram() {
  static const bool registered = [] {
    ProgramRegistry::Instance().Register(
        "command_interpreter", [] { return std::make_unique<CommandInterpreterProgram>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace demos
