#include "src/workload/programs.h"

#include <algorithm>
#include <memory>

namespace demos {
namespace {
constexpr std::uint64_t kTickCookie = 0x71CC;
constexpr std::uint64_t kSendCookie = 0x53D;

// Reader over the first N bytes of the data segment (where every program
// here keeps its config), copied into the caller's `buf` without allocating:
// handlers re-read their config on each message.  An out-of-range read gives
// an empty reader whose fields decode as zero, so magic checks fail.
template <std::size_t N>
ByteReader ReadConfig(const Context& ctx, std::uint8_t (&buf)[N]) {
  return ByteReader(buf, ctx.ReadDataInto(0, buf, N) ? N : 0);
}
}  // namespace

// ---------------------------------------------------------------------------
// CpuBoundProgram.
// ---------------------------------------------------------------------------

void CpuBoundProgram::OnStart(Context& ctx) {
  std::uint8_t buf[4];
  ByteReader r = ReadConfig(ctx, buf);
  if (r.U32() == kCpuBoundMagic) {
    ctx.SetTimer(1, kTickCookie);
  }
}

void CpuBoundProgram::OnTimer(Context& ctx, std::uint64_t cookie) {
  if (cookie != kTickCookie) {
    return;
  }
  std::uint8_t buf[20];
  ByteReader r = ReadConfig(ctx, buf);
  if (r.U32() != kCpuBoundMagic) {
    return;
  }
  const std::uint32_t quantum = r.U32();
  const std::uint32_t period = r.U32();
  const std::uint64_t total = r.U64();

  ctx.ChargeCpu(quantum);
  progress_us_ += quantum;
  ByteWriter w;
  w.U64(progress_us_);
  (void)ctx.WriteData(32, w.bytes());

  if (progress_us_ >= total) {
    ByteWriter done;
    done.U64(1);
    done.U64(ctx.now());
    (void)ctx.WriteData(40, done.bytes());
    return;
  }
  ctx.SetTimer(std::max<std::uint32_t>(1, period), kTickCookie);
}

Bytes CpuBoundProgram::SaveState() const {
  ByteWriter w;
  w.U64(progress_us_);
  return w.Take();
}

void CpuBoundProgram::RestoreState(const Bytes& state) {
  ByteReader r(state);
  progress_us_ = r.U64();
}

// ---------------------------------------------------------------------------
// RpcServerProgram.
// ---------------------------------------------------------------------------

void RpcServerProgram::OnMessage(Context& ctx, const Message& msg) {
  if (msg.type == kAttachTarget && !msg.payload.empty()) {
    cost_us_ = SimDuration{msg.payload[0]} * 10;
    return;
  }
  if (msg.type != kRpcRequest) {
    return;
  }
  ctx.ChargeCpu(cost_us_);
  (void)ctx.Reply(msg, kRpcResponse, msg.payload);
}

Bytes RpcServerProgram::SaveState() const {
  ByteWriter w;
  w.U64(cost_us_);
  return w.Take();
}

void RpcServerProgram::RestoreState(const Bytes& state) {
  ByteReader r(state);
  cost_us_ = r.U64();
}

// ---------------------------------------------------------------------------
// RpcClientProgram.
// ---------------------------------------------------------------------------

void RpcClientProgram::OnStart(Context& ctx) {
  // Wait for the target link (kAttachTarget) before sending.
}

void RpcClientProgram::OnMessage(Context& ctx, const Message& msg) {
  if (msg.type == kAttachTarget) {
    if (!msg.carried_links.empty()) {
      if (target_slot_ != kNoLink) {
        (void)ctx.RemoveLink(target_slot_);
      }
      target_slot_ = ctx.AddLink(msg.carried_links[0]);
      SendNext(ctx);
    }
    return;
  }
  if (msg.type != kRpcResponse) {
    return;
  }
  samples_.push_back(RpcSample{last_sent_at_, ctx.now() - last_sent_at_});
  ByteWriter w;
  w.U64(samples_.size());
  (void)ctx.WriteData(32, w.bytes());

  std::uint8_t buf[16];
  ByteReader r = ReadConfig(ctx, buf);
  if (r.U32() != kRpcClientMagic) {
    return;
  }
  const std::uint32_t count = r.U32();
  const std::uint32_t period = r.U32();
  if (sent_ >= count) {
    return;  // series complete
  }
  ctx.SetTimer(std::max<std::uint32_t>(1, period), kSendCookie);
}

void RpcClientProgram::OnTimer(Context& ctx, std::uint64_t cookie) {
  if (cookie == kSendCookie) {
    SendNext(ctx);
  }
}

void RpcClientProgram::SendNext(Context& ctx) {
  if (target_slot_ == kNoLink) {
    return;
  }
  std::uint8_t buf[16];
  ByteReader r = ReadConfig(ctx, buf);
  if (r.U32() != kRpcClientMagic) {
    return;
  }
  const std::uint32_t count = r.U32();
  (void)r.U32();
  const std::uint32_t payload_bytes = r.U32();
  if (sent_ >= count) {
    return;
  }
  ++sent_;
  last_sent_at_ = ctx.now();
  (void)ctx.Send(target_slot_, kRpcRequest, Bytes(payload_bytes, 0xA5),
                 {ctx.MakeLink(kLinkReply)});
}

Bytes RpcClientProgram::SaveState() const {
  ByteWriter w;
  w.U32(target_slot_);
  w.U32(sent_);
  w.U64(last_sent_at_);
  w.U32(static_cast<std::uint32_t>(samples_.size()));
  for (const RpcSample& sample : samples_) {
    w.U64(sample.sent_at);
    w.U64(sample.latency_us);
  }
  return w.Take();
}

void RpcClientProgram::RestoreState(const Bytes& state) {
  ByteReader r(state);
  target_slot_ = r.U32();
  sent_ = r.U32();
  last_sent_at_ = r.U64();
  samples_.clear();
  const std::uint32_t n = r.U32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    RpcSample sample;
    sample.sent_at = r.U64();
    sample.latency_us = r.U64();
    samples_.push_back(sample);
  }
}

// ---------------------------------------------------------------------------
// ChaosPingerProgram.
// ---------------------------------------------------------------------------

void ChaosPingerProgram::OnStart(Context& ctx) {
  std::uint8_t buf[12];
  ByteReader r = ReadConfig(ctx, buf);
  if (r.U32() != kChaosPingerMagic) {
    return;
  }
  const std::uint32_t ticks = r.U32();
  const std::uint32_t period = r.U32();
  if (ticks > 0) {
    ctx.SetTimer(std::max<std::uint32_t>(1, period), kTickCookie);
  }
}

void ChaosPingerProgram::OnMessage(Context& ctx, const Message& msg) {
  if (msg.type == kAttachTarget) {
    if (!msg.carried_links.empty()) {
      targets_.push_back(ctx.AddLink(msg.carried_links[0]));
    }
    return;
  }
  if (msg.type == kChaosProbe) {
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      SendPing(ctx, i);
    }
    return;
  }
  if (msg.type == kRpcResponse) {
    ++responses_;
    ByteWriter w;
    w.U64(responses_);
    (void)ctx.WriteData(32, w.bytes());
  }
}

void ChaosPingerProgram::OnTimer(Context& ctx, std::uint64_t cookie) {
  if (cookie != kTickCookie) {
    return;
  }
  std::uint8_t buf[12];
  ByteReader r = ReadConfig(ctx, buf);
  if (r.U32() != kChaosPingerMagic) {
    return;
  }
  const std::uint32_t ticks = r.U32();
  const std::uint32_t period = r.U32();
  if (sent_ < ticks) {
    // A tick with no targets attached yet still counts, so the series always
    // terminates even if no kAttachTarget ever arrives.
    if (!targets_.empty()) {
      SendPing(ctx, static_cast<std::size_t>(sent_ % targets_.size()));
    }
    ++sent_;
  }
  if (sent_ < ticks) {
    ctx.SetTimer(std::max<std::uint32_t>(1, period), kTickCookie);
  }
}

void ChaosPingerProgram::SendPing(Context& ctx, std::size_t index) {
  ByteWriter w;
  w.U64(sent_);
  (void)ctx.Send(targets_[index], kRpcRequest, w.Take(), {ctx.MakeLink(kLinkReply)});
}

Bytes ChaosPingerProgram::SaveState() const {
  ByteWriter w;
  w.U32(static_cast<std::uint32_t>(targets_.size()));
  for (const LinkId target : targets_) {
    w.U32(target);
  }
  w.U64(sent_);
  w.U64(responses_);
  return w.Take();
}

void ChaosPingerProgram::RestoreState(const Bytes& state) {
  ByteReader r(state);
  targets_.clear();
  const std::uint32_t n = r.U32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    targets_.push_back(r.U32());
  }
  sent_ = r.U64();
  responses_ = r.U64();
}

// ---------------------------------------------------------------------------
// TokenRingProgram.
// ---------------------------------------------------------------------------

std::optional<TokenRingConfig> TokenRingProgram::LoadConfig(Context& ctx) const {
  std::uint8_t buf[16];
  ByteReader r = ReadConfig(ctx, buf);
  if (r.U32() != kTokenRingMagic) {
    return std::nullopt;
  }
  TokenRingConfig config;
  config.machines = r.U32();
  config.migrate_after_tokens = r.U32();
  config.migrate_count = r.U32();
  return config;
}

void TokenRingProgram::MaybeHop(Context& ctx, const TokenRingConfig& config) {
  if (migrations_started_ >= config.migrate_count || config.machines < 2) {
    return;
  }
  ++migrations_started_;
  ctx.RequestMigration(
      static_cast<MachineId>((ctx.machine() + 1) % static_cast<MachineId>(config.machines)));
}

void TokenRingProgram::OnMessage(Context& ctx, const Message& msg) {
  if (msg.type == kAttachTarget) {
    if (!msg.carried_links.empty()) {
      if (target_slot_ != kNoLink) {
        (void)ctx.RemoveLink(target_slot_);
      }
      target_slot_ = ctx.AddLink(msg.carried_links[0]);
    }
    return;
  }
  if (msg.type == kTokenKick) {
    const std::optional<TokenRingConfig> config = LoadConfig(ctx);
    if (!config) {
      return;
    }
    ByteReader r(msg.payload);
    const std::uint32_t count = r.U32();
    const std::uint32_t hops = r.U32();
    if (target_slot_ != kNoLink) {
      for (std::uint32_t i = 0; i < count; ++i) {
        ByteWriter w;
        w.U32(hops);
        (void)ctx.Send(target_slot_, kTokenPass, w.Take());
      }
    }
    // Hopper mode: the migration chain starts on the first kick instead of a
    // token threshold.
    if (config->migrate_after_tokens == 0 && migrations_started_ == 0) {
      MaybeHop(ctx, *config);
    }
    return;
  }
  if (msg.type == kTokenPass) {
    const std::optional<TokenRingConfig> config = LoadConfig(ctx);
    ++tokens_seen_;
    ByteReader r(msg.payload);
    const std::uint32_t hops = r.U32();
    if (hops > 0 && target_slot_ != kNoLink) {
      ByteWriter w;
      w.U32(hops - 1);
      (void)ctx.Send(target_slot_, kTokenPass, w.Take());
    }
    // Exactly-once chain start: tokens_seen_ only passes the threshold once.
    if (config && config->migrate_after_tokens != 0 &&
        tokens_seen_ == config->migrate_after_tokens) {
      MaybeHop(ctx, *config);
    }
    return;
  }
  if (msg.type == MsgType::kMigrateDone) {
    const std::optional<TokenRingConfig> config = LoadConfig(ctx);
    if (!config) {
      return;
    }
    ByteReader r(msg.payload);
    const ProcessId pid = r.Pid();
    const auto status = static_cast<StatusCode>(r.U8());
    if (pid == ctx.self().pid && status == StatusCode::kOk && migrations_started_ > 0) {
      // Chain the next self-migration off the completion of the last one;
      // this serialization is what makes the final home deterministic.
      MaybeHop(ctx, *config);
    }
    return;
  }
}

Bytes TokenRingProgram::SaveState() const {
  ByteWriter w;
  w.U32(target_slot_);
  w.U64(tokens_seen_);
  w.U32(migrations_started_);
  return w.Take();
}

void TokenRingProgram::RestoreState(const Bytes& state) {
  ByteReader r(state);
  target_slot_ = r.U32();
  tokens_seen_ = r.U64();
  migrations_started_ = r.U32();
}

void RegisterWorkloadPrograms() {
  static const bool registered = [] {
    auto& registry = ProgramRegistry::Instance();
    registry.Register("cpu_bound", [] { return std::make_unique<CpuBoundProgram>(); });
    registry.Register("rpc_server", [] { return std::make_unique<RpcServerProgram>(); });
    registry.Register("rpc_client", [] { return std::make_unique<RpcClientProgram>(); });
    registry.Register("chaos_pinger", [] { return std::make_unique<ChaosPingerProgram>(); });
    registry.Register("token_ring", [] { return std::make_unique<TokenRingProgram>(); });
    // Generic utility programs used by benches and examples.  Tests register
    // richer variants under the same names first; don't clobber them.
    if (!registry.Has("idle")) {
      registry.Register("idle", [] {
        class Idle : public Program {};
        return std::make_unique<Idle>();
      });
    }
    if (!registry.Has("sink")) {
      registry.Register("sink", [] {
        class Sink : public Program {};  // absorbs everything silently
        return std::make_unique<Sink>();
      });
    }
    if (registry.Has("counter")) {
      return true;
    }
    registry.Register("counter", [] {
      // Counts kIncrement (1003) messages at data[0..8).
      class Counter : public Program {
        void OnMessage(Context& ctx, const Message& msg) override {
          if (msg.type != static_cast<MsgType>(1003)) {
            return;
          }
          std::uint8_t buf[8];
          ByteReader r = ReadConfig(ctx, buf);
          ByteWriter w;
          w.U64(r.U64() + 1);
          (void)ctx.WriteData(0, w.bytes());
        }
      };
      return std::make_unique<Counter>();
    });
    return true;
  }();
  (void)registered;
}

}  // namespace demos
