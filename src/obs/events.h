// The event catalog: one row per moment the kernel, the network layers or
// the parallel runtime logs, and the one record (EventRecord) both sinks
// store.  A record names its row by FrEvent; the export name, category and
// the two operand labels the dumps print are read from the row only at
// export, so the tracer and the flight recorder cannot drift apart.
//
// Kernel and network rows:  X(Id, "export name", category, sinks, "a", "b")
//   export name  the trace event name, also the flight-dump name;
//   category     the tracer track: Migration, Message or Net;
//   sinks        Trace (tracer only), Ring (flight ring only) or Both;
//   "a", "b"     labels of the two operands (EventRecord a/b, arg0/arg1
//                in the Chrome trace); "" marks an operand the row never sets.
// One call, EmitEvent<FrEvent::kId>(...) in trace.h, feeds both sinks.
//
// Runtime rows (mailbox, drain, park, quiescence, LBTS, harness) are written
// straight into the flight ring by src/run and src/check:
//   R(Id, "export name", "a", "b")
//
// Append-only within each list; docs/OBSERVABILITY.md lists every row.

#ifndef DEMOS_OBS_EVENTS_H_
#define DEMOS_OBS_EVENTS_H_

#include <cstddef>
#include <cstdint>

#include "src/base/ids.h"

// clang-format off
#define DEMOS_EVENT_CATALOG(X)                                                                     \
  /* Migration protocol, one or more per Sec. 3.1 step (docs/PROTOCOL.md). */                      \
  X(RequestSent,          "request_sent",               Migration, Trace, "host", "")              \
  X(MigrationBegin,       "migration_begin",            Migration, Both,  "dest", "")              \
  X(OfferSent,            "offer_sent",                 Migration, Trace, "dest", "bytes")         \
  X(OfferReceived,        "offer_received",             Migration, Both,  "source", "bytes")       \
  X(AcceptSent,           "accept_sent",                Migration, Trace, "", "")                  \
  X(AcceptReceived,       "accept_received",            Migration, Both,  "", "")                  \
  X(RejectSent,           "reject_sent",                Migration, Trace, "status", "")            \
  X(PullRequested,        "pull_requested",             Migration, Trace, "section", "")           \
  X(SectionStreamed,      "section_streamed",           Migration, Trace, "section", "bytes")      \
  X(SectionReceived,      "section_received",           Migration, Trace, "section", "bytes")      \
  X(TransferDoneSent,     "transfer_complete_sent",     Migration, Trace, "", "")                  \
  X(TransferDoneReceived, "transfer_complete_received", Migration, Both,  "", "")                  \
  X(PendingForwarded,     "pending_forwarded",          Migration, Trace, "count", "")             \
  X(ForwardingInstalled,  "forwarding_address_installed", Migration, Trace, "dest", "")            \
  X(CleanupSent,          "cleanup_done_sent",          Migration, Trace, "", "")                  \
  X(CleanupReceived,      "cleanup_done_received",      Migration, Ring,  "", "")                  \
  X(Restarted,            "restarted",                  Migration, Both,  "state", "")             \
  X(MigrationAborted,     "migration_aborted",          Migration, Both,  "status", "")            \
  /* Failure paths: watchdog deadlines and dead-peer recovery. */                                  \
  X(WatchdogTimeout,      "watchdog_timeout",           Migration, Both,  "deadline_us", "peer")   \
  X(DestReaped,           "dest_reaped",                Migration, Both,  "source", "")            \
  X(DestAdopted,          "dest_adopted",               Migration, Both,  "source", "")            \
  X(PeerSuspected,        "peer_suspected",             Migration, Both,  "peer", "until_us")      \
  X(CancelSent,           "cancel_sent",                Migration, Both,  "dest", "")              \
  X(CancelReceived,       "cancel_received",            Migration, Both,  "source", "")            \
  /* Message lifecycle, correlated by Message::trace_id. */                                        \
  X(MsgSend,              "send",                       Message,   Trace, "type", "wire_bytes")    \
  X(MsgForward,           "forward",                    Message,   Trace, "hops", "next")          \
  X(MsgBounce,            "bounce",                     Message,   Trace, "type", "")              \
  X(MsgDeliver,           "deliver",                    Message,   Trace, "hops", "")              \
  X(LinkUpdateSent,       "link_update_sent",           Message,   Trace, "", "new_machine")       \
  X(LinkUpdateApplied,    "link_update_applied",        Message,   Trace, "links", "")             \
  /* Churn-proof addressing: chain collapse, forwarding GC, gossip, locate. */                     \
  X(ChainCollapse,        "chain_collapse",             Message,   Ring,  "via", "")               \
  X(FwdReclaim,           "fwd_reclaim",                Message,   Ring,  "records", "tombstones") \
  X(Gossip,               "gossip",                     Message,   Ring,  "peer", "triples")       \
  X(LocateRetry,          "locate_retry",               Message,   Ring,  "target", "attempt")     \
  /* Network layers. */                                                                            \
  X(PacketDropped,        "packet_dropped",             Net,       Trace, "src", "dst")            \
  X(PacketDuplicated,     "packet_duplicated",          Net,       Trace, "src", "dst")            \
  X(Retransmit,           "retransmit",                 Net,       Both,  "dst", "seq")            \
  X(GiveUp,               "give_up",                    Net,       Both,  "dst", "seq")

#define DEMOS_RUNTIME_EVENT_CATALOG(R)                       \
  /* Mailbox / router; a drain handles up to kDrainBatch. */ \
  R(MailboxPush,    "mailbox_push",    "dst_shard", "")      \
  R(DrainBatch,     "drain_batch",     "frames", "")         \
  R(SpillEnter,     "spill_enter",     "rescued", "")        \
  R(SpillExit,      "spill_exit",      "consumed", "")       \
  R(Backpressure,   "backpressure",    "dst_shard", "spins") \
  R(ParkBegin,      "park_begin",      "", "")               \
  R(ParkEnd,        "park_end",        "woken", "")          \
  /* Scheduling; lbts_window goes to the window slot. */     \
  R(PostedTask,     "posted_task",     "tasks", "")          \
  R(LbtsWindow,     "lbts_window",     "epoch", "bound_us")  \
  /* Harness markers. */                                     \
  R(InvariantFail,  "invariant_fail",  "violations", "")
// clang-format on

namespace demos {

enum class EventCategory : std::uint8_t { kMigration, kMessage, kNet, kRuntime };
enum class EventSinks : std::uint8_t { kTrace = 1, kRing = 2, kBoth = 3 };

// Every catalog row, kernel/network rows first, then the runtime rows.
enum class FrEvent : std::uint16_t {
  kNone = 0,
#define DEMOS_EVENT_ENUM(id, ...) k##id,
  DEMOS_EVENT_CATALOG(DEMOS_EVENT_ENUM) DEMOS_RUNTIME_EVENT_CATALOG(DEMOS_EVENT_ENUM)
#undef DEMOS_EVENT_ENUM
  kCount,
};

struct EventInfo {
  const char* name;
  EventCategory category;
  EventSinks sinks;
  const char* label_a;
  const char* label_b;

  constexpr bool traced() const { return (static_cast<int>(sinks) & 1) != 0; }
  constexpr bool ringed() const { return (static_cast<int>(sinks) & 2) != 0; }
};

inline constexpr EventInfo kEventInfo[] = {
    {"none", EventCategory::kRuntime, EventSinks::kRing, "", ""},
#define DEMOS_EVENT_INFO(id, name, category, sinks, a, b) \
  {name, EventCategory::k##category, EventSinks::k##sinks, a, b},
    DEMOS_EVENT_CATALOG(DEMOS_EVENT_INFO)
#undef DEMOS_EVENT_INFO
#define DEMOS_RUNTIME_EVENT_INFO(id, name, a, b) \
  {name, EventCategory::kRuntime, EventSinks::kRing, a, b},
        DEMOS_RUNTIME_EVENT_CATALOG(DEMOS_RUNTIME_EVENT_INFO)
#undef DEMOS_RUNTIME_EVENT_INFO
};
static_assert(sizeof(kEventInfo) / sizeof(kEventInfo[0]) ==
              static_cast<std::size_t>(FrEvent::kCount));

constexpr const EventInfo& EventInfoOf(FrEvent e) {
  return kEventInfo[static_cast<std::size_t>(e) < static_cast<std::size_t>(FrEvent::kCount)
                        ? static_cast<std::size_t>(e)
                        : 0];
}
constexpr const char* FrEventName(FrEvent e) { return EventInfoOf(e).name; }

// The Chrome category string of a row; each category is one track.
constexpr const char* EventCategoryName(EventCategory c) {
  return c == EventCategory::kMigration ? "migration"
         : c == EventCategory::kMessage ? "msg"
         : c == EventCategory::kNet     ? "net"
                                        : "runtime";
}

// One logged moment, as both sinks hold it: the tracer in an unbounded
// vector, the flight ring in a bounded array.  Each sink stamps its own clock
// and slot: the tracer virtual microseconds and the emitting machine, the
// ring its FrClockFn nanoseconds and its recorder slot.
struct EventRecord {
  std::uint64_t ts = 0;    // tracer: virtual us; ring: ns
  std::uint64_t id = 0;    // correlation id: migration span or message trace id
  std::uint64_t a = 0;     // operands, labelled by the row
  std::uint64_t b = 0;
  ProcessId pid;           // subject process, if any
  std::uint32_t seq = 0;   // per-sink append order
  FrEvent type = FrEvent::kNone;
  MachineId machine = kNoMachine;  // tracer: emitting machine; ring: recorder slot
};

}  // namespace demos

#endif  // DEMOS_OBS_EVENTS_H_
