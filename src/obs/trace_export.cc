#include "src/obs/trace_export.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <unordered_map>

namespace demos {

namespace {

void SetPhase(MigrationSpan& span, MigrationPhaseKind kind, SimTime start, SimTime end,
              std::uint64_t bytes = 0) {
  MigrationPhaseSpan& phase = span.phases[static_cast<int>(kind)];
  phase.kind = kind;
  phase.start = start;
  phase.end = end;
  phase.bytes = bytes;
  phase.valid = end >= start;
}

MigrationPhaseKind SectionPhase(std::uint64_t section) {
  switch (section) {
    case 0:
      return MigrationPhaseKind::kMoveResident;
    case 1:
      return MigrationPhaseKind::kMoveSwappable;
    default:
      return MigrationPhaseKind::kMoveImage;
  }
}

std::string JsonHexId(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, id);
  return buf;
}

}  // namespace

const char* MigrationPhaseName(MigrationPhaseKind kind) {
  switch (kind) {
    case MigrationPhaseKind::kRequest:
      return "request";
    case MigrationPhaseKind::kOffer:
      return "offer";
    case MigrationPhaseKind::kAccept:
      return "accept";
    case MigrationPhaseKind::kMoveResident:
      return "move_resident";
    case MigrationPhaseKind::kMoveSwappable:
      return "move_swappable";
    case MigrationPhaseKind::kMoveImage:
      return "move_image";
    case MigrationPhaseKind::kTransferComplete:
      return "transfer_complete";
    case MigrationPhaseKind::kRestart:
      return "restart";
    default:
      return "unknown";
  }
}

std::vector<MigrationSpan> BuildMigrationSpans(const std::vector<EventRecord>& events) {
  // Group by correlation id, preserving time order within each group.
  std::map<std::uint64_t, std::vector<const EventRecord*>> by_id;
  for (const EventRecord& ev : events) {
    if (EventInfoOf(ev.type).category == EventCategory::kMigration) {
      by_id[ev.id].push_back(&ev);
    }
  }

  std::vector<MigrationSpan> spans;
  for (const auto& [id, group] : by_id) {
    // Split the group into migration instances.  A process migrates strictly
    // sequentially, so a new kRequestSent (or an orphan kMigrationBegin)
    // opens a new instance.
    std::vector<std::vector<const EventRecord*>> instances;
    for (const EventRecord* ev : group) {
      const bool opens = ev->type == FrEvent::kRequestSent ||
                         (ev->type == FrEvent::kMigrationBegin &&
                          (instances.empty() || std::any_of(instances.back().begin(),
                                                            instances.back().end(),
                                                            [](const EventRecord* e) {
                                                              return e->type ==
                                                                     FrEvent::kMigrationBegin;
                                                            })));
      if (opens || instances.empty()) {
        instances.emplace_back();
      }
      instances.back().push_back(ev);
    }

    for (const auto& instance : instances) {
      MigrationSpan span;
      span.id = id;
      // Instants indexed by catalog row for pairing (first occurrence wins; a
      // well-formed instance has each step at most once).
      std::array<const EventRecord*, static_cast<std::size_t>(FrEvent::kCount)> at{};
      const EventRecord* section_req[3] = {nullptr, nullptr, nullptr};
      const EventRecord* section_got[3] = {nullptr, nullptr, nullptr};
      for (const EventRecord* ev : instance) {
        if (ev->pid.valid()) {
          span.pid = ev->pid;
        }
        if (ev->type == FrEvent::kPullRequested && ev->a < 3) {
          if (section_req[ev->a] == nullptr) {
            section_req[ev->a] = ev;
          }
          continue;
        }
        if (ev->type == FrEvent::kSectionReceived && ev->a < 3) {
          if (section_got[ev->a] == nullptr) {
            section_got[ev->a] = ev;
          }
          continue;
        }
        const EventRecord*& slot = at[static_cast<std::size_t>(ev->type)];
        if (slot == nullptr) {
          slot = ev;
        }
      }

      auto find = [&](FrEvent e) { return at[static_cast<std::size_t>(e)]; };

      const EventRecord* request_sent = find(FrEvent::kRequestSent);
      const EventRecord* begin = find(FrEvent::kMigrationBegin);
      const EventRecord* offer_sent = find(FrEvent::kOfferSent);
      const EventRecord* offer_received = find(FrEvent::kOfferReceived);
      const EventRecord* accept_sent = find(FrEvent::kAcceptSent);
      const EventRecord* accept_received = find(FrEvent::kAcceptReceived);
      const EventRecord* done_sent = find(FrEvent::kTransferDoneSent);
      const EventRecord* done_received = find(FrEvent::kTransferDoneReceived);
      const EventRecord* cleanup_sent = find(FrEvent::kCleanupSent);
      const EventRecord* restarted = find(FrEvent::kRestarted);
      const EventRecord* aborted = find(FrEvent::kMigrationAborted);
      const EventRecord* pending = find(FrEvent::kPendingForwarded);

      const EventRecord* first = instance.front();
      const EventRecord* last = instance.back();
      span.start = request_sent != nullptr ? request_sent->ts : first->ts;
      span.end = last->ts;
      if (begin != nullptr) {
        span.source = begin->machine;
        span.destination = static_cast<MachineId>(begin->a);
      }
      if (offer_received != nullptr) {
        span.destination = offer_received->machine;
      }
      span.completed = restarted != nullptr;
      span.aborted = aborted != nullptr;
      if (span.completed) {
        span.end = restarted->ts;
      } else if (span.aborted) {
        span.end = aborted->ts;
      }
      if (pending != nullptr) {
        span.pending_forwarded = pending->a;
      }

      if (request_sent != nullptr && begin != nullptr) {
        SetPhase(span, MigrationPhaseKind::kRequest, request_sent->ts, begin->ts);
      }
      if (offer_sent != nullptr && offer_received != nullptr) {
        SetPhase(span, MigrationPhaseKind::kOffer, offer_sent->ts, offer_received->ts);
      }
      if (accept_sent != nullptr && accept_received != nullptr) {
        SetPhase(span, MigrationPhaseKind::kAccept, accept_sent->ts, accept_received->ts);
      }
      for (int s = 0; s < 3; ++s) {
        if (section_req[s] != nullptr && section_got[s] != nullptr) {
          SetPhase(span, SectionPhase(static_cast<std::uint64_t>(s)), section_req[s]->ts,
                   section_got[s]->ts, section_got[s]->b);
          span.bytes_moved += section_got[s]->b;
        }
      }
      if (done_sent != nullptr && done_received != nullptr) {
        SetPhase(span, MigrationPhaseKind::kTransferComplete, done_sent->ts, done_received->ts);
      }
      if (cleanup_sent != nullptr && restarted != nullptr) {
        // Steps 6-8 collapse into one phase: the source's queue-forward and
        // forwarding-address install happen at cleanup_sent's instant, then
        // CLEANUP_DONE flies and the destination restarts the process.
        SetPhase(span, MigrationPhaseKind::kRestart, cleanup_sent->ts, restarted->ts);
      }
      spans.push_back(std::move(span));
    }
  }

  std::sort(spans.begin(), spans.end(),
            [](const MigrationSpan& a, const MigrationSpan& b) { return a.start < b.start; });
  return spans;
}

std::vector<MessageTrace> BuildMessageTraces(const std::vector<EventRecord>& events) {
  std::map<std::uint64_t, MessageTrace> by_id;
  std::vector<std::uint64_t> order;
  for (const EventRecord& ev : events) {
    if (EventInfoOf(ev.type).category != EventCategory::kMessage || ev.id == 0) {
      continue;
    }
    auto [it, inserted] = by_id.try_emplace(ev.id);
    MessageTrace& t = it->second;
    if (inserted) {
      t.id = ev.id;
      order.push_back(ev.id);
    }
    if (ev.type == FrEvent::kMsgSend || ev.type == FrEvent::kLinkUpdateSent) {
      t.sent = ev.ts;
      t.type = ev.a;
      t.origin = ev.machine;
    } else if (ev.type == FrEvent::kMsgForward) {
      t.hops = std::max<std::uint32_t>(t.hops, static_cast<std::uint32_t>(ev.a));
    } else if (ev.type == FrEvent::kMsgBounce) {
      t.bounces++;
    } else if (ev.type == FrEvent::kMsgDeliver || ev.type == FrEvent::kLinkUpdateApplied) {
      t.delivered = ev.ts;
      t.was_delivered = true;
      if (ev.type == FrEvent::kMsgDeliver) {
        t.hops = std::max<std::uint32_t>(t.hops, static_cast<std::uint32_t>(ev.a));
      }
    }
  }
  std::vector<MessageTrace> out;
  out.reserve(order.size());
  for (std::uint64_t id : order) {
    out.push_back(by_id[id]);
  }
  return out;
}

std::map<std::string, HistogramSnapshot> BuildTraceStats(const std::vector<EventRecord>& events) {
  std::map<std::string, HistogramSnapshot> out;
  for (const MigrationSpan& span : BuildMigrationSpans(events)) {
    if (span.completed) {
      out[stat::kMigrationTotalUs].Record(span.duration());
    }
    for (const MigrationPhaseSpan& phase : span.phases) {
      if (phase.valid) {
        out[std::string("phase_") + MigrationPhaseName(phase.kind) + "_us"].Record(
            phase.duration());
      }
    }
  }

  // Link-update lag: from the forwarding kernel emitting the LINK_UPDATE to
  // the sender's kernel patching the link table (Sec. 5's lazy update).
  std::unordered_map<std::uint64_t, SimTime> update_sent;
  for (const EventRecord& ev : events) {
    if (ev.type == FrEvent::kLinkUpdateSent) {
      update_sent.emplace(ev.id, ev.ts);
    } else if (ev.type == FrEvent::kLinkUpdateApplied) {
      auto it = update_sent.find(ev.id);
      if (it != update_sent.end()) {
        out[stat::kLinkUpdateLagUs].Record(ev.ts - it->second);
        update_sent.erase(it);
      }
    }
  }

  for (const MessageTrace& msg : BuildMessageTraces(events)) {
    if (msg.hops > 0) {
      out[stat::kForwardHops].Record(msg.hops);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Chrome trace_event JSON.
// ---------------------------------------------------------------------------

namespace {

// Synthetic Chrome "process" hosting the reconstructed migration span trees.
constexpr int kMigrationsPid = 10000;

// One track per category: migration 1, messages 2, net 3, runtime 4.
int CategoryTid(EventCategory category) { return static_cast<int>(category) + 1; }
constexpr const char* kTrackNames[] = {"migration", "messages", "net", "runtime"};

void WriteMeta(std::ostream& os, bool& first, int pid, int tid, const char* what,
               const std::string& value) {
  os << (first ? "" : ",\n") << "  {\"ph\":\"M\",\"name\":\"" << what << "\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << value << "\"}}";
  first = false;
}

// A reconstructed migration span: a duration ('X') event.
void WriteCompleteEvent(std::ostream& os, bool& first, int pid, int tid, const std::string& name,
                        SimTime ts, SimDuration dur, const std::string& extra_args) {
  os << (first ? "" : ",\n") << "  {\"ph\":\"X\",\"name\":\"" << name << "\",\"cat\":\""
     << EventCategoryName(EventCategory::kMigration) << "\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{" << extra_args << "}}";
  first = false;
}

}  // namespace

void WriteChromeTrace(const std::vector<EventRecord>& events, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  // Track metadata: one Chrome "process" per machine, one "thread" per
  // event category.
  std::set<MachineId> machines;
  std::set<std::pair<MachineId, int>> tracks;
  for (const EventRecord& ev : events) {
    if (ev.machine != kNoMachine) {
      machines.insert(ev.machine);
      tracks.insert({ev.machine, CategoryTid(EventInfoOf(ev.type).category)});
    }
  }
  for (MachineId m : machines) {
    WriteMeta(os, first, m, 0, "process_name", "machine m" + std::to_string(m));
  }
  for (const auto& [m, tid] : tracks) {
    WriteMeta(os, first, m, tid, "thread_name", kTrackNames[tid - 1]);
  }

  // Records as instants on per-machine tracks.
  for (const EventRecord& ev : events) {
    const EventInfo& info = EventInfoOf(ev.type);
    os << (first ? "" : ",\n") << "  {\"ph\":\"i\",\"name\":\"" << info.name
       << "\",\"cat\":\"" << EventCategoryName(info.category) << "\",\"pid\":" << ev.machine
       << ",\"tid\":" << CategoryTid(info.category) << ",\"ts\":" << ev.ts
       << ",\"s\":\"t\",\"args\":{\"id\":\"" << JsonHexId(ev.id) << "\"";
    if (ev.pid.valid()) {
      os << ",\"process\":\"" << ev.pid.ToString() << "\"";
    }
    os << ",\"arg0\":" << ev.a << ",\"arg1\":" << ev.b << "}}";
    first = false;
  }

  // Reconstructed migration span trees on a synthetic process: the root span
  // on top, the 8 protocol phases nested beneath it (same tid, contained
  // time ranges -- Chrome renders containment as nesting).
  const std::vector<MigrationSpan> spans = BuildMigrationSpans(events);
  if (!spans.empty()) {
    WriteMeta(os, first, kMigrationsPid, 0, "process_name", "migrations");
    int tid = 0;
    for (const MigrationSpan& span : spans) {
      ++tid;
      WriteMeta(os, first, kMigrationsPid, tid, "thread_name",
                span.pid.ToString() + " m" + std::to_string(span.source) + "->m" +
                    std::to_string(span.destination));
      const std::string root_args = "\"id\":\"" + JsonHexId(span.id) + "\",\"bytes\":" +
                                    std::to_string(span.bytes_moved) + ",\"pending_forwarded\":" +
                                    std::to_string(span.pending_forwarded) + ",\"completed\":" +
                                    (span.completed ? "true" : "false");
      WriteCompleteEvent(os, first, kMigrationsPid, tid, "migrate " + span.pid.ToString(),
                         span.start, std::max<SimDuration>(span.duration(), 1), root_args);
      for (const MigrationPhaseSpan& phase : span.phases) {
        if (!phase.valid) {
          continue;
        }
        WriteCompleteEvent(os, first, kMigrationsPid, tid, MigrationPhaseName(phase.kind),
                           phase.start, std::max<SimDuration>(phase.duration(), 1),
                           "\"bytes\":" + std::to_string(phase.bytes));
      }
    }
  }

  os << "\n]}\n";
}

bool WriteChromeTraceFile(const std::vector<EventRecord>& events, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  WriteChromeTrace(events, file);
  return static_cast<bool>(file);
}

// ---------------------------------------------------------------------------
// Summary tables.
// ---------------------------------------------------------------------------

void WriteTraceSummary(const std::vector<EventRecord>& events, std::ostream& os) {
  const std::vector<MigrationSpan> spans = BuildMigrationSpans(events);
  const std::vector<MessageTrace> messages = BuildMessageTraces(events);

  std::size_t completed = 0;
  for (const MigrationSpan& span : spans) {
    completed += span.completed ? 1 : 0;
  }
  os << "migrations: " << spans.size() << " traced, " << completed << " completed\n";
  for (const MigrationSpan& span : spans) {
    os << "  " << span.pid.ToString() << "  m" << span.source << " -> m" << span.destination
       << "  " << (span.completed ? "ok" : span.aborted ? "aborted" : "incomplete") << "  total "
       << span.duration() << " us  bytes " << span.bytes_moved << "  pending "
       << span.pending_forwarded << "\n";
    for (const MigrationPhaseSpan& phase : span.phases) {
      if (!phase.valid) {
        continue;
      }
      os << "    " << MigrationPhaseName(phase.kind) << "  " << phase.duration() << " us";
      if (phase.bytes > 0) {
        os << "  (" << phase.bytes << " B)";
      }
      os << "\n";
    }
  }

  std::size_t forwarded = 0;
  std::size_t bounced = 0;
  std::uint32_t max_hops = 0;
  for (const MessageTrace& msg : messages) {
    forwarded += msg.hops > 0 ? 1 : 0;
    bounced += msg.bounces > 0 ? 1 : 0;
    max_hops = std::max(max_hops, msg.hops);
  }
  os << "messages: " << messages.size() << " traced, " << forwarded << " forwarded (max "
     << max_hops << " hops), " << bounced << " bounced\n";
  for (const MessageTrace& msg : messages) {
    if (msg.hops == 0 && msg.bounces == 0) {
      continue;
    }
    os << "  " << JsonHexId(msg.id) << "  type " << msg.type << "  from m" << msg.origin
       << "  hops " << msg.hops << "  bounces " << msg.bounces;
    if (msg.was_delivered) {
      os << "  latency " << msg.Latency() << " us";
    } else {
      os << "  undelivered";
    }
    os << "\n";
  }
}

std::vector<EventRecord> NormalizeShardClocks(const std::vector<EventRecord>& events,
                                              const std::vector<ClockSyncPoint>& syncs) {
  // Per-machine sync polylines, sorted along the virtual axis.
  std::map<MachineId, std::vector<ClockSyncPoint>> lines;
  for (const ClockSyncPoint& s : syncs) {
    lines[s.machine].push_back(s);
  }
  std::uint64_t epoch_ns = 0;
  bool have_epoch = false;
  for (auto& [machine, line] : lines) {
    std::sort(line.begin(), line.end(), [](const ClockSyncPoint& a, const ClockSyncPoint& b) {
      return a.virt_us != b.virt_us ? a.virt_us < b.virt_us : a.real_ns < b.real_ns;
    });
    if (!have_epoch || line.front().real_ns < epoch_ns) {
      epoch_ns = line.front().real_ns;
      have_epoch = true;
    }
  }

  // Virtual us -> real ns along one machine's polyline; 1 us virtual = 1 us
  // real beyond the observed ends (the least-surprising extrapolation).
  const auto to_real_ns = [](const std::vector<ClockSyncPoint>& line, SimTime virt) -> double {
    const auto v = static_cast<double>(virt);
    if (virt <= line.front().virt_us) {
      return static_cast<double>(line.front().real_ns) -
             (static_cast<double>(line.front().virt_us) - v) * 1000.0;
    }
    if (virt >= line.back().virt_us) {
      return static_cast<double>(line.back().real_ns) +
             (v - static_cast<double>(line.back().virt_us)) * 1000.0;
    }
    for (std::size_t i = 1; i < line.size(); ++i) {
      if (virt <= line[i].virt_us) {
        const auto v0 = static_cast<double>(line[i - 1].virt_us);
        const auto v1 = static_cast<double>(line[i].virt_us);
        const auto r0 = static_cast<double>(line[i - 1].real_ns);
        const auto r1 = static_cast<double>(line[i].real_ns);
        const double frac = v1 > v0 ? (v - v0) / (v1 - v0) : 1.0;
        return r0 + frac * (r1 - r0);
      }
    }
    return static_cast<double>(line.back().real_ns);
  };

  std::vector<EventRecord> out;
  out.reserve(events.size());
  for (EventRecord ev : events) {
    auto it = lines.find(ev.machine);
    if (it != lines.end()) {
      const double real_ns = to_real_ns(it->second, ev.ts);
      const double rebased_us = (real_ns - static_cast<double>(epoch_ns)) / 1000.0;
      ev.ts = rebased_us > 0 ? static_cast<SimTime>(rebased_us) : 0;
    }
    out.push_back(ev);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const EventRecord& a, const EventRecord& b) { return a.ts < b.ts; });
  return out;
}

std::vector<EventRecord> FilterTrace(const std::vector<EventRecord>& events,
                                     const std::vector<std::uint64_t>& ids,
                                     const std::vector<ProcessId>& pids) {
  std::set<std::uint64_t> keep_ids(ids.begin(), ids.end());
  std::set<std::uint64_t> keep_spans;
  for (const ProcessId& pid : pids) {
    keep_spans.insert(MigrationSpanId(pid));
  }
  std::vector<EventRecord> out;
  for (const EventRecord& ev : events) {
    const bool suspect_msg = keep_ids.count(ev.id) != 0;
    const bool suspect_pid =
        keep_spans.count(MigrationSpanId(ev.pid)) != 0 && ev.pid.valid();
    const bool migration_context = EventInfoOf(ev.type).category == EventCategory::kMigration;
    if (suspect_msg || suspect_pid || migration_context) {
      out.push_back(ev);
    }
  }
  return out;
}

}  // namespace demos
