#include "src/run/virtual_time.h"

#include <algorithm>

namespace demos {

// ---------------------------------------------------------------------------
// LinkLatencyTable
// ---------------------------------------------------------------------------

LinkLatencyTable::LinkLatencyTable(int machines, SimDuration uniform_us)
    : machines_(machines),
      uniform_(uniform_us == 0 ? 1 : uniform_us),
      overrides_(static_cast<std::size_t>(machines) * static_cast<std::size_t>(machines), 0),
      lookahead_(static_cast<std::size_t>(machines), uniform_us == 0 ? 1 : uniform_us) {}

void LinkLatencyTable::SetLink(MachineId src, MachineId dst, SimDuration latency_us) {
  overrides_[Index(src, dst)] = latency_us == 0 ? 1 : latency_us;
  RecomputeLookahead(src);
}

void LinkLatencyTable::RecomputeLookahead(MachineId src) {
  SimDuration lookahead = uniform_;
  for (int dst = 0; dst < machines_; ++dst) {
    const SimDuration link = overrides_[Index(src, static_cast<MachineId>(dst))];
    if (link != 0 && link < lookahead) {
      lookahead = link;
    }
  }
  lookahead_[src] = lookahead;
}

SimDuration LinkLatencyTable::MinLookahead() const {
  SimDuration min = uniform_;
  for (const SimDuration la : lookahead_) {
    min = std::min(min, la);
  }
  return min;
}

// ---------------------------------------------------------------------------
// AdaptiveLookahead
// ---------------------------------------------------------------------------

AdaptiveLookahead::AdaptiveLookahead(const LinkLatencyTable& table, std::uint32_t growth_cap,
                                     std::uint32_t window)
    : window_(window == 0 ? 1 : window) {
  const int machines = table.machines();
  sources_.resize(static_cast<std::size_t>(machines));
  published_.reserve(static_cast<std::size_t>(machines));
  for (int src = 0; src < machines; ++src) {
    SourceState& state = sources_[static_cast<std::size_t>(src)];
    state.static_la = table.LookaheadFrom(static_cast<MachineId>(src));
    const std::uint64_t cap_mult = growth_cap == 0 ? 1 : growth_cap;
    state.cap = state.static_la * cap_mult;
    state.links.resize(static_cast<std::size_t>(machines));
    for (LinkState& link : state.links) {
      link.learned = state.static_la;
    }
    auto published = std::make_unique<Published>();
    published->value.store(state.static_la, std::memory_order_seq_cst);
    published_.push_back(std::move(published));
  }
}

bool AdaptiveLookahead::Observe(MachineId src, MachineId dst, SimTime send_ts) {
  if (src >= sources_.size() || dst >= sources_.size()) {
    return false;
  }
  SourceState& state = sources_[src];
  LinkState& link = state.links[dst];
  if (link.last_send_ts == kSimTimeNever) {
    link.last_send_ts = send_ts;
    return false;
  }
  const SimDuration gap = send_ts >= link.last_send_ts ? send_ts - link.last_send_ts : 0;
  link.last_send_ts = send_ts;

  bool shrank = false;
  if (gap < link.learned) {
    // The link just proved it can send more often than the estimate assumed:
    // shrink immediately (growth waits for a full window, shrinking never
    // does).  Never below the static floor -- that much is always true.
    link.learned = std::max(state.static_la, gap);
    shrank = Republish(src);
  }

  link.window_min = std::min(link.window_min, gap);
  if (++link.window_count >= window_) {
    // A full window of sends never got closer than window_min apart: trust
    // it, but grow at most 2x per window so one quiet stretch cannot balloon
    // the estimate past what steady traffic supports.
    const SimDuration target =
        std::clamp(link.window_min, state.static_la, state.cap);
    if (target > link.learned) {
      link.learned = std::min(target, link.learned * 2);
      Republish(src);
    }
    link.window_min = kSimTimeNever;
    link.window_count = 0;
  }
  return shrank;
}

bool AdaptiveLookahead::Collapse(MachineId src) {
  if (src >= sources_.size()) {
    return false;
  }
  SourceState& state = sources_[src];
  for (LinkState& link : state.links) {
    link.learned = state.static_la;
    link.window_min = kSimTimeNever;
    link.window_count = 0;
    // last_send_ts is kept: the gap history restarts from the next send.
  }
  return Republish(src);
}

bool AdaptiveLookahead::Republish(MachineId src) {
  SourceState& state = sources_[src];
  SimDuration min_learned = kSimTimeNever;
  for (const LinkState& link : state.links) {
    if (link.last_send_ts != kSimTimeNever) {
      min_learned = std::min(min_learned, link.learned);
    }
  }
  // A source with no observed traffic keeps the static floor: the wide-span
  // term of NextRelaxedBound is what widens windows before learning kicks in.
  const SimDuration next = min_learned == kSimTimeNever ? state.static_la : min_learned;
  const SimDuration prev = published_[src]->value.load(std::memory_order_seq_cst);
  if (next != prev) {
    published_[src]->value.store(next, std::memory_order_seq_cst);
  }
  return next < prev;
}

// ---------------------------------------------------------------------------
// LbtsState
// ---------------------------------------------------------------------------

LbtsState::LbtsState(int shards, SimTime bound)
    : slots_(static_cast<std::size_t>(shards)), bound_(bound) {
  for (auto& slot : slots_) {
    slot = std::make_unique<Slot>();
  }
}

std::uint64_t LbtsState::Block(MachineId shard, SimTime floor, bool tight) {
  Slot& slot = *slots_[shard];
  slot.floor.store(floor, std::memory_order_seq_cst);
  slot.tight.store(tight, std::memory_order_seq_cst);
  const std::uint64_t word = idle_.fetch_add(1, std::memory_order_seq_cst) + 1;
  return (word & (kWakeGeneration - 1)) == slots_.size() ? word : 0;
}

LbtsState::Round LbtsState::Read(std::uint64_t word) const {
  Round round;
  round.word = word;
  round.bound = bound();
  round.floors.reserve(slots_.size());
  for (const auto& slot : slots_) {
    round.any_tight = slot->tight.load(std::memory_order_seq_cst) || round.any_tight;
    round.floors.push_back(slot->floor.load(std::memory_order_seq_cst));
  }
  return round;
}

bool LbtsState::Confirm(const Round& round) const {
  return idle_.load(std::memory_order_seq_cst) == round.word &&
         std::all_of(round.floors.begin(), round.floors.end(),
                     [&round](SimTime floor) { return floor > round.bound; });
}

std::uint64_t LbtsState::OpenWindow(SimTime seen, SimTime new_bound, bool wide) {
  if (wide) {
    ever_wide_.store(true, std::memory_order_seq_cst);
  }
  if (!bound_.compare_exchange_strong(seen, new_bound, std::memory_order_seq_cst)) {
    return 0;
  }
  return epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
}

SimTime LbtsState::NextBound(const std::vector<SimTime>& floors,
                             const LinkLatencyTable& latency) const {
  SimTime next = kSimTimeNever;
  for (std::size_t i = 0; i < floors.size(); ++i) {
    if (floors[i] == kSimTimeNever) {
      continue;
    }
    const SimTime candidate = floors[i] + latency.LookaheadFrom(static_cast<MachineId>(i)) - 1;
    if (candidate < next) {
      next = candidate;
    }
  }
  if (next != kSimTimeNever && next <= bound()) {
    next = bound() + 1;  // defensive: the window must always make progress
  }
  return next;
}

SimTime LbtsState::NextRelaxedBound(const std::vector<SimTime>& floors,
                                    const LinkLatencyTable& latency,
                                    const AdaptiveLookahead* adaptive, SimDuration wide_span,
                                    bool* widened) const {
  const SimTime tight = NextBound(floors, latency);
  if (widened != nullptr) {
    *widened = false;
  }
  if (tight == kSimTimeNever) {
    return tight;
  }
  SimTime learned_bound = kSimTimeNever;
  SimTime min_floor = kSimTimeNever;
  for (std::size_t i = 0; i < floors.size(); ++i) {
    if (floors[i] == kSimTimeNever) {
      continue;
    }
    min_floor = std::min(min_floor, floors[i]);
    const SimDuration la = adaptive != nullptr
                               ? adaptive->FromSource(static_cast<MachineId>(i))
                               : latency.LookaheadFrom(static_cast<MachineId>(i));
    learned_bound = std::min(learned_bound, floors[i] + la - 1);
  }
  SimTime next = std::max(tight, learned_bound);
  if (wide_span > 0) {
    next = std::max(next, min_floor + wide_span - 1);
  }
  if (next > tight && widened != nullptr) {
    *widened = true;
  }
  return next;
}

}  // namespace demos
