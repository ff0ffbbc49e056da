#include "src/run/virtual_time.h"

#include <algorithm>

namespace demos {

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

SimTime LbtsState::NextWindow(const Round& round, SimDuration lookahead, SimDuration wide_span,
                             bool* widened) const {
  *widened = false;
  SimTime min_floor = kSimTimeNever;
  for (const SimTime floor : round.floors) {
    min_floor = std::min(min_floor, floor);
  }
  if (min_floor == kSimTimeNever) {
    return kSimTimeNever;  // every queue drained: the cluster is quiescent
  }
  const SimTime guard = bound() + 1;  // defensive: the window must always make progress
  const SimDuration span = round.any_tight ? lookahead : std::max(lookahead, wide_span);
  const SimTime next = std::max(min_floor + span - 1, guard);
  *widened = next > std::max(min_floor + lookahead - 1, guard);
  return next;
}

}  // namespace demos
