// The single-writer update shared by every counter slab (StatSlab,
// MetricShard, HistogramSnapshot::OwnerRecord, StripedCounter).

#ifndef DEMOS_BASE_OWNER_ADD_H_
#define DEMOS_BASE_OWNER_ADD_H_

#include <atomic>

namespace demos {

// Add `delta` to a slot only its owning thread writes: a relaxed load + store,
// no locked instruction.  Readers on any thread see whole values.  A second
// thread writing the same slot at once would lose updates, so each slot has
// exactly one writer at a time.  `slot` is a std::atomic or std::atomic_ref.
template <typename Atomic, typename T>
inline void OwnerAdd(Atomic&& slot, T delta) {
  slot.store(slot.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

}  // namespace demos

#endif  // DEMOS_BASE_OWNER_ADD_H_
