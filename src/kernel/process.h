// The kernel-side process record (Fig. 2-2) and its two serializable halves.
//
// The paper splits movable process state into the *resident* (non-swappable)
// state -- execution status, dispatch information, memory tables, accounting;
// about 250 bytes on the Z8000 implementation -- and the *swappable* state --
// link table, pending timers, program-private state; about 600 bytes,
// depending on the size of the link table.  Migration step 4 moves both halves
// with the move-data facility; step 5 moves the memory image.  The incoming
// message queue is deliberately NOT part of either half: queued messages stay
// on the source machine and are re-sent through the normal message system in
// step 6.
//
// A forwarding address (Sec. 4) is a *degenerate* process record whose only
// content is the machine the process migrated to; ProcessTable stores it as a
// table entry with no ProcessRecord attached.

#ifndef DEMOS_KERNEL_PROCESS_H_
#define DEMOS_KERNEL_PROCESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/ids.h"
#include "src/kernel/link.h"
#include "src/kernel/message.h"
#include "src/proc/memory_image.h"
#include "src/proc/program.h"
#include "src/sim/event_queue.h"

namespace demos {

enum class ExecState : std::uint8_t {
  kReady = 0,        // runnable (has queued messages or a pending dispatch)
  kWaiting = 1,      // blocked waiting for a message
  kSuspended = 2,    // stopped by a kSuspendProcess control message
  kInMigration = 3,  // frozen; being moved (source) or assembled (destination)
  kExited = 4,
};

const char* ExecStateName(ExecState s);

// A pending process timer.  Timers are process state: they are serialized
// (with remaining time) into the swappable state and re-armed by the
// destination kernel, so a timer set before migration fires exactly once,
// wherever the process happens to be living by then.
struct TimerEntry {
  SimTime due = 0;
  std::uint64_t cookie = 0;
};

// Simulated dispatch information: a Z8000-flavoured register file.  The
// contents are not interpreted (programs are C++ objects), but they are real
// bytes in the resident state so that the E2 state-size bench measures an
// honest record, and tests can verify they survive migration bit-for-bit.
struct DispatchInfo {
  std::uint16_t registers[16] = {};
  std::uint32_t pc = 0;
  std::uint32_t sp = 0;
  std::uint16_t psw = 0;

  void Serialize(ByteWriter& w) const;
  static DispatchInfo Deserialize(ByteReader& r);
  friend bool operator==(const DispatchInfo&, const DispatchInfo&) = default;
};

// Size of the simulated saved kernel context included in the resident state.
// The Z8000 implementation's ~250-byte resident state included the kernel-mode
// register save area; we carry an opaque block of the representative size.
inline constexpr std::size_t kKernelContextBytes = 128;

// A process's incoming message queue: a FIFO ring of reused Message slots.
// A slot keeps its moved-from Message between uses, so steady-state queueing
// allocates nothing; the ring only grows (doubling) when it fills.
class MessageQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(Message&& msg) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(msg);
    ++size_;
  }
  Message& front() { return slots_[head_]; }
  void pop_front() {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  // Oldest-first iteration over the queued messages.
  class const_iterator {
   public:
    const_iterator(const MessageQueue* queue, std::size_t i) : queue_(queue), i_(i) {}
    const Message& operator*() const {
      return queue_->slots_[(queue_->head_ + i_) & (queue_->slots_.size() - 1)];
    }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& other) const { return i_ != other.i_; }

   private:
    const MessageQueue* queue_;
    std::size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  void Grow() {
    std::vector<Message> grown(slots_.empty() ? 4 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<Message> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

struct ProcessRecord {
  ProcessId pid;
  ExecState state = ExecState::kWaiting;
  std::uint8_t priority = 100;
  DispatchInfo dispatch;
  Bytes kernel_context = Bytes(kKernelContextBytes, 0);
  MemoryImage memory;
  LinkTable links;

  // Incoming message queue (stays behind during migration; see file comment).
  MessageQueue queue;

  std::vector<TimerEntry> timers;
  // Bumped when timers are snapshotted for migration so that already-scheduled
  // local timer events become no-ops (the destination re-arms its own copies).
  std::uint64_t timer_generation = 0;

  // Accounting (used by the load-balancing policy and the E8 bench).
  std::uint64_t cpu_used_us = 0;
  std::uint64_t messages_handled = 0;
  SimTime created_at = 0;
  // Messages this process sent toward each remote machine -- the
  // "communications load" information of Sec. 3.1, which the
  // communication-affinity policy consumes.  Travels in the swappable state.
  std::map<MachineId, std::uint32_t> remote_sends;

  // Machines this process previously lived on, oldest first: the "pointers
  // backwards along the path of migration" used by the forwarding-address GC
  // extension (Sec. 4 future work).
  std::vector<MachineId> migration_history;

  // Live program object (not serialized; re-created from the registry).
  std::unique_ptr<Program> program;
  bool started = false;

  // True while a dispatch event for this process is already scheduled.
  bool dispatch_scheduled = false;

  // ---- Serialization of the two migratable halves. ----
  Bytes SerializeResidentState() const;
  // Applies a resident-state blob onto this record (pid must match).
  Status ApplyResidentState(const Bytes& blob);

  // `now` converts timer deadlines to remaining durations.
  Bytes SerializeSwappableState(SimTime now) const;
  Status ApplySwappableState(const Bytes& blob, SimTime now);

  bool IsSchedulable() const {
    return state == ExecState::kReady || state == ExecState::kWaiting;
  }
};

// The per-kernel process table.  An entry is either a live process or a
// forwarding address (the 8-byte degenerate record of Sec. 4).  Forwarding
// entries are installed, re-pointed and erased only by Addressing
// (src/kernel/addressing.h).
class ProcessTable {
 public:
  // Reclamation bookkeeping of one forwarding address.
  struct ForwardingGc {
    std::vector<MachineId> peers;  // machines that may still hold stale links
    SimTime last_used = 0;
    // When the peer set last became empty (0 = non-empty): the grace window
    // runs from max(installed_at, peers_emptied_at).
    SimTime peers_emptied_at = 0;
  };

  struct Entry {
    std::unique_ptr<ProcessRecord> process;  // null for a forwarding address
    MachineId forward_to = kNoMachine;       // valid when process is null
    SimTime installed_at = 0;                // forwarding only; TTL and reclamation age
    // Migration version the forwarding address was installed at (the length
    // of the migration history after the move that left it behind).  A
    // kChainCollapse re-points the entry only when it carries a strictly
    // newer version, so a late collapse can never create a routing cycle.
    std::uint64_t version = 0;
    std::unique_ptr<ForwardingGc> gc;  // forwarding only
    bool IsForwarding() const { return process == nullptr; }
  };
  using Map = std::unordered_map<ProcessId, Entry, ProcessIdHash>;

  ProcessRecord* Find(const ProcessId& pid) {
    auto it = entries_.find(pid);
    if (it == entries_.end() || it->second.IsForwarding()) {
      return nullptr;
    }
    return it->second.process.get();
  }

  const Entry* FindEntry(const ProcessId& pid) const {
    auto it = entries_.find(pid);
    return it == entries_.end() ? nullptr : &it->second;
  }
  Entry* FindEntry(const ProcessId& pid) {
    auto it = entries_.find(pid);
    return it == entries_.end() ? nullptr : &it->second;
  }

  // Overwrites in place, so table iteration order does not change.
  ProcessRecord* Insert(std::unique_ptr<ProcessRecord> record) {
    ProcessRecord* raw = record.get();
    const ProcessId pid = record->pid;
    entries_[pid] = Entry{std::move(record)};
    return raw;
  }

  // Replace whatever is at `pid` with a forwarding address to `machine`.  A
  // re-install over a forwarding address keeps its GC bookkeeping.
  Entry& InstallForwardingAddress(const ProcessId& pid, MachineId machine, SimTime now = 0,
                                  std::uint64_t version = 0) {
    Entry& entry = entries_[pid];
    entry.process.reset();
    entry.forward_to = machine;
    entry.installed_at = now;
    entry.version = version;
    return entry;
  }

  void Erase(const ProcessId& pid) { entries_.erase(pid); }

  std::size_t LiveProcessCount() const {
    std::size_t n = 0;
    for (const auto& [pid, entry] : entries_) {
      n += entry.IsForwarding() ? 0 : 1;
    }
    return n;
  }

  std::size_t ForwardingAddressCount() const {
    std::size_t n = 0;
    for (const auto& [pid, entry] : entries_) {
      n += entry.IsForwarding() ? 1 : 0;
    }
    return n;
  }

  const Map& entries() const { return entries_; }
  Map& mutable_entries() { return entries_; }

 private:
  Map entries_;
};

}  // namespace demos

#endif  // DEMOS_KERNEL_PROCESS_H_
