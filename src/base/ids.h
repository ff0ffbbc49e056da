// Identifier types shared by every DEMOS/MP subsystem.
//
// The process address layout follows Figure 2-1 of the paper: an address is a
// (last-known-machine, unique-process-id) pair, where the unique id is itself a
// (creating-machine, local-unique-id) pair.  The unique id is fixed at process
// creation; only the last-known-machine field ever changes, and only as a
// result of migration or link update.

#ifndef DEMOS_BASE_IDS_H_
#define DEMOS_BASE_IDS_H_

#include <cstdint>
#include <functional>
#include <string>

namespace demos {

// Identifies a processor (a node running one kernel).
using MachineId = std::uint16_t;

// Sentinel for "no machine".
inline constexpr MachineId kNoMachine = 0xFFFF;

// System-wide unique process identifier.  Set on process creation and never
// changed afterwards, even across migrations.
struct ProcessId {
  MachineId creating_machine = kNoMachine;
  std::uint32_t local_id = 0;

  friend bool operator==(const ProcessId&, const ProcessId&) = default;
  friend auto operator<=>(const ProcessId&, const ProcessId&) = default;

  bool valid() const { return creating_machine != kNoMachine; }

  // Appends instead of `"p" + std::to_string(...)`: GCC 12's -Wrestrict
  // misfires on the inlined operator+(const char*, string&&) under -O2.
  std::string ToString() const {
    std::string out = "p";
    out += std::to_string(creating_machine);
    out += '.';
    out += std::to_string(local_id);
    return out;
  }
};

inline constexpr ProcessId kNoProcess{};

// A process address as carried inside a link: the unique id plus the last
// known location.  8 bytes on the wire (2 + 2 + 4), which is also the size the
// paper reports for a forwarding address.
struct ProcessAddress {
  MachineId last_known_machine = kNoMachine;
  ProcessId pid;

  friend bool operator==(const ProcessAddress&, const ProcessAddress&) = default;

  bool valid() const { return pid.valid(); }

  std::string ToString() const {
    std::string out = pid.ToString();
    out += "@m";
    out += std::to_string(last_known_machine);
    return out;
  }
};

// Index of a link within one process's link table.
using LinkId = std::uint32_t;
inline constexpr LinkId kNoLink = 0xFFFFFFFFu;

struct ProcessIdHash {
  std::size_t operator()(const ProcessId& id) const {
    return std::hash<std::uint64_t>{}((std::uint64_t{id.creating_machine} << 32) |
                                      id.local_id);
  }
};

}  // namespace demos

#endif  // DEMOS_BASE_IDS_H_
