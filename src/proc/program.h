// The user-program API.
//
// A DEMOS/MP process (Fig. 2-2) is a program plus data, stack, and state; its
// link table is its complete encapsulation.  In this reproduction a program is
// an event-driven C++ object.  Because migration physically moves the process
// image between kernels, program *behaviour* is identified by a registered
// program name embedded in the code segment, and program *state* must live in
// (a) the process's data segment (Context::ReadData/WriteData) or (b) the
// SaveState()/RestoreState() blob, which travels in the swappable state.  A
// correctly written program resumes on the destination machine with no visible
// discontinuity -- which is exactly what the transparency tests check.

#ifndef DEMOS_PROC_PROGRAM_H_
#define DEMOS_PROC_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/ids.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/kernel/link.h"
#include "src/kernel/message.h"
#include "src/sim/event_queue.h"

namespace demos {

// Result of a MoveDataFrom/MoveDataTo bulk transfer, delivered to the
// instigating program via OnDataMoveDone.
struct DataMoveResult {
  std::uint64_t cookie = 0;
  Status status;
  Bytes data;  // filled for reads (MoveDataFrom)
};

// Kernel-call surface available to a program.  Implemented by the kernel; the
// paper's "communication-oriented kernel calls" (Sec. 2.1).
class Context {
 public:
  virtual ~Context() = default;

  // --- Identity and environment. ---
  virtual ProcessAddress self() const = 0;
  virtual MachineId machine() const = 0;
  virtual SimTime now() const = 0;
  virtual Rng& rng() = 0;

  // --- Link operations (Sec. 2.1). ---
  // Create a link addressed to this process, optionally granting data-area
  // access to [data_offset, data_offset + data_length) of the data segment.
  virtual Link MakeLink(std::uint8_t flags = kLinkNone, std::uint32_t data_offset = 0,
                        std::uint32_t data_length = 0) = 0;
  // Store a received link in the link table; returns its local id.
  virtual LinkId AddLink(const Link& link) = 0;
  virtual const Link* GetLink(LinkId id) const = 0;
  virtual Status RemoveLink(LinkId id) = 0;

  // --- Messaging. ---
  // Payloads are PayloadRef (shared immutable buffers); a plain Bytes argument
  // converts implicitly, adopting the buffer without a copy.
  // Send over a held link.  Reply links are consumed by the send.
  virtual Status Send(LinkId link, MsgType type, PayloadRef payload,
                      CarriedLinks carry = {}) = 0;
  // Send over a link value not stored in the table (e.g. one just received).
  virtual Status SendOnLink(const Link& link, MsgType type, PayloadRef payload,
                            CarriedLinks carry = {}) = 0;
  // Reply over carried_links[0] of `request` (the reply-link convention).
  virtual Status Reply(const Message& request, MsgType type, PayloadRef payload,
                       CarriedLinks carry = {}) = 0;

  // --- Bulk data (Sec. 2.2): kernel-mediated transfers over data-area links.
  // Completion (and read data) arrives via OnDataMoveDone with `cookie`.
  virtual Status MoveDataTo(LinkId link, std::uint32_t area_offset, PayloadRef data,
                            std::uint64_t cookie) = 0;
  virtual Status MoveDataFrom(LinkId link, std::uint32_t area_offset, std::uint32_t length,
                              std::uint64_t cookie) = 0;

  // --- Own memory image. ---
  virtual Bytes ReadData(std::uint32_t offset, std::uint32_t length) const = 0;
  // Copy `length` bytes at `offset` into `out` without allocating: the
  // per-message form of ReadData.  False, with nothing copied, when the range
  // lies outside the data segment.
  virtual bool ReadDataInto(std::uint32_t offset, std::uint8_t* out,
                            std::uint32_t length) const = 0;
  virtual Status WriteData(std::uint32_t offset, const Bytes& bytes) = 0;
  virtual std::uint32_t DataSize() const = 0;

  // --- Control. ---
  virtual void SetTimer(SimDuration delay, std::uint64_t cookie) = 0;
  // Account virtual CPU consumed by the current handler (Sec. 3.1's CPU load).
  virtual void ChargeCpu(SimDuration cpu) = 0;
  virtual void Exit() = 0;
  // Voluntary migration request ("it is of course possible for a process to
  // request its own migration", Sec. 3.1).
  virtual void RequestMigration(MachineId destination) = 0;
};

class Program {
 public:
  virtual ~Program() = default;

  virtual void OnStart(Context& ctx) {}
  virtual void OnMessage(Context& ctx, const Message& msg) {}
  virtual void OnTimer(Context& ctx, std::uint64_t cookie) {}
  virtual void OnDataMoveDone(Context& ctx, const DataMoveResult& result) {}

  // Program-private state carried in the swappable state during migration.
  virtual Bytes SaveState() const { return {}; }
  virtual void RestoreState(const Bytes& state) {}
};

// Name -> factory registry.  The code segment of a process embeds the program
// name; the destination kernel of a migration re-instantiates the program from
// the registry and calls RestoreState().
class ProgramRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Program>()>;

  static ProgramRegistry& Instance() {
    static ProgramRegistry registry;
    return registry;
  }

  void Register(const std::string& name, Factory factory) { factories_[name] = std::move(factory); }

  bool Has(const std::string& name) const { return factories_.count(name) != 0; }

  std::unique_ptr<Program> Create(const std::string& name) const {
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      return nullptr;
    }
    return it->second();
  }

 private:
  std::map<std::string, Factory> factories_;
};

// Static registration helper:
//   DEMOS_REGISTER_PROGRAM("echo", EchoProgram);
#define DEMOS_REGISTER_PROGRAM(name, Type)                                       \
  namespace {                                                                    \
  const bool demos_registered_##Type = [] {                                      \
    ::demos::ProgramRegistry::Instance().Register(                               \
        name, [] { return std::unique_ptr<::demos::Program>(new Type()); });     \
    return true;                                                                 \
  }();                                                                           \
  }

}  // namespace demos

#endif  // DEMOS_PROC_PROGRAM_H_
