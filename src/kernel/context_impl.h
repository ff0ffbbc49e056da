// Kernel-side implementation of the Context kernel-call surface.
//
// A KernelContext is stack-allocated around each program handler invocation
// (OnStart / OnMessage / OnTimer / OnDataMoveDone); it is how "all
// interactions between one process and another or between a process and the
// system" (Sec. 2.1) reach the kernel.  Internal header: include only from
// kernel sources and tests.

#ifndef DEMOS_KERNEL_CONTEXT_IMPL_H_
#define DEMOS_KERNEL_CONTEXT_IMPL_H_

#include "src/kernel/kernel.h"
#include "src/kernel/process.h"
#include "src/proc/program.h"

namespace demos {

class KernelContext final : public Context {
 public:
  KernelContext(Kernel* kernel, ProcessRecord* record) : kernel_(*kernel), record_(*record) {}

  ProcessAddress self() const override {
    return ProcessAddress{kernel_.machine(), record_.pid};
  }
  MachineId machine() const override { return kernel_.machine(); }
  SimTime now() const override { return kernel_.queue().Now(); }
  Rng& rng() override { return kernel_.rng(); }

  Link MakeLink(std::uint8_t flags, std::uint32_t data_offset,
                std::uint32_t data_length) override;
  LinkId AddLink(const Link& link) override { return record_.links.Insert(link); }
  const Link* GetLink(LinkId id) const override { return record_.links.Get(id); }
  Status RemoveLink(LinkId id) override { return record_.links.Remove(id); }

  Status Send(LinkId link, MsgType type, PayloadRef payload, CarriedLinks carry) override;
  Status SendOnLink(const Link& link, MsgType type, PayloadRef payload,
                    CarriedLinks carry) override;
  Status Reply(const Message& request, MsgType type, PayloadRef payload,
               CarriedLinks carry) override;

  Status MoveDataTo(LinkId link, std::uint32_t area_offset, PayloadRef data,
                    std::uint64_t cookie) override;
  Status MoveDataFrom(LinkId link, std::uint32_t area_offset, std::uint32_t length,
                      std::uint64_t cookie) override;

  Bytes ReadData(std::uint32_t offset, std::uint32_t length) const override {
    return record_.memory.ReadData(offset, length);
  }
  bool ReadDataInto(std::uint32_t offset, std::uint8_t* out,
                    std::uint32_t length) const override {
    return record_.memory.ReadDataInto(offset, out, length);
  }
  Status WriteData(std::uint32_t offset, const Bytes& bytes) override {
    return record_.memory.WriteData(offset, bytes);
  }
  std::uint32_t DataSize() const override { return record_.memory.data_size(); }

  void SetTimer(SimDuration delay, std::uint64_t cookie) override;
  void ChargeCpu(SimDuration cpu) override { charged_cpu_ += cpu; }
  void Exit() override { exit_requested_ = true; }
  void RequestMigration(MachineId destination) override;

  // Read by the kernel after the handler returns.
  SimDuration charged_cpu() const { return charged_cpu_; }
  bool exit_requested() const { return exit_requested_; }

 private:
  Kernel& kernel_;
  ProcessRecord& record_;
  SimDuration charged_cpu_ = 0;
  bool exit_requested_ = false;
};

}  // namespace demos

#endif  // DEMOS_KERNEL_CONTEXT_IMPL_H_
