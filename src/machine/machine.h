// The Quamachine: register file, condition codes, simulated memory, virtual
// clock, and the measurement facilities the paper's hardware provided — an
// instruction counter, a memory-reference counter, and a microsecond-
// resolution interval timer (§6.1).
#ifndef SRC_MACHINE_MACHINE_H_
#define SRC_MACHINE_MACHINE_H_

#include <array>
#include <cstdint>
#include <deque>

#include "src/machine/cost_model.h"
#include "src/machine/instr.h"
#include "src/machine/memory.h"
#include "src/machine/opcode.h"

namespace synthesis {

// One entry of the kernel-monitor execution trace (§6.3: "records in memory
// the instructions executed by the current thread").
struct TraceEntry {
  BlockId block = kInvalidBlock;
  uint32_t pc = 0;
  Instr instr;
  uint32_t cycles = 0;  // what the executor charged (0 for a faulting fetch)
};

class Machine {
 public:
  Machine(size_t memory_bytes, MachineConfig config)
      : memory_(memory_bytes), cost_(config) {
    regs_.fill(0);
    // Stack pointer starts at the top of memory; the kernel re-points it per
    // thread at dispatch time.
    regs_[kA7] = static_cast<uint32_t>(memory_bytes);
  }

  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }
  const CostModel& cost_model() const { return cost_; }

  uint32_t reg(uint8_t r) const { return regs_[r]; }
  void set_reg(uint8_t r, uint32_t v) { regs_[r] = v; }

  // Condition codes are modelled as the last compared pair.
  void SetCc(uint32_t lhs, uint32_t rhs) {
    cc_lhs_ = lhs;
    cc_rhs_ = rhs;
  }
  uint32_t cc_lhs() const { return cc_lhs_; }
  uint32_t cc_rhs() const { return cc_rhs_; }

  // Vector base register: address of the current thread's vector table.
  uint32_t vbr() const { return vbr_; }
  void set_vbr(uint32_t v) { vbr_ = v; }

  // --- Measurement facilities -------------------------------------------------
  uint64_t cycles() const { return cycles_; }
  uint64_t instructions() const { return instructions_; }
  uint64_t mem_refs() const { return mem_refs_; }
  double NowMicros() const { return cost_.CyclesToMicros(cycles_); }

  void Charge(uint64_t cycles, uint64_t instrs = 0, uint64_t refs = 0) {
    cycles_ += cycles;
    instructions_ += instrs;
    mem_refs_ += refs;
  }
  // Charge wall time directly (host-modelled slow paths and device latencies).
  void ChargeMicros(double us) {
    cycles_ += static_cast<uint64_t>(us * cost_.config().clock_mhz);
  }
  // Advance the virtual clock to an absolute time (idle wait for an event).
  // Rounds up: the resulting NowMicros() is never before `us`, so an event
  // scheduled at `us` is due immediately afterwards.
  void AdvanceToMicros(double us) {
    double exact = us * cost_.config().clock_mhz;
    uint64_t target = static_cast<uint64_t>(exact);
    if (static_cast<double>(target) < exact) {
      target++;
    }
    if (target > cycles_) {
      cycles_ = target;
    }
  }

  // --- Memory protection -------------------------------------------------------
  // The executor consults the filter for every data access while in user mode;
  // supervisor state (empty filter) sees everything (§4.1).
  AddressFilter& address_filter() { return filter_; }
  bool supervisor() const { return supervisor_; }
  void set_supervisor(bool s) { supervisor_ = s; }

  // --- Execution trace ----------------------------------------------------------
  void set_tracing(bool on) { tracing_ = on; }
  bool tracing() const { return tracing_; }
  // The executor records at fetch and fills in `cycles` when it charges.
  TraceEntry& Record(BlockId block, uint32_t pc, const Instr& instr) {
    if (trace_.size() >= kTraceCapacity) {
      trace_.pop_front();
    }
    return trace_.emplace_back(TraceEntry{block, pc, instr});
  }
  const std::deque<TraceEntry>& trace() const { return trace_; }
  void ClearTrace() { trace_.clear(); }

 private:
  static constexpr size_t kTraceCapacity = 4096;

  Memory memory_;
  CostModel cost_;
  std::array<uint32_t, kNumRegisters> regs_;
  uint32_t cc_lhs_ = 0;
  uint32_t cc_rhs_ = 0;
  uint32_t vbr_ = 0;
  bool supervisor_ = true;
  AddressFilter filter_;

  uint64_t cycles_ = 0;
  uint64_t instructions_ = 0;
  uint64_t mem_refs_ = 0;

  bool tracing_ = false;
  std::deque<TraceEntry> trace_;
};

// RAII measurement window over the machine's counters: construct, run code,
// then read the deltas. This is how all benchmark timings are taken.
class Stopwatch {
 public:
  explicit Stopwatch(const Machine& m)
      : machine_(m),
        cycles0_(m.cycles()),
        instrs0_(m.instructions()),
        refs0_(m.mem_refs()) {}

  uint64_t cycles() const { return machine_.cycles() - cycles0_; }
  uint64_t instructions() const { return machine_.instructions() - instrs0_; }
  uint64_t mem_refs() const { return machine_.mem_refs() - refs0_; }
  double micros() const { return machine_.cost_model().CyclesToMicros(cycles()); }

 private:
  const Machine& machine_;
  uint64_t cycles0_;
  uint64_t instrs0_;
  uint64_t refs0_;
};

}  // namespace synthesis

#endif  // SRC_MACHINE_MACHINE_H_
