// 68020-calibrated cycle cost model.
//
// The paper's Quamachine is a 68020 with no-wait-state memory, normally run at
// 50 MHz; setting 16 MHz plus one memory wait state closely emulates a
// SUN-3/160 (§6.1). We reproduce that knob: time in microseconds is
// cycles / clock_mhz, and each memory reference pays (2 + wait_states) cycles
// on top of the opcode's base cost.
//
// Base costs approximate 68020 best-case timings (register ops 2-4 clocks,
// multi-register MOVEM amortized per register, exceptions ~20 clocks). The
// anchor points used for calibration are the paper's own numbers: an 11 µs
// full context switch, a 3 µs A/D interrupt, and the 11-instruction MP-SC
// Q_put path; tests/machine_test.cc pins every row of the table.
//
// Costs are a static fact of each opcode, so they live in one table with a
// row per opcode (Factoring Invariants applied to the simulator): the kernel
// monitor and the benches read it through Cycles() and MemRefs(). A CostModel
// also folds the table once for its machine config into one CostRow per
// opcode, with the memory-reference penalty included, so the executor's
// shared charge is two row reads; only kMovemSave, kMovemLoad and kCharge,
// whose cost depends on imm, go through Cycles()/MemRefs() there.
#ifndef SRC_MACHINE_COST_MODEL_H_
#define SRC_MACHINE_COST_MODEL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "src/machine/instr.h"

namespace synthesis {

struct MachineConfig {
  // 16 MHz + 1 wait state emulates a SUN-3/160; 50 MHz + 0 wait states is the
  // native Quamachine configuration.
  uint32_t clock_mhz = 16;
  uint32_t wait_states = 1;

  static MachineConfig SunEmulation() { return MachineConfig{16, 1}; }
  static MachineConfig NativeQuamachine() { return MachineConfig{50, 0}; }
};

// One row of the cost table. Only kMovemSave/kMovemLoad (cycles and
// references) and kCharge (cycles) have an immediate-dependent part; every
// other row has zero per-imm terms.
struct OpCost {
  uint8_t base[2] = {2, 2};  // base cycles excluding data-memory references,
                             // indexed by branch_taken
  uint8_t refs = 0;          // data-memory references
  uint8_t imm_base = 0;      // base cycles added per unit of imm
  uint8_t imm_refs = 0;      // memory references added per unit of imm
};

// Indexed by the opcode byte; values past kNumOpcodes keep the default row.
inline constexpr std::array<OpCost, 256> kOpCosts = [] {
  std::array<OpCost, 256> t{};
  auto set = [&t](std::initializer_list<Opcode> ops, OpCost c) {
    for (Opcode op : ops) {
      t[static_cast<size_t>(op)] = c;
    }
  };
  auto fixed = [](uint8_t base, uint8_t refs = 0) { return OpCost{{base, base}, refs}; };
  using enum Opcode;
  set({kNop, kMove, kHalt}, fixed(2));
  set({kMoveI, kLea}, fixed(4));
  set({kLoad8, kLoad16, kLoad32, kStore8, kStore16, kStore32, kLoadA8, kLoadA16,
       kLoadA32, kStoreA8, kStoreA16, kStoreA32},
      fixed(4, 1));
  set({kLoadIdx32, kStoreIdx32}, fixed(6, 1));  // scaled-index address calculation
  set({kPush, kPop}, fixed(4, 1));
  set({kAdd, kSub, kAnd, kOr, kXor, kCmp, kTst}, fixed(2));
  set({kAddI, kSubI, kAndI, kOrI, kCmpI, kLslI, kLsrI}, fixed(4));
  set({kMulI}, fixed(28));
  set({kBra}, fixed(6));
  set({kBeq, kBne, kBlt, kBge, kBgt, kBle, kBhi, kBls}, {{4, 6}});
  set({kJsr}, fixed(8, 1));  // pushes the return frame
  set({kJsrInd}, fixed(10, 1));
  set({kJmpInd}, fixed(6));
  set({kRts}, fixed(8, 1));  // pops the return frame
  set({kCas, kCasA}, fixed(12, 2));  // read-modify-write bus cycle
  set({kTrap}, fixed(20, 4));  // exception frame build + vector fetch
  // Microcoded multi-register move: small setup plus 1 cycle/register of
  // sequencing, plus one bus cycle per register.
  set({kMovemSave, kMovemLoad}, {{4, 4}, 0, 1, 1});
  set({kSetVbr}, fixed(8));
  set({kCharge}, {{0, 0}, 0, 1, 0});  // imm extra cycles
  return t;
}();

// One opcode's charge under one machine config, imm-dependent terms excluded.
struct CostRow {
  uint32_t cycles[2];  // memory-reference penalty included; indexed by branch_taken
  uint32_t refs;       // data-memory references
};

class CostModel {
 public:
  explicit CostModel(MachineConfig config) : config_(config) {
    for (size_t op = 0; op < kOpCosts.size(); op++) {
      const OpCost& c = kOpCosts[op];
      for (int taken = 0; taken < 2; taken++) {
        rows_[op].cycles[taken] = c.base[taken] + c.refs * MemCycles();
      }
      rows_[op].refs = c.refs;
    }
  }

  const MachineConfig& config() const { return config_; }

  // This config's rows, indexed by the opcode byte.
  const CostRow* rows() const { return rows_.data(); }

  // Cycles for one memory reference (bus cycle plus wait states).
  uint32_t MemCycles() const { return 2 + config_.wait_states; }

  // Number of data-memory references the instruction performs.
  static uint32_t MemRefs(const Instr& instr) {
    const OpCost& c = Row(instr.op);
    return c.refs + c.imm_refs * static_cast<uint32_t>(instr.imm);
  }

  // Total cycle cost of executing `instr`. `branch_taken` matters only for
  // conditional branches. Includes memory-reference penalties.
  uint32_t Cycles(const Instr& instr, bool branch_taken) const {
    const OpCost& c = Row(instr.op);
    return rows_[static_cast<uint8_t>(instr.op)].cycles[branch_taken] +
           (c.imm_base + c.imm_refs * MemCycles()) * static_cast<uint32_t>(instr.imm);
  }

  // Convert an accumulated cycle count to microseconds of virtual time.
  double CyclesToMicros(uint64_t cycles) const {
    return static_cast<double>(cycles) / config_.clock_mhz;
  }

 private:
  static const OpCost& Row(Opcode op) { return kOpCosts[static_cast<uint8_t>(op)]; }

  MachineConfig config_;
  std::array<CostRow, kOpCosts.size()> rows_{};
};

}  // namespace synthesis

#endif  // SRC_MACHINE_COST_MODEL_H_
