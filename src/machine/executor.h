// The instruction interpreter. Executes CodeBlocks against a Machine,
// charging the cost model and maintaining the instruction / memory-reference
// counters. Supports suspend/resume so that a simulated thread can block in a
// trap and be continued later.
//
// Between two host boundaries, a trap-handler call and an exit, only Run()
// touches the machine, so it keeps in locals what its loop reads and writes:
// pc, this run's tallies, the 16 registers, the condition-code pair, the
// memory base and size, and the supervisor and tracing flags. It publishes
// the tallies, registers, condition codes and current_pc() to the machine
// before every trap-handler call and on every exit, and reloads the machine
// state after the handler returns. So a trap handler, a nested Call or a
// Stopwatch always sees every earlier instruction billed exactly once and
// the registers those instructions wrote, and whatever the handler changes
// (registers, condition codes, memory, the supervisor flag, tracing) holds
// from the next instruction on. Host code must not touch the machine between
// those boundaries.
//
// With tracing off, Run executes whole iterations of the two byte loops the
// kernel synthesizes (ByteLoopLength: the checksum sum loop and the masked
// ring copy) as host code over those locals. The paper's numbers are path
// lengths times 68020 cycle costs, so every count stays exact: an iteration
// adds the loop's length to the instruction count and the sum of its cost
// rows (beq not taken, bra taken) to the cycles and references; its accesses
// pass the same range and quaspace checks before it changes anything; bytes
// move one at a time in program order; and the registers and condition codes
// end as the interpreter leaves them. An iteration that would fault or pass
// max_steps, and the loop's exit, are interpreted, so a run stops or faults at
// the same instruction. A traced run interprets every instruction, so the
// trace keeps one entry per instruction.
#ifndef SRC_MACHINE_EXECUTOR_H_
#define SRC_MACHINE_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/machine/code_store.h"
#include "src/machine/machine.h"

namespace synthesis {

enum class RunOutcome {
  kHalted,       // executed kHalt
  kReturned,     // kRts with an empty call stack: the entry block returned
  kBlocked,      // a trap handler asked to suspend; Resume() retries the trap
  kFault,        // bus error / bad block / bad opcode / stack underflow
  kStepLimit,    // max_steps exhausted; Resume() continues
};

enum class FaultKind {
  kNone,
  kBusError,
  kBadBlock,
  kBadOpcode,
  kStackUnderflow,
};

struct RunResult {
  RunOutcome outcome = RunOutcome::kHalted;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t mem_refs = 0;
  FaultKind fault = FaultKind::kNone;
  Addr fault_addr = 0;
  int trap_vector = -1;  // vector of the trap that blocked, if kBlocked
};

// What a trap handler tells the executor to do next.
enum class TrapAction {
  kContinue,  // trap serviced; execution proceeds after the trap instruction
  kBlock,     // suspend; on Resume() the trap instruction re-executes (retry)
  kHalt,      // stop execution as if kHalt had run
  kFault,     // treat as an error trap the handler could not service
};

using TrapHandler = std::function<TrapAction(int vector, Machine& machine)>;

// The byte loops whose iterations Run executes as host code, by length.
inline constexpr uint32_t kCsumLoopLength = 7;
inline constexpr uint32_t kRingCopyLoopLength = 10;

// The length of the byte loop a kTst at `pc` heads, or 0 if it heads none:
//   checksum sum (CsumTemplate):
//     tst n; beq; load8 t,d(p); add s,t; addi p,#; subi n,#; bra pc
//   masked ring copy (the segment processor's byte copy):
//     tst n; beq; load8 t,d(src); lea a,buf(h); store8 d'(a),t;
//     addi h,#; andi h,#mask; addi src,#; subi n,#; bra pc
// Only when the register roles are pairwise distinct and below kNumRegisters;
// the immediates and the beq target are free.
uint32_t ByteLoopLength(const CodeBlock& blk, uint32_t pc);

class Executor {
 public:
  Executor(Machine& machine, const CodeStore& store)
      : machine_(machine), store_(store) {}

  void SetTrapHandler(TrapHandler handler) { trap_handler_ = std::move(handler); }

  // One-shot convenience: Start + Run to completion. Re-entrant: when called
  // from a trap handler while a session is active (interrupt-level services
  // like Procedure Chaining run VM code mid-run), the outer session is saved
  // and restored around the nested run. Nested runs must complete — they
  // cannot suspend.
  RunResult Call(BlockId entry, uint64_t max_steps = kDefaultMaxSteps);

  // Resumable session. Start resets the call stack to `entry`.
  void Start(BlockId entry);
  RunResult Run(uint64_t max_steps = kDefaultMaxSteps);
  bool active() const { return active_; }

  // Position of the next instruction to execute (valid while active).
  BlockId current_block() const { return block_; }
  uint32_t current_pc() const { return pc_; }

  static constexpr uint64_t kDefaultMaxSteps = 100'000'000;

 private:
  struct Frame {
    BlockId block;
    uint32_t pc;
  };

  RunResult Finish(RunResult r, RunOutcome outcome) {
    r.outcome = outcome;
    active_ = outcome == RunOutcome::kBlocked || outcome == RunOutcome::kStepLimit;
    return r;
  }

  Machine& machine_;
  const CodeStore& store_;
  TrapHandler trap_handler_;

  std::vector<Frame> frames_;
  BlockId block_ = kInvalidBlock;
  uint32_t pc_ = 0;
  bool active_ = false;
};

}  // namespace synthesis

#endif  // SRC_MACHINE_EXECUTOR_H_
