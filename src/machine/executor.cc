#include "src/machine/executor.h"

namespace synthesis {

namespace {

bool EvalBranch(Opcode op, uint32_t lhs, uint32_t rhs) {
  int32_t sl = static_cast<int32_t>(lhs);
  int32_t sr = static_cast<int32_t>(rhs);
  switch (op) {
    case Opcode::kBeq:
      return lhs == rhs;
    case Opcode::kBne:
      return lhs != rhs;
    case Opcode::kBlt:
      return sl < sr;
    case Opcode::kBge:
      return sl >= sr;
    case Opcode::kBgt:
      return sl > sr;
    case Opcode::kBle:
      return sl <= sr;
    case Opcode::kBhi:
      return lhs > rhs;
    case Opcode::kBls:
      return lhs <= rhs;
    default:
      return true;  // kBra
  }
}

}  // namespace

RunResult Executor::Call(BlockId entry, uint64_t max_steps) {
  if (!active_) {
    Start(entry);
    return Run(max_steps);
  }
  // Nested call: a trap handler running mid-Call re-enters the executor
  // (Procedure Chaining enqueues through the synthesized MP-SC put at
  // interrupt level, which is itself VM code). The outer session's position
  // is saved and restored around the nested run. A nested call must run to
  // completion — it cannot suspend (there is no saved session to resume
  // into); callers treat any non-kReturned outcome as failure.
  std::vector<Frame> frames = std::move(frames_);
  const BlockId block = block_;
  const uint32_t pc = pc_;
  Start(entry);
  RunResult r = Run(max_steps);
  frames_ = std::move(frames);
  block_ = block;
  pc_ = pc;
  active_ = true;
  return r;
}

void Executor::Start(BlockId entry) {
  frames_.clear();
  block_ = entry;
  pc_ = 0;
  active_ = true;
}

RunResult Executor::Run(uint64_t max_steps) {
  RunResult r;
  if (!active_) {
    r.fault = FaultKind::kBadBlock;
    return Finish(r, RunOutcome::kFault);
  }
  if (!store_.Valid(block_)) {
    r.fault = FaultKind::kBadBlock;
    return Finish(r, RunOutcome::kFault);
  }

  const CodeBlock* blk = &store_.Get(block_);
  // pc and this run's tallies live in locals, which simulated memory writes
  // cannot alias, and are published to pc_, the machine's counters and the
  // RunResult only where host code can look (see executor.h). The cost model
  // is copied for the same reason. The helpers below are forced inline: an
  // out-of-line call would take the locals' addresses and send them back to
  // memory.
  const CostModel cost = machine_.cost_model();
  uint32_t pc = pc_;
  uint64_t instrs = 0, cycles = 0, refs = 0;
  uint64_t billed_instrs = 0, billed_cycles = 0, billed_refs = 0;
  // The current instruction's trace entry; it is charged before any host
  // code can record another.
  TraceEntry* traced = nullptr;

  auto publish = [&]() __attribute__((always_inline)) {
    machine_.Charge(cycles - billed_cycles, instrs - billed_instrs, refs - billed_refs);
    billed_instrs = instrs;
    billed_cycles = cycles;
    billed_refs = refs;
    pc_ = pc;
  };

  auto finish = [&](RunOutcome outcome) __attribute__((always_inline)) {
    publish();
    r.instructions = instrs;
    r.cycles = cycles;
    r.mem_refs = refs;
    return Finish(r, outcome);
  };

  auto fault = [&](FaultKind kind, Addr addr = 0) __attribute__((always_inline)) {
    r.fault = kind;
    r.fault_addr = addr;
    return finish(RunOutcome::kFault);
  };

  auto charge = [&](const Instr& in, bool taken) __attribute__((always_inline)) {
    const uint32_t c = cost.Cycles(in, taken);
    instrs++;
    cycles += c;
    refs += CostModel::MemRefs(in);
    if (traced != nullptr) {
      traced->cycles = c;
    }
  };

  while (instrs < max_steps) {
    if (interrupt_poll_) {
      publish();
      if (interrupt_poll_()) {
        return finish(RunOutcome::kInterrupted);
      }
    }
    if (pc >= blk->code.size()) {
      // Falling off the end of a block behaves like kRts (implicit return).
      if (frames_.empty()) {
        return finish(RunOutcome::kReturned);
      }
      block_ = frames_.back().block;
      pc = frames_.back().pc;
      frames_.pop_back();
      blk = &store_.Get(block_);
      continue;
    }

    // A copy, not a reference: a trap handler may replace the block, and a
    // local the stores below cannot alias stays in registers.
    const Instr in = blk->code[pc];
    traced = machine_.tracing() ? &machine_.Record(block_, pc, in) : nullptr;
    uint32_t next_pc = pc + 1;
    bool taken = false;

    // Each case either falls out to the shared charge below, or charges
    // itself before host code runs or the run ends.
    switch (in.op) {
      case Opcode::kNop:
      case Opcode::kCharge:
        break;

      case Opcode::kMoveI:
        machine_.set_reg(in.rd, static_cast<uint32_t>(in.imm));
        break;
      case Opcode::kMove:
        machine_.set_reg(in.rd, machine_.reg(in.rs));
        break;
      case Opcode::kLea:
        machine_.set_reg(in.rd, machine_.reg(in.rs) + static_cast<uint32_t>(in.imm));
        break;

      case Opcode::kLoad8:
      case Opcode::kLoad16:
      case Opcode::kLoad32: {
        Addr addr = machine_.reg(in.rs) + static_cast<uint32_t>(in.imm);
        size_t len = in.op == Opcode::kLoad8 ? 1 : in.op == Opcode::kLoad16 ? 2 : 4;
        if (!machine_.AccessOk(addr, len)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t v = in.op == Opcode::kLoad8    ? machine_.memory().Read8(addr)
                     : in.op == Opcode::kLoad16 ? machine_.memory().Read16(addr)
                                                : machine_.memory().Read32(addr);
        machine_.set_reg(in.rd, v);
        break;
      }
      case Opcode::kStore8:
      case Opcode::kStore16:
      case Opcode::kStore32: {
        Addr addr = machine_.reg(in.rd) + static_cast<uint32_t>(in.imm);
        size_t len = in.op == Opcode::kStore8 ? 1 : in.op == Opcode::kStore16 ? 2 : 4;
        if (!machine_.AccessOk(addr, len)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t v = machine_.reg(in.rs);
        if (in.op == Opcode::kStore8) {
          machine_.memory().Write8(addr, static_cast<uint8_t>(v));
        } else if (in.op == Opcode::kStore16) {
          machine_.memory().Write16(addr, static_cast<uint16_t>(v));
        } else {
          machine_.memory().Write32(addr, v);
        }
        break;
      }

      case Opcode::kLoadA8:
      case Opcode::kLoadA16:
      case Opcode::kLoadA32: {
        Addr addr = static_cast<Addr>(in.imm);
        size_t len = in.op == Opcode::kLoadA8 ? 1 : in.op == Opcode::kLoadA16 ? 2 : 4;
        if (!machine_.AccessOk(addr, len)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t v = in.op == Opcode::kLoadA8    ? machine_.memory().Read8(addr)
                     : in.op == Opcode::kLoadA16 ? machine_.memory().Read16(addr)
                                                 : machine_.memory().Read32(addr);
        machine_.set_reg(in.rd, v);
        break;
      }
      case Opcode::kStoreA8:
      case Opcode::kStoreA16:
      case Opcode::kStoreA32: {
        Addr addr = static_cast<Addr>(in.imm);
        size_t len = in.op == Opcode::kStoreA8 ? 1 : in.op == Opcode::kStoreA16 ? 2 : 4;
        if (!machine_.AccessOk(addr, len)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t v = machine_.reg(in.rs);
        if (in.op == Opcode::kStoreA8) {
          machine_.memory().Write8(addr, static_cast<uint8_t>(v));
        } else if (in.op == Opcode::kStoreA16) {
          machine_.memory().Write16(addr, static_cast<uint16_t>(v));
        } else {
          machine_.memory().Write32(addr, v);
        }
        break;
      }
      case Opcode::kLoadIdx32: {
        Addr addr = static_cast<Addr>(in.imm) + machine_.reg(in.rs) * 4;
        if (!machine_.AccessOk(addr, 4)) {
          return fault(FaultKind::kBusError, addr);
        }
        machine_.set_reg(in.rd, machine_.memory().Read32(addr));
        break;
      }
      case Opcode::kStoreIdx32: {
        Addr addr = static_cast<Addr>(in.imm) + machine_.reg(in.rs) * 4;
        if (!machine_.AccessOk(addr, 4)) {
          return fault(FaultKind::kBusError, addr);
        }
        machine_.memory().Write32(addr, machine_.reg(in.rd));
        break;
      }

      case Opcode::kPush: {
        Addr sp = machine_.reg(kA7) - 4;
        if (!machine_.AccessOk(sp, 4)) {
          return fault(FaultKind::kBusError, sp);
        }
        machine_.memory().Write32(sp, machine_.reg(in.rs));
        machine_.set_reg(kA7, sp);
        break;
      }
      case Opcode::kPop: {
        Addr sp = machine_.reg(kA7);
        if (!machine_.AccessOk(sp, 4)) {
          return fault(FaultKind::kBusError, sp);
        }
        machine_.set_reg(in.rd, machine_.memory().Read32(sp));
        machine_.set_reg(kA7, sp + 4);
        break;
      }

      case Opcode::kAdd:
        machine_.set_reg(in.rd, machine_.reg(in.rd) + machine_.reg(in.rs));
        break;
      case Opcode::kAddI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) + static_cast<uint32_t>(in.imm));
        break;
      case Opcode::kSub:
        machine_.set_reg(in.rd, machine_.reg(in.rd) - machine_.reg(in.rs));
        break;
      case Opcode::kSubI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) - static_cast<uint32_t>(in.imm));
        break;
      case Opcode::kMulI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) * static_cast<uint32_t>(in.imm));
        break;
      case Opcode::kAnd:
        machine_.set_reg(in.rd, machine_.reg(in.rd) & machine_.reg(in.rs));
        break;
      case Opcode::kAndI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) & static_cast<uint32_t>(in.imm));
        break;
      case Opcode::kOr:
        machine_.set_reg(in.rd, machine_.reg(in.rd) | machine_.reg(in.rs));
        break;
      case Opcode::kOrI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) | static_cast<uint32_t>(in.imm));
        break;
      case Opcode::kXor:
        machine_.set_reg(in.rd, machine_.reg(in.rd) ^ machine_.reg(in.rs));
        break;
      case Opcode::kLslI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) << (in.imm & 31));
        break;
      case Opcode::kLsrI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) >> (in.imm & 31));
        break;

      case Opcode::kCmp:
        machine_.SetCc(machine_.reg(in.rd), machine_.reg(in.rs));
        break;
      case Opcode::kCmpI:
        machine_.SetCc(machine_.reg(in.rd), static_cast<uint32_t>(in.imm));
        break;
      case Opcode::kTst:
        machine_.SetCc(machine_.reg(in.rd), 0);
        break;

      case Opcode::kBra:
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBgt:
      case Opcode::kBle:
      case Opcode::kBhi:
      case Opcode::kBls: {
        taken = in.op == Opcode::kBra ||
                EvalBranch(in.op, machine_.cc_lhs(), machine_.cc_rhs());
        if (taken) {
          next_pc = static_cast<uint32_t>(in.imm);
        }
        break;
      }

      case Opcode::kJsr:
      case Opcode::kJsrInd: {
        BlockId target = in.op == Opcode::kJsr
                             ? in.imm
                             : static_cast<BlockId>(machine_.reg(in.rs));
        if (!store_.Valid(target)) {
          return fault(FaultKind::kBadBlock);
        }
        frames_.push_back(Frame{block_, next_pc});
        block_ = target;
        blk = &store_.Get(block_);
        next_pc = 0;
        break;
      }
      case Opcode::kJmpInd: {
        BlockId target = static_cast<BlockId>(machine_.reg(in.rs));
        if (!store_.Valid(target)) {
          return fault(FaultKind::kBadBlock);
        }
        block_ = target;
        blk = &store_.Get(block_);
        next_pc = 0;
        break;
      }
      case Opcode::kRts:
        if (frames_.empty()) {
          charge(in, false);
          return finish(RunOutcome::kReturned);
        }
        block_ = frames_.back().block;
        next_pc = frames_.back().pc;
        frames_.pop_back();
        blk = &store_.Get(block_);
        break;

      case Opcode::kCas:
      case Opcode::kCasA: {
        Addr addr = in.op == Opcode::kCas
                        ? machine_.reg(in.rs) + static_cast<uint32_t>(in.imm)
                        : static_cast<Addr>(in.imm);
        if (!machine_.AccessOk(addr, 4)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t mem = machine_.memory().Read32(addr);
        uint32_t expect = machine_.reg(kD0);
        if (mem == expect) {
          machine_.memory().Write32(addr, machine_.reg(in.rd));
          machine_.SetCc(1, 1);  // "equal": success
        } else {
          machine_.set_reg(kD0, mem);
          machine_.SetCc(0, 1);  // "not equal": failure
        }
        break;
      }

      case Opcode::kTrap: {
        charge(in, false);
        // The handler sees every instruction up to and including this trap
        // billed, and pc_ at the trap (a nested Call saves and restores it).
        publish();
        TrapAction action =
            trap_handler_ ? trap_handler_(in.imm, machine_) : TrapAction::kFault;
        // The handler may have replaced the current block in the store
        // (resynthesis); refresh the cached reference.
        blk = &store_.Get(block_);
        switch (action) {
          case TrapAction::kContinue:
            break;
          case TrapAction::kBlock:
            // Leave pc at the trap so Resume() retries it.
            r.trap_vector = in.imm;
            return finish(RunOutcome::kBlocked);
          case TrapAction::kHalt:
            pc = next_pc;
            return finish(RunOutcome::kHalted);
          case TrapAction::kFault:
            return fault(FaultKind::kBadOpcode);
        }
        pc = next_pc;
        continue;  // charged before the handler ran
      }

      case Opcode::kMovemSave:
      case Opcode::kMovemLoad: {
        uint8_t base_reg = in.op == Opcode::kMovemSave ? in.rd : in.rs;
        Addr base = machine_.reg(base_reg);
        size_t len = static_cast<size_t>(in.imm) * 4;
        if (!machine_.AccessOk(base, len)) {
          return fault(FaultKind::kBusError, base);
        }
        int count = in.imm > static_cast<int32_t>(kNumRegisters)
                        ? kNumRegisters
                        : in.imm;
        for (int i = 0; i < count; i++) {
          Addr slot = base + static_cast<Addr>(4 * i);
          if (in.op == Opcode::kMovemSave) {
            machine_.memory().Write32(slot, machine_.reg(static_cast<uint8_t>(i)));
          } else {
            machine_.set_reg(static_cast<uint8_t>(i), machine_.memory().Read32(slot));
          }
        }
        break;
      }

      case Opcode::kSetVbr:
        machine_.set_vbr(machine_.reg(in.rs));
        break;

      case Opcode::kHalt:
        charge(in, false);
        pc = next_pc;
        return finish(RunOutcome::kHalted);

      case Opcode::kNumOpcodes:
        return fault(FaultKind::kBadOpcode);
    }

    charge(in, taken);
    pc = next_pc;
  }
  return finish(RunOutcome::kStepLimit);
}

}  // namespace synthesis
