#include "src/machine/executor.h"

#include <span>

namespace synthesis {

namespace {

// A byte loop's pattern: per instruction, its opcode and the roles its rd and
// rs fields play (kAny: the field is unused).
enum Role : uint8_t { kCount, kByte, kSrc, kSum, kDst, kHead, kNumRoles, kAny = kNumRoles };

struct LoopSlot {
  Opcode op;
  Role rd = kAny;
  Role rs = kAny;
};

constexpr LoopSlot kCsumLoop[kCsumLoopLength] = {
    {Opcode::kTst, kCount},       {Opcode::kBeq},         {Opcode::kLoad8, kByte, kSrc},
    {Opcode::kAdd, kSum, kByte},  {Opcode::kAddI, kSrc},  {Opcode::kSubI, kCount},
    {Opcode::kBra},
};

constexpr LoopSlot kRingCopyLoop[kRingCopyLoopLength] = {
    {Opcode::kTst, kCount},        {Opcode::kBeq},          {Opcode::kLoad8, kByte, kSrc},
    {Opcode::kLea, kDst, kHead},   {Opcode::kStore8, kDst, kByte},
    {Opcode::kAddI, kHead},        {Opcode::kAndI, kHead},  {Opcode::kAddI, kSrc},
    {Opcode::kSubI, kCount},       {Opcode::kBra},
};

// True if the code at pc follows `pattern`, each role held by one register,
// distinct roles by distinct registers below kNumRegisters, and the last
// instruction (the bra) branches back to pc.
bool MatchesLoop(std::span<const LoopSlot> pattern, const CodeBlock& blk, uint32_t pc) {
  if (blk.code.size() < size_t{pc} + pattern.size()) {
    return false;
  }
  uint8_t reg_of[kNumRoles] = {};
  bool bound[kNumRoles] = {};
  uint32_t used = 0;  // registers already holding a role
  auto bind = [&](Role role, uint8_t reg) {
    if (role == kAny) {
      return true;
    }
    if (bound[role]) {
      return reg_of[role] == reg;
    }
    if (reg >= kNumRegisters || (used >> reg & 1) != 0) {
      return false;
    }
    bound[role] = true;
    reg_of[role] = reg;
    used |= 1u << reg;
    return true;
  };
  for (size_t i = 0; i < pattern.size(); i++) {
    const Instr& in = blk.code[pc + i];
    if (in.op != pattern[i].op || !bind(pattern[i].rd, in.rd) || !bind(pattern[i].rs, in.rs)) {
      return false;
    }
  }
  return blk.code[pc + pattern.size() - 1].imm == static_cast<int32_t>(pc);
}

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

// What a stretch of host-run byte-loop iterations did.
struct ByteLoopStretch {
  uint64_t iterations = 0;
  uint32_t last_count = 0;  // what the last iteration's tst compared
};

// Runs up to `budget` whole iterations of the byte loop at `loop` (its length
// `len` from ByteLoopLength) over `regs` as the interpreter would, charging
// nothing. Stops at the loop's exit and before an iteration whose load or
// store would fail its access check. Out of line, so that the loop's roles
// and constants have the host's registers to themselves.
__attribute__((noinline)) ByteLoopStretch RunByteLoop(const Instr* loop, uint32_t len,
                                                      uint64_t budget, uint32_t* regs,
                                                      uint8_t* mem, uint64_t mem_size,
                                                      bool supervisor,
                                                      const AddressFilter& filter) {
  // Run's access_ok for a byte: the range check, then the quaspace filter in
  // user mode.
  auto ok = [&](Addr addr) {
    return static_cast<uint64_t>(addr) + 1 <= mem_size &&
           (supervisor || filter.Permits(addr, 1));
  };
  auto imm = [](const Instr& in) { return static_cast<uint32_t>(in.imm); };
  ByteLoopStretch run;
  uint32_t n = regs[loop[0].rd];
  uint32_t byte = regs[loop[2].rd];
  uint32_t src = regs[loop[2].rs];
  const Addr src_disp = imm(loop[2]);
  if (len == kCsumLoopLength) {
    uint32_t sum = regs[loop[3].rd];
    const uint32_t src_step = imm(loop[4]), n_step = imm(loop[5]);
    for (; run.iterations < budget && n != 0; run.iterations++) {
      const Addr from = src + src_disp;
      if (!ok(from)) {
        break;
      }
      run.last_count = n;
      byte = Memory::Read8(mem, from);
      sum += byte;
      src += src_step;
      n -= n_step;
    }
    regs[loop[3].rd] = sum;
  } else {
    uint32_t dst = regs[loop[3].rd];
    uint32_t head = regs[loop[3].rs];
    const uint32_t buf = imm(loop[3]), dst_disp = imm(loop[4]), head_step = imm(loop[5]);
    const uint32_t mask = imm(loop[6]), src_step = imm(loop[7]), n_step = imm(loop[8]);
    for (; run.iterations < budget && n != 0; run.iterations++) {
      const Addr from = src + src_disp;
      const Addr to = head + buf + dst_disp;
      if (!ok(from) || !ok(to)) {
        break;
      }
      run.last_count = n;
      byte = Memory::Read8(mem, from);
      dst = head + buf;
      Memory::Write8(mem, to, static_cast<uint8_t>(byte));
      head = (head + head_step) & mask;
      src += src_step;
      n -= n_step;
    }
    regs[loop[3].rd] = dst;
    regs[loop[3].rs] = head;
  }
  regs[loop[0].rd] = n;
  regs[loop[2].rd] = byte;
  regs[loop[2].rs] = src;
  return run;
}

// Both byte loops load their byte two instructions past the head, so a
// tst-headed loop of another kind (a shift or count loop) is turned away here
// without a call to the matcher.
inline __attribute__((always_inline)) bool MayHeadByteLoop(const CodeBlock& blk, uint32_t pc) {
  static_assert(kCsumLoop[2].op == kRingCopyLoop[2].op);
  return size_t{pc} + 2 < blk.code.size() && blk.code[pc + 2].op == kCsumLoop[2].op;
}

}  // namespace

uint32_t ByteLoopLength(const CodeBlock& blk, uint32_t pc) {
  if (MatchesLoop(kCsumLoop, blk, pc)) {
    return kCsumLoopLength;
  }
  if (MatchesLoop(kRingCopyLoop, blk, pc)) {
    return kRingCopyLoopLength;
  }
  return 0;
}

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

// Cache-line aligned, so that where the linker places Run does not move its
// hot loop across cache-line and fetch-block boundaries (ROADMAP item 6).
__attribute__((aligned(64))) RunResult Executor::Run(uint64_t max_steps) {
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
  // pc, this run's tallies and the machine state the loop touches live in
  // locals, which simulated memory writes cannot alias, and are published
  // and reloaded only where host code can look (see executor.h). The helpers
  // below are forced inline: an out-of-line call would take the locals'
  // addresses and send them back to memory.
  const CostModel& cost = machine_.cost_model();
  const CostRow* const rows = cost.rows();
  uint32_t pc = pc_;
  uint64_t instrs = 0, cycles = 0, refs = 0;
  uint64_t billed_instrs = 0, billed_cycles = 0, billed_refs = 0;
  uint32_t regs[kNumRegisters] = {};
  uint32_t cc_lhs = 0, cc_rhs = 0;
  uint8_t* mem = nullptr;
  uint64_t mem_size = 0;
  bool supervisor = true, tracing = false;
  // The current instruction's trace entry; it is charged before any host
  // code can record another.
  TraceEntry* traced = nullptr;

  auto load = [&]() __attribute__((always_inline)) {
    for (uint8_t i = 0; i < kNumRegisters; i++) {
      regs[i] = machine_.reg(i);
    }
    cc_lhs = machine_.cc_lhs();
    cc_rhs = machine_.cc_rhs();
    mem = machine_.memory().data();
    mem_size = machine_.memory().size();
    supervisor = machine_.supervisor();
    tracing = machine_.tracing();
  };

  auto publish = [&]() __attribute__((always_inline)) {
    machine_.Charge(cycles - billed_cycles, instrs - billed_instrs, refs - billed_refs);
    billed_instrs = instrs;
    billed_cycles = cycles;
    billed_refs = refs;
    pc_ = pc;
    for (uint8_t i = 0; i < kNumRegisters; i++) {
      machine_.set_reg(i, regs[i]);
    }
    machine_.SetCc(cc_lhs, cc_rhs);
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

  // The range check on every data access, then the quaspace filter in user
  // mode (§4.1).
  auto access_ok = [&](Addr addr, size_t len) __attribute__((always_inline)) {
    return static_cast<uint64_t>(addr) + len <= mem_size &&
           (supervisor || machine_.address_filter().Permits(addr, len));
  };

  auto charge = [&](uint32_t c, uint32_t m) __attribute__((always_inline)) {
    instrs++;
    cycles += c;
    refs += m;
    if (traced != nullptr) {
      traced->cycles = c;
    }
  };

  // The row charge of an opcode whose cost does not depend on imm.
  auto charge_row = [&](Opcode op, bool taken) __attribute__((always_inline)) {
    const CostRow& row = rows[static_cast<uint8_t>(op)];
    charge(row.cycles[taken], row.refs);
  };

  load();
  while (instrs < max_steps) {
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
    traced = tracing ? &machine_.Record(block_, pc, in) : nullptr;
    uint32_t next_pc = pc + 1;
    bool taken = false;

    // Each case either falls out to the shared row charge below, or charges
    // itself before host code runs or the run ends.
    switch (in.op) {
      case Opcode::kNop:
        break;

      case Opcode::kMoveI:
        regs[in.rd] = static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kMove:
        regs[in.rd] = regs[in.rs];
        break;
      case Opcode::kLea:
        regs[in.rd] = regs[in.rs] + static_cast<uint32_t>(in.imm);
        break;

      case Opcode::kLoad8:
      case Opcode::kLoad16:
      case Opcode::kLoad32: {
        Addr addr = regs[in.rs] + static_cast<uint32_t>(in.imm);
        size_t len = in.op == Opcode::kLoad8 ? 1 : in.op == Opcode::kLoad16 ? 2 : 4;
        if (!access_ok(addr, len)) {
          return fault(FaultKind::kBusError, addr);
        }
        regs[in.rd] = in.op == Opcode::kLoad8    ? Memory::Read8(mem, addr)
                      : in.op == Opcode::kLoad16 ? Memory::Read16(mem, addr)
                                                 : Memory::Read32(mem, addr);
        break;
      }
      case Opcode::kStore8:
      case Opcode::kStore16:
      case Opcode::kStore32: {
        Addr addr = regs[in.rd] + static_cast<uint32_t>(in.imm);
        size_t len = in.op == Opcode::kStore8 ? 1 : in.op == Opcode::kStore16 ? 2 : 4;
        if (!access_ok(addr, len)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t v = regs[in.rs];
        if (in.op == Opcode::kStore8) {
          Memory::Write8(mem, addr, static_cast<uint8_t>(v));
        } else if (in.op == Opcode::kStore16) {
          Memory::Write16(mem, addr, static_cast<uint16_t>(v));
        } else {
          Memory::Write32(mem, addr, v);
        }
        break;
      }

      case Opcode::kLoadA8:
      case Opcode::kLoadA16:
      case Opcode::kLoadA32: {
        Addr addr = static_cast<Addr>(in.imm);
        size_t len = in.op == Opcode::kLoadA8 ? 1 : in.op == Opcode::kLoadA16 ? 2 : 4;
        if (!access_ok(addr, len)) {
          return fault(FaultKind::kBusError, addr);
        }
        regs[in.rd] = in.op == Opcode::kLoadA8    ? Memory::Read8(mem, addr)
                      : in.op == Opcode::kLoadA16 ? Memory::Read16(mem, addr)
                                                  : Memory::Read32(mem, addr);
        break;
      }
      case Opcode::kStoreA8:
      case Opcode::kStoreA16:
      case Opcode::kStoreA32: {
        Addr addr = static_cast<Addr>(in.imm);
        size_t len = in.op == Opcode::kStoreA8 ? 1 : in.op == Opcode::kStoreA16 ? 2 : 4;
        if (!access_ok(addr, len)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t v = regs[in.rs];
        if (in.op == Opcode::kStoreA8) {
          Memory::Write8(mem, addr, static_cast<uint8_t>(v));
        } else if (in.op == Opcode::kStoreA16) {
          Memory::Write16(mem, addr, static_cast<uint16_t>(v));
        } else {
          Memory::Write32(mem, addr, v);
        }
        break;
      }
      case Opcode::kLoadIdx32: {
        Addr addr = static_cast<Addr>(in.imm) + regs[in.rs] * 4;
        if (!access_ok(addr, 4)) {
          return fault(FaultKind::kBusError, addr);
        }
        regs[in.rd] = Memory::Read32(mem, addr);
        break;
      }
      case Opcode::kStoreIdx32: {
        Addr addr = static_cast<Addr>(in.imm) + regs[in.rs] * 4;
        if (!access_ok(addr, 4)) {
          return fault(FaultKind::kBusError, addr);
        }
        Memory::Write32(mem, addr, regs[in.rd]);
        break;
      }

      case Opcode::kPush: {
        Addr sp = regs[kA7] - 4;
        if (!access_ok(sp, 4)) {
          return fault(FaultKind::kBusError, sp);
        }
        Memory::Write32(mem, sp, regs[in.rs]);
        regs[kA7] = sp;
        break;
      }
      case Opcode::kPop: {
        Addr sp = regs[kA7];
        if (!access_ok(sp, 4)) {
          return fault(FaultKind::kBusError, sp);
        }
        regs[in.rd] = Memory::Read32(mem, sp);
        regs[kA7] = sp + 4;
        break;
      }

      case Opcode::kAdd:
        regs[in.rd] += regs[in.rs];
        break;
      case Opcode::kAddI:
        regs[in.rd] += static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kSub:
        regs[in.rd] -= regs[in.rs];
        break;
      case Opcode::kSubI:
        regs[in.rd] -= static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kMulI:
        regs[in.rd] *= static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kAnd:
        regs[in.rd] &= regs[in.rs];
        break;
      case Opcode::kAndI:
        regs[in.rd] &= static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kOr:
        regs[in.rd] |= regs[in.rs];
        break;
      case Opcode::kOrI:
        regs[in.rd] |= static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kXor:
        regs[in.rd] ^= regs[in.rs];
        break;
      case Opcode::kLslI:
        regs[in.rd] <<= (in.imm & 31);
        break;
      case Opcode::kLsrI:
        regs[in.rd] >>= (in.imm & 31);
        break;

      case Opcode::kCmp:
        cc_lhs = regs[in.rd];
        cc_rhs = regs[in.rs];
        break;
      case Opcode::kCmpI:
        cc_lhs = regs[in.rd];
        cc_rhs = static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kTst:
        if (!tracing && regs[in.rd] != 0 && MayHeadByteLoop(*blk, pc)) {
          if (const uint32_t len = ByteLoopLength(*blk, pc); len != 0) {
            // Whole iterations as host code (see executor.h); the iteration
            // that would fault or pass max_steps, and the exit, are
            // interpreted from the head.
            const Instr* const loop = &blk->code[pc];
            const ByteLoopStretch run =
                RunByteLoop(loop, len, (max_steps - instrs) / len, regs, mem, mem_size,
                            supervisor, machine_.address_filter());
            if (run.iterations != 0) {
              uint32_t iter_cycles = 0, iter_refs = 0;
              for (uint32_t i = 0; i < len; i++) {
                const CostRow& row = rows[static_cast<uint8_t>(loop[i].op)];
                iter_cycles += row.cycles[i == len - 1];  // beq not taken, bra taken
                iter_refs += row.refs;
              }
              instrs += run.iterations * len;
              cycles += run.iterations * iter_cycles;
              refs += run.iterations * iter_refs;
              cc_lhs = run.last_count;
              cc_rhs = 0;
              continue;  // back at the head
            }
          }
        }
        cc_lhs = regs[in.rd];
        cc_rhs = 0;
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
        taken = in.op == Opcode::kBra || EvalBranch(in.op, cc_lhs, cc_rhs);
        if (taken) {
          next_pc = static_cast<uint32_t>(in.imm);
        }
        break;
      }

      case Opcode::kJsr:
      case Opcode::kJsrInd: {
        BlockId target =
            in.op == Opcode::kJsr ? in.imm : static_cast<BlockId>(regs[in.rs]);
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
        BlockId target = static_cast<BlockId>(regs[in.rs]);
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
          charge_row(in.op, false);
          return finish(RunOutcome::kReturned);
        }
        block_ = frames_.back().block;
        next_pc = frames_.back().pc;
        frames_.pop_back();
        blk = &store_.Get(block_);
        break;

      case Opcode::kCas:
      case Opcode::kCasA: {
        Addr addr = in.op == Opcode::kCas ? regs[in.rs] + static_cast<uint32_t>(in.imm)
                                          : static_cast<Addr>(in.imm);
        if (!access_ok(addr, 4)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t word = Memory::Read32(mem, addr);
        if (word == regs[kD0]) {
          Memory::Write32(mem, addr, regs[in.rd]);
          cc_lhs = 1;  // "equal": success
          cc_rhs = 1;
        } else {
          regs[kD0] = word;
          cc_lhs = 0;  // "not equal": failure
          cc_rhs = 1;
        }
        break;
      }

      case Opcode::kTrap: {
        charge_row(in.op, false);
        // The handler sees every instruction up to and including this trap
        // billed, the registers and condition codes they left, and pc_ at
        // the trap (a nested Call saves and restores it).
        publish();
        TrapAction action =
            trap_handler_ ? trap_handler_(in.imm, machine_) : TrapAction::kFault;
        // The handler may have changed any machine state, and replaced the
        // current block in the store (resynthesis).
        load();
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
        Addr base = regs[base_reg];
        size_t len = static_cast<size_t>(in.imm) * 4;
        if (!access_ok(base, len)) {
          return fault(FaultKind::kBusError, base);
        }
        int count = in.imm > static_cast<int32_t>(kNumRegisters)
                        ? kNumRegisters
                        : in.imm;
        for (int i = 0; i < count; i++) {
          Addr slot = base + static_cast<Addr>(4 * i);
          if (in.op == Opcode::kMovemSave) {
            Memory::Write32(mem, slot, regs[i]);
          } else {
            regs[i] = Memory::Read32(mem, slot);
          }
        }
        charge(cost.Cycles(in, false), CostModel::MemRefs(in));
        pc = next_pc;
        continue;
      }
      case Opcode::kCharge:
        charge(cost.Cycles(in, false), CostModel::MemRefs(in));
        pc = next_pc;
        continue;

      case Opcode::kSetVbr:
        machine_.set_vbr(regs[in.rs]);
        break;

      case Opcode::kHalt:
        charge_row(in.op, false);
        pc = next_pc;
        return finish(RunOutcome::kHalted);

      case Opcode::kNumOpcodes:
      default:
        return fault(FaultKind::kBadOpcode);
    }

    charge_row(in.op, taken);
    pc = next_pc;
  }
  return finish(RunOutcome::kStepLimit);
}

}  // namespace synthesis
