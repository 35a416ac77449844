// Differential fuzzing of the executor against a plain reference stepper.
//
// Executor::Run keeps pc, its tallies, the registers, the condition codes,
// the memory base and the supervisor and tracing flags in locals between
// host boundaries, and charges most opcodes from per-config cost rows. The
// reference below does none of that: one switch, the machine's own accessors
// for every read and write, and CostModel::Cycles/MemRefs per instruction.
// Random programs over every opcode (three blocks calling and jumping into
// each other, branches anywhere, accesses in and out of range and in and out
// of a quaspace filter) run on both in random step-limited slices, with a
// trap handler that randomly mutates registers, condition codes, memory, the
// supervisor flag and tracing, and picks any TrapAction. Half the blocks also
// hold one of the two byte loops Run executes as host code (ByteLoopLength),
// with counts, pointers, masks and buffers that run it off the end of memory
// or out of the quaspace partway through, and ring copies that overlap their
// source. After every slice both sides must agree on the RunResult, the whole
// machine state and the position; every handler call must see the same
// state; the traces must match entry for entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/machine/code_store.h"
#include "src/machine/executor.h"
#include "src/machine/machine.h"

namespace synthesis {
namespace {

constexpr size_t kMem = 1024;
constexpr AddrRange kQuaspace{64, 700};
constexpr int kBlocks = 3;  // ids 1..3

size_t Width(Opcode op) {
  switch (op) {
    case Opcode::kLoad8:
    case Opcode::kStore8:
    case Opcode::kLoadA8:
    case Opcode::kStoreA8:
      return 1;
    case Opcode::kLoad16:
    case Opcode::kStore16:
    case Opcode::kLoadA16:
    case Opcode::kStoreA16:
      return 2;
    default:
      return 4;
  }
}

class RefStepper {
 public:
  RefStepper(Machine& m, const CodeStore& store) : m_(m), store_(store) {}

  // Fetches of a byte-loop head with tracing off and a nonzero count, by loop
  // length: where Run may execute iterations as host code.
  std::map<uint32_t, int> loop_heads;

  void SetTrapHandler(TrapHandler handler) { handler_ = std::move(handler); }
  void Start(BlockId entry) {
    frames_.clear();
    block_ = entry;
    pc_ = 0;
    active_ = true;
  }
  bool active() const { return active_; }
  BlockId current_block() const { return block_; }
  uint32_t current_pc() const { return pc_; }

  RunResult Run(uint64_t max_steps) {
    RunResult r;
    auto finish = [&](RunOutcome outcome) {
      r.outcome = outcome;
      active_ = outcome == RunOutcome::kBlocked || outcome == RunOutcome::kStepLimit;
      return r;
    };
    auto fault = [&](FaultKind kind, Addr addr) {
      r.fault = kind;
      r.fault_addr = addr;
      return finish(RunOutcome::kFault);
    };
    if (!active_ || !store_.Valid(block_)) {
      return fault(FaultKind::kBadBlock, 0);
    }
    while (r.instructions < max_steps) {
      const CodeBlock& blk = store_.Get(block_);
      if (pc_ >= blk.code.size()) {
        if (frames_.empty()) {
          return finish(RunOutcome::kReturned);
        }
        block_ = frames_.back().block;
        pc_ = frames_.back().pc;
        frames_.pop_back();
        continue;
      }
      const Instr in = blk.code[pc_];
      if (in.op == Opcode::kTst && !m_.tracing() && m_.reg(in.rd) != 0) {
        if (const uint32_t len = ByteLoopLength(blk, pc_); len != 0) {
          loop_heads[len]++;
        }
      }
      TraceEntry* traced = m_.tracing() ? &m_.Record(block_, pc_, in) : nullptr;
      uint32_t next = pc_ + 1;
      bool taken = false;
      auto charge = [&] {
        const uint32_t c = m_.cost_model().Cycles(in, taken);
        const uint32_t refs = CostModel::MemRefs(in);
        m_.Charge(c, 1, refs);
        r.instructions++;
        r.cycles += c;
        r.mem_refs += refs;
        if (traced != nullptr) {
          traced->cycles = c;
        }
      };
      auto ok = [&](Addr addr, size_t len) {
        return m_.memory().InRange(addr, len) &&
               (m_.supervisor() || m_.address_filter().Permits(addr, len));
      };
      auto reg = [&](uint8_t i) { return m_.reg(i); };
      const uint32_t imm = static_cast<uint32_t>(in.imm);
      Memory& mem = m_.memory();
      switch (in.op) {
        case Opcode::kNop:
        case Opcode::kCharge:
          break;
        case Opcode::kMoveI:
          m_.set_reg(in.rd, imm);
          break;
        case Opcode::kMove:
          m_.set_reg(in.rd, reg(in.rs));
          break;
        case Opcode::kLea:
          m_.set_reg(in.rd, reg(in.rs) + imm);
          break;
        case Opcode::kLoad8:
        case Opcode::kLoad16:
        case Opcode::kLoad32:
        case Opcode::kLoadA8:
        case Opcode::kLoadA16:
        case Opcode::kLoadA32: {
          const Addr addr = in.op >= Opcode::kLoadA8 ? imm : reg(in.rs) + imm;
          const size_t len = Width(in.op);
          if (!ok(addr, len)) {
            return fault(FaultKind::kBusError, addr);
          }
          m_.set_reg(in.rd, len == 1   ? mem.Read8(addr)
                            : len == 2 ? mem.Read16(addr)
                                       : mem.Read32(addr));
          break;
        }
        case Opcode::kStore8:
        case Opcode::kStore16:
        case Opcode::kStore32:
        case Opcode::kStoreA8:
        case Opcode::kStoreA16:
        case Opcode::kStoreA32: {
          const Addr addr = in.op >= Opcode::kStoreA8 ? imm : reg(in.rd) + imm;
          const size_t len = Width(in.op);
          if (!ok(addr, len)) {
            return fault(FaultKind::kBusError, addr);
          }
          if (len == 1) {
            mem.Write8(addr, static_cast<uint8_t>(reg(in.rs)));
          } else if (len == 2) {
            mem.Write16(addr, static_cast<uint16_t>(reg(in.rs)));
          } else {
            mem.Write32(addr, reg(in.rs));
          }
          break;
        }
        case Opcode::kLoadIdx32:
        case Opcode::kStoreIdx32: {
          const Addr addr = imm + reg(in.rs) * 4;
          if (!ok(addr, 4)) {
            return fault(FaultKind::kBusError, addr);
          }
          if (in.op == Opcode::kLoadIdx32) {
            m_.set_reg(in.rd, mem.Read32(addr));
          } else {
            mem.Write32(addr, reg(in.rd));
          }
          break;
        }
        case Opcode::kPush: {
          const Addr sp = reg(kA7) - 4;
          if (!ok(sp, 4)) {
            return fault(FaultKind::kBusError, sp);
          }
          mem.Write32(sp, reg(in.rs));
          m_.set_reg(kA7, sp);
          break;
        }
        case Opcode::kPop: {
          const Addr sp = reg(kA7);
          if (!ok(sp, 4)) {
            return fault(FaultKind::kBusError, sp);
          }
          m_.set_reg(in.rd, mem.Read32(sp));
          m_.set_reg(kA7, sp + 4);
          break;
        }
        case Opcode::kAdd:
          m_.set_reg(in.rd, reg(in.rd) + reg(in.rs));
          break;
        case Opcode::kAddI:
          m_.set_reg(in.rd, reg(in.rd) + imm);
          break;
        case Opcode::kSub:
          m_.set_reg(in.rd, reg(in.rd) - reg(in.rs));
          break;
        case Opcode::kSubI:
          m_.set_reg(in.rd, reg(in.rd) - imm);
          break;
        case Opcode::kMulI:
          m_.set_reg(in.rd, reg(in.rd) * imm);
          break;
        case Opcode::kAnd:
          m_.set_reg(in.rd, reg(in.rd) & reg(in.rs));
          break;
        case Opcode::kAndI:
          m_.set_reg(in.rd, reg(in.rd) & imm);
          break;
        case Opcode::kOr:
          m_.set_reg(in.rd, reg(in.rd) | reg(in.rs));
          break;
        case Opcode::kOrI:
          m_.set_reg(in.rd, reg(in.rd) | imm);
          break;
        case Opcode::kXor:
          m_.set_reg(in.rd, reg(in.rd) ^ reg(in.rs));
          break;
        case Opcode::kLslI:
          m_.set_reg(in.rd, reg(in.rd) << (imm & 31));
          break;
        case Opcode::kLsrI:
          m_.set_reg(in.rd, reg(in.rd) >> (imm & 31));
          break;
        case Opcode::kCmp:
          m_.SetCc(reg(in.rd), reg(in.rs));
          break;
        case Opcode::kCmpI:
          m_.SetCc(reg(in.rd), imm);
          break;
        case Opcode::kTst:
          m_.SetCc(reg(in.rd), 0);
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
          const uint32_t ul = m_.cc_lhs(), ur = m_.cc_rhs();
          const int32_t sl = static_cast<int32_t>(ul), sr = static_cast<int32_t>(ur);
          taken = in.op == Opcode::kBra ||
                  (in.op == Opcode::kBeq && ul == ur) || (in.op == Opcode::kBne && ul != ur) ||
                  (in.op == Opcode::kBlt && sl < sr) || (in.op == Opcode::kBge && sl >= sr) ||
                  (in.op == Opcode::kBgt && sl > sr) || (in.op == Opcode::kBle && sl <= sr) ||
                  (in.op == Opcode::kBhi && ul > ur) || (in.op == Opcode::kBls && ul <= ur);
          if (taken) {
            next = imm;
          }
          break;
        }
        case Opcode::kJsr:
        case Opcode::kJsrInd:
        case Opcode::kJmpInd: {
          const BlockId target =
              in.op == Opcode::kJsr ? in.imm : static_cast<BlockId>(reg(in.rs));
          if (!store_.Valid(target)) {
            return fault(FaultKind::kBadBlock, 0);
          }
          if (in.op != Opcode::kJmpInd) {
            frames_.push_back({block_, next});
          }
          block_ = target;
          next = 0;
          break;
        }
        case Opcode::kRts:
          if (frames_.empty()) {
            charge();
            return finish(RunOutcome::kReturned);
          }
          block_ = frames_.back().block;
          next = frames_.back().pc;
          frames_.pop_back();
          break;
        case Opcode::kCas:
        case Opcode::kCasA: {
          const Addr addr = in.op == Opcode::kCas ? reg(in.rs) + imm : imm;
          if (!ok(addr, 4)) {
            return fault(FaultKind::kBusError, addr);
          }
          const uint32_t word = mem.Read32(addr);
          if (word == reg(kD0)) {
            mem.Write32(addr, reg(in.rd));
            m_.SetCc(1, 1);
          } else {
            m_.set_reg(kD0, word);
            m_.SetCc(0, 1);
          }
          break;
        }
        case Opcode::kTrap: {
          charge();
          const TrapAction action = handler_ ? handler_(in.imm, m_) : TrapAction::kFault;
          switch (action) {
            case TrapAction::kContinue:
              pc_ = next;
              continue;
            case TrapAction::kBlock:
              r.trap_vector = in.imm;
              return finish(RunOutcome::kBlocked);
            case TrapAction::kHalt:
              pc_ = next;
              return finish(RunOutcome::kHalted);
            case TrapAction::kFault:
              return fault(FaultKind::kBadOpcode, 0);
          }
          break;
        }
        case Opcode::kMovemSave:
        case Opcode::kMovemLoad: {
          const Addr base = reg(in.op == Opcode::kMovemSave ? in.rd : in.rs);
          if (!ok(base, static_cast<size_t>(in.imm) * 4)) {
            return fault(FaultKind::kBusError, base);
          }
          for (int i = 0; i < in.imm && i < kNumRegisters; i++) {
            const uint8_t ri = static_cast<uint8_t>(i);
            if (in.op == Opcode::kMovemSave) {
              mem.Write32(base + 4 * i, reg(ri));
            } else {
              m_.set_reg(ri, mem.Read32(base + 4 * i));
            }
          }
          break;
        }
        case Opcode::kSetVbr:
          m_.set_vbr(reg(in.rs));
          break;
        case Opcode::kHalt:
          charge();
          pc_ = next;
          return finish(RunOutcome::kHalted);
        default:
          return fault(FaultKind::kBadOpcode, 0);
      }
      charge();
      pc_ = next;
    }
    return finish(RunOutcome::kStepLimit);
  }

 private:
  struct Frame {
    BlockId block;
    uint32_t pc;
  };

  Machine& m_;
  const CodeStore& store_;
  TrapHandler handler_;
  std::vector<Frame> frames_;
  BlockId block_ = kInvalidBlock;
  uint32_t pc_ = 0;
  bool active_ = false;
};

// What a trap handler saw, on one side.
struct Seen {
  int vector;
  uint32_t regs[kNumRegisters];
  uint32_t cc_lhs, cc_rhs;
  uint64_t cycles, instructions, mem_refs;
  bool supervisor;
  BlockId block;
  uint32_t pc;

  friend bool operator==(const Seen&, const Seen&) = default;
};

// An address-like value: mostly in range, sometimes just past the end, now
// and then anywhere.
uint32_t RandomAddr(std::mt19937& rng) {
  switch (rng() % 8) {
    case 0:
      return kMem - 8 + rng() % 16;
    case 1:
      return rng();
    default:
      return rng() % kMem;
  }
}

Instr RandomInstr(std::mt19937& rng, int len) {
  Instr in;
  // Every opcode, plus the bad-opcode byte and one past it; one in ten is a
  // trap, so most programs cross the host boundary several times.
  const uint32_t pick = rng() % (static_cast<uint32_t>(Opcode::kNumOpcodes) + 2);
  in.op = rng() % 10 == 0 ? Opcode::kTrap
          : pick <= static_cast<uint32_t>(Opcode::kNumOpcodes)
              ? static_cast<Opcode>(pick)
              : static_cast<Opcode>(200);
  in.rd = static_cast<uint8_t>(rng() % kNumRegisters);
  in.rs = static_cast<uint8_t>(rng() % kNumRegisters);
  switch (in.op) {
    case Opcode::kBra:
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBgt:
    case Opcode::kBle:
    case Opcode::kBhi:
    case Opcode::kBls:
      in.imm = static_cast<int32_t>(rng() % (len + 3));  // past the end returns
      break;
    case Opcode::kJsr:
      in.imm = static_cast<int32_t>(rng() % (kBlocks + 2));  // 0 and 4 are invalid
      break;
    case Opcode::kMoveI:
      in.imm = static_cast<int32_t>(rng() % 3 == 0 ? rng() % (kBlocks + 2) : RandomAddr(rng));
      break;
    case Opcode::kTrap:
      in.imm = static_cast<int32_t>(rng() % 4);
      break;
    case Opcode::kMovemSave:
    case Opcode::kMovemLoad:
      in.imm = static_cast<int32_t>(rng() % 20) - 1;
      break;
    case Opcode::kCharge:
    case Opcode::kLslI:
    case Opcode::kLsrI:
      in.imm = static_cast<int32_t>(rng() % 40);
      break;
    case Opcode::kLoadA8:
    case Opcode::kLoadA16:
    case Opcode::kLoadA32:
    case Opcode::kStoreA8:
    case Opcode::kStoreA16:
    case Opcode::kStoreA32:
    case Opcode::kCasA:
    case Opcode::kLoadIdx32:
    case Opcode::kStoreIdx32:
      in.imm = static_cast<int32_t>(RandomAddr(rng));
      break;
    default:
      in.imm = static_cast<int32_t>(rng() % 80) - 8;
      break;
  }
  return in;
}

// One side's trap handler: logs what it sees, then mutates the machine and
// picks an action, drawing from its own copy of the handler's random stream.
TrapHandler RandomHandler(uint32_t seed, std::vector<Seen>& log,
                          std::function<std::pair<BlockId, uint32_t>()> position) {
  auto rng = std::make_shared<std::mt19937>(seed);
  return [rng, &log, position](int vector, Machine& m) {
    Seen s{};
    s.vector = vector;
    for (uint8_t i = 0; i < kNumRegisters; i++) {
      s.regs[i] = m.reg(i);
    }
    s.cc_lhs = m.cc_lhs();
    s.cc_rhs = m.cc_rhs();
    s.cycles = m.cycles();
    s.instructions = m.instructions();
    s.mem_refs = m.mem_refs();
    s.supervisor = m.supervisor();
    std::tie(s.block, s.pc) = position();
    log.push_back(s);

    std::mt19937& r = *rng;
    for (uint32_t n = r() % 4; n > 0; n--) {
      const uint8_t reg = static_cast<uint8_t>(r() % kNumRegisters);
      m.set_reg(reg, r() % 3 == 0 ? r() % (kBlocks + 2) : RandomAddr(r));
    }
    if (r() % 3 == 0) {
      m.SetCc(r() % 3 == 0 ? r() : r() % 8, r() % 8);
    }
    for (uint32_t n = r() % 3; n > 0; n--) {
      m.memory().Write8(r() % kMem, static_cast<uint8_t>(r()));
    }
    if (r() % 4 == 0) {
      m.set_supervisor(!m.supervisor());
    }
    if (r() % 8 == 0) {
      m.set_tracing(!m.tracing());
    }
    const uint32_t a = r() % 100;
    return a < 70   ? TrapAction::kContinue
           : a < 85 ? TrapAction::kBlock
           : a < 93 ? TrapAction::kHalt
                    : TrapAction::kFault;
  };
}

void ExpectSameMachine(const Machine& a, const Machine& b) {
  for (uint8_t i = 0; i < kNumRegisters; i++) {
    ASSERT_EQ(a.reg(i), b.reg(i)) << "register " << int{i};
  }
  ASSERT_EQ(a.cc_lhs(), b.cc_lhs());
  ASSERT_EQ(a.cc_rhs(), b.cc_rhs());
  ASSERT_EQ(a.vbr(), b.vbr());
  ASSERT_EQ(a.supervisor(), b.supervisor());
  ASSERT_EQ(a.tracing(), b.tracing());
  ASSERT_EQ(a.instructions(), b.instructions());
  ASSERT_EQ(a.cycles(), b.cycles());
  ASSERT_EQ(a.mem_refs(), b.mem_refs());
  ASSERT_EQ(std::memcmp(a.memory().raw(0), b.memory().raw(0), kMem), 0) << "memory";
  ASSERT_EQ(a.trace().size(), b.trace().size());
  for (size_t i = 0; i < a.trace().size(); i++) {
    const TraceEntry& x = a.trace()[i];
    const TraceEntry& y = b.trace()[i];
    ASSERT_EQ(x.block, y.block) << "trace entry " << i;
    ASSERT_EQ(x.pc, y.pc) << "trace entry " << i;
    ASSERT_EQ(x.instr, y.instr) << "trace entry " << i;
    ASSERT_EQ(x.cycles, y.cycles) << "trace entry " << i;
  }
}

// A byte-loop pointer: one that runs off the end of memory, out of the
// quaspace or starts just below it, or one inside the quaspace.
uint32_t LoopPointer(std::mt19937& rng) {
  switch (rng() % 5) {
    case 0:
      return kMem - rng() % 300;
    case 1:
      return kQuaspace.end - rng() % 300;
    case 2:
      return kQuaspace.begin - rng() % 8;
    default:
      return kQuaspace.begin + rng() % (kQuaspace.end - kQuaspace.begin);
  }
}

// A loop step: mostly 1, now and then another small one.
int32_t LoopStep(std::mt19937& rng) {
  return rng() % 8 == 0 ? static_cast<int32_t>(rng() % 6) - 2 : 1;
}

// A load or store displacement: mostly 0, as the kernel emits it.
int32_t LoopDisp(std::mt19937& rng) {
  return rng() % 4 == 0 ? static_cast<int32_t>(rng() % 16) - 4 : 0;
}

// Appends a prelude that sets a count from 0 to 300 and the loop's pointers,
// then one of the byte loops ByteLoopLength recognizes. Its registers are
// mostly distinct; sometimes two roles share one, or the bra misses the head,
// and Run must interpret it.
void AppendByteLoop(std::mt19937& rng, std::vector<Instr>& code) {
  std::vector<uint8_t> regs(kNumRegisters);
  std::iota(regs.begin(), regs.end(), uint8_t{0});
  std::shuffle(regs.begin(), regs.end(), rng);
  if (rng() % 8 == 0) {
    regs[rng() % 5] = regs[rng() % 5];
  }
  const uint8_t n = regs[0], byte = regs[1], src = regs[2], sum_or_dst = regs[3], head = regs[4];
  const bool ring = rng() % 2 == 0;
  const uint32_t src0 = LoopPointer(rng);
  code.push_back({Opcode::kMoveI, n, 0, static_cast<int32_t>(rng() % 301)});
  code.push_back({Opcode::kMoveI, src, 0, static_cast<int32_t>(src0)});
  if (ring) {
    code.push_back({Opcode::kMoveI, head, 0, static_cast<int32_t>(rng() % 64)});
  }
  const int32_t top = static_cast<int32_t>(code.size());
  const int32_t exit = top + static_cast<int32_t>(ring ? kRingCopyLoopLength : kCsumLoopLength);
  code.push_back({Opcode::kTst, n, 0, 0});
  code.push_back({Opcode::kBeq, 0, 0, rng() % 4 == 0 ? static_cast<int32_t>(rng() % exit) : exit});
  code.push_back({Opcode::kLoad8, byte, src, LoopDisp(rng)});
  if (ring) {
    // The buffer overlaps the source now and then; the mask is mostly a
    // power of two less one.
    const uint32_t buf = rng() % 3 == 0 ? src0 + rng() % 32 - 16 : LoopPointer(rng);
    const uint32_t mask = rng() % 8 == 0 ? static_cast<uint32_t>(rng()) : (1u << rng() % 10) - 1;
    code.push_back({Opcode::kLea, sum_or_dst, head, static_cast<int32_t>(buf)});
    code.push_back({Opcode::kStore8, sum_or_dst, byte, LoopDisp(rng)});
    code.push_back({Opcode::kAddI, head, 0, LoopStep(rng)});
    code.push_back({Opcode::kAndI, head, 0, static_cast<int32_t>(mask)});
  } else {
    code.push_back({Opcode::kAdd, sum_or_dst, byte, 0});
  }
  code.push_back({Opcode::kAddI, src, 0, LoopStep(rng)});
  code.push_back({Opcode::kSubI, n, 0, LoopStep(rng)});
  // Now and then the loop branches back somewhere else: no byte loop then.
  code.push_back({Opcode::kBra, 0, 0, rng() % 8 == 0 ? static_cast<int32_t>(rng() % exit) : top});
}

// Installs blocks 1..kBlocks of 4 to 43 random instructions each; half of
// them also hold a byte loop at a random position.
void InstallRandomProgram(std::mt19937& rng, CodeStore& store) {
  for (int b = 1; b <= kBlocks; b++) {
    CodeBlock blk;
    blk.name = "fuzz" + std::to_string(b);
    const int len = 4 + static_cast<int>(rng() % 40);
    for (int i = 0; i < len; i++) {
      blk.code.push_back(RandomInstr(rng, len));
    }
    if (rng() % 2 == 0) {
      const auto at = blk.code.begin() + rng() % (len + 1);
      std::vector<Instr> rest(at, blk.code.end());
      blk.code.erase(at, blk.code.end());
      AppendByteLoop(rng, blk.code);
      blk.code.insert(blk.code.end(), rest.begin(), rest.end());
    }
    store.Install(std::move(blk));
  }
}

// The length of the recognized byte loop whose body, past its head, holds
// pc; 0 if none does.
uint32_t ByteLoopAround(const CodeBlock& blk, uint32_t pc) {
  for (uint32_t head = pc > kRingCopyLoopLength ? pc - kRingCopyLoopLength : 0; head < pc;
       head++) {
    const uint32_t len = ByteLoopLength(blk, head);
    if (len != 0 && pc < head + len) {
      return len;
    }
  }
  return 0;
}

void RunOneProgram(uint32_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  const MachineConfig config =
      seed % 2 == 0 ? MachineConfig::SunEmulation() : MachineConfig::NativeQuamachine();
  CodeStore store;
  InstallRandomProgram(rng, store);

  Machine em(kMem, config), rm(kMem, config);
  for (Machine* m : {&em, &rm}) {
    std::mt19937 init(seed ^ 0x5eedu);
    for (uint8_t i = 0; i < kNumRegisters; i++) {
      m->set_reg(i, RandomAddr(init));
    }
    for (Addr a = 0; a < kMem; a++) {
      m->memory().Write8(a, static_cast<uint8_t>(init()));
    }
    m->address_filter().Allow(kQuaspace);
    m->set_supervisor(init() % 2 == 0);
    m->set_tracing(init() % 4 == 0);
  }

  Executor exec(em, store);
  RefStepper ref(rm, store);
  std::vector<Seen> exec_seen, ref_seen;
  exec.SetTrapHandler(RandomHandler(seed, exec_seen, [&exec] {
    return std::make_pair(exec.current_block(), exec.current_pc());
  }));
  ref.SetTrapHandler(RandomHandler(seed, ref_seen, [&ref] {
    return std::make_pair(ref.current_block(), ref.current_pc());
  }));

  const BlockId entry = 1 + static_cast<BlockId>(rng() % kBlocks);
  exec.Start(entry);
  ref.Start(entry);
  for (int slice = 0; slice < 12; slice++) {
    SCOPED_TRACE(::testing::Message() << "slice " << slice);
    const uint64_t steps = 1 + rng() % 300;
    const RunResult e = exec.Run(steps);
    const RunResult r = ref.Run(steps);
    ASSERT_EQ(e.outcome, r.outcome);
    ASSERT_EQ(e.fault, r.fault);
    ASSERT_EQ(e.fault_addr, r.fault_addr);
    ASSERT_EQ(e.trap_vector, r.trap_vector);
    ASSERT_EQ(e.instructions, r.instructions);
    ASSERT_EQ(e.cycles, r.cycles);
    ASSERT_EQ(e.mem_refs, r.mem_refs);
    ASSERT_EQ(exec.active(), ref.active());
    ASSERT_EQ(exec.current_block(), ref.current_block());
    ASSERT_EQ(exec.current_pc(), ref.current_pc());
    ASSERT_NO_FATAL_FAILURE(ExpectSameMachine(em, rm));
    ASSERT_EQ(exec_seen.size(), ref_seen.size());
    for (size_t i = 0; i < exec_seen.size(); i++) {
      ASSERT_TRUE(exec_seen[i] == ref_seen[i]) << "trap handler call " << i;
    }
    if (!exec.active()) {
      break;
    }
  }
}

TEST(ExecutorFuzz, MatchesTheReferenceStepper) {
  for (uint32_t seed = 1; seed <= 3000; seed++) {
    RunOneProgram(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// The fuzz above must reach every outcome and every fault kind the executor
// raises, and resume across step limits and blocked traps; otherwise it
// proves less than it claims. Counted on the executor side. The reference
// stepper, run beside it, must also reach each byte loop's head where Run
// may take over, and end runs inside each loop's body on a bus error and at
// the step limit, where Run must hand the iteration back.
TEST(ExecutorFuzz, CoversEveryOutcome) {
  int outcomes[5] = {};  // RunOutcome
  int faults[5] = {};    // FaultKind
  int resumed = 0;
  std::map<uint32_t, int> loop_heads;  // by loop length, reference side
  std::map<uint32_t, int> bus_errors_inside, step_limits_inside;
  for (uint32_t seed = 1; seed <= 3000; seed++) {
    std::mt19937 rng(seed);
    CodeStore store;
    InstallRandomProgram(rng, store);
    Machine m(kMem, MachineConfig::SunEmulation()), rm(kMem, MachineConfig::SunEmulation());
    m.address_filter().Allow(kQuaspace);
    rm.address_filter().Allow(kQuaspace);
    Executor exec(m, store);
    RefStepper ref(rm, store);
    std::vector<Seen> seen, ref_seen;
    exec.SetTrapHandler(RandomHandler(seed, seen, [] { return std::make_pair(0, 0u); }));
    ref.SetTrapHandler(RandomHandler(seed, ref_seen, [] { return std::make_pair(0, 0u); }));
    const BlockId entry = 1 + static_cast<BlockId>(rng() % kBlocks);
    exec.Start(entry);
    ref.Start(entry);
    for (int slice = 0; slice < 12; slice++) {
      const uint64_t steps = 1 + rng() % 300;
      const RunResult r = exec.Run(steps);
      outcomes[static_cast<int>(r.outcome)]++;
      faults[static_cast<int>(r.fault)]++;
      const RunResult rr = ref.Run(steps);
      if (store.Valid(ref.current_block())) {
        const uint32_t len = ByteLoopAround(store.Get(ref.current_block()), ref.current_pc());
        if (rr.fault == FaultKind::kBusError) {
          bus_errors_inside[len]++;
        } else if (rr.outcome == RunOutcome::kStepLimit) {
          step_limits_inside[len]++;
        }
      }
      if (!exec.active()) {
        break;
      }
      resumed++;
    }
    for (const auto& [len, n] : ref.loop_heads) {
      loop_heads[len] += n;
    }
  }
  for (const uint32_t len : {kCsumLoopLength, kRingCopyLoopLength}) {
    EXPECT_GT(loop_heads[len], 1000) << "loop length " << len;
    EXPECT_GT(bus_errors_inside[len], 10) << "loop length " << len;
    EXPECT_GT(step_limits_inside[len], 100) << "loop length " << len;
  }
  for (int o = 0; o < 5; o++) {
    EXPECT_GT(outcomes[o], 0) << "outcome " << o;
  }
  for (int f = 1; f < 5; f++) {
    if (f == static_cast<int>(FaultKind::kStackUnderflow)) {
      continue;  // the executor never raises it: kRts on an empty stack returns
    }
    EXPECT_GT(faults[f], 0) << "fault kind " << f;
  }
  EXPECT_GT(resumed, 100);
}

}  // namespace
}  // namespace synthesis
