// Unit tests for the Quamachine simulator: assembler, executor semantics,
// cost accounting, memory protection, and the execution trace.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>

#include "src/machine/assembler.h"
#include "src/machine/code_store.h"
#include "src/machine/disasm.h"
#include "src/machine/executor.h"
#include "src/machine/machine.h"
#include "src/machine/trace_monitor.h"

namespace synthesis {
namespace {

constexpr size_t kMem = 64 * 1024;

class MachineTest : public ::testing::Test {
 protected:
  Machine m_{kMem, MachineConfig::SunEmulation()};
  CodeStore store_;
  Executor exec_{m_, store_};
};

TEST_F(MachineTest, MoveAndArithmetic) {
  Asm a("arith");
  a.MoveI(kD0, 10).MoveI(kD1, 32).Add(kD0, kD1).SubI(kD0, 2).MulI(kD0, 3).Rts();
  BlockId id = store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(id);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(m_.reg(kD0), 120u);
  EXPECT_EQ(r.instructions, 6u);
}

TEST_F(MachineTest, LogicalOps) {
  Asm a("logic");
  a.MoveI(kD0, 0xF0).MoveI(kD1, 0x0F).Or(kD0, kD1).AndI(kD0, 0x3C).Xor(kD0, kD0);
  a.MoveI(kD2, 1).LslI(kD2, 4).LsrI(kD2, 2).Rts();
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(m_.reg(kD0), 0u);
  EXPECT_EQ(m_.reg(kD2), 4u);
}

TEST_F(MachineTest, LoadStoreWidths) {
  Asm a("mem");
  a.MoveI(kA0, 0x100);
  a.MoveI(kD0, 0x12345678);
  a.Store32(kA0, kD0, 0);
  a.Load8(kD1, kA0, 0);
  a.Load16(kD2, kA0, 0);
  a.Load32(kD3, kA0, 0);
  a.Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  EXPECT_EQ(m_.reg(kD1), 0x78u);
  EXPECT_EQ(m_.reg(kD2), 0x5678u);
  EXPECT_EQ(m_.reg(kD3), 0x12345678u);
}

TEST_F(MachineTest, PushPop) {
  Asm a("stack");
  a.MoveI(kA7, 0x1000).MoveI(kD0, 7).Push(kD0).MoveI(kD0, 0).Pop(kD1).Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  EXPECT_EQ(m_.reg(kD1), 7u);
  EXPECT_EQ(m_.reg(kA7), 0x1000u);
}

TEST_F(MachineTest, ConditionalBranchLoop) {
  // Sum 1..5 with a loop.
  Asm a("loop");
  a.MoveI(kD0, 0).MoveI(kD1, 5);
  a.Label("top");
  a.Tst(kD1).Beq("done");
  a.Add(kD0, kD1).SubI(kD1, 1).Bra("top");
  a.Label("done");
  a.Rts();
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(m_.reg(kD0), 15u);
}

TEST_F(MachineTest, SignedVsUnsignedBranches) {
  // -1 < 1 signed, but 0xFFFFFFFF > 1 unsigned.
  Asm a("cmp");
  a.MoveI(kD0, -1).CmpI(kD0, 1);
  a.Blt("signed_lt");
  a.MoveI(kD2, 0).Rts();
  a.Label("signed_lt");
  a.MoveI(kD2, 1);
  a.CmpI(kD0, 1).Bhi("unsigned_hi");
  a.Rts();
  a.Label("unsigned_hi");
  a.AddI(kD2, 10).Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  EXPECT_EQ(m_.reg(kD2), 11u);
}

TEST_F(MachineTest, JsrRtsNesting) {
  Asm callee("callee");
  callee.AddI(kD0, 5).Rts();
  BlockId cid = store_.Install(callee.BuildBlock());

  Asm caller("caller");
  caller.MoveI(kD0, 1).Jsr(cid).Jsr(cid).Rts();
  BlockId top = store_.Install(caller.BuildBlock());
  RunResult r = exec_.Call(top);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(m_.reg(kD0), 11u);
}

TEST_F(MachineTest, IndirectCallThroughMemory) {
  // Executable data structure: block id stored in memory, called indirectly.
  Asm callee("inc");
  callee.AddI(kD0, 1).Rts();
  BlockId cid = store_.Install(callee.BuildBlock());
  m_.memory().Write32(0x200, static_cast<uint32_t>(cid));

  Asm caller("dispatch");
  caller.MoveI(kA0, 0x200).Load32(kD7, kA0, 0).JsrInd(kD7).Rts();
  BlockId top = store_.Install(caller.BuildBlock());
  m_.set_reg(kD0, 41);
  exec_.Call(top);
  EXPECT_EQ(m_.reg(kD0), 42u);
}

TEST_F(MachineTest, JmpIndTailTransfer) {
  Asm next("next");
  next.MoveI(kD3, 99).Halt();
  BlockId nid = store_.Install(next.BuildBlock());

  Asm first("first");
  first.MoveI(kD7, nid).JmpInd(kD7);
  BlockId fid = store_.Install(first.BuildBlock());
  RunResult r = exec_.Call(fid);
  EXPECT_EQ(r.outcome, RunOutcome::kHalted);
  EXPECT_EQ(m_.reg(kD3), 99u);
}

TEST_F(MachineTest, CasSuccessAndFailure) {
  m_.memory().Write32(0x300, 5);
  Asm a("cas");
  a.MoveI(kA0, 0x300).MoveI(kD0, 5).MoveI(kD1, 9).Cas(kD1, kA0, 0);
  a.Bne("failed");
  a.MoveI(kD2, 1).Rts();
  a.Label("failed");
  a.MoveI(kD2, 0).Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  EXPECT_EQ(m_.reg(kD2), 1u);
  EXPECT_EQ(m_.memory().Read32(0x300), 9u);

  // Second attempt with a stale expected value fails and loads the current
  // value into d0 (68020 semantics).
  exec_.Call(1);
  EXPECT_EQ(m_.reg(kD2), 0u);
  EXPECT_EQ(m_.reg(kD0), 9u);
  EXPECT_EQ(m_.memory().Read32(0x300), 9u);
}

TEST_F(MachineTest, MovemRoundTrip) {
  Asm save("save");
  save.MoveI(kA0, 0x400).MovemSave(kA0, 16).Rts();
  Asm clobber("clobber");
  for (uint8_t r = 0; r < 8; r++) {
    clobber.MoveI(r, 0);
  }
  clobber.Rts();
  Asm load("load");
  load.MoveI(kA0, 0x400).MovemLoad(kA0, 8).Rts();
  BlockId s = store_.Install(save.BuildBlock());
  BlockId c = store_.Install(clobber.BuildBlock());
  BlockId l = store_.Install(load.BuildBlock());

  for (uint8_t r = 0; r < 8; r++) {
    m_.set_reg(r, 100u + r);
  }
  exec_.Call(s);
  exec_.Call(c);
  EXPECT_EQ(m_.reg(kD5), 0u);
  exec_.Call(l);
  for (uint8_t r = 0; r < 8; r++) {
    EXPECT_EQ(m_.reg(r), 100u + r);
  }
}

TEST_F(MachineTest, TrapHandlerContinue) {
  int seen = -1;
  exec_.SetTrapHandler([&](int vec, Machine& m) {
    seen = vec;
    m.set_reg(kD0, 77);
    return TrapAction::kContinue;
  });
  Asm a("trap");
  a.Trap(42).AddI(kD0, 1).Rts();
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(m_.reg(kD0), 78u);
}

TEST_F(MachineTest, TrapHandlerSeesEveryEarlierInstructionBilled) {
  Stopwatch sw(m_);
  uint64_t seen_cycles = 0, seen_instrs = 0, seen_refs = 0;
  uint32_t seen_pc = 0;
  exec_.SetTrapHandler([&](int, Machine& m) {
    seen_cycles = m.cycles();
    seen_instrs = m.instructions();
    seen_refs = m.mem_refs();
    seen_pc = exec_.current_pc();
    m.Charge(100);  // host-modelled work: the machine's, not the run's
    return TrapAction::kContinue;
  });
  Asm a("mid");
  a.MoveI(kA0, 0x100).Load32(kD0, kA0, 0).AddI(kD0, 1).Trap(5).AddI(kD0, 1).Rts();
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  ASSERT_EQ(r.outcome, RunOutcome::kReturned);
  // movei 4 + load32 (4 + 3) + addi 4 + trap (20 + 4 * 3) = 47 cycles.
  EXPECT_EQ(seen_cycles, 47u);
  EXPECT_EQ(seen_instrs, 4u);
  EXPECT_EQ(seen_refs, 5u);
  EXPECT_EQ(seen_pc, 3u);
  // Then addi 4 + rts (8 + 3): the run bills 62; the machine adds the 100.
  EXPECT_EQ(r.cycles, 62u);
  EXPECT_EQ(r.instructions, 6u);
  EXPECT_EQ(r.mem_refs, 6u);
  EXPECT_EQ(sw.cycles(), 162u);
  EXPECT_EQ(sw.instructions(), 6u);
  EXPECT_EQ(sw.mem_refs(), 6u);
}

TEST_F(MachineTest, NestedCallFromTrapBillsBothSessionsOnce) {
  Asm inner("inner");
  inner.MoveI(kD1, 7).AddI(kD1, 1).Rts();
  BlockId inner_id = store_.Install(inner.BuildBlock());
  Asm outer("outer");
  outer.MoveI(kD0, 1).Trap(9).AddI(kD0, 1).Rts();
  BlockId outer_id = store_.Install(outer.BuildBlock());

  RunResult nested;
  uint64_t cycles_at_trap = 0;
  exec_.SetTrapHandler([&](int, Machine& m) {
    cycles_at_trap = m.cycles();
    nested = exec_.Call(inner_id);
    return TrapAction::kContinue;
  });
  Stopwatch sw(m_);
  RunResult r = exec_.Call(outer_id);
  ASSERT_EQ(r.outcome, RunOutcome::kReturned);
  ASSERT_EQ(nested.outcome, RunOutcome::kReturned);
  EXPECT_EQ(m_.reg(kD0), 2u);
  EXPECT_EQ(m_.reg(kD1), 8u);
  EXPECT_EQ(cycles_at_trap, 36u);  // movei 4 + trap 32
  // Inner: movei 4 + addi 4 + rts 11. Outer: movei 4 + trap 32 + addi 4 + rts 11.
  EXPECT_EQ(nested.cycles, 19u);
  EXPECT_EQ(nested.instructions, 3u);
  EXPECT_EQ(nested.mem_refs, 1u);
  EXPECT_EQ(r.cycles, 51u);
  EXPECT_EQ(r.instructions, 4u);
  EXPECT_EQ(r.mem_refs, 5u);
  EXPECT_EQ(sw.cycles(), 70u);
  EXPECT_EQ(sw.instructions(), 7u);
  EXPECT_EQ(sw.mem_refs(), 6u);
}

// Run keeps the machine state its loop touches in locals between host
// boundaries. A trap handler must see what earlier instructions left, and
// the run must see everything the handler changed from the next instruction
// on: condition codes, registers, the supervisor flag and tracing.
TEST_F(MachineTest, TrapHandlerStateCrossesTheBoundaryBothWays) {
  m_.address_filter().Allow(AddrRange{0x1000, 0x2000});
  uint32_t seen[4] = {};
  exec_.SetTrapHandler([&](int, Machine& m) {
    seen[0] = m.reg(kD0);
    seen[1] = m.reg(kD1);
    seen[2] = m.cc_lhs();
    seen[3] = m.cc_rhs();
    m.set_reg(kA0, 0x1800);  // inside the filter
    m.set_reg(kA1, 0x2800);  // outside it
    m.SetCc(7, 7);           // "equal"; the run's own cc read (11, 5)
    m.set_supervisor(false);
    m.set_tracing(true);
    return TrapAction::kContinue;
  });
  Asm a("boundary");
  a.MoveI(kD0, 11).MoveI(kD1, 22).CmpI(kD0, 5).Trap(3);
  a.Beq("equal").MoveI(kD4, 1);  // runs only under the stale condition codes
  a.Label("equal").Store32(kA0, kD1, 0).Store32(kA1, kD1, 0).Rts();
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);

  EXPECT_EQ(seen[0], 11u);
  EXPECT_EQ(seen[1], 22u);
  EXPECT_EQ(seen[2], 11u);
  EXPECT_EQ(seen[3], 5u);
  EXPECT_EQ(m_.reg(kD4), 0u);  // beq followed the handler's condition codes
  EXPECT_EQ(m_.memory().Read32(0x1800), 22u);
  EXPECT_EQ(r.outcome, RunOutcome::kFault);
  EXPECT_EQ(r.fault, FaultKind::kBusError);
  EXPECT_EQ(r.fault_addr, 0x2800u);
  // Traced from the branch on: beq (taken, 6), the store (7), and the
  // faulting store, charged nothing.
  ASSERT_EQ(m_.trace().size(), 3u);
  EXPECT_EQ(m_.trace()[0].instr.op, Opcode::kBeq);
  EXPECT_EQ(m_.trace()[0].cycles, 6u);
  EXPECT_EQ(m_.trace()[1].instr.op, Opcode::kStore32);
  EXPECT_EQ(m_.trace()[1].cycles, 7u);
  EXPECT_EQ(m_.trace()[2].pc, 7u);
  EXPECT_EQ(m_.trace()[2].cycles, 0u);
}

TEST_F(MachineTest, TrapBlockAndResumeRetriesTrap) {
  int calls = 0;
  exec_.SetTrapHandler([&](int vec, Machine&) {
    calls++;
    return calls < 3 ? TrapAction::kBlock : TrapAction::kContinue;
  });
  Asm a("block");
  a.MoveI(kD0, 5).Trap(1).AddI(kD0, 1).Rts();
  store_.Install(a.BuildBlock());

  exec_.Start(1);
  RunResult r = exec_.Run();
  EXPECT_EQ(r.outcome, RunOutcome::kBlocked);
  EXPECT_EQ(r.trap_vector, 1);
  r = exec_.Run();
  EXPECT_EQ(r.outcome, RunOutcome::kBlocked);
  r = exec_.Run();
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(m_.reg(kD0), 6u);
}

TEST_F(MachineTest, BusErrorOnOutOfRange) {
  Asm a("bad");
  a.MoveI(kA0, static_cast<int32_t>(kMem)).Load32(kD0, kA0, 100).Rts();
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kFault);
  EXPECT_EQ(r.fault, FaultKind::kBusError);
}

TEST_F(MachineTest, QuaspaceProtectionFaultsInUserMode) {
  // User mode with a filter: touching outside the quaspace bus-faults (§2.1).
  m_.set_supervisor(false);
  m_.address_filter().Allow(AddrRange{0x1000, 0x2000});
  Asm a("prot");
  a.MoveI(kA0, 0x1800).Store32(kA0, kD0, 0).MoveI(kA0, 0x2800).Store32(kA0, kD0, 0);
  a.Rts();
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kFault);
  EXPECT_EQ(r.fault_addr, 0x2800u);
  // Supervisor state sees everything.
  m_.set_supervisor(true);
  r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
}

TEST_F(MachineTest, StepLimitIsResumable) {
  Asm a("spin");
  a.Label("top").AddI(kD0, 1).Bra("top");
  store_.Install(a.BuildBlock());
  exec_.Start(1);
  RunResult r = exec_.Run(100);
  EXPECT_EQ(r.outcome, RunOutcome::kStepLimit);
  r = exec_.Run(100);
  EXPECT_EQ(r.outcome, RunOutcome::kStepLimit);
  EXPECT_EQ(r.instructions, 100u);

  // A countdown with loads, calls and both branch outcomes, run once
  // uninterrupted and once in 7-instruction slices, bills the same totals.
  Asm leaf("leaf");
  leaf.Load32(kD2, kA0, 0).Rts();
  BlockId leaf_id = store_.Install(leaf.BuildBlock());
  Asm loop("countdown");
  loop.MoveI(kA0, 0x100).MoveI(kD1, 20);
  loop.Label("top").Tst(kD1).Beq("done");
  loop.Jsr(leaf_id).SubI(kD1, 1).Bra("top");
  loop.Label("done").Rts();
  BlockId loop_id = store_.Install(loop.BuildBlock());

  Stopwatch whole_sw(m_);
  RunResult whole = exec_.Call(loop_id);
  ASSERT_EQ(whole.outcome, RunOutcome::kReturned);
  const uint64_t whole_cycles = whole_sw.cycles();
  const uint64_t whole_instrs = whole_sw.instructions();
  const uint64_t whole_refs = whole_sw.mem_refs();
  EXPECT_EQ(whole.cycles, whole_cycles);
  EXPECT_EQ(whole.instructions, whole_instrs);
  EXPECT_EQ(whole.mem_refs, whole_refs);

  Stopwatch split_sw(m_);
  RunResult sum;
  exec_.Start(loop_id);
  int slices = 0;
  do {
    r = exec_.Run(7);
    sum.instructions += r.instructions;
    sum.cycles += r.cycles;
    sum.mem_refs += r.mem_refs;
    slices++;
  } while (r.outcome == RunOutcome::kStepLimit);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_GT(slices, 10);
  EXPECT_EQ(sum.instructions, whole.instructions);
  EXPECT_EQ(sum.cycles, whole.cycles);
  EXPECT_EQ(sum.mem_refs, whole.mem_refs);
  EXPECT_EQ(split_sw.instructions(), whole_instrs);
  EXPECT_EQ(split_sw.cycles(), whole_cycles);
  EXPECT_EQ(split_sw.mem_refs(), whole_refs);
}

TEST_F(MachineTest, CycleAccountingAndClock) {
  Asm a("cost");
  a.MoveI(kD0, 1).Rts();  // movei 4 cycles; rts 8 + 1 memref * 3 = 11
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.cycles, 15u);
  EXPECT_EQ(r.mem_refs, 1u);
  // 15 cycles at 16 MHz is 0.9375 microseconds.
  EXPECT_DOUBLE_EQ(m_.NowMicros(), 15.0 / 16.0);
}

TEST_F(MachineTest, NativeClockIsFaster) {
  Machine fast(kMem, MachineConfig::NativeQuamachine());
  CodeStore cs;
  Executor ex(fast, cs);
  Asm a("cost");
  a.MoveI(kD0, 1).Rts();
  cs.Install(a.BuildBlock());
  ex.Call(1);
  // 0 wait states: rts pays 8 + 2 = 10; total 14 cycles at 50 MHz.
  EXPECT_DOUBLE_EQ(fast.NowMicros(), 14.0 / 50.0);
}

// Expected cost of each opcode, transcribed from the 68020 calibration:
// cycles under SunEmulation (3-cycle bus) and NativeQuamachine (2-cycle bus),
// branch not taken / taken, and data-memory references. Fixed-cost opcodes
// carry an arbitrary imm to show it does not matter to them.
struct ExpectedCost {
  Opcode op;
  int32_t imm;
  uint32_t sun[2];
  uint32_t native[2];
  uint32_t refs;
};

constexpr ExpectedCost kExpectedCosts[] = {
    {Opcode::kNop, 99, {2, 2}, {2, 2}, 0},
    {Opcode::kMoveI, 99, {4, 4}, {4, 4}, 0},
    {Opcode::kMove, 99, {2, 2}, {2, 2}, 0},
    {Opcode::kLea, 99, {4, 4}, {4, 4}, 0},
    {Opcode::kLoad8, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kLoad16, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kLoad32, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kStore8, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kStore16, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kStore32, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kLoadA8, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kLoadA16, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kLoadA32, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kStoreA8, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kStoreA16, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kStoreA32, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kLoadIdx32, 99, {9, 9}, {8, 8}, 1},
    {Opcode::kStoreIdx32, 99, {9, 9}, {8, 8}, 1},
    {Opcode::kPush, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kPop, 99, {7, 7}, {6, 6}, 1},
    {Opcode::kAdd, 99, {2, 2}, {2, 2}, 0},
    {Opcode::kAddI, 99, {4, 4}, {4, 4}, 0},
    {Opcode::kSub, 99, {2, 2}, {2, 2}, 0},
    {Opcode::kSubI, 99, {4, 4}, {4, 4}, 0},
    {Opcode::kMulI, 99, {28, 28}, {28, 28}, 0},
    {Opcode::kAnd, 99, {2, 2}, {2, 2}, 0},
    {Opcode::kAndI, 99, {4, 4}, {4, 4}, 0},
    {Opcode::kOr, 99, {2, 2}, {2, 2}, 0},
    {Opcode::kOrI, 99, {4, 4}, {4, 4}, 0},
    {Opcode::kXor, 99, {2, 2}, {2, 2}, 0},
    {Opcode::kLslI, 99, {4, 4}, {4, 4}, 0},
    {Opcode::kLsrI, 99, {4, 4}, {4, 4}, 0},
    {Opcode::kCmp, 99, {2, 2}, {2, 2}, 0},
    {Opcode::kCmpI, 99, {4, 4}, {4, 4}, 0},
    {Opcode::kTst, 99, {2, 2}, {2, 2}, 0},
    {Opcode::kBra, 99, {6, 6}, {6, 6}, 0},
    {Opcode::kBeq, 99, {4, 6}, {4, 6}, 0},
    {Opcode::kBne, 99, {4, 6}, {4, 6}, 0},
    {Opcode::kBlt, 99, {4, 6}, {4, 6}, 0},
    {Opcode::kBge, 99, {4, 6}, {4, 6}, 0},
    {Opcode::kBgt, 99, {4, 6}, {4, 6}, 0},
    {Opcode::kBle, 99, {4, 6}, {4, 6}, 0},
    {Opcode::kBhi, 99, {4, 6}, {4, 6}, 0},
    {Opcode::kBls, 99, {4, 6}, {4, 6}, 0},
    {Opcode::kJsr, 99, {11, 11}, {10, 10}, 1},
    {Opcode::kJsrInd, 99, {13, 13}, {12, 12}, 1},
    {Opcode::kJmpInd, 99, {6, 6}, {6, 6}, 0},
    {Opcode::kRts, 99, {11, 11}, {10, 10}, 1},
    {Opcode::kCas, 99, {18, 18}, {16, 16}, 2},
    {Opcode::kCasA, 99, {18, 18}, {16, 16}, 2},
    {Opcode::kTrap, 99, {32, 32}, {28, 28}, 4},
    // MOVEM: 4 + n sequencing cycles plus n bus cycles.
    {Opcode::kMovemSave, 4, {20, 20}, {16, 16}, 4},
    {Opcode::kMovemSave, 16, {68, 68}, {52, 52}, 16},
    {Opcode::kMovemLoad, 4, {20, 20}, {16, 16}, 4},
    {Opcode::kMovemLoad, 16, {68, 68}, {52, 52}, 16},
    {Opcode::kSetVbr, 99, {8, 8}, {8, 8}, 0},
    // Charge: exactly imm cycles.
    {Opcode::kCharge, 7, {7, 7}, {7, 7}, 0},
    {Opcode::kCharge, 300, {300, 300}, {300, 300}, 0},
    {Opcode::kHalt, 99, {2, 2}, {2, 2}, 0},
};

TEST(CostTableTest, EveryOpcodeMatchesTheCalibration) {
  const CostModel sun(MachineConfig::SunEmulation());
  const CostModel native(MachineConfig::NativeQuamachine());
  int rows[static_cast<size_t>(Opcode::kNumOpcodes)] = {};
  for (const ExpectedCost& e : kExpectedCosts) {
    rows[static_cast<size_t>(e.op)]++;
    const Instr in{e.op, 1, 2, e.imm};
    for (bool taken : {false, true}) {
      EXPECT_EQ(sun.Cycles(in, taken), e.sun[taken])
          << OpcodeName(e.op) << " imm " << e.imm << " taken " << taken;
      EXPECT_EQ(native.Cycles(in, taken), e.native[taken])
          << OpcodeName(e.op) << " imm " << e.imm << " taken " << taken;
    }
    EXPECT_EQ(CostModel::MemRefs(in), e.refs) << OpcodeName(e.op) << " imm " << e.imm;
  }
  for (size_t op = 0; op < static_cast<size_t>(Opcode::kNumOpcodes); op++) {
    EXPECT_GE(rows[op], 1) << OpcodeName(static_cast<Opcode>(op)) << " has no expected row";
  }
}

TEST_F(MachineTest, TraceRecordsExecution) {
  m_.set_tracing(true);
  Asm a("traced");
  a.MoveI(kD0, 1).AddI(kD0, 2).Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  ASSERT_EQ(m_.trace().size(), 3u);
  EXPECT_EQ(m_.trace()[0].instr.op, Opcode::kMoveI);
  EXPECT_EQ(m_.trace()[2].instr.op, Opcode::kRts);
}

TEST_F(MachineTest, TraceProfileSumsToTheStopwatch) {
  // A trap-free run with taken and not-taken branches across two blocks: the
  // kernel monitor's cycles are the ones the executor charged.
  Asm leaf("leaf");
  leaf.Load32(kD2, kA0, 0).Rts();
  BlockId leaf_id = store_.Install(leaf.BuildBlock());
  Asm loop("loop");
  loop.MoveI(kA0, 0x100).MoveI(kD1, 3);
  loop.Label("top").Tst(kD1).Beq("done");
  loop.Jsr(leaf_id).SubI(kD1, 1).Bra("top");
  loop.Label("done").Rts();
  BlockId loop_id = store_.Install(loop.BuildBlock());

  m_.set_tracing(true);
  Stopwatch sw(m_);
  ASSERT_EQ(exec_.Call(loop_id).outcome, RunOutcome::kReturned);
  TraceMonitor monitor(m_, store_);
  ASSERT_EQ(monitor.TraceLength(), sw.instructions());
  uint64_t cycles = 0, instrs = 0;
  for (const TraceMonitor::BlockProfile& p : monitor.Profile()) {
    cycles += p.cycles;
    instrs += p.instructions;
  }
  EXPECT_EQ(instrs, sw.instructions());
  EXPECT_EQ(cycles, sw.cycles());
  // The three not-taken beqs are billed 4 cycles each, the final taken one 6.
  int not_taken = 0, taken = 0;
  for (const TraceEntry& e : m_.trace()) {
    if (e.instr.op == Opcode::kBeq) {
      not_taken += e.cycles == 4;
      taken += e.cycles == 6;
    }
  }
  EXPECT_EQ(not_taken, 3);
  EXPECT_EQ(taken, 1);
  EXPECT_NE(monitor.FormatTrace(1).find("; 11 cycles"), std::string::npos)
      << monitor.FormatTrace(1);  // the final rts: 8 + 1 memref * 3
}

TEST_F(MachineTest, StopwatchMeasuresDeltas) {
  Asm a("w");
  a.MoveI(kD0, 1).Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  Stopwatch sw(m_);
  exec_.Call(1);
  EXPECT_EQ(sw.instructions(), 2u);
  EXPECT_EQ(sw.cycles(), 15u);
}

TEST_F(MachineTest, DisassemblerFormats) {
  Asm a("d");
  a.MoveI(kD0, 5).Load32(kD1, kA0, 8).Store32(kA1, kD1, 12).Cas(kD2, kA0, 0).Rts();
  CodeBlock b = a.BuildBlock();
  std::string text = Disassemble(b);
  EXPECT_NE(text.find("movei"), std::string::npos);
  EXPECT_NE(text.find("d1, 8(a0)"), std::string::npos);
  EXPECT_NE(text.find("12(a1), d1"), std::string::npos);
  EXPECT_NE(text.find("cas"), std::string::npos);
}

TEST_F(MachineTest, CodeStoreReplaceAndFind) {
  Asm a("orig");
  a.MoveI(kD0, 1).Rts();
  BlockId id = store_.Install(a.BuildBlock());
  EXPECT_EQ(store_.Find("orig"), id);

  Asm b("orig");
  b.MoveI(kD0, 2).Rts();
  store_.Replace(id, b.BuildBlock());
  exec_.Call(id);
  EXPECT_EQ(m_.reg(kD0), 2u);
  EXPECT_EQ(store_.block_count(), 1u);
}

TEST_F(MachineTest, FallOffEndActsAsReturn) {
  Asm callee("fall");
  callee.MoveI(kD0, 3);  // no rts
  BlockId cid = store_.Install(callee.BuildBlock());
  Asm caller("c");
  caller.Jsr(cid).AddI(kD0, 1).Rts();
  BlockId top = store_.Install(caller.BuildBlock());
  RunResult r = exec_.Call(top);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(m_.reg(kD0), 4u);
}

// Resident pages of this process: the second field of /proc/self/statm.
long ResidentPages() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return -1;
  }
  long size = 0;
  long resident = -1;
  if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) {
    resident = -1;
  }
  std::fclose(f);
  return resident;
}

// A large simulated memory reads as zero everywhere, yet only the pages the
// simulation touches become resident on the host.
TEST(MemoryTest, LargeMemoryReadsZeroWithoutBecomingResident) {
  constexpr size_t kBytes = 64u << 20;
  const long page = sysconf(_SC_PAGESIZE);
  const long before = ResidentPages();
  ASSERT_GT(before, 0);
  Memory mem(kBytes);
  const long grown = ResidentPages() - before;
  EXPECT_LT(grown * page, static_cast<long>(kBytes / 4))
      << "constructing the memory made " << grown << " pages resident";
  EXPECT_EQ(mem.Read8(0), 0);
  EXPECT_EQ(mem.Read8(static_cast<Addr>(kBytes - 1)), 0);
  EXPECT_EQ(mem.Read32(static_cast<Addr>(kBytes - 4)), 0u);
  for (size_t a = 4093; a < kBytes; a += 1'048'573) {
    ASSERT_EQ(mem.Read8(static_cast<Addr>(a)), 0) << "byte " << a;
  }
}

}  // namespace
}  // namespace synthesis
