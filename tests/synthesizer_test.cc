// Tests for the kernel code synthesizer: Factoring Invariants, Collapsing
// Layers, constant folding, branch folding, DCE, and peephole rules. Each test
// verifies both that the specialized code is shorter and that it still
// computes the same result as the general template.
#include <gtest/gtest.h>

#include "src/machine/assembler.h"
#include "src/machine/code_store.h"
#include "src/machine/executor.h"
#include "src/machine/machine.h"
#include "src/synth/synthesizer.h"

namespace synthesis {
namespace {

constexpr size_t kMem = 64 * 1024;

class SynthesizerTest : public ::testing::Test {
 protected:
  uint32_t RunBlock(BlockId id, uint32_t d0 = 0, uint32_t a0 = 0) {
    m_.set_reg(kD0, d0);
    m_.set_reg(kA0, a0);
    Executor exec(m_, store_);
    RunResult r = exec.Call(id);
    EXPECT_NE(r.outcome, RunOutcome::kFault);
    return m_.reg(kD0);
  }

  Machine m_{kMem, MachineConfig::SunEmulation()};
  CodeStore store_;
  Synthesizer synth_{store_};
  SynthesisOptions opts_;
};

TEST_F(SynthesizerTest, BindsHoles) {
  Asm a("t");
  a.MoveI(kD0, Asm::Sym("x")).AddI(kD0, Asm::Sym("y")).Rts();
  CodeTemplate t = a.Build();
  CodeBlock out =
      synth_.Specialize(t, Bindings().Set("x", 30).Set("y", 12), nullptr, opts_);
  BlockId id = store_.Install(out);
  EXPECT_EQ(RunBlock(id), 42u);
}

TEST_F(SynthesizerTest, ConstantFoldsChains) {
  // movei+addi+muli chain collapses into a single movei.
  Asm a("t");
  a.MoveI(kD1, 10).AddI(kD1, 5).MulI(kD1, 4).Move(kD0, kD1).Rts();
  CodeBlock out = synth_.Specialize(a.Build(), Bindings(), nullptr, opts_);
  EXPECT_EQ(out.code.size(), 2u);  // movei d0, 60; rts
  EXPECT_EQ(RunBlock(store_.Install(out)), 60u);
}

TEST_F(SynthesizerTest, FoldsBranchOnKnownCondition) {
  // The size check against a constant queue size disappears.
  Asm a("t");
  a.MoveI(kD1, 100).CmpI(kD1, 64).Ble("small");
  a.MoveI(kD0, 1).Rts();
  a.Label("small");
  a.MoveI(kD0, 2).Rts();
  SynthesisStats st;
  CodeBlock out = synth_.Specialize(a.Build(), Bindings(), nullptr, opts_, &st);
  EXPECT_EQ(st.folded_branches, 1u);
  EXPECT_EQ(out.code.size(), 2u);  // movei d0,1; rts
  EXPECT_EQ(RunBlock(store_.Install(out)), 1u);
}

TEST_F(SynthesizerTest, RemovesUnreachableArm) {
  Asm a("t");
  a.MoveI(kD1, 0).Tst(kD1).Beq("zero");
  for (int i = 0; i < 10; i++) {
    a.AddI(kD0, 1);  // dead arm
  }
  a.Rts();
  a.Label("zero");
  a.MoveI(kD0, 7).Rts();
  CodeBlock out = synth_.Specialize(a.Build(), Bindings(), nullptr, opts_);
  EXPECT_LE(out.code.size(), 3u);
  EXPECT_EQ(RunBlock(store_.Install(out)), 7u);
}

TEST_F(SynthesizerTest, FactorsInvariantLoads) {
  // A general routine loads its configuration from an "open file" record in
  // memory. Declaring that record invariant folds the loads to immediates.
  constexpr Addr kRecord = 0x800;
  m_.memory().Write32(kRecord + 0, 1234);  // buffer address
  m_.memory().Write32(kRecord + 4, 8);     // block size

  Asm a("read_general");
  a.MoveI(kA0, kRecord);
  a.Load32(kD1, kA0, 0);
  a.Load32(kD2, kA0, 4);
  a.Move(kD0, kD1).Add(kD0, kD2).Rts();

  InvariantMemory inv(m_.memory());
  inv.AddRange(AddrRange{kRecord, kRecord + 8});
  SynthesisStats st;
  CodeBlock out = synth_.Specialize(a.Build(), Bindings(), &inv, opts_, &st);
  EXPECT_EQ(st.folded_loads, 2u);
  EXPECT_EQ(out.code.size(), 2u);  // movei d0, 1242; rts
  EXPECT_EQ(RunBlock(store_.Install(out)), 1242u);
}

TEST_F(SynthesizerTest, NonInvariantLoadsSurvive) {
  constexpr Addr kRecord = 0x800;
  m_.memory().Write32(kRecord, 5);
  Asm a("t");
  a.MoveI(kA0, kRecord).Load32(kD0, kA0, 0).Rts();
  // No invariant ranges: the load must remain (the memory may change). The
  // constant base gets folded into the instruction (absolute addressing),
  // but the memory access itself survives.
  CodeBlock out = synth_.Specialize(a.Build(), Bindings(), nullptr, opts_);
  ASSERT_EQ(out.code.size(), 2u);
  EXPECT_EQ(out.code[0].op, Opcode::kLoadA32);
  EXPECT_EQ(out.code[0].imm, static_cast<int32_t>(kRecord));
  m_.memory().Write32(kRecord, 9);
  EXPECT_EQ(RunBlock(store_.Install(out)), 9u);
}

TEST_F(SynthesizerTest, CollapsesLayersByInlining) {
  // A three-deep call chain collapses into straight-line code.
  Asm leaf("leaf");
  leaf.AddI(kD0, 1).Rts();
  BlockId leaf_id = store_.Install(leaf.BuildBlock());

  Asm mid("mid");
  mid.Jsr(leaf_id).Jsr(leaf_id).Rts();
  BlockId mid_id = store_.Install(mid.BuildBlock());

  Asm top("top");
  top.MoveI(kD0, 0).Jsr(mid_id).Jsr(leaf_id).Rts();

  SynthesisStats st;
  CodeBlock out = synth_.Specialize(top.Build(), Bindings(), nullptr, opts_, &st);
  EXPECT_GE(st.inlined_calls, 3u);
  for (const Instr& in : out.code) {
    EXPECT_NE(in.op, Opcode::kJsr);
  }
  // movei folds with the three inlined increments into a single movei d0,3.
  EXPECT_EQ(out.code.size(), 2u);
  EXPECT_EQ(RunBlock(store_.Install(out)), 3u);
}

TEST_F(SynthesizerTest, InliningPreservesLoopsInCallee) {
  Asm callee("strlen_like");
  callee.MoveI(kD1, 3);
  callee.Label("top");
  callee.Add(kD0, kD2).SubI(kD1, 1).Tst(kD1).Bne("top").Rts();
  BlockId cid = store_.Install(callee.BuildBlock());

  Asm top("top");
  top.MoveI(kD0, 0).Jsr(cid).Rts();
  CodeBlock out = synth_.Specialize(top.Build(), Bindings(), nullptr, opts_);
  for (const Instr& in : out.code) {
    EXPECT_NE(in.op, Opcode::kJsr);
  }
  m_.set_reg(kD2, 5);
  EXPECT_EQ(RunBlock(store_.Install(out)), 15u);
}

TEST_F(SynthesizerTest, IndirectCallWithKnownTargetCollapses) {
  // The device-switch pattern: the handler id sits in an invariant table.
  Asm handler("handler");
  handler.MoveI(kD0, 42).Rts();
  BlockId hid = store_.Install(handler.BuildBlock());
  constexpr Addr kSwitch = 0x900;
  m_.memory().Write32(kSwitch, static_cast<uint32_t>(hid));

  Asm a("dispatch");
  a.MoveI(kA1, kSwitch).Load32(kD7, kA1, 0).JsrInd(kD7).Rts();
  InvariantMemory inv(m_.memory());
  inv.AddRange(AddrRange{kSwitch, kSwitch + 4});
  CodeBlock out = synth_.Specialize(a.Build(), Bindings(), &inv, opts_);
  // The entire dispatch becomes: movei d0, 42; rts.
  EXPECT_EQ(out.code.size(), 2u);
  EXPECT_EQ(RunBlock(store_.Install(out)), 42u);
}

TEST_F(SynthesizerTest, DeadCodeEliminated) {
  Asm a("t");
  a.MoveI(kD1, 11);   // dead: overwritten
  a.MoveI(kD1, 22);   // dead: never used before next write
  a.MoveI(kD1, 33).Move(kD0, kD1).Rts();
  CodeBlock out = synth_.Specialize(a.Build(), Bindings(), nullptr, opts_);
  EXPECT_EQ(out.code.size(), 2u);
  EXPECT_EQ(RunBlock(store_.Install(out)), 33u);
}

TEST_F(SynthesizerTest, StoresAreNeverRemoved) {
  Asm a("t");
  a.MoveI(kA0, 0x700).MoveI(kD1, 5).Store32(kA0, kD1, 0).Rts();
  CodeBlock out = synth_.Specialize(a.Build(), Bindings(), nullptr, opts_);
  bool has_store = false;
  for (const Instr& in : out.code) {
    has_store |= in.op == Opcode::kStore32 || in.op == Opcode::kStoreA32;
  }
  EXPECT_TRUE(has_store);
  RunBlock(store_.Install(out));
  EXPECT_EQ(m_.memory().Read32(0x700), 5u);
}

TEST_F(SynthesizerTest, PeepholeCleansIdentities) {
  Asm a("t");
  a.Move(kD1, kD1).AddI(kD0, 0).MulI(kD0, 1).LslI(kD0, 0).AddI(kD0, 4).Rts();
  CodeBlock out = synth_.Specialize(a.Build(), Bindings(), nullptr, opts_);
  EXPECT_EQ(out.code.size(), 2u);  // addi d0,4 ; rts
  EXPECT_EQ(RunBlock(store_.Install(out), 1), 5u);
}

TEST_F(SynthesizerTest, BranchChainsThreaded) {
  Asm a("t");
  a.Tst(kD0).Beq("hop1");
  a.MoveI(kD0, 1).Rts();
  a.Label("hop1");
  a.Bra("hop2");
  a.Label("hop2");
  a.MoveI(kD0, 2).Rts();
  CodeBlock out = synth_.Specialize(a.Build(), Bindings(), nullptr, opts_);
  // The intermediate bra is threaded away.
  for (size_t i = 0; i < out.code.size(); i++) {
    if (out.code[i].op == Opcode::kBra) {
      EXPECT_NE(out.code[out.code[i].imm].op, Opcode::kBra);
    }
  }
  EXPECT_EQ(RunBlock(store_.Install(out), 0), 2u);
}

TEST_F(SynthesizerTest, DisabledOptionsEmitVerbatim) {
  Asm a("t");
  a.MoveI(kD1, 10).AddI(kD1, 5).Move(kD0, kD1).Rts();
  CodeTemplate t = a.Build();
  CodeBlock out =
      synth_.Specialize(t, Bindings(), nullptr, SynthesisOptions::Disabled());
  EXPECT_EQ(out.code.size(), t.block.code.size());
  EXPECT_EQ(RunBlock(store_.Install(out)), 15u);
}

TEST_F(SynthesizerTest, SpecializedMatchesGeneralOnRuntimeInput) {
  // Property check: for a routine with one invariant parameter and one
  // runtime parameter, the specialized code agrees with the general code.
  constexpr Addr kCfg = 0xA00;
  for (uint32_t scale = 1; scale <= 16; scale *= 2) {
    m_.memory().Write32(kCfg, scale);
    Asm a("scale_add");
    // d0 = d0 * mem[cfg] + 3, with the multiply done by a shift-add loop.
    a.MoveI(kA1, kCfg).Load32(kD1, kA1, 0);
    a.MoveI(kD2, 0);
    a.Label("mul");
    a.Tst(kD1).Beq("done");
    a.Add(kD2, kD0).SubI(kD1, 1).Bra("mul");
    a.Label("done");
    a.Move(kD0, kD2).AddI(kD0, 3).Rts();
    CodeTemplate t = a.Build();

    CodeBlock general = synth_.Specialize(t, Bindings(), nullptr,
                                          SynthesisOptions::Disabled(), nullptr,
                                          "general" + std::to_string(scale));
    InvariantMemory inv(m_.memory());
    inv.AddRange(AddrRange{kCfg, kCfg + 4});
    CodeBlock fast = synth_.Specialize(t, Bindings(), &inv, opts_, nullptr,
                                       "fast" + std::to_string(scale));

    BlockId gid = store_.Install(general);
    BlockId fid = store_.Install(fast);
    for (uint32_t x : {0u, 1u, 7u, 100u}) {
      uint32_t want = RunBlock(gid, x);
      uint32_t got = RunBlock(fid, x);
      EXPECT_EQ(got, want) << "scale=" << scale << " x=" << x;
    }
  }
}

TEST_F(SynthesizerTest, SpecializationShortensPath) {
  // The headline property: synthesized code executes fewer instructions.
  constexpr Addr kCfg = 0xA00;
  m_.memory().Write32(kCfg, 4);
  Asm a("loop_by_cfg");
  a.MoveI(kA1, kCfg).Load32(kD1, kA1, 0).MoveI(kD2, 0);
  a.Label("top");
  a.Cmp(kD2, kD1).Bge("end");
  a.AddI(kD0, 2).AddI(kD2, 1).Bra("top");
  a.Label("end");
  a.Rts();
  CodeTemplate t = a.Build();

  CodeBlock general =
      synth_.Specialize(t, Bindings(), nullptr, SynthesisOptions::Disabled(),
                        nullptr, "g");
  InvariantMemory inv(m_.memory());
  inv.AddRange(AddrRange{kCfg, kCfg + 4});
  CodeBlock fast = synth_.Specialize(t, Bindings(), &inv, opts_, nullptr, "f");

  BlockId gid = store_.Install(general);
  BlockId fid = store_.Install(fast);
  Executor exec(m_, store_);
  m_.set_reg(kD0, 0);
  RunResult rg = exec.Call(gid);
  uint32_t want = m_.reg(kD0);
  m_.set_reg(kD0, 0);
  RunResult rf = exec.Call(fid);
  EXPECT_EQ(m_.reg(kD0), want);
  EXPECT_LT(rf.instructions, rg.instructions);
  EXPECT_LT(rf.cycles, rg.cycles);
}

TEST_F(SynthesizerTest, StatsAreConsistent) {
  Asm leaf("leaf2");
  leaf.AddI(kD0, 1).Rts();
  BlockId lid = store_.Install(leaf.BuildBlock());
  Asm a("t");
  a.MoveI(kD0, 0).Jsr(lid).MoveI(kD5, 9).Rts();  // d5 write is dead
  SynthesisStats st;
  CodeBlock out = synth_.Specialize(a.Build(), Bindings(), nullptr, opts_, &st);
  EXPECT_EQ(st.input_instructions, 4u);
  EXPECT_EQ(st.output_instructions, out.code.size());
  EXPECT_GE(st.inlined_calls, 1u);
  EXPECT_EQ(RunBlock(store_.Install(out)), 1u);
}

// Copy-and-patch: an opaque hole survives optimization in place and each
// instance patches it, matching Specialize of the same bindings.
TEST_F(SynthesizerTest, PreparedInstancePatchesOpaqueHoles) {
  Asm a("t");
  a.MoveI(kD1, Asm::Sym("k")).Add(kD0, kD1).AddI(kD0, Asm::Sym("n"));
  a.MoveI(kD3, Asm::Sym("dead")).Rts();  // d3 is not live out: its slot goes
  CodeTemplate t = a.Build();
  PreparedTemplate p =
      synth_.Prepare(t, Bindings().Set("n", 2), {"k", "dead"}, opts_);
  ASSERT_FALSE(p.declined());
  EXPECT_TRUE(p.guards().empty()) << "the fixed AddI immediate needs no guard";
  const int32_t values[] = {40, 7};
  CodeBlock got = synth_.Instantiate(p, values);
  CodeBlock want = synth_.Specialize(
      t, Bindings().Set("k", 40).Set("n", 2).Set("dead", 7), nullptr, opts_);
  EXPECT_EQ(got.code, want.code);
  EXPECT_EQ(got.code.size(), 4u);  // movei d1; add; addi; rts
  EXPECT_EQ(RunBlock(store_.Install(got), 0), 42u);
}

// An identity value in an opaque immediate is a guard, not a rewrite: the
// instance that trips it is specialized the full way.
TEST_F(SynthesizerTest, PreparedGuardsSendIdentityValuesToTheFullPath) {
  Asm a("t");
  a.AndI(kD0, Asm::Sym("mask")).Rts();
  CodeTemplate t = a.Build();
  PreparedTemplate p = synth_.Prepare(t, Bindings(), {"mask"}, opts_);
  ASSERT_FALSE(p.declined());
  ASSERT_EQ(p.guards().size(), 1u);
  EXPECT_EQ(p.guards()[0], (PreparedTemplate::Guard{0, -1}));
  for (int32_t mask : {0xFF, -1}) {
    const int32_t values[] = {mask};
    EXPECT_EQ(p.Trips(values), mask == -1);
    SynthesisStats got_st, want_st;
    CodeBlock got = synth_.Instantiate(p, values, &got_st);
    CodeBlock want = synth_.Specialize(t, Bindings().Set("mask", mask), nullptr,
                                       opts_, &want_st);
    EXPECT_EQ(got.code, want.code) << mask;
    EXPECT_EQ(got_st.removed_instructions, want_st.removed_instructions) << mask;
  }
}

// A fold that would read an opaque value declines the template; instances
// then run Specialize and still come out equal.
TEST_F(SynthesizerTest, PreparedDeclinesFoldsOverOpaqueValues) {
  Asm a("t");
  a.MoveI(kD1, Asm::Sym("k")).MoveI(kD0, 5).Add(kD0, kD1).Rts();
  CodeTemplate t = a.Build();
  PreparedTemplate p = synth_.Prepare(t, Bindings(), {"k"}, opts_);
  EXPECT_TRUE(p.declined());
  const int32_t values[] = {37};
  CodeBlock got = synth_.Instantiate(p, values);
  EXPECT_EQ(got.code, synth_.Specialize(t, Bindings().Set("k", 37), nullptr,
                                        opts_).code);
  EXPECT_EQ(RunBlock(store_.Install(got)), 42u);
}

}  // namespace
}  // namespace synthesis
