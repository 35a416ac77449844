// Differential fuzzing of the synthesizer: random templates are specialized
// and must compute exactly what the unoptimized (verbatim) program computes,
// for every binding and invariant-memory configuration tried. This is the
// synthesizer's strongest correctness guarantee: whatever the optimizer does
// — folding, inlining, branch elimination, DCE, peephole — semantics are
// preserved. Random templates with holes also pin copy-and-patch synthesis
// (Prepare/Instantiate) to Specialize, code and stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/fs/bcache.h"
#include "src/fs/disk.h"
#include "src/fs/file_system.h"
#include "src/io/channel.h"
#include "src/io/crash_harness.h"
#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/kernel/user_program.h"
#include "src/machine/assembler.h"
#include "src/machine/code_store.h"
#include "src/machine/executor.h"
#include "src/machine/machine.h"
#include "src/net/demux.h"
#include "src/net/frame.h"
#include "src/net/nic_device.h"
#include "src/net/nic_pool.h"
#include "src/net/stream.h"
#include "src/synth/synthesizer.h"

namespace synthesis {
namespace {

constexpr size_t kMem = 256 * 1024;
constexpr Addr kDataBase = 0x2000;   // readable/writable playground
constexpr Addr kInvBase = 0x4000;    // declared invariant
constexpr uint32_t kInvWords = 32;

// Generates a random straight-line-with-forward-branches template that only
// touches [kDataBase, kDataBase+4K) and reads [kInvBase, +128).
//
// With `holes` set, about half the immediates below become named holes
// (appended to *holes): kMoveI values, which then feed Add/Move/CmpI/Lea/Load
// folds through their register, the kAddI/kAndI/kMulI/kLea operands that
// peephole rules test for identity values, kCmpI operands, kLoadA/kStoreA
// addresses and kJsr targets; the op mix gains kMulI, kLea, based loads and
// calls to blocks 1 and 2. Such templates are for code comparison only: a
// hole may hold any address.
CodeTemplate RandomTemplate(std::mt19937& rng, int length, int id,
                            std::vector<std::string>* holes = nullptr) {
  Asm a("fuzz" + std::to_string(id));
  std::uniform_int_distribution<int> op_pick(0, holes ? 15 : 11);
  std::uniform_int_distribution<int> reg_pick(0, 5);       // d0-d5
  std::uniform_int_distribution<int> imm_pick(-64, 64);
  std::uniform_int_distribution<int> word_pick(0, 31);
  auto imm = [&](int32_t literal) -> ImmArg {
    if (holes == nullptr || rng() % 2 == 0) {
      return literal;
    }
    holes->push_back("h" + std::to_string(holes->size()));
    return Asm::Sym(holes->back());
  };
  int pending_label = 0;
  std::vector<std::string> labels;
  for (int i = 0; i < length; i++) {
    uint8_t rd = static_cast<uint8_t>(reg_pick(rng));
    uint8_t rs = static_cast<uint8_t>(reg_pick(rng));
    switch (op_pick(rng)) {
      case 0:
        a.MoveI(rd, imm(imm_pick(rng)));
        break;
      case 1:
        a.Move(rd, rs);
        break;
      case 2:
        a.AddI(rd, imm(imm_pick(rng)));
        break;
      case 3:
        a.Add(rd, rs);
        break;
      case 4:
        a.Sub(rd, rs);
        break;
      case 5:
        a.AndI(rd, imm(imm_pick(rng) | 0xFF));
        break;
      case 6:
        a.LsrI(rd, word_pick(rng) % 8);
        break;
      case 7:  // read from the invariant region
        a.LoadA32(rd, imm(static_cast<int32_t>(kInvBase + 4 * word_pick(rng))));
        break;
      case 8:  // read/write the mutable playground
        a.LoadA32(rd, imm(static_cast<int32_t>(kDataBase + 4 * word_pick(rng))));
        break;
      case 9:
        a.StoreA32(imm(static_cast<int32_t>(kDataBase + 4 * word_pick(rng))), rs);
        break;
      case 12:
        a.MulI(rd, imm(word_pick(rng) % 4));
        break;
      case 13:
        a.Lea(rd, rs, imm(word_pick(rng) % 3));
        break;
      case 14:
        a.Load32(rd, rs, imm(4 * (word_pick(rng) % 4)));
        break;
      case 15:
        a.Jsr(imm(1 + word_pick(rng) % 2));
        break;
      case 10: {  // forward conditional branch over the next few instructions
        std::string label = "L" + std::to_string(id) + "_" + std::to_string(i);
        a.Tst(rd);
        switch (word_pick(rng) % 3) {
          case 0:
            a.Beq(label);
            break;
          case 1:
            a.Bne(label);
            break;
          default:
            a.Blt(label);
            break;
        }
        labels.push_back(label);
        pending_label = 2 + word_pick(rng) % 3;
        break;
      }
      default:
        a.CmpI(rd, imm(imm_pick(rng)));
        break;
    }
    if (pending_label > 0 && --pending_label == 0 && !labels.empty()) {
      a.Label(labels.back());
      labels.pop_back();
    }
  }
  for (const std::string& l : labels) {
    a.Label(l);  // resolve any branch still dangling at the end
  }
  a.Rts();
  return a.Build();
}

class SynthesizerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SynthesizerFuzz, SpecializedEqualsVerbatim) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2654435761u + 17);
  Machine m(kMem, MachineConfig::SunEmulation());
  CodeStore store;
  Synthesizer synth(store);
  Executor exec(m, store);

  // Fill the invariant region with random constants (fixed per test case).
  for (uint32_t w = 0; w < kInvWords; w++) {
    m.memory().Write32(kInvBase + 4 * w, rng());
  }
  InvariantMemory inv(m.memory());
  inv.AddRange(AddrRange{kInvBase, kInvBase + 4 * kInvWords});

  SynthesisOptions full;
  full.live_out = 0x3F | (1u << 15);  // d0-d5 results + sp

  for (int round = 0; round < 16; round++) {
    CodeTemplate tmpl = RandomTemplate(rng, 24, GetParam() * 100 + round);
    CodeBlock verbatim = synth.Specialize(tmpl, Bindings(), nullptr,
                                          SynthesisOptions::Disabled(), nullptr,
                                          "v" + std::to_string(round));
    CodeBlock fast = synth.Specialize(tmpl, Bindings(), &inv, full, nullptr,
                                      "f" + std::to_string(round));
    BlockId vid = store.Install(verbatim);
    BlockId fid = store.Install(fast);

    // Randomize initial registers and the mutable playground identically for
    // both executions; compare registers d0-d5 and the playground after.
    std::vector<uint32_t> seed_regs(6);
    std::vector<uint32_t> seed_mem(64);
    for (auto& v : seed_regs) {
      v = rng();
    }
    for (auto& v : seed_mem) {
      v = rng();
    }
    auto run = [&](BlockId blk, std::vector<uint32_t>* regs_out,
                   std::vector<uint32_t>* mem_out) {
      for (int r = 0; r < 6; r++) {
        m.set_reg(static_cast<uint8_t>(r), seed_regs[static_cast<size_t>(r)]);
      }
      for (uint32_t w = 0; w < 64; w++) {
        m.memory().Write32(kDataBase + 4 * w, seed_mem[w]);
      }
      RunResult rr = exec.Call(blk, 100'000);
      ASSERT_EQ(rr.outcome, RunOutcome::kReturned);
      for (int r = 0; r < 6; r++) {
        regs_out->push_back(m.reg(static_cast<uint8_t>(r)));
      }
      for (uint32_t w = 0; w < 64; w++) {
        mem_out->push_back(m.memory().Read32(kDataBase + 4 * w));
      }
    };
    std::vector<uint32_t> vregs, vmem, fregs, fmem;
    run(vid, &vregs, &vmem);
    run(fid, &fregs, &fmem);
    ASSERT_EQ(vregs, fregs) << "register divergence in round " << round;
    ASSERT_EQ(vmem, fmem) << "memory divergence in round " << round;
  }
}

// Copy-and-patch synthesis against the full pipeline: random templates with
// holes are prepared once, with a random subset of holes fixed and the rest
// opaque, and every instance under random values must equal Specialize of the
// template under the same bindings, code and stats. Instantiate takes the full
// path itself when Prepare declined or a guard trips, so the patched outcome
// is counted separately and must occur: it is the one this test is about.
TEST_P(SynthesizerFuzz, PreparedInstancesEqualSpecialized) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2246822519u + 3);
  CodeStore store;
  Synthesizer synth(store);
  // Call targets for kJsr holes: a leaf and one with a loop.
  Asm leaf("leaf");
  leaf.AddI(kD0, 3).Rts();
  ASSERT_EQ(store.Install(leaf.BuildBlock()), 1);
  Asm loop("loop");
  loop.Label("top").SubI(kD1, 1).Tst(kD1).Bne("top").Rts();
  ASSERT_EQ(store.Install(loop.BuildBlock()), 2);

  SynthesisOptions full;
  full.live_out = 0x3F | (1u << 15);  // d0-d5 results + sp
  // Guard values and block ids come up often; the rest are arbitrary.
  auto value = [&]() -> int32_t {
    switch (rng() % 6) {
      case 0:
        return 0;
      case 1:
        return 1;
      case 2:
        return -1;
      case 3:
        return 2;
      case 4:
        return static_cast<int32_t>(rng() % 129) - 64;
      default:
        return static_cast<int32_t>(rng());
    }
  };

  int patched = 0, declined = 0, guarded = 0;
  for (int round = 0; round < 16; round++) {
    std::vector<std::string> holes;
    CodeTemplate tmpl = RandomTemplate(rng, 24, GetParam() * 100 + round, &holes);
    Bindings fixed;
    std::vector<std::string> opaque;
    for (const std::string& h : holes) {
      if (rng() % 4 == 0) {
        fixed.Set(h, value());
      } else {
        opaque.push_back(h);
      }
    }
    PreparedTemplate prep = synth.Prepare(tmpl, fixed, opaque, full);
    for (int inst = 0; inst < 8; inst++) {
      std::vector<int32_t> values;
      Bindings all = fixed;
      for (const std::string& h : opaque) {
        values.push_back(value());
        all.Set(h, values.back());
      }
      SynthesisStats want_st, got_st;
      CodeBlock want = synth.Specialize(tmpl, all, nullptr, full, &want_st, "x");
      CodeBlock got = synth.Instantiate(prep, values, &got_st, "x");
      if (prep.declined()) {
        declined++;
      } else if (prep.Trips(values)) {
        guarded++;
      } else {
        patched++;
      }
      ASSERT_EQ(got.code, want.code) << "round " << round << " instance " << inst;
      ASSERT_EQ(got_st.input_instructions, want_st.input_instructions);
      ASSERT_EQ(got_st.output_instructions, want_st.output_instructions);
      ASSERT_EQ(got_st.inlined_calls, want_st.inlined_calls);
      ASSERT_EQ(got_st.folded_loads, want_st.folded_loads);
      ASSERT_EQ(got_st.folded_branches, want_st.folded_branches);
      ASSERT_EQ(got_st.removed_instructions, want_st.removed_instructions);
    }
  }
  RecordProperty("patched", patched);
  RecordProperty("declined", declined);
  RecordProperty("guarded", guarded);
  EXPECT_GT(patched, 0) << "no instance took the copy-and-patch path";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesizerFuzz, ::testing::Range(1, 13));

// --- Demux template fuzzing ---------------------------------------------------
//
// Random flow sets (ports spread over several cell-table leaves, ring sizes,
// fixed-length declarations, datagram and custom flows) drive the demux
// synthesizer through interleaved binds, unbinds and rebinds; after every
// change, random — frequently malformed or hostile — packets are run through
// BOTH the generic and the synthesized demux. Every emitted block must be
// well-formed (branches inside the block, calls to valid blocks), the two
// demux implementations must agree on every packet's fate, the synthesized
// demux must never be re-emitted, and tearing every flow down must return
// the allocator to its post-construction level (the leaves were freed).

// Scans a block: branch targets in range, static call targets valid.
void ExpectWellFormed(Kernel& k, BlockId id) {
  ASSERT_TRUE(k.code().Valid(id));
  const CodeBlock& blk = k.code().Get(id);
  for (const Instr& in : blk.code) {
    if (IsBranch(in.op)) {
      ASSERT_GE(in.imm, 0) << "branch before block start in " << blk.name;
      ASSERT_LT(static_cast<size_t>(in.imm), blk.code.size())
          << "branch past block end in " << blk.name;
    }
    if (in.op == Opcode::kJsr) {
      ASSERT_TRUE(k.code().Valid(static_cast<BlockId>(in.imm)))
          << "dangling call in " << blk.name;
    }
  }
}

// A custom flow's synthesized deliver with the generic walk's verdicts for a
// flexible-length flow whose handler accepts: length check, then the shared
// checksum, then d0 = 1 — the shape of a stream segment processor.
BlockId AcceptingDeliver(Kernel& k, DemuxSynthesizer& demux, uint16_t port) {
  Asm a("fuzz_custom$" + std::to_string(port));
  a.MoveI(kD2, port);
  a.Load32(kD5, kA1, FrameLayout::kLength);
  a.MoveI(kD1, FrameLayout::kMaxPayload);
  a.Cmp(kD5, kD1);
  a.Bls("lenok");
  a.LoadA32(kD1, static_cast<int32_t>(demux.ctr_malformed_addr()));
  a.AddI(kD1, 1);
  a.StoreA32(static_cast<int32_t>(demux.ctr_malformed_addr()), kD1);
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("lenok");
  a.Jsr(static_cast<int32_t>(demux.csum_block()));
  a.Tst(kD0);
  a.Bne("ck");
  a.LoadA32(kD1, static_cast<int32_t>(demux.ctr_csum_addr()));
  a.AddI(kD1, 1);
  a.StoreA32(static_cast<int32_t>(demux.ctr_csum_addr()), kD1);
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("ck");
  a.MoveI(kD0, 1);
  a.Rts();
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  return k.SynthesizeInstall(a.Build(), Bindings(), nullptr, "", nullptr,
                             &verbatim);
}

class DemuxFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DemuxFuzz, RandomFlowsAndMalformedPacketsNeverBreakTheDemux) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2246822519u + 3);
  Kernel k;
  IoSystem io(k, nullptr);
  DemuxSynthesizer demux(k);
  const uint32_t base_bytes = k.allocator().bytes_in_use();
  const uint32_t base_count = k.allocator().allocation_count();
  const BlockId synth = demux.synthesized_demux();
  ExpectWellFormed(k, demux.generic_demux());
  ExpectWellFormed(k, synth);

  // The custom flows' shared generic handler: the walk has already checked
  // length and checksum, so it just accepts.
  Asm acc("fuzz_accept");
  acc.MoveI(kD0, 1);
  acc.Rts();
  const BlockId accept = k.SynthesizeInstall(acc.Build(), Bindings(), nullptr,
                                             "fuzz_accept");

  // Candidate ports: the leaf edges 255 | 256 and the top port 65535 (three
  // different leaves), plus random ports anywhere in the space.
  std::uniform_int_distribution<uint32_t> port_pick(1, 65535);
  std::uniform_int_distribution<uint32_t> capexp_pick(6, 12);
  std::uniform_int_distribution<uint32_t> fixed_pick(0, 96);
  std::vector<uint16_t> candidates = {255, 256, 65535};
  while (candidates.size() < 16) {
    const uint16_t p = static_cast<uint16_t>(port_pick(rng));
    if (std::find(candidates.begin(), candidates.end(), p) == candidates.end()) {
      candidates.push_back(p);
    }
  }
  struct Bound {
    std::shared_ptr<RingHost> ring;
    BlockId custom = kInvalidBlock;  // caller-owned deliver (custom flows)
    bool on_generic = false;         // custom cell rebound to the walk
  };
  std::map<uint16_t, Bound> bound;
  std::vector<BlockId> custom_blocks;
  auto bind = [&](uint16_t port) {
    Bound b;
    b.ring = io.MakeRing(1u << capexp_pick(rng));
    if (rng() % 3 == 0) {
      b.custom = AcceptingDeliver(k, demux, port);
      custom_blocks.push_back(b.custom);
      ASSERT_TRUE(demux.AddFlowCustom(port, b.ring->base, 0, b.custom, accept));
    } else {
      ASSERT_TRUE(demux.AddFlow(port, b.ring->base, fixed_pick(rng)));
    }
    bound[port] = std::move(b);
  };
  auto unbind = [&](uint16_t port) {
    ASSERT_TRUE(demux.RemoveFlow(port));
    ASSERT_FALSE(demux.RemoveFlow(port));
    k.allocator().Free(bound[port].ring->base);
    bound.erase(port);
  };

  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);
  Memory& mem = k.machine().memory();
  // Random packets against the current flow set, generic vs synthesized.
  auto compare = [&](int step) {
    for (int round = 0; round < 8; round++) {
      // Aimed at a bound port, at a candidate (often one just unbound), at
      // a random one, or hostile: a dst word past the port space that
      // aliases a bound port in its low 16 bits.
      uint32_t dst = port_pick(rng);
      const uint32_t aim = rng() % 5;
      if (aim == 2) {
        dst = candidates[rng() % candidates.size()];
      } else if (aim != 3 && !bound.empty()) {
        auto it = bound.begin();
        std::advance(it, rng() % bound.size());
        dst = it->first;
      }
      if (aim == 4) {
        dst |= (1u + rng() % 0xFFFFu) << 16;
      }
      uint32_t declared = rng() % 4 == 0 ? rng() : rng() % 128;
      uint32_t actual = declared <= FrameLayout::kMaxPayload
                            ? declared
                            : rng() % FrameLayout::kMaxPayload;
      std::vector<uint8_t> payload(actual);
      for (auto& b : payload) {
        b = static_cast<uint8_t>(rng());
      }
      uint32_t src = port_pick(rng);
      uint32_t csum = FrameChecksum(dst, src, payload.data(), actual);
      if (declared != actual) {
        csum = rng();  // the declared length never matches anyway
      } else if (rng() % 3 == 0) {
        csum += 1 + rng() % 5;
      } else if (rng() % 7 == 0) {
        csum = rng();
      }
      mem.Write32(frame + FrameLayout::kDstPort, dst);
      mem.Write32(frame + FrameLayout::kSrcPort, src);
      mem.Write32(frame + FrameLayout::kLength, declared);
      mem.Write32(frame + FrameLayout::kChecksum, csum);
      if (actual > 0) {
        mem.WriteBytes(frame + FrameLayout::kPayload, payload.data(), actual);
      }

      // Run generic and synthesized from identical ring state and compare.
      uint32_t verdicts[2];
      uint32_t matched[2] = {0, 0};
      for (int pass = 0; pass < 2; pass++) {
        for (const auto& [port, b] : bound) {
          // Empty every flow ring so both passes see identical space.
          mem.Write32(b.ring->base + RingLayout::kHead, 0);
          mem.Write32(b.ring->base + RingLayout::kTail, 0);
        }
        k.machine().set_reg(kA1, frame);
        k.machine().set_reg(kD0, 0xDEAD);
        RunResult rr = k.kexec().Call(pass == 0 ? demux.generic_demux()
                                                : demux.synthesized_demux());
        ASSERT_EQ(rr.outcome, RunOutcome::kReturned)
            << "demux crashed on step " << step << " round " << round;
        verdicts[pass] = k.machine().reg(kD0);
        matched[pass] = k.machine().reg(kD2);
      }
      EXPECT_EQ(verdicts[0], verdicts[1])
          << "generic and synthesized disagree on step " << step
          << " round " << round << " (dst " << dst << ")";
      if (dst > 0xFFFF) {
        EXPECT_EQ(verdicts[0], static_cast<uint32_t>(-2))
            << "hostile dst " << dst << " matched a flow";
      }
      if (verdicts[0] == verdicts[1] &&
          verdicts[0] != static_cast<uint32_t>(-2)) {
        EXPECT_EQ(matched[0], matched[1])
            << "matched-port divergence on step " << step;
      }
    }
  };

  // Three leaves populated at once, then interleaved churn: bind a free
  // candidate, unbind a bound one, or rebind one (a custom flow's cell swaps
  // between its own deliver and the generic walk, the shape of a degraded
  // stream connection; a datagram flow is torn down and bound afresh).
  for (uint16_t p : {255, 256, 65535}) {
    bind(p);
  }
  compare(-1);
  for (int step = 0; step < 48; step++) {
    const uint16_t port = candidates[rng() % candidates.size()];
    auto it = bound.find(port);
    if (it == bound.end()) {
      bind(port);
    } else if (rng() % 2 == 0) {
      unbind(port);
    } else if (it->second.custom != kInvalidBlock) {
      Bound& b = it->second;
      b.on_generic = !b.on_generic;
      ASSERT_TRUE(demux.SetFlowDeliver(
          port, b.on_generic ? demux.generic_demux() : b.custom));
    } else {
      ASSERT_FALSE(demux.SetFlowDeliver(port, demux.generic_demux()))
          << "a datagram flow's deliver belongs to the demux";
      unbind(port);
      bind(port);
    }
    ASSERT_EQ(demux.flow_count(), bound.size());
    ASSERT_EQ(demux.synthesized_demux(), synth)
        << "flow churn must not re-emit the demux";
    ExpectWellFormed(k, demux.generic_demux());
    compare(step);
  }

  // Tear everything down: every leaf, counter word and ring goes back.
  while (!bound.empty()) {
    unbind(bound.begin()->first);
  }
  EXPECT_EQ(demux.flow_count(), 0u);
  k.allocator().Free(frame);
  EXPECT_EQ(k.allocator().bytes_in_use(), base_bytes);
  EXPECT_EQ(k.allocator().allocation_count(), base_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DemuxFuzz, ::testing::Range(1, 9));

// --- Stream segment-processor fuzzing ----------------------------------------
//
// A real connection is established, then random — frequently malformed —
// segments are run through BOTH the interpreted and the synthesized segment
// processor from identical CCB/ring snapshots. The two must agree on the
// verdict and on every observable side effect: CCB fields, event bits, ring
// producer state, delivered bytes, and the shared demux counters.

class StreamFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StreamFuzz, GenericAndSynthesizedProcessorsAgreeOnRandomSegments) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2654435761u + 101);
  Kernel k;
  IoSystem io(k, nullptr);
  NicPool pool(k, NicPoolConfig());
  NicDevice& nic = pool.nic(0);
  StreamLayer st(k, io, pool);

  // Establish a server connection against a hand-rolled peer on port 91.
  ConnId srv = st.Listen(90);
  ASSERT_NE(srv, kBadConn);
  Memory& mem = k.machine().memory();
  {
    std::vector<uint8_t> p(StreamSeg::kHdrBytes, 0);
    uint32_t syn = StreamSeg::kFlagSyn;
    std::memcpy(p.data() + StreamSeg::kFlags, &syn, 4);
    nic.InjectRaw(90, 91, p.data(), StreamSeg::kHdrBytes,
                  FrameChecksum(90, 91, p.data(), StreamSeg::kHdrBytes),
                  StreamSeg::kHdrBytes);
    uint32_t one = 1, ackf = StreamSeg::kFlagAck;
    std::memcpy(p.data() + StreamSeg::kSeq, &one, 4);
    std::memcpy(p.data() + StreamSeg::kAck, &one, 4);
    std::memcpy(p.data() + StreamSeg::kFlags, &ackf, 4);
    nic.InjectRaw(90, 91, p.data(), StreamSeg::kHdrBytes,
                  FrameChecksum(90, 91, p.data(), StreamSeg::kHdrBytes),
                  StreamSeg::kHdrBytes);
  }
  k.Run();
  ASSERT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
  ExpectWellFormed(k, st.generic_processor());
  ExpectWellFormed(k, st.SynthDeliverOf(srv));

  const Addr ccb = st.CcbOf(srv);
  auto ring = st.RingOf(srv);
  const uint32_t ring_cap = ring->capacity;
  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);

  auto capture = [&](std::vector<uint32_t>* out) {
    out->clear();
    for (uint32_t off = 0; off < CcbLayout::kBytes; off += 4) {
      out->push_back(mem.Read32(ccb + off));
    }
    out->push_back(mem.Read32(ring->base + RingLayout::kHead));
    out->push_back(mem.Read32(ring->base + RingLayout::kTail));
    for (uint32_t w = 0; w < 32; w++) {
      out->push_back(mem.Read32(ring->base + RingLayout::kBuf + 4 * w));
    }
    out->push_back(mem.Read32(nic.demux().ctr_malformed_addr()));
    out->push_back(mem.Read32(nic.demux().ctr_csum_addr()));
  };

  for (int round = 0; round < 64; round++) {
    // Random but shared starting state: sequence variables, connection state,
    // and a ring that is sometimes nearly full.
    uint32_t una = 2 + rng() % 8;
    uint32_t nxt = una + rng() % 512;
    uint32_t rnxt = 1 + rng() % 1024;
    uint32_t state = 2 + rng() % 3;  // syn-sent / established / fin-sent
    uint32_t space = rng() % 4 == 0 ? rng() % 9 : ring_cap - 1;
    mem.Write32(ccb + CcbLayout::kState, state);
    mem.Write32(ccb + CcbLayout::kSndUna, una);
    mem.Write32(ccb + CcbLayout::kSndNxt, nxt);
    mem.Write32(ccb + CcbLayout::kRcvNxt, rnxt);
    mem.Write32(ccb + CcbLayout::kEvents, 0);
    mem.Write32(ccb + CcbLayout::kDupAcks, rng() % 3);
    mem.Write32(ccb + CcbLayout::kOoo, rng() % 5);
    mem.Write32(ccb + CcbLayout::kAccepted, rng() % 5);
    mem.Write32(ring->base + RingLayout::kTail, 0);
    mem.Write32(ring->base + RingLayout::kHead,
                (ring_cap - 1 - space) & (ring_cap - 1));

    // Random segment: seq/ack clustered around the interesting boundaries,
    // flags mixed, sources mostly-right, checksums mostly-right, lengths
    // valid through runt and oversized.
    auto r32 = [&] { return static_cast<uint32_t>(rng()); };
    uint32_t seq_menu[] = {rnxt, rnxt + 1 + r32() % 64, rnxt - 1, r32()};
    uint32_t ack_menu[] = {una, una + 1 + r32() % (nxt - una + 2),
                           nxt, nxt + 1 + r32() % 16, r32()};
    uint32_t seq = seq_menu[rng() % 4];
    uint32_t ack = ack_menu[rng() % 5];
    uint32_t flags = StreamSeg::kFlagAck;
    if (rng() % 4 == 0) {
      flags |= 1u << (rng() % 4);  // SYN/ACK/FIN/RST
    }
    uint32_t dlen = rng() % 3 == 0 ? 0 : rng() % 64;
    uint32_t src = rng() % 5 == 0 ? 77 : 91;
    std::vector<uint8_t> p(StreamSeg::kHdrBytes + dlen);
    std::memcpy(p.data() + StreamSeg::kSeq, &seq, 4);
    std::memcpy(p.data() + StreamSeg::kAck, &ack, 4);
    std::memcpy(p.data() + StreamSeg::kFlags, &flags, 4);
    for (uint32_t i = 0; i < dlen; i++) {
      p[StreamSeg::kHdrBytes + i] = static_cast<uint8_t>(rng());
    }
    uint32_t plen = static_cast<uint32_t>(p.size());
    if (rng() % 8 == 0) {
      plen = rng() % StreamSeg::kHdrBytes;  // runt
    }

    std::vector<uint32_t> before;
    capture(&before);
    std::vector<uint32_t> got[2];
    uint32_t d0[2] = {0, 0};
    for (int pass = 0; pass < 2; pass++) {
      // Both passes start from the identical snapshot.
      uint32_t idx = 0;
      for (uint32_t off = 0; off < CcbLayout::kBytes; off += 4) {
        mem.Write32(ccb + off, before[idx++]);
      }
      mem.Write32(ring->base + RingLayout::kHead, before[idx++]);
      mem.Write32(ring->base + RingLayout::kTail, before[idx++]);
      for (uint32_t w = 0; w < 32; w++) {
        mem.Write32(ring->base + RingLayout::kBuf + 4 * w, before[idx++]);
      }
      mem.Write32(nic.demux().ctr_malformed_addr(), before[idx++]);
      mem.Write32(nic.demux().ctr_csum_addr(), before[idx++]);
      WriteFrame(mem, frame, 90, src, p.data(), plen);
      // Corrupt the checksum on a deterministic schedule so both passes see
      // the identical (sometimes bad) frame.
      if ((round * 2654435761u) % 8 == 0) {
        mem.Write32(frame + FrameLayout::kChecksum,
                    mem.Read32(frame + FrameLayout::kChecksum) + 1);
      }
      k.machine().set_reg(kA1, frame);
      k.machine().set_reg(kD0, 0xDEAD);
      RunResult rr = k.kexec().Call(pass == 0 ? nic.demux().generic_demux()
                                              : nic.demux().synthesized_demux());
      ASSERT_EQ(rr.outcome, RunOutcome::kReturned)
          << "segment processor crashed on round " << round;
      d0[pass] = k.machine().reg(kD0);
      capture(&got[pass]);
    }
    EXPECT_EQ(d0[0], d0[1]) << "verdict divergence on round " << round;
    EXPECT_EQ(got[0], got[1])
        << "CCB/ring/counter divergence on round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamFuzz, ::testing::Range(1, 7));

// --- Fault-schedule fuzzing ---------------------------------------------------
//
// Random wire fault mixes drive a complete transfer; every run must end in a
// bounded number of steps with either a fully delivered stream or a graceful
// connection failure — never a wedged ring or a hung kernel.

class PumpSender : public UserProgram {
 public:
  PumpSender(StreamLayer& st, ConnId conn, const std::string& data, bool* err)
      : st_(st), conn_(conn), data_(data), err_(err) {}
  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(128);
    }
    if (off_ >= data_.size()) {
      st_.Close(conn_);
      return StepStatus::kDone;
    }
    uint32_t take =
        std::min<uint32_t>(128, static_cast<uint32_t>(data_.size() - off_));
    k.machine().memory().WriteBytes(buf_, data_.data() + off_, take);
    int32_t n = st_.Send(conn_, buf_, take);
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;
    }
    if (n == kIoError) {
      *err_ = true;
      return StepStatus::kDone;
    }
    off_ += static_cast<uint32_t>(n);
    k.machine().Charge(40, 10, 0);
    return StepStatus::kYield;
  }

 private:
  StreamLayer& st_;
  ConnId conn_;
  std::string data_;
  bool* err_;
  Addr buf_ = 0;
  size_t off_ = 0;
};

class PumpReceiver : public UserProgram {
 public:
  PumpReceiver(StreamLayer& st, ConnId conn, std::string* out)
      : st_(st), conn_(conn), out_(out) {}
  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(128);
    }
    int32_t n = st_.Recv(conn_, buf_, 128);
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;
    }
    if (n <= 0) {
      if (n == 0) {
        st_.Close(conn_);
      }
      return StepStatus::kDone;
    }
    char tmp[128];
    k.machine().memory().ReadBytes(buf_, tmp, static_cast<size_t>(n));
    out_->append(tmp, static_cast<size_t>(n));
    k.machine().Charge(40, 10, 0);
    return StepStatus::kYield;
  }

 private:
  StreamLayer& st_;
  ConnId conn_;
  std::string* out_;
  Addr buf_ = 0;
};

class StreamFaultScheduleFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StreamFaultScheduleFuzz, EveryFaultMixEndsDeliveredOrGracefullyFailed) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2246822519u + 77);
  for (int round = 0; round < 4; round++) {
    NicConfig cfg;
    cfg.drop_rate = (rng() % 35) / 100.0;
    cfg.reorder_rate = (rng() % 30) / 100.0;
    cfg.duplicate_rate = (rng() % 25) / 100.0;
    cfg.burst_loss_rate = (rng() % 8) / 100.0;
    cfg.burst_len = 2 + rng() % 3;
    cfg.fault_seed = rng();
    Kernel k;
    IoSystem io(k, nullptr);
    NicPoolConfig pc;
    pc.nic = cfg;
    NicPool pool(k, pc);
    pool.UseSynthesizedDemux(rng() % 2 == 0);
    StreamLayer st(k, io, pool);
    StreamConfig scfg;
    scfg.rto_base_us = 3000;
    scfg.max_retries = 12;
    ConnId srv = st.Listen(80, scfg);
    ConnId cli = st.Connect(80, scfg);
    std::string pattern;
    for (int i = 0; i < 600; i++) {
      pattern.push_back(static_cast<char>('!' + (i * 11) % 90));
    }
    std::string delivered;
    bool send_err = false;
    k.CreateThread(std::make_unique<PumpSender>(st, cli, pattern, &send_err));
    k.CreateThread(std::make_unique<PumpReceiver>(st, srv, &delivered));
    k.Run(80'000'000);
    uint32_t cs = st.StateOf(cli);
    ASSERT_TRUE(cs == CcbLayout::kDone || cs == CcbLayout::kFailed)
        << "round " << round << ": connection wedged in state " << cs;
    EXPECT_EQ(delivered, pattern.substr(0, delivered.size()))
        << "round " << round << ": corrupted or misordered delivery";
    if (cs == CcbLayout::kDone) {
      EXPECT_EQ(delivered, pattern) << "round " << round;
    } else {
      EXPECT_GE(st.failed_gauge().events(), 1u) << "round " << round;
    }
    ExpectWellFormed(k, st.generic_processor());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamFaultScheduleFuzz, ::testing::Range(1, 7));

// --- Adaptation-schedule fuzzing ---------------------------------------------
//
// Differential: a transfer under a random adaptation schedule (seeded promote
// / demote / sweep / byte-cap flips fired between run slices) must deliver
// the byte-identical stream a schedule-free run delivers. Tier changes are
// pure performance decisions; any observable difference is a bug.

class AdaptFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AdaptFuzz, RandomTierScheduleNeverChangesDeliveredBytes) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2654435761u + 991);
  std::string pattern;
  for (int i = 0; i < 1200; i++) {
    pattern.push_back(static_cast<char>('!' + (i * 11) % 90));
  }

  auto run = [&](bool adapt_schedule) {
    Kernel::Config kc;
    kc.adapt.promote_hits = 4 + rng() % 32;
    kc.adapt.demote_windows = 1 + rng() % 4;
    Kernel k(kc);
    IoSystem io(k, nullptr);
    NicPoolConfig pc;
    pc.initial_nics = 1;
    NicPool pool(k, pc);
    StreamLayer st(k, io, pool);
    ConnId srv = st.Listen(80);
    ConnId cli = st.Connect(80);
    std::string delivered;
    bool send_err = false;
    k.CreateThread(std::make_unique<PumpSender>(st, cli, pattern, &send_err));
    k.CreateThread(std::make_unique<PumpReceiver>(st, srv, &delivered));
    for (int round = 0; round < 3000 && st.StateOf(cli) != CcbLayout::kDone;
         round++) {
      k.Run(20 + rng() % 80);
      if (!adapt_schedule) {
        continue;
      }
      SpecId targets[2] = {st.SpecOf(srv), st.SpecOf(cli)};
      SpecId s = targets[rng() % 2];
      switch (rng() % 6) {
        case 0:
          k.spec().Promote(s, SpecTier::kHot);
          break;
        case 1:
          k.spec().Promote(s, SpecTier::kSpecialized);
          break;
        case 2:
          k.spec().Demote(s, SpecTier::kGeneric);
          break;
        case 3:
          k.code().SetByteCap(rng() % 2 == 0 ? 8 * 1024 : 0);
          k.AdaptNow();
          break;
        default:
          k.AdaptNow();
          break;
      }
    }
    k.Run(20'000'000);
    EXPECT_FALSE(send_err);
    EXPECT_EQ(st.StateOf(cli), CcbLayout::kDone) << "adaptation wedged a "
                                                    "clean-wire transfer";
    return delivered;
  };

  // The rng draws differ between the two runs by construction (the reference
  // run draws only slice sizes) — the DELIVERED BYTES are what must match.
  std::string adapted = run(/*adapt_schedule=*/true);
  std::string reference = run(/*adapt_schedule=*/false);
  EXPECT_EQ(adapted, pattern);
  EXPECT_EQ(reference, pattern);
  EXPECT_EQ(adapted, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptFuzz, ::testing::Range(1, 6));

// --- Fault-plane replay fuzzing -----------------------------------------------
//
// The fault plane's core guarantee: the injection schedule is a pure function
// of the seed and the workload. Two runs of the same transfer under the same
// plane seed must produce a byte-identical injection log AND end in the same
// gauge state — any nondeterminism anywhere in the kernel (an unseeded rng, a
// host-pointer-ordered container on a decision path) breaks this loudly.

struct ReplayResult {
  std::string log;     // FaultPlane::SerializeLog()
  std::string gauges;  // fingerprint of every counter the run touched
  std::string delivered;
  uint32_t client_state = 0;
};

ReplayResult RunUnderFaultPlane(uint32_t plane_seed) {
  Kernel::Config kc;
  kc.fault_seed = plane_seed;
  Kernel k(kc);
  // Probability triggers on the wire sites (seed-dependent), a deterministic
  // every-Nth on the alarm path (guarantees a non-empty log), and a spurious
  // interrupt burst for good measure.
  FaultTrigger drop;
  drop.probability = 0.10;
  FaultTrigger dup;
  dup.probability = 0.06;
  FaultTrigger late;
  late.every_nth = 3;
  FaultTrigger burst;
  burst.probability = 0.05;
  k.faults().Arm(FaultSite::kWireDrop, drop);
  k.faults().Arm(FaultSite::kWireDup, dup);
  k.faults().Arm(FaultSite::kAlarmLate, late);
  k.faults().Arm(FaultSite::kIrqBurst, burst);

  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 2;
  pc.admission_control = true;
  pc.shed_high_watermark = 8;
  pc.shed_low_watermark = 2;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  StreamConfig scfg;
  scfg.rto_base_us = 3000;
  scfg.max_retries = 12;
  ConnId srv = st.Listen(80, scfg);
  ConnId cli = st.Connect(80, scfg);
  std::string pattern;
  for (int i = 0; i < 600; i++) {
    pattern.push_back(static_cast<char>('!' + (i * 11) % 90));
  }
  ReplayResult r;
  bool send_err = false;
  k.CreateThread(std::make_unique<PumpSender>(st, cli, pattern, &send_err));
  k.CreateThread(std::make_unique<PumpReceiver>(st, srv, &r.delivered));
  k.Run(80'000'000);
  r.client_state = st.StateOf(cli);
  r.log = k.faults().SerializeLog();
  NicPool::AggregateStats agg = pool.Aggregate();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "del=%llu tx=%llu ovr=%llu csum=%llu mal=%llu ring=%llu wire=%llu "
      "shed=%llu rtx=%llu to=%llu dup=%llu ooo=%llu fail=%llu open=%llu "
      "fires=%llu",
      static_cast<unsigned long long>(agg.delivered),
      static_cast<unsigned long long>(agg.tx_completed),
      static_cast<unsigned long long>(agg.rx_overruns),
      static_cast<unsigned long long>(agg.csum_rejects),
      static_cast<unsigned long long>(agg.malformed),
      static_cast<unsigned long long>(agg.ring_drops),
      static_cast<unsigned long long>(agg.wire_drops),
      static_cast<unsigned long long>(agg.early_sheds),
      static_cast<unsigned long long>(st.retransmit_gauge().events()),
      static_cast<unsigned long long>(st.timeout_gauge().events()),
      static_cast<unsigned long long>(st.dup_ack_gauge().events()),
      static_cast<unsigned long long>(st.ooo_gauge().events()),
      static_cast<unsigned long long>(st.failed_gauge().events()),
      static_cast<unsigned long long>(st.open_fail_gauge().events()),
      static_cast<unsigned long long>(k.faults().total_fires()));
  r.gauges = buf;
  return r;
}

class FaultScheduleReplayFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultScheduleReplayFuzz, SameSeedReplaysLogAndGaugesByteIdentically) {
  const uint32_t seed = static_cast<uint32_t>(GetParam()) * 2654435761u + 13;
  ReplayResult a = RunUnderFaultPlane(seed);
  ReplayResult b = RunUnderFaultPlane(seed);
  EXPECT_FALSE(a.log.empty()) << "the every-Nth alarm trigger must have fired";
  EXPECT_EQ(a.log, b.log) << "same seed, same workload: the injection log "
                             "must replay byte-identically";
  EXPECT_EQ(a.gauges, b.gauges) << "and so must the final gauge state";
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.client_state, b.client_state);
  ASSERT_TRUE(a.client_state == CcbLayout::kDone ||
              a.client_state == CcbLayout::kFailed)
      << "wedged under injected faults in state " << a.client_state;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScheduleReplayFuzz, ::testing::Range(1, 6));

// --- Buffer-cache differential fuzz -----------------------------------------
// The synthesized per-fd cached read/write paths (map probe, meta update,
// unrolled block copy, miss protocol) against the interpreted layered path:
// the same random schedule of reads, writes, and seeks over a tiny cache
// (constant eviction, read-ahead racing the schedule) must produce identical
// return values, identical bytes, and an identical final file image.

class BcacheStack {
 public:
  explicit BcacheStack(bool synthesized) : k_(MakeCfg(synthesized)), disk_(k_),
      sched_(disk_), fs_(k_, disk_, sched_), bc_(k_, disk_, sched_, MakeBc()),
      io_(k_, &fs_) {
    fs_.AttachBcache(&bc_);
    buf_ = k_.allocator().Allocate(kFuzzCap + 4096);  // Image() reads kFuzzCap
    file_ = fs_.CreateFile("/fuzz", {}, kFuzzCap);
    ch_ = io_.Open("/fuzz");
  }

  static Kernel::Config MakeCfg(bool synthesized) {
    Kernel::Config c;
    if (!synthesized) {
      c.synthesis = SynthesisOptions::Disabled();
    }
    return c;
  }
  static BcacheConfig MakeBc() {
    BcacheConfig c;
    c.entries = 8;             // tiny: the schedule constantly evicts
    c.read_ahead = 3;          // prefetch races the random accesses
    c.flush_period_us = 5'000; // flusher interleaves with the schedule
    c.flush_batch = 2;
    return c;
  }

  int32_t Write(uint32_t pos, const std::string& data) {
    Seek(pos);
    k_.machine().memory().WriteBytes(buf_, data.data(), data.size());
    return io_.Write(ch_, buf_, static_cast<uint32_t>(data.size()));
  }
  int32_t Read(uint32_t pos, uint32_t n, std::string* out) {
    Seek(pos);
    int32_t r = io_.Read(ch_, buf_, n);
    if (r > 0) {
      out->resize(static_cast<size_t>(r));
      k_.machine().memory().ReadBytes(buf_, out->data(),
                                      static_cast<uint32_t>(r));
    } else {
      out->clear();
    }
    return r;
  }
  void Fsync() { io_.Fsync(ch_); }
  void Settle() {
    DiskScheduler::DriveUntil(k_, [&] { return bc_.dirty_blocks() == 0; });
  }
  std::string Image() {
    std::string img;
    const int32_t n = Read(0, kFuzzCap, &img);
    return n >= 0 ? img : "<error>";
  }
  bool Ready() const { return file_ != 0 && ch_ != kBadChannel; }
  Bcache& bc() { return bc_; }
  uint32_t Size() { return fs_.SizeOf(file_); }

  static constexpr uint32_t kFuzzCap = 24 * 512;  // 3x the cache size

 private:
  void Seek(uint32_t pos) {
    k_.machine().memory().Write32(io_.RecordOf(ch_) + ChannelLayout::kPosition,
                                  pos);
  }

  Kernel k_;
  DiskDevice disk_;
  DiskScheduler sched_;
  FileSystem fs_;
  Bcache bc_;
  IoSystem io_;
  Addr buf_ = 0;
  uint32_t file_ = 0;
  ChannelId ch_ = kBadChannel;
};

class BcacheFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BcacheFuzz, CachedPathsMatchLayeredInterpreterExactly) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2654435761u + 101);
  BcacheStack synth(/*synthesized=*/true);
  BcacheStack generic(/*synthesized=*/false);
  ASSERT_TRUE(synth.Ready());
  ASSERT_TRUE(generic.Ready());

  std::string model(BcacheStack::kFuzzCap, '\0');
  uint32_t model_size = 0;
  for (int op = 0; op < 250; ++op) {
    const uint32_t pos = rng() % BcacheStack::kFuzzCap;
    const uint32_t n = 1 + rng() % 2000;  // spans up to ~4 cache blocks
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {  // write a random span
        std::string data(n, '\0');
        for (auto& b : data) {
          b = static_cast<char>(rng() % 256);
        }
        const int32_t rs = synth.Write(pos, data);
        const int32_t rg = generic.Write(pos, data);
        ASSERT_EQ(rs, rg) << "write @" << pos << "+" << n << " op " << op;
        if (rs > 0) {
          model.replace(pos, static_cast<size_t>(rs), data, 0,
                        static_cast<size_t>(rs));
          model_size = std::max(model_size, pos + static_cast<uint32_t>(rs));
        }
        break;
      }
      case 7:  // occasionally force write-back / drain the flusher
        if (rng() % 2 == 0) {
          synth.Fsync();
          generic.Fsync();
        } else {
          synth.Settle();
          generic.Settle();
        }
        break;
      default: {  // read a random span
        std::string bs, bg;
        const int32_t rs = synth.Read(pos, n, &bs);
        const int32_t rg = generic.Read(pos, n, &bg);
        ASSERT_EQ(rs, rg) << "read @" << pos << "+" << n << " op " << op;
        ASSERT_EQ(bs, model.substr(pos, bs.size()))
            << "synth read bytes @" << pos << "+" << n << " op " << op;
        ASSERT_EQ(bg, model.substr(pos, bg.size()))
            << "generic read bytes @" << pos << "+" << n << " op " << op;
        break;
      }
    }
    ASSERT_LE(synth.bc().resident_blocks(), BcacheStack::MakeBc().entries);
    ASSERT_EQ(synth.Size(), model_size) << "synth size diverged at op " << op;
    ASSERT_EQ(generic.Size(), model_size)
        << "generic size diverged at op " << op;
  }

  for (auto [name, img] :
       {std::pair<const char*, std::string>{"synth", synth.Image()},
        {"generic", generic.Image()}}) {
    ASSERT_EQ(img.size(), model_size) << name << " final size diverged";
    size_t diff = 0;
    while (diff < img.size() && img[diff] == model[diff]) {
      diff++;
    }
    EXPECT_EQ(diff, img.size())
        << name << " final image diverged from the op model at byte " << diff
        << " (block " << diff / 512 << ")";
  }
  EXPECT_GT(synth.bc().evictions(), 0u)
      << "the tiny cache must have churned for this fuzz to mean anything";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BcacheFuzz, ::testing::Range(1, 9));

// --- Crash-replay fuzz -------------------------------------------------------
// Power failure composed with lost and late disk completions over a random
// write/fsync schedule: the same seed must reproduce the same injection log
// byte-for-byte and the same surviving platter image, and when the power did
// fail, the remounted file system must audit clean with every byte fsynced
// before the crash intact.

struct CrashRunResult {
  std::string log;        // the injection log (byte-comparable)
  std::string image_sig;  // surviving platter image, hex-folded
  bool crashed = false;
  bool mount_ok = true;
  bool audit_clean = true;
  bool fsynced_survived = true;
};

CrashRunResult RunCrashSchedule(uint32_t seed) {
  CrashStackConfig cfg;
  cfg.disk.sectors = 8192;
  cfg.bcache.entries = 8;  // tiny: constant eviction write-back
  cfg.bcache.flush_period_us = 8'000;
  cfg.bcache.flush_batch = 4;
  cfg.bcache.read_ahead = 3;
  cfg.journal.sectors = 64;
  cfg.kernel.fault_seed = seed;
  CrashHarness h(cfg);

  FaultPlane& f = h.stack().kernel.faults();
  FaultTrigger power;
  power.probability = 0.01;
  f.Arm(FaultSite::kPowerFail, power);
  FaultTrigger lost;
  lost.probability = 0.005;
  f.Arm(FaultSite::kDiskLost, lost);
  FaultTrigger late;
  late.probability = 0.005;
  f.Arm(FaultSite::kDiskLate, late);

  constexpr uint32_t kCap = 16 * 512;
  CrashStack& s = h.stack();
  Addr buf = s.kernel.allocator().Allocate(kCap + 4096);
  EXPECT_NE(s.fs.CreateFile("/cf", {}, kCap), 0u);
  ChannelId ch = s.io.Open("/cf");
  EXPECT_NE(ch, kBadChannel);

  std::vector<uint8_t> fsynced(kCap, 0);  // bytes at the last completed fsync
  std::vector<uint8_t> latest(kCap, 0);   // bytes as last written
  // Per-byte values written since that fsync: any of them may have been
  // pushed home by the flusher before the power failed.
  std::vector<std::vector<uint8_t>> extra(kCap);
  uint32_t fsynced_size = 0, size = 0;

  std::mt19937 rng(seed * 2654435761u + 977);
  for (int op = 0; op < 150 && !h.Crashed(); ++op) {
    const uint32_t kind = rng() % 8;
    if (kind < 5) {
      const uint32_t pos = rng() % (kCap - 600);
      const uint32_t len = 32 + rng() % 560;
      std::string data(len, '\0');
      for (uint32_t i = 0; i < len; ++i) {
        data[i] = static_cast<char>('0' + (rng() % 75));
      }
      s.kernel.machine().memory().Write32(
          s.io.RecordOf(ch) + ChannelLayout::kPosition, pos);
      s.kernel.machine().memory().WriteBytes(buf, data.data(), len);
      const int32_t w = s.io.Write(ch, buf, len);
      for (int32_t i = 0; i < w; ++i) {
        latest[pos + i] = static_cast<uint8_t>(data[static_cast<size_t>(i)]);
        extra[pos + i].push_back(latest[pos + i]);
      }
      if (w > 0) size = std::max(size, pos + static_cast<uint32_t>(w));
    } else if (kind < 7) {
      s.io.Fsync(ch);
      if (!h.Crashed()) {
        fsynced = latest;
        for (auto& e : extra) e.clear();
        fsynced_size = size;
      }
    } else {
      DiskScheduler::DriveUntil(
          s.kernel, [&] { return s.bcache.dirty_blocks() == 0; });
    }
  }

  CrashRunResult r;
  r.crashed = h.Crashed();
  r.log = s.kernel.faults().SerializeLog();
  const std::vector<uint8_t>& img =
      r.crashed ? s.disk.crash_image() : s.disk.backing();
  uint32_t sig = 0;
  for (uint8_t b : img) sig = sig * 1000003u + b;
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x-%zu", sig, img.size());
  r.image_sig = hex;

  if (r.crashed) {
    FileSystem::MountReport rep = h.Reboot();
    r.mount_ok = rep.ok;
    r.audit_clean = rep.audit_clean;
    CrashStack& ns = h.stack();
    ns.kernel.faults().DisarmAll();
    uint32_t id = 0;
    if (!ns.fs.names().Lookup("/cf", &id) || ns.fs.SizeOf(id) < fsynced_size) {
      r.fsynced_survived = false;
      return r;
    }
    Addr nbuf = ns.kernel.allocator().Allocate(kCap + 4096);
    ChannelId nch = ns.io.Open("/cf");
    const uint32_t nsize = ns.fs.SizeOf(id);
    if (nch == kBadChannel ||
        ns.io.Read(nch, nbuf, kCap) != static_cast<int32_t>(nsize)) {
      r.fsynced_survived = false;
      return r;
    }
    std::vector<uint8_t> got(nsize);
    if (nsize > 0) {  // data() of an empty vector is null; memcpy rejects it
      ns.kernel.machine().memory().ReadBytes(nbuf, got.data(), nsize);
    }
    for (uint32_t i = 0; i < fsynced_size; ++i) {
      // A surviving byte is the fsynced value or any value written to it
      // after that fsync (the flusher may have pushed it home pre-crash).
      if (got[i] != fsynced[i] &&
          std::find(extra[i].begin(), extra[i].end(), got[i]) ==
              extra[i].end()) {
        r.fsynced_survived = false;
        break;
      }
    }
  }
  return r;
}

class CrashFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CrashFuzz, SameSeedCrashReplaysByteIdenticallyAndRecovers) {
  const uint32_t seed = static_cast<uint32_t>(GetParam()) * 48271u + 31;
  CrashRunResult a = RunCrashSchedule(seed);
  CrashRunResult b = RunCrashSchedule(seed);
  EXPECT_EQ(a.log, b.log) << "same seed: the injection log must replay "
                             "byte-identically";
  EXPECT_EQ(a.image_sig, b.image_sig)
      << "and the surviving platter image must be byte-stable";
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_TRUE(a.mount_ok) << "remount failed after the crash";
  EXPECT_TRUE(a.audit_clean) << "the auditor found damage after replay";
  EXPECT_TRUE(a.fsynced_survived) << "a pre-crash fsynced byte was lost";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashFuzz, ::testing::Range(1, 10));

}  // namespace
}  // namespace synthesis
