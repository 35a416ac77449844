// Adaptive resynthesis tests: the Specializer's tier ladder (register,
// promote, demote, retire) with exact code-store occupancy accounting, the
// monitor-driven sweep (heat promotion, idle demotion, degraded retry,
// byte-cap clock eviction), refusal fallback under injected kCodeInstall
// faults, the CodeStore Replace rename audit and clock second-chance policy,
// config validation death tests, and stream-level integration: byte-identical
// delivery across mid-traffic tier changes and byte-stable same-seed replay
// under a fault plane with adaptation running.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/io/io_system.h"
#include "src/kernel/fault_plane.h"
#include "src/kernel/kernel.h"
#include "src/machine/code_store.h"
#include "src/net/nic_device.h"
#include "src/net/nic_pool.h"
#include "src/net/stream.h"
#include "src/synth/specializer.h"

namespace synthesis {
namespace {

// A block of `instrs` no-op instructions: never executed, only its footprint
// matters (each micro-op models 4 bytes).
CodeBlock Filler(const std::string& name, size_t instrs) {
  CodeBlock b;
  b.name = name;
  b.code.assign(instrs, Instr{});
  return b;
}

// A standalone Specializer over its own store with a DEFERRED retire hook
// mirroring the kernel's contract: released blocks queue until an explicit
// drain, so the sweep's pressure accounting (which tracks bytes it has
// released but not yet gotten back) is exercised exactly as in the kernel.
struct ToyWorld {
  ToyWorld() : ToyWorld(AdaptConfig()) {}
  explicit ToyWorld(AdaptConfig cfg)
      : spec(store, cfg, [this](BlockId b) {
          retired.push_back(b);
          pending.push_back(b);
        }) {}

  void Drain() {
    for (BlockId b : pending) {
      store.Uninstall(b);
    }
    pending.clear();
  }

  CodeStore store;
  std::vector<BlockId> retired;  // every block ever released, in order
  std::vector<BlockId> pending;  // released but not yet drained
  Specializer spec;
};

// --- The tier ladder, with exact occupancy accounting ------------------------

TEST(SpecializerTest, RegisterPromoteDemoteRetireReleaseExactly) {
  ToyWorld w;
  BlockId generic = w.store.Install(Filler("toy_gen", 4));
  const size_t base_blocks = w.store.live_block_count();
  const size_t base_bytes = w.store.code_bytes();

  BlockId last_install = kInvalidBlock;
  int installs = 0;
  SpecDesc sd;
  sd.name = "toy";
  sd.generic = generic;
  sd.emit = [&](SpecTier t) {
    // Hot code is bigger (deeper folding unrolls); the byte accounting below
    // must track the difference exactly.
    return w.store.Install(
        Filler(std::string("toy@") + SpecTierName(t),
               t == SpecTier::kHot ? 16 : 8));
  };
  sd.install = [&](BlockId b, SpecTier, SpecInstall) {
    last_install = b;
    installs++;
  };
  SpecId id = w.spec.Register(std::move(sd));
  ASSERT_NE(id, kBadSpec);
  EXPECT_EQ(w.spec.TierOf(id), SpecTier::kSpecialized);
  EXPECT_FALSE(w.spec.DegradedOf(id));
  EXPECT_EQ(w.store.live_block_count(), base_blocks + 1);
  EXPECT_EQ(w.store.code_bytes(), base_bytes + 8 * 4);
  EXPECT_EQ(installs, 0) << "Register must not call install: the owner is "
                            "mid-construction and wires the block itself";
  const BlockId specialized = w.spec.ActiveOf(id);
  ASSERT_NE(specialized, kInvalidBlock);

  // Promotion swaps the block and releases the old one — net one block once
  // the deferred retirement drains.
  ASSERT_TRUE(w.spec.Promote(id, SpecTier::kHot));
  EXPECT_EQ(w.spec.TierOf(id), SpecTier::kHot);
  EXPECT_EQ(last_install, w.spec.ActiveOf(id));
  EXPECT_EQ(w.retired, std::vector<BlockId>{specialized});
  w.Drain();
  EXPECT_EQ(w.store.live_block_count(), base_blocks + 1);
  EXPECT_EQ(w.store.code_bytes(), base_bytes + 16 * 4);
  EXPECT_EQ(w.spec.promotions(), 1u);

  // Demotion to generic releases the owned block exactly; the handle now
  // aliases the shared fallback it does not own.
  ASSERT_TRUE(w.spec.Demote(id, SpecTier::kGeneric));
  EXPECT_EQ(w.spec.ActiveOf(id), generic);
  EXPECT_EQ(w.spec.TierOf(id), SpecTier::kGeneric);
  w.Drain();
  EXPECT_EQ(w.store.live_block_count(), base_blocks);
  EXPECT_EQ(w.store.code_bytes(), base_bytes);
  EXPECT_EQ(w.spec.demotions(), 1u);

  // Retiring a generic-tier handle must not touch the shared block.
  w.spec.Retire(id);
  EXPECT_EQ(w.spec.live_handles(), 0u);
  EXPECT_EQ(w.store.live_block_count(), base_blocks);
  EXPECT_TRUE(w.store.Valid(generic));
}

TEST(SpecializerTest, RefusedUpgradeKeepsCurrentBlockWithoutInstall) {
  ToyWorld w;
  BlockId generic = w.store.Install(Filler("gen", 4));
  int installs = 0;
  SpecDesc sd;
  sd.name = "refuser";
  sd.generic = generic;
  sd.emit = [&](SpecTier t) {
    return t == SpecTier::kHot ? kInvalidBlock
                               : w.store.Install(Filler("refuser@spec", 8));
  };
  sd.install = [&](BlockId, SpecTier, SpecInstall) { installs++; };
  SpecId id = w.spec.Register(std::move(sd));
  const BlockId before = w.spec.ActiveOf(id);
  const uint64_t refusals = w.spec.refusals();

  // A refused pure upgrade changes nothing: the current lower-tier block is
  // still semantically valid, so it stays active and install is never called.
  EXPECT_FALSE(w.spec.Promote(id, SpecTier::kHot));
  EXPECT_EQ(w.spec.ActiveOf(id), before);
  EXPECT_EQ(w.spec.TierOf(id), SpecTier::kSpecialized);
  EXPECT_FALSE(w.spec.DegradedOf(id));
  EXPECT_EQ(installs, 0);
  EXPECT_EQ(w.spec.refusals(), refusals + 1);
  EXPECT_TRUE(w.retired.empty());
}

TEST(SpecializerTest, RefusedReemitFallsToGenericAndSweepRecovers) {
  ToyWorld w;
  BlockId generic = w.store.Install(Filler("gen", 4));
  const size_t base_bytes = w.store.code_bytes();
  bool refuse = false;
  BlockId last_install = kInvalidBlock;
  SpecInstall last_why = SpecInstall::kPolicy;
  SpecDesc sd;
  sd.name = "refold";
  sd.generic = generic;
  sd.emit = [&](SpecTier) {
    return refuse ? kInvalidBlock : w.store.Install(Filler("refold@s", 8));
  };
  sd.install = [&](BlockId b, SpecTier, SpecInstall why) {
    last_install = b;
    last_why = why;
  };
  SpecId id = w.spec.Register(std::move(sd));
  ASSERT_EQ(w.spec.TierOf(id), SpecTier::kSpecialized);

  // An equal-tier re-fold that is refused cannot keep the stale block when a
  // generic exists: the invariants it folds just moved. Fall back, flag the
  // ladder (install hears kRefused), release the stale block.
  refuse = true;
  EXPECT_FALSE(w.spec.Reemit(id));
  EXPECT_TRUE(w.spec.DegradedOf(id));
  EXPECT_EQ(w.spec.ActiveOf(id), generic);
  EXPECT_EQ(last_install, generic);
  EXPECT_EQ(last_why, SpecInstall::kRefused);
  w.Drain();
  EXPECT_EQ(w.store.code_bytes(), base_bytes);

  // The sweep retries degraded handles once the store has room — and the
  // retry goes to the tier the handle WANTED, not the one it fell to. The
  // owner hears it as a recovery, the ladder's climb back.
  refuse = false;
  SweepStats s = w.spec.AdaptSweep();
  EXPECT_EQ(s.promoted, 1u);
  EXPECT_FALSE(w.spec.DegradedOf(id));
  EXPECT_EQ(w.spec.TierOf(id), SpecTier::kSpecialized);
  EXPECT_NE(w.spec.ActiveOf(id), generic);
  EXPECT_EQ(last_install, w.spec.ActiveOf(id));
  EXPECT_EQ(last_why, SpecInstall::kRecovered);
}

// --- The monitor-driven sweep -------------------------------------------------

TEST(SpecializerTest, SweepPromotesHotDemotesColdReleasingBlocks) {
  AdaptConfig cfg;
  cfg.promote_hits = 4;
  cfg.demote_windows = 2;
  ToyWorld w(cfg);
  BlockId generic = w.store.Install(Filler("gen", 4));
  const size_t base_bytes = w.store.code_bytes();
  std::vector<SpecInstall> whys;  // every install report, in order
  SpecDesc sd;
  sd.name = "flow";
  sd.generic = generic;
  sd.emit = [&](SpecTier t) {
    return w.store.Install(
        Filler(std::string("flow@") + SpecTierName(t),
               t == SpecTier::kHot ? 16 : 8));
  };
  sd.install = [&](BlockId, SpecTier, SpecInstall why) { whys.push_back(why); };
  SpecId id = w.spec.Register(std::move(sd));

  // Below threshold: nothing moves, but the heat window resets.
  w.spec.NoteHit(id, cfg.promote_hits - 1);
  SweepStats s = w.spec.AdaptSweep();
  EXPECT_EQ(s.promoted, 0u);
  EXPECT_EQ(w.spec.HeatOf(id), 0u);

  // At threshold: one tier up.
  w.spec.NoteHit(id, cfg.promote_hits);
  s = w.spec.AdaptSweep();
  EXPECT_EQ(s.promoted, 1u);
  EXPECT_EQ(w.spec.TierOf(id), SpecTier::kHot);
  w.Drain();
  EXPECT_EQ(w.store.code_bytes(), base_bytes + 16 * 4);

  // kHot is the ceiling: more heat must not promote past max_tier.
  w.spec.NoteHit(id, cfg.promote_hits * 10);
  s = w.spec.AdaptSweep();
  EXPECT_EQ(s.promoted, 0u);
  EXPECT_EQ(w.spec.TierOf(id), SpecTier::kHot);

  // Cold for demote_windows consecutive sweeps: drop to generic, release the
  // block. One idle window is not enough.
  s = w.spec.AdaptSweep();
  EXPECT_EQ(s.demoted, 0u);
  EXPECT_EQ(w.spec.TierOf(id), SpecTier::kHot);
  s = w.spec.AdaptSweep();
  EXPECT_EQ(s.demoted, 1u);
  EXPECT_EQ(w.spec.TierOf(id), SpecTier::kGeneric);
  EXPECT_EQ(w.spec.ActiveOf(id), generic);
  w.Drain();
  EXPECT_EQ(w.store.code_bytes(), base_bytes);

  // Heat on the generic handle climbs the ladder again from the bottom. A
  // cold demotion is policy, not breakage, so the climb back is a policy
  // move too — never a recovery.
  w.spec.NoteHit(id, cfg.promote_hits);
  s = w.spec.AdaptSweep();
  EXPECT_EQ(s.promoted, 1u);
  EXPECT_EQ(w.spec.TierOf(id), SpecTier::kSpecialized);
  EXPECT_FALSE(w.spec.DegradedOf(id));
  EXPECT_EQ(whys, std::vector<SpecInstall>(3, SpecInstall::kPolicy))
      << "promote, cold demote, re-promote: three policy moves";
}

TEST(SpecializerTest, NonAdaptiveHandlesNeverDemote) {
  AdaptConfig cfg;
  cfg.promote_hits = 2;
  cfg.demote_windows = 1;
  ToyWorld w(cfg);
  BlockId generic = w.store.Install(Filler("gen", 4));
  SpecDesc sd;
  sd.name = "infra";
  sd.generic = generic;
  sd.adaptive = false;  // one-of-a-kind infrastructure: cadence, not heat
  sd.emit = [&](SpecTier) { return w.store.Install(Filler("infra@s", 8)); };
  SpecId id = w.spec.Register(std::move(sd));
  const BlockId active = w.spec.ActiveOf(id);

  for (int i = 0; i < 8; i++) {
    w.spec.AdaptSweep();  // permanently cold — and that must be fine
  }
  EXPECT_EQ(w.spec.TierOf(id), SpecTier::kSpecialized);
  EXPECT_EQ(w.spec.ActiveOf(id), active);
}

// --- Byte-cap pressure and the clock hand ------------------------------------

TEST(SpecializerTest, ByteCapPressureEvictsClockVictimsUntilOccupancyFits) {
  ToyWorld w;
  BlockId generic = w.store.Install(Filler("gen", 2));
  // Four handles, 32 instructions (128 bytes) each. One is not evictable.
  std::vector<SpecId> ids;
  for (int i = 0; i < 4; i++) {
    SpecDesc sd;
    sd.name = "h" + std::to_string(i);
    sd.generic = generic;
    sd.adaptive = false;  // isolate the pressure path from heat policy
    sd.evictable = i != 0;
    sd.emit = [&w, i](SpecTier) {
      return w.store.Install(Filler("h" + std::to_string(i) + "@s", 32));
    };
    ids.push_back(w.spec.Register(std::move(sd)));
  }
  const size_t full = w.store.code_bytes();
  ASSERT_EQ(full, 2 * 4 + 4 * 32 * 4u);

  // Cap at two handles' worth over the floor: the sweep must demote exactly
  // two of the three evictable handles. The bytes come back only at the
  // drain — the pressure loop's own released-bytes accounting is what must
  // stop it after exactly two victims.
  const size_t cap = full - 2 * 32 * 4;
  w.store.SetByteCap(cap);
  SweepStats s = w.spec.AdaptSweep();
  EXPECT_EQ(s.evicted, 2u);
  w.Drain();
  EXPECT_EQ(w.store.code_bytes(), cap);
  EXPECT_EQ(w.spec.TierOf(ids[0]), SpecTier::kSpecialized)
      << "a non-evictable handle must never be nominated";

  // Impossible cap: the hand runs out of evictable blocks and the sweep
  // stops — over cap, but never wedged and never eating the armored handle.
  w.store.SetByteCap(1);
  s = w.spec.AdaptSweep();
  EXPECT_EQ(s.evicted, 1u) << "only one evictable block was left";
  EXPECT_EQ(w.spec.TierOf(ids[0]), SpecTier::kSpecialized);
  w.Drain();
  EXPECT_TRUE(w.store.OverCap());
  s = w.spec.AdaptSweep();
  EXPECT_EQ(s.evicted, 0u);
}

TEST(CodeStoreTest, ClockVictimGivesReferencedBlocksASecondChance) {
  CodeStore store;
  BlockId a = store.Install(Filler("a", 4));
  BlockId b = store.Install(Filler("b", 4));
  EXPECT_EQ(store.ClockVictim(), kInvalidBlock)
      << "nothing is evictable until an owner marks it";
  store.SetEvictable(a, true);
  store.SetEvictable(b, true);
  store.TouchBlock(a);
  // The hand clears a's reference bit in passing and lands on b.
  EXPECT_EQ(store.ClockVictim(), b);
  // Next nomination: b was not re-referenced, a's bit was already spent.
  store.TouchBlock(b);
  EXPECT_EQ(store.ClockVictim(), a);
}

// --- CodeStore::Replace rename audit ------------------------------------------

TEST(CodeStoreTest, ReplaceRenamesTheNameMapAndKeepsBytesExact) {
  CodeStore store;
  BlockId id = store.Install(Filler("old_name", 4));
  ASSERT_EQ(store.Find("old_name"), id);
  const size_t before = store.code_bytes();

  // A promotion re-emit carries a new (uniquified) name: the old mapping must
  // drop so Find never returns this block under a name it no longer has.
  store.Replace(id, Filler("new_name", 6));
  EXPECT_EQ(store.Find("old_name"), kInvalidBlock)
      << "stale name survived Replace";
  EXPECT_EQ(store.Find("new_name"), id);
  EXPECT_EQ(store.code_bytes(), before - 4 * 4 + 6 * 4);

  // Same-name replace keeps the mapping (the common re-fold).
  store.Replace(id, Filler("new_name", 8));
  EXPECT_EQ(store.Find("new_name"), id);

  // Renaming must not clobber another block's live claim: when `loser` stole
  // the name and then renames away, the map must not keep pointing at it.
  BlockId loser = store.Install(Filler("mine", 4));
  store.Replace(loser, Filler("new_name", 4));  // most recent install wins
  EXPECT_EQ(store.Find("new_name"), loser);
  store.Replace(loser, Filler("mine_again", 4));
  EXPECT_NE(store.Find("new_name"), loser);
  EXPECT_EQ(store.Find("mine_again"), loser);
}

// --- Config validation (death tests) ------------------------------------------

using AdaptConfigDeathTest = ::testing::Test;

TEST(AdaptConfigDeathTest, ZeroPromoteThresholdAborts) {
  AdaptConfig cfg;
  cfg.promote_hits = 0;
  CodeStore store;
  EXPECT_DEATH(Specializer(store, cfg, [](BlockId) {}), "promote_hits");
}

TEST(AdaptConfigDeathTest, ZeroDemoteWindowAborts) {
  AdaptConfig cfg;
  cfg.demote_windows = 0;
  CodeStore store;
  EXPECT_DEATH(Specializer(store, cfg, [](BlockId) {}), "demote_windows");
}

TEST(AdaptConfigDeathTest, KernelConstructionValidatesTheSweepPolicy) {
  Kernel::Config kc;
  kc.adapt.demote_windows = 0;
  EXPECT_DEATH(Kernel k(kc), "demote_windows");
}

// --- Stream integration -------------------------------------------------------

uint8_t PatternByte(uint32_t i) {
  return static_cast<uint8_t>('!' + ((i * 7 + i / 251) % 90));
}

std::string Pattern(uint32_t n) {
  std::string s(n, 0);
  for (uint32_t i = 0; i < n; i++) {
    s[i] = static_cast<char>(PatternByte(i));
  }
  return s;
}

class AdaptSender : public UserProgram {
 public:
  AdaptSender(StreamLayer& st, ConnId conn, uint32_t total, bool* error)
      : st_(st), conn_(conn), total_(total), error_(error) {}
  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(kChunk);
    }
    if (off_ >= total_) {
      st_.Close(conn_);
      return StepStatus::kDone;
    }
    uint32_t take = std::min<uint32_t>(kChunk, total_ - off_);
    std::vector<uint8_t> tmp(take);
    for (uint32_t i = 0; i < take; i++) {
      tmp[i] = PatternByte(off_ + i);
    }
    k.machine().memory().WriteBytes(buf_, tmp.data(), take);
    int32_t n = st_.Send(conn_, buf_, take);
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;
    }
    if (n == kIoError) {
      *error_ = true;
      return StepStatus::kDone;
    }
    off_ += static_cast<uint32_t>(n);
    k.machine().Charge(40, 10, 0);
    return StepStatus::kYield;
  }

 private:
  static constexpr uint32_t kChunk = 200;
  StreamLayer& st_;
  ConnId conn_;
  uint32_t total_;
  bool* error_;
  Addr buf_ = 0;
  uint32_t off_ = 0;
};

class AdaptReceiver : public UserProgram {
 public:
  AdaptReceiver(StreamLayer& st, ConnId conn, std::string* out, bool* error)
      : st_(st), conn_(conn), out_(out), error_(error) {}
  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(kChunk);
    }
    int32_t n = st_.Recv(conn_, buf_, kChunk);
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;
    }
    if (n == kIoError) {
      *error_ = true;
      return StepStatus::kDone;
    }
    if (n == 0) {
      st_.Close(conn_);
      return StepStatus::kDone;
    }
    char tmp[kChunk];
    k.machine().memory().ReadBytes(buf_, tmp, static_cast<size_t>(n));
    out_->append(tmp, static_cast<size_t>(n));
    k.machine().Charge(40, 10, 0);
    return StepStatus::kYield;
  }

 private:
  static constexpr uint32_t kChunk = 240;
  StreamLayer& st_;
  ConnId conn_;
  std::string* out_;
  bool* error_;
  Addr buf_ = 0;
};

TEST(AdaptStreamTest, DeliveryIsByteIdenticalAcrossMidTrafficTierChanges) {
  const uint32_t kTotal = 20000;
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  ConnId srv = st.Listen(80);
  ConnId cli = st.Connect(80);
  ASSERT_NE(srv, kBadConn);
  ASSERT_NE(cli, kBadConn);
  std::string got;
  bool send_err = false, recv_err = false;
  k.CreateThread(std::make_unique<AdaptSender>(st, cli, kTotal, &send_err));
  k.CreateThread(std::make_unique<AdaptReceiver>(st, srv, &got, &recv_err));

  // Ride the whole ladder while bytes are in flight: hot, back to the shared
  // generic walk, specialized again, and a monitor-driven sweep — the stream
  // must never see a teared processor swap.
  // One slice per round: a whole window of segments can land inside a single
  // slice, so anything coarser interleaves no tier changes with the traffic.
  for (int round = 0; round < 4000 && st.StateOf(cli) != CcbLayout::kDone;
       round++) {
    k.Run(1);
    SpecId s = st.SpecOf(srv);
    if (s == kBadSpec) {
      continue;  // already reclaimed
    }
    switch (round % 4) {
      case 0:
        k.spec().Promote(s, SpecTier::kHot);
        break;
      case 1:
        k.spec().Demote(s, SpecTier::kGeneric);
        break;
      case 2:
        k.spec().Promote(s, SpecTier::kSpecialized);
        break;
      default:
        k.AdaptNow();
        break;
    }
  }
  k.Run(10'000'000);
  EXPECT_FALSE(send_err);
  EXPECT_FALSE(recv_err);
  EXPECT_EQ(got, Pattern(kTotal))
      << "a mid-traffic tier change corrupted or reordered the stream";
  EXPECT_EQ(st.StateOf(cli), CcbLayout::kDone);
  EXPECT_EQ(st.StateOf(srv), CcbLayout::kDone);
  EXPECT_GT(k.spec().promotions(), 0u);
  EXPECT_GT(k.spec().demotions(), 0u);
}

TEST(AdaptStreamTest, DemotionReturnsExactOccupancyAfterDrain) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  ConnId srv = st.Listen(80);
  ConnId cli = st.Connect(80);
  ASSERT_NE(cli, kBadConn);
  k.Run();
  ASSERT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
  SpecId s = st.SpecOf(srv);
  ASSERT_NE(s, kBadSpec);
  ASSERT_EQ(k.spec().TierOf(s), SpecTier::kSpecialized);

  // Take the baseline with BOTH processors at the generic rung, everything
  // drained: the exact state every later demotion must return to. (The
  // client handle must sit at generic too — otherwise the eviction pass
  // below is free to nominate its block instead of the one under test.)
  ASSERT_TRUE(k.spec().Demote(s, SpecTier::kGeneric));
  ASSERT_TRUE(k.spec().Demote(st.SpecOf(cli), SpecTier::kGeneric));
  k.DrainRetiredBlocks();
  const size_t base_blocks = k.code().live_block_count();
  const size_t base_bytes = k.code().code_bytes();

  for (int cycle = 0; cycle < 3; cycle++) {
    ASSERT_TRUE(k.spec().Promote(s, SpecTier::kSpecialized)) << cycle;
    EXPECT_GT(k.code().code_bytes(), base_bytes);
    ASSERT_TRUE(k.spec().Promote(s, SpecTier::kHot)) << cycle;
    ASSERT_TRUE(k.spec().Demote(s, SpecTier::kGeneric)) << cycle;
    k.DrainRetiredBlocks();
    EXPECT_EQ(k.code().live_block_count(), base_blocks)
        << "promote/demote cycle " << cycle << " leaked a block";
    EXPECT_EQ(k.code().code_bytes(), base_bytes)
        << "promote/demote cycle " << cycle << " leaked bytes";
  }

  // Eviction takes the same release path: promote, then cap the store below
  // the promoted footprint and let the sweep's pressure loop relieve it. The
  // clock hand is free to pick any evictable victim (the demux chain is as
  // legal a choice as the processor under test), so the contract here is the
  // cap itself, not which block paid for it.
  ASSERT_TRUE(k.spec().Promote(s, SpecTier::kSpecialized));
  ASSERT_GT(k.code().code_bytes(), base_bytes);
  k.code().SetByteCap(base_bytes);
  SweepStats sw = k.AdaptNow();
  EXPECT_GE(sw.evicted, 1u);
  k.DrainRetiredBlocks();
  EXPECT_LE(k.code().code_bytes(), base_bytes);
  EXPECT_FALSE(k.code().OverCap());
  k.code().SetByteCap(0);
}

TEST(AdaptStreamTest, CodeInstallRefusalDuringPromotionFallsBackNeverWedges) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  ConnId srv = st.Listen(80);
  ConnId cli = st.Connect(80);
  k.Run();
  ASSERT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
  SpecId s = st.SpecOf(srv);
  ASSERT_NE(s, kBadSpec);

  // Every install refuses from here on: promotions must fail soft (current
  // block keeps running), sweeps must count refusals, nothing may wedge.
  FaultTrigger always;
  always.every_nth = 1;
  k.faults().Arm(FaultSite::kCodeInstall, always);
  const uint64_t refusals = k.spec().refusals();
  EXPECT_FALSE(k.spec().Promote(s, SpecTier::kHot));
  EXPECT_EQ(k.spec().TierOf(s), SpecTier::kSpecialized)
      << "a refused upgrade must keep the current tier";
  EXPECT_GT(k.spec().refusals(), refusals);

  // Force heat so the sweep keeps retrying the promotion under refusal.
  k.spec().NoteHit(s, k.config().adapt.promote_hits * 2);
  SweepStats sw = k.AdaptNow();
  EXPECT_GE(sw.refused, 1u);
  EXPECT_EQ(k.spec().TierOf(s), SpecTier::kSpecialized);

  // Traffic still flows on the kept block while installs refuse.
  const uint32_t kTotal = 1500;
  std::string got;
  bool send_err = false, recv_err = false;
  k.CreateThread(std::make_unique<AdaptSender>(st, cli, kTotal, &send_err));
  k.CreateThread(std::make_unique<AdaptReceiver>(st, srv, &got, &recv_err));
  k.Run(2'000'000);

  // Disarm: the next hot sweep promotes for real.
  k.faults().DisarmAll();
  if (st.SpecOf(srv) != kBadSpec) {
    k.spec().NoteHit(st.SpecOf(srv), k.config().adapt.promote_hits);
    sw = k.AdaptNow();
    EXPECT_EQ(k.spec().TierOf(st.SpecOf(srv)), SpecTier::kHot);
  }
  k.Run(10'000'000);
  EXPECT_FALSE(send_err);
  EXPECT_FALSE(recv_err);
  EXPECT_EQ(got, Pattern(kTotal));
  EXPECT_EQ(st.StateOf(cli), CcbLayout::kDone);
}

// --- Same-seed replay with adaptation running ---------------------------------

struct AdaptReplayResult {
  std::string log;
  std::string delivered;
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t evictions = 0;
  uint64_t refusals = 0;
  uint32_t client_state = 0;
  size_t final_bytes = 0;
  int open_attempts = 0;
};

AdaptReplayResult RunAdaptiveUnderFaultPlane(uint32_t seed) {
  Kernel::Config kc;
  kc.fault_seed = seed;
  kc.adapt.promote_hits = 8;
  kc.adapt.demote_windows = 2;
  kc.code_byte_cap = 48 * 1024;
  Kernel k(kc);
  FaultTrigger drop;
  drop.probability = 0.08;
  k.faults().Arm(FaultSite::kWireDrop, drop);
  FaultTrigger refuse;
  refuse.probability = 0.25;
  k.faults().Arm(FaultSite::kCodeInstall, refuse);
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 2;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  StreamConfig scfg;
  scfg.rto_base_us = 3000;
  scfg.max_retries = 12;
  AdaptReplayResult r;
  // An open can be refused outright (the alarm stub is in the
  // truly-unrecoverable class and a 25% install-refusal rate will hit it):
  // that is a clean rollback, not a wedge, so the harness retries. Each
  // attempt draws from the same seeded fault stream, so the attempt count is
  // itself part of what must replay.
  ConnId srv = kBadConn;
  ConnId cli = kBadConn;
  for (int attempt = 0; attempt < 16 && (srv == kBadConn || cli == kBadConn);
       attempt++) {
    r.open_attempts++;
    if (srv == kBadConn) {
      srv = st.Listen(80, scfg);
    }
    if (srv != kBadConn && cli == kBadConn) {
      cli = st.Connect(80, scfg);
    }
  }
  EXPECT_NE(srv, kBadConn) << "seed " << seed << ": listen never materialized";
  EXPECT_NE(cli, kBadConn) << "seed " << seed << ": connect never materialized";
  if (srv == kBadConn || cli == kBadConn) {
    r.log = k.faults().SerializeLog();
    return r;
  }
  bool send_err = false, recv_err = false;
  k.CreateThread(std::make_unique<AdaptSender>(st, cli, 2000, &send_err));
  k.CreateThread(
      std::make_unique<AdaptReceiver>(st, srv, &r.delivered, &recv_err));
  // The sweep interleaves with the transfer on a fixed slice cadence, so the
  // adaptation schedule itself is part of what must replay.
  for (int round = 0; round < 2000 && st.StateOf(cli) != CcbLayout::kDone &&
                      st.StateOf(cli) != CcbLayout::kFailed;
       round++) {
    k.Run(200);
    k.AdaptNow();
  }
  k.Run(60'000'000);
  r.log = k.faults().SerializeLog();
  r.promotions = k.spec().promotions();
  r.demotions = k.spec().demotions();
  r.evictions = k.spec().evictions();
  r.refusals = k.spec().refusals();
  r.client_state = st.StateOf(cli);
  r.final_bytes = k.code().code_bytes();
  return r;
}

TEST(AdaptStreamTest, SameSeedAdaptiveReplayIsByteStable) {
  for (uint32_t seed : {11u, 47u}) {
    AdaptReplayResult a = RunAdaptiveUnderFaultPlane(seed);
    AdaptReplayResult b = RunAdaptiveUnderFaultPlane(seed);
    EXPECT_EQ(a.log, b.log)
        << "seed " << seed << ": the injection log must replay byte-stably "
        << "with the adaptation sweep running";
    EXPECT_EQ(a.delivered, b.delivered) << seed;
    EXPECT_EQ(a.promotions, b.promotions) << seed;
    EXPECT_EQ(a.demotions, b.demotions) << seed;
    EXPECT_EQ(a.evictions, b.evictions) << seed;
    EXPECT_EQ(a.refusals, b.refusals) << seed;
    EXPECT_EQ(a.client_state, b.client_state) << seed;
    EXPECT_EQ(a.final_bytes, b.final_bytes) << seed;
    EXPECT_EQ(a.open_attempts, b.open_attempts) << seed;
    // Refusal only ever declines an optimization, so the transfer completes
    // under it and the replay covers a real adaptation schedule.
    EXPECT_EQ(a.client_state, CcbLayout::kDone)
        << "seed " << seed << ": ended in state " << a.client_state;
    EXPECT_EQ(a.delivered, Pattern(2000)) << seed;
  }
}

}  // namespace
}  // namespace synthesis
