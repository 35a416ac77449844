// Fault plane tests: the three trigger kinds, per-site stream independence,
// byte-identical replay from one seed, the SYNTHESIS_FAULTS spec parser, and
// the kernel paths the sites instrument — allocator exhaustion, code-store
// install failure and capacity pressure, dropped/late alarms, and interrupt
// bursts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/kernel/fault_plane.h"
#include "src/kernel/kernel.h"
#include "src/machine/assembler.h"

namespace synthesis {
namespace {

TEST(FaultPlaneTest, DisarmedSitesNeverFireButStillCountVisits) {
  FaultPlane p(7);
  for (int i = 0; i < 100; i++) {
    EXPECT_FALSE(p.ShouldFire(FaultSite::kAlloc));
  }
  EXPECT_EQ(p.visits(FaultSite::kAlloc), 100u);
  EXPECT_EQ(p.fires(FaultSite::kAlloc), 0u);
  EXPECT_EQ(p.total_fires(), 0u);
  EXPECT_EQ(p.SerializeLog(), "");
}

TEST(FaultPlaneTest, EveryNthFiresOnExactMultiples) {
  FaultPlane p(7);
  FaultTrigger t;
  t.every_nth = 3;
  p.Arm(FaultSite::kWireDrop, t);
  std::vector<uint64_t> fired;
  for (uint64_t v = 1; v <= 10; v++) {
    if (p.ShouldFire(FaultSite::kWireDrop)) {
      fired.push_back(v);
    }
  }
  EXPECT_EQ(fired, (std::vector<uint64_t>{3, 6, 9}));
}

TEST(FaultPlaneTest, ScheduleFiresAtListedVisitsOnly) {
  FaultPlane p(7);
  FaultTrigger t;
  t.schedule = {2, 5, 6};
  p.Arm(FaultSite::kCodeInstall, t);
  std::vector<uint64_t> fired;
  for (uint64_t v = 1; v <= 8; v++) {
    if (p.ShouldFire(FaultSite::kCodeInstall)) {
      fired.push_back(v);
    }
  }
  EXPECT_EQ(fired, (std::vector<uint64_t>{2, 5, 6}));
  EXPECT_EQ(p.SerializeLog(), "code_install@2;code_install@5;code_install@6;");
}

// The determinism contract: a site's fire sequence depends only on (seed,
// trigger, per-site visit count) — interleaving visits to *other* sites must
// not perturb it.
TEST(FaultPlaneTest, ProbabilityStreamsArePerSiteIndependent) {
  FaultTrigger t;
  t.probability = 0.3;

  FaultPlane solo(42);
  solo.Arm(FaultSite::kWireDrop, t);
  std::vector<bool> solo_fires;
  for (int i = 0; i < 200; i++) {
    solo_fires.push_back(solo.ShouldFire(FaultSite::kWireDrop));
  }

  FaultPlane mixed(42);
  mixed.Arm(FaultSite::kWireDrop, t);
  mixed.Arm(FaultSite::kWireCorrupt, t);  // a second armed site, interleaved
  std::vector<bool> mixed_fires;
  for (int i = 0; i < 200; i++) {
    mixed.ShouldFire(FaultSite::kWireCorrupt);
    mixed_fires.push_back(mixed.ShouldFire(FaultSite::kWireDrop));
    mixed.ShouldFire(FaultSite::kAlarmDrop);  // disarmed visits too
  }
  EXPECT_EQ(solo_fires, mixed_fires)
      << "another site's draws leaked into this site's stream";
  EXPECT_GT(solo.fires(FaultSite::kWireDrop), 20u) << "p=0.3 over 200 visits";
  EXPECT_LT(solo.fires(FaultSite::kWireDrop), 120u);
}

TEST(FaultPlaneTest, ReseedReplaysByteIdenticalLog) {
  FaultTrigger prob;
  prob.probability = 0.2;
  FaultTrigger nth;
  nth.every_nth = 7;
  FaultPlane p(99);
  p.Arm(FaultSite::kWireDrop, prob);
  p.Arm(FaultSite::kAlarmLate, prob);
  p.Arm(FaultSite::kAlloc, nth);
  auto run = [&p] {
    for (int i = 0; i < 150; i++) {
      p.ShouldFire(FaultSite::kWireDrop);
      if (i % 2 == 0) {
        p.ShouldFire(FaultSite::kAlarmLate);
      }
      if (i % 3 == 0) {
        p.ShouldFire(FaultSite::kAlloc);
      }
    }
    return p.SerializeLog();
  };
  std::string first = run();
  EXPECT_FALSE(first.empty());
  p.Reseed(99);  // triggers survive; streams, counters and log reset
  EXPECT_EQ(p.total_fires(), 0u);
  std::string second = run();
  EXPECT_EQ(first, second) << "same seed must replay byte-identically";
  p.Reseed(100);
  EXPECT_NE(run(), first) << "a different seed must give a different schedule";
}

TEST(FaultPlaneTest, ArmFromSpecParsesAllTriggerKindsAndSeed) {
  FaultPlane p(1);
  int armed = p.ArmFromSpec(
      "seed=74,wire_drop=p0.5,alarm_late=n50,alloc=s3:17:90,bogus_site=p1");
  EXPECT_EQ(armed, 3) << "unknown sites are skipped, not fatal";
  EXPECT_EQ(p.seed(), 74u);
  EXPECT_TRUE(p.Armed(FaultSite::kWireDrop));
  EXPECT_TRUE(p.Armed(FaultSite::kAlarmLate));
  EXPECT_TRUE(p.Armed(FaultSite::kAlloc));
  EXPECT_FALSE(p.Armed(FaultSite::kWireCorrupt));
  // The scheduled site fires exactly at 3, 17, 90.
  std::vector<uint64_t> fired;
  for (uint64_t v = 1; v <= 100; v++) {
    if (p.ShouldFire(FaultSite::kAlloc)) {
      fired.push_back(v);
    }
  }
  EXPECT_EQ(fired, (std::vector<uint64_t>{3, 17, 90}));
}

TEST(FaultPlaneTest, SiteNamesRoundTrip) {
  for (uint32_t i = 0; i < static_cast<uint32_t>(FaultSite::kNumSites); i++) {
    FaultSite s = static_cast<FaultSite>(i);
    EXPECT_EQ(FaultPlane::SiteByName(FaultPlane::SiteName(s)), s);
  }
  EXPECT_EQ(FaultPlane::SiteByName("no_such_site"), FaultSite::kNumSites);
}

// --- Kernel integration -------------------------------------------------------

TEST(FaultPlaneKernelTest, InjectedAllocFailureReturnsZeroWithoutLeaking) {
  Kernel k;
  uint32_t before = k.allocator().bytes_in_use();
  // The kernel's own construction already visited the site (the hook is
  // installed before user code runs), so the test arms a certainty rather
  // than guessing the absolute visit index.
  FaultTrigger t;
  t.probability = 1.0;
  k.faults().Arm(FaultSite::kAlloc, t);
  EXPECT_EQ(k.allocator().Allocate(256), 0u) << "injected exhaustion";
  EXPECT_EQ(k.allocator().bytes_in_use(), before)
      << "a failed allocation must not consume bytes";
  k.faults().Disarm(FaultSite::kAlloc);
  Addr a = k.allocator().Allocate(256);
  EXPECT_NE(a, 0u) << "disarmed, the allocator recovers";
  k.allocator().Free(a);
  EXPECT_EQ(k.allocator().bytes_in_use(), before);
}

TEST(FaultPlaneKernelTest, InjectedInstallFailureLeavesCodeStoreUntouched) {
  Kernel k;
  size_t live = k.code().live_block_count();
  FaultTrigger t;
  t.schedule = {1};
  k.faults().Arm(FaultSite::kCodeInstall, t);
  Asm a("victim");
  a.MoveI(kD0, 1).Rts();
  EXPECT_EQ(k.SynthesizeInstall(a.Build(), Bindings(), nullptr, "victim"),
            kInvalidBlock);
  EXPECT_EQ(k.code().live_block_count(), live);
  BlockId ok = k.SynthesizeInstall(a.Build(), Bindings(), nullptr, "victim");
  EXPECT_NE(ok, kInvalidBlock);
  EXPECT_EQ(k.code().live_block_count(), live + 1);
}

TEST(FaultPlaneKernelTest, CodeStoreCapacityLimitRejectsInstall) {
  Kernel k;
  k.code().SetLiveBlockLimit(k.code().live_block_count());
  Asm a("overflow");
  a.Rts();
  EXPECT_EQ(k.code().Install(a.BuildBlock()), kInvalidBlock);
  k.code().SetLiveBlockLimit(0);  // lift the pressure
  EXPECT_NE(k.code().Install(a.BuildBlock()), kInvalidBlock);
}

TEST(FaultPlaneKernelTest, DroppedAlarmNeverFiresAndSetAlarmSaysSo) {
  Kernel k;
  constexpr Addr kFlag = 0x940;
  Asm h("dropped");
  h.MoveI(kD0, 11).StoreA32(kFlag, kD0).Rts();
  BlockId handler = k.code().Install(h.BuildBlock());
  FaultTrigger t;
  t.schedule = {1};
  k.faults().Arm(FaultSite::kAlarmDrop, t);
  EXPECT_FALSE(k.SetAlarm(500, handler)) << "the drop is surfaced to callers";
  k.Run();
  EXPECT_EQ(k.machine().memory().Read32(kFlag), 0u);
  EXPECT_EQ(k.faults().fires(FaultSite::kAlarmDrop), 1u);
  EXPECT_TRUE(k.SetAlarm(500, handler));
  k.Run();
  EXPECT_EQ(k.machine().memory().Read32(kFlag), 11u);
}

TEST(FaultPlaneKernelTest, LateAlarmIsDeliveredMultipliedDelta) {
  Kernel k;
  constexpr Addr kFlag = 0x950;
  Asm h("late");
  h.MoveI(kD0, 22).StoreA32(kFlag, kD0).Rts();
  BlockId handler = k.code().Install(h.BuildBlock());
  FaultTrigger t;
  t.schedule = {1};
  k.faults().Arm(FaultSite::kAlarmLate, t);
  double t0 = k.NowUs();
  EXPECT_TRUE(k.SetAlarm(500, handler)) << "late alarms still fire";
  k.Run();
  EXPECT_EQ(k.machine().memory().Read32(kFlag), 22u);
  EXPECT_GE(k.NowUs(), t0 + 500 * kAlarmLateMult);
}

TEST(FaultPlaneKernelTest, IrqBurstDispatchesTheInterruptTwice) {
  Kernel k;
  constexpr Addr kCtr = 0x960;
  Asm h("burst");
  h.LoadA32(kD0, kCtr).AddI(kD0, 1).StoreA32(kCtr, kD0).Rts();
  BlockId handler = k.code().Install(h.BuildBlock());
  FaultTrigger t;
  t.probability = 1.0;
  k.faults().Arm(FaultSite::kIrqBurst, t);
  k.SetAlarm(100, handler);
  k.Run();
  EXPECT_EQ(k.machine().memory().Read32(kCtr), 2u)
      << "the burst site duplicates the dispatch (a spurious interrupt)";
}

TEST(FaultPlaneKernelTest, FaultSeedConfigAndReseedReachThePlane) {
  // A SYNTHESIS_FAULTS spec in the environment (the FAULTS=1 verify pass)
  // re-arms the plane after construction and carries its own seed; this test
  // is about the config->plane plumbing, so run it with the env cleared and
  // put the spec back for the rest of the binary.
  const char* env = std::getenv("SYNTHESIS_FAULTS");
  std::string saved = env ? env : "";
  if (env) {
    unsetenv("SYNTHESIS_FAULTS");
  }
  {
    Kernel::Config cfg;
    cfg.fault_seed = 4242;
    Kernel k(cfg);
    EXPECT_EQ(k.faults().seed(), 4242u);
  }
  if (env) {
    setenv("SYNTHESIS_FAULTS", saved.c_str(), 1);
  }
}

}  // namespace
}  // namespace synthesis
