// Kernel behaviour tests: thread lifecycle, the executable ready queue,
// context switching, blocking/unblocking, signals, procedure chaining,
// alarms, lazy FP resynthesis, and the fine-grain scheduler.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/machine/assembler.h"

namespace synthesis {
namespace {

// A program that yields `n` times (charging a little compute) then exits.
class CountedProgram : public UserProgram {
 public:
  explicit CountedProgram(int n, std::vector<int>* log = nullptr, int tag = 0)
      : remaining_(n), log_(log), tag_(tag) {}

  StepStatus Step(ThreadEnv& env) override {
    if (remaining_ == 0) {
      return StepStatus::kDone;
    }
    remaining_--;
    if (log_) {
      log_->push_back(tag_);
    }
    env.kernel.machine().ChargeMicros(50);  // 50 us of "computation"
    return StepStatus::kYield;
  }

 private:
  int remaining_;
  std::vector<int>* log_;
  int tag_;
};

// Blocks on a wait queue until unblocked, then finishes.
class BlockingProgram : public UserProgram {
 public:
  // `resumed` must outlive the thread: the kernel frees the program at exit.
  BlockingProgram(WaitQueue* wq, bool* resumed = nullptr)
      : wq_(wq), resumed_(resumed) {}

  StepStatus Step(ThreadEnv& env) override {
    if (!blocked_once_) {
      blocked_once_ = true;
      env.kernel.BlockCurrentOn(*wq_);
      return StepStatus::kBlocked;
    }
    if (resumed_ != nullptr) {
      *resumed_ = true;
    }
    return StepStatus::kDone;
  }

 private:
  WaitQueue* wq_;
  bool* resumed_;
  bool blocked_once_ = false;
};

class KernelTest : public ::testing::Test {
 protected:
  Kernel k_;
};

TEST_F(KernelTest, CreateAndRunSingleThread) {
  ThreadId tid = k_.CreateThread(std::make_unique<CountedProgram>(3));
  EXPECT_TRUE(k_.Alive(tid));
  EXPECT_EQ(k_.StateOf(tid), ThreadState::kReady);
  k_.Run();
  EXPECT_FALSE(k_.Alive(tid));
}

TEST_F(KernelTest, RoundRobinInterleavesThreads) {
  std::vector<int> log;
  k_.CreateThread(std::make_unique<CountedProgram>(40, &log, 1));
  k_.CreateThread(std::make_unique<CountedProgram>(40, &log, 2));
  k_.Run();
  ASSERT_EQ(log.size(), 80u);
  // Both threads appear in the first and second halves: interleaving, not
  // run-to-completion.
  int ones_early = 0;
  for (size_t i = 0; i < 40; i++) {
    ones_early += log[i] == 1;
  }
  EXPECT_GT(ones_early, 0);
  EXPECT_LT(ones_early, 40);
}

TEST_F(KernelTest, ContextSwitchesAreCounted) {
  k_.CreateThread(std::make_unique<CountedProgram>(10));
  k_.CreateThread(std::make_unique<CountedProgram>(10));
  k_.Run();
  EXPECT_GT(k_.context_switches(), 2u);
}

TEST_F(KernelTest, ReadyQueueLinksFormACycle) {
  ThreadId a = k_.CreateThread(std::make_unique<CountedProgram>(1));
  ThreadId b = k_.CreateThread(std::make_unique<CountedProgram>(1));
  ThreadId c = k_.CreateThread(std::make_unique<CountedProgram>(1));
  EXPECT_EQ(k_.ready_queue().Size(), 3u);
  Addr ta = k_.TteOf(a).addr();
  Addr tb = k_.TteOf(b).addr();
  Addr tc = k_.TteOf(c).addr();
  EXPECT_EQ(k_.ready_queue().NextOf(ta), tb);
  EXPECT_EQ(k_.ready_queue().NextOf(tb), tc);
  EXPECT_EQ(k_.ready_queue().NextOf(tc), ta);
}

TEST_F(KernelTest, SwOutChainsToNextThreadsSwIn) {
  ThreadId a = k_.CreateThread(std::make_unique<CountedProgram>(1));
  ThreadId b = k_.CreateThread(std::make_unique<CountedProgram>(1));
  // The executable data structure: a's sw_out ends with movei d7,<b.sw_in>.
  const CodeBlock& sw_out = k_.code().Get(k_.TteOf(a).sw_out());
  BlockId target = sw_out.code[sw_out.code.size() - 2].imm;
  EXPECT_EQ(target, k_.TteOf(b).sw_in());
}

TEST_F(KernelTest, CrossQuaspaceSwitchUsesMmuEntry) {
  ThreadId a = k_.CreateThread(std::make_unique<CountedProgram>(1), /*quaspace=*/1);
  ThreadId b = k_.CreateThread(std::make_unique<CountedProgram>(1), /*quaspace=*/2);
  const CodeBlock& sw_out = k_.code().Get(k_.TteOf(a).sw_out());
  BlockId target = sw_out.code[sw_out.code.size() - 2].imm;
  EXPECT_EQ(target, k_.TteOf(b).sw_in_mmu());
}

TEST_F(KernelTest, StopRemovesFromSchedulingStartRestores) {
  std::vector<int> log;
  ThreadId a = k_.CreateThread(std::make_unique<CountedProgram>(5, &log, 1));
  k_.Stop(a);
  EXPECT_EQ(k_.StateOf(a), ThreadState::kStopped);
  k_.Run();
  EXPECT_TRUE(log.empty()) << "stopped thread must not run";
  k_.Start(a);
  EXPECT_EQ(k_.StateOf(a), ThreadState::kReady);
  k_.Run();
  EXPECT_EQ(log.size(), 5u);
}

TEST_F(KernelTest, StepRunsExactlyOneStep) {
  std::vector<int> log;
  ThreadId a = k_.CreateThread(std::make_unique<CountedProgram>(5, &log, 1));
  k_.Stop(a);
  k_.Step(a);
  EXPECT_EQ(log.size(), 1u);
  k_.Step(a);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(k_.StateOf(a), ThreadState::kStopped);
}

TEST_F(KernelTest, DestroyThreadReclaims) {
  uint32_t before = k_.allocator().allocation_count();
  ThreadId a = k_.CreateThread(std::make_unique<CountedProgram>(100));
  k_.DestroyThread(a);
  EXPECT_FALSE(k_.Alive(a));
  EXPECT_EQ(k_.allocator().allocation_count(), before);
  k_.Run();  // must not crash with the thread gone
}

TEST_F(KernelTest, BlockAndUnblockRoundTrip) {
  WaitQueue wq;
  bool resumed = false;
  ThreadId a = k_.CreateThread(std::make_unique<BlockingProgram>(&wq, &resumed));
  k_.Run();
  EXPECT_EQ(k_.StateOf(a), ThreadState::kBlocked);
  EXPECT_EQ(wq.Size(), 1u);
  EXPECT_FALSE(resumed);
  EXPECT_EQ(k_.UnblockOne(wq), a);
  k_.Run();
  EXPECT_TRUE(resumed);
  EXPECT_FALSE(k_.Alive(a));
}

TEST_F(KernelTest, UnblockedThreadGoesToFront) {
  WaitQueue wq;
  ThreadId blocked = k_.CreateThread(std::make_unique<BlockingProgram>(&wq));
  ThreadId spinner = k_.CreateThread(std::make_unique<CountedProgram>(1000));
  k_.RunSlice();  // blocked thread parks itself
  ASSERT_EQ(k_.StateOf(blocked), ThreadState::kBlocked);
  k_.UnblockOne(wq);
  // Front insertion: the unblocked thread is the current thread's successor.
  Addr cur = k_.ready_queue().current();
  EXPECT_EQ(k_.ready_queue().NextOf(cur), k_.TteOf(blocked).addr());
  (void)spinner;
}

TEST_F(KernelTest, SignalsRunBeforeTheThreadsNextSlice) {
  // The signal handler is a synthesized routine that stores a flag into
  // simulated memory.
  constexpr Addr kFlag = 0x900;
  Asm h("sig_handler");
  h.MoveI(kD0, 1234).StoreA32(kFlag, kD0).Rts();
  BlockId handler = k_.code().Install(h.BuildBlock());

  ThreadId a = k_.CreateThread(std::make_unique<CountedProgram>(3));
  k_.Signal(a, handler);
  EXPECT_EQ(k_.TteOf(a).sig_pending(), 1u);
  k_.Run();
  EXPECT_EQ(k_.machine().memory().Read32(kFlag), 1234u);
}

TEST_F(KernelTest, ChainedProceduresRunAfterInterrupt) {
  constexpr Addr kFlag = 0x910;
  Asm h("chained");
  h.MoveI(kD0, 77).StoreA32(kFlag, kD0).Rts();
  BlockId proc = k_.code().Install(h.BuildBlock());

  k_.ChainProcedure(proc);
  // Chained procedures are drained at the end of interrupt handling.
  PendingInterrupt irq{k_.NowUs(), Vector::kAlarm, 0, 0};
  k_.DispatchInterrupt(irq);
  EXPECT_EQ(k_.machine().memory().Read32(kFlag), 77u);
  EXPECT_EQ(k_.chained_procedures_run(), 1u);
}

TEST_F(KernelTest, AlarmFiresAtTheRightVirtualTime) {
  constexpr Addr kFlag = 0x920;
  Asm h("alarm_handler");
  h.MoveI(kD0, 55).StoreA32(kFlag, kD0).Rts();
  BlockId handler = k_.code().Install(h.BuildBlock());

  k_.CreateThread(std::make_unique<CountedProgram>(100));
  double t0 = k_.NowUs();
  k_.SetAlarm(500, handler);
  k_.Run();
  EXPECT_EQ(k_.machine().memory().Read32(kFlag), 55u);
  EXPECT_GE(k_.NowUs(), t0 + 500);
  EXPECT_EQ(k_.interrupts_dispatched(), 1u);
}

TEST_F(KernelTest, AlarmWithNoThreadsStillFires) {
  constexpr Addr kFlag = 0x930;
  Asm h("alarm2");
  h.MoveI(kD0, 66).StoreA32(kFlag, kD0).Rts();
  k_.SetAlarm(1000, k_.code().Install(h.BuildBlock()));
  k_.Run();  // idle: clock advances to the alarm
  EXPECT_EQ(k_.machine().memory().Read32(kFlag), 66u);
  EXPECT_GE(k_.NowUs(), 1000.0);
}

TEST_F(KernelTest, LazyFpResynthesizesSwitchCode) {
  ThreadId a = k_.CreateThread(std::make_unique<CountedProgram>(1));
  size_t before = k_.code().Get(k_.TteOf(a).sw_out()).code.size();
  EXPECT_FALSE(k_.TteOf(a).uses_fp());
  k_.EnableFp(a);
  EXPECT_TRUE(k_.TteOf(a).uses_fp());
  size_t after = k_.code().Get(k_.TteOf(a).sw_out()).code.size();
  EXPECT_GT(after, before) << "FP save code must be added";
  // Idempotent.
  k_.EnableFp(a);
  EXPECT_EQ(k_.code().Get(k_.TteOf(a).sw_out()).code.size(), after);
}

TEST_F(KernelTest, FpSwitchCostsMoreThanPlainSwitch) {
  ThreadId a = k_.CreateThread(std::make_unique<CountedProgram>(1));
  k_.CreateThread(std::make_unique<CountedProgram>(1));
  Stopwatch sw1(k_.machine());
  k_.ContextSwitchNow();
  double plain = sw1.micros();

  k_.EnableFp(a);
  // Switch through thread a twice to include its FP save and restore.
  Stopwatch sw2(k_.machine());
  k_.ContextSwitchNow();
  k_.ContextSwitchNow();
  double with_fp = sw2.micros();
  EXPECT_GT(with_fp, 2 * plain * 0.9);
}

TEST_F(KernelTest, FineGrainSchedulerGrowsQuantumWithIoRate) {
  FineGrainScheduler& s = k_.scheduler();
  ThreadId a = k_.CreateThread(std::make_unique<CountedProgram>(1));
  double base = s.QuantumUsFor(a, k_.NowUs());
  for (int i = 0; i < 50; i++) {
    s.ReportIo(a, 4096, k_.NowUs());
  }
  double busy = s.QuantumUsFor(a, k_.NowUs());
  EXPECT_GT(busy, base);
  EXPECT_LE(busy, FineGrainScheduler::kMaxQuantumUs);
}

TEST_F(KernelTest, IoRateDecaysOverTime) {
  FineGrainScheduler& s = k_.scheduler();
  ThreadId a = k_.CreateThread(std::make_unique<CountedProgram>(1));
  s.ReportIo(a, 100000, 0);
  double early = s.IoRateFor(a, 1000);
  double late = s.IoRateFor(a, 100000);
  EXPECT_GT(early, late);
}

TEST_F(KernelTest, HostTrapDispatch) {
  int hits = 0;
  int vec = k_.RegisterHostTrap([&](Machine& m) {
    hits++;
    m.set_reg(kD3, 999);
    return TrapAction::kContinue;
  });
  Asm a("trapper");
  a.Trap(vec).Rts();
  BlockId b = k_.code().Install(a.BuildBlock());
  k_.kexec().Call(b);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(k_.machine().reg(kD3), 999u);
}

TEST_F(KernelTest, SynthesizeInstallChargesTime) {
  Asm a("t");
  a.MoveI(kD0, 1).AddI(kD0, 2).Rts();
  Stopwatch sw(k_.machine());
  k_.SynthesizeInstall(a.Build(), Bindings(), nullptr, "t");
  EXPECT_GT(sw.cycles(), 0u) << "code synthesis must cost CPU time";
}

TEST_F(KernelTest, ManyThreadsAllComplete) {
  std::vector<int> log;
  for (int i = 0; i < 20; i++) {
    k_.CreateThread(std::make_unique<CountedProgram>(10, &log, i));
  }
  k_.Run();
  EXPECT_EQ(log.size(), 200u);
  EXPECT_EQ(k_.ready_queue().Size(), 0u);
}

TEST_F(KernelTest, KernelSizeAccountingGrowsWithThreads) {
  size_t before = k_.code().code_bytes();
  k_.CreateThread(std::make_unique<CountedProgram>(1));
  EXPECT_GT(k_.code().code_bytes(), before)
      << "per-thread synthesized code contributes to kernel size (§6.4)";
}

// ...and leaves with it: an exiting thread's switch and error-trap code is
// retired, so thread churn returns the code store to its starting level.
TEST_F(KernelTest, ExitingThreadsReturnTheirCode) {
  const size_t blocks = k_.code().live_block_count();
  const size_t bytes = k_.code().code_bytes();
  const uint32_t allocs = k_.allocator().allocation_count();
  WaitQueue wq;
  for (int i = 0; i < 64; i++) {
    // Half exit from their own step; half exit after blocking and waking.
    if (i % 2 == 0) {
      k_.CreateThread(std::make_unique<CountedProgram>(2));
    } else {
      k_.CreateThread(std::make_unique<BlockingProgram>(&wq));
    }
  }
  EXPECT_GT(k_.code().live_block_count(), blocks);
  k_.Run();
  k_.UnblockAll(wq);
  k_.Run();
  EXPECT_EQ(k_.ready_queue().Size(), 0u);
  EXPECT_EQ(k_.code().live_block_count(), blocks);
  EXPECT_EQ(k_.code().code_bytes(), bytes);
  EXPECT_EQ(k_.allocator().allocation_count(), allocs);
}

}  // namespace
}  // namespace synthesis
