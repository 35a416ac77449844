#include "src/kernel/kernel.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

namespace synthesis {

namespace {

// Calibration constants (cycles). See tests/timing_test.cc for the anchor
// checks against the paper's Tables 3-5.
constexpr uint32_t kIrqEntryCycles = 20;   // exception frame + vector fetch
constexpr uint32_t kIrqExitCycles = 12;    // rte
constexpr uint32_t kIrqScratchCycles = 10; // save/restore the few regs used
constexpr uint32_t kFpSaveCycles = 80;     // "hundred-plus bytes ... ~10 us" split
constexpr uint32_t kFpRestoreCycles = 80;  //   across switch-out and switch-in
constexpr uint32_t kMmuSwitchCycles = 40;  // address-map switch in sw_in.mmu
constexpr uint32_t kTteFillCyclesPerWord = 8;  // "~100 us to fill ~1KB"
constexpr uint32_t kSynthCyclesPerInput = 1;   // code synthesizer's own cost,
constexpr uint32_t kSynthCyclesPerOutput = 3;  //   charged per instruction
constexpr uint32_t kBlockExtraCycles = 55;     // wait-queue append + state
constexpr uint32_t kUnblockExtraCycles = 45;
constexpr uint32_t kAlarmInsertCycles = 145;   // sorted timer-queue insert
constexpr uint32_t kStepMachineryCycles = 590; // trace-trap setup + teardown
constexpr uint32_t kDestroyCycles = 155;       // free TTE + unlink bookkeeping

constexpr int kHostTrapBase = 64;

// Saves and restores the full machine register file around kernel-level code
// that runs while a thread's registers are live (interrupt handlers, signal
// delivery). The paper saves only the few registers the handler uses; we
// charge that, but preserve everything for simulation correctness.
class RegSaver {
 public:
  explicit RegSaver(Machine& m) : m_(m) {
    for (uint8_t r = 0; r < kNumRegisters; r++) {
      regs_[r] = m_.reg(r);
    }
    cc_lhs_ = m_.cc_lhs();
    cc_rhs_ = m_.cc_rhs();
  }
  ~RegSaver() {
    for (uint8_t r = 0; r < kNumRegisters; r++) {
      m_.set_reg(r, regs_[r]);
    }
    m_.SetCc(cc_lhs_, cc_rhs_);
  }
  RegSaver(const RegSaver&) = delete;
  RegSaver& operator=(const RegSaver&) = delete;

 private:
  Machine& m_;
  uint32_t regs_[kNumRegisters];
  uint32_t cc_lhs_, cc_rhs_;
};

}  // namespace

Kernel::Kernel(Config config)
    : config_(config),
      machine_(config.memory_bytes, config.machine),
      exec_(machine_, store_),
      kexec_(machine_, store_),
      synth_(store_),
      alloc_(machine_, 0x1000,
             static_cast<uint32_t>(config.memory_bytes) - 0x1000),
      ready_(machine_, store_),
      spec_(store_, config.adapt, [this](BlockId b) { RetireBlock(b); }) {
  store_.SetByteCap(config_.code_byte_cap);
  auto trap = [this](int vector, Machine& m) { return HandleTrap(vector, m); };
  exec_.SetTrapHandler(trap);
  kexec_.SetTrapHandler(trap);
  faults_.Reseed(config_.fault_seed);
  if (const char* spec = std::getenv("SYNTHESIS_FAULTS")) {
    faults_.ArmFromSpec(spec);
  }
  alloc_.SetFaultHook(
      [this] { return faults_.ShouldFire(FaultSite::kAlloc); });
  chain_queue_ = std::make_unique<VmQueue>(machine_, store_, alloc_, 64,
                                           VmQueue::Kind::kMpsc, config_.synthesis);
}

bool Kernel::RefuseInstall() {
  if (faults_.ShouldFire(FaultSite::kCodeInstall)) {
    installs_refused_++;
    return true;  // code-store pressure: install refused
  }
  return false;
}

BlockId Kernel::SynthesizeInstall(const CodeTemplate& tmpl, const Bindings& bindings,
                                  const InvariantMemory* invariants,
                                  const std::string& name, SynthesisStats* stats,
                                  const SynthesisOptions* options) {
  if (RefuseInstall()) {
    return kInvalidBlock;
  }
  return SynthesizeInstallEssential(tmpl, bindings, invariants, name, stats,
                                    options);
}

BlockId Kernel::SynthesizeInstall(const PreparedTemplate& prepared,
                                  std::span<const int32_t> values,
                                  const std::string& name) {
  if (RefuseInstall()) {
    return kInvalidBlock;
  }
  SynthesisStats st;
  CodeBlock blk = synth_.Instantiate(prepared, values, &st, name);
  return ChargeAndInstall(std::move(blk), st, nullptr);
}

BlockId Kernel::SynthesizeInstallEssential(const CodeTemplate& tmpl,
                                           const Bindings& bindings,
                                           const InvariantMemory* invariants,
                                           const std::string& name,
                                           SynthesisStats* stats,
                                           const SynthesisOptions* options) {
  SynthesisStats st;
  const SynthesisOptions& opts = options ? *options : config_.synthesis;
  CodeBlock blk = synth_.Specialize(tmpl, bindings, invariants, opts, &st, name);
  return ChargeAndInstall(std::move(blk), st, stats);
}

// The modelled charge is the same for every install path: a prepared
// instance bills the instructions Specialize would have read and written.
BlockId Kernel::ChargeAndInstall(CodeBlock blk, const SynthesisStats& st,
                                 SynthesisStats* stats) {
  machine_.Charge(kSynthCyclesPerInput * st.input_instructions +
                      kSynthCyclesPerOutput * st.output_instructions,
                  0, st.output_instructions);
  if (stats) {
    *stats = st;
  }
  BlockId id = store_.Install(std::move(blk));
  if (id == kInvalidBlock) {
    installs_refused_++;  // live-block cap: the protected area is full
  }
  return id;
}

SweepStats Kernel::AdaptNow() {
  TraceMonitor monitor(machine_, store_);
  SweepStats s = spec_.AdaptSweep(&monitor);
  machine_.ClearTrace();  // the next window measures fresh heat
  return s;
}

int Kernel::RegisterHostTrap(std::function<TrapAction(Machine&)> fn) {
  host_traps_.push_back(std::move(fn));
  return kHostTrapBase + static_cast<int>(host_traps_.size()) - 1;
}

TrapAction Kernel::HandleTrap(int vector, Machine& machine) {
  if (vector >= kHostTrapBase &&
      vector < kHostTrapBase + static_cast<int>(host_traps_.size())) {
    return host_traps_[static_cast<size_t>(vector - kHostTrapBase)](machine);
  }
  return TrapAction::kFault;
}

Kernel::ThreadRec* Kernel::Rec(ThreadId tid) {
  auto it = threads_.find(tid);
  return it == threads_.end() ? nullptr : &it->second;
}

Tte Kernel::TteOf(ThreadId tid) {
  ThreadRec* r = Rec(tid);
  assert(r != nullptr);
  return Tte(machine_.memory(), r->tte);
}

ThreadState Kernel::StateOf(ThreadId tid) {
  ThreadRec* r = Rec(tid);
  return r ? Tte(machine_.memory(), r->tte).state() : ThreadState::kFree;
}

void Kernel::SetDefaultVector(Vector v, BlockId handler) {
  default_vectors_[static_cast<size_t>(v)] = handler;
}

void Kernel::SynthesizeSwitchProcedures(ThreadRec& rec, bool with_fp) {
  Tte t(machine_.memory(), rec.tte);
  // Context-switch procedures are emitted verbatim: their last two
  // instructions form the ready queue's patchable jmp slot (Figure 3), which
  // the optimizer must not touch.
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  std::string id = std::to_string(rec.id);

  Asm out("sw_out#" + id);
  out.MoveI(kA6, rec.tte);
  out.MovemSave(kA6, 16);  // registers land in the TTE's register save area
  if (with_fp) {
    out.Charge(kFpSaveCycles);
  }
  out.MoveI(kD7, kInvalidBlock);  // patched by ReadyQueue::PatchLink
  out.JmpInd(kD7);

  Asm in("sw_in#" + id);
  in.MoveI(kD6, rec.tte + TteLayout::kVectors);
  in.SetVbr(kD6);
  if (with_fp) {
    in.Charge(kFpRestoreCycles);
  }
  in.MoveI(kA6, rec.tte);
  in.MovemLoad(kA6, 16);
  in.Rts();  // models rte: resume the thread

  Asm in_mmu("sw_in_mmu#" + id);
  in_mmu.Charge(kMmuSwitchCycles);  // reload the address map
  in_mmu.MoveI(kD6, rec.tte + TteLayout::kVectors);
  in_mmu.SetVbr(kD6);
  if (with_fp) {
    in_mmu.Charge(kFpRestoreCycles);
  }
  in_mmu.MoveI(kA6, rec.tte);
  in_mmu.MovemLoad(kA6, 16);
  in_mmu.Rts();

  if (t.sw_out() != kInvalidBlock) {
    // Resynthesis (lazy FP): replace in place so patched jmp targets and the
    // ready queue's links stay valid.
    int32_t old_target = store_.Get(t.sw_out()).code.rbegin()[1].imm;
    CodeBlock nout = synth_.Specialize(out.Build(), Bindings(), nullptr, verbatim);
    nout.code[nout.code.size() - 2].imm = old_target;
    store_.Replace(t.sw_out(), std::move(nout));
    store_.Replace(t.sw_in(), synth_.Specialize(in.Build(), Bindings(), nullptr,
                                                verbatim));
    store_.Replace(t.sw_in_mmu(), synth_.Specialize(in_mmu.Build(), Bindings(),
                                                    nullptr, verbatim));
    machine_.Charge(kSynthCyclesPerInput * 18, 0, 18);
    return;
  }
  t.set_sw_out(SynthesizeInstallEssential(out.Build(), Bindings(), nullptr,
                                          "sw_out#" + id, nullptr, &verbatim));
  t.set_sw_in(SynthesizeInstallEssential(in.Build(), Bindings(), nullptr,
                                         "sw_in#" + id, nullptr, &verbatim));
  t.set_sw_in_mmu(SynthesizeInstallEssential(in_mmu.Build(), Bindings(), nullptr,
                                             "sw_in_mmu#" + id, nullptr,
                                             &verbatim));
}

void Kernel::SynthesizeThreadVectors(ThreadRec& rec) {
  Tte t(machine_.memory(), rec.tte);
  for (size_t v = 0; v < static_cast<size_t>(Vector::kNumVectors); v++) {
    t.SetVector(static_cast<Vector>(v), default_vectors_[v]);
  }
  t.SetVector(Vector::kTimer, t.sw_out());

  // Per-thread error trap handler (§4.3): copies the exception frame onto the
  // user stack, redirects the return address to the user's error signal
  // procedure, and returns from the exception — "about 5 machine
  // instructions", synthesized at thread creation.
  Asm err("errtrap#" + std::to_string(rec.id));
  err.Load32(kD0, kA7, 0);     // pick up the faulting pc from the frame
  err.Store32(kA7, kD0, -8);   // copy frame word to the user stack
  err.MoveI(kD1, kInvalidBlock);  // user error-signal procedure (none yet)
  err.Store32(kA7, kD1, 0);    // redirect the exception return address
  err.Rts();                   // rte into the user handler
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  t.SetVector(Vector::kErrorTrap,
              SynthesizeInstallEssential(err.Build(), Bindings(), nullptr,
                                         "errtrap#" + std::to_string(rec.id),
                                         nullptr, &verbatim));
}

ThreadId Kernel::CreateThread(std::unique_ptr<UserProgram> body,
                              uint32_t quaspace_id) {
  ThreadId tid = next_tid_++;
  Addr tte_addr = alloc_.Allocate(TteLayout::kSize);
  assert(tte_addr != 0 && "kernel memory exhausted");

  // Fill the ~1 KB TTE (the bulk of the paper's 142 us creation time).
  std::memset(machine_.memory().raw(tte_addr), 0, TteLayout::kSize);
  machine_.Charge(kTteFillCyclesPerWord * (TteLayout::kSize / 4), 0,
                  TteLayout::kSize / 4);

  ThreadRec rec;
  rec.id = tid;
  rec.tte = tte_addr;
  rec.body = std::move(body);

  Tte t(machine_.memory(), tte_addr);
  t.set_thread_id(tid);
  t.set_quaspace(quaspace_id);
  t.set_state(ThreadState::kReady);
  t.set_vector_table(tte_addr + TteLayout::kVectors);
  // Lazy FP: a thread starts without FP state; its first FP instruction
  // traps, and only then do its switch procedures save and restore FP.
  t.set_uses_fp(false);

  SynthesizeSwitchProcedures(rec, /*with_fp=*/false);
  SynthesizeThreadVectors(rec);

  threads_[tid] = std::move(rec);
  tte_to_tid_[tte_addr] = tid;
  sched_.AddThread(tid);
  ready_.InsertBack(tte_addr);
  return tid;
}

void Kernel::ReapDoneThread(ThreadId tid) {
  ThreadRec* r = Rec(tid);
  if (r == nullptr) {
    return;
  }
  Tte t(machine_.memory(), r->tte);
  if (t.state() == ThreadState::kReady) {
    ready_.Remove(r->tte);
  } else if (r->waiting_on != nullptr) {
    auto& w = r->waiting_on->waiters_;
    std::erase(w, tid);
  }
  t.set_state(ThreadState::kDone);
  sched_.RemoveThread(tid);
  // The thread's synthesized code goes with it. Retirement is deferred, so a
  // thread reaped from inside its own step is never freed under an executor.
  RetireBlock(t.sw_out());
  RetireBlock(t.sw_in());
  RetireBlock(t.sw_in_mmu());
  RetireBlock(t.GetVector(Vector::kErrorTrap));
  alloc_.Free(r->tte);
  tte_to_tid_.erase(r->tte);
  pending_signals_.erase(tid);
  threads_.erase(tid);
  if (current_tid_ == tid) {
    current_tid_ = kNoThread;
  }
}

void Kernel::DestroyThread(ThreadId tid) {
  machine_.Charge(kDestroyCycles, 0, 8);
  ReapDoneThread(tid);
}

void Kernel::Stop(ThreadId tid) {
  ThreadRec* r = Rec(tid);
  if (r == nullptr) {
    return;
  }
  Tte t(machine_.memory(), r->tte);
  if (t.state() != ThreadState::kReady) {
    return;
  }
  ready_.Remove(r->tte);
  t.set_state(ThreadState::kStopped);
  machine_.Charge(118, 0, 9);  // unlink stores, TTE state, trace disable
}

void Kernel::Start(ThreadId tid) {
  ThreadRec* r = Rec(tid);
  if (r == nullptr) {
    return;
  }
  Tte t(machine_.memory(), r->tte);
  if (t.state() != ThreadState::kStopped) {
    return;
  }
  ready_.InsertBack(r->tte);
  t.set_state(ThreadState::kReady);
  machine_.Charge(108, 0, 9);
}

void Kernel::Step(ThreadId tid) {
  ThreadRec* r = Rec(tid);
  if (r == nullptr || TteOf(tid).state() != ThreadState::kStopped) {
    return;
  }
  machine_.Charge(kStepMachineryCycles, 0, 24);
  if (!r->body) {
    return;
  }
  ThreadId prev = current_tid_;
  current_tid_ = tid;
  ThreadEnv env{*this, tid};
  StepStatus st = r->body->Step(env);
  current_tid_ = prev;
  if (st == StepStatus::kDone) {
    ReapDoneThread(tid);
  }
  // kBlocked from a stopped thread leaves it parked on the wait queue; it
  // will be stopped again when unblocked (not modelled further).
}

void Kernel::Signal(ThreadId tid, BlockId handler) {
  ThreadRec* r = Rec(tid);
  if (r == nullptr) {
    return;
  }
  // The send path is the synthesized queue put (11 instructions) plus the
  // TTE update; charged explicitly since the per-thread queue is host-side.
  machine_.Charge(128, 14, 8);
  pending_signals_[tid].push_back(handler);
  Tte t(machine_.memory(), r->tte);
  t.set_sig_pending(t.sig_pending() + 1);
}

void Kernel::EnableFp(ThreadId tid) {
  ThreadRec* r = Rec(tid);
  if (r == nullptr) {
    return;
  }
  Tte t(machine_.memory(), r->tte);
  if (t.uses_fp()) {
    return;
  }
  t.set_uses_fp(true);
  // The illegal-instruction trap resynthesizes the switch code to include
  // the FP register file (§4.2); only FP users pay the added cost.
  SynthesizeSwitchProcedures(*r, true);
}

void Kernel::BlockCurrentOn(WaitQueue& wq) {
  ThreadRec* r = Rec(current_tid_);
  assert(r != nullptr && "no current thread to block");
  Tte t(machine_.memory(), r->tte);
  if (t.state() == ThreadState::kReady) {
    ready_.Remove(r->tte);
  }
  t.set_state(ThreadState::kBlocked);
  r->waiting_on = &wq;
  wq.waiters_.push_back(current_tid_);
  machine_.Charge(kBlockExtraCycles, 0, 4);
}

ThreadId Kernel::UnblockOne(WaitQueue& wq) {
  if (wq.waiters_.empty()) {
    return kNoThread;
  }
  ThreadId tid = wq.waiters_.front();
  wq.waiters_.erase(wq.waiters_.begin());
  ThreadRec* r = Rec(tid);
  if (r == nullptr) {
    return kNoThread;
  }
  r->waiting_on = nullptr;
  Tte t(machine_.memory(), r->tte);
  t.set_state(ThreadState::kReady);
  // Unblocked threads go to the front: next access to the CPU (§4.4).
  ready_.InsertFront(r->tte);
  machine_.Charge(kUnblockExtraCycles, 0, 4);
  return tid;
}

void Kernel::UnblockAll(WaitQueue& wq) {
  while (UnblockOne(wq) != kNoThread) {
  }
}

void Kernel::ChainProcedure(BlockId proc) {
  // Append to the chained-procedure queue: the synthesized MP-SC put.
  chain_queue_->Put(kexec_, static_cast<uint32_t>(proc));
}

void Kernel::DrainChainedProcedures() {
  if (chain_queue_->Empty()) {
    machine_.Charge(7, 1, 1);  // one load of the pending-work flag
    return;
  }
  uint32_t proc = 0;
  while (chain_queue_->Get(kexec_, &proc)) {
    if (store_.Valid(static_cast<BlockId>(proc))) {
      kexec_.Call(static_cast<BlockId>(proc));
      chained_run_++;
    }
  }
}

bool Kernel::SetAlarm(double delta_us, BlockId handler) {
  machine_.Charge(kAlarmInsertCycles, 0, 6);  // sorted timer-queue insert
  if (faults_.ShouldFire(FaultSite::kAlarmDrop)) {
    return false;  // lost timer tick: the entry never makes the queue
  }
  if (faults_.ShouldFire(FaultSite::kAlarmLate)) {
    delta_us *= kAlarmLateMult;  // delayed delivery (timer coalescing/skew)
  }
  intc_.Raise(NowUs() + delta_us, Vector::kAlarm, static_cast<uint32_t>(handler));
  return true;
}

void Kernel::RetireBlock(BlockId id) {
  if (id == kInvalidBlock || !store_.Valid(id)) {
    return;
  }
  retired_blocks_.push_back(id);
}

void Kernel::DrainRetiredBlocks() {
  // The executors cache references into the block they are running; freeing
  // under them is use-after-free. Between runs, reclamation is safe: a stale
  // entry point (an armed alarm, a not-yet-rewritten cell) finds an empty
  // block, which executes as an immediate return.
  if (kexec_.active() || exec_.active() || retired_blocks_.empty()) {
    return;
  }
  for (BlockId id : retired_blocks_) {
    store_.Uninstall(id);
  }
  retired_blocks_.clear();
}

void Kernel::DispatchInterrupt(const PendingInterrupt& irq) {
  in_interrupt_ = true;
  interrupts_dispatched_++;
  machine_.Charge(kIrqEntryCycles, 1, 4);

  BlockId handler = kInvalidBlock;
  if (irq.vector == Vector::kAlarm) {
    // Acknowledge the interval timer, re-arm it for the next alarm, and pop
    // the expired entry off the sorted timer queue.
    machine_.Charge(52, 6, 3);
    if (store_.Valid(static_cast<BlockId>(irq.payload))) {
      handler = static_cast<BlockId>(irq.payload);
    }
  } else if (ThreadRec* r = Rec(current_tid_)) {
    handler = Tte(machine_.memory(), r->tte).GetVector(irq.vector);
  }
  if (handler == kInvalidBlock) {
    handler = default_vectors_[static_cast<size_t>(irq.vector)];
  }

  {
    RegSaver saver(machine_);
    if (handler != kInvalidBlock) {
      machine_.Charge(kIrqScratchCycles);  // the few registers the handler uses
      machine_.set_reg(kD1, irq.payload);  // device data (e.g. the character)
      kexec_.Call(handler);
    }
    // Procedure Chaining (§3.1): work chained during (or before) this
    // interrupt runs at the end of the handler.
    DrainChainedProcedures();
  }
  machine_.Charge(kIrqExitCycles, 1, 1);
  in_interrupt_ = false;
  DrainRetiredBlocks();
}

void Kernel::DeliverDueInterrupts() {
  while (auto irq = intc_.PopDue(NowUs())) {
    DispatchInterrupt(*irq);
    if (faults_.ShouldFire(FaultSite::kIrqBurst)) {
      // Spurious duplicate: a glitching device re-raises the line before the
      // handler acknowledges it. Handlers must tolerate the double dispatch.
      DispatchInterrupt(*irq);
    }
  }
}

void Kernel::DeliverSignals(ThreadRec& rec) {
  auto it = pending_signals_.find(rec.id);
  if (it == pending_signals_.end()) {
    return;
  }
  Tte t(machine_.memory(), rec.tte);
  while (!it->second.empty()) {
    BlockId handler = it->second.front();
    it->second.pop_front();
    t.set_sig_pending(t.sig_pending() - 1);
    if (store_.Valid(handler)) {
      RegSaver saver(machine_);
      machine_.Charge(kIrqScratchCycles);
      kexec_.Call(handler);  // runs in the receiving thread's context
    }
  }
}

void Kernel::ContextSwitchNow() {
  if (ready_.Empty()) {
    current_tid_ = kNoThread;
    return;
  }
  ThreadRec* from = Rec(current_tid_);
  Addr from_tte = from ? from->tte : 0;
  bool from_running = from_tte != 0 && ready_.current() == from_tte &&
                      Tte(machine_.memory(), from_tte).state() == ThreadState::kReady;
  if (from_running) {
    ready_.Advance();
  }
  Addr target = ready_.current();
  if (from_tte != 0 && store_.Valid(Tte(machine_.memory(), from_tte).sw_out())) {
    // The executable ready queue: sw_out saves registers and jumps directly
    // into the successor's sw_in. One VM run, no dispatcher (§4.2).
    kexec_.Call(Tte(machine_.memory(), from_tte).sw_out());
  } else {
    kexec_.Call(Tte(machine_.memory(), target).sw_in());  // boot dispatch
  }
  auto it = tte_to_tid_.find(target);
  current_tid_ = it == tte_to_tid_.end() ? kNoThread : it->second;
  context_switches_++;
}

bool Kernel::RunSlice() {
  DrainRetiredBlocks();
  DeliverDueInterrupts();
  if (ready_.Empty()) {
    if (intc_.Empty()) {
      return false;
    }
    machine_.AdvanceToMicros(intc_.NextTime());
    DeliverDueInterrupts();
    return true;
  }

  // Align the host notion of "current" with the queue.
  auto it = tte_to_tid_.find(ready_.current());
  assert(it != tte_to_tid_.end());
  current_tid_ = it->second;
  ThreadRec* rec = Rec(current_tid_);
  ThreadId running_tid = current_tid_;

  DeliverSignals(*rec);

  double slice_start = NowUs();
  double quantum = config_.fine_grain_scheduling
                       ? sched_.QuantumUsFor(current_tid_, slice_start)
                       : FineGrainScheduler::kBaseQuantumUs;
  double deadline = slice_start + quantum;

  bool parked = false;
  while (rec->body != nullptr && NowUs() < deadline) {
    ThreadEnv env{*this, running_tid};
    StepStatus st = rec->body->Step(env);
    if (st == StepStatus::kDone) {
      ReapDoneThread(running_tid);
      parked = true;
      break;
    }
    if (st == StepStatus::kBlocked) {
      parked = true;
      break;
    }
    DeliverDueInterrupts();
    // An interrupt may have reshaped the queue (unblocks insert at front);
    // the current thread keeps its quantum (§4.4 reorders at switch time).
    if (Rec(running_tid) == nullptr ||
        TteOf(running_tid).state() != ThreadState::kReady) {
      parked = true;
      break;
    }
  }
  // A slice that consumed no virtual time (idle body) still burns its
  // quantum, otherwise simulated time would stand still.
  if (!parked && NowUs() == slice_start) {
    machine_.ChargeMicros(deadline - NowUs());
  }

  DeliverDueInterrupts();
  if (!ready_.Empty()) {
    // Quantum expiry: the timer interrupt vectors straight into sw_out.
    machine_.Charge(kIrqEntryCycles, 1, 4);
    ContextSwitchNow();
  } else {
    current_tid_ = kNoThread;
  }
  return true;
}

uint64_t Kernel::Run(uint64_t max_slices) {
  uint64_t n = 0;
  while (n < max_slices && RunSlice()) {
    n++;
  }
  return n;
}

}  // namespace synthesis
