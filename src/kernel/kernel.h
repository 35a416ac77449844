// The Synthesis kernel: threads, dispatching, interrupts, signals, alarms,
// procedure chaining, and the code-synthesis services the I/O layers use.
//
// The kernel owns one Quamachine. Thread state lives in simulated memory
// (TTEs); the fast paths — context switches, queue operations, interrupt
// handlers, per-file read/write — are synthesized micro-op programs executed
// on the machine, so every timing the benchmarks report is the instruction
// path length of real (generated) code, costed by the 68020 model.
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/kernel/allocator.h"
#include "src/kernel/fault_plane.h"
#include "src/kernel/interrupts.h"
#include "src/kernel/layout.h"
#include "src/kernel/queue_code.h"
#include "src/kernel/ready_queue.h"
#include "src/kernel/scheduler.h"
#include "src/kernel/tte.h"
#include "src/kernel/user_program.h"
#include "src/machine/code_store.h"
#include "src/machine/executor.h"
#include "src/machine/machine.h"
#include "src/synth/specializer.h"
#include "src/synth/synthesizer.h"

namespace synthesis {

using ThreadId = uint32_t;
inline constexpr ThreadId kNoThread = 0;

// A resource's private wait queue (§4.1: "each resource has its own waiting
// queue" — there is no global blocked queue to scan). FIFO: the oldest waiter
// wakes first. A vector, not a deque: an empty one allocates nothing, and
// every live stream connection holds three, almost always empty.
class WaitQueue {
 public:
  bool Empty() const { return waiters_.empty(); }
  size_t Size() const { return waiters_.size(); }

 private:
  friend class Kernel;
  std::vector<ThreadId> waiters_;
};

class Kernel {
 public:
  struct Config {
    size_t memory_bytes = 8 * 1024 * 1024;
    MachineConfig machine = MachineConfig::SunEmulation();
    SynthesisOptions synthesis;  // SynthesisOptions::Disabled() = ablation
    bool fine_grain_scheduling = true;  // false: fixed base quantum (ablation)
    // Seed for the fault plane's per-site streams. The constructor also reads
    // SYNTHESIS_FAULTS from the environment and arms sites from it, so whole
    // test binaries can run under background injection (verify.sh FAULTS=1).
    uint32_t fault_seed = 1;
    // Adaptation policy for the kernel-wide Specializer (promote/demote
    // thresholds; see specializer.h). Validated at construction.
    AdaptConfig adapt;
    // Byte budget for synthesized code: the adaptation sweep demotes clock
    // victims until occupancy fits. 0 = uncapped.
    size_t code_byte_cap = 0;
  };

  Kernel() : Kernel(Config()) {}
  explicit Kernel(Config config);

  // --- Component access ---------------------------------------------------------
  Machine& machine() { return machine_; }
  CodeStore& code() { return store_; }
  // Thread-level executor: runs VM thread bodies; suspendable across traps.
  Executor& executor() { return exec_; }
  // Kernel-level executor: runs synthesized kernel routines (syscall fast
  // paths, interrupt handlers, queue code). Never nested inside itself.
  Executor& kexec() { return kexec_; }
  KernelAllocator& allocator() { return alloc_; }
  FaultPlane& faults() { return faults_; }
  InterruptController& interrupts() { return intc_; }
  ReadyQueue& ready_queue() { return ready_; }
  FineGrainScheduler& scheduler() { return sched_; }
  const Config& config() const { return config_; }
  const Synthesizer& synthesizer() const { return synth_; }
  // The kernel-wide specialization manager: every synthesized artifact
  // registers here; promote/demote/retire and the adaptation sweep run
  // through it (see specializer.h).
  Specializer& spec() { return spec_; }
  // One monitor-driven adaptation pass: harvests the machine trace buffer
  // through a TraceMonitor, then promotes hot / demotes cold / relieves
  // byte-cap pressure. Clears the harvested trace so the next window
  // measures fresh heat.
  SweepStats AdaptNow();

  double NowUs() const { return machine_.NowMicros(); }

  // Synthesizes a routine, charging the machine for the code generator's own
  // work (the paper's open() spends ~40% of its time here), and installs it.
  // `options` overrides the kernel-wide synthesis options (used e.g. to emit
  // patch-slot code verbatim); null means config().synthesis.
  BlockId SynthesizeInstall(const CodeTemplate& tmpl, const Bindings& bindings,
                            const InvariantMemory* invariants,
                            const std::string& name, SynthesisStats* stats = nullptr,
                            const SynthesisOptions* options = nullptr);

  // Installs one instance of a prepared template (Synthesizer::Prepare) with
  // values[i] in its opaque slot i: the same code, the same modelled charge
  // and the same kCodeInstall refusal as SynthesizeInstall of the template
  // under the prepared bindings, without re-running the optimizer.
  BlockId SynthesizeInstall(const PreparedTemplate& prepared,
                            std::span<const int32_t> values,
                            const std::string& name);

  // Same as SynthesizeInstall, but exempt from kCodeInstall fault injection:
  // for code the kernel cannot run without (thread context-switch blocks,
  // and the network bring-up blocks that are themselves the fallback: NIC
  // entries, generic demux and batch loops, pool shims and dispatch chains).
  // The fault plane models *refusable* specialization — a layer declining an
  // optimization and falling back to its generic path. A thread has no
  // generic path: under real code-store pressure the kernel would evict to
  // make room rather than hand back a thread that cannot be switched in.
  BlockId SynthesizeInstallEssential(const CodeTemplate& tmpl,
                                     const Bindings& bindings,
                                     const InvariantMemory* invariants,
                                     const std::string& name,
                                     SynthesisStats* stats = nullptr,
                                     const SynthesisOptions* options = nullptr);

  // Code-store pressure signal: installs refused (capacity cap or injected
  // kCodeInstall fault) since boot. Layers that degraded to a generic path
  // watch this alongside CodeStore::live_block_count() to decide when
  // re-synthesis is worth attempting (the stream layer's sweep).
  uint64_t installs_refused() const { return installs_refused_; }

  // --- Power failure (FaultSite::kPowerFail) ---------------------------------
  // Set once by the device that observed the injected power failure (the disk,
  // which snapshots its platter at that instant). Everything after this point
  // is the doomed kernel coasting to a halt: volatile state no longer matters,
  // and the crash harness stops driving the workload, discards this Kernel,
  // and reconstructs a fresh one on the surviving platter image.
  void NotePowerFail() { power_failed_ = true; }
  bool power_failed() const { return power_failed_; }

  // Registers a host-serviced trap and returns its vector number. Synthesized
  // code reaches host logic (device wakeups, emulation) through these.
  int RegisterHostTrap(std::function<TrapAction(Machine&)> fn);

  // Trap dispatch for executors owned outside the kernel (VM thread bodies).
  TrapAction HandleTrapPublic(int vector, Machine& machine) {
    return HandleTrap(vector, machine);
  }

  // --- Thread operations (Table 3) -------------------------------------------
  // Creates a thread: allocates and fills its TTE (~1 KB), synthesizes its
  // context-switch procedures, error trap handler and default vectors, and
  // inserts it at the back of the ready queue.
  ThreadId CreateThread(std::unique_ptr<UserProgram> body,
                        uint32_t quaspace_id = 0);
  void DestroyThread(ThreadId tid);
  void Stop(ThreadId tid);   // remove from the ready queue
  void Start(ThreadId tid);  // put back
  void Step(ThreadId tid);   // run one step of a stopped thread, stop again
  // Asynchronous software interrupt: chain `handler` to run in the receiving
  // thread's context the next time it is dispatched (§4.3).
  void Signal(ThreadId tid, BlockId handler);

  Tte TteOf(ThreadId tid);
  ThreadId current_thread() const { return current_tid_; }
  bool Alive(ThreadId tid) const { return threads_.count(tid) != 0; }
  ThreadState StateOf(ThreadId tid);

  // Lazy floating-point support (§4.2): called when a thread executes its
  // first FP instruction; resynthesizes its context-switch procedures to
  // include the FP register file.
  void EnableFp(ThreadId tid);

  // --- Blocking ---------------------------------------------------------------
  // Parks the *current* thread on `wq` (removes it from the ready queue).
  // The caller's Step() must then return StepStatus::kBlocked.
  void BlockCurrentOn(WaitQueue& wq);
  // Moves the longest-waiting thread of `wq` to the front of the ready queue
  // (§4.4: unblocked threads get the CPU next). Returns it, or kNoThread.
  ThreadId UnblockOne(WaitQueue& wq);
  void UnblockAll(WaitQueue& wq);

  // --- Interrupt-time services (Table 5) ---------------------------------------
  // Appends `proc` to the chained-procedure queue drained at the end of the
  // current interrupt (Procedure Chaining, §3.1). 4 µs, 7 µs with one retry.
  void ChainProcedure(BlockId proc);
  // Arms a one-shot alarm `delta_us` from now; `handler` runs at interrupt
  // level and pending chained procedures run after it. Returns false when the
  // fault plane drops the alarm (kAlarmDrop): the insert cost was paid but
  // the interrupt will never arrive, and the caller must not count on it.
  bool SetAlarm(double delta_us, BlockId handler);

  // Dispatches one interrupt right now (used by benches to time the path).
  void DispatchInterrupt(const PendingInterrupt& irq);

  // Schedules a synthesized block for reclamation. The slot is returned to
  // the code store's free list only while the kernel executor is idle — the
  // executor caches references into the currently running block, so freeing
  // mid-run (e.g. from a trap handler invoked by the very block being
  // retired) would be unsafe. Idempotent per drain; kInvalidBlock is ignored.
  void RetireBlock(BlockId id);
  // Frees all retired blocks if the kernel executor is idle. Called from the
  // executive between interrupts; exposed for hosts that drive kexec directly.
  void DrainRetiredBlocks();

  // --- Executive -----------------------------------------------------------------
  // Runs one scheduling slice: deliver due interrupts, run the current
  // thread's pending signals and body up to its quantum, then context-switch
  // via the executable ready queue. Returns false when there is nothing left
  // to do (no ready threads and no pending interrupts).
  bool RunSlice();
  // Drives slices until idle or `max_slices`. Returns slices executed.
  uint64_t Run(uint64_t max_slices = UINT64_MAX);

  // Per-thread default vectors installed at creation. The I/O layers replace
  // entries before creating threads (or per thread via TteOf).
  void SetDefaultVector(Vector v, BlockId handler);

  // Executes the context switch from the current thread to its successor via
  // the synthesized sw_out/sw_in chain. Exposed for the dispatcher bench.
  void ContextSwitchNow();

  // Statistics.
  uint64_t context_switches() const { return context_switches_; }
  uint64_t interrupts_dispatched() const { return interrupts_dispatched_; }
  uint64_t chained_procedures_run() const { return chained_run_; }

 private:
  struct ThreadRec {
    ThreadId id = kNoThread;
    Addr tte = 0;
    std::unique_ptr<UserProgram> body;
    WaitQueue* waiting_on = nullptr;
    bool step_mode = false;
  };

  // The kCodeInstall fault site every refusable install passes first.
  bool RefuseInstall();
  // Charges the code generator's modelled work for `st` and installs `blk`.
  BlockId ChargeAndInstall(CodeBlock blk, const SynthesisStats& st,
                           SynthesisStats* stats);
  ThreadRec* Rec(ThreadId tid);
  void SynthesizeSwitchProcedures(ThreadRec& rec, bool with_fp);
  void SynthesizeThreadVectors(ThreadRec& rec);
  void DeliverDueInterrupts();
  void DrainChainedProcedures();
  void DeliverSignals(ThreadRec& rec);
  void ReapDoneThread(ThreadId tid);
  TrapAction HandleTrap(int vector, Machine& machine);

  Config config_;
  Machine machine_;
  CodeStore store_;
  Executor exec_;
  Executor kexec_;
  Synthesizer synth_;
  FaultPlane faults_;
  KernelAllocator alloc_;
  InterruptController intc_;
  ReadyQueue ready_;
  FineGrainScheduler sched_;
  Specializer spec_;

  std::unordered_map<ThreadId, ThreadRec> threads_;
  std::unordered_map<Addr, ThreadId> tte_to_tid_;
  ThreadId next_tid_ = 1;
  ThreadId current_tid_ = kNoThread;

  std::vector<std::function<TrapAction(Machine&)>> host_traps_;
  BlockId default_vectors_[static_cast<size_t>(Vector::kNumVectors)] = {};

  // Interrupt-level work queue (pointers to routines, as a queue — §3.2),
  // drained at the end of interrupt handling (Procedure Chaining).
  std::unique_ptr<VmQueue> chain_queue_;
  // Per-thread pending signal handlers; the send path is charged at the
  // synthesized queue-put cost, delivery happens at dispatch (§4.3).
  std::unordered_map<ThreadId, std::deque<BlockId>> pending_signals_;
  bool in_interrupt_ = false;
  // Blocks awaiting reclamation (deferred until kexec_ is between runs).
  std::vector<BlockId> retired_blocks_;
  uint64_t installs_refused_ = 0;
  bool power_failed_ = false;

  uint64_t context_switches_ = 0;
  uint64_t interrupts_dispatched_ = 0;
  uint64_t chained_run_ = 0;
};

}  // namespace synthesis

#endif  // SRC_KERNEL_KERNEL_H_
