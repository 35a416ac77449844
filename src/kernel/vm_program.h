// A thread body that runs real machine code on the simulated CPU.
//
// The thread's registers genuinely context-switch: while the program runs
// they live in the machine's register file, and the synthesized sw_out /
// sw_in procedures save and restore them through the TTE — so a VM thread
// preempted mid-computation resumes exactly where it left off, with whatever
// other threads did to the registers in between undone by its sw_in.
//
// Blocking follows the trap-retry protocol: a kernel call that cannot
// complete parks the thread (the host trap handler calls BlockCurrentOn and
// returns TrapAction::kBlock); the executor suspends with the pc still at
// the trap, and the retried trap re-executes after unblocking.
//
// Error traps (§4.3): a bus fault or bad opcode vectors to the thread's
// synthesized error-trap handler, which redirects control to the thread's
// error signal in user mode. Here the handler block runs and the thread
// terminates with the fault recorded (inspectable via fault()).
#ifndef SRC_KERNEL_VM_PROGRAM_H_
#define SRC_KERNEL_VM_PROGRAM_H_

#include "src/kernel/kernel.h"
#include "src/kernel/user_program.h"
#include "src/machine/executor.h"

namespace synthesis {

class VmProgram : public UserProgram {
 public:
  // `entry` is the program's entry block. `fault_out`, if given, receives
  // the fault kind when the program dies on an error trap (kNone otherwise);
  // it must outlive the thread.
  VmProgram(Kernel& kernel, BlockId entry, FaultKind* fault_out = nullptr,
            uint64_t steps_per_slice = 4096)
      : exec_(kernel.machine(), kernel.code()),
        kernel_(kernel),
        entry_(entry),
        fault_out_(fault_out),
        steps_per_slice_(steps_per_slice) {
    exec_.SetTrapHandler(
        [&kernel](int vector, Machine& m) { return kernel.HandleTrapPublic(vector, m); });
  }

  StepStatus Step(ThreadEnv& env) override {
    if (!started_) {
      exec_.Start(entry_);
      started_ = true;
    }
    RunResult r = exec_.Run(steps_per_slice_);
    switch (r.outcome) {
      case RunOutcome::kReturned:
      case RunOutcome::kHalted:
        return StepStatus::kDone;
      case RunOutcome::kBlocked:
        // The trap handler parked us on a wait queue; retry after unblock.
        return StepStatus::kBlocked;
      case RunOutcome::kStepLimit:
        return StepStatus::kYield;
      case RunOutcome::kFault: {
        if (fault_out_ != nullptr) {
          *fault_out_ = r.fault;
        }
        // Deliver the error trap through the thread's own vector (§4.3):
        // the synthesized handler forwards the exception to user mode.
        Tte tte = env.kernel.TteOf(env.tid);
        BlockId handler = tte.GetVector(Vector::kErrorTrap);
        if (env.kernel.code().Valid(handler)) {
          env.kernel.machine().Charge(20, 1, 4);  // exception frame
          env.kernel.kexec().Call(handler);
        }
        return StepStatus::kDone;
      }
    }
    return StepStatus::kDone;
  }

  Executor& exec() { return exec_; }

 private:
  Executor exec_;
  Kernel& kernel_;
  BlockId entry_;
  FaultKind* fault_out_;
  uint64_t steps_per_slice_;
  bool started_ = false;
};

}  // namespace synthesis

#endif  // SRC_KERNEL_VM_PROGRAM_H_
