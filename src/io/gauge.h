// The gauge building block (§2.3): counts events (procedure calls, data
// arrival, interrupts). Schedulers use gauges to collect the data-flow
// measurements that drive fine-grain scheduling (§4.4).
//
// A gauge counts host events: the device model's traps and wire faults, the
// stream layer's timers. A counter that synthesized code bumps lives in
// simulated memory beside that code, and so does one the kernel bumps at a
// charged cost; both are read in place through their owner's accessor (the
// demux's csum_rejects(), the journal's committed_batches()), never copied
// into a gauge. Both gauge counters are 64-bit: overload runs (bench/table9)
// push millions of events through single gauges.
#ifndef SRC_IO_GAUGE_H_
#define SRC_IO_GAUGE_H_

#include <cstdint>

#include "src/kernel/kernel.h"

namespace synthesis {

class Gauge {
 public:
  // A free-standing counter.
  Gauge() = default;
  // A counter wired to the scheduler: every Count() reports I/O flow on
  // behalf of `owner`.
  Gauge(Kernel& kernel, ThreadId owner) : kernel_(&kernel), owner_(owner) {}

  void Count(uint32_t bytes = 0) {
    events_++;
    bytes_ += bytes;
    if (kernel_ != nullptr) {
      kernel_->machine().Charge(4, 1, 0);  // one increment instruction
      kernel_->scheduler().ReportIo(owner_, bytes, kernel_->NowUs());
    }
  }

  uint64_t events() const { return events_; }
  uint64_t bytes() const { return bytes_; }

  void Reset() {
    events_ = 0;
    bytes_ = 0;
  }

 private:
  Kernel* kernel_ = nullptr;
  ThreadId owner_ = kNoThread;
  uint64_t events_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace synthesis

#endif  // SRC_IO_GAUGE_H_
