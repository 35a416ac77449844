// The kernel monitor's measurement view (§6.3): "we use the Synthesis kernel
// monitor execution trace, which records in memory the instructions executed
// by the current thread. Using this trace, we can calculate the exact kernel
// call times by counting the memory references and each instruction
// execution time." This class formats the Machine's trace buffer with the
// cycles the executor charged each instruction, and profiles hot blocks.
#ifndef SRC_MACHINE_TRACE_MONITOR_H_
#define SRC_MACHINE_TRACE_MONITOR_H_

#include <map>
#include <string>
#include <vector>

#include "src/machine/code_store.h"
#include "src/machine/machine.h"

namespace synthesis {

class TraceMonitor {
 public:
  TraceMonitor(const Machine& machine, const CodeStore& store)
      : machine_(machine), store_(store) {}

  // The last `n` executed instructions, disassembled with block names and
  // per-instruction cycle attribution.
  std::string FormatTrace(size_t n = 32) const;

  // Per-block execution profile over the whole trace buffer: instruction
  // counts and charged cycles, hottest first. Over a trap-free window the
  // cycles sum to the Stopwatch delta.
  struct BlockProfile {
    std::string name;
    BlockId block = kInvalidBlock;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
  };
  std::vector<BlockProfile> Profile() const;
  std::string FormatProfile(size_t top = 10) const;

  // Total instructions currently held in the trace buffer.
  size_t TraceLength() const { return machine_.trace().size(); }

 private:
  const Machine& machine_;
  const CodeStore& store_;
};

}  // namespace synthesis

#endif  // SRC_MACHINE_TRACE_MONITOR_H_
