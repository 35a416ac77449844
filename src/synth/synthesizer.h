// Kernel code synthesis (§2.2 of the paper).
//
// Kernel operations are written once as general templates: programs that read
// their parameters from context structures, dispatch on device types, and call
// through layers. At `open()` / thread-create time the Synthesizer specializes
// a template for one specific situation, applying the paper's three methods:
//
//  * Factoring Invariants — symbolic holes are bound to constants, and loads
//    from memory declared invariant (the open-file record, the TTE, the device
//    switch table) are folded to immediates read from live simulated memory.
//  * Collapsing Layers — kJsr calls (and kJsrInd calls whose target becomes
//    known) are inlined, eliminating procedure-call layering.
//  * plus classic cleanups: constant propagation/folding, branch folding with
//    unreachable-code removal, dead-code elimination, and peephole rules.
//
// The output is a shorter concrete program; the speedups measured by the
// benchmarks are the path-length difference between template and output.
//
// Copy-and-patch: a template emitted many times with only a few immediates
// changing (one segment processor per stream connection) is optimized once
// by Prepare and then stamped out by Instantiate, which copies the prepared
// code and patches each remaining hole's output slots. Prepare binds the
// holes it is given and leaves the rest *opaque*: values it does not know
// but every instance will. It runs the very passes Specialize runs, so an
// instance is not an approximation — Instantiate(prepared, values) equals
// Specialize(template, fixed + values) instruction for instruction and
// reports the same SynthesisStats — under this exactness rule:
//
//  * Prepare declines (every instance then takes the full Specialize path)
//    when a pass would have to read an opaque value: an opaque kJsr target
//    or kMovem* count, or a fold, branch fold, absolute-ification or kJsrInd
//    rewrite whose operands are all known-or-opaque with at least one
//    opaque. A register is opaque while its value derives from an opaque
//    immediate (an opaque kMoveI, then kPush/kPop arithmetic on a7).
//  * A peephole rule that tests an opaque immediate for its identity value
//    (0 for kAddI/kSubI/kOrI/kLslI/kLsrI/kLea, 1 for kMulI, -1 for kAndI) is
//    not applied; it becomes a guard, and an instance whose value equals it
//    is specialized the full way.
//  * An opaque instruction that dead-code elimination or unreachable-code
//    removal deletes takes its slot with it.
//
// Prepare takes no InvariantMemory. Blocks named by fixed holes (an inlined
// callee) are read once, at Prepare, so they must not change while the
// prepared template is in use.
#ifndef SRC_SYNTH_SYNTHESIZER_H_
#define SRC_SYNTH_SYNTHESIZER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/machine/assembler.h"
#include "src/machine/code_store.h"
#include "src/machine/memory.h"

namespace synthesis {

// Concrete values for a template's named holes.
class Bindings {
 public:
  Bindings& Set(const std::string& name, int32_t value) {
    values_[name] = value;
    return *this;
  }
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  int32_t Get(const std::string& name) const { return values_.at(name); }

 private:
  std::map<std::string, int32_t> values_;
};

// Memory the synthesizer may treat as constant. Reads resolve against the live
// simulated memory at synthesis time — this is the "binding the system state
// early" of the paper's conclusion.
class InvariantMemory {
 public:
  explicit InvariantMemory(const Memory& mem) : mem_(&mem) {}

  InvariantMemory& AddRange(AddrRange range) {
    ranges_.push_back(range);
    return *this;
  }

  bool Covers(Addr addr, size_t len) const {
    for (const AddrRange& r : ranges_) {
      if (r.Contains(addr, len)) {
        return true;
      }
    }
    return false;
  }

  uint32_t Read(Addr addr, size_t len) const {
    switch (len) {
      case 1:
        return mem_->Read8(addr);
      case 2:
        return mem_->Read16(addr);
      default:
        return mem_->Read32(addr);
    }
  }

 private:
  const Memory* mem_;
  std::vector<AddrRange> ranges_;
};

struct SynthesisOptions {
  bool inline_calls = true;          // Collapsing Layers
  bool fold_invariant_loads = true;  // Factoring Invariants
  bool constant_fold = true;
  bool fold_branches = true;
  bool dead_code_elim = true;
  bool peephole = true;
  int max_inline_depth = 6;
  int max_passes = 12;

  // Calling convention: registers still meaningful when the routine returns.
  // Dead-code elimination may delete writes to any register outside this mask.
  // Default: d0 (the result register) and a7 (the stack pointer).
  uint32_t live_out = (1u << 0) | (1u << 15);

  // Everything off: the template is emitted verbatim (after hole binding).
  // This is the "no synthesis" ablation and the baseline kernel's behaviour.
  static SynthesisOptions Disabled() {
    SynthesisOptions o;
    o.inline_calls = false;
    o.fold_invariant_loads = false;
    o.constant_fold = false;
    o.fold_branches = false;
    o.dead_code_elim = false;
    o.peephole = false;
    return o;
  }
};

struct SynthesisStats {
  size_t input_instructions = 0;
  size_t output_instructions = 0;
  size_t inlined_calls = 0;
  size_t folded_loads = 0;    // invariant loads turned into immediates
  size_t folded_branches = 0;
  size_t removed_instructions = 0;  // unreachable + dead + peephole
};

// A template optimized once for many instances (Synthesizer::Prepare).
class PreparedTemplate {
 public:
  // An identity value an opaque hole must not take for the prepared code to
  // hold (see the exactness rule above).
  struct Guard {
    uint32_t slot;
    int32_t value;
    friend bool operator==(const Guard&, const Guard&) = default;
  };

  // True when Prepare declined: every instance takes the full Specialize path.
  bool declined() const { return declined_; }
  const std::vector<Guard>& guards() const { return guards_; }
  // True when `values` (one per opaque slot) trips a guard, so that instance
  // is specialized the full way.
  bool Trips(std::span<const int32_t> values) const;

 private:
  friend class Synthesizer;
  // Where an opaque hole sits: an instruction index and the hole's slot.
  struct Patch {
    uint32_t index;
    uint32_t slot;
  };

  // The full path's input: Specialize(*tmpl_, fixed_ plus opaque_[i] bound
  // to values[i], no invariants, options_). The template is shared with
  // every other preparation of it.
  std::shared_ptr<const CodeTemplate> tmpl_;
  Bindings fixed_;
  std::vector<std::string> opaque_;
  SynthesisOptions options_;
  bool declined_ = false;
  // The prepared output, and where each opaque hole sits in it.
  std::vector<Instr> code_;
  std::vector<Patch> patches_;
  std::vector<Guard> guards_;
  SynthesisStats stats_;
};

class Synthesizer {
 public:
  explicit Synthesizer(const CodeStore& store) : store_(&store) {}

  // Specializes `tmpl` under `bindings`. All holes must be bound.
  // `invariants` may be null (no invariant-memory folding).
  CodeBlock Specialize(const CodeTemplate& tmpl, const Bindings& bindings,
                       const InvariantMemory* invariants,
                       const SynthesisOptions& options, SynthesisStats* stats = nullptr,
                       const std::string& output_name = "") const;

  // Optimizes `tmpl` once with the holes in `fixed` bound and the holes named
  // in `opaque` left opaque; slot i of every instance is `opaque[i]`. Every
  // hole must be in one of the two; a hole named in both is opaque. The
  // prepared template keeps `tmpl` for its full path, shared.
  PreparedTemplate Prepare(std::shared_ptr<const CodeTemplate> tmpl, const Bindings& fixed,
                           const std::vector<std::string>& opaque,
                           const SynthesisOptions& options) const;
  PreparedTemplate Prepare(CodeTemplate tmpl, const Bindings& fixed,
                           const std::vector<std::string>& opaque,
                           const SynthesisOptions& options) const {
    return Prepare(std::make_shared<const CodeTemplate>(std::move(tmpl)), fixed, opaque,
                   options);
  }

  // One instance of `prepared`, with values[i] bound to opaque slot i: equal
  // to Specialize(template, fixed + values, no invariants, the prepared
  // options), stats included. A declined template or a tripped guard runs
  // that specialization in full.
  CodeBlock Instantiate(const PreparedTemplate& prepared,
                        std::span<const int32_t> values,
                        SynthesisStats* stats = nullptr,
                        const std::string& output_name = "") const;

 private:
  struct Opaque;  // Prepare's opaque-hole tracking (synthesizer.cc)

  // The optimizer behind both Specialize and Prepare: runs the pass pipeline
  // over `code` in place. With `opaque` set it carries the opaque slots
  // through every pass, and returns false as soon as a pass would read one.
  bool Optimize(std::vector<Instr>& code, const InvariantMemory* invariants,
                const SynthesisOptions& options, SynthesisStats& st,
                Opaque* opaque) const;

  const CodeStore* store_;
};

}  // namespace synthesis

#endif  // SRC_SYNTH_SYNTHESIZER_H_
