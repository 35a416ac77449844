// The kernel-wide specialization manager: one lifecycle for every synthesized
// artifact (§6.3's loop, closed at runtime).
//
// Before this existed, each subsystem hand-rolled its own resynthesis: the
// stream layer re-emitted segment processors from its sweep, the NIC pool
// swapped shed filters and steering blocks, the I/O system installed cached
// per-fd paths — each with its own refusal handling and its own idea of when
// to fall back. The Specializer unifies all of it behind one API:
//
//   Register   a specialization: an emit callback (builds + installs code at a
//              requested tier), an install callback (the owner rewires its
//              data structures after the active block moved), a shared
//              generic fallback block, and policy bits (max tier, evictable,
//              adaptive). The first emission is at kSpecialized.
//   Promote    re-emit at a higher (or equal — invariants changed) tier.
//   Demote     drop to a lower tier; kGeneric routes callers to the shared
//              fallback and releases the owned block through the kernel's
//              deferred retirement.
//   Reemit     re-emit at the current tier (a folded invariant moved).
//   Retire     the owner is going away; release everything.
//
// Heat accounting: owners feed per-event hits (NoteHit) and the adaptation
// sweep harvests TraceMonitor profiles (HarvestTrace) — both add heat and set
// the block's clock reference bit. AdaptSweep() then walks every adaptive
// handle: hot ones climb a tier (deeper folding — e.g. the stream's wide
// unrolled copy), handles cold for `demote_windows` consecutive sweeps drop
// to generic, degraded handles (a refused install) retry once the store has
// room, and while the store sits over its byte cap the CodeStore clock hand
// nominates victims that are demoted until occupancy fits. Every transition
// is refusal-safe: an emit that returns kInvalidBlock falls back to the
// generic block (or keeps the current one when no generic exists) and marks
// the handle degraded — never a wedge.
//
// One owner: the Specializer is the only holder of a handle's active block,
// tier and degradation. Owners read ActiveOf/TierOf/DegradedOf wherever they
// need them and keep no copies. Each owner wires through one function (the
// cell writes, flow rebind or gauge counts that follow a move): its install
// callback calls it, and the owner calls it once itself after Register.
// Register does not call install, because the owner has no SpecId yet to
// read the Specializer with. Every install says why the block moved, in the
// three cases the Specializer tells apart (SpecInstall): a policy move, a
// refusal fallback, and a degraded handle recovering.
//
// Layering: this lives in synth/ and depends only on the machine layer
// (CodeStore, TraceMonitor). The kernel owns one instance and passes its
// deferred-retirement hook in; subsystems reach it via Kernel::spec().
#ifndef SRC_SYNTH_SPECIALIZER_H_
#define SRC_SYNTH_SPECIALIZER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "src/machine/code_store.h"
#include "src/machine/trace_monitor.h"

namespace synthesis {

using SpecId = uint32_t;
inline constexpr SpecId kBadSpec = 0;

// The tier ladder. kGeneric shares one interpreted routine with every other
// cold flow; kSpecialized folds connection-lifetime invariants (the paper's
// baseline synthesis); kHot re-emits with deeper folding — tuned batch
// windows, wider unrolled copies, inlined delivery hooks — earned by heat.
enum class SpecTier : uint8_t {
  kGeneric = 0,
  kSpecialized = 1,
  kHot = 2,
};

inline const char* SpecTierName(SpecTier t) {
  switch (t) {
    case SpecTier::kGeneric:
      return "generic";
    case SpecTier::kSpecialized:
      return "specialized";
    case SpecTier::kHot:
      return "hot";
  }
  return "?";
}

// Adaptation policy. Validated at construction: a zero threshold or window
// would promote/demote everything on every sweep, which is a config bug, not
// a policy — the constructor aborts loudly (death-tested).
struct AdaptConfig {
  // Heat (NoteHit events plus harvested trace instructions) per sweep window
  // at or above which an adaptive handle climbs one tier.
  uint64_t promote_hits = 64;
  // Consecutive zero-heat sweep windows after which an adaptive handle drops
  // to the generic tier and releases its block.
  uint32_t demote_windows = 4;
};

// Why an install callback fired: the three transitions that move a handle's
// active block.
enum class SpecInstall : uint8_t {
  // A policy move: heat promotion (also out of a cold demotion), cold or
  // pressure demotion, or a re-fold of moved invariants that succeeded.
  kPolicy,
  // A refusal fallback: a re-fold was refused, so the handle is degraded and
  // runs the generic fallback (or, with none, keeps its current block).
  kRefused,
  // A degraded handle's retry succeeded: it runs synthesized code again.
  kRecovered,
};

// One registered specialization.
struct SpecDesc {
  std::string name;
  // Builds and installs code for the requested tier; returns the new block or
  // kInvalidBlock on a refused install (capacity cap or injected fault).
  // Never called with kGeneric — the generic path is `generic`, pre-built.
  std::function<BlockId(SpecTier)> emit;
  // Tells the owner its active block moved, and why (SpecInstall), so it can
  // rewire its structures (flow rebind, cell rewrite) from ActiveOf and count
  // its degradation gauges: kRefused is the ladder's fallback rung,
  // kRecovered its climb back, kPolicy neither — cold is not broken. `block`
  // and `tier` are the new ActiveOf/TierOf. NOT called during Register: the
  // owner has no SpecId yet, so it wires the first block itself by calling
  // the same wiring function once after Register returns. Optional: an owner
  // that reads ActiveOf at every use has nothing to rewire.
  std::function<void(BlockId block, SpecTier tier, SpecInstall why)> install;
  // The shared interpreted fallback (kInvalidBlock when the owner has none —
  // then a refused re-emit keeps the current block instead).
  BlockId generic = kInvalidBlock;
  // Ceiling for heat-driven promotion.
  SpecTier max_tier = SpecTier::kHot;
  // May the clock hand nominate this handle's block under byte-cap pressure?
  // Infrastructure (steering, shed filters, dispatch chains) says no:
  // evicting the overload armor under pressure would be self-defeating.
  bool evictable = true;
  // Does this handle participate in heat-driven promote/demote? Per-flow
  // artifacts say yes; one-of-a-kind infrastructure says no (it would read
  // as permanently cold and demote itself).
  bool adaptive = true;
};

struct SweepStats {
  uint32_t promoted = 0;
  uint32_t demoted = 0;   // cold demotions (policy)
  uint32_t evicted = 0;   // pressure demotions (clock victim)
  uint32_t refused = 0;   // emits refused during this sweep
};

class Specializer {
 public:
  // `retire` is the kernel's deferred-retirement hook: blocks released here
  // are freed only once no executor can be inside them.
  Specializer(CodeStore& store, AdaptConfig cfg,
              std::function<void(BlockId)> retire);

  // Registers and performs the initial emission at kSpecialized (a handle
  // without an emit callback starts at kGeneric). On refusal the handle
  // starts degraded at kGeneric, running desc.generic. The install callback
  // is NOT invoked — the owner wires up from ActiveOf/DegradedOf. Returns the
  // handle id (never kBadSpec).
  SpecId Register(SpecDesc desc);
  // Releases the owned block (deferred) and forgets the handle.
  void Retire(SpecId id);

  // Re-emit at `tier` (>= current; == current re-folds moved invariants).
  // On refusal: falls to generic when one exists (else keeps the current
  // block), marks the handle degraded, invokes install(kRefused), and
  // returns false. The degraded handle is retried by AdaptSweep — or by the
  // owner calling Promote again — once the store has room; the retry that
  // lands invokes install(kRecovered).
  bool Promote(SpecId id, SpecTier tier);
  // Drop to `tier` (< current). kGeneric releases the owned block through
  // deferred retirement and routes callers to the shared fallback.
  bool Demote(SpecId id, SpecTier tier);
  // Re-emit at the current tier; no-op (true) at kGeneric.
  bool Reemit(SpecId id);

  // Heat feed: owners call this per event (delivered frame, cache hit).
  void NoteHit(SpecId id, uint64_t n = 1);
  // Heat feed: attributes the machine trace buffer's per-block instruction
  // counts to the owning handles (§6.3's monitor closing the loop).
  void HarvestTrace(const TraceMonitor& monitor);

  // One adaptation pass: harvest (when a monitor is given), promote hot,
  // demote cold, retry degraded, then relieve byte-cap pressure via the
  // store's clock hand. Resets each handle's heat window.
  SweepStats AdaptSweep(const TraceMonitor* monitor = nullptr);

  // Introspection.
  SpecTier TierOf(SpecId id) const;
  BlockId ActiveOf(SpecId id) const;
  bool DegradedOf(SpecId id) const;
  uint64_t HeatOf(SpecId id) const;
  size_t live_handles() const { return handles_.size(); }

  // Lifetime counters (plain words, not Gauges: the gauge type lives above
  // the kernel in the layering).
  uint64_t promotions() const { return promotions_; }
  uint64_t demotions() const { return demotions_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t refusals() const { return refusals_; }

  const AdaptConfig& config() const { return cfg_; }

 private:
  struct Handle {
    SpecDesc desc;
    BlockId active = kInvalidBlock;
    SpecTier tier = SpecTier::kGeneric;
    SpecTier want = SpecTier::kSpecialized;  // tier to retry when degraded
    bool owns_active = false;  // active was emitted for us (not the generic)
    bool degraded = false;     // last emit refused; running below `want`
    uint64_t heat = 0;         // hits this sweep window
    uint32_t idle_windows = 0; // consecutive zero-heat windows
  };

  Handle* Find(SpecId id);
  const Handle* Find(SpecId id) const;
  // Retires the owned block (if any) and clears ownership.
  void ReleaseActive(Handle& h);
  // Emit-at-tier with refusal fallback; the one transition primitive behind
  // Promote/Demote/Reemit/AdaptSweep. Invokes install on every outcome that
  // changed (or failed to change) the active block.
  bool Transition(SpecId id, Handle& h, SpecTier tier);
  void AdoptBlock(SpecId id, Handle& h, BlockId block, SpecTier tier);

  CodeStore& store_;
  AdaptConfig cfg_;
  std::function<void(BlockId)> retire_;
  // Ordered map: sweeps visit handles in registration order, so adaptation
  // schedules replay deterministically (the FAULTS byte-stability contract).
  std::map<SpecId, Handle> handles_;
  std::unordered_map<BlockId, SpecId> owner_of_;  // active block -> handle
  SpecId next_id_ = 1;

  uint64_t promotions_ = 0;
  uint64_t demotions_ = 0;
  uint64_t evictions_ = 0;
  uint64_t refusals_ = 0;
};

}  // namespace synthesis

#endif  // SRC_SYNTH_SPECIALIZER_H_
