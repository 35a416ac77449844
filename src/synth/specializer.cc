#include "src/synth/specializer.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace synthesis {

Specializer::Specializer(CodeStore& store, AdaptConfig cfg,
                         std::function<void(BlockId)> retire)
    : store_(store), cfg_(cfg), retire_(std::move(retire)) {
  if (cfg_.promote_hits == 0) {
    std::fprintf(stderr,
                 "Specializer: promote_hits must be >= 1 (0 would promote "
                 "every handle on every sweep)\n");
    std::abort();
  }
  if (cfg_.demote_windows == 0) {
    std::fprintf(stderr,
                 "Specializer: demote_windows must be >= 1 (0 would demote "
                 "a handle in the same window that promoted it)\n");
    std::abort();
  }
}

Specializer::Handle* Specializer::Find(SpecId id) {
  auto it = handles_.find(id);
  return it == handles_.end() ? nullptr : &it->second;
}

const Specializer::Handle* Specializer::Find(SpecId id) const {
  auto it = handles_.find(id);
  return it == handles_.end() ? nullptr : &it->second;
}

void Specializer::ReleaseActive(Handle& h) {
  if (h.owns_active && h.active != kInvalidBlock) {
    store_.SetEvictable(h.active, false);  // the hand must not nominate a corpse
    owner_of_.erase(h.active);
    retire_(h.active);
  }
  h.owns_active = false;
  h.active = kInvalidBlock;
}

void Specializer::AdoptBlock(SpecId id, Handle& h, BlockId block,
                             SpecTier tier) {
  h.active = block;
  h.tier = tier;
  if (tier == SpecTier::kGeneric) {
    h.owns_active = false;
    return;
  }
  h.owns_active = true;
  owner_of_[block] = id;
  // Only a block whose owner can fall back to a shared path is a legal
  // eviction victim.
  store_.SetEvictable(block,
                      h.desc.evictable && h.desc.generic != kInvalidBlock);
  store_.TouchBlock(block);  // fresh code gets one clock lap of grace
}

SpecId Specializer::Register(SpecDesc desc) {
  SpecId id = next_id_++;
  Handle h;
  h.desc = std::move(desc);
  if (!h.desc.emit) {
    h.active = h.desc.generic;
    h.tier = SpecTier::kGeneric;
  } else {
    BlockId blk = h.desc.emit(SpecTier::kSpecialized);
    if (blk != kInvalidBlock) {
      AdoptBlock(id, h, blk, SpecTier::kSpecialized);
    } else {
      refusals_++;
      h.active = h.desc.generic;  // may itself be kInvalidBlock: owner decides
      h.tier = SpecTier::kGeneric;
      h.degraded = true;
    }
  }
  handles_.emplace(id, std::move(h));
  return id;
}

void Specializer::Retire(SpecId id) {
  Handle* h = Find(id);
  if (h == nullptr) {
    return;
  }
  ReleaseActive(*h);
  handles_.erase(id);
}

bool Specializer::Transition(SpecId id, Handle& h, SpecTier tier) {
  if (tier == SpecTier::kGeneric) {
    if (h.desc.generic == kInvalidBlock) {
      return false;  // nowhere to go
    }
    ReleaseActive(h);
    h.active = h.desc.generic;
    h.tier = SpecTier::kGeneric;
    h.want = SpecTier::kGeneric;
    h.degraded = false;
    if (h.desc.install) {
      h.desc.install(h.active, h.tier, SpecInstall::kPolicy);
    }
    return true;
  }
  const bool upgrade = tier > h.tier;
  h.want = tier;
  BlockId blk = h.desc.emit ? h.desc.emit(tier) : kInvalidBlock;
  if (blk == kInvalidBlock) {
    refusals_++;
    if (upgrade) {
      // A refused pure upgrade changes nothing: the current block (a lower
      // tier, or the generic a degraded handle fell to) is still
      // semantically valid. Keep it; the sweep retries while heat (or the
      // degraded flag) persists. No install call — nothing moved.
      return false;
    }
    // An equal-tier re-fold was refused: the current block folds invariants
    // that just MOVED (e.g. a pre-establishment processor after the peer
    // became known), so keeping it is not an option when a generic exists.
    h.degraded = true;
    if (h.desc.generic != kInvalidBlock && h.active != h.desc.generic) {
      ReleaseActive(h);
      h.active = h.desc.generic;
      h.tier = SpecTier::kGeneric;
    }
    // No generic: keep the current (still-executable) block — stale
    // invariants, never a wedge. Dispatch chains live here: a refused
    // re-emit keeps the old chain until the next rebuild succeeds.
    if (h.desc.install) {
      h.desc.install(h.active, h.tier, SpecInstall::kRefused);
    }
    return false;
  }
  const SpecInstall why =
      h.degraded ? SpecInstall::kRecovered : SpecInstall::kPolicy;
  ReleaseActive(h);
  AdoptBlock(id, h, blk, tier);
  h.degraded = false;
  if (h.desc.install) {
    h.desc.install(h.active, h.tier, why);
  }
  return true;
}

bool Specializer::Promote(SpecId id, SpecTier tier) {
  Handle* h = Find(id);
  if (h == nullptr || tier == SpecTier::kGeneric) {
    return false;
  }
  if (tier > h->desc.max_tier) {
    tier = h->desc.max_tier;
  }
  if (tier < h->tier) {
    return false;  // that would be a demotion; say what you mean
  }
  const bool ok = Transition(id, *h, tier);
  if (ok) {
    promotions_++;
  }
  return ok;
}

bool Specializer::Demote(SpecId id, SpecTier tier) {
  Handle* h = Find(id);
  if (h == nullptr || tier >= h->tier) {
    return false;
  }
  const bool ok = Transition(id, *h, tier);
  if (ok) {
    demotions_++;
  }
  return ok;
}

bool Specializer::Reemit(SpecId id) {
  Handle* h = Find(id);
  if (h == nullptr) {
    return false;
  }
  if (h->tier == SpecTier::kGeneric && !h->degraded) {
    return true;  // the generic path has no invariants to re-fold
  }
  // A degraded handle re-emits at the tier it wanted, not the one it fell to.
  return Transition(id, *h, h->degraded ? h->want : h->tier);
}

void Specializer::NoteHit(SpecId id, uint64_t n) {
  Handle* h = Find(id);
  if (h == nullptr) {
    return;
  }
  h->heat += n;
  h->idle_windows = 0;
  if (h->owns_active) {
    store_.TouchBlock(h->active);
  }
}

void Specializer::HarvestTrace(const TraceMonitor& monitor) {
  for (const TraceMonitor::BlockProfile& p : monitor.Profile()) {
    auto it = owner_of_.find(p.block);
    if (it == owner_of_.end()) {
      continue;
    }
    Handle* h = Find(it->second);
    if (h != nullptr) {
      h->heat += p.instructions;
      h->idle_windows = 0;
      store_.TouchBlock(p.block);
    }
  }
}

SweepStats Specializer::AdaptSweep(const TraceMonitor* monitor) {
  SweepStats s;
  if (monitor != nullptr) {
    HarvestTrace(*monitor);
  }
  // Snapshot ids: install callbacks may Register/Retire reentrantly.
  std::vector<SpecId> ids;
  ids.reserve(handles_.size());
  for (const auto& [id, h] : handles_) {
    (void)h;
    ids.push_back(id);
  }
  for (SpecId id : ids) {
    Handle* h = Find(id);
    if (h == nullptr) {
      continue;
    }
    if (h->degraded) {
      // A refused install retries once the store has headroom — the
      // degradation ladder's promotion rung, now one line of policy.
      if (store_.HasRoom()) {
        const bool ok = Transition(id, *h, h->want);
        h = Find(id);  // install may have mutated the handle table
        if (h == nullptr) {
          continue;
        }
        if (ok) {
          promotions_++;
          s.promoted++;
        } else {
          s.refused++;
        }
      }
      h->heat = 0;
      continue;
    }
    if (!h->desc.adaptive) {
      h->heat = 0;
      continue;
    }
    if (h->heat >= cfg_.promote_hits && h->tier < h->desc.max_tier) {
      const SpecTier up = static_cast<SpecTier>(
          static_cast<uint8_t>(h->tier) + 1);
      if (Transition(id, *h, up)) {
        promotions_++;
        s.promoted++;
      } else {
        s.refused++;
      }
    } else if (h->heat == 0 && h->tier > SpecTier::kGeneric &&
               h->desc.generic != kInvalidBlock) {
      h->idle_windows++;
      if (h->idle_windows >= cfg_.demote_windows) {
        if (Transition(id, *h, SpecTier::kGeneric)) {
          demotions_++;
          s.demoted++;
        }
        h = Find(id);
        if (h == nullptr) {
          continue;
        }
        h->idle_windows = 0;
      }
    }
    h = Find(id);
    if (h != nullptr) {
      h->heat = 0;
    }
  }
  // Pressure relief: while projected occupancy exceeds the byte cap, the
  // clock hand nominates victims and their owners demote to generic. The
  // bytes come back only at the next retired-block drain (deferred), so the
  // loop tracks what this pass already released.
  if (store_.byte_cap() != 0) {
    size_t released = 0;
    while (store_.code_bytes() - released > store_.byte_cap()) {
      BlockId victim = store_.ClockVictim();
      if (victim == kInvalidBlock) {
        break;  // nothing evictable left; occupancy is what it is
      }
      auto it = owner_of_.find(victim);
      if (it == owner_of_.end()) {
        // An evictable block with no owner should not exist; defang it so
        // the hand cannot spin on it forever.
        store_.SetEvictable(victim, false);
        continue;
      }
      const size_t bytes = store_.block_bytes(victim);
      Handle* h = Find(it->second);
      if (h == nullptr || !Transition(it->second, *h, SpecTier::kGeneric)) {
        store_.SetEvictable(victim, false);
        continue;
      }
      released += bytes;
      evictions_++;
      s.evicted++;
    }
  }
  return s;
}

SpecTier Specializer::TierOf(SpecId id) const {
  const Handle* h = Find(id);
  return h == nullptr ? SpecTier::kGeneric : h->tier;
}

BlockId Specializer::ActiveOf(SpecId id) const {
  const Handle* h = Find(id);
  return h == nullptr ? kInvalidBlock : h->active;
}

bool Specializer::DegradedOf(SpecId id) const {
  const Handle* h = Find(id);
  return h != nullptr && h->degraded;
}

uint64_t Specializer::HeatOf(SpecId id) const {
  const Handle* h = Find(id);
  return h == nullptr ? 0 : h->heat;
}

}  // namespace synthesis
