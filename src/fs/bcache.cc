#include "src/fs/bcache.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/machine/assembler.h"

namespace synthesis {

namespace {
bool IsPow2(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

uint32_t Log2(uint32_t v) {
  uint32_t s = 0;
  while ((1u << s) < v) {
    s++;
  }
  return s;
}
}  // namespace

Bcache::Bcache(Kernel& kernel, DiskDevice& disk, DiskScheduler& sched,
               BcacheConfig config)
    : kernel_(kernel), disk_(disk), sched_(sched), cfg_(config) {
  // The synthesized hit paths mask block numbers and positions with
  // (map slots - 1) and (block_bytes - 1); any other geometry silently
  // aliases blocks, so a bad config is a hard construction error.
  const uint32_t sector = disk_.geometry().sector_bytes;
  if (!IsPow2(cfg_.entries) || !IsPow2(cfg_.block_bytes) ||
      cfg_.block_bytes < 32 || cfg_.block_bytes % sector != 0 ||
      cfg_.flush_batch == 0 || !(cfg_.flush_period_us > 0)) {
    std::fprintf(stderr,
                 "Bcache: entries/block_bytes must be powers of two "
                 "(block_bytes >= 32, a multiple of sector_bytes=%u; "
                 "flush_batch > 0; flush_period_us > 0); "
                 "got entries=%u block_bytes=%u flush_batch=%u "
                 "flush_period_us=%g\n",
                 sector, cfg_.entries, cfg_.block_bytes, cfg_.flush_batch,
                 cfg_.flush_period_us);
    std::abort();
  }
  spb_ = cfg_.block_bytes / sector;
  block_shift_ = Log2(cfg_.block_bytes);
  map_slots_ = 2 * cfg_.entries;  // halves hint-slot collisions
  entries_.resize(cfg_.entries);

  KernelAllocator& alloc = kernel_.allocator();
  desc_ = alloc.Allocate(BcacheLayout::kDescBytes);
  map_base_ = alloc.Allocate(map_slots_ * BcacheLayout::kSlotBytes);
  meta_base_ = alloc.Allocate(cfg_.entries * BcacheLayout::kMetaBytes);
  data_base_ = alloc.Allocate(cfg_.entries * cfg_.block_bytes);
  assert(desc_ != 0 && map_base_ != 0 && meta_base_ != 0 && data_base_ != 0 &&
         "kernel memory exhausted bringing up the buffer cache");

  Memory& mem = kernel_.machine().memory();
  mem.Write32(desc_ + BcacheLayout::kMapBase, map_base_);
  mem.Write32(desc_ + BcacheLayout::kMapMask, map_slots_ - 1);
  mem.Write32(desc_ + BcacheLayout::kDataBase, data_base_);
  mem.Write32(desc_ + BcacheLayout::kMetaBase, meta_base_);
  mem.Write32(desc_ + BcacheLayout::kBlockShift, block_shift_);
  mem.Write32(desc_ + BcacheLayout::kBlockMask, cfg_.block_bytes - 1);
  mem.Write32(desc_ + BcacheLayout::kBlockBytes, cfg_.block_bytes);
  for (uint32_t s = 0; s < map_slots_; s++) {
    mem.Write32(map_base_ + s * BcacheLayout::kSlotBytes + BcacheLayout::kSlotTag,
                BcacheLayout::kNoTag);
    mem.Write32(map_base_ + s * BcacheLayout::kSlotBytes + BcacheLayout::kSlotEntry, 0);
  }
  for (uint32_t i = 0; i < cfg_.entries; i++) {
    mem.Write32(MetaOf(i) + BcacheLayout::kMetaRef, 0);
    mem.Write32(MetaOf(i) + BcacheLayout::kMetaDirty, 0);
  }

  // The flusher: an alarm-driven stub that traps to FlushTick. It is armed
  // lazily on first cache activity and goes dormant when everything is clean,
  // so a quiescent kernel still runs out of pending interrupts and idles.
  int vec = kernel_.RegisterHostTrap([this](Machine&) {
    FlushTick();
    return TrapAction::kContinue;
  });
  Asm stub("bcache_flush");
  stub.Charge(12);  // alarm bookkeeping before the manager takes over
  stub.Trap(vec);
  stub.Rts();
  flush_stub_ = kernel_.code().Install(stub.BuildBlock());
}

bool Bcache::RefBit(uint32_t idx) const {
  return kernel_.machine().memory().Read32(MetaOf(idx) + BcacheLayout::kMetaRef) != 0;
}

bool Bcache::DirtyBit(uint32_t idx) const {
  return kernel_.machine().memory().Read32(MetaOf(idx) + BcacheLayout::kMetaDirty) != 0;
}

void Bcache::ClearRef(uint32_t idx) {
  kernel_.machine().memory().Write32(MetaOf(idx) + BcacheLayout::kMetaRef, 0);
}

void Bcache::ClearDirty(uint32_t idx) {
  kernel_.machine().memory().Write32(MetaOf(idx) + BcacheLayout::kMetaDirty, 0);
}

int Bcache::FindEntry(uint32_t block) const {
  for (uint32_t i = 0; i < cfg_.entries; i++) {
    if (entries_[i].tag == block) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void Bcache::MapBlock(uint32_t block, uint32_t idx) {
  Memory& mem = kernel_.machine().memory();
  Addr slot = SlotOf(block);
  mem.Write32(slot + BcacheLayout::kSlotTag, block);
  mem.Write32(slot + BcacheLayout::kSlotEntry, idx);
  kernel_.machine().Charge(8, 2, 2);
}

void Bcache::UnmapEntry(uint32_t idx) {
  uint32_t block = entries_[idx].tag;
  if (block == BcacheLayout::kNoTag) {
    return;
  }
  Memory& mem = kernel_.machine().memory();
  Addr slot = SlotOf(block);
  if (mem.Read32(slot + BcacheLayout::kSlotTag) == block) {
    mem.Write32(slot + BcacheLayout::kSlotTag, BcacheLayout::kNoTag);
  }
}

void Bcache::ArmFlusher() {
  if (flusher_armed_) {
    return;
  }
  // SetAlarm can fail under kAlarmDrop; the flusher stays dormant until the
  // next cache activity retries, and FlushAll/fsync always work regardless.
  flusher_armed_ = kernel_.SetAlarm(cfg_.flush_period_us, flush_stub_);
}

void Bcache::WriteBack(uint32_t idx) {
  if (journal_ != nullptr) {
    JournalAndWriteBack({idx});
    return;
  }
  entries_[idx].busy = true;
  DiskRequest r;
  r.sector = entries_[idx].tag * spb_;
  r.count = spb_;
  r.is_write = true;
  r.mem = DataOf(idx);
  r.done = [this, idx] {
    ClearDirty(idx);
    entries_[idx].busy = false;
    flushes_++;
  };
  kernel_.machine().Charge(30, 6, 4);
  sched_.SubmitAndWait(kernel_, std::move(r));
}

void Bcache::WriteBehind(uint32_t idx) {
  entries_[idx].busy = true;
  DiskRequest r;
  r.sector = entries_[idx].tag * spb_;
  r.count = spb_;
  r.is_write = true;
  r.mem = DataOf(idx);
  // The DMA snapshots memory at completion time, so the dirty bit is cleared
  // there too: a write landing before the platter transfer is covered by this
  // flush, one landing after re-dirties the entry for the next tick.
  r.done = [this, idx] {
    ClearDirty(idx);
    entries_[idx].busy = false;
    flushes_++;
  };
  kernel_.machine().Charge(30, 6, 4);
  sched_.Submit(std::move(r));
}

void Bcache::SnapshotEntry(uint32_t idx, std::vector<uint8_t>& out) {
  out.resize(cfg_.block_bytes);
  kernel_.machine().memory().ReadBytes(DataOf(idx), out.data(), out.size());
  kernel_.machine().Charge(cfg_.block_bytes / 4, 0, cfg_.block_bytes / 4);
}

uint32_t Bcache::JournalChunk() const {
  // A batch must always be able to wait its turn: cap it to a quarter of the
  // journal region so WaitForSpace can make progress with earlier batches
  // still in flight (the journal validates this floor at construction).
  uint32_t quarter = (journal_->sectors() - 1) / 4;
  uint32_t by_space = quarter > 2 ? (quarter - 2) / spb_ : 1;
  uint32_t chunk = std::min(journal_->max_entries(), by_space);
  return chunk == 0 ? 1 : chunk;
}

void Bcache::WriteBehindHome(uint32_t idx, std::shared_ptr<uint32_t> remaining,
                             uint64_t seq) {
  entries_[idx].busy = true;
  DiskRequest r;
  r.sector = entries_[idx].tag * spb_;
  r.count = spb_;
  r.is_write = true;
  r.mem = DataOf(idx);
  // The dirty bit was already cleared when the batch snapshotted this entry,
  // NOT here: the DMA reads simulated memory at completion time, so a write
  // racing this flight lands on the platter early but stays dirty and gets
  // journaled by the next batch. Clearing here instead would swallow that
  // write's journal record, and crash replay of this batch's older content
  // would then regress the platter below fsynced bytes.
  r.done = [this, idx, remaining, seq] {
    entries_[idx].busy = false;
    flushes_++;
    if (--(*remaining) == 0) {
      journal_->NoteApplied(seq);  // batch applied: log sectors reclaimable
    }
  };
  kernel_.machine().Charge(30, 6, 4);
  sched_.Submit(std::move(r));
}

void Bcache::JournalAndWriteBack(const std::vector<uint32_t>& idxs) {
  uint32_t chunk_max = JournalChunk();
  size_t at = 0;
  // Chunks pipeline: write-ahead order binds a batch's home writes to ITS
  // commit record only, so chunk k+1's journal write rides the queue behind
  // chunk k's home writes instead of waiting for them. The barrier at the
  // end is what fsync promises — every home completion has landed.
  std::vector<std::shared_ptr<uint32_t>> in_flight;
  sync_flush_active_ = true;
  while (at < idxs.size()) {
    // Re-validate just in time: a FlushTick firing while we drove the clock
    // for an earlier chunk may have taken (or be flushing) later entries.
    std::vector<uint32_t> chunk;
    while (at < idxs.size() && chunk.size() < chunk_max) {
      uint32_t idx = idxs[at++];
      if (entries_[idx].busy) {
        DiskScheduler::DriveUntil(kernel_,
                                  [this, idx] { return !entries_[idx].busy; });
      }
      if (entries_[idx].tag != BcacheLayout::kNoTag && DirtyBit(idx)) {
        chunk.push_back(idx);
      }
    }
    if (chunk.empty()) {
      continue;
    }
    // Claim before waiting for journal space, or a FlushTick firing inside
    // the wait would journal the same entries a second time.
    for (uint32_t idx : chunk) {
      entries_[idx].busy = true;
    }
    if (!journal_->WaitForSpace(static_cast<uint32_t>(chunk.size()), 0) ||
        !journal_->BeginBatch(static_cast<uint32_t>(chunk.size()), 0)) {
      std::fprintf(stderr,
                   "Bcache: journal space cannot free for a %zu-block batch — "
                   "a NoteApplied was lost upstream\n",
                   chunk.size());
      std::abort();
    }
    std::vector<uint8_t> snap;
    for (uint32_t idx : chunk) {
      SnapshotEntry(idx, snap);
      journal_->AddBlock(entries_[idx].tag, snap.data());
      // Dirty clears at snapshot time: a write racing the home flight
      // re-dirties the entry, so its bytes get their own journal record.
      ClearDirty(idx);
    }
    auto remaining = std::make_shared<uint32_t>(static_cast<uint32_t>(chunk.size()));
    // The commit callback needs the batch's seq, which Commit only returns:
    // the shared cell is filled before any completion interrupt can fire
    // (nothing drives the clock in between).
    auto seqp = std::make_shared<uint64_t>(0);
    *seqp = journal_->Commit([this, chunk, remaining, seqp] {
      for (uint32_t idx : chunk) {
        WriteBehindHome(idx, remaining, *seqp);
      }
    });
    in_flight.push_back(remaining);
  }
  DiskScheduler::DriveUntil(kernel_, [&in_flight] {
    for (const auto& remaining : in_flight) {
      if (*remaining != 0) {
        return false;
      }
    }
    return true;
  });
  sync_flush_active_ = false;
}

void Bcache::FlushTick() {
  kernel_.machine().Charge(20 + cfg_.entries / 4, 6, 4);  // dirty scan
  uint32_t budget = cfg_.flush_batch;
  if (journal_ != nullptr) {
    // Journaled write-behind: one batch per tick — journal write first, home
    // writes chained off the commit interrupt. Never waits (interrupt level):
    // when the log is full the tick is skipped and the alarm retries. It
    // also stands down while a synchronous flush is draining the cache —
    // stealing entries mid-fsync only splits its batches into extra journal
    // commits, each paying a rotation the fsync would have amortized.
    if (sync_flush_active_) {
      flusher_armed_ = false;
      if (dirty_blocks() > 0) {
        ArmFlusher();
      }
      return;
    }
    budget = std::min(budget, JournalChunk());
    std::vector<uint32_t> batch;
    for (uint32_t i = 0; i < cfg_.entries && batch.size() < budget; i++) {
      if (entries_[i].tag != BcacheLayout::kNoTag && !entries_[i].busy &&
          DirtyBit(i)) {
        batch.push_back(i);
      }
    }
    if (!batch.empty()) {
      if (journal_->BeginBatch(static_cast<uint32_t>(batch.size()), 0)) {
        std::vector<uint8_t> snap;
        for (uint32_t idx : batch) {
          entries_[idx].busy = true;
          SnapshotEntry(idx, snap);
          journal_->AddBlock(entries_[idx].tag, snap.data());
          ClearDirty(idx);  // racing writes re-dirty and re-journal
        }
        auto remaining = std::make_shared<uint32_t>(static_cast<uint32_t>(batch.size()));
        auto seqp = std::make_shared<uint64_t>(0);
        *seqp = journal_->Commit([this, batch, remaining, seqp] {
          for (uint32_t idx : batch) {
            WriteBehindHome(idx, remaining, *seqp);
          }
        });
      } else {
        journal_->MaybeCheckpoint();  // free log space for the next tick
      }
    }
    flusher_armed_ = false;
    if (dirty_blocks() > 0) {
      ArmFlusher();
    }
    return;
  }
  for (uint32_t i = 0; i < cfg_.entries && budget > 0; i++) {
    if (entries_[i].tag != BcacheLayout::kNoTag && !entries_[i].busy &&
        DirtyBit(i)) {
      WriteBehind(i);
      budget--;
    }
  }
  flusher_armed_ = false;
  if (dirty_blocks() > 0) {
    ArmFlusher();  // work remains (or is in flight): keep ticking
  }
}

int Bcache::AllocateEntry(bool may_wait) {
  if (kernel_.faults().ShouldFire(FaultSite::kBcacheAlloc)) {
    return -1;  // injected allocation failure: caller rolls back cleanly
  }
  kernel_.machine().Charge(16, 4, 2);
  for (;;) {
    for (uint32_t step = 0; step < 3 * cfg_.entries; step++) {
      uint32_t idx = clock_hand_;
      clock_hand_ = (clock_hand_ + 1) % cfg_.entries;
      Entry& e = entries_[idx];
      if (e.busy) {
        continue;  // in-flight fill or write-back: pinned
      }
      if (e.tag != BcacheLayout::kNoTag && RefBit(idx)) {
        SettlePrefetch(idx);  // a reader used it
        ClearRef(idx);        // second chance
        continue;
      }
      if (e.tag != BcacheLayout::kNoTag && DirtyBit(idx)) {
        if (!may_wait) {
          continue;  // a run's extra claims never block on a write-back
        }
        WriteBack(idx);
      }
      if (e.tag != BcacheLayout::kNoTag) {
        SettlePrefetch(idx);  // evicted unreferenced: wasted
        evictions_++;
        UnmapEntry(idx);
      }
      e.tag = BcacheLayout::kNoTag;
      return static_cast<int>(idx);
    }
    if (!may_wait) {
      return -1;  // everything pinned
    }
    // Every entry is pinned by in-flight read-ahead or write-behind. Each of
    // those requests completes and unpins its entry, so a caller allowed to
    // wait rides one out and resweeps instead of failing a valid miss.
    int pinned = -1;
    for (uint32_t i = 0; i < cfg_.entries; i++) {
      if (entries_[i].busy) {
        pinned = static_cast<int>(i);
        break;
      }
    }
    if (pinned < 0) {
      return -1;  // nothing busy and nothing evictable: truly exhausted
    }
    DiskScheduler::DriveUntil(
        kernel_, [this, pinned] { return !entries_[pinned].busy; });
  }
}

bool Bcache::EnsureBlock(uint32_t file_key, uint32_t block, uint32_t last_block,
                         uint32_t extent_first, uint32_t extent_blocks,
                         BcacheFill fill) {
  ArmFlusher();
  kernel_.machine().Charge(40, 8, 6);  // cache-manager miss bookkeeping

  // Sequential-access detector: this runs on the miss path only (hits stay
  // inside the synthesized fd code), so a miss just past the last filled
  // block is the signal. It adds the read-ahead window past the span.
  auto lb = last_block_.find(file_key);
  const bool sequential = lb != last_block_.end() && lb->second + 1 == block;
  const uint32_t span_last =
      fill == BcacheFill::kRead ? std::max(last_block, block) : block;
  const uint32_t ahead = sequential ? cfg_.read_ahead : 0;
  const uint32_t window_end = static_cast<uint32_t>(std::min<uint64_t>(
      uint64_t{span_last} + 1 + ahead, uint64_t{extent_first} + extent_blocks));

  Memory& mem = kernel_.machine().memory();
  int found = FindEntry(block);
  if (found >= 0) {
    uint32_t idx = static_cast<uint32_t>(found);
    if (entries_[idx].busy) {
      // A fill already has this block on the wire: wait for that completion
      // instead of issuing a duplicate read.
      DiskScheduler::DriveUntil(kernel_,
                                [this, idx] { return !entries_[idx].busy; });
    }
    // Resident but missed: a map-slot collision left it unmapped. Republish.
    MapBlock(block, idx);
    mem.Write32(MetaOf(idx) + BcacheLayout::kMetaRef, 1);
  } else {
    misses_++;
    // Only the missed block's own claim may wait or write back a victim.
    int slot = AllocateEntry(/*may_wait=*/true);
    if (slot < 0) {
      alloc_failures_++;
      last_block_[file_key] = block;
      return false;
    }
    uint32_t idx = static_cast<uint32_t>(slot);
    entries_[idx].tag = block;
    mem.Write32(MetaOf(idx) + BcacheLayout::kMetaRef, 1);
    mem.Write32(MetaOf(idx) + BcacheLayout::kMetaDirty, 0);
    if (fill == BcacheFill::kRead) {
      // A read's missing span and its read-ahead window: one request.
      last_block_[file_key] =
          FillRun(block, window_end, slot, span_last, /*wait=*/true) - 1;
      return true;
    }
    if (fill == BcacheFill::kOverwrite) {
      // Full-block overwrite: no platter read. Zero the entry so untouched
      // bytes are deterministic until the write lands.
      std::vector<uint8_t> zeros(cfg_.block_bytes, 0);
      mem.WriteBytes(DataOf(idx), zeros.data(), zeros.size());
      kernel_.machine().Charge(cfg_.block_bytes / 4, 0, cfg_.block_bytes / 4);
      MapBlock(block, idx);
    } else {
      FillRun(block, block + 1, slot, block, /*wait=*/true);
    }
  }

  // A write fills only its own block and a resident block needed no fill:
  // the window behind it is prefetched without waiting.
  const uint32_t run_end =
      ahead > 0 ? FillRun(block + 1, window_end, -1, span_last, /*wait=*/false)
                : block + 1;
  last_block_[file_key] = run_end - 1;
  return true;
}

uint32_t Bcache::FillRun(uint32_t first, uint32_t end, int own,
                         uint32_t span_last, bool wait) {
  // Claim the run. It stops at the first resident block (busy, dirty or
  // clean — a platter read must never overwrite a dirty entry), at the first
  // refused claim and at `end`. Claims past `own` never wait or evict dirty,
  // and each claimed entry is pinned at once so later claims cannot take it.
  std::vector<uint32_t> idxs;  // idxs[i] holds block first + i
  if (own >= 0) {
    idxs.push_back(static_cast<uint32_t>(own));
    entries_[idxs.front()].busy = true;
  }
  Memory& mem = kernel_.machine().memory();
  for (uint32_t b = first + static_cast<uint32_t>(idxs.size()); b < end; b++) {
    if (FindEntry(b) >= 0) {
      break;
    }
    int idx = AllocateEntry(/*may_wait=*/false);
    if (idx < 0) {
      break;
    }
    uint32_t i = static_cast<uint32_t>(idx);
    entries_[i].tag = b;
    entries_[i].busy = true;
    const bool prefetch = b > span_last;
    entries_[i].prefetched = prefetch;  // enters the clock unreferenced
    read_ahead_issued_ += prefetch ? 1 : 0;
    mem.Write32(MetaOf(i) + BcacheLayout::kMetaRef, prefetch ? 0 : 1);
    mem.Write32(MetaOf(i) + BcacheLayout::kMetaDirty, 0);
    idxs.push_back(i);
  }
  if (idxs.empty()) {
    return first;
  }
  // ONE request for the whole run: the per-request half-rotation is paid
  // once instead of once per block. The transfer lands in the controller
  // buffer (the claimed entries are scattered); completion copies each block
  // out at the DMA path's 1 cycle per word and publishes it.
  DiskRequest r;
  r.sector = first * spb_;
  r.count = static_cast<uint32_t>(idxs.size()) * spb_;
  r.is_write = false;
  r.mem = 0;
  r.done = [this, first, idxs] {
    Memory& m = kernel_.machine().memory();
    for (uint32_t i = 0; i < idxs.size(); i++) {
      const uint32_t b = first + i;
      const uint32_t idx = idxs[i];
      size_t off = static_cast<size_t>(b) * cfg_.block_bytes;
      m.WriteBytes(DataOf(idx), disk_.backing().data() + off, cfg_.block_bytes);
      kernel_.machine().Charge(cfg_.block_bytes / 4, 0, cfg_.block_bytes / 4);
      entries_[idx].busy = false;
      MapBlock(b, idx);
    }
  };
  sched_.Submit(std::move(r));
  if (wait) {
    const uint32_t idx = idxs.front();
    DiskScheduler::DriveUntil(kernel_,
                              [this, idx] { return !entries_[idx].busy; });
  }
  return first + static_cast<uint32_t>(idxs.size());
}

void Bcache::SettlePrefetch(uint32_t idx) {
  Entry& e = entries_[idx];
  if (e.prefetched) {
    e.prefetched = false;
    (RefBit(idx) ? read_ahead_hits_ : read_ahead_wasted_)++;
  }
}

void Bcache::FlushAll() {
  if (journal_ != nullptr) {
    std::vector<uint32_t> all;
    for (uint32_t i = 0; i < cfg_.entries; i++) {
      if (entries_[i].tag != BcacheLayout::kNoTag) {
        all.push_back(i);
      }
    }
    JournalAndWriteBack(all);  // waits busy + re-checks dirty per entry
    return;
  }
  for (uint32_t i = 0; i < cfg_.entries; i++) {
    if (entries_[i].tag == BcacheLayout::kNoTag) {
      continue;
    }
    if (entries_[i].busy) {
      DiskScheduler::DriveUntil(kernel_, [this, i] { return !entries_[i].busy; });
    }
    if (DirtyBit(i)) {
      WriteBack(i);
    }
  }
}

void Bcache::FlushBlockRange(uint32_t first, uint32_t count) {
  if (journal_ != nullptr) {
    std::vector<uint32_t> in_range;
    for (uint32_t i = 0; i < cfg_.entries; i++) {
      uint32_t tag = entries_[i].tag;
      if (tag != BcacheLayout::kNoTag && tag >= first && tag < first + count) {
        in_range.push_back(i);
      }
    }
    JournalAndWriteBack(in_range);
    return;
  }
  for (uint32_t i = 0; i < cfg_.entries; i++) {
    uint32_t tag = entries_[i].tag;
    if (tag == BcacheLayout::kNoTag || tag < first || tag >= first + count) {
      continue;
    }
    if (entries_[i].busy) {
      DiskScheduler::DriveUntil(kernel_, [this, i] { return !entries_[i].busy; });
    }
    if (DirtyBit(i)) {
      WriteBack(i);
    }
  }
}

void Bcache::InvalidateRange(uint32_t first, uint32_t count) {
  FlushBlockRange(first, count);
  Memory& mem = kernel_.machine().memory();
  for (uint32_t i = 0; i < cfg_.entries; i++) {
    uint32_t tag = entries_[i].tag;
    if (tag == BcacheLayout::kNoTag || tag < first || tag >= first + count) {
      continue;
    }
    SettlePrefetch(i);
    UnmapEntry(i);
    entries_[i].tag = BcacheLayout::kNoTag;
    mem.Write32(MetaOf(i) + BcacheLayout::kMetaRef, 0);
    mem.Write32(MetaOf(i) + BcacheLayout::kMetaDirty, 0);
  }
}

bool Bcache::Resident(uint32_t block) const { return FindEntry(block) >= 0; }

bool Bcache::DirtyBlock(uint32_t block) const {
  int idx = FindEntry(block);
  return idx >= 0 && DirtyBit(static_cast<uint32_t>(idx));
}

uint32_t Bcache::resident_blocks() const {
  uint32_t n = 0;
  for (const Entry& e : entries_) {
    n += e.tag != BcacheLayout::kNoTag;
  }
  return n;
}

uint32_t Bcache::dirty_blocks() const {
  uint32_t n = 0;
  for (uint32_t i = 0; i < cfg_.entries; i++) {
    n += entries_[i].tag != BcacheLayout::kNoTag && DirtyBit(i);
  }
  return n;
}

}  // namespace synthesis
