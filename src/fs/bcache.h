// The write-behind buffer cache (§5.1): the "buffer cache manager" stage of
// the file-system pipeline, grown from whole-file residency to a fixed pool
// of cache blocks in front of the raw disk server.
//
// Shape (fixed entries, periodic flush, one request per miss):
//  * A fixed, power-of-two number of block-sized entries in simulated memory.
//    A direct-mapped lookup map (tag, entry) is probed by the per-fd read and
//    write code — synthesized with the map base, entry mask, and the file's
//    extent start folded to immediates, so a cache hit is a handful of
//    compares and a copy inside the fd's own code. The interpreted layered
//    path probes the same map through the descriptor, load by load.
//  * Writes land in the cache and are marked dirty; a periodic flusher driven
//    by kernel alarms writes dirty entries back asynchronously (write-behind).
//    Eviction of a dirty victim write-backs synchronously first, so no
//    acknowledged write is ever dropped on the floor.
//  * A miss is one disk request. A read miss claims the contiguous run of
//    missing blocks from the missed block through the call's last block and,
//    when the per-file sequential detector fires, the read-ahead window past
//    it; ONE multi-sector request reads the run and its completion scatters
//    the blocks into their entries, so the per-request half-rotation that
//    dominates single-block reads is paid once. Writes fill their own block
//    alone and prefetch the window behind it without waiting. A reader that
//    arrives while its block is still in flight waits on that request
//    instead of issuing its own.
//
// Entry metadata is split by writer: tags and busy (in-flight) state are
// host-side (only the cache manager changes them); the per-entry ref and
// dirty words live in simulated memory because the synthesized hit paths set
// them without trapping.
#ifndef SRC_FS_BCACHE_H_
#define SRC_FS_BCACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/fs/disk.h"
#include "src/fs/journal.h"
#include "src/kernel/kernel.h"
#include "src/machine/memory.h"

namespace synthesis {

struct BcacheConfig {
  uint32_t entries = 64;         // power of two
  uint32_t block_bytes = 512;    // power of two, >= 32, multiple of sector_bytes
  double flush_period_us = 50'000;  // flusher alarm period
  uint32_t flush_batch = 8;      // max dirty entries written back per tick
  uint32_t read_ahead = 8;       // blocks prefetched after a sequential miss; 0 = off
};

// Simulated-memory layout of the cache descriptor the interpreted (layered)
// read path walks; the synthesized path folds all of it to immediates.
struct BcacheLayout {
  static constexpr uint32_t kMapBase = 0;     // lookup map array       [invariant]
  static constexpr uint32_t kMapMask = 4;     // map slots - 1          [invariant]
  static constexpr uint32_t kDataBase = 8;    // entry data area        [invariant]
  static constexpr uint32_t kMetaBase = 12;   // per-entry {ref,dirty}  [invariant]
  static constexpr uint32_t kBlockShift = 16; // log2(block_bytes)      [invariant]
  static constexpr uint32_t kBlockMask = 20;  // block_bytes - 1        [invariant]
  static constexpr uint32_t kBlockBytes = 24; //                        [invariant]
  static constexpr uint32_t kDescBytes = 32;

  // An 8-byte map slot: the absolute disk block it names and the entry
  // holding it. kNoTag never equals a real block number.
  static constexpr uint32_t kSlotTag = 0;
  static constexpr uint32_t kSlotEntry = 4;
  static constexpr uint32_t kSlotBytes = 8;
  static constexpr uint32_t kNoTag = 0xFFFFFFFFu;

  // An 8-byte per-entry meta record, written by the VM hit paths.
  static constexpr uint32_t kMetaRef = 0;    // clock reference bit
  static constexpr uint32_t kMetaDirty = 4;  // write-behind dirty bit
  static constexpr uint32_t kMetaBytes = 8;

  static AddrRange InvariantRange(Addr desc) {
    return AddrRange{desc, desc + kDescBytes};
  }
};

// What the caller that missed is about to do with the block.
enum class BcacheFill : uint8_t {
  kRead,       // one request through the call's last block and the window
  kWrite,      // partial overwrite: read this block alone, prefetch async
  kOverwrite,  // whole-block overwrite: no platter read, prefetch async
};

class Bcache {
 public:
  // Aborts (fprintf + abort) on invalid construction parameters, the same
  // hard-error convention as NicDevice slot counts: the synthesized masks
  // silently alias blocks under any non-power-of-two geometry.
  Bcache(Kernel& kernel, DiskDevice& disk, DiskScheduler& sched,
         BcacheConfig config = {});

  // --- Geometry (folded into synthesized per-fd code) -----------------------
  Addr descriptor() const { return desc_; }
  Addr map_base() const { return map_base_; }
  Addr data_base() const { return data_base_; }
  Addr meta_base() const { return meta_base_; }
  uint32_t entries() const { return cfg_.entries; }
  uint32_t block_bytes() const { return cfg_.block_bytes; }
  uint32_t block_shift() const { return block_shift_; }
  uint32_t map_mask() const { return map_slots_ - 1; }
  uint32_t sectors_per_block() const { return spb_; }

  // Ensures the absolute disk block `block` is resident and mapped, reading
  // through the disk scheduler on a miss (virtual time advances). `file_key`
  // feeds the per-file sequential detector; `extent_first`/`extent_blocks`
  // clamp every fill to the file's extent. A kRead miss also fills the
  // missing blocks up to `last_block` (the call's last block) in the same
  // request; the other kinds ignore it. Returns false when the missed
  // block's own entry cannot be allocated (kBcacheAlloc, or every entry
  // pinned in flight) — the caller surfaces a clean partial/error result.
  bool EnsureBlock(uint32_t file_key, uint32_t block, uint32_t last_block,
                   uint32_t extent_first, uint32_t extent_blocks,
                   BcacheFill fill);

  // One flusher period's work: write back up to flush_batch dirty entries
  // asynchronously and re-arm the alarm. Runs at interrupt level (the alarm
  // handler traps here), so it never waits.
  void FlushTick();

  // The synthesized hit paths set dirty bits without trapping into the
  // kernel; the write syscall epilogue calls this so write-behind wakes up
  // again after pure-hit writes. Idempotent while the flusher is armed.
  void NoteDirty() { ArmFlusher(); }

  // Attaches the intent journal: from here on every flush path (FlushTick,
  // WriteBack, FlushAll/FlushBlockRange) writes its batch's bytes into the
  // journal first and submits the home-location writes only from the commit's
  // completion interrupt — the WAL ordering that makes crashes recoverable.
  void AttachJournal(Journal* journal) { journal_ = journal; }
  Journal* journal() { return journal_; }

  // Synchronous write-back of every dirty entry (fsync of the world).
  void FlushAll();
  // Synchronous write-back of dirty entries within [first, first+count).
  void FlushBlockRange(uint32_t first, uint32_t count);
  // Flushes then drops [first, first+count) from the cache (file eviction).
  void InvalidateRange(uint32_t first, uint32_t count);

  // --- Introspection / gauges ----------------------------------------------
  bool Resident(uint32_t block) const;
  bool DirtyBlock(uint32_t block) const;
  uint32_t resident_blocks() const;
  uint32_t dirty_blocks() const;
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t flushes() const { return flushes_; }
  uint64_t alloc_failures() const { return alloc_failures_; }
  // Read-ahead blocks: fetched past the span of the call that missed. Each
  // enters the clock unreferenced; it counts as a hit the first time the
  // cache manager (clock sweep or eviction) finds its ref bit set, and as
  // wasted when it leaves the cache unreferenced.
  uint64_t read_ahead_issued() const { return read_ahead_issued_; }
  uint64_t read_ahead_hits() const { return read_ahead_hits_; }
  uint64_t read_ahead_wasted() const { return read_ahead_wasted_; }
  bool flusher_armed() const { return flusher_armed_; }

 private:
  struct Entry {
    uint32_t tag = BcacheLayout::kNoTag;  // absolute disk block, kNoTag = free
    bool busy = false;                    // fill or write-back in flight
    bool prefetched = false;              // read-ahead not yet settled
  };

  Addr DataOf(uint32_t idx) const { return data_base_ + idx * cfg_.block_bytes; }
  Addr MetaOf(uint32_t idx) const {
    return meta_base_ + idx * BcacheLayout::kMetaBytes;
  }
  Addr SlotOf(uint32_t block) const {
    return map_base_ + (block & map_mask()) * BcacheLayout::kSlotBytes;
  }
  bool RefBit(uint32_t idx) const;
  bool DirtyBit(uint32_t idx) const;
  void ClearRef(uint32_t idx);
  void ClearDirty(uint32_t idx);

  // Host-side tag search (the map is only a hint: slot collisions leave
  // resident blocks unmapped, and this finds them again).
  int FindEntry(uint32_t block) const;
  // Publishes (block -> idx) in the lookup map.
  void MapBlock(uint32_t block, uint32_t idx);
  // Unmaps the slot if it currently names `idx`.
  void UnmapEntry(uint32_t idx);

  // Clock allocation. `may_wait` allows synchronous write-back of a dirty
  // victim; only a missed block's own claim passes true — every other claim
  // of a run gives up instead of waiting.
  // Returns -1 on failure (kBcacheAlloc fired or nothing evictable).
  int AllocateEntry(bool may_wait);
  // Synchronous write-back of one dirty entry (drives the virtual clock).
  // Journaled when a journal is attached.
  void WriteBack(uint32_t idx);
  // Issues the asynchronous write-back of one dirty entry (flusher tick,
  // journal-less stacks only).
  void WriteBehind(uint32_t idx);
  // The home-location half of a journaled flush: submitted from the batch
  // commit's completion interrupt. Decrements *remaining; the last completion
  // reports the batch applied so its journal sectors can recycle.
  void WriteBehindHome(uint32_t idx, std::shared_ptr<uint32_t> remaining,
                       uint64_t seq);
  // Journals `idxs` as one batch, waits for the commit AND every home write
  // (fsync semantics). Entries must be dirty and not busy on entry.
  void JournalAndWriteBack(const std::vector<uint32_t>& idxs);
  // True while JournalAndWriteBack drives the clock: the flusher tick stands
  // down rather than fragment the sync path's batches into extra commits
  // (each journal write pays its own rotation).
  bool sync_flush_active_ = false;
  // Snapshots an entry's bytes out of simulated memory for the journal.
  void SnapshotEntry(uint32_t idx, std::vector<uint8_t>& out);
  // Largest data-entry count a journal batch may carry (descriptor capacity
  // and the quarter-region progress bound).
  uint32_t JournalChunk() const;
  void ArmFlusher();
  // The one fill mechanism. Claims the missing blocks of [first, end) —
  // `own`, when not -1, is the entry already claimed for `first` — stopping
  // at the first resident block or refused claim, and reads them with ONE
  // request whose completion scatters each block into its entry. Blocks past
  // `span_last` are read-ahead. Waits for the completion when `wait`.
  // Returns the end of the claimed run (`first` when nothing was claimed).
  uint32_t FillRun(uint32_t first, uint32_t end, int own, uint32_t span_last,
                   bool wait);
  // Counts a read-ahead entry as hit or wasted by its ref bit, once.
  void SettlePrefetch(uint32_t idx);

  Kernel& kernel_;
  DiskDevice& disk_;
  DiskScheduler& sched_;
  Journal* journal_ = nullptr;
  BcacheConfig cfg_;
  uint32_t block_shift_ = 0;
  uint32_t map_slots_ = 0;
  uint32_t spb_ = 1;  // sectors per cache block

  Addr desc_ = 0;
  Addr map_base_ = 0;
  Addr meta_base_ = 0;
  Addr data_base_ = 0;

  std::vector<Entry> entries_;
  uint32_t clock_hand_ = 0;
  std::unordered_map<uint32_t, uint32_t> last_block_;  // file_key -> last filled block
  BlockId flush_stub_ = kInvalidBlock;
  bool flusher_armed_ = false;

  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t flushes_ = 0;
  uint64_t alloc_failures_ = 0;
  uint64_t read_ahead_issued_ = 0;
  uint64_t read_ahead_hits_ = 0;
  uint64_t read_ahead_wasted_ = 0;
};

}  // namespace synthesis

#endif  // SRC_FS_BCACHE_H_
