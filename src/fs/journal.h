// The ordered intent journal: write-ahead logging for the write-behind cache.
//
// PR 6's buffer cache acknowledges writes ~80x ahead of the platter; the
// journal bounds what a power failure can take. Every flush batch (periodic
// FlushTick, synchronous WriteBack, fsync) first writes its blocks' bytes
// into a fixed on-disk journal region as ONE coalesced request — descriptor
// sector, payload sectors, commit sector last — and only submits the home-
// location writes from the commit's completion interrupt. Power can now fail
// at any sector boundary:
//   * before the commit sector lands: the batch is a torn tail, detected by
//     checksums at mount and discarded — home locations were never touched;
//   * after: the commit is on the platter, and mount-time recovery replays
//     the batch's payloads to their home locations.
// Fsync drives the virtual clock until both the commit AND the home-location
// completion interrupts have landed, so fsynced bytes survive any crash.
// Un-fsynced data is bounded to the open flush window (bounded loss).
//
// On-disk layout (region of `sectors` sectors at `start_sector`):
//   sector 0          checkpoint header: all batches with seq <= checkpoint
//                     are fully applied at their home locations; the live log
//                     begins at checkpoint_pos (region-relative).
//   sectors 1..N-1    circular batch log. A batch is contiguous:
//                     [descriptor][payload...payload][commit]. When the tail
//                     of the region cannot hold a whole batch, the writer
//                     skips it and wraps to sector 1; recovery probes both.
//
// The checkpoint is the WAL recycling rule: a batch's log sectors may be
// reused only after a checkpoint covering its seq has LANDED on the platter.
// Otherwise a stale committed batch could survive in the log while the newer
// batch that superseded it was overwritten, and replay would regress blocks
// below their fsynced content. Replaying applied-but-uncheckpointed batches
// is safe: replay runs in ascending seq order, so the newest committed
// payload for every block wins.
#ifndef SRC_FS_JOURNAL_H_
#define SRC_FS_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/fs/disk.h"
#include "src/kernel/kernel.h"

namespace synthesis {

// CRC-32 (reflected 0xEDB88320), used for every journal sector checksum and
// the file system's superblock/inode records.
uint32_t Crc32(const uint8_t* data, size_t len);

struct JournalConfig {
  uint32_t sectors = 256;  // region size, power of two (>= 32)
};

class Journal {
 public:
  // Aborts (fprintf + abort) on invalid geometry: the region must be a
  // power-of-two sector count with room for several maximal batches, and the
  // payload a power-of-two multiple of the sector size — recovery arithmetic
  // masks and divides by all three. `payload_bytes` is the journaled cache's
  // block size: each data entry carries one whole block and replays it to
  // the block's home sectors.
  Journal(Kernel& kernel, DiskDevice& disk, DiskScheduler& sched,
          uint32_t start_sector, uint32_t payload_bytes,
          JournalConfig config = {});

  uint32_t start_sector() const { return start_; }
  uint32_t sectors() const { return cfg_.sectors; }
  uint32_t payload_bytes() const { return payload_bytes_; }
  // Data entries a single batch can carry (descriptor-sector capacity).
  uint32_t max_entries() const { return max_entries_; }

  // mkfs: writes a fresh checkpoint header directly into the backing store
  // (no virtual time, like FileSystem::CreateFile's initial contents).
  void Format();

  // --- Batch assembly (interrupt-safe: never waits) -------------------------
  // Begin/Add*/Commit compose one batch. Assembly is pure host work, so it is
  // safe at interrupt level (FlushTick) and cannot interleave with another
  // batch. BeginBatch returns false when the live log lacks space — the
  // caller skips this tick (async) or calls WaitForSpace (sync).
  bool BeginBatch(uint32_t data_entries, uint32_t meta_entries);
  // Journals `payload_bytes` of block content for absolute cache block
  // `block` (home sector = block * payload_bytes / sector_bytes).
  void AddBlock(uint32_t block, const uint8_t* data);
  // Journals a file-size update (applied by FileSystem at recovery).
  void AddSize(uint32_t file_id, uint32_t size);
  // Seals the batch with its commit sector and submits the whole thing as
  // one write. `on_commit` runs at the commit's completion interrupt — the
  // WAL ordering point where home-location writes become legal. Returns the
  // batch's seq.
  uint64_t Commit(std::function<void()> on_commit);
  // The caller reports that every home-location write of batch `seq` has
  // completed; its log sectors become reclaimable at the next checkpoint.
  void NoteApplied(uint64_t seq);
  bool Committed(uint64_t seq) const;

  // Starts an asynchronous checkpoint write when one would free log space
  // (applied frontier ahead of the on-platter checkpoint). Idempotent while
  // one is in flight.
  void MaybeCheckpoint();
  // Drives the virtual clock until a batch of this shape fits (sync callers:
  // fsync, eviction write-back). False only if space can never free — no
  // in-flight work and nothing to checkpoint — which recovery treats as a
  // hard bug upstream (the region is validated to hold several batches).
  bool WaitForSpace(uint32_t data_entries, uint32_t meta_entries);

  // --- Mount-time recovery --------------------------------------------------
  struct RecoverReport {
    uint32_t replayed_batches = 0;
    uint32_t replayed_records = 0;  // data payloads written home + sizes applied
    uint32_t torn_tails = 0;        // uncommitted/torn batches discarded
    double replay_us = 0;           // virtual time: region scan + home writes
  };
  // Scans the log from the on-platter checkpoint, replays every committed
  // batch in seq order (data payloads to home sectors, size records via
  // `apply_size`), discards the torn tail, and writes a fresh checkpoint.
  // Drives the virtual clock for the scan read and the replay writes.
  RecoverReport Recover(
      const std::function<void(uint32_t file_id, uint32_t size)>& apply_size);

  // --- Observability --------------------------------------------------------
  // Counter words in simulated memory, bumped at a charged cost and read in
  // place: batches committed, records replayed and torn tails discarded.
  uint64_t committed_batches() const;
  uint64_t replayed_records() const;
  uint64_t torn_tails() const;
  uint32_t live_sectors() const;
  uint64_t checkpoint_seq() const { return ckpt_seq_; }

 private:
  struct LiveBatch {
    uint64_t seq = 0;
    uint32_t pos = 0;    // region-relative first sector
    uint32_t span = 0;   // sectors consumed, including any skipped tail
    bool committed = false;
    bool applied = false;
  };

  uint32_t capacity() const { return cfg_.sectors - 1; }
  void ComposeCheckpoint(std::vector<uint8_t>& sec, uint64_t seq, uint32_t pos);
  void Bump(Addr word);  // increment a sim-memory counter word (+ charge)

  Kernel& kernel_;
  DiskDevice& disk_;
  DiskScheduler& sched_;
  JournalConfig cfg_;
  uint32_t start_ = 0;
  uint32_t payload_bytes_ = 0;  // bytes per data entry: one cache block
  uint32_t sector_bytes_ = 0;
  uint32_t payload_sectors_ = 0;  // per data entry
  uint32_t max_entries_ = 0;

  // Assembly state (one batch at a time; Begin..Commit never waits).
  bool building_ = false;
  uint32_t build_data_ = 0;
  uint32_t build_meta_ = 0;
  std::vector<uint8_t> build_desc_;
  std::vector<uint8_t> build_payload_;
  uint32_t build_entries_ = 0;
  std::vector<uint32_t> build_payload_crcs_;
  uint32_t build_need_ = 0;  // sectors incl. descriptor + commit

  uint64_t next_seq_ = 1;
  uint32_t head_pos_ = 1;            // next write position (region-relative)
  std::deque<LiveBatch> live_;
  uint64_t applied_seq_ = 0;         // all batches <= this are applied
  uint64_t ckpt_seq_ = 0;            // on-platter checkpoint
  uint32_t ckpt_pos_ = 1;
  bool ckpt_inflight_ = false;

  // Counter words (simulated memory).
  Addr commits_word_ = 0;
  Addr replays_word_ = 0;
  Addr torn_word_ = 0;
};

}  // namespace synthesis

#endif  // SRC_FS_JOURNAL_H_
