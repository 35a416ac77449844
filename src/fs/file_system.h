// The default file system server (§5.1): a pipeline of raw disk server ->
// disk scheduler -> buffer cache manager -> synthesized per-file read code.
//
// Files live on the simulated disk; the cache manager keeps whole-file
// extents resident in simulated memory (the paper's measured file system is
// "entirely memory-resident" once warm, which is what Tables 1-2 exercise).
// A cold open charges the full disk pipeline through the scheduler; a warm
// open only pays name lookup plus code synthesis.
#ifndef SRC_FS_FILE_SYSTEM_H_
#define SRC_FS_FILE_SYSTEM_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>

#include "src/fs/bcache.h"
#include "src/fs/disk.h"
#include "src/fs/journal.h"
#include "src/fs/name_table.h"
#include "src/kernel/kernel.h"

namespace synthesis {

class FileSystem {
 public:
  FileSystem(Kernel& kernel, DiskDevice& disk, DiskScheduler& sched);

  // --- On-disk layout --------------------------------------------------------
  // sector 0: superblock. sectors 1..32: inode table (128-byte records, four
  // per 512-byte sector). Then the journal region when one is attached, then
  // data. Disks whose sectors cannot hold an inode record run metadata-less
  // (legacy behavior: nothing survives a reboot).
  static constexpr uint32_t kSuperSector = 0;
  static constexpr uint32_t kInodeStart = 1;
  static constexpr uint32_t kInodeSectors = 32;
  static constexpr uint32_t kInodeBytes = 128;
  static constexpr uint32_t kMaxNameBytes = 96;
  // Where the journal region goes (and where data starts without one).
  static constexpr uint32_t kJournalStart = kInodeStart + kInodeSectors;

  // A resident file extent. `size_addr` holds the live file size (a word in
  // simulated memory) so synthesized read code can bound-check at run time
  // while folding every other attribute.
  struct Extent {
    Addr base = 0;
    Addr size_addr = 0;
    uint32_t capacity = 0;
  };

  // Creates a file with `contents` and room to grow to `capacity` bytes
  // (rounded up to whole sectors). Returns the file id, or 0 on failure.
  uint32_t CreateFile(const std::string& name, std::span<const uint8_t> contents,
                      uint32_t capacity = 0);

  // Name lookup through the hashed-backwards name table. Returns 0 if absent.
  uint32_t LookupId(const std::string& name);

  // Ensures the file is cached and returns its extent. Cold files are read
  // through the disk scheduler (virtual time advances accordingly).
  Extent Ensure(uint32_t file_id);

  // Writes dirty cached data back through the disk scheduler.
  void Flush(uint32_t file_id);
  // Drops the file from the cache (next Ensure pays the disk again).
  void Evict(uint32_t file_id);

  uint32_t SizeOf(uint32_t file_id);

  // --- Block-cached mode ------------------------------------------------------
  // With a buffer cache attached, opens go through per-block caching instead
  // of whole-file residency: no disk round trip at open, misses fill single
  // blocks, writes are write-behind. Stacks that attach no bcache behave
  // exactly as before.
  void AttachBcache(Bcache* bcache) { bcache_ = bcache; }
  Bcache* bcache() { return bcache_; }

  // --- Journal / crash recovery ----------------------------------------------
  // Attaches the intent journal (its region must sit at kJournalStart) and
  // moves the data area past it. Must happen before any file exists — extents
  // are placed relative to the journal. `format` runs mkfs on the region;
  // pass false when the platter carries a previous life's image (Mount).
  void AttachJournal(Journal* journal, bool format);
  Journal* journal() { return journal_; }

  // Power-on over an existing platter image: reads the superblock and inode
  // table, replays the journal's committed-but-unapplied batches, discards
  // torn tails, and audits the result. Must be called before any CreateFile
  // on this instance. `ok == false` means the superblock itself was
  // unreadable; `audit_clean == false` is a hard failure in tests.
  struct MountReport {
    bool ok = false;
    bool audit_clean = false;
    uint32_t files = 0;
    uint32_t replayed_batches = 0;
    uint32_t replayed_records = 0;
    uint32_t torn_tails = 0;
    double replay_us = 0;
    std::string error;
  };
  MountReport Mount();

  // The fsck-style auditor: extent geometry inside the data area, no sector
  // claimed twice, sizes within capacity, every inode reachable through the
  // name table under its recorded name. Returns true when clean; *error
  // describes the first violation otherwise.
  bool Audit(std::string* error);

  // Mounts this boot, a simulated-memory word bumped at a charged cost and
  // read in place, like the journal's counters.
  uint64_t recovery_mounts() const;

  // Per-open state for a block-cached file. `first_block`/`blocks` describe
  // the extent in cache-block units; a zero size_addr means the extent cannot
  // ride the cache (created before attach, unaligned) and the caller must
  // fall back to the resident path.
  struct CachedExtent {
    Addr size_addr = 0;
    uint32_t first_block = 0;
    uint32_t blocks = 0;
    uint32_t capacity = 0;
  };
  CachedExtent EnsureCached(uint32_t file_id);

  // Miss service for the per-fd cached paths: maps `block` (absolute, in
  // cache-block units) as Bcache::EnsureBlock does, clamped to the file's
  // extent; a read passes its call's last block as `last_block`. False =
  // allocation failed (clean rollback; the read/write surfaces a partial
  // result or error).
  bool CacheFill(uint32_t file_id, uint32_t block, uint32_t last_block,
                 BcacheFill fill);

  // fsync(2) semantics: pushes the file's dirty cache blocks (or its dirty
  // resident extent) to the platter and persists the live size.
  void FsyncFile(uint32_t file_id);

  NameTable& names() { return names_; }
  uint64_t cache_hits() const { return hits_; }
  uint64_t cache_misses() const { return misses_; }

 private:
  struct FileMeta {
    uint32_t first_sector = 0;
    uint32_t sectors = 0;
    uint32_t size = 0;       // logical size on disk
    uint32_t capacity = 0;   // bytes reserved
    Addr cached_base = 0;    // 0 = not resident
    Addr size_addr = 0;
    std::string name;        // for inode rewrites
  };

  uint32_t data_start() const;
  // mkfs-style direct platter writes (atomic: metadata sectors are never
  // torn — only DMA in flight at the power-fail instant is).
  void WriteSuperblock();
  void WriteInode(uint32_t id);
  // Persists the live size into the inode after a flush/fsync.
  void PersistSize(uint32_t id);

  Kernel& kernel_;
  DiskDevice& disk_;
  DiskScheduler& sched_;
  Bcache* bcache_ = nullptr;
  Journal* journal_ = nullptr;
  NameTable names_;
  std::unordered_map<uint32_t, FileMeta> files_;
  uint32_t next_id_ = 1;
  uint32_t next_sector_ = 1;
  bool persist_ = false;   // sector size holds inode records
  bool mounted_ = false;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  Addr mounts_word_ = 0;
};

}  // namespace synthesis

#endif  // SRC_FS_FILE_SYSTEM_H_
