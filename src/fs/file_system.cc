#include "src/fs/file_system.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace synthesis {

namespace {
constexpr uint32_t kSuperMagic = 0x53594E46;  // "SYNF"
constexpr uint32_t kInodeMagic = 0x494E4F44;  // "INOD"

uint32_t RdU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void WrU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
}  // namespace

FileSystem::FileSystem(Kernel& kernel, DiskDevice& disk, DiskScheduler& sched)
    : kernel_(kernel), disk_(disk), sched_(sched), names_(kernel.machine()) {
  persist_ = disk_.geometry().sector_bytes >= kInodeBytes &&
             disk_.geometry().sectors > kJournalStart;
  next_sector_ = persist_ ? kJournalStart : 1;
  mounts_word_ = kernel_.allocator().Allocate(4);
  assert(mounts_word_ != 0);
  kernel_.machine().memory().Write32(mounts_word_, 0);
}

uint32_t FileSystem::data_start() const {
  if (journal_ != nullptr) {
    return journal_->start_sector() + journal_->sectors();
  }
  return persist_ ? kJournalStart : 1;
}

void FileSystem::AttachJournal(Journal* journal, bool format) {
  // Extents are placed relative to the journal region, so attaching one to a
  // populated (or already mounted, journal-less) file system would alias data
  // sectors into the log — a construction-order error, not a runtime state.
  if (!files_.empty() || mounted_ || !persist_ ||
      journal->start_sector() != kJournalStart) {
    std::fprintf(stderr,
                 "FileSystem: AttachJournal requires an empty, unmounted, "
                 "persistent file system and a journal at sector %u (files=%zu "
                 "mounted=%d persist=%d journal_start=%u)\n",
                 kJournalStart, files_.size(), mounted_, persist_,
                 journal->start_sector());
    std::abort();
  }
  journal_ = journal;
  next_sector_ = data_start();
  if (format) {
    journal_->Format();
    WriteSuperblock();
  }
}

void FileSystem::WriteSuperblock() {
  uint32_t sb = disk_.geometry().sector_bytes;
  std::vector<uint8_t> sec(sb, 0);
  WrU32(sec.data() + 0, kSuperMagic);
  WrU32(sec.data() + 4, 1);  // version
  WrU32(sec.data() + 8, next_sector_);
  WrU32(sec.data() + 12, static_cast<uint32_t>(files_.size()));
  WrU32(sec.data() + 16, kInodeStart);
  WrU32(sec.data() + 20, kInodeSectors);
  WrU32(sec.data() + 24, journal_ != nullptr ? journal_->start_sector() : 0);
  WrU32(sec.data() + 28, journal_ != nullptr ? journal_->sectors() : 0);
  WrU32(sec.data() + 32, next_id_);
  WrU32(sec.data() + sb - 4, Crc32(sec.data(), sb - 4));
  std::memcpy(disk_.backing().data() + static_cast<size_t>(kSuperSector) * sb,
              sec.data(), sb);
  kernel_.machine().Charge(40, 8, 6);
}

void FileSystem::WriteInode(uint32_t id) {
  auto it = files_.find(id);
  if (it == files_.end() || !persist_) {
    return;
  }
  const FileMeta& m = it->second;
  uint8_t rec[kInodeBytes] = {};
  WrU32(rec + 0, kInodeMagic);
  WrU32(rec + 4, id);
  WrU32(rec + 8, m.first_sector);
  WrU32(rec + 12, m.sectors);
  WrU32(rec + 16, m.size);
  WrU32(rec + 20, m.capacity);
  WrU32(rec + 24, static_cast<uint32_t>(m.name.size()));
  std::memcpy(rec + 28, m.name.data(), m.name.size());
  WrU32(rec + kInodeBytes - 4, Crc32(rec, kInodeBytes - 4));
  uint32_t sb = disk_.geometry().sector_bytes;
  uint32_t per = sb / kInodeBytes;
  uint32_t slot = id - 1;
  size_t off = static_cast<size_t>(kInodeStart + slot / per) * sb +
               (slot % per) * kInodeBytes;
  std::memcpy(disk_.backing().data() + off, rec, kInodeBytes);
  kernel_.machine().Charge(40, 8, 6);
}

void FileSystem::PersistSize(uint32_t id) {
  if (!persist_) {
    return;
  }
  WriteInode(id);
  WriteSuperblock();
}

uint32_t FileSystem::CreateFile(const std::string& name,
                                std::span<const uint8_t> contents,
                                uint32_t capacity) {
  uint32_t sector_bytes = disk_.geometry().sector_bytes;
  uint32_t cap = capacity > contents.size() ? capacity
                                            : static_cast<uint32_t>(contents.size());
  if (cap == 0) {
    cap = sector_bytes;
  }
  uint32_t sectors = (cap + sector_bytes - 1) / sector_bytes;
  if (bcache_ != nullptr) {
    // Block-cached extents must start and end on cache-block boundaries so
    // absolute block numbers address whole sectors-per-block runs.
    uint32_t spb = bcache_->sectors_per_block();
    next_sector_ = (next_sector_ + spb - 1) / spb * spb;
    sectors = (sectors + spb - 1) / spb * spb;
  }

  if (persist_) {
    uint32_t max_inodes = kInodeSectors * (sector_bytes / kInodeBytes);
    if (name.size() > kMaxNameBytes || next_id_ > max_inodes) {
      return 0;  // name does not fit an inode record / table full
    }
  }
  uint32_t id = next_id_++;
  if (!names_.Insert(name, id)) {
    next_id_--;
    return 0;  // duplicate name
  }

  FileMeta meta;
  meta.first_sector = next_sector_;
  meta.sectors = sectors;
  meta.size = static_cast<uint32_t>(contents.size());
  meta.capacity = sectors * sector_bytes;
  meta.name = name;
  next_sector_ += sectors;
  assert(next_sector_ <= disk_.geometry().sectors && "disk full");

  // mkfs-style write: place the initial contents directly on the platter.
  if (!contents.empty()) {
    size_t off = static_cast<size_t>(meta.first_sector) * sector_bytes;
    std::memcpy(disk_.backing().data() + off, contents.data(), contents.size());
  }

  files_[id] = meta;
  if (persist_) {
    WriteInode(id);
    WriteSuperblock();
  }
  return id;
}

uint32_t FileSystem::LookupId(const std::string& name) {
  uint32_t id = 0;
  return names_.Lookup(name, &id) ? id : 0;
}

FileSystem::Extent FileSystem::Ensure(uint32_t file_id) {
  auto it = files_.find(file_id);
  if (it == files_.end()) {
    return Extent{};
  }
  FileMeta& meta = it->second;
  if (meta.cached_base != 0) {
    hits_++;
    kernel_.machine().Charge(12, 0, 2);  // cache-manager lookup
    return Extent{meta.cached_base, meta.size_addr, meta.capacity};
  }
  misses_++;
  // Allocate the extent plus the live size word, then pull the file through
  // the disk scheduler (full pipeline cost on the virtual clock).
  meta.cached_base = kernel_.allocator().Allocate(meta.capacity);
  meta.size_addr = kernel_.allocator().Allocate(4);
  assert(meta.cached_base != 0 && meta.size_addr != 0);
  kernel_.machine().memory().Write32(meta.size_addr, meta.size);

  DiskRequest r;
  r.sector = meta.first_sector;
  r.count = meta.sectors;
  r.mem = meta.cached_base;
  r.is_write = false;
  sched_.SubmitAndWait(kernel_, std::move(r));
  return Extent{meta.cached_base, meta.size_addr, meta.capacity};
}

void FileSystem::Flush(uint32_t file_id) {
  auto it = files_.find(file_id);
  if (it == files_.end()) {
    return;
  }
  if (it->second.cached_base == 0) {
    FsyncFile(file_id);  // block-cached (or nothing resident): same contract
    return;
  }
  FileMeta& meta = it->second;
  meta.size = kernel_.machine().memory().Read32(meta.size_addr);
  DiskRequest r;
  r.sector = meta.first_sector;
  r.count = meta.sectors;
  r.mem = meta.cached_base;
  r.is_write = true;
  sched_.SubmitAndWait(kernel_, std::move(r));
  PersistSize(file_id);
}

void FileSystem::Evict(uint32_t file_id) {
  auto it = files_.find(file_id);
  if (it == files_.end()) {
    return;
  }
  FileMeta& meta = it->second;
  if (meta.cached_base != 0) {
    Flush(file_id);
    kernel_.allocator().Free(meta.cached_base);
    kernel_.allocator().Free(meta.size_addr);
    meta.cached_base = 0;
    meta.size_addr = 0;
    return;
  }
  if (bcache_ != nullptr && meta.size_addr != 0) {
    // Block-cached eviction: persist the live size, flush the file's dirty
    // blocks, and drop them from the cache. Open channels keep their
    // synthesized code; the next miss re-reads the platter.
    meta.size = kernel_.machine().memory().Read32(meta.size_addr);
    uint32_t spb = bcache_->sectors_per_block();
    bcache_->InvalidateRange(meta.first_sector / spb, meta.sectors / spb);
    kernel_.allocator().Free(meta.size_addr);
    meta.size_addr = 0;
    PersistSize(file_id);
  }
}

uint32_t FileSystem::SizeOf(uint32_t file_id) {
  auto it = files_.find(file_id);
  if (it == files_.end()) {
    return 0;
  }
  if (it->second.size_addr != 0) {
    return kernel_.machine().memory().Read32(it->second.size_addr);
  }
  return it->second.size;
}

FileSystem::CachedExtent FileSystem::EnsureCached(uint32_t file_id) {
  auto it = files_.find(file_id);
  if (it == files_.end() || bcache_ == nullptr) {
    return CachedExtent{};
  }
  FileMeta& meta = it->second;
  uint32_t spb = bcache_->sectors_per_block();
  if (meta.first_sector % spb != 0 || meta.sectors % spb != 0) {
    return CachedExtent{};  // pre-attach extent: caller uses the resident path
  }
  if (meta.cached_base != 0) {
    // Previously whole-file resident: make the platter authoritative and drop
    // the extent so reads cannot see two diverging copies.
    meta.size = kernel_.machine().memory().Read32(meta.size_addr);
    Flush(file_id);
    kernel_.allocator().Free(meta.cached_base);
    meta.cached_base = 0;
  }
  if (meta.size_addr == 0) {
    meta.size_addr = kernel_.allocator().Allocate(4);
    assert(meta.size_addr != 0);
    kernel_.machine().memory().Write32(meta.size_addr, meta.size);
  }
  kernel_.machine().Charge(20, 4, 3);  // cache-manager open bookkeeping
  return CachedExtent{meta.size_addr, meta.first_sector / spb,
                      meta.sectors / spb, meta.capacity};
}

bool FileSystem::CacheFill(uint32_t file_id, uint32_t block, uint32_t last_block,
                           BcacheFill fill) {
  auto it = files_.find(file_id);
  if (it == files_.end() || bcache_ == nullptr) {
    return false;
  }
  FileMeta& meta = it->second;
  uint32_t spb = bcache_->sectors_per_block();
  uint32_t first = meta.first_sector / spb;
  uint32_t blocks = meta.sectors / spb;
  if (block < first || block >= first + blocks) {
    return false;  // a corrupt position walked off the extent
  }
  return bcache_->EnsureBlock(file_id, block, last_block, first, blocks, fill);
}

void FileSystem::FsyncFile(uint32_t file_id) {
  auto it = files_.find(file_id);
  if (it == files_.end()) {
    return;
  }
  FileMeta& meta = it->second;
  if (meta.cached_base != 0) {
    Flush(file_id);
    return;
  }
  if (bcache_ != nullptr && meta.size_addr != 0) {
    meta.size = kernel_.machine().memory().Read32(meta.size_addr);
    uint32_t spb = bcache_->sectors_per_block();
    // With a journal attached this drives the virtual clock until the flush
    // batch's commit AND home-location completion interrupts have landed —
    // real fsync semantics, not an ack into the write-behind window.
    bcache_->FlushBlockRange(meta.first_sector / spb, meta.sectors / spb);
    if (journal_ != nullptr && journal_->WaitForSpace(0, 1)) {
      // The size travels through the journal too, so a crash after this
      // fsync recovers the fsynced length even if the inode write below
      // never made it.
      bool committed = false;
      journal_->BeginBatch(0, 1);
      journal_->AddSize(file_id, meta.size);
      uint64_t seq = journal_->Commit([&committed] { committed = true; });
      DiskScheduler::DriveUntil(kernel_, [&committed] { return committed; });
      PersistSize(file_id);
      journal_->NoteApplied(seq);
    } else {
      PersistSize(file_id);
    }
  }
}

FileSystem::MountReport FileSystem::Mount() {
  MountReport rep;
  if (!persist_) {
    rep.error = "metadata persistence disabled (sector too small)";
    return rep;
  }
  if (mounted_ || !files_.empty()) {
    rep.error = "already mounted / files created before Mount";
    return rep;
  }
  uint32_t sb_bytes = disk_.geometry().sector_bytes;

  // Superblock read: latency through the scheduler, parse host-side.
  DiskRequest r;
  r.sector = kSuperSector;
  r.count = 1;
  r.is_write = false;
  r.mem = 0;
  sched_.SubmitAndWait(kernel_, std::move(r));
  const uint8_t* sb = disk_.backing().data();
  if (RdU32(sb + 0) != kSuperMagic ||
      RdU32(sb + sb_bytes - 4) != Crc32(sb, sb_bytes - 4)) {
    rep.error = "bad superblock (magic/crc)";
    return rep;
  }
  uint32_t sb_journal_start = RdU32(sb + 24);
  uint32_t sb_journal_sectors = RdU32(sb + 28);
  if (journal_ != nullptr &&
      (sb_journal_start != journal_->start_sector() ||
       sb_journal_sectors != journal_->sectors())) {
    rep.error = "journal geometry mismatch with superblock";
    return rep;
  }
  next_sector_ = RdU32(sb + 8);
  next_id_ = RdU32(sb + 32);

  // Inode table: one coalesced read, then a host-side scan of every slot.
  DiskRequest ir;
  ir.sector = kInodeStart;
  ir.count = kInodeSectors;
  ir.is_write = false;
  ir.mem = 0;
  sched_.SubmitAndWait(kernel_, std::move(ir));
  uint32_t per = sb_bytes / kInodeBytes;
  for (uint32_t slot = 0; slot < kInodeSectors * per; slot++) {
    const uint8_t* rec = disk_.backing().data() +
                         static_cast<size_t>(kInodeStart + slot / per) * sb_bytes +
                         (slot % per) * kInodeBytes;
    if (RdU32(rec + 0) != kInodeMagic ||
        RdU32(rec + kInodeBytes - 4) != Crc32(rec, kInodeBytes - 4)) {
      continue;
    }
    uint32_t id = RdU32(rec + 4);
    uint32_t name_len = RdU32(rec + 24);
    if (id == 0 || id != slot + 1 || name_len > kMaxNameBytes) {
      continue;  // foreign or corrupt record; the audit reports the gap
    }
    FileMeta meta;
    meta.first_sector = RdU32(rec + 8);
    meta.sectors = RdU32(rec + 12);
    meta.size = RdU32(rec + 16);
    meta.capacity = RdU32(rec + 20);
    meta.name.assign(reinterpret_cast<const char*>(rec + 28), name_len);
    names_.Insert(meta.name, id);
    files_[id] = meta;
    kernel_.machine().Charge(30, 8, 6);
  }
  mounted_ = true;

  if (journal_ != nullptr) {
    Journal::RecoverReport jr =
        journal_->Recover([this](uint32_t id, uint32_t size) {
          auto it = files_.find(id);
          if (it != files_.end()) {
            it->second.size = size;
            WriteInode(id);
          }
        });
    rep.replayed_batches = jr.replayed_batches;
    rep.replayed_records = jr.replayed_records;
    rep.torn_tails = jr.torn_tails;
    rep.replay_us = jr.replay_us;
  }

  Memory& mem = kernel_.machine().memory();
  mem.Write32(mounts_word_, mem.Read32(mounts_word_) + 1);
  kernel_.machine().Charge(4, 1, 1);

  rep.ok = true;
  rep.files = static_cast<uint32_t>(files_.size());
  rep.audit_clean = Audit(&rep.error);
  return rep;
}

bool FileSystem::Audit(std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  uint32_t ds = data_start();
  uint32_t disk_sectors = disk_.geometry().sectors;
  uint32_t sector_bytes = disk_.geometry().sector_bytes;
  std::vector<std::pair<uint32_t, uint32_t>> extents;  // (first, end)
  for (const auto& [id, m] : files_) {
    if (m.first_sector < ds) {
      return fail("extent overlaps metadata/journal region: " + m.name);
    }
    if (m.sectors == 0 || m.first_sector + m.sectors > disk_sectors) {
      return fail("extent outside the disk: " + m.name);
    }
    uint32_t live_size =
        m.size_addr != 0 ? kernel_.machine().memory().Read32(m.size_addr) : m.size;
    if (live_size > m.capacity || m.capacity != m.sectors * sector_bytes) {
      return fail("size/capacity inconsistent: " + m.name);
    }
    uint32_t looked_up = 0;
    if (!names_.Lookup(m.name, &looked_up) || looked_up != id) {
      return fail("inode unreachable through the name table: " + m.name);
    }
    extents.emplace_back(m.first_sector, m.first_sector + m.sectors);
  }
  std::sort(extents.begin(), extents.end());
  for (size_t i = 1; i < extents.size(); i++) {
    if (extents[i].first < extents[i - 1].second) {
      return fail("two files claim the same sectors");
    }
  }
  if (!extents.empty() && next_sector_ < extents.back().second) {
    return fail("allocation cursor inside an allocated extent");
  }
  if (names_.size() != files_.size()) {
    return fail("name table and inode table disagree");
  }
  return true;
}

uint64_t FileSystem::recovery_mounts() const {
  return kernel_.machine().memory().Read32(mounts_word_);
}

}  // namespace synthesis
