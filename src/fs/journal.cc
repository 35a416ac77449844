#include "src/fs/journal.h"

#include <array>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace synthesis {

namespace {

bool IsPow2(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

// Sector magics. Three distinct values so a payload sector that happens to
// start with one of them can never be confused with control structure at a
// *different* record kind's position.
constexpr uint32_t kCkptMagic = 0x4A43'4B50;  // "JCKP"
constexpr uint32_t kDescMagic = 0x4A44'4553;  // "JDES"
constexpr uint32_t kCmtMagic = 0x4A43'4D54;   // "JCMT"

constexpr uint32_t kEntryOff = 24;   // first entry in the descriptor sector
constexpr uint32_t kEntryBytes = 16;
constexpr uint32_t kKindData = 1;
constexpr uint32_t kKindSize = 2;

uint32_t RdU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void WrU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
uint64_t RdU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
void WrU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }

// kCrcTables[0][b] is the CRC register after shifting byte b through the
// polynomial; kCrcTables[k][b] is the same byte's effect k bytes further
// along, so one step folds eight bytes with eight lookups.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t b = 0; b < 256; b++) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; bit++) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    t[0][b] = crc;
  }
  for (uint32_t b = 0; b < 256; b++) {
    for (int k = 1; k < 8; k++) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xff];
    }
  }
  return t;
}
constexpr auto kCrcTables = MakeCrcTables();

// Seals a control sector: CRC over everything before the trailing CRC word.
void SealSector(uint8_t* sec, uint32_t sector_bytes) {
  WrU32(sec + sector_bytes - 4, Crc32(sec, sector_bytes - 4));
}
bool SectorSealed(const uint8_t* sec, uint32_t sector_bytes) {
  return RdU32(sec + sector_bytes - 4) == Crc32(sec, sector_bytes - 4);
}

}  // namespace

// Reflected CRC-32 (0xEDB88320), slicing-by-8: eight bytes per step through
// eight 256-entry tables built at compile time, then a byte loop for the
// tail. Every journal sector and every superblock and inode record is sealed
// here on the host, so the simulator's speed on write-heavy work rides on
// it. Measured on an x86-64 Xeon over 512 B sectors, -O3: the bitwise loop
// this replaced took 13.4 ns/byte and ~42% of file_mix's host time (gprof,
// seed 1); one table takes 3.3 ns/byte, these eight 0.64 ns/byte (~6% of
// file_mix, which then runs about 1.8x the ops per host second). The simulated
// price of a seal is the fixed Charge its callers bill (Commit, Recover and
// the file system's record writes), so no virtual number depends on how it
// is computed.
uint32_t Crc32(const uint8_t* data, size_t len) {
  static_assert(std::endian::native == std::endian::little,
                "the eight-byte step reads its words little-endian");
  const auto& t = kCrcTables;
  uint32_t crc = ~0u;
  for (; len >= 8; data += 8, len -= 8) {
    uint32_t lo = RdU32(data) ^ crc;
    uint32_t hi = RdU32(data + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; len > 0; data++, len--) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xff];
  }
  return ~crc;
}

Journal::Journal(Kernel& kernel, DiskDevice& disk, DiskScheduler& sched,
                 uint32_t start_sector, uint32_t payload_bytes,
                 JournalConfig config)
    : kernel_(kernel), disk_(disk), sched_(sched), cfg_(config),
      start_(start_sector), payload_bytes_(payload_bytes) {
  sector_bytes_ = disk_.geometry().sector_bytes;
  payload_sectors_ =
      payload_bytes_ >= sector_bytes_ ? payload_bytes_ / sector_bytes_ : 0;
  max_entries_ = sector_bytes_ > kEntryOff + 4
                     ? (sector_bytes_ - kEntryOff - 4) / kEntryBytes
                     : 0;
  // Recovery arithmetic masks and divides by the region and payload geometry,
  // and WaitForSpace can only terminate when the region holds several maximal
  // batches — so a bad geometry is a hard construction error, like Bcache's.
  if (!IsPow2(cfg_.sectors) || cfg_.sectors < 32 ||
      !IsPow2(payload_bytes_) || payload_sectors_ == 0 ||
      payload_bytes_ % sector_bytes_ != 0 || max_entries_ == 0 ||
      cfg_.sectors - 1 < 4 * (2 + payload_sectors_) ||
      start_ + cfg_.sectors > disk_.geometry().sectors) {
    std::fprintf(stderr,
                 "Journal: sectors must be a power of two >= 32 holding at "
                 "least four minimal batches inside the disk, payload_bytes a "
                 "power-of-two multiple of sector_bytes=%u; got sectors=%u "
                 "payload_bytes=%u start=%u disk_sectors=%u\n",
                 sector_bytes_, cfg_.sectors, payload_bytes_, start_,
                 disk_.geometry().sectors);
    std::abort();
  }
  commits_word_ = kernel_.allocator().Allocate(4);
  replays_word_ = kernel_.allocator().Allocate(4);
  torn_word_ = kernel_.allocator().Allocate(4);
  assert(commits_word_ != 0 && replays_word_ != 0 && torn_word_ != 0);
  Memory& mem = kernel_.machine().memory();
  mem.Write32(commits_word_, 0);
  mem.Write32(replays_word_, 0);
  mem.Write32(torn_word_, 0);
}

void Journal::ComposeCheckpoint(std::vector<uint8_t>& sec, uint64_t seq,
                                uint32_t pos) {
  sec.assign(sector_bytes_, 0);
  WrU32(sec.data() + 0, kCkptMagic);
  WrU32(sec.data() + 4, 1);  // version
  WrU64(sec.data() + 8, seq);
  WrU32(sec.data() + 16, pos);
  WrU32(sec.data() + 20, cfg_.sectors);
  SealSector(sec.data(), sector_bytes_);
}

void Journal::Format() {
  // Zero the whole region first: a re-formatted platter must not leave stale
  // committed batches that a later recovery could mistake for live ones.
  size_t off = static_cast<size_t>(start_) * sector_bytes_;
  std::memset(disk_.backing().data() + off, 0,
              static_cast<size_t>(cfg_.sectors) * sector_bytes_);
  std::vector<uint8_t> sec;
  ComposeCheckpoint(sec, 0, 1);
  std::memcpy(disk_.backing().data() + off, sec.data(), sector_bytes_);
  next_seq_ = 1;
  head_pos_ = 1;
  live_.clear();
  applied_seq_ = ckpt_seq_ = 0;
  ckpt_pos_ = 1;
}

void Journal::Bump(Addr word) {
  Memory& mem = kernel_.machine().memory();
  mem.Write32(word, mem.Read32(word) + 1);
  kernel_.machine().Charge(4, 1, 1);
}

uint32_t Journal::live_sectors() const {
  uint32_t n = 0;
  for (const LiveBatch& b : live_) n += b.span;
  return n;
}

bool Journal::BeginBatch(uint32_t data_entries, uint32_t meta_entries) {
  if (building_) {
    std::fprintf(stderr, "Journal: BeginBatch while a batch is open\n");
    std::abort();
  }
  uint32_t entries = data_entries + meta_entries;
  if (entries == 0 || entries > max_entries_) {
    return false;
  }
  uint32_t need = 2 + data_entries * payload_sectors_;
  uint32_t span = head_pos_ + need > cfg_.sectors
                      ? (cfg_.sectors - head_pos_) + need  // wrap: skip tail
                      : need;
  if (span > capacity() - live_sectors()) {
    return false;  // log full: batches ahead must apply and checkpoint first
  }
  building_ = true;
  build_data_ = data_entries;
  build_meta_ = meta_entries;
  build_need_ = need;
  build_entries_ = 0;
  build_desc_.assign(sector_bytes_, 0);
  build_payload_.clear();
  build_payload_crcs_.clear();
  return true;
}

void Journal::AddBlock(uint32_t block, const uint8_t* data) {
  assert(building_ && build_entries_ < build_data_ + build_meta_);
  uint32_t crc = Crc32(data, payload_bytes_);
  uint8_t* e = build_desc_.data() + kEntryOff + build_entries_ * kEntryBytes;
  WrU32(e + 0, kKindData);
  WrU32(e + 4, block);
  WrU32(e + 8, payload_bytes_);
  WrU32(e + 12, crc);
  build_payload_.insert(build_payload_.end(), data, data + payload_bytes_);
  build_payload_crcs_.push_back(crc);
  build_entries_++;
}

void Journal::AddSize(uint32_t file_id, uint32_t size) {
  assert(building_ && build_entries_ < build_data_ + build_meta_);
  uint8_t* e = build_desc_.data() + kEntryOff + build_entries_ * kEntryBytes;
  WrU32(e + 0, kKindSize);
  WrU32(e + 4, file_id);
  WrU32(e + 8, size);
  WrU32(e + 12, 0);
  build_payload_crcs_.push_back(0);
  build_entries_++;
}

uint64_t Journal::Commit(std::function<void()> on_commit) {
  assert(building_ && build_entries_ == build_data_ + build_meta_);
  uint64_t seq = next_seq_++;
  uint32_t payload_total = build_data_ * payload_sectors_;

  WrU32(build_desc_.data() + 0, kDescMagic);
  WrU32(build_desc_.data() + 4, build_entries_);
  WrU64(build_desc_.data() + 8, seq);
  WrU32(build_desc_.data() + 16, payload_total);
  WrU32(build_desc_.data() + 20, kEntryOff);
  SealSector(build_desc_.data(), sector_bytes_);

  // The commit sector's batch CRC covers the descriptor seal and every
  // payload CRC, so a batch where any subset of sectors is stale or torn can
  // never verify — the commit only means something if everything before it
  // in the same request landed, and a prefix tear guarantees exactly that.
  std::vector<uint8_t> cmt(sector_bytes_, 0);
  WrU32(cmt.data() + 0, kCmtMagic);
  WrU32(cmt.data() + 4, build_entries_);
  WrU64(cmt.data() + 8, seq);
  std::vector<uint32_t> crcs = build_payload_crcs_;
  crcs.push_back(RdU32(build_desc_.data() + sector_bytes_ - 4));
  WrU32(cmt.data() + 16,
        Crc32(reinterpret_cast<const uint8_t*>(crcs.data()), crcs.size() * 4));
  SealSector(cmt.data(), sector_bytes_);

  uint32_t need = build_need_;
  bool wrap = head_pos_ + need > cfg_.sectors;
  uint32_t skip = wrap ? cfg_.sectors - head_pos_ : 0;
  uint32_t pos = wrap ? 1 : head_pos_;
  live_.push_back(LiveBatch{seq, pos, skip + need, false, false});
  head_pos_ = pos + need;

  std::vector<uint8_t> buf;
  buf.reserve(static_cast<size_t>(need) * sector_bytes_);
  buf.insert(buf.end(), build_desc_.begin(), build_desc_.end());
  buf.insert(buf.end(), build_payload_.begin(), build_payload_.end());
  buf.insert(buf.end(), cmt.begin(), cmt.end());
  building_ = false;

  DiskRequest r;
  r.sector = start_ + pos;
  r.count = need;
  r.is_write = true;
  r.host_src = std::move(buf);
  r.done = [this, seq, cb = std::move(on_commit)] {
    for (LiveBatch& b : live_) {
      if (b.seq == seq) {
        b.committed = true;
        break;
      }
    }
    Bump(commits_word_);
    if (cb) {
      cb();  // the WAL ordering point: home writes start here
    }
  };
  kernel_.machine().Charge(40 + 8 * build_entries_, 10, 6);  // compose + submit
  sched_.Submit(std::move(r));
  return seq;
}

bool Journal::Committed(uint64_t seq) const {
  for (const LiveBatch& b : live_) {
    if (b.seq == seq) return b.committed;
  }
  return seq <= ckpt_seq_ || seq <= applied_seq_;
}

void Journal::NoteApplied(uint64_t seq) {
  for (LiveBatch& b : live_) {
    if (b.seq == seq) {
      b.applied = true;
      break;
    }
  }
  // Checkpoint opportunistically once the log is half full of applied
  // batches; sync callers force one through WaitForSpace when starved.
  if (live_sectors() > capacity() / 2) {
    MaybeCheckpoint();
  }
}

void Journal::MaybeCheckpoint() {
  if (ckpt_inflight_) {
    return;
  }
  // The applied frontier: the longest prefix of the live log whose home
  // writes have all completed. Only it may be checkpointed — reusing a
  // batch's sectors before the checkpoint covering it LANDS would let a
  // stale committed batch outlive its successor in the log.
  uint64_t seq = ckpt_seq_;
  uint32_t n_applied = 0;
  for (const LiveBatch& b : live_) {
    if (!b.committed || !b.applied) break;
    seq = b.seq;
    n_applied++;
  }
  if (n_applied == 0) {
    return;
  }
  // The frontier position: the next live batch's start, or the write head
  // when the whole log is applied.
  uint32_t pos = n_applied < live_.size() ? live_[n_applied].pos : head_pos_;
  std::vector<uint8_t> sec;
  ComposeCheckpoint(sec, seq, pos);
  ckpt_inflight_ = true;
  DiskRequest r;
  r.sector = start_;
  r.count = 1;
  r.is_write = true;
  r.host_src = std::move(sec);
  r.done = [this, seq, pos] {
    ckpt_seq_ = seq;
    ckpt_pos_ = pos;
    while (!live_.empty() && live_.front().seq <= seq) {
      live_.pop_front();  // sectors reclaimed: the checkpoint is on platter
    }
    ckpt_inflight_ = false;
  };
  kernel_.machine().Charge(24, 6, 4);
  sched_.Submit(std::move(r));
}

bool Journal::WaitForSpace(uint32_t data_entries, uint32_t meta_entries) {
  uint32_t entries = data_entries + meta_entries;
  if (entries == 0 || entries > max_entries_) {
    return false;
  }
  uint32_t need = 2 + data_entries * payload_sectors_;
  if (need > capacity()) {
    return false;
  }
  for (;;) {
    uint32_t span = head_pos_ + need > cfg_.sectors
                        ? (cfg_.sectors - head_pos_) + need
                        : need;
    if (span <= capacity() - live_sectors()) {
      return true;
    }
    MaybeCheckpoint();
    if (kernel_.interrupts().Empty()) {
      // Nothing in flight can free space: an upstream caller lost a
      // NoteApplied. The geometry guarantees four batches fit, so this is a
      // bug, not back-pressure.
      return false;
    }
    kernel_.machine().AdvanceToMicros(kernel_.interrupts().NextTime());
    while (auto irq = kernel_.interrupts().PopDue(kernel_.NowUs())) {
      kernel_.DispatchInterrupt(*irq);
    }
  }
}

Journal::RecoverReport Journal::Recover(
    const std::function<void(uint32_t file_id, uint32_t size)>& apply_size) {
  RecoverReport rep;
  double t0 = kernel_.NowUs();

  // One coalesced read of the whole region: the scan's virtual-time cost.
  DiskRequest scan;
  scan.sector = start_;
  scan.count = cfg_.sectors;
  scan.is_write = false;
  scan.mem = 0;
  sched_.SubmitAndWait(kernel_, std::move(scan));
  kernel_.machine().Charge(8 * cfg_.sectors, 0, cfg_.sectors);  // checksum scan

  const uint8_t* region =
      disk_.backing().data() + static_cast<size_t>(start_) * sector_bytes_;
  auto sector = [&](uint32_t p) { return region + static_cast<size_t>(p) * sector_bytes_; };

  if (RdU32(sector(0)) != kCkptMagic || !SectorSealed(sector(0), sector_bytes_) ||
      RdU32(sector(0) + 20) != cfg_.sectors) {
    // Never formatted (or the header region is foreign): start fresh. The
    // header is a single sector — the power-fail tear model writes whole
    // sectors atomically, so a torn header cannot otherwise occur.
    Format();
    rep.replay_us = kernel_.NowUs() - t0;
    return rep;
  }
  uint64_t seq = RdU64(sector(0) + 8);
  uint32_t pos = RdU32(sector(0) + 16);
  if (pos == 0 || pos > cfg_.sectors) {
    pos = 1;
  }

  struct Entry {
    uint32_t kind, target, val;
    const uint8_t* payload;
  };
  struct Parsed {
    std::vector<Entry> entries;
    uint32_t end_pos;
  };
  // 0 = nothing here, 1 = torn (descriptor landed, commit did not verify),
  // 2 = committed.
  auto parse_at = [&](uint32_t p, uint64_t expect, Parsed* out) -> int {
    if (p + 2 > cfg_.sectors) return 0;
    const uint8_t* d = sector(p);
    if (RdU32(d) != kDescMagic || !SectorSealed(d, sector_bytes_)) return 0;
    if (RdU64(d + 8) != expect) return 0;  // stale batch from a prior cycle
    uint32_t count = RdU32(d + 4);
    uint32_t payload_total = RdU32(d + 16);
    if (count == 0 || count > max_entries_ ||
        payload_total > count * payload_sectors_ ||
        p + 2 + payload_total > cfg_.sectors) {
      return 0;
    }
    std::vector<uint32_t> crcs;
    Parsed parsed;
    uint32_t pay = 0;
    for (uint32_t i = 0; i < count; i++) {
      const uint8_t* e = d + kEntryOff + i * kEntryBytes;
      Entry ent{RdU32(e), RdU32(e + 4), RdU32(e + 8), nullptr};
      if (ent.kind == kKindData) {
        ent.payload = sector(p + 1 + pay);
        pay += payload_sectors_;
        if (Crc32(ent.payload, payload_bytes_) != RdU32(e + 12)) {
          return 1;  // payload torn despite a (stale-looking) descriptor
        }
      } else if (ent.kind != kKindSize) {
        return 1;
      }
      crcs.push_back(RdU32(e + 12));
      parsed.entries.push_back(ent);
    }
    if (pay != payload_total) return 1;
    const uint8_t* c = sector(p + 1 + payload_total);
    if (RdU32(c) != kCmtMagic || !SectorSealed(c, sector_bytes_) ||
        RdU64(c + 8) != expect) {
      return 1;  // the torn tail: data sectors landed, commit never did
    }
    crcs.push_back(RdU32(d + sector_bytes_ - 4));
    if (RdU32(c + 16) !=
        Crc32(reinterpret_cast<const uint8_t*>(crcs.data()), crcs.size() * 4)) {
      return 1;
    }
    parsed.end_pos = p + 2 + payload_total;
    *out = parsed;
    return 2;
  };

  std::vector<Parsed> committed;
  uint64_t expect = seq + 1;
  bool torn = false;
  for (uint32_t guard = 0; guard < cfg_.sectors && !torn; guard++) {
    Parsed got;
    int r = parse_at(pos, expect, &got);
    if (r == 0 && pos != 1) {
      r = parse_at(1, expect, &got);  // the log wrapped past the tail
    }
    if (r == 0) {
      break;  // clean end of log
    }
    if (r == 1) {
      torn = true;
      rep.torn_tails++;
      Bump(torn_word_);
      break;
    }
    committed.push_back(std::move(got));
    pos = committed.back().end_pos;
    expect++;
  }

  // Replay in ascending seq order: the newest committed payload for every
  // block lands last, so re-replaying already-applied batches (checkpoint
  // lag) can only be overwritten forward, never regress.
  for (const Parsed& b : committed) {
    for (const Entry& e : b.entries) {
      if (e.kind == kKindData) {
        DiskRequest w;
        w.sector = e.target * payload_sectors_;
        w.count = payload_sectors_;
        w.is_write = true;
        w.host_src.assign(e.payload, e.payload + payload_bytes_);
        sched_.SubmitAndWait(kernel_, std::move(w));
      } else {
        apply_size(e.target, e.val);
      }
      rep.replayed_records++;
      Bump(replays_word_);
    }
    rep.replayed_batches++;
  }

  // Seal recovery with a fresh checkpoint past everything replayed, so the
  // next mount replays nothing and the log restarts compactly.
  uint64_t new_seq = seq + rep.replayed_batches;
  uint32_t new_pos = committed.empty() ? pos : committed.back().end_pos;
  if (new_pos >= cfg_.sectors) new_pos = 1;
  std::vector<uint8_t> sec;
  ComposeCheckpoint(sec, new_seq, new_pos);
  DiskRequest w;
  w.sector = start_;
  w.count = 1;
  w.is_write = true;
  w.host_src = std::move(sec);
  sched_.SubmitAndWait(kernel_, std::move(w));

  next_seq_ = new_seq + 1;
  head_pos_ = new_pos;
  live_.clear();
  applied_seq_ = ckpt_seq_ = new_seq;
  ckpt_pos_ = new_pos;
  rep.replay_us = kernel_.NowUs() - t0;
  return rep;
}

uint64_t Journal::committed_batches() const {
  return kernel_.machine().memory().Read32(commits_word_);
}
uint64_t Journal::replayed_records() const {
  return kernel_.machine().memory().Read32(replays_word_);
}
uint64_t Journal::torn_tails() const {
  return kernel_.machine().memory().Read32(torn_word_);
}

}  // namespace synthesis
