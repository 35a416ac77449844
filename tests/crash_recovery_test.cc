// Crash-consistency tests for the write-behind cache + intent journal: a
// differential crash-replay harness runs random op schedules against a host
// golden model, power-fails the kernel at scripted disk-visit points (mid
// flush tick, mid eviction write-back, mid read-ahead, composed with lost and
// late disk completions), reboots on the surviving platter image, and asserts
// that every fsynced byte survives and the mount-time auditor comes back
// clean. Plus the fsync durability audit (fsync must wait out retried
// completions before acking), CRC-32 conformance for the journal and
// metadata seals, and construction death tests for the journal and flusher
// geometry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/fs/bcache.h"
#include "src/fs/disk.h"
#include "src/fs/file_system.h"
#include "src/fs/journal.h"
#include "src/io/channel.h"
#include "src/io/crash_harness.h"
#include "src/io/io_system.h"
#include "src/kernel/fault_plane.h"

namespace synthesis {
namespace {

CrashStackConfig SmallCfg() {
  CrashStackConfig c;
  c.disk.sectors = 8192;  // 4 MB platter keeps the sweep fast
  c.bcache.entries = 16;
  c.bcache.flush_period_us = 10'000;  // flusher interleaves with the schedule
  c.bcache.flush_batch = 4;
  c.bcache.read_ahead = 4;
  c.journal.sectors = 64;
  return c;
}

std::string Pattern(uint32_t n, uint32_t seed) {
  std::string s(n, '\0');
  for (uint32_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>('a' + (seed * 131 + i * 13) % 26);
  }
  return s;
}

// The host golden model of one file under crash semantics. A surviving byte
// below the fsynced size must read back either its value at the last
// completed fsync or some value written to it after that fsync (the flusher
// or an eviction may have pushed newer bytes home before the power failed);
// the surviving size must be at least the fsynced size.
struct Golden {
  explicit Golden(uint32_t cap)
      : fsynced(cap, 0), extra(cap) {}

  void NoteWrite(uint32_t pos, const std::string& data) {
    for (uint32_t i = 0; i < data.size(); ++i) {
      extra[pos + i].push_back(static_cast<uint8_t>(data[i]));
    }
    size = std::max<uint32_t>(size, pos + static_cast<uint32_t>(data.size()));
  }
  // A completed fsync rebases the model: current bytes become the floor.
  void NoteFsync() {
    for (uint32_t i = 0; i < extra.size(); ++i) {
      if (!extra[i].empty()) {
        fsynced[i] = extra[i].back();
        extra[i].clear();
      }
    }
    fsynced_size = size;
  }
  bool ByteOk(uint32_t i, uint8_t got) const {
    if (got == fsynced[i]) return true;
    return std::find(extra[i].begin(), extra[i].end(), got) != extra[i].end();
  }

  std::vector<uint8_t> fsynced;             // value at the last fsync
  std::vector<std::vector<uint8_t>> extra;  // values written since
  uint32_t size = 0;
  uint32_t fsynced_size = 0;
};

// Drives one deterministic schedule of writes, fsyncs, and cache churn
// against a crash stack until the power fails or the schedule ends, tracking
// the golden model; then reboots and verifies survival + audit + counters.
class CrashRunner {
 public:
  static constexpr uint32_t kCap = 16 * 512;  // the file spans the cache

  explicit CrashRunner(CrashStackConfig cfg) : h_(cfg), g_(kCap) {}

  CrashHarness& harness() { return h_; }

  // Returns true when the power failed during the schedule.
  bool Run(uint32_t seed, int ops) {
    CrashStack& s = h_.stack();
    buf_ = s.kernel.allocator().Allocate(kCap + 4096);
    EXPECT_NE(s.fs.CreateFile("/crash", {}, kCap), 0u);
    ChannelId ch = s.io.Open("/crash");
    EXPECT_NE(ch, kBadChannel);
    std::mt19937 rng(seed * 2654435761u + 7);
    for (int op = 0; op < ops && !h_.Crashed(); ++op) {
      const uint32_t kind = rng() % 8;
      if (kind < 5) {  // write a random span
        const uint32_t pos = rng() % (kCap - 512);
        const uint32_t len = 64 + rng() % 512;
        const std::string data = Pattern(len, rng());
        Seek(s, ch, pos);
        s.kernel.machine().memory().WriteBytes(buf_, data.data(), data.size());
        const int32_t w = s.io.Write(ch, buf_, len);
        if (w > 0) {
          g_.NoteWrite(pos, data.substr(0, static_cast<size_t>(w)));
        }
      } else if (kind < 7) {  // fsync: durable only if it beat the crash
        s.io.Fsync(ch);
        if (!h_.Crashed()) {
          g_.NoteFsync();
        }
      } else {  // let the flusher tick and read-ahead race the schedule
        Seek(s, ch, 0);
        s.io.Read(ch, buf_, 4 * 512);
        DiskScheduler::DriveUntil(
            s.kernel, [&] { return s.bcache.dirty_blocks() == 0; });
      }
    }
    if (!h_.Crashed()) {
      s.io.Fsync(ch);
      if (!h_.Crashed()) {
        g_.NoteFsync();
      }
    }
    return h_.Crashed();
  }

  // Reboots on the surviving image and asserts recovery + survival. The
  // counters are asserted exactly against the mount report.
  void VerifyAfterReboot() {
    const bool crashed = h_.Crashed();
    FileSystem::MountReport rep = h_.Reboot();
    ASSERT_TRUE(rep.ok) << rep.error;
    ASSERT_TRUE(rep.audit_clean) << rep.error;
    ASSERT_EQ(rep.files, 1u);

    CrashStack& s = h_.stack();
    // Verification must not itself power-fail under a background FAULTS=1
    // spec; lost/late completions stay armed (they only slow things down).
    s.kernel.faults().Disarm(FaultSite::kPowerFail);
    EXPECT_EQ(s.fs.recovery_mounts(), 1u);
    EXPECT_EQ(s.journal.replayed_records(), rep.replayed_records);
    EXPECT_EQ(s.journal.torn_tails(), rep.torn_tails);
    if (!crashed) {
      EXPECT_EQ(rep.torn_tails, 0u) << "a clean shutdown has no torn tail";
    }

    SCOPED_TRACE(testing::Message()
                 << "mount: batches=" << rep.replayed_batches
                 << " records=" << rep.replayed_records
                 << " torn=" << rep.torn_tails << " crashed=" << crashed);
    uint32_t id = 0;
    ASSERT_TRUE(s.fs.names().Lookup("/crash", &id));
    const uint32_t size = s.fs.SizeOf(id);
    ASSERT_GE(size, g_.fsynced_size) << "fsynced size regressed";

    Addr buf = s.kernel.allocator().Allocate(kCap + 4096);
    ChannelId ch = s.io.Open("/crash");
    ASSERT_NE(ch, kBadChannel);
    ASSERT_EQ(s.io.Read(ch, buf, kCap), static_cast<int32_t>(size));
    std::vector<uint8_t> got(size);
    if (size > 0) {  // data() of an empty vector is null; memcpy rejects it
      s.kernel.machine().memory().ReadBytes(buf, got.data(), size);
    }
    for (uint32_t i = 0; i < g_.fsynced_size; ++i) {
      ASSERT_TRUE(g_.ByteOk(i, got[i]))
          << "fsynced byte " << i << " lost: got " << int(got[i])
          << " want " << int(g_.fsynced[i]);
    }
    s.io.Close(ch);
  }

 private:
  static void Seek(CrashStack& s, ChannelId ch, uint32_t pos) {
    s.kernel.machine().memory().Write32(
        s.io.RecordOf(ch) + ChannelLayout::kPosition, pos);
  }

  CrashHarness h_;
  Golden g_;
  Addr buf_ = 0;
};

// The scripted sweep: one run per visit index of the power-fail site, so the
// crash lands at every disk-request boundary the schedule produces — request
// starts (mid-DMA tears) and completion interrupts (clean boundaries) alike,
// covering mid-FlushTick, mid-eviction write-back, and mid-read-ahead.
TEST(CrashRecoveryTest, FsyncedBytesSurviveScriptedCrashSweep) {
  int crashes = 0;
  for (uint64_t visit = 1; visit <= 48; ++visit) {
    SCOPED_TRACE(testing::Message() << "power-fail visit " << visit);
    CrashRunner r(SmallCfg());
    FaultTrigger t;
    t.schedule = {visit};
    r.harness().stack().kernel.faults().Arm(FaultSite::kPowerFail, t);
    const bool crashed = r.Run(/*seed=*/uint32_t(visit), /*ops=*/60);
    crashes += crashed ? 1 : 0;
    r.VerifyAfterReboot();
  }
  EXPECT_GE(crashes, 32) << "the sweep must actually reach its crash points";
}

// The journal's payload is the cache block, whatever its size: with 1 KB
// blocks every journaled block must be logged and replayed whole, to its
// own home sectors.
TEST(CrashRecoveryTest, KilobyteCacheBlocksReplayWhole) {
  int crashes = 0;
  for (uint64_t visit = 1; visit <= 24; ++visit) {
    SCOPED_TRACE(testing::Message() << "power-fail visit " << visit);
    CrashStackConfig cfg = SmallCfg();
    cfg.bcache.block_bytes = 1024;
    CrashRunner r(cfg);
    ASSERT_EQ(r.harness().stack().journal.payload_bytes(), 1024u);
    FaultTrigger t;
    t.schedule = {visit};
    r.harness().stack().kernel.faults().Arm(FaultSite::kPowerFail, t);
    const bool crashed = r.Run(/*seed=*/uint32_t(visit), /*ops=*/60);
    crashes += crashed ? 1 : 0;
    r.VerifyAfterReboot();
  }
  EXPECT_GE(crashes, 16) << "the sweep must actually reach its crash points";
}

// Probability-driven crashes across seeds: the same invariants must hold
// when the fail point is drawn from the per-site stream instead of scripted.
TEST(CrashRecoveryTest, FsyncedBytesSurviveRandomCrashes) {
  int crashes = 0;
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    CrashStackConfig cfg = SmallCfg();
    cfg.kernel.fault_seed = seed * 97 + 3;
    CrashRunner r(cfg);
    FaultTrigger t;
    t.probability = 0.02;
    r.harness().stack().kernel.faults().Arm(FaultSite::kPowerFail, t);
    crashes += r.Run(seed, /*ops=*/120) ? 1 : 0;
    r.VerifyAfterReboot();
  }
  EXPECT_GE(crashes, 1) << "at least one seed must lose power";
}

// Power failure composed with lost and late disk completions: the retry and
// late-delivery machinery must not open an ack-early window the crash can
// exploit.
TEST(CrashRecoveryTest, CrashComposedWithLostAndLateDiskCompletions) {
  int crashes = 0;
  for (uint64_t visit = 5; visit <= 45; visit += 8) {
    CrashRunner r(SmallCfg());
    FaultPlane& f = r.harness().stack().kernel.faults();
    FaultTrigger power;
    power.schedule = {visit};
    f.Arm(FaultSite::kPowerFail, power);
    FaultTrigger lost;
    lost.every_nth = 5;
    f.Arm(FaultSite::kDiskLost, lost);
    FaultTrigger late;
    late.every_nth = 3;
    f.Arm(FaultSite::kDiskLate, late);
    crashes += r.Run(/*seed=*/uint32_t(visit) + 1000, /*ops=*/60) ? 1 : 0;
    r.VerifyAfterReboot();
  }
  EXPECT_GE(crashes, 3);
}

// A clean shutdown (final fsync, no crash) must remount with zero replayed
// records pending loss and an exact recovery_mounts count of one. The
// remounted journal then counts every batch it commits: three rounds fire
// three commit callbacks and read back as three committed batches.
TEST(CrashRecoveryTest, CleanRebootRemountsWithAuditClean) {
  CrashRunner r(SmallCfg());
  ASSERT_FALSE(r.Run(/*seed=*/42, /*ops=*/40));
  r.VerifyAfterReboot();

  // The batches are only logged: no home write follows their commits, so
  // the target block numbers are never written.
  CrashStack& s = r.harness().stack();
  const std::vector<uint8_t> block(s.journal.payload_bytes(), 0x5a);
  int fired = 0;
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(s.journal.BeginBatch(/*data_entries=*/1, /*meta_entries=*/0));
    s.journal.AddBlock(/*block=*/i, block.data());
    s.journal.Commit([&fired] { fired++; });
  }
  DiskScheduler::DriveUntil(s.kernel, [&fired] { return fired == 3; });
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.journal.committed_batches(), 3u);
}

// --- Fsync durability audit --------------------------------------------------
// Fsync may return only after the retried/late completion has actually landed
// the bytes on the platter. A clean reboot on the live platter image right
// after fsync returns must find every acknowledged byte — if any path acks on
// submit instead of completion, the remounted file comes back stale.

void FsyncThenRebootAudit(FaultSite site, uint64_t every_nth) {
  CrashStackConfig cfg = SmallCfg();
  CrashHarness h(cfg);
  CrashStack& s = h.stack();
  FaultTrigger t;
  t.every_nth = every_nth;
  s.kernel.faults().Arm(site, t);

  Addr buf = s.kernel.allocator().Allocate(8 * 1024);
  ASSERT_NE(s.fs.CreateFile("/audit", {}, 8 * 512), 0u);
  ChannelId ch = s.io.Open("/audit");
  ASSERT_NE(ch, kBadChannel);
  const std::string body = Pattern(7 * 512 + 17, 5);
  s.kernel.machine().memory().WriteBytes(buf, body.data(), body.size());
  ASSERT_EQ(s.io.Write(ch, buf, static_cast<uint32_t>(body.size())),
            static_cast<int32_t>(body.size()));
  ASSERT_EQ(s.io.Fsync(ch), 0);
  ASSERT_FALSE(h.Crashed());

  // Power off now: only bytes whose completion interrupts have landed exist.
  FileSystem::MountReport rep = h.Reboot();
  ASSERT_TRUE(rep.ok) << rep.error;
  ASSERT_TRUE(rep.audit_clean) << rep.error;
  CrashStack& ns = h.stack();
  ns.kernel.faults().DisarmAll();
  uint32_t id = 0;
  ASSERT_TRUE(ns.fs.names().Lookup("/audit", &id));
  ASSERT_EQ(ns.fs.SizeOf(id), body.size());
  Addr nbuf = ns.kernel.allocator().Allocate(8 * 1024);
  ChannelId nch = ns.io.Open("/audit");
  ASSERT_NE(nch, kBadChannel);
  ASSERT_EQ(ns.io.Read(nch, nbuf, 8 * 512),
            static_cast<int32_t>(body.size()));
  std::string got(body.size(), '\0');
  ns.kernel.machine().memory().ReadBytes(nbuf, got.data(),
                                         static_cast<uint32_t>(got.size()));
  EXPECT_EQ(got, body) << "fsync acked bytes that were not on the platter";
}

TEST(FsyncDurabilityAudit, FsyncWaitsOutLostDiskRequests) {
  FsyncThenRebootAudit(FaultSite::kDiskLost, 2);
}

TEST(FsyncDurabilityAudit, FsyncWaitsOutLateDiskCompletions) {
  FsyncThenRebootAudit(FaultSite::kDiskLate, 2);
}

// The journal-less stack has the same ack-on-completion obligation: after
// fsync returns under lost requests, the pattern must be on the raw platter.
TEST(FsyncDurabilityAudit, JournalLessFsyncStillLandsBytes) {
  CrashStackConfig cfg = SmallCfg();
  cfg.journaled = false;
  CrashHarness h(cfg);
  CrashStack& s = h.stack();
  FaultTrigger t;
  t.every_nth = 2;
  s.kernel.faults().Arm(FaultSite::kDiskLost, t);

  Addr buf = s.kernel.allocator().Allocate(4096);
  ASSERT_NE(s.fs.CreateFile("/bare", {}, 4 * 512), 0u);
  ChannelId ch = s.io.Open("/bare");
  ASSERT_NE(ch, kBadChannel);
  const std::string body = Pattern(3 * 512, 9);
  s.kernel.machine().memory().WriteBytes(buf, body.data(), body.size());
  ASSERT_EQ(s.io.Write(ch, buf, static_cast<uint32_t>(body.size())),
            static_cast<int32_t>(body.size()));
  ASSERT_EQ(s.io.Fsync(ch), 0);

  const std::vector<uint8_t>& platter = s.disk.backing();
  const auto it = std::search(platter.begin(), platter.end(),
                              body.begin(), body.end());
  EXPECT_NE(it, platter.end())
      << "journal-less fsync returned before the bytes reached the platter";
}

// --- CRC-32 conformance ------------------------------------------------------

// The oracle: the bitwise CRC-32 the table-driven one replaced, one shift-xor
// step per bit with the same reflected polynomial and the same initial and
// final inversion.
uint32_t BitwiseCrc32(const uint8_t* data, size_t len) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < len; i++) {
    crc ^= data[i];
    for (int b = 0; b < 8; b++) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(Crc32Test, CheckValueAndEmptyBuffer) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
  const uint8_t none[1] = {0};
  EXPECT_EQ(Crc32(none, 0), 0u);
}

// Every length 0-1100 (past a 1 KB payload, so every tail length meets every
// count of eight-byte steps) at every start offset 0-7 (every alignment of
// the word loads).
TEST(Crc32Test, AgreesWithTheBitwiseLoopAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 1100;
  std::mt19937 rng(19);
  std::vector<uint8_t> buf(kMaxLen + 8);
  for (size_t off = 0; off < 8; off++) {
    for (uint8_t& b : buf) {
      b = static_cast<uint8_t>(rng());
    }
    const uint8_t* p = buf.data() + off;
    for (size_t len = 0; len <= kMaxLen; len++) {
      ASSERT_EQ(Crc32(p, len), BitwiseCrc32(p, len))
          << "offset " << off << " length " << len;
    }
  }
}

// --- Construction death tests ------------------------------------------------

TEST(CrashConfigDeathTest, ZeroFlushPeriodAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Kernel k;
        DiskDevice disk(k);
        DiskScheduler sched(disk);
        BcacheConfig cfg;
        cfg.flush_period_us = 0;
        Bcache bc(k, disk, sched, cfg);
      },
      "flush_period_us");
  EXPECT_DEATH(
      {
        Kernel k;
        DiskDevice disk(k);
        DiskScheduler sched(disk);
        BcacheConfig cfg;
        cfg.flush_batch = 0;
        Bcache bc(k, disk, sched, cfg);
      },
      "flush_batch");
}

TEST(CrashConfigDeathTest, BadJournalGeometryAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Kernel k;
        DiskDevice disk(k);
        DiskScheduler sched(disk);
        JournalConfig cfg;
        cfg.sectors = 48;  // not a power of two
        Journal j(k, disk, sched, FileSystem::kJournalStart, 512, cfg);
      },
      "power of two");
  EXPECT_DEATH(
      {
        Kernel k;
        DiskDevice disk(k);
        DiskScheduler sched(disk);
        JournalConfig cfg;
        cfg.sectors = 16;  // below the four-minimal-batches floor
        Journal j(k, disk, sched, FileSystem::kJournalStart, 512, cfg);
      },
      "power of two");
  EXPECT_DEATH(
      {
        Kernel k;
        DiskDevice disk(k);
        DiskScheduler sched(disk);
        // A payload (the cache's block size) not a multiple of the sector.
        Journal j(k, disk, sched, FileSystem::kJournalStart, 300);
      },
      "payload_bytes");
}

}  // namespace
}  // namespace synthesis
