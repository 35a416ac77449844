// Tests for the write-behind buffer cache (§5.1) and the synthesized per-fd
// cached read/write paths in front of it: byte-identical generic vs
// synthesized behavior under random schedules, write-behind flush ordering,
// eviction occupancy exactness under open/close churn, read-ahead
// correctness, one disk request per read miss (the call's missing blocks and
// the read-ahead window in one run), read-ahead hit/waste accounting, and
// clean rollback when entry allocation fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/fs/bcache.h"
#include "src/fs/disk.h"
#include "src/fs/file_system.h"
#include "src/io/channel.h"
#include "src/io/io_system.h"
#include "src/kernel/fault_plane.h"

namespace synthesis {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// A full kernel stack with a block cache attached to the file system. The
// cache must be attached before any CreateFile so extents are block-aligned.
struct Stack {
  explicit Stack(BcacheConfig bcfg = {}, Kernel::Config kcfg = {})
      : k(kcfg),
        disk(k),
        sched(disk),
        fs(k, disk, sched),
        bc(k, disk, sched, bcfg),
        io(k, &fs) {
    fs.AttachBcache(&bc);  // before any CreateFile, so extents block-align
    buf = k.allocator().Allocate(64 * 1024);
  }

  void Stage(const std::string& s) {
    k.machine().memory().WriteBytes(buf, s.data(), s.size());
  }
  std::string Fetch(uint32_t n) {
    std::string s(n, '\0');
    k.machine().memory().ReadBytes(buf, s.data(), n);
    return s;
  }
  void Seek(ChannelId ch, uint32_t pos) {
    k.machine().memory().Write32(io.RecordOf(ch) + ChannelLayout::kPosition,
                                 pos);
  }
  // Creates `path` holding `body` (capacity = size), pushes it to the
  // platter and drops it from the cache, so the next read starts cold.
  uint32_t CreateCold(const std::string& path, const std::string& body) {
    const uint32_t fid = fs.CreateFile(path, Bytes(body),
                                       static_cast<uint32_t>(body.size()));
    if (fid != 0) {
      fs.FsyncFile(fid);
      fs.Evict(fid);
    }
    return fid;
  }
  // Drives the kernel's virtual clock until the flusher has drained every
  // dirty entry (write-behind completion order is what the test asserts).
  void DrainFlusher() {
    DiskScheduler::DriveUntil(k, [&] { return bc.dirty_blocks() == 0; });
  }

  Kernel k;
  DiskDevice disk;
  DiskScheduler sched;
  FileSystem fs;
  Bcache bc;
  IoSystem io;
  Addr buf = 0;
};

Kernel::Config GenericConfig() {
  Kernel::Config c;
  c.synthesis = SynthesisOptions::Disabled();
  return c;
}

std::string Pattern(uint32_t n, uint32_t seed) {
  std::string s(n, '\0');
  for (uint32_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>('A' + (seed * 31 + i * 7) % 26);
  }
  return s;
}

TEST(BcacheTest, CachedOpenReadsThroughTheCache) {
  Stack s;
  const std::string body = Pattern(2000, 3);
  ASSERT_NE(s.fs.CreateFile("/data", Bytes(body), 4096), 0u);
  ChannelId ch = s.io.Open("/data");
  ASSERT_NE(ch, kBadChannel);

  EXPECT_EQ(s.io.Read(ch, s.buf, 2000), 2000);
  EXPECT_EQ(s.Fetch(2000), body) << "cold read fills blocks and returns bytes";
  EXPECT_GT(s.bc.misses(), 0u) << "the cold read missed at least once";
  EXPECT_GT(s.bc.resident_blocks(), 0u);

  // Warm re-read: every block resident, no further misses.
  const uint64_t misses = s.bc.misses();
  s.Seek(ch, 0);
  EXPECT_EQ(s.io.Read(ch, s.buf, 2000), 2000);
  EXPECT_EQ(s.Fetch(2000), body);
  EXPECT_EQ(s.bc.misses(), misses) << "warm read is pure cache hits";
  s.io.Close(ch);
}

TEST(BcacheTest, ReadsPastEofClampAndEmptyFileGivesEof) {
  Stack s;
  ASSERT_NE(s.fs.CreateFile("/short", Bytes("hi"), 1024), 0u);
  ChannelId ch = s.io.Open("/short");
  ASSERT_NE(ch, kBadChannel);
  EXPECT_EQ(s.io.Read(ch, s.buf, 100), 2);
  EXPECT_EQ(s.Fetch(2), "hi");
  EXPECT_EQ(s.io.Read(ch, s.buf, 100), 0) << "EOF after the bytes run out";
  s.io.Close(ch);
}

// The tentpole equivalence test: a synthesized stack and a generic
// (interpreted layered) stack execute the same random read/write/seek
// schedule and must produce byte-identical results — same return values,
// same bytes read, same final file contents.
TEST(BcacheTest, GenericAndSynthesizedAgreeUnderRandomSchedules) {
  for (uint32_t seed : {7u, 21u, 99u}) {
    BcacheConfig bcfg;
    bcfg.entries = 16;  // small enough that the schedule forces eviction
    Stack synth(bcfg);
    Stack generic(bcfg, GenericConfig());

    const uint32_t kCap = 16 * 1024;
    ASSERT_NE(synth.fs.CreateFile("/f", {}, kCap), 0u);
    ASSERT_NE(generic.fs.CreateFile("/f", {}, kCap), 0u);
    ChannelId cs = synth.io.Open("/f");
    ChannelId cg = generic.io.Open("/f");
    ASSERT_NE(cs, kBadChannel);
    ASSERT_NE(cg, kBadChannel);

    std::mt19937 rng(seed);
    std::vector<uint8_t> model(kCap, 0);
    uint32_t model_size = 0;
    for (int op = 0; op < 120; ++op) {
      const uint32_t pos = rng() % kCap;
      const uint32_t n = 1 + rng() % 1500;  // straddles block boundaries
      synth.Seek(cs, pos);
      generic.Seek(cg, pos);
      if (rng() % 2 == 0) {
        const std::string data = Pattern(n, rng());
        synth.Stage(data);
        generic.Stage(data);
        const int32_t rs = synth.io.Write(cs, synth.buf, n);
        const int32_t rg = generic.io.Write(cg, generic.buf, n);
        ASSERT_EQ(rs, rg) << "write returns diverge at op " << op;
        if (rs > 0) {
          std::memcpy(model.data() + pos, data.data(),
                      static_cast<size_t>(rs));
          model_size = std::max(model_size, pos + static_cast<uint32_t>(rs));
        }
      } else {
        const int32_t rs = synth.io.Read(cs, synth.buf, n);
        const int32_t rg = generic.io.Read(cg, generic.buf, n);
        ASSERT_EQ(rs, rg) << "read returns diverge at op " << op;
        if (rs > 0) {
          ASSERT_EQ(synth.Fetch(static_cast<uint32_t>(rs)),
                    generic.Fetch(static_cast<uint32_t>(rs)))
              << "read bytes diverge at op " << op;
        }
      }
    }

    // Full-file readback on both stacks matches the host-side model.
    const std::string expect(reinterpret_cast<const char*>(model.data()),
                             model_size);
    for (Stack* s : {&synth, &generic}) {
      ChannelId ch = (s == &synth) ? cs : cg;
      s->Seek(ch, 0);
      ASSERT_EQ(s->io.Read(ch, s->buf, kCap),
                static_cast<int32_t>(model_size));
      EXPECT_EQ(s->Fetch(model_size), expect) << "seed " << seed;
      s->io.Close(ch);
    }
  }
}

TEST(BcacheTest, WriteBehindFlushesDirtyBlocksInTheBackground) {
  Stack s;
  ASSERT_NE(s.fs.CreateFile("/wb", {}, 8192), 0u);
  ChannelId ch = s.io.Open("/wb");
  ASSERT_NE(ch, kBadChannel);

  const std::string data = Pattern(1536, 11);  // three full blocks
  s.Stage(data);
  ASSERT_EQ(s.io.Write(ch, s.buf, 1536), 1536);

  // Write-behind: the bytes are acknowledged but only in cache — the platter
  // backing store does not contain the pattern yet.
  EXPECT_GT(s.bc.dirty_blocks(), 0u);
  EXPECT_TRUE(s.bc.flusher_armed());
  const auto& backing = s.disk.backing();
  auto on_platter = [&] {
    return std::search(backing.begin(), backing.end(), data.begin(),
                       data.end()) != backing.end();
  };
  EXPECT_FALSE(on_platter()) << "acknowledged write must not be synchronous";

  // The alarm-driven flusher drains every dirty entry without any further
  // syscalls; once clean, the bytes are on the platter and the flusher
  // disarms so the kernel can idle.
  s.DrainFlusher();
  EXPECT_EQ(s.bc.dirty_blocks(), 0u);
  EXPECT_GE(s.bc.flushes(), 3u);
  EXPECT_TRUE(on_platter()) << "flusher wrote the dirty blocks back";
  s.io.Close(ch);
}

TEST(BcacheTest, FsyncPersistsDataAndSizeAcrossEviction) {
  Stack s;
  const uint32_t fid = s.fs.CreateFile("/dur", {}, 4096);
  ASSERT_NE(fid, 0u);
  ChannelId ch = s.io.Open("/dur");
  ASSERT_NE(ch, kBadChannel);

  const std::string data = Pattern(700, 5);
  s.Stage(data);
  ASSERT_EQ(s.io.Write(ch, s.buf, 700), 700);
  EXPECT_EQ(s.io.Fsync(ch), 0);
  EXPECT_EQ(s.bc.dirty_blocks(), 0u) << "fsync leaves nothing dirty";
  s.io.Close(ch);

  // Eviction drops every cached block; the reopened file must come back
  // from the platter with the synced bytes and size.
  s.fs.Evict(fid);
  EXPECT_EQ(s.bc.resident_blocks(), 0u);
  EXPECT_EQ(s.fs.SizeOf(fid), 700u);
  ch = s.io.Open("/dur");
  ASSERT_NE(ch, kBadChannel);
  ASSERT_EQ(s.io.Read(ch, s.buf, 4096), 700);
  EXPECT_EQ(s.Fetch(700), data);
  s.io.Close(ch);
}

TEST(BcacheTest, EvictionKeepsOccupancyExactUnderChurn) {
  BcacheConfig bcfg;
  bcfg.entries = 8;
  bcfg.read_ahead = 0;  // occupancy accounting only, no prefetch noise
  Stack s(bcfg);

  // A file four times larger than the cache, hammered through open/close
  // churn: every pass evicts, and the occupancy gauges must stay exact.
  const uint32_t kCap = 32 * 512;
  ASSERT_NE(s.fs.CreateFile("/churn", {}, kCap), 0u);
  std::mt19937 rng(17);
  std::vector<uint8_t> model(kCap, 0);
  uint32_t model_size = 0;
  for (int pass = 0; pass < 6; ++pass) {
    ChannelId ch = s.io.Open("/churn");
    ASSERT_NE(ch, kBadChannel);
    for (int op = 0; op < 40; ++op) {
      const uint32_t block = rng() % 32;
      const uint32_t pos = block * 512;
      s.Seek(ch, pos);
      const std::string data = Pattern(512, rng());
      s.Stage(data);
      ASSERT_EQ(s.io.Write(ch, s.buf, 512), 512);
      std::memcpy(model.data() + pos, data.data(), 512);
      model_size = std::max(model_size, pos + 512);

      // Occupancy exactness: the gauge equals a from-scratch count of
      // resident tags and never exceeds the fixed entry pool.
      uint32_t counted = 0;
      for (uint32_t b = 0; b < 256; ++b) {
        counted += s.bc.Resident(b) ? 1 : 0;
      }
      ASSERT_EQ(s.bc.resident_blocks(), counted);
      ASSERT_LE(s.bc.resident_blocks(), bcfg.entries);
      ASSERT_LE(s.bc.dirty_blocks(), s.bc.resident_blocks());
    }
    s.io.Close(ch);
  }
  EXPECT_GT(s.bc.evictions(), 0u) << "the schedule must have forced eviction";

  // No acknowledged write was dropped by eviction: full readback matches.
  ChannelId ch = s.io.Open("/churn");
  ASSERT_NE(ch, kBadChannel);
  ASSERT_EQ(s.io.Read(ch, s.buf, kCap), static_cast<int32_t>(model_size));
  EXPECT_EQ(s.Fetch(model_size),
            std::string(reinterpret_cast<const char*>(model.data()),
                        model_size));
  s.io.Close(ch);
}

TEST(BcacheTest, SequentialReadTriggersReadAheadAndBytesMatch) {
  BcacheConfig ahead_cfg;
  ahead_cfg.read_ahead = 4;
  BcacheConfig plain_cfg;
  plain_cfg.read_ahead = 0;
  Stack ahead(ahead_cfg);
  Stack plain(plain_cfg);

  const std::string body = Pattern(16 * 512, 29);
  for (Stack* s : {&ahead, &plain}) {
    ASSERT_NE(s->fs.CreateFile("/seq", Bytes(body), 16 * 512), 0u);
    // Persist contents to the platter and drop the cache so both stacks
    // start cold (CreateFile under a bcache stages through the cache).
    const uint32_t fid = s->fs.LookupId("/seq");
    s->fs.FsyncFile(fid);
    s->fs.Evict(fid);
    ASSERT_EQ(s->bc.resident_blocks(), 0u);
  }

  for (Stack* s : {&ahead, &plain}) {
    ChannelId ch = s->io.Open("/seq");
    ASSERT_NE(ch, kBadChannel);
    std::string got;
    for (int b = 0; b < 16; ++b) {
      ASSERT_EQ(s->io.Read(ch, s->buf, 512), 512);
      got += s->Fetch(512);
    }
    EXPECT_EQ(got, body) << "read-ahead must never corrupt the byte stream";
    s->io.Close(ch);
  }

  // The detector saw a sequential run, prefetched, and the prefetched blocks
  // absorbed misses: strictly fewer platter round trips than block count.
  EXPECT_GT(ahead.bc.read_ahead_issued(), 0u);
  EXPECT_LT(ahead.bc.misses(), plain.bc.misses());
  EXPECT_EQ(plain.bc.read_ahead_issued(), 0u);
}

TEST(BcacheTest, AllocFailureRollsBackToAPartialResult) {
  const std::string body = Pattern(4 * 512, 13);
  // The cold 4-block read's first allocation is block 0's own claim and the
  // second is the run's claim for block 1. Refusing only that run claim
  // shortens the run to block 0: the next miss claims blocks 1..3 and the
  // read completes exactly. Refusing the next miss's own claim as well
  // (allocation 3) stops the read with a clean partial result.
  for (bool own_refused : {false, true}) {
    Stack s;
    ASSERT_NE(s.CreateCold("/frail", body), 0u);
    FaultTrigger t;
    t.schedule = own_refused ? std::vector<uint64_t>{2, 3}
                             : std::vector<uint64_t>{2};
    s.k.faults().Arm(FaultSite::kBcacheAlloc, t);
    ChannelId ch = s.io.Open("/frail");
    ASSERT_NE(ch, kBadChannel);
    if (own_refused) {
      EXPECT_EQ(s.io.Read(ch, s.buf, 4 * 512), 512)
          << "bytes already copied are returned; the failed fill stops the read";
      EXPECT_EQ(s.Fetch(512), body.substr(0, 512));
      EXPECT_EQ(s.bc.alloc_failures(), 1u);
    } else {
      const uint64_t before = s.disk.requests_completed();
      EXPECT_EQ(s.io.Read(ch, s.buf, 4 * 512), 4 * 512)
          << "a refused run claim only shortens the run";
      EXPECT_EQ(s.Fetch(4 * 512), body);
      EXPECT_EQ(s.bc.alloc_failures(), 0u);
      EXPECT_EQ(s.disk.requests_completed() - before, 2u)
          << "block 0 alone, then blocks 1..3 in one run";
    }

    // With the fault disarmed the retry completes and the cache is coherent.
    s.k.faults().Disarm(FaultSite::kBcacheAlloc);
    s.Seek(ch, 0);
    ASSERT_EQ(s.io.Read(ch, s.buf, 4 * 512), 4 * 512);
    EXPECT_EQ(s.Fetch(4 * 512), body);
    s.io.Close(ch);
  }
}

// A read miss is one disk request: the call's missing blocks travel
// together, with or without read-ahead, from an aligned or unaligned start.
TEST(BcacheTest, ColdMultiBlockReadIsOneDiskRequest) {
  for (uint32_t ahead : {8u, 0u}) {
    BcacheConfig bcfg;
    bcfg.read_ahead = ahead;
    Stack s(bcfg);
    const std::string body = Pattern(16 * 512, 41);
    ASSERT_NE(s.CreateCold("/wide", body), 0u);
    ChannelId ch = s.io.Open("/wide");
    ASSERT_NE(ch, kBadChannel);

    uint64_t before = s.disk.requests_completed();
    ASSERT_EQ(s.io.Read(ch, s.buf, 4 * 512), 4 * 512);
    EXPECT_EQ(s.Fetch(4 * 512), body.substr(0, 4 * 512));
    EXPECT_EQ(s.disk.requests_completed() - before, 1u) << "ahead " << ahead;
    EXPECT_EQ(s.bc.misses(), 1u);
    EXPECT_EQ(s.bc.resident_blocks(), 4u) << "the call's span and no more";
    EXPECT_EQ(s.bc.read_ahead_issued(), 0u);

    // 2000 bytes from byte 300 of block 8 straddle blocks 8..12.
    s.Seek(ch, 8 * 512 + 300);
    before = s.disk.requests_completed();
    ASSERT_EQ(s.io.Read(ch, s.buf, 2000), 2000);
    EXPECT_EQ(s.Fetch(2000), body.substr(8 * 512 + 300, 2000));
    EXPECT_EQ(s.disk.requests_completed() - before, 1u) << "ahead " << ahead;
    EXPECT_EQ(s.bc.resident_blocks(), 9u);
    s.io.Close(ch);
  }
}

// A resident dirty block inside a read's span ends the run: the platter
// copy must never overwrite it. The blocks on either side are filled by
// their own runs, and the read returns the dirty bytes.
TEST(BcacheTest, RunFillStopsAtADirtyResidentBlock) {
  BcacheConfig bcfg;
  bcfg.flush_period_us = 1e9;  // keep write-behind out of the request count
  Stack s(bcfg);
  const std::string body = Pattern(4 * 512, 43);
  ASSERT_NE(s.CreateCold("/mid", body), 0u);
  ChannelId ch = s.io.Open("/mid");
  ASSERT_NE(ch, kBadChannel);

  const std::string dirty = Pattern(512, 44);
  s.Seek(ch, 512);
  s.Stage(dirty);
  const uint64_t before = s.disk.requests_completed();
  ASSERT_EQ(s.io.Write(ch, s.buf, 512), 512);  // whole block: no platter read
  ASSERT_EQ(s.bc.dirty_blocks(), 1u);

  s.Seek(ch, 0);
  ASSERT_EQ(s.io.Read(ch, s.buf, 4 * 512), 4 * 512);
  EXPECT_EQ(s.Fetch(4 * 512), body.substr(0, 512) + dirty + body.substr(1024));
  EXPECT_EQ(s.disk.requests_completed() - before, 2u)
      << "block 0, then blocks 2..3: one request each";
  EXPECT_EQ(s.bc.dirty_blocks(), 1u) << "the dirty block was never re-read";
  EXPECT_EQ(s.bc.resident_blocks(), 4u);
  s.io.Close(ch);
}

// The read-ahead window is clamped to the file's extent, and a read never
// fills past EOF: the blocks behind them belong to another file or to no
// byte the call can return.
TEST(BcacheTest, ReadAheadWindowNeverClaimsPastTheExtent) {
  Stack s;  // read_ahead 8
  const std::string body = Pattern(6 * 512, 45);
  ASSERT_NE(s.CreateCold("/tail", body), 0u);
  ASSERT_NE(s.CreateCold("/next", Pattern(8 * 512, 46)), 0u);
  ChannelId ch = s.io.Open("/tail");
  ASSERT_NE(ch, kBadChannel);
  std::string got;
  for (int b = 0; b < 6; ++b) {
    ASSERT_EQ(s.io.Read(ch, s.buf, 512), 512);
    got += s.Fetch(512);
  }
  EXPECT_EQ(got, body);
  EXPECT_EQ(s.io.Read(ch, s.buf, 512), 0) << "EOF";
  EXPECT_EQ(s.bc.resident_blocks(), 6u) << "nothing of /next was claimed";
  EXPECT_EQ(s.bc.read_ahead_issued(), 4u) << "blocks 2..5, clamped at the extent";
  s.io.Close(ch);

  // 700 bytes in a 4 KB extent: a 4 KB read fills blocks 0..1 only.
  const uint32_t fid = s.fs.CreateFile("/short", Bytes(Pattern(700, 47)), 4096);
  ASSERT_NE(fid, 0u);
  s.fs.FsyncFile(fid);
  s.fs.Evict(fid);
  const uint32_t resident = s.bc.resident_blocks();
  ch = s.io.Open("/short");
  ASSERT_NE(ch, kBadChannel);
  ASSERT_EQ(s.io.Read(ch, s.buf, 4096), 700);
  EXPECT_EQ(s.Fetch(700), Pattern(700, 47));
  EXPECT_EQ(s.bc.resident_blocks() - resident, 2u) << "no fill past EOF";
  s.io.Close(ch);
}

// A cold 64-block scan with read_ahead 8: the first miss fills one block,
// and every later miss fills itself plus the 8-block window in one request.
TEST(BcacheTest, SequentialScanCostsOneRequestPerWindow) {
  Stack s;  // 64 entries, read_ahead 8
  const std::string body = Pattern(64 * 512, 48);
  ASSERT_NE(s.CreateCold("/scan", body), 0u);
  ChannelId ch = s.io.Open("/scan");
  ASSERT_NE(ch, kBadChannel);
  const uint64_t before = s.disk.requests_completed();
  std::string got;
  for (int b = 0; b < 64; ++b) {
    ASSERT_EQ(s.io.Read(ch, s.buf, 512), 512);
    got += s.Fetch(512);
  }
  EXPECT_EQ(got, body);
  EXPECT_LE(s.disk.requests_completed() - before, 1u + (63 + 8) / 9)
      << "1 + ceil(63 / 9) requests";
  s.io.Close(ch);
}

// Prefetched blocks enter the clock unreferenced and settle once: as a hit
// when a reader set the ref bit, as waste when they leave the cache unread.
TEST(BcacheTest, ReadAheadHitsCountPrefetchedBlocksAReaderUsed) {
  BcacheConfig bcfg;
  bcfg.entries = 16;  // the scan's clock sweep settles most windows
  Stack s(bcfg);
  const std::string body = Pattern(64 * 512, 49);
  const uint32_t fid = s.CreateCold("/used", body);
  ASSERT_NE(fid, 0u);
  ChannelId ch = s.io.Open("/used");
  ASSERT_NE(ch, kBadChannel);
  std::string got;
  for (int b = 0; b < 64; ++b) {
    ASSERT_EQ(s.io.Read(ch, s.buf, 512), 512);
    got += s.Fetch(512);
  }
  EXPECT_EQ(got, body);
  s.io.Close(ch);
  s.fs.Evict(fid);  // settles the windows still resident
  EXPECT_GT(s.bc.read_ahead_issued(), 0u);
  EXPECT_EQ(s.bc.read_ahead_hits(), s.bc.read_ahead_issued())
      << "a full cold scan reads every prefetched block";
  EXPECT_EQ(s.bc.read_ahead_wasted(), 0u);

  // Two sequential reads prefetch a window nobody reads: all of it is waste.
  const uint64_t issued = s.bc.read_ahead_issued();
  const uint64_t hits = s.bc.read_ahead_hits();
  ch = s.io.Open("/used");
  ASSERT_NE(ch, kBadChannel);
  ASSERT_EQ(s.io.Read(ch, s.buf, 512), 512);
  ASSERT_EQ(s.io.Read(ch, s.buf, 512), 512);
  s.io.Close(ch);
  s.fs.Evict(fid);
  EXPECT_EQ(s.bc.read_ahead_issued() - issued, 8u);
  EXPECT_EQ(s.bc.read_ahead_wasted(), 8u);
  EXPECT_EQ(s.bc.read_ahead_hits(), hits);
}

TEST(BcacheDeathTest, BadGeometryAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Kernel k;
        DiskDevice disk(k);
        DiskScheduler sched(disk);
        BcacheConfig cfg;
        cfg.entries = 24;  // not a power of two
        Bcache bc(k, disk, sched, cfg);
      },
      "powers of two");
  EXPECT_DEATH(
      {
        Kernel k;
        DiskDevice disk(k);
        DiskScheduler sched(disk);
        BcacheConfig cfg;
        cfg.block_bytes = 768;  // not a power of two, not sector-aligned
        Bcache bc(k, disk, sched, cfg);
      },
      "powers of two");
  EXPECT_DEATH(
      {
        Kernel k;
        DiskGeometry g;
        g.sector_bytes = 300;  // not a power of two
        DiskDevice disk(k, g);
      },
      "power of two");
}

}  // namespace
}  // namespace synthesis
