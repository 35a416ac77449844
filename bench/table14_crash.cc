// Table 14 (extension): crash consistency of the write-behind cache + intent
// journal. Part 1 sweeps >= 64 seeded power-fail points through a random
// write/fsync/churn schedule — each run freezes the platter mid-flight,
// reboots a fresh stack on the image, replays the journal, audits the file
// system, and checks every fsynced byte against a host golden model. Part 2
// prices the journal: sustained write+fsync throughput with the intent
// journal attached vs the bare write-behind cache. Part 3 reports what a
// crash mount costs: journal records replayed and virtual time spent.
//
// All three parts self-enforce and exit nonzero on regression:
//   * zero fsynced bytes lost across every crash point
//   * every remount (crashed or clean) comes back auditor-clean
//   * journal-on write throughput >= 0.85x journal-off
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fs/bcache.h"
#include "src/fs/disk.h"
#include "src/fs/file_system.h"
#include "src/io/channel.h"
#include "src/io/crash_harness.h"
#include "src/io/io_system.h"
#include "src/kernel/fault_plane.h"

namespace synthesis {
namespace {

constexpr uint32_t kBlock = 512;
constexpr uint32_t kCap = 16 * kBlock;

CrashStackConfig SweepCfg() {
  CrashStackConfig c;
  c.disk.sectors = 8192;
  c.bcache.entries = 16;
  c.bcache.flush_period_us = 10'000;
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

// Host golden model under crash semantics: a surviving byte below the fsynced
// size must be its value at the last completed fsync or some value written
// after it (the flusher may push newer bytes home before the power fails).
struct Golden {
  explicit Golden(uint32_t cap) : fsynced(cap, 0), extra(cap) {}

  void NoteWrite(uint32_t pos, const std::string& data) {
    for (uint32_t i = 0; i < data.size(); ++i) {
      extra[pos + i].push_back(static_cast<uint8_t>(data[i]));
    }
    size = std::max<uint32_t>(size, pos + static_cast<uint32_t>(data.size()));
  }
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

  std::vector<uint8_t> fsynced;
  std::vector<std::vector<uint8_t>> extra;
  uint32_t size = 0;
  uint32_t fsynced_size = 0;
};

void Seek(CrashStack& s, IoSystem& io, ChannelId ch, uint32_t pos) {
  s.kernel.machine().memory().Write32(
      io.RecordOf(ch) + ChannelLayout::kPosition, pos);
}

struct SweepOutcome {
  bool crashed = false;
  bool mount_ok = false;
  bool audit_clean = false;
  uint64_t lost_bytes = 0;
  uint64_t checked_bytes = 0;
  uint32_t replayed_records = 0;
  double replay_us = 0;
};

// One life + reboot: drive the schedule until the power fails or it ends,
// then power on the surviving image and diff against the golden model.
SweepOutcome RunCrashPoint(uint64_t visit, uint32_t seed) {
  CrashHarness h(SweepCfg());
  Golden g(kCap);
  SweepOutcome out;
  {
    CrashStack& s = h.stack();
    FaultTrigger t;
    t.schedule = {visit};
    s.kernel.faults().Arm(FaultSite::kPowerFail, t);
    Addr buf = s.kernel.allocator().Allocate(kCap + 4096);
    if (s.fs.CreateFile("/crash", {}, kCap) == 0) {
      std::fprintf(stderr, "table14: CreateFile failed\n");
      std::exit(1);
    }
    ChannelId ch = s.io.Open("/crash");
    std::mt19937 rng(seed * 2654435761u + 7);
    for (int op = 0; op < 60 && !h.Crashed(); ++op) {
      const uint32_t kind = rng() % 8;
      if (kind < 5) {
        const uint32_t pos = rng() % (kCap - kBlock);
        const uint32_t len = 64 + rng() % kBlock;
        const std::string data = Pattern(len, rng());
        Seek(s, s.io, ch, pos);
        s.kernel.machine().memory().WriteBytes(buf, data.data(), data.size());
        const int32_t w = s.io.Write(ch, buf, len);
        if (w > 0) {
          g.NoteWrite(pos, data.substr(0, static_cast<size_t>(w)));
        }
      } else if (kind < 7) {
        s.io.Fsync(ch);
        if (!h.Crashed()) {
          g.NoteFsync();
        }
      } else {
        Seek(s, s.io, ch, 0);
        s.io.Read(ch, buf, 4 * kBlock);
        DiskScheduler::DriveUntil(
            s.kernel, [&] { return s.bcache.dirty_blocks() == 0; });
      }
    }
    if (!h.Crashed()) {
      s.io.Fsync(ch);
      if (!h.Crashed()) {
        g.NoteFsync();
      }
    }
    out.crashed = h.Crashed();
  }

  FileSystem::MountReport rep = h.Reboot();
  out.mount_ok = rep.ok;
  out.audit_clean = rep.audit_clean;
  out.replayed_records = rep.replayed_records;
  out.replay_us = rep.replay_us;
  if (!rep.ok || !rep.audit_clean) {
    return out;
  }
  CrashStack& s = h.stack();
  s.kernel.faults().DisarmAll();
  uint32_t id = 0;
  if (!s.fs.names().Lookup("/crash", &id) || s.fs.SizeOf(id) < g.fsynced_size) {
    out.lost_bytes += g.fsynced_size;
    return out;
  }
  const uint32_t size = s.fs.SizeOf(id);
  Addr buf = s.kernel.allocator().Allocate(kCap + 4096);
  ChannelId ch = s.io.Open("/crash");
  if (s.io.Read(ch, buf, kCap) != static_cast<int32_t>(size)) {
    out.lost_bytes += g.fsynced_size;
    return out;
  }
  std::vector<uint8_t> got(size);
  if (size > 0) {  // data() of an empty vector is null; memcpy rejects it
    s.kernel.machine().memory().ReadBytes(buf, got.data(), size);
  }
  for (uint32_t i = 0; i < g.fsynced_size; ++i) {
    out.checked_bytes++;
    if (!g.ByteOk(i, got[i])) {
      out.lost_bytes++;
    }
  }
  return out;
}

// Part 2: sustained write+fsync throughput, journal on vs off. Identical
// schedules; the only variable is the intent journal in front of the home
// writes. flush_batch=16 lets the journal coalesce a full batch per commit.
double MeasureWriteRate(bool journaled) {
  CrashStackConfig c;
  c.disk.sectors = 16384;
  // Headroom above the 64-block file: at exact capacity every pass-1 write
  // waits on an eviction and the flusher dribbles the cache out in
  // rotation-sized crumbs before fsync can batch it.
  c.bcache.entries = 128;
  c.bcache.flush_period_us = 5'000;
  c.bcache.flush_batch = 16;
  // Pure write workload: the sequential-miss detector would otherwise
  // prefetch every block this loop is about to overwrite, and later writes
  // stall on those pointless in-flight reads.
  c.bcache.read_ahead = 0;
  // Sized so no checkpoint stall lands inside the measured passes: 16
  // batches of descriptor+16 payloads+commit fit without wrapping.
  c.journal.sectors = 1024;
  c.journaled = journaled;
  CrashHarness h(c);
  CrashStack& s = h.stack();
  constexpr uint32_t kBlocks = 64;
  constexpr uint32_t kBytes = kBlocks * kBlock;
  if (s.fs.CreateFile("/rate", {}, kBytes) == 0) {
    std::fprintf(stderr, "table14: CreateFile failed\n");
    std::exit(1);
  }
  ChannelId ch = s.io.Open("/rate");
  Addr buf = s.kernel.allocator().Allocate(kBytes);
  const std::string body = Pattern(kBytes, 3);
  s.kernel.machine().memory().WriteBytes(buf, body.data(), body.size());
  constexpr int kPasses = 4;
  const double t0 = s.kernel.NowUs();
  for (int pass = 0; pass < kPasses; ++pass) {
    Seek(s, s.io, ch, 0);
    if (s.io.Write(ch, buf, kBytes) != static_cast<int32_t>(kBytes)) {
      std::fprintf(stderr, "table14: rate write failed\n");
      std::exit(1);
    }
    if (s.io.Fsync(ch) != 0) {
      std::fprintf(stderr, "table14: rate fsync failed\n");
      std::exit(1);
    }
  }
  const double elapsed = s.kernel.NowUs() - t0;
  return double(kPasses) * kBytes / elapsed;  // bytes per virtual us
}

void Main() {
  // --- Part 1: the crash sweep --------------------------------------------
  constexpr int kPoints = 64;
  int crashes = 0;
  int clean_mounts = 0;
  uint64_t lost = 0;
  uint64_t checked = 0;
  uint64_t records = 0;
  double replay_us = 0;
  int crash_mounts_with_replay = 0;
  for (int p = 1; p <= kPoints; ++p) {
    SweepOutcome o = RunCrashPoint(/*visit=*/uint64_t(p),
                                   /*seed=*/uint32_t(p));
    crashes += o.crashed ? 1 : 0;
    clean_mounts += (o.mount_ok && o.audit_clean) ? 1 : 0;
    lost += o.lost_bytes;
    checked += o.checked_bytes;
    if (o.crashed) {
      records += o.replayed_records;
      replay_us += o.replay_us;
      crash_mounts_with_replay++;
    }
  }

  PrintHeader("Table 14: crash durability, 64 seeded power-fail points",
              "exposed", "survived");
  PrintRow("fsynced bytes intact after remount", double(checked),
           double(checked - lost), "B");
  PrintRow("auditor-clean remounts", double(kPoints), double(clean_mounts),
           "");
  PrintNote("each point freezes the platter exactly as the completion");
  PrintNote("interrupts landed it (in-flight DMA torn at sector granularity),");
  PrintNote("reboots on the image, replays the intent journal, and diffs the");
  PrintNote("file against a host golden model of the fsynced bytes.");

  // --- Part 2: the journal's price ----------------------------------------
  const double off_rate = MeasureWriteRate(/*journaled=*/false);
  const double on_rate = MeasureWriteRate(/*journaled=*/true);
  PrintHeader("Table 14b: write+fsync throughput (MB/s)", "journal off",
              "journal on");
  PrintRow("64-block rewrite passes, batch 16", off_rate, on_rate, "MB/s");
  PrintNote("the journal writes descriptor+payloads+commit as ONE coalesced");
  PrintNote("request ahead of the home writes, so a 16-block batch pays one");
  PrintNote("extra rotation, not sixteen.");

  // --- Part 3: recovery cost ----------------------------------------------
  const double mean_records =
      crash_mounts_with_replay ? double(records) / crash_mounts_with_replay : 0;
  const double mean_replay_us =
      crash_mounts_with_replay ? replay_us / crash_mounts_with_replay : 0;
  PrintHeader("Table 14c: mount-time recovery cost (per crash mount)",
              "records", "us");
  PrintRowUnits("mean journal replay", mean_records, "records",
                mean_replay_us, "us");
  PrintNote("committed-but-unapplied records re-land at their home sectors;");
  PrintNote("torn tails past the last commit are discarded by checksum.");

  // --- Acceptance gates ----------------------------------------------------
  if (crashes < 40) {
    std::fprintf(stderr,
                 "table14: VACUOUS only %d of %d points actually lost power\n",
                 crashes, kPoints);
    std::exit(1);
  }
  if (lost != 0) {
    std::fprintf(stderr,
                 "table14: REGRESSION %llu fsynced bytes lost across %d "
                 "crash points (need 0)\n",
                 static_cast<unsigned long long>(lost), kPoints);
    std::exit(1);
  }
  if (clean_mounts != kPoints) {
    std::fprintf(stderr,
                 "table14: REGRESSION %d of %d remounts auditor-clean "
                 "(need 100%%)\n",
                 clean_mounts, kPoints);
    std::exit(1);
  }
  if (on_rate < 0.85 * off_rate) {
    std::fprintf(stderr,
                 "table14: REGRESSION journal-on write rate %.4f MB/us vs "
                 "journal-off %.4f (need >= 0.85x)\n",
                 on_rate, off_rate);
    std::exit(1);
  }
}

}  // namespace
}  // namespace synthesis

int main() {
  synthesis::Main();
  synthesis::WriteBenchJson("BENCH_crash.json");
  return 0;
}
