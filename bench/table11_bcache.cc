// Table 11 (extension): the buffer-cache file system. Part 1 measures the
// warm cache-hit read path in instructions per block — the synthesized per-fd
// path (map base, entry mask, extent start folded to immediates; unrolled
// MOVEM block copy) against the interpreted layered path that walks the cache
// descriptor load by load. Part 2 measures cold sequential scan throughput
// and disk requests with read-ahead on vs off: each miss fills itself and
// the read-ahead window in one multi-block request, amortizing the
// per-request half-rotation that dominates single-block reads. Part 4
// counts the disk requests of one cold 4-block read(2).
//
// Each part self-enforces its acceptance numbers and exits nonzero on
// regression:
//   * synthesized warm hit <= 0.6x the generic layered instructions/block
//   * read-ahead sequential scan >= 1.5x the uncached (no-prefetch) rate
//   * the 64-block scan at read-ahead 8 takes <= 1 + ceil(63/9) = 8 requests
//   * a cold 4-block read takes 1 request
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fs/bcache.h"
#include "src/fs/disk.h"
#include "src/fs/file_system.h"
#include "src/io/channel.h"
#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/machine/machine.h"

namespace synthesis {
namespace {

constexpr uint32_t kBlock = 512;

struct Stack {
  Stack(bool synthesized, uint32_t read_ahead)
      : k(MakeCfg(synthesized)),
        disk(k),
        sched(disk),
        fs(k, disk, sched),
        bc(k, disk, sched, MakeBc(read_ahead)),
        io(k, &fs) {
    fs.AttachBcache(&bc);
    buf = k.allocator().Allocate(64 * 1024);
  }

  static Kernel::Config MakeCfg(bool synthesized) {
    Kernel::Config c;
    if (!synthesized) {
      c.synthesis = SynthesisOptions::Disabled();
    }
    return c;
  }
  static BcacheConfig MakeBc(uint32_t read_ahead) {
    BcacheConfig c;
    c.entries = 128;  // larger than any bench file: warm runs never evict
    c.block_bytes = kBlock;
    c.read_ahead = read_ahead;
    return c;
  }

  // Creates the file, pushes its contents to the platter, and drops the
  // cache, so every stack starts from the same cold state.
  uint32_t MakeColdFile(const std::string& name, uint32_t blocks) {
    std::vector<uint8_t> body(static_cast<size_t>(blocks) * kBlock);
    for (size_t i = 0; i < body.size(); i++) {
      body[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    uint32_t id = fs.CreateFile(name, body, static_cast<uint32_t>(body.size()));
    if (id == 0) {
      std::fprintf(stderr, "table11: CreateFile failed\n");
      std::exit(1);
    }
    fs.FsyncFile(id);
    fs.Evict(id);
    if (bc.resident_blocks() != 0) {
      std::fprintf(stderr, "table11: cache not cold after evict\n");
      std::exit(1);
    }
    return id;
  }

  void Seek(ChannelId ch, uint32_t pos) {
    k.machine().memory().Write32(io.RecordOf(ch) + ChannelLayout::kPosition,
                                 pos);
  }

  Kernel k;
  DiskDevice disk;
  DiskScheduler sched;
  FileSystem fs;
  Bcache bc;
  IoSystem io;
  Addr buf = 0;
};

// Part 1: block-aligned reads of a fully-resident file — the pure cache-hit
// path, in instructions per block.
double MeasureWarmHit(bool synthesized) {
  Stack s(synthesized, /*read_ahead=*/0);
  constexpr uint32_t kBlocks = 32;
  s.MakeColdFile("/warm", kBlocks);
  ChannelId ch = s.io.Open("/warm");
  if (ch == kBadChannel) {
    std::fprintf(stderr, "table11: open failed\n");
    std::exit(1);
  }
  // Warm every block, then verify the measured loop is miss-free.
  if (s.io.Read(ch, s.buf, kBlocks * kBlock) !=
      static_cast<int32_t>(kBlocks * kBlock)) {
    std::fprintf(stderr, "table11: warm-up read came up short\n");
    std::exit(1);
  }
  const uint64_t misses_before = s.bc.misses();
  constexpr uint32_t kReps = 4;
  Stopwatch sw(s.k.machine());
  for (uint32_t rep = 0; rep < kReps; rep++) {
    s.Seek(ch, 0);
    for (uint32_t b = 0; b < kBlocks; b++) {
      if (s.io.Read(ch, s.buf, kBlock) != static_cast<int32_t>(kBlock)) {
        std::fprintf(stderr, "table11: warm read failed at block %u\n", b);
        std::exit(1);
      }
    }
  }
  const double per =
      static_cast<double>(sw.instructions()) / (kReps * kBlocks);
  if (s.bc.misses() != misses_before) {
    std::fprintf(stderr, "table11: measured loop was not pure hits\n");
    std::exit(1);
  }
  s.io.Close(ch);
  return per;
}

struct ScanCost {
  double us = 0;          // virtual elapsed time
  uint64_t requests = 0;  // disk requests completed
};

// Part 2: cold sequential scan of 512 B reads. With read-ahead each miss
// fills itself and the upcoming window in one request; without it every
// block pays its own disk latency.
ScanCost MeasureSequentialScan(uint32_t read_ahead) {
  Stack s(/*synthesized=*/true, read_ahead);
  constexpr uint32_t kBlocks = 64;
  s.MakeColdFile("/scan", kBlocks);
  ChannelId ch = s.io.Open("/scan");
  if (ch == kBadChannel) {
    std::fprintf(stderr, "table11: open failed\n");
    std::exit(1);
  }
  const uint64_t r0 = s.disk.requests_completed();
  const double t0 = s.k.NowUs();
  for (uint32_t b = 0; b < kBlocks; b++) {
    if (s.io.Read(ch, s.buf, kBlock) != static_cast<int32_t>(kBlock)) {
      std::fprintf(stderr, "table11: scan read failed at block %u\n", b);
      std::exit(1);
    }
  }
  const ScanCost cost{s.k.NowUs() - t0, s.disk.requests_completed() - r0};
  if (read_ahead > 0 && s.bc.read_ahead_issued() == 0) {
    std::fprintf(stderr, "table11: read-ahead never engaged\n");
    std::exit(1);
  }
  s.io.Close(ch);
  return cost;
}

// Part 4: disk requests for one cold read(2) of 4 blocks. The call's missing
// blocks travel in one request.
uint64_t MeasureColdReadRequests() {
  Stack s(/*synthesized=*/true, /*read_ahead=*/8);
  constexpr uint32_t kBlocks = 4;
  s.MakeColdFile("/cold", 4 * kBlocks);
  ChannelId ch = s.io.Open("/cold");
  if (ch == kBadChannel) {
    std::fprintf(stderr, "table11: open failed\n");
    std::exit(1);
  }
  const uint64_t r0 = s.disk.requests_completed();
  if (s.io.Read(ch, s.buf, kBlocks * kBlock) !=
      static_cast<int32_t>(kBlocks * kBlock)) {
    std::fprintf(stderr, "table11: cold 4-block read came up short\n");
    std::exit(1);
  }
  const Memory& mem = s.k.machine().memory();
  for (uint32_t i = 0; i < kBlocks * kBlock; i++) {
    if (mem.Read8(s.buf + i) != static_cast<uint8_t>(i * 131 + 7)) {
      std::fprintf(stderr, "table11: cold 4-block read byte %u wrong\n", i);
      std::exit(1);
    }
  }
  const uint64_t requests = s.disk.requests_completed() - r0;
  s.io.Close(ch);
  return requests;
}

// Part 3 (informational): write acknowledge latency under write-behind vs
// the synchronous flush the same bytes eventually cost.
void MeasureWriteBehind(double* ack_us, double* flush_us) {
  Stack s(/*synthesized=*/true, /*read_ahead=*/0);
  constexpr uint32_t kBlocks = 16;
  uint32_t id = s.fs.CreateFile("/wb", {}, kBlocks * kBlock);
  if (id == 0) {
    std::fprintf(stderr, "table11: CreateFile failed\n");
    std::exit(1);
  }
  ChannelId ch = s.io.Open("/wb");
  for (uint32_t i = 0; i < kBlocks * kBlock; i++) {
    s.k.machine().memory().Write8(s.buf + i, static_cast<uint8_t>(i));
  }
  const double t0 = s.k.NowUs();
  if (s.io.Write(ch, s.buf, kBlocks * kBlock) !=
      static_cast<int32_t>(kBlocks * kBlock)) {
    std::fprintf(stderr, "table11: write failed\n");
    std::exit(1);
  }
  *ack_us = s.k.NowUs() - t0;
  const double t1 = s.k.NowUs();
  s.fs.FsyncFile(id);
  *flush_us = s.k.NowUs() - t1;
  s.io.Close(ch);
}

void Main() {
  const double generic = MeasureWarmHit(/*synthesized=*/false);
  const double synth = MeasureWarmHit(/*synthesized=*/true);

  PrintHeader("Table 11: buffer-cache hit read path (instructions per block)",
              "generic", "synthesized");
  PrintRow("warm cache-hit read, 512B block", generic, synth, "instr");
  PrintNote("generic walks the cache descriptor load by load and calls the");
  PrintNote("copy routine; synthesized folds map/extent geometry to immediates");
  PrintNote("and copies the block with an unrolled MOVEM sequence.");

  const ScanCost uncached = MeasureSequentialScan(/*read_ahead=*/0);
  const ScanCost ahead = MeasureSequentialScan(/*read_ahead=*/8);
  const double scan_bytes = 64.0 * kBlock;
  const double uncached_rate = scan_bytes / uncached.us;  // bytes per us
  const double ahead_rate = scan_bytes / ahead.us;

  PrintHeader("Table 11b: cold sequential scan, 64 blocks (throughput MB/s)",
              "no prefetch", "read-ahead 8");
  PrintRow("sequential read rate", uncached_rate, ahead_rate, "MB/s");
  PrintRow("disk requests", double(uncached.requests), double(ahead.requests),
           "req");
  PrintNote("each miss fills itself and the 8-block window in ONE request,");
  PrintNote("paying the half-rotation latency once instead of per block.");

  double ack_us = 0;
  double flush_us = 0;
  MeasureWriteBehind(&ack_us, &flush_us);
  PrintHeader("Table 11c: write-behind, 16-block write (us)", "sync flush",
              "acknowledge");
  PrintRow("write(2) latency vs platter cost", flush_us, ack_us, "us");
  PrintNote("writes land dirty in the cache; the alarm-driven flusher pays");
  PrintNote("the platter cost off the caller's critical path.");

  const uint64_t cold_read_requests = MeasureColdReadRequests();
  PrintHeader("Table 11d: cold 4-block read(2), read-ahead 8", "blocks",
              "requests");
  PrintRowUnits("2048 B from a cold file", 4, "blocks",
                double(cold_read_requests), "req");
  PrintNote("a read miss claims every block the call still lacks and reads");
  PrintNote("them with one request.");

  // --- Acceptance gates ------------------------------------------------------
  if (synth > 0.6 * generic) {
    std::fprintf(stderr,
                 "table11: REGRESSION synthesized hit path %.1f instr/block "
                 "vs generic %.1f (need <= 0.6x)\n",
                 synth, generic);
    std::exit(1);
  }
  if (ahead_rate < 1.5 * uncached_rate) {
    std::fprintf(stderr,
                 "table11: REGRESSION read-ahead scan %.4f MB/us vs uncached "
                 "%.4f (need >= 1.5x)\n",
                 ahead_rate, uncached_rate);
    std::exit(1);
  }
  if (ahead.requests > 8) {
    std::fprintf(stderr,
                 "table11: REGRESSION read-ahead scan took %llu disk requests "
                 "(need <= 1 + ceil(63/9) = 8)\n",
                 static_cast<unsigned long long>(ahead.requests));
    std::exit(1);
  }
  if (cold_read_requests > 1) {
    std::fprintf(stderr,
                 "table11: REGRESSION cold 4-block read took %llu disk "
                 "requests (need 1)\n",
                 static_cast<unsigned long long>(cold_read_requests));
    std::exit(1);
  }
}

}  // namespace
}  // namespace synthesis

int main() {
  synthesis::Main();
  synthesis::WriteBenchJson("BENCH_bcache.json");
  return 0;
}
