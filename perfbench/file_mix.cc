// file_mix: UNIX-emulator file calls over buffer cache, journal and disk.
//
// One file several times the cache size. The seeded mix reads a hot set
// that fits in the cache, reads cold blocks past it, runs sequential scans
// that trigger read-ahead, and writes 512 B blocks with an fsync every few
// writes. op = one Read or Write call; Fsync is timed on its own. There is
// no network, demux or connection synthesis here, and writes sit beside
// reads so a read-path gain that costs fsync shows.
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/io/crash_harness.h"
#include "src/kernel/kernel.h"
#include "src/unix/emulator.h"

namespace perfbench {
namespace {

using namespace synthesis;

constexpr uint32_t kBlock = 512;
constexpr uint32_t kFileBlocks = 256;  // 128 KB: 4x the cache
constexpr uint32_t kHotBlocks = 16;    // fits in the cache
// Read lengths vary (hot reads 256 B .. 1.5 KB, the rest 256 .. 512 B) so
// that no latency percentile sits on one exact path cost: with fixed 512 B
// reads, p50 read the same value for every seed.
constexpr uint32_t kHotReadMax = 3 * kBlock;
constexpr uint32_t kSeqRun = 16;       // reads per sequential run
constexpr uint32_t kFsyncEvery = 8;    // writes per fsync
constexpr uint64_t kWindowOps = 100000;
// Action weights, out of 100: hot read, cold read, sequential run, write.
constexpr uint32_t kHotPct = 50, kColdPct = 12, kSeqPct = 3;

CrashStackConfig StackCfg() {
  CrashStackConfig c;
  c.disk.sectors = 8192;
  c.bcache.entries = 64;
  c.bcache.block_bytes = kBlock;
  c.bcache.read_ahead = 8;
  c.journal.sectors = 256;
  return c;
}

class FileMix : public Workload {
 public:
  FileMix(uint64_t seed, OpLog& log, Tracer* tracer)
      : stack_(StackCfg()),
        em_(stack_.kernel, stack_.io, &stack_.fs),
        log_(log),
        tracer_(tracer),
        rng_(MixSeed(seed, 3)),
        shadow_(kFileBlocks * kBlock) {
    Kernel& k = stack_.kernel;
    buf_ = k.allocator().Allocate(kHotReadMax);
    if (!em_.Mkfile("/mix", kFileBlocks * kBlock) ||
        (fd_ = em_.Open("/mix")) < 0) {
      log_.Fail("file_mix: cannot create the file");
      return;
    }
    for (uint8_t& b : shadow_) {
      b = static_cast<uint8_t>(rng_());
    }
    for (uint32_t b = 0; b < kFileBlocks; b++) {
      k.machine().memory().WriteBytes(buf_, &shadow_[b * kBlock], kBlock);
      if (em_.Write(fd_, buf_, kBlock) != static_cast<int32_t>(kBlock)) {
        log_.Fail("file_mix: initial write failed");
      }
    }
    if (em_.Fsync(fd_) != 0) {
      log_.Fail("file_mix: initial fsync failed");
    }
    // Warm the hot set: caches fill before timing.
    em_.Lseek(fd_, 0);
    for (uint32_t b = 0; b < kHotBlocks; b++) {
      if (!Check(b * kBlock, kBlock, em_.Read(fd_, buf_, kBlock))) {
        log_.Fail("file_mix: warm-up read returned wrong bytes");
      }
    }
    baseline_ = OccupancyOf(k);
  }

  Kernel& kernel() override { return stack_.kernel; }
  uint64_t window_ops() const override { return kWindowOps; }

  Counters Read() override {
    Counters c = ReadKernel(stack_.kernel);
    ReadStorage(c, stack_);
    c.block_lookups = block_lookups_;
    return c;
  }

  bool Advance() override {
    if (seq_left_ == 0) {
      const uint32_t r = std::uniform_int_distribution<uint32_t>(0, 99)(rng_);
      if (r < kHotPct) {
        const uint32_t len = Uniform(kBlock / 2, kHotReadMax);
        DoRead(Uniform(0, kHotBlocks * kBlock - len), len);
      } else if (r < kHotPct + kColdPct) {
        const uint32_t len = Uniform(kBlock / 2, kBlock);
        DoRead(Uniform(kHotBlocks * kBlock, kFileBlocks * kBlock - len), len);
      } else if (r < kHotPct + kColdPct + kSeqPct) {
        seq_pos_ = Uniform(kHotBlocks, kFileBlocks - kSeqRun) * kBlock;
        seq_left_ = kSeqRun;
      } else {
        DoWrite(Uniform(0, kFileBlocks - 1) * kBlock);
      }
      if (seq_left_ == 0) {
        return true;
      }
    }
    // One read of a sequential run; only its first read seeks.
    const uint32_t len = Uniform(kBlock / 2, kBlock);
    DoRead(seq_pos_, len, seq_left_ != kSeqRun);
    seq_pos_ += len;
    seq_left_--;
    return true;
  }

  void Finish() override {
    if (Fsync() != 0) {
      log_.Fail("file_mix: final fsync failed");
    }
    const Occupancy now = OccupancyOf(stack_.kernel);
    if (!(now == baseline_)) {
      log_.Fail("file_mix: occupancy " + Describe(now) +
                " != post-setup baseline " + Describe(baseline_));
    }
  }

 private:
  uint32_t Uniform(uint32_t lo, uint32_t hi) {
    return std::uniform_int_distribution<uint32_t>(lo, hi)(rng_);
  }

  void Seek(uint32_t pos) {
    Span s(tracer_, SpanKind::kLseek);
    if (em_.Lseek(fd_, static_cast<int32_t>(pos)) != static_cast<int32_t>(pos)) {
      log_.Fail("file_mix: lseek failed");
    }
  }

  // Whether a read of [pos, pos+len) returned exactly the host shadow.
  bool Check(uint32_t pos, uint32_t len, int32_t got) {
    if (got != static_cast<int32_t>(len)) {
      return false;
    }
    std::vector<uint8_t> bytes(len);
    stack_.kernel.machine().memory().ReadBytes(buf_, bytes.data(), len);
    return std::memcmp(bytes.data(), &shadow_[pos], len) == 0;
  }

  void DoRead(uint32_t pos, uint32_t len, bool sequential = false) {
    if (!sequential) {
      Seek(pos);
    }
    block_lookups_ += (pos + len - 1) / kBlock - pos / kBlock + 1;
    Kernel& k = stack_.kernel;
    const double t0 = k.NowUs();
    int32_t got;
    {
      Span s(tracer_, SpanKind::kRead);
      got = em_.Read(fd_, buf_, len);
    }
    if (Check(pos, len, got)) {
      log_.Complete(k.NowUs() - t0, len);
    } else {
      log_.Fail("file_mix: read of " + std::to_string(len) + " B at " +
                std::to_string(pos) + " returned " + std::to_string(got) +
                " or wrong bytes");
    }
  }

  void DoWrite(uint32_t pos) {
    Seek(pos);
    block_lookups_++;
    Kernel& k = stack_.kernel;
    for (uint32_t i = 0; i < kBlock; i++) {
      shadow_[pos + i] = static_cast<uint8_t>(rng_());
    }
    k.machine().memory().WriteBytes(buf_, &shadow_[pos], kBlock);
    const double t0 = k.NowUs();
    int32_t put;
    {
      Span s(tracer_, SpanKind::kWrite);
      put = em_.Write(fd_, buf_, kBlock);
    }
    if (put != static_cast<int32_t>(kBlock)) {
      log_.Fail("file_mix: write at " + std::to_string(pos) + " returned " +
                std::to_string(put));
    } else {
      log_.Complete(k.NowUs() - t0, kBlock);
    }
    if (++writes_ % kFsyncEvery == 0 && Fsync() != 0) {
      log_.Fail("file_mix: fsync failed");
    }
  }

  int Fsync() {
    Kernel& k = stack_.kernel;
    const double t0 = k.NowUs();
    int rc;
    {
      Span s(tracer_, SpanKind::kFsync);
      rc = em_.Fsync(fd_);
    }
    log_.Fsync(k.NowUs() - t0);
    return rc;
  }

  CrashStack stack_;
  UnixEmulator em_;
  OpLog& log_;
  Tracer* tracer_;
  std::mt19937_64 rng_;
  std::vector<uint8_t> shadow_;
  Addr buf_ = 0;
  int fd_ = -1;
  uint32_t seq_pos_ = 0, seq_left_ = 0;
  uint64_t writes_ = 0;
  uint64_t block_lookups_ = 0;
  Occupancy baseline_;
};

}  // namespace

std::unique_ptr<Workload> MakeFileMix(uint64_t seed, OpLog& log, Tracer* tracer) {
  return std::make_unique<FileMix>(seed, log, tracer);
}

void PrintFileMixConfig() {
  const CrashStackConfig c = StackCfg();
  std::printf(
      "config cache entries=%u block_bytes=%u read_ahead=%u flush_period_us=%.0f "
      "flush_batch=%u journal_sectors=%u disk_sectors=%u\n",
      c.bcache.entries, c.bcache.block_bytes, c.bcache.read_ahead,
      c.bcache.flush_period_us, c.bcache.flush_batch, c.journal.sectors,
      c.disk.sectors);
  std::printf(
      "config file_mix file_bytes=%u hot_bytes=%u hot_read_bytes=%u..%u "
      "cold_and_seq_read_bytes=%u..%u write_bytes=%u seq_run=%u fsync_every=%u "
      "mix_pct=hot:%u,cold:%u,seq_run:%u,write:%u window_ops=%llu\n",
      kFileBlocks * kBlock, kHotBlocks * kBlock, kBlock / 2, kHotReadMax,
      kBlock / 2, kBlock, kBlock, kSeqRun, kFsyncEvery, kHotPct, kColdPct,
      kSeqPct, 100 - kHotPct - kColdPct - kSeqPct,
      static_cast<unsigned long long>(kWindowOps));
}

}  // namespace perfbench
