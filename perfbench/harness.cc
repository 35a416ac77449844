#include "perfbench/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/io/crash_harness.h"
#include "src/net/nic_pool.h"
#include "src/net/stream.h"

namespace perfbench {

using namespace synthesis;

double HostNowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 finalizer over the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Tracer::Begin(SpanKind kind) {
  stack_.push_back(Frame{kind, machine_->cycles(), HostNowS(), 0});
}

void Tracer::End() {
  const Frame f = stack_.back();
  stack_.pop_back();
  const uint64_t cycles = machine_->cycles() - f.cycles0;
  if (!stack_.empty()) {
    stack_.back().child_cycles += cycles;
  }
  if (!window_open_) {
    return;
  }
  const double host = HostNowS() - f.host0;
  SpanAgg& a = agg_[static_cast<size_t>(f.kind)];
  a.count++;
  a.cycles += cycles;
  a.self_cycles += cycles - f.child_cycles;
  a.host_s += host;
  a.host_us.push_back(host * 1e6);
  if (stack_.empty()) {
    top_cycles_ += cycles;
  }
}

void OpLog::Complete(double lat_us, uint64_t payload_bytes) {
  completed_++;
  if (window_open_) {
    lat_us_.push_back(lat_us);
    window_bytes_ += payload_bytes;
  }
}

void OpLog::Fail(const std::string& why) {
  failed_++;
  if (failed_ <= 8) {
    std::fprintf(stderr, "perfbench: op failed: %s\n", why.c_str());
  }
}

void OpLog::Fsync(double us) {
  if (window_open_) {
    fsync_us_.push_back(us);
  }
}

Counters ReadKernel(Kernel& k) {
  Counters c;
  const Machine& m = k.machine();
  c.cycles = m.cycles();
  c.instrs = m.instructions();
  c.memrefs = m.mem_refs();
  c.ctx_switches = k.context_switches();
  c.irqs = k.interrupts_dispatched();
  c.chained = k.chained_procedures_run();
  c.alloc_bytes = k.allocator().bytes_in_use();
  c.alloc_count = k.allocator().allocation_count();
  c.live_blocks = k.code().live_block_count();
  c.code_bytes = k.code().code_bytes();
  c.code_bytes_hw = k.code().high_water_bytes();
  c.live_handles = k.spec().live_handles();
  c.refusals = k.spec().refusals();
  c.promotions = k.spec().promotions();
  return c;
}

void ReadNet(Counters& c, NicPool& pool, StreamLayer& st) {
  const NicPool::AggregateStats a = pool.Aggregate();
  c.rx_overruns = a.rx_overruns;
  c.ring_drops = a.ring_drops;
  c.tx_spurious = a.tx_spurious;
  c.tx_full_drops = st.tx_full_drops_gauge().events();
  c.synth_fallback = st.synth_fallback_gauge().events();
  c.retransmits = st.retransmit_gauge().events();
  c.timeouts = st.timeout_gauge().events();
  c.ooo = st.ooo_gauge().events();
}

void ReadStorage(Counters& c, CrashStack& s) {
  c.bc_misses = s.bcache.misses();
  c.bc_evictions = s.bcache.evictions();
  c.bc_flushes = s.bcache.flushes();
  c.ra_issued = s.bcache.read_ahead_issued();
  c.ra_hits = s.bcache.read_ahead_hits();
  c.journal_batches = s.journal.committed_batches();
  c.disk_requests = s.disk.requests_completed();
  c.disk_retries = s.disk.retries();
}

Occupancy OccupancyOf(Kernel& k) {
  return Occupancy{k.code().live_block_count(), k.allocator().bytes_in_use(),
                   k.allocator().allocation_count()};
}

std::string Describe(const Occupancy& o) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "blocks=%llu bytes=%llu allocs=%llu",
                static_cast<unsigned long long>(o.blocks),
                static_cast<unsigned long long>(o.bytes),
                static_cast<unsigned long long>(o.allocs));
  return buf;
}

Tail Percentile(std::vector<double> samples, double want) {
  Tail t;
  t.n = samples.size();
  t.q = want;
  if (t.n == 0) {
    return t;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(t.n);
  // Nearest rank: the smallest sample with at least q% of samples at or
  // below it.
  size_t idx = static_cast<size_t>(std::ceil(want / 100.0 * n));
  idx = idx == 0 ? 0 : idx - 1;
  if (t.n >= 11 && idx > t.n - 11) {
    idx = t.n - 11;
    t.q = 100.0 * static_cast<double>(idx + 1) / n;
  } else if (t.n < 11) {
    idx = 0;
    t.q = 100.0 / n;
  }
  t.value = samples[idx];
  return t;
}

}  // namespace perfbench
