// Shared pieces of the repository benchmark: the op log every workload feeds,
// the span tracer, counter snapshots read through public accessors, and the
// workload interface the driver (main.cc) runs.
//
// A run is one closed-loop timed phase over one workload. Its first part is
// the measurement WINDOW: it ends at the first host step after which at
// least Workload::window_ops() ops have completed. The simulator is
// deterministic, so everything the window reports in virtual time (latency,
// instructions, counters) is byte-identical for the same seed. Host metrics
// (ops per host second, set-up time, RSS) come from the whole phase, which
// keeps going after the window until the requested host seconds have passed.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"

namespace synthesis {
class NicPool;
class StreamLayer;
struct CrashStack;
}  // namespace synthesis

namespace perfbench {

double HostNowS();  // steady clock, seconds

// Derives an independent 64-bit stream seed from (seed, salt).
uint64_t MixSeed(uint64_t seed, uint64_t salt);

// --- Spans ---------------------------------------------------------------------
// Every public call the benchmark makes into a layer is bracketed by a span.
// Tracing off (a null tracer) records nothing.
enum class SpanKind {
  kRun,      // Kernel::Run: scheduling, interrupts, thread bodies
  kListen,
  kConnect,
  kSend,
  kRecv,
  kClose,
  kRead,     // UnixEmulator calls
  kWrite,
  kLseek,
  kFsync,
  kCount,
};

// Per-kind totals over spans that ended inside the window.
struct SpanAgg {
  uint64_t count = 0;
  uint64_t cycles = 0;       // virtual duration
  uint64_t self_cycles = 0;  // minus the part child spans cover
  double host_s = 0;
  std::vector<double> host_us;  // per-call samples
};

class Tracer {
 public:
  // Spans are recorded once a machine is attached (after set-up).
  void Attach(const synthesis::Machine& machine) { machine_ = &machine; }
  bool on() const { return machine_ != nullptr; }

  void Begin(SpanKind kind);
  void End();
  void CloseWindow() { window_open_ = false; }

  const SpanAgg& agg(SpanKind kind) const {
    return agg_[static_cast<size_t>(kind)];
  }
  // Virtual cycles covered by top-level spans inside the window.
  uint64_t top_level_cycles() const { return top_cycles_; }

 private:
  struct Frame {
    SpanKind kind;
    uint64_t cycles0;
    double host0;
    uint64_t child_cycles;
  };
  const synthesis::Machine* machine_ = nullptr;
  std::vector<Frame> stack_;
  SpanAgg agg_[static_cast<size_t>(SpanKind::kCount)];
  uint64_t top_cycles_ = 0;
  bool window_open_ = true;
};

class Span {
 public:
  Span(Tracer* tracer, SpanKind kind)
      : tracer_(tracer != nullptr && tracer->on() ? tracer : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->Begin(kind);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// --- Ops -----------------------------------------------------------------------
// Completed and failed operations. An op fails on an error return, a byte
// mismatch, or a connection that does not end the way it should.
class OpLog {
 public:
  void Complete(double lat_us, uint64_t payload_bytes);
  void Fail(const std::string& why);
  // Fsync is timed on its own, outside the op count.
  void Fsync(double us);
  void CloseWindow() { window_open_ = false; }

  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_; }
  uint64_t window_ops() const { return lat_us_.size(); }
  uint64_t window_bytes() const { return window_bytes_; }
  const std::vector<double>& lat_us() const { return lat_us_; }
  const std::vector<double>& fsync_us() const { return fsync_us_; }

 private:
  bool window_open_ = true;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t window_bytes_ = 0;
  std::vector<double> lat_us_;
  std::vector<double> fsync_us_;
};

// --- Counters ------------------------------------------------------------------
// One snapshot of every counter the per-layer metrics are built from, read
// through public accessors only (reading bills no virtual time). Fields of
// layers a workload does not build stay zero.
struct Counters {
  uint64_t cycles = 0, instrs = 0, memrefs = 0;
  uint64_t ctx_switches = 0, irqs = 0, chained = 0;
  uint64_t alloc_bytes = 0, alloc_count = 0;
  uint64_t live_blocks = 0, code_bytes = 0, code_bytes_hw = 0;
  uint64_t live_handles = 0, refusals = 0, promotions = 0;
  uint64_t rx_overruns = 0, ring_drops = 0, tx_spurious = 0;
  uint64_t tx_full_drops = 0, synth_fallback = 0;
  uint64_t retransmits = 0, timeouts = 0, ooo = 0;
  // Summed StreamStats of the workload's connections, and Send/Recv calls
  // that returned kIoWouldBlock (counted by the benchmark's own threads).
  uint64_t seg_accepted = 0, seg_ooo = 0, wouldblock = 0;
  // Cache blocks the file calls covered (counted by the benchmark).
  uint64_t block_lookups = 0;
  uint64_t bc_misses = 0, bc_evictions = 0, bc_flushes = 0;
  uint64_t ra_issued = 0, ra_hits = 0;
  uint64_t journal_batches = 0, disk_requests = 0, disk_retries = 0;
};
Counters ReadKernel(synthesis::Kernel& k);
void ReadNet(Counters& c, synthesis::NicPool& pool, synthesis::StreamLayer& st);
void ReadStorage(Counters& c, synthesis::CrashStack& s);

// Code-store blocks, allocator bytes and allocation count: what must return
// exactly to the post-setup baseline after the timed phase.
struct Occupancy {
  uint64_t blocks = 0, bytes = 0, allocs = 0;
  bool operator==(const Occupancy&) const = default;
};
Occupancy OccupancyOf(synthesis::Kernel& k);
std::string Describe(const Occupancy& o);

// --- Workloads -----------------------------------------------------------------
// Constructing a workload is its set-up: the system is built, brought to the
// first timed op, and its occupancy baseline recorded.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual synthesis::Kernel& kernel() = 0;
  virtual Counters Read() = 0;
  // Ops the window must cover (enough for p99 to have 10 samples beyond it).
  virtual uint64_t window_ops() const = 0;
  // One bounded unit of host-driven work: a Kernel::Run chunk or one file
  // call. Returns false when the system stalled with work outstanding.
  virtual bool Advance() = 0;
  // Ends the closed loop at the next op boundary, drains the kernel, and runs
  // the post-phase checks; every failed check lands in the op log.
  virtual void Finish() = 0;
  // Workload-only end-to-end metrics (bytes per connection), printed but
  // not part of the result object.
  struct Extra {
    std::string name;
    double value;
    std::string unit;
  };
  virtual std::vector<Extra> Extras() { return {}; }
};

using WorkloadFactory = std::unique_ptr<Workload> (*)(uint64_t seed, OpLog& log,
                                                      Tracer* tracer);
std::unique_ptr<Workload> MakeConnChurn(uint64_t seed, OpLog& log, Tracer* tracer);
std::unique_ptr<Workload> MakeStreamEcho(uint64_t seed, OpLog& log, Tracer* tracer);
std::unique_ptr<Workload> MakeFileMix(uint64_t seed, OpLog& log, Tracer* tracer);
void PrintConnChurnConfig();
void PrintStreamEchoConfig();
void PrintFileMixConfig();

// --- Percentiles ---------------------------------------------------------------
// The highest percentile at or below `want` that still has at least 10
// samples beyond it (nearest rank). `q` is the percentile actually used.
struct Tail {
  double value = 0;
  double q = 0;
  size_t n = 0;
};
Tail Percentile(std::vector<double> samples, double want);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
