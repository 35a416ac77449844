// Table 6 (extension): per-packet demultiplexing cost, generic interpreted
// demux vs the code-synthesized per-flow demux (§2.3 Collapsing Layers +
// §2.1 Factoring Invariants applied to the network receive path).
//
// The generic demux walks a flow table, compares the destination port per
// entry, byte-loops the checksum, and calls a generic delivery routine that
// calls a generic ring-put per byte. The synthesized demux is emitted once:
// it indexes a port-keyed cell table and jumps through the cell into the
// flow's own deliver block, whose checksum bound and ring geometry are
// immediates and whose fixed-length variant fully unrolls checksum + copy.
// Both paths run on identical frames and identical (emptied) rings; the
// speedup comes from path length, not from different work.
//
// A flow-count sweep (8, 128, kMaxFlows) self-enforces flatness and exits 1
// otherwise: the synthesized per-frame instructions to the last-bound port,
// and the virtual cycles one AddFlowCustom + RemoveFlow charges, must not
// depend on how many flows are bound.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/machine/assembler.h"
#include "src/net/demux.h"
#include "src/net/frame.h"

namespace synthesis {
namespace {

struct Sample {
  double generic_instr = 0;
  double synth_instr = 0;
  double generic_us = 0;
  double synth_us = 0;
};

// Measures one payload size on one machine model: the cost of demuxing a
// valid frame for the given port, averaged over kReps, with the flow ring
// emptied before every packet so delivery never hits the full-ring path.
Sample MeasureDemux(Kernel& k, DemuxSynthesizer& demux,
                    const std::vector<Addr>& ring_bases, Addr frame,
                    uint16_t port, uint32_t payload_bytes) {
  Memory& mem = k.machine().memory();
  std::vector<uint8_t> payload(payload_bytes);
  for (uint32_t i = 0; i < payload_bytes; i++) {
    payload[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  WriteFrame(mem, frame, port, 7777, payload.data(), payload_bytes);

  constexpr int kReps = 32;
  Sample out;
  for (int pass = 0; pass < 2; pass++) {
    BlockId blk = pass == 0 ? demux.generic_demux() : demux.synthesized_demux();
    uint64_t instr = 0, cycles = 0;
    for (int i = 0; i < kReps; i++) {
      for (Addr ring : ring_bases) {
        mem.Write32(ring + RingLayout::kHead, 0);
        mem.Write32(ring + RingLayout::kTail, 0);
      }
      k.machine().set_reg(kA1, frame);
      Stopwatch sw(k.machine());
      RunResult rr = k.kexec().Call(blk);
      if (rr.outcome != RunOutcome::kReturned ||
          k.machine().reg(kD0) != 1) {
        std::fprintf(stderr, "demux failed (pass %d)\n", pass);
        std::exit(1);
      }
      instr += sw.instructions();
      cycles += sw.cycles();
    }
    double us =
        k.machine().cost_model().CyclesToMicros(cycles) / kReps;
    if (pass == 0) {
      out.generic_instr = static_cast<double>(instr) / kReps;
      out.generic_us = us;
    } else {
      out.synth_instr = static_cast<double>(instr) / kReps;
      out.synth_us = us;
    }
  }
  return out;
}

void RunModel(const char* model_name, MachineConfig cfg) {
  Kernel::Config kc;
  kc.machine = cfg;
  Kernel k(kc);
  IoSystem io(k, nullptr);
  DemuxSynthesizer demux(k);

  // Four flows: three flexible, one declaring a fixed 64-byte datagram size
  // (checksum + copy fully unrolled in its synthesized deliver).
  struct Flow {
    uint16_t port;
    uint32_t fixed_len;
  };
  const std::vector<Flow> flows = {{1000, 0}, {2000, 0}, {3000, 0}, {4000, 64}};
  std::vector<Addr> ring_bases;
  for (const Flow& f : flows) {
    auto ring = io.MakeRing(4096);
    demux.AddFlow(f.port, ring->base, f.fixed_len);
    ring_bases.push_back(ring->base);
  }

  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);
  PrintHeader(std::string("Table 6: packet demux, 4 flows, ") + model_name,
              "generic", "synthesized");
  for (uint32_t size : {4u, 64u, 512u}) {
    // The first flow is the generic walk's best case; the fixed-size flow,
    // last in its table, is its worst and the synthesizer's unrolled case.
    Sample first = MeasureDemux(k, demux, ring_bases, frame, 1000, size);
    PrintRow("port 1000 (first), " + std::to_string(size) + "B payload",
             first.generic_instr, first.synth_instr, "instr");
    PrintRow("  same, time", first.generic_us, first.synth_us, "us");
    if (size == 64) {
      Sample fixed = MeasureDemux(k, demux, ring_bases, frame, 4000, size);
      PrintRow("port 4000 (fixed 64B, unrolled)", fixed.generic_instr,
               fixed.synth_instr, "instr");
      PrintRow("  same, time", fixed.generic_us, fixed.synth_us, "us");
    }
  }
  PrintNote("generic = table walk + interpreted checksum + generic ring put;");
  PrintNote("synthesized = cell-table lookup + per-flow deliver with inlined");
  PrintNote("checksum and folded ring (fixed-size flows fully unrolled).");
  PrintNote("Ratio < 1 = faster.");
}

// --- Flatness sweep ----------------------------------------------------------

struct SweepPoint {
  uint32_t flows = 0;
  double generic_instr = 0;  // per frame to the last-bound port
  double synth_instr = 0;
  uint64_t bind_cycles = 0;  // one AddFlowCustom
  uint64_t unbind_cycles = 0;  // one RemoveFlow
};

// Datagram flows spread over every leaf of the cell table the count reaches.
uint16_t SweepPort(uint32_t i) { return static_cast<uint16_t>(1000 + 61 * i); }

SweepPoint MeasureFlowCount(uint32_t flows) {
  Kernel::Config kc;
  kc.machine = MachineConfig::SunEmulation();
  Kernel k(kc);
  IoSystem io(k, nullptr);
  DemuxSynthesizer demux(k);
  SweepPoint pt;
  pt.flows = flows;

  // flows - 1 datagram flows, then one custom flow measured on its own.
  std::vector<Addr> ring_bases;
  for (uint32_t i = 0; i + 1 < flows; i++) {
    auto ring = io.MakeRing(256);
    if (!demux.AddFlow(SweepPort(i), ring->base)) {
      std::fprintf(stderr, "table6: bind %u of %u failed\n", i, flows);
      std::exit(1);
    }
    ring_bases.push_back(ring->base);
  }
  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);
  const Sample s = MeasureDemux(k, demux, ring_bases, frame,
                                SweepPort(flows - 2), 64);
  pt.generic_instr = s.generic_instr;
  pt.synth_instr = s.synth_instr;

  // The custom flow shares a leaf with the first datagram flow, so the bind
  // is a table edit at every flow count (a fresh leaf is a one-off fill).
  Asm d("sweep_deliver");
  d.MoveI(kD0, 1);
  d.Rts();
  const BlockId deliver = k.SynthesizeInstall(d.Build(), Bindings(), nullptr,
                                              "sweep_deliver");
  auto ring = io.MakeRing(256);
  const uint16_t port = static_cast<uint16_t>(SweepPort(0) + 1);
  const size_t blocks = k.code().live_block_count();
  Stopwatch bind(k.machine());
  const bool added = demux.AddFlowCustom(port, ring->base, 0, deliver,
                                         demux.generic_demux());
  pt.bind_cycles = bind.cycles();
  const bool rebound = demux.SetFlowDeliver(port, demux.generic_demux());
  Stopwatch unbind(k.machine());
  const bool removed = demux.RemoveFlow(port);
  pt.unbind_cycles = unbind.cycles();
  // Retirement is deferred, so a block installed and retired in between
  // would still be counted here.
  if (!added || !rebound || !removed ||
      k.code().live_block_count() != blocks) {
    std::fprintf(stderr,
                 "table6: custom flow bind/rebind/unbind at %u flows %s\n",
                 flows, added && rebound && removed ? "installed code"
                                                    : "failed");
    std::exit(1);
  }
  return pt;
}

void RunFlowSweep() {
  std::vector<SweepPoint> pts;
  for (uint32_t n : {8u, 128u, DemuxSynthesizer::kMaxFlows}) {
    pts.push_back(MeasureFlowCount(n));
  }
  PrintHeader("Table 6b: flow-count sweep, 64B frame to the last-bound port",
              "generic", "synthesized");
  for (const SweepPoint& pt : pts) {
    PrintRow(std::to_string(pt.flows) + " flows, per frame", pt.generic_instr,
             pt.synth_instr, "instr");
  }
  PrintNote("generic walks the flow table, so it grows with the flow count;");
  PrintNote("the synthesized cell-table lookup does not.");
  PrintHeader("Table 6c: one custom flow bind / unbind, virtual cycles",
              std::to_string(pts[0].flows) + " flows", "N flows");
  for (const SweepPoint& pt : pts) {
    PrintRow("AddFlowCustom, " + std::to_string(pt.flows) + " flows",
             static_cast<double>(pts[0].bind_cycles),
             static_cast<double>(pt.bind_cycles), "cyc");
    PrintRow("RemoveFlow, " + std::to_string(pt.flows) + " flows",
             static_cast<double>(pts[0].unbind_cycles),
             static_cast<double>(pt.unbind_cycles), "cyc");
  }
  PrintNote("one cell store plus an O(1) table edit; no code is installed.");
  for (const SweepPoint& pt : pts) {
    if (pt.synth_instr != pts[0].synth_instr ||
        pt.bind_cycles != pts[0].bind_cycles ||
        pt.unbind_cycles != pts[0].unbind_cycles) {
      std::fprintf(stderr,
                   "table6: not flat at %u flows (synth %.2f vs %.2f instr, "
                   "bind %llu vs %llu, unbind %llu vs %llu cycles)\n",
                   pt.flows, pt.synth_instr, pts[0].synth_instr,
                   static_cast<unsigned long long>(pt.bind_cycles),
                   static_cast<unsigned long long>(pts[0].bind_cycles),
                   static_cast<unsigned long long>(pt.unbind_cycles),
                   static_cast<unsigned long long>(pts[0].unbind_cycles));
      std::exit(1);
    }
  }
}

}  // namespace

void Main() {
  RunModel("16 MHz SUN emulation", MachineConfig::SunEmulation());
  RunModel("50 MHz native Quamachine", MachineConfig::NativeQuamachine());
  RunFlowSweep();
}

}  // namespace synthesis

int main() {
  synthesis::Main();
  synthesis::WriteBenchJson("BENCH_net.json");
  return 0;
}
