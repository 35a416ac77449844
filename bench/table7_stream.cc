// Table 7 (extension): reliable stream channel cost, generic interpreted
// segment processing vs the code-synthesized per-connection processor (§5
// carried to a TCP-like protocol).
//
// Part 1 measures the per-segment receive path length: frame arrival through
// demux and segment processing to payload-in-ring, for the generic pipeline
// (flow-table walk + shared checksum call + pointer-chasing segment processor
// + one-call-per-byte ring put) vs the synthesized path (cell-table port
// lookup + inlined checksum + per-connection processor with the peer port as an
// immediate, CCB fields as absolute addresses, and a bulk ring copy that
// publishes the producer index once). Identical frames, identical
// connection state; the difference is path length alone.
//
// Part 2 measures goodput (delivered payload per unit of virtual time) for a
// complete transfer across a loss x reorder matrix, exercising the full
// robustness machinery: retransmission timeouts, exponential backoff, fast
// retransmit, and window degradation.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/io/channel.h"
#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/kernel/user_program.h"
#include "src/machine/machine.h"
#include "src/net/frame.h"
#include "src/net/nic_device.h"
#include "src/net/nic_pool.h"
#include "src/net/stream.h"

namespace synthesis {
namespace {

// Establishes a server-side connection on `port` against a hand-rolled peer
// on `peer` by injecting the SYN and the completing ack directly on the wire.
ConnId EstablishServer(Kernel& k, NicDevice& nic, StreamLayer& st,
                       uint16_t port, uint16_t peer) {
  ConnId srv = st.Listen(port);
  std::vector<uint8_t> p(StreamSeg::kHdrBytes, 0);
  uint32_t syn = StreamSeg::kFlagSyn;
  std::memcpy(p.data() + StreamSeg::kFlags, &syn, 4);
  nic.InjectRaw(port, peer, p.data(), StreamSeg::kHdrBytes,
                FrameChecksum(port, peer, p.data(), StreamSeg::kHdrBytes),
                StreamSeg::kHdrBytes);
  uint32_t one = 1, ackf = StreamSeg::kFlagAck;
  std::memcpy(p.data() + StreamSeg::kSeq, &one, 4);
  std::memcpy(p.data() + StreamSeg::kAck, &one, 4);
  std::memcpy(p.data() + StreamSeg::kFlags, &ackf, 4);
  nic.InjectRaw(port, peer, p.data(), StreamSeg::kHdrBytes,
                FrameChecksum(port, peer, p.data(), StreamSeg::kHdrBytes),
                StreamSeg::kHdrBytes);
  k.Run();
  if (st.StateOf(srv) != CcbLayout::kEstablished) {
    std::fprintf(stderr, "stream bench: establishment failed\n");
    std::exit(1);
  }
  return srv;
}

struct Sample {
  double generic_instr = 0;
  double synth_instr = 0;
  double generic_us = 0;
  double synth_us = 0;
};

// Measures one segment shape through both receive pipelines: the demux entry
// is called directly with a1 = frame, and the connection state (rcv_nxt, the
// ring) is reset before every repetition so each pass processes the identical
// in-order segment.
Sample MeasureSegment(Kernel& k, NicDevice& nic, StreamLayer& st, ConnId conn,
                      uint16_t peer, uint32_t data_bytes, bool pure_ack) {
  Memory& mem = k.machine().memory();
  Addr ccb = st.CcbOf(conn);
  auto ring = st.RingOf(conn);
  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);

  const uint32_t rcv0 = mem.Read32(ccb + CcbLayout::kRcvNxt);
  std::vector<uint8_t> p(StreamSeg::kHdrBytes + data_bytes);
  uint32_t seq = pure_ack ? 0 : rcv0;
  uint32_t ack = mem.Read32(ccb + CcbLayout::kSndNxt);
  uint32_t flags = StreamSeg::kFlagAck;
  std::memcpy(p.data() + StreamSeg::kSeq, &seq, 4);
  std::memcpy(p.data() + StreamSeg::kAck, &ack, 4);
  std::memcpy(p.data() + StreamSeg::kFlags, &flags, 4);
  for (uint32_t i = 0; i < data_bytes; i++) {
    p[StreamSeg::kHdrBytes + i] = static_cast<uint8_t>(i * 7 + 3);
  }
  uint16_t port = st.PortOf(conn);
  WriteFrame(mem, frame, port, peer, p.data(), static_cast<uint32_t>(p.size()));

  constexpr int kReps = 32;
  Sample out;
  for (int pass = 0; pass < 2; pass++) {
    BlockId blk = pass == 0 ? nic.demux().generic_demux()
                            : nic.demux().synthesized_demux();
    uint64_t instr = 0, cycles = 0;
    for (int i = 0; i < kReps; i++) {
      mem.Write32(ccb + CcbLayout::kRcvNxt, rcv0);
      mem.Write32(ring->base + RingLayout::kHead, 0);
      mem.Write32(ring->base + RingLayout::kTail, 0);
      k.machine().set_reg(kA1, frame);
      Stopwatch sw(k.machine());
      RunResult rr = k.kexec().Call(blk);
      if (rr.outcome != RunOutcome::kReturned || k.machine().reg(kD0) != 1) {
        std::fprintf(stderr, "stream bench: segment rejected (pass %d)\n",
                     pass);
        std::exit(1);
      }
      instr += sw.instructions();
      cycles += sw.cycles();
    }
    double us = k.machine().cost_model().CyclesToMicros(cycles) / kReps;
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

void RunPathLength(const char* model_name, MachineConfig cfg) {
  Kernel::Config kc;
  kc.machine = cfg;
  Kernel k(kc);
  IoSystem io(k, nullptr);
  NicPool pool(k, NicPoolConfig());
  NicDevice& nic = pool.nic(0);
  StreamLayer st(k, io, pool);
  ConnId srv = EstablishServer(k, nic, st, 80, 91);

  PrintHeader(std::string("Table 7: stream segment path, ") + model_name,
              "generic", "synthesized");
  for (uint32_t size : {16u, 64u, 256u}) {
    Sample s = MeasureSegment(k, nic, st, srv, 91, size, false);
    PrintRow(std::to_string(size) + "B data segment", s.generic_instr,
             s.synth_instr, "instr");
    PrintRow("  same, time", s.generic_us, s.synth_us, "us");
  }
  Sample ack = MeasureSegment(k, nic, st, srv, 91, 0, true);
  PrintRow("pure ack", ack.generic_instr, ack.synth_instr, "instr");
  PrintRow("  same, time", ack.generic_us, ack.synth_us, "us");
  PrintNote("generic = flow-table walk + checksum call + pointer-chasing");
  PrintNote("segment processor + per-byte ring put; synthesized = folded port");
  PrintNote("switch + inlined checksum + per-connection processor (peer port");
  PrintNote("an immediate, CCB absolute, bulk ring copy). Ratio < 1 = faster.");
}

// --- Part 2: goodput under loss and reordering -------------------------------

class BenchSender : public UserProgram {
 public:
  BenchSender(StreamLayer& st, ConnId conn, uint32_t total)
      : st_(st), conn_(conn), total_(total) {}
  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(256);
      std::vector<uint8_t> chunk(256);
      for (uint32_t i = 0; i < 256; i++) {
        chunk[i] = static_cast<uint8_t>('!' + i % 90);
      }
      k.machine().memory().WriteBytes(buf_, chunk.data(), 256);
    }
    if (off_ >= total_) {
      st_.Close(conn_);
      return StepStatus::kDone;
    }
    uint32_t take = std::min<uint32_t>(256, total_ - off_);
    int32_t n = st_.Send(conn_, buf_, take);
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;
    }
    if (n == kIoError) {
      return StepStatus::kDone;
    }
    off_ += static_cast<uint32_t>(n);
    k.machine().Charge(40, 10, 0);
    return StepStatus::kYield;
  }

 private:
  StreamLayer& st_;
  ConnId conn_;
  uint32_t total_;
  Addr buf_ = 0;
  uint32_t off_ = 0;
};

class BenchReceiver : public UserProgram {
 public:
  BenchReceiver(StreamLayer& st, ConnId conn, uint32_t* got)
      : st_(st), conn_(conn), got_(got) {}
  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(256);
    }
    int32_t n = st_.Recv(conn_, buf_, 256);
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;
    }
    if (n <= 0) {
      if (n == 0) {
        st_.Close(conn_);
      }
      return StepStatus::kDone;
    }
    *got_ += static_cast<uint32_t>(n);
    k.machine().Charge(40, 10, 0);
    return StepStatus::kYield;
  }

 private:
  StreamLayer& st_;
  ConnId conn_;
  uint32_t* got_;
  Addr buf_ = 0;
};

// Runs a complete transfer over a faulty wire and returns goodput in payload
// bytes per virtual millisecond (0 when the transfer did not complete).
double MeasureGoodput(double drop, double reorder, bool synthesized,
                      uint32_t total) {
  NicConfig cfg;
  cfg.drop_rate = drop;
  cfg.reorder_rate = reorder;
  cfg.fault_seed = 42;
  cfg.synthesized_demux = synthesized;
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.nic = cfg;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  StreamConfig scfg;
  scfg.rto_base_us = 3000;
  scfg.max_retries = 32;
  ConnId srv = st.Listen(80, scfg);
  ConnId cli = st.Connect(80, scfg);
  uint32_t got = 0;
  k.CreateThread(std::make_unique<BenchSender>(st, cli, total));
  k.CreateThread(std::make_unique<BenchReceiver>(st, srv, &got));
  double t0 = k.NowUs();
  k.Run(200'000'000);
  double elapsed_ms = (k.NowUs() - t0) / 1000.0;
  if (got != total || st.StateOf(cli) != CcbLayout::kDone ||
      elapsed_ms <= 0) {
    return 0;
  }
  return total / elapsed_ms;
}

void RunGoodput() {
  constexpr uint32_t kTotal = 4096;
  PrintHeader("Table 7b: stream goodput, 4KB transfer (bytes/virtual-ms)",
              "generic", "synthesized");
  const struct {
    double drop;
    double reorder;
  } wires[] = {{0.0, 0.0}, {0.0, 0.2}, {0.1, 0.0}, {0.1, 0.2}, {0.3, 0.2}};
  for (const auto& w : wires) {
    double gen = MeasureGoodput(w.drop, w.reorder, false, kTotal);
    double syn = MeasureGoodput(w.drop, w.reorder, true, kTotal);
    char label[64];
    std::snprintf(label, sizeof(label), "%2.0f%% loss, %2.0f%% reorder",
                  w.drop * 100, w.reorder * 100);
    PrintRow(label, gen, syn, "B/ms");
  }
  PrintNote("full transfer incl. handshake, retransmission, backoff and close;");
  PrintNote("identical fault schedule per column. Ratio > 1 = synthesized path");
  PrintNote("sustains more goodput on the same wire.");
}

}  // namespace

void Main() {
  RunPathLength("16 MHz SUN emulation", MachineConfig::SunEmulation());
  RunPathLength("50 MHz native Quamachine", MachineConfig::NativeQuamachine());
  RunGoodput();
}

}  // namespace synthesis

int main() {
  synthesis::Main();
  synthesis::WriteBenchJson("BENCH_stream.json");
  return 0;
}
