// Stream channel tests: handshake and re-synthesis, reliable transfer through
// a faulty wire (loss x reorder x duplication, generic vs synthesized segment
// processors in differential harness), graceful failure at the retry cap,
// window/backoff degradation and recovery, and the robustness gauges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/io/channel.h"
#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/machine/executor.h"
#include "src/net/nic_device.h"
#include "src/net/nic_pool.h"
#include "src/net/stream.h"
#include "src/unix/emulator.h"

namespace synthesis {
namespace {

// A deterministic payload pattern so any misdelivered byte is visible.
uint8_t PatternByte(uint32_t i) {
  return static_cast<uint8_t>('!' + ((i * 7 + i / 251) % 90));
}

std::string Pattern(uint32_t n) {
  std::string s(n, 0);
  for (uint32_t i = 0; i < n; i++) {
    s[i] = static_cast<char>(PatternByte(i));
  }
  return s;
}

// Runs until the virtual clock reaches `t` (or stops advancing: a fully idle
// kernel makes no progress and callers assert on outcomes, not on reaching
// `t`). Keepalive scenarios must bound their runs by TIME, not quanta: with
// per-connection probe clocks every sweep alarm does real work, so a raw
// k.Run(quanta) soak coasts the clock for minutes of virtual time and racks
// up thousands of probe transmissions — enough draws that even a
// whisper-probability fault spec eventually eats a whole probe-verdict
// window.
void RunUntilUs(Kernel& k, double t) {
  double last = -1.0;
  int stagnant = 0;
  while (k.NowUs() < t && stagnant < 1000) {
    if (k.NowUs() == last) {
      stagnant++;
    } else {
      stagnant = 0;
      last = k.NowUs();
    }
    k.Run(1);
  }
}

// Sends `total` pattern bytes then closes. Parks when the send buffer fills.
class StreamSender : public UserProgram {
 public:
  StreamSender(StreamLayer& st, ConnId conn, uint32_t total, bool* error)
      : st_(st), conn_(conn), total_(total), error_(error) {}

  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(kChunk);
    }
    if (off_ >= total_) {
      st_.Close(conn_);
      return StepStatus::kDone;
    }
    uint32_t take = std::min<uint32_t>(kChunk, total_ - off_);
    std::vector<uint8_t> tmp(take);
    for (uint32_t i = 0; i < take; i++) {
      tmp[i] = PatternByte(off_ + i);
    }
    k.machine().memory().WriteBytes(buf_, tmp.data(), take);
    int32_t n = st_.Send(conn_, buf_, take);
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;  // Send already parked us
    }
    if (n == kIoError) {
      *error_ = true;
      return StepStatus::kDone;
    }
    off_ += static_cast<uint32_t>(n);
    k.machine().Charge(40, 10, 0);
    return StepStatus::kYield;
  }

 private:
  static constexpr uint32_t kChunk = 200;
  StreamLayer& st_;
  ConnId conn_;
  uint32_t total_;
  bool* error_;
  Addr buf_ = 0;
  uint32_t off_ = 0;
};

// Drains the stream into `out` until end-of-stream, then closes its side.
class StreamReceiver : public UserProgram {
 public:
  StreamReceiver(StreamLayer& st, ConnId conn, std::string* out, bool* error)
      : st_(st), conn_(conn), out_(out), error_(error) {}

  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(kChunk);
    }
    int32_t n = st_.Recv(conn_, buf_, kChunk);
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;  // Recv already parked us
    }
    if (n == kIoError) {
      *error_ = true;
      return StepStatus::kDone;
    }
    if (n == 0) {  // end of stream
      st_.Close(conn_);
      return StepStatus::kDone;
    }
    char tmp[kChunk];
    k.machine().memory().ReadBytes(buf_, tmp, static_cast<size_t>(n));
    out_->append(tmp, static_cast<size_t>(n));
    k.machine().Charge(40, 10, 0);
    return StepStatus::kYield;
  }

 private:
  static constexpr uint32_t kChunk = 240;
  StreamLayer& st_;
  ConnId conn_;
  std::string* out_;
  bool* error_;
  Addr buf_ = 0;
};

class StreamTest : public ::testing::Test {
 protected:
  StreamTest() : StreamTest(NicConfig()) {}
  explicit StreamTest(NicConfig cfg)
      : io_(k_, nullptr), pool_(k_, PoolConfig(cfg)), nic_(pool_.nic(0)),
        st_(k_, io_, pool_) {}

  static NicPoolConfig PoolConfig(NicConfig cfg) {
    NicPoolConfig pc;
    pc.initial_nics = 1;
    pc.nic = cfg;
    return pc;
  }

  // Places a hand-built segment on the wire (a fake peer for direct tests).
  void InjectSeg(uint16_t dst, uint16_t src, uint32_t seq, uint32_t ack,
                 uint32_t flags, const std::string& data) {
    std::vector<uint8_t> p(StreamSeg::kHdrBytes + data.size());
    std::memcpy(p.data() + StreamSeg::kSeq, &seq, 4);
    std::memcpy(p.data() + StreamSeg::kAck, &ack, 4);
    std::memcpy(p.data() + StreamSeg::kFlags, &flags, 4);
    if (!data.empty()) {
      std::memcpy(p.data() + StreamSeg::kHdrBytes, data.data(), data.size());
    }
    uint32_t n = static_cast<uint32_t>(p.size());
    nic_.InjectRaw(dst, src, p.data(), n, FrameChecksum(dst, src, p.data(), n),
                   n);
  }

  // Host-side drain of everything currently queued on a connection.
  std::string DrainAll(ConnId c) {
    std::string out;
    Addr buf = k_.allocator().Allocate(256);
    for (;;) {
      int32_t n = st_.Recv(c, buf, 256);
      if (n <= 0) {
        break;
      }
      char tmp[256];
      k_.machine().memory().ReadBytes(buf, tmp, static_cast<size_t>(n));
      out.append(tmp, static_cast<size_t>(n));
    }
    return out;
  }

  Kernel k_;
  IoSystem io_;
  NicPool pool_;
  NicDevice& nic_;
  StreamLayer st_;
};

TEST_F(StreamTest, HandshakeEstablishesBothSidesAndResynthesizes) {
  ConnId srv = st_.Listen(80);
  ASSERT_NE(srv, kBadConn);
  EXPECT_EQ(st_.Listen(80), kBadConn) << "port already bound";
  BlockId srv_proc_before = st_.SynthDeliverOf(srv);
  ConnId cli = st_.Connect(80);
  ASSERT_NE(cli, kBadConn);
  BlockId cli_proc_before = st_.SynthDeliverOf(cli);
  k_.Run();
  EXPECT_EQ(st_.StateOf(srv), CcbLayout::kEstablished);
  EXPECT_EQ(st_.StateOf(cli), CcbLayout::kEstablished);
  // Establishment makes the peer a connection-lifetime invariant: both sides
  // re-synthesized their segment processors with it folded in.
  EXPECT_NE(st_.SynthDeliverOf(srv), srv_proc_before);
  EXPECT_NE(st_.SynthDeliverOf(cli), cli_proc_before);
  // The CCBs agree about who is talking to whom.
  Memory& mem = k_.machine().memory();
  EXPECT_EQ(mem.Read32(st_.CcbOf(srv) + CcbLayout::kPeer), st_.PortOf(cli));
  EXPECT_EQ(mem.Read32(st_.CcbOf(cli) + CcbLayout::kPeer), st_.PortOf(srv));
  // The handshake consumed one sequence number each way.
  EXPECT_EQ(mem.Read32(st_.CcbOf(srv) + CcbLayout::kRcvNxt), 1u);
  EXPECT_EQ(mem.Read32(st_.CcbOf(cli) + CcbLayout::kRcvNxt), 1u);
  EXPECT_EQ(mem.Read32(st_.CcbOf(cli) + CcbLayout::kSndUna), 1u);
}

// How many byte loops of `len` instructions the executor recognizes in `blk`.
int CountByteLoops(const CodeBlock& blk, uint32_t len) {
  int n = 0;
  for (uint32_t pc = 0; pc < blk.size(); pc++) {
    n += ByteLoopLength(blk, pc) == len ? 1 : 0;
  }
  return n;
}

// Executor::Run runs whole iterations of the checksum and ring-copy byte loops
// as host code only where ByteLoopLength recognizes them. A template or
// optimizer change that reshapes either loop would turn that off without
// moving any simulated number, so the code the kernel installs is pinned here.
TEST_F(StreamTest, InstalledProcessorKeepsItsHostRunByteLoops) {
  ConnId srv = st_.Listen(80);
  ConnId cli = st_.Connect(80);
  ASSERT_NE(srv, kBadConn);
  ASSERT_NE(cli, kBadConn);
  k_.Run();
  for (ConnId c : {srv, cli}) {
    ASSERT_EQ(st_.StateOf(c), CcbLayout::kEstablished);
    ASSERT_FALSE(st_.DegradedOf(c));
    const CodeBlock& proc = k_.code().Get(st_.SynthDeliverOf(c));
    EXPECT_EQ(CountByteLoops(proc, kCsumLoopLength), 1) << proc.name;
    EXPECT_EQ(CountByteLoops(proc, kRingCopyLoopLength), 1) << proc.name;
  }
  const CodeBlock& csum = k_.code().Get(nic_.demux().csum_block());
  EXPECT_EQ(CountByteLoops(csum, kCsumLoopLength), 1) << csum.name;
}

TEST_F(StreamTest, TransferAndBidirectionalCloseReachDone) {
  const uint32_t kTotal = 1000;
  ConnId srv = st_.Listen(80);
  ConnId cli = st_.Connect(80);
  std::string got;
  bool send_err = false, recv_err = false;
  k_.CreateThread(std::make_unique<StreamSender>(st_, cli, kTotal, &send_err));
  k_.CreateThread(std::make_unique<StreamReceiver>(st_, srv, &got, &recv_err));
  k_.Run(10'000'000);
  EXPECT_FALSE(send_err);
  EXPECT_FALSE(recv_err);
  EXPECT_EQ(got, Pattern(kTotal));
  EXPECT_EQ(st_.StateOf(cli), CcbLayout::kDone);
  EXPECT_EQ(st_.StateOf(srv), CcbLayout::kDone);
  // Clean wire: reliability machinery stayed quiet.
  EXPECT_EQ(st_.Stats(cli).retransmits, 0u);
  EXPECT_EQ(st_.Stats(cli).timeouts, 0u);
  EXPECT_EQ(st_.timeout_gauge().events(), 0u);
}

// --- Differential transfer harness ------------------------------------------

struct TransferResult {
  std::string delivered;
  uint32_t client_state = 0;
  uint32_t server_state = 0;
  uint32_t server_rcv_nxt = 0;
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  bool send_err = false;
  bool recv_err = false;
};

// Runs one complete client->server transfer on a fresh kernel with the given
// wire faults, through either the generic or the synthesized demux path.
// `initial_seq` seeds both sides' sequence numbering (near-UINT32_MAX values
// exercise the serial-number arithmetic across the wrap).
TransferResult RunTransfer(const NicConfig& cfg, bool synth_demux,
                           uint32_t total, uint32_t initial_seq = 0) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  pc.nic = cfg;
  NicPool pool(k, pc);
  pool.UseSynthesizedDemux(synth_demux);
  StreamLayer st(k, io, pool);
  StreamConfig scfg;
  scfg.rto_base_us = 3000;
  scfg.max_retries = 12;
  scfg.initial_seq = initial_seq;
  ConnId srv = st.Listen(80, scfg);
  ConnId cli = st.Connect(80, scfg);
  TransferResult r;
  k.CreateThread(std::make_unique<StreamSender>(st, cli, total, &r.send_err));
  k.CreateThread(
      std::make_unique<StreamReceiver>(st, srv, &r.delivered, &r.recv_err));
  k.Run(60'000'000);
  r.client_state = st.StateOf(cli);
  r.server_state = st.StateOf(srv);
  r.server_rcv_nxt = st.Stats(srv).rcv_nxt;
  StreamStats cs = st.Stats(cli);
  r.retransmits = cs.retransmits;
  r.timeouts = cs.timeouts;
  return r;
}

TEST(StreamFaultMatrixTest, ParityAndReliabilityAcrossLossReorderDuplication) {
  struct WireCase {
    const char* name;
    double drop, reorder, dup, burst;
  };
  const WireCase kWire[] = {
      {"clean", 0.0, 0.0, 0.0, 0.0},
      {"loss10+reorder20", 0.10, 0.20, 0.0, 0.0},
      {"loss30+dup15", 0.30, 0.0, 0.15, 0.0},
      {"reorder25+dup20", 0.0, 0.25, 0.20, 0.0},
      {"burst5+reorder10", 0.0, 0.10, 0.0, 0.05},
  };
  const uint32_t kTotal = 1500;
  const std::string want = Pattern(kTotal);
  for (const WireCase& w : kWire) {
    NicConfig cfg;
    cfg.drop_rate = w.drop;
    cfg.reorder_rate = w.reorder;
    cfg.duplicate_rate = w.dup;
    cfg.burst_loss_rate = w.burst;
    cfg.burst_len = 3;
    cfg.fault_seed = 1234;
    TransferResult gen = RunTransfer(cfg, /*synth_demux=*/false, kTotal);
    TransferResult syn = RunTransfer(cfg, /*synth_demux=*/true, kTotal);
    for (const TransferResult* r : {&gen, &syn}) {
      EXPECT_FALSE(r->send_err) << w.name;
      EXPECT_FALSE(r->recv_err) << w.name;
      EXPECT_EQ(r->delivered, want) << w.name;
      EXPECT_EQ(r->client_state, CcbLayout::kDone) << w.name;
      EXPECT_EQ(r->server_state, CcbLayout::kDone) << w.name;
    }
    // Differential: the interpreted and the synthesized segment processors
    // must converge on the identical stream and final sequence state.
    EXPECT_EQ(gen.delivered, syn.delivered) << w.name;
    EXPECT_EQ(gen.server_rcv_nxt, syn.server_rcv_nxt) << w.name;
    EXPECT_EQ(gen.client_state, syn.client_state) << w.name;
    if (w.drop >= 0.30) {
      EXPECT_GT(gen.retransmits, 0u) << w.name;
      EXPECT_GT(syn.retransmits, 0u) << w.name;
    }
  }
}

// --- Graceful failure and degradation ----------------------------------------

TEST_F(StreamTest, CappedRetryFailsConnectionGracefully) {
  StreamConfig cfg;
  cfg.max_retries = 4;
  cfg.rto_base_us = 300;
  ConnId srv = st_.Listen(80, cfg);
  ConnId cli = st_.Connect(80, cfg);
  k_.Run();
  ASSERT_EQ(st_.StateOf(cli), CcbLayout::kEstablished);
  ASSERT_EQ(st_.StateOf(srv), CcbLayout::kEstablished);
  uint16_t cli_port = st_.PortOf(cli);
  nic_.SetWireFaults(1.0, 0, 0, 0, 0);  // the wire goes dark
  bool send_err = false;
  k_.CreateThread(std::make_unique<StreamSender>(st_, cli, 8192, &send_err));
  k_.Run(30'000'000);
  EXPECT_EQ(st_.StateOf(cli), CcbLayout::kFailed);
  EXPECT_EQ(st_.failed_gauge().events(), 1u);
  EXPECT_FALSE(nic_.demux().HasFlow(cli_port))
      << "a failed connection reclaims its port";
  EXPECT_TRUE(send_err) << "the parked sender was released with an error";
  Addr buf = k_.allocator().Allocate(64);
  EXPECT_EQ(st_.Send(cli, buf, 8), kIoError);
  EXPECT_EQ(st_.Recv(cli, buf, 8), kIoError);
  StreamStats s = st_.Stats(cli);
  EXPECT_EQ(s.state, CcbLayout::kFailed);
  EXPECT_EQ(s.timeouts, static_cast<uint64_t>(cfg.max_retries) + 1);
  EXPECT_GE(s.retransmits, s.timeouts - 1);
  EXPECT_EQ(st_.timeout_gauge().events(), s.timeouts);
}

TEST_F(StreamTest, WindowShrinksBackoffGrowsThenRecovers) {
  StreamConfig cfg;
  cfg.max_retries = 1000;  // effectively unbounded: degradation, not failure
  cfg.rto_base_us = 300;
  cfg.rto_cap_us = 2000;
  ConnId srv = st_.Listen(80, cfg);
  ConnId cli = st_.Connect(80, cfg);
  k_.Run();
  ASSERT_EQ(st_.StateOf(cli), CcbLayout::kEstablished);
  ASSERT_EQ(st_.Stats(cli).cwnd, cfg.window_segments);
  nic_.SetWireFaults(1.0, 0, 0, 0, 0);
  Addr buf = k_.allocator().Allocate(1024);
  std::string msg = Pattern(1024);
  k_.machine().memory().WriteBytes(buf, msg.data(), msg.size());
  ASSERT_EQ(st_.Send(cli, buf, 1024), 1024);
  // Let a handful of timeouts elapse: graceful degradation, not failure.
  for (int i = 0; i < 1000 && st_.Stats(cli).timeouts < 4; i++) {
    k_.Run(200);
  }
  StreamStats mid = st_.Stats(cli);
  EXPECT_EQ(st_.StateOf(cli), CcbLayout::kEstablished)
      << "still inside the retry budget";
  EXPECT_GE(mid.timeouts, 3u);
  EXPECT_EQ(mid.cwnd, 1u) << "window halves per timeout down to one segment";
  EXPECT_GT(mid.rto_us, cfg.rto_base_us) << "timeout backs off exponentially";
  // The wire heals: everything retransmits through and the window reopens.
  nic_.SetWireFaults(0, 0, 0, 0, 0);
  k_.Run(20'000'000);
  EXPECT_EQ(st_.StateOf(cli), CcbLayout::kEstablished);
  StreamStats after = st_.Stats(cli);
  EXPECT_EQ(after.rto_us, cfg.rto_base_us) << "backoff resets on fresh acks";
  EXPECT_GT(after.cwnd, 1u) << "window reopens as acks advance";
  EXPECT_EQ(DrainAll(srv), msg) << "all bytes arrive exactly once, in order";
}

TEST_F(StreamTest, ConnectWithNoListenerFailsAfterRetries) {
  StreamConfig cfg;
  cfg.max_retries = 3;
  cfg.rto_base_us = 200;
  ConnId cli = st_.Connect(4242, cfg);
  ASSERT_NE(cli, kBadConn);
  k_.Run(5'000'000);
  EXPECT_EQ(st_.StateOf(cli), CcbLayout::kFailed);
  EXPECT_EQ(st_.failed_gauge().events(), 1u);
  EXPECT_EQ(st_.Stats(cli).timeouts, static_cast<uint64_t>(cfg.max_retries) + 1);
}

// --- Fake-peer accounting tests ----------------------------------------------

TEST_F(StreamTest, OutOfOrderDupAckAndFastRetransmitAccounting) {
  ConnId srv = st_.Listen(90);
  // Handshake from a hand-rolled peer on port 91; the pure ack clears the
  // server's SYN|ACK so no retransmit timer stays armed across Run calls.
  InjectSeg(90, 91, 0, 0, StreamSeg::kFlagSyn, "");
  InjectSeg(90, 91, 1, 1, StreamSeg::kFlagAck, "");
  k_.Run();
  ASSERT_EQ(st_.StateOf(srv), CcbLayout::kEstablished);
  Memory& mem = k_.machine().memory();
  ASSERT_EQ(mem.Read32(st_.CcbOf(srv) + CcbLayout::kSndUna), 1u);
  // In-order data, the same segment again (a wire duplicate), and one from
  // the far future: one accepted, two out-of-order.
  InjectSeg(90, 91, 1, 1, StreamSeg::kFlagAck, "abcd");
  InjectSeg(90, 91, 1, 1, StreamSeg::kFlagAck, "abcd");
  InjectSeg(90, 91, 100, 1, StreamSeg::kFlagAck, "zzzz");
  k_.Run();
  StreamStats s = st_.Stats(srv);
  EXPECT_EQ(s.accepted_segments, 1u);
  EXPECT_EQ(s.out_of_order, 2u);
  EXPECT_EQ(st_.ooo_gauge().events(), 2u);
  EXPECT_EQ(DrainAll(srv), "abcd") << "duplicates land in the ring only once";
  // Outstanding data from the server plus three pure duplicate acks trigger
  // exactly one fast retransmit; the closing ack disarms the timer again.
  Addr out = k_.allocator().Allocate(16);
  mem.WriteBytes(out, "wxyz", 4);
  ASSERT_EQ(st_.Send(srv, out, 4), 4);
  for (int i = 0; i < 3; i++) {
    InjectSeg(90, 91, 5, 1, StreamSeg::kFlagAck, "");
  }
  InjectSeg(90, 91, 5, 5, StreamSeg::kFlagAck, "");
  k_.Run();
  s = st_.Stats(srv);
  // The advancing ack reset the CCB duplicate counter; the host gauge keeps
  // the cumulative story.
  EXPECT_EQ(st_.dup_ack_gauge().events(), 3u);
  EXPECT_EQ(s.fast_retransmits, 1u);
  EXPECT_EQ(st_.StateOf(srv), CcbLayout::kEstablished);
  EXPECT_EQ(mem.Read32(st_.CcbOf(srv) + CcbLayout::kSndUna), 5u);
}

TEST_F(StreamTest, SegmentsFromTheWrongPeerAreRejected) {
  ConnId srv = st_.Listen(90);
  InjectSeg(90, 91, 0, 0, StreamSeg::kFlagSyn, "");
  InjectSeg(90, 91, 1, 1, StreamSeg::kFlagAck, "");
  k_.Run();
  ASSERT_EQ(st_.StateOf(srv), CcbLayout::kEstablished);
  // Port 77 is not the connected peer: data must not reach the stream.
  InjectSeg(90, 77, 1, 1, StreamSeg::kFlagAck, "evil");
  k_.Run();
  EXPECT_EQ(st_.Stats(srv).accepted_segments, 0u);
  EXPECT_EQ(DrainAll(srv), "");
  EXPECT_EQ(st_.StateOf(srv), CcbLayout::kEstablished);
}

// --- Microscopic generic vs synthesized processor parity ---------------------

// Snapshot of everything a segment processor may touch.
struct ProcState {
  std::vector<uint8_t> ccb;
  uint32_t head = 0, tail = 0;
  std::vector<uint8_t> buf;
  uint32_t mal = 0, csum = 0;

  bool operator==(const ProcState& o) const {
    return ccb == o.ccb && head == o.head && tail == o.tail && buf == o.buf &&
           mal == o.mal && csum == o.csum;
  }
};

class StreamProcParityTest : public StreamTest {
 protected:
  ProcState Capture(ConnId c) {
    ProcState s;
    Memory& mem = k_.machine().memory();
    s.ccb.resize(CcbLayout::kBytes);
    mem.ReadBytes(st_.CcbOf(c), s.ccb.data(), CcbLayout::kBytes);
    auto ring = st_.RingOf(c);
    s.head = mem.Read32(ring->base + RingLayout::kHead);
    s.tail = mem.Read32(ring->base + RingLayout::kTail);
    s.buf.resize(128);
    mem.ReadBytes(ring->base + RingLayout::kBuf, s.buf.data(), s.buf.size());
    s.mal = mem.Read32(nic_.demux().ctr_malformed_addr());
    s.csum = mem.Read32(nic_.demux().ctr_csum_addr());
    return s;
  }

  void Restore(ConnId c, const ProcState& s) {
    Memory& mem = k_.machine().memory();
    mem.WriteBytes(st_.CcbOf(c), s.ccb.data(), CcbLayout::kBytes);
    auto ring = st_.RingOf(c);
    mem.Write32(ring->base + RingLayout::kHead, s.head);
    mem.Write32(ring->base + RingLayout::kTail, s.tail);
    mem.WriteBytes(ring->base + RingLayout::kBuf, s.buf.data(), s.buf.size());
    mem.Write32(nic_.demux().ctr_malformed_addr(), s.mal);
    mem.Write32(nic_.demux().ctr_csum_addr(), s.csum);
  }
};

TEST_F(StreamProcParityTest, BothProcessorsProduceIdenticalObservableState) {
  ConnId srv = st_.Listen(90);
  InjectSeg(90, 91, 0, 0, StreamSeg::kFlagSyn, "");
  InjectSeg(90, 91, 1, 1, StreamSeg::kFlagAck, "");
  k_.Run();
  ASSERT_EQ(st_.StateOf(srv), CcbLayout::kEstablished);
  // Give the server outstanding data so the ack cases have teeth.
  Addr out = k_.allocator().Allocate(16);
  k_.machine().memory().WriteBytes(out, "wxyz", 4);
  ASSERT_EQ(st_.Send(srv, out, 4), 4);
  InjectSeg(90, 91, 5, 5, StreamSeg::kFlagAck, "");  // ...and re-ack part way
  k_.Run();
  k_.machine().memory().Write32(st_.CcbOf(srv) + CcbLayout::kSndUna, 2);

  struct SegCase {
    const char* name;
    uint16_t src;
    uint32_t seq, ack, flags;
    std::string data;
    bool corrupt_csum = false;
  };
  const SegCase kCases[] = {
      {"in-order data", 91, 1, 2, StreamSeg::kFlagAck, "hello"},
      {"out-of-order data", 91, 40, 2, StreamSeg::kFlagAck, "late"},
      {"pure dup ack", 91, 5, 2, StreamSeg::kFlagAck, ""},
      {"advancing ack", 91, 5, 4, StreamSeg::kFlagAck, ""},
      {"overshooting ack", 91, 5, 99, StreamSeg::kFlagAck, ""},
      {"stale ack", 91, 5, 1, StreamSeg::kFlagAck, ""},
      {"wrong peer", 77, 1, 2, StreamSeg::kFlagAck, "spoof"},
      {"ctrl (fin)", 91, 1, 2, StreamSeg::kFlagAck | StreamSeg::kFlagFin, ""},
      {"runt segment", 91, 0, 0, 0, ""},  // (only 12 header bytes... shrunk)
      {"bad checksum", 91, 1, 2, StreamSeg::kFlagAck, "junk", true},
  };

  Addr frame = k_.allocator().Allocate(FrameLayout::kSlotBytes);
  Memory& mem = k_.machine().memory();
  ProcState base = Capture(srv);
  uint64_t instr_sum[2] = {0, 0};
  for (const SegCase& sc : kCases) {
    // Build the frame once per case.
    std::vector<uint8_t> p(StreamSeg::kHdrBytes + sc.data.size());
    std::memcpy(p.data() + StreamSeg::kSeq, &sc.seq, 4);
    std::memcpy(p.data() + StreamSeg::kAck, &sc.ack, 4);
    std::memcpy(p.data() + StreamSeg::kFlags, &sc.flags, 4);
    if (!sc.data.empty()) {
      std::memcpy(p.data() + StreamSeg::kHdrBytes, sc.data.data(),
                  sc.data.size());
    }
    uint32_t plen = static_cast<uint32_t>(p.size());
    if (std::string(sc.name) == "runt segment") {
      plen = 6;  // shorter than a segment header
    }
    ProcState got[2];
    uint32_t d0[2] = {0, 0};
    for (bool synth : {false, true}) {
      Restore(srv, base);
      WriteFrame(mem, frame, 90, sc.src, p.data(), plen);
      if (sc.corrupt_csum) {
        mem.Write32(frame + FrameLayout::kChecksum,
                    mem.Read32(frame + FrameLayout::kChecksum) + 1);
      }
      k_.machine().set_reg(kA1, frame);
      Stopwatch sw(k_.machine());
      k_.kexec().Call(synth ? nic_.demux().synthesized_demux()
                            : nic_.demux().generic_demux());
      instr_sum[synth] += sw.instructions();
      d0[synth] = k_.machine().reg(kD0);
      got[synth] = Capture(srv);
    }
    EXPECT_EQ(d0[0], d0[1]) << sc.name;
    EXPECT_TRUE(got[0] == got[1])
        << sc.name << ": processors diverged in CCB/ring/counter state";
  }
  // The folded processor must beat the interpreted one across the whole mix.
  EXPECT_LT(instr_sum[1], instr_sum[0])
      << "synthesized segment path must run fewer instructions";
}

// --- Prepared segment processors ---------------------------------------------

// The processor's live-out registers on top of the kernel's options: the
// demux reads d0 (verdict), d1 and d2 (the matched port) after the call.
SynthesisOptions ProcessorOptions(const Kernel& k) {
  SynthesisOptions opts = k.config().synthesis;
  opts.live_out |= (1u << kD0) | (1u << kD1) | (1u << kD2);
  return opts;
}

// The owning demux's fixed holes.
Bindings DemuxHoles(const DemuxSynthesizer& dmx) {
  Bindings b;
  b.Set("csum", static_cast<int32_t>(dmx.csum_block()));
  b.Set("ctr_mal", static_cast<int32_t>(dmx.ctr_malformed_addr()));
  b.Set("ctr_csum", static_cast<int32_t>(dmx.ctr_csum_addr()));
  return b;
}

// Every binding a connection's processor is specialized under, read back
// from the connection itself: its port, its CCB fields, its ring.
Bindings ConnectionHoles(Kernel& k, StreamLayer& st, NicPool& pool, ConnId c) {
  Memory& mem = k.machine().memory();
  const Addr ccb = st.CcbOf(c);
  const Addr ring = st.RingOf(c)->base;
  const uint32_t mask = mem.Read32(ring + RingLayout::kMask);
  Bindings b = DemuxHoles(pool.demux_of(st.PortOf(c)));
  auto set = [&b](const char* name, uint32_t v) {
    b.Set(name, static_cast<int32_t>(v));
  };
  set("port", st.PortOf(c));
  set("peer", mem.Read32(ccb + CcbLayout::kPeer));
  set("lastf", ccb + CcbLayout::kLastFrame);
  set("ev", ccb + CcbLayout::kEvents);
  set("st", ccb + CcbLayout::kState);
  set("una", ccb + CcbLayout::kSndUna);
  set("nxt", ccb + CcbLayout::kSndNxt);
  set("rnxt", ccb + CcbLayout::kRcvNxt);
  set("dup", ccb + CcbLayout::kDupAcks);
  set("ooo", ccb + CcbLayout::kOoo);
  set("acc", ccb + CcbLayout::kAccepted);
  set("head", ring + RingLayout::kHead);
  set("tail", ring + RingLayout::kTail);
  set("buf", ring + RingLayout::kBuf);
  set("mask", mask);
  set("rsz", mask + 1);
  return b;
}

// Each shape prepares without declining, and the only guards are the two the
// processor can never trip (a ring mask of all ones, a ring buffer at 0).
// Instances under random values, guard values included, equal Specialize.
TEST(StreamProcessorPrepareTest, EveryShapePreparesAndInstancesEqualSpecialize) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);
  const SynthesisOptions opts = ProcessorOptions(k);
  const Bindings fixed = DemuxHoles(pool.nic(0).demux());
  const std::vector<std::string>& holes = SegmentProcessorHoles();
  auto slot_of = [&holes](const char* name) {
    return static_cast<uint32_t>(std::find(holes.begin(), holes.end(), name) -
                                 holes.begin());
  };
  std::mt19937 rng(21);
  for (ProcShape shape : {ProcShape::kPreEstablish, ProcShape::kEstablished,
                          ProcShape::kHot}) {
    const CodeTemplate tmpl = SegmentProcessorTemplate(shape);
    PreparedTemplate prep = k.synthesizer().Prepare(tmpl, fixed, holes, opts);
    ASSERT_FALSE(prep.declined()) << "shape " << static_cast<int>(shape);
    std::vector<PreparedTemplate::Guard> guards = prep.guards();
    std::vector<PreparedTemplate::Guard> want;
    if (shape != ProcShape::kPreEstablish) {
      want = {{slot_of("mask"), -1}, {slot_of("buf"), 0}};
    }
    auto by_slot = [](const PreparedTemplate::Guard& a,
                      const PreparedTemplate::Guard& b) { return a.slot < b.slot; };
    std::sort(guards.begin(), guards.end(), by_slot);
    std::sort(want.begin(), want.end(), by_slot);
    EXPECT_EQ(guards, want) << "shape " << static_cast<int>(shape);

    for (int inst = 0; inst < 200; inst++) {
      std::vector<int32_t> values;
      Bindings all = fixed;
      for (const std::string& h : holes) {
        const uint32_t pick = rng() % 8;
        values.push_back(pick == 0 ? 0 : pick == 1 ? -1 : static_cast<int32_t>(rng()));
        all.Set(h, values.back());
      }
      SynthesisStats want_st, got_st;
      CodeBlock spec = k.synthesizer().Specialize(tmpl, all, nullptr, opts, &want_st);
      CodeBlock got = k.synthesizer().Instantiate(prep, values, &got_st);
      ASSERT_EQ(got.code, spec.code) << "shape " << static_cast<int>(shape);
      ASSERT_EQ(got_st.input_instructions, want_st.input_instructions);
      ASSERT_EQ(got_st.output_instructions, want_st.output_instructions);
      ASSERT_EQ(got_st.inlined_calls, want_st.inlined_calls);
      ASSERT_EQ(got_st.removed_instructions, want_st.removed_instructions);
      ASSERT_EQ(got_st.folded_branches, want_st.folded_branches);
    }
  }
}

// Through the layer itself: on a 4-NIC pool, connections over many ports,
// CCB addresses and ring sizes each run an instance equal to Specialize of
// their shape under their own bindings — before establishment, established,
// and promoted hot.
TEST(StreamProcessorPrepareTest, LayerInstancesEqualSpecializeForEveryShape) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 4;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  const SynthesisOptions opts = ProcessorOptions(k);
  auto expect_shape = [&](ConnId c, ProcShape shape) {
    const Bindings b = ConnectionHoles(k, st, pool, c);
    CodeBlock want = k.synthesizer().Specialize(SegmentProcessorTemplate(shape),
                                                b, nullptr, opts);
    EXPECT_EQ(k.code().Get(st.SynthDeliverOf(c)).code, want.code)
        << "port " << st.PortOf(c) << " shape " << static_cast<int>(shape);
  };
  std::mt19937 rng(8);
  std::vector<ConnId> conns;
  const uint32_t kRings[] = {64, 256, 1024, 4096, 16384};
  for (uint32_t i = 0; i < 20; i++) {
    k.allocator().Allocate(4 + rng() % 200);  // vary the CCB and ring addresses
    StreamConfig cfg;
    cfg.ring_bytes = kRings[i % 5];
    const uint16_t port = static_cast<uint16_t>(100 + 997 * i % 30000);
    ConnId srv = st.Listen(port, cfg);
    ConnId cli = st.Connect(port, cfg);
    ASSERT_NE(srv, kBadConn);
    ASSERT_NE(cli, kBadConn);
    expect_shape(srv, ProcShape::kPreEstablish);
    expect_shape(cli, ProcShape::kPreEstablish);
    conns.push_back(srv);
    conns.push_back(cli);
  }
  k.Run();
  for (ConnId c : conns) {
    ASSERT_EQ(st.StateOf(c), CcbLayout::kEstablished);
    ASSERT_FALSE(st.DegradedOf(c));
    expect_shape(c, ProcShape::kEstablished);
    ASSERT_TRUE(k.spec().Promote(st.SpecOf(c), SpecTier::kHot));
    expect_shape(c, ProcShape::kHot);
  }
}

// --- UNIX emulator surface ----------------------------------------------------

TEST_F(StreamTest, UnixEmulatorStreamSurface) {
  UnixEmulator emu(k_, io_, nullptr);
  emu.AttachStream(&st_);
  int srv = emu.Listen(7000);
  ASSERT_GE(srv, 0);
  int cli = emu.Connect(7000);
  ASSERT_GE(cli, 0);
  k_.Run();
  Addr out = emu.scratch(128);
  k_.machine().memory().WriteBytes(out, "via unix stream", 15);
  EXPECT_EQ(emu.Send(cli, out, 15), 15);
  k_.Run();
  Addr in = k_.allocator().Allocate(64);
  EXPECT_EQ(emu.Recv(srv, in, 64), 15);
  char got[15];
  k_.machine().memory().ReadBytes(in, got, 15);
  EXPECT_EQ(std::string(got, 15), "via unix stream");
  // Read/Write alias Recv/Send on stream fds.
  EXPECT_EQ(emu.Write(srv, out, 15), 15);
  k_.Run();
  EXPECT_EQ(emu.Read(cli, in, 64), 15);
  EXPECT_EQ(emu.Close(cli), 0);
  EXPECT_EQ(emu.Close(cli), -1);
  EXPECT_EQ(emu.Close(srv), 0);
  k_.Run(10'000'000);
  // A PosixLikeApi without a stream layer reports -1 without crashing.
  UnixEmulator bare(k_, io_, nullptr);
  EXPECT_EQ(bare.Listen(7000), -1);
  EXPECT_EQ(bare.Connect(7000), -1);
}

// --- Connection-lifecycle regressions -----------------------------------------

TEST_F(StreamTest, EphemeralAllocationWrapsToBaseAndSkipsLivePorts) {
  // A live connection occupies the port just past the wrap so the allocator
  // has to step over it after coming back around.
  st_.set_next_ephemeral(40001);
  ConnId occupant = st_.Connect(9000);
  ASSERT_NE(occupant, kBadConn);
  ASSERT_EQ(st_.PortOf(occupant), 40001);
  st_.set_next_ephemeral(65534);
  ConnId a = st_.Connect(9000);
  ConnId b = st_.Connect(9000);
  ConnId c = st_.Connect(9000);
  ConnId d = st_.Connect(9000);
  EXPECT_EQ(st_.PortOf(a), 65534);
  EXPECT_EQ(st_.PortOf(b), 65535);
  EXPECT_EQ(st_.PortOf(c), StreamLayer::kEphemeralBase)
      << "past 65535 the allocator wraps to the base, never into port 0 or "
         "the well-known range";
  EXPECT_EQ(st_.PortOf(d), 40002) << "port 40001 belongs to a live connection";
}

TEST_F(StreamTest, ConnectFailsCleanlyWhenEphemeralRangeExhausts) {
  st_.set_ephemeral_range_for_test(40000, 40003);
  StreamConfig cfg;
  cfg.max_retries = 2;
  cfg.rto_base_us = 300;
  ConnId conns[4];
  for (ConnId& c : conns) {
    c = st_.Connect(9000, cfg);
    ASSERT_NE(c, kBadConn);
  }
  EXPECT_EQ(st_.Connect(9000, cfg), kBadConn)
      << "an exhausted range refuses the connect instead of binding port 0";
  EXPECT_EQ(st_.failed_gauge().events(), 0u)
      << "a refused connect is not a failed connection";
  // Nobody listens on 9000, so every SYN times out past the retry cap and
  // the failed connections release their ports back to the range.
  k_.Run(20'000'000);
  for (ConnId c : conns) {
    ASSERT_EQ(st_.StateOf(c), CcbLayout::kFailed);
  }
  ConnId again = st_.Connect(9000, cfg);
  EXPECT_NE(again, kBadConn) << "failed connections release their ports";
  EXPECT_EQ(st_.PortOf(again), 40000);
}

TEST(StreamSeqWrapTest, TransferCrossesTheSequenceWrapOnBothProcessors) {
  const uint32_t kTotal = 2048;
  // Numbering starts 256 bytes shy of 2^32: the handshake and the first
  // segments straddle the wrap, the rest of the stream runs past it.
  const uint32_t kIss = 0xFFFFFF00u;
  const std::string want = Pattern(kTotal);
  NicConfig clean;
  NicConfig lossy;
  lossy.drop_rate = 0.10;
  lossy.fault_seed = 77;
  for (const NicConfig& cfg : {clean, lossy}) {
    TransferResult gen = RunTransfer(cfg, /*synth_demux=*/false, kTotal, kIss);
    TransferResult syn = RunTransfer(cfg, /*synth_demux=*/true, kTotal, kIss);
    for (const TransferResult* r : {&gen, &syn}) {
      EXPECT_FALSE(r->send_err);
      EXPECT_FALSE(r->recv_err);
      EXPECT_EQ(r->delivered, want) << "bytes must cross the 2^32 seam intact";
      EXPECT_EQ(r->client_state, CcbLayout::kDone);
      EXPECT_EQ(r->server_state, CcbLayout::kDone);
      // SYN + data + FIN, numbered from the ISS, reduced mod 2^32.
      EXPECT_EQ(r->server_rcv_nxt, kIss + 1 + kTotal + 1);
    }
    EXPECT_EQ(gen.server_rcv_nxt, syn.server_rcv_nxt);
    EXPECT_EQ(gen.delivered, syn.delivered);
  }
}

TEST_F(StreamTest, ConnectionChurnReclaimsProcessorsAndMemory) {
  const uint32_t kTotal = 384;
  const std::string want = Pattern(kTotal);
  // One buffer reused across every cycle, so any growth in allocator or code
  // store occupancy below is the stream layer's own.
  Addr buf = k_.allocator().Allocate(512);
  Memory& mem = k_.machine().memory();
  size_t blocks_after_warmup = 0;
  uint32_t bytes_after_warmup = 0;
  uint32_t allocs_after_warmup = 0;
  const int kCycles = 10;
  for (int i = 0; i < kCycles; i++) {
    ConnId srv = st_.Listen(80);
    ConnId cli = st_.Connect(80);
    ASSERT_NE(srv, kBadConn) << "cycle " << i << ": port 80 must be free again";
    ASSERT_NE(cli, kBadConn);
    mem.WriteBytes(buf, want.data(), want.size());
    ASSERT_EQ(st_.Send(cli, buf, kTotal), static_cast<int32_t>(kTotal));
    ASSERT_TRUE(st_.Close(cli));
    k_.Run(10'000'000);
    std::string got;
    for (;;) {
      int32_t n = st_.Recv(srv, buf, 512);
      if (n <= 0) {
        break;
      }
      char tmp[512];
      mem.ReadBytes(buf, tmp, static_cast<size_t>(n));
      got.append(tmp, static_cast<size_t>(n));
    }
    ASSERT_EQ(got, want) << "cycle " << i;
    ASSERT_TRUE(st_.Close(srv));
    k_.Run(10'000'000);
    ASSERT_EQ(st_.StateOf(cli), CcbLayout::kDone) << "cycle " << i;
    ASSERT_EQ(st_.StateOf(srv), CcbLayout::kDone) << "cycle " << i;
    ASSERT_EQ(st_.CcbOf(srv), 0u) << "reclaim returns the CCB to the allocator";
    ASSERT_EQ(st_.SynthDeliverOf(cli), kInvalidBlock)
        << "reclaim retires the synthesized segment processor";
    ASSERT_FALSE(nic_.demux().HasFlow(80)) << "the port unbinds on teardown";
    if (i == 2) {
      // Lazily-installed pieces (the generic processor, steering blocks) are
      // in place by now: from here on occupancy must be flat.
      blocks_after_warmup = k_.code().live_block_count();
      bytes_after_warmup = k_.allocator().bytes_in_use();
      allocs_after_warmup = k_.allocator().allocation_count();
    }
  }
  EXPECT_EQ(k_.code().live_block_count(), blocks_after_warmup)
      << "synthesized blocks leak across connection churn";
  EXPECT_EQ(k_.allocator().bytes_in_use(), bytes_after_warmup)
      << "CCB/ring memory leaks across connection churn";
  EXPECT_EQ(k_.allocator().allocation_count(), allocs_after_warmup);
}

// A reclaimed connection's full host record is compacted at the next open;
// every accessor must answer exactly as it did before.
TEST_F(StreamTest, ReclaimedConnectionAnswersTheSameAfterCompaction) {
  Addr buf = k_.allocator().Allocate(64);
  // Every connection opens before any closes: the next Listen/Connect
  // compacts whatever is reclaimed by then.
  // Two clean pairs under configs whose timers and windows differ, so their
  // compacted slots index two different (rto_us, cwnd) entries. A third clean
  // pair numbers from past 2^16, so its rcv_nxt overflows a compacted slot and
  // it keeps full records.
  StreamConfig other;
  other.rto_base_us = 6000;
  other.window_segments = 4;
  StreamConfig high_seq;
  high_seq.initial_seq = 0x12345678;
  const ConnId srv = st_.Listen(80);
  const ConnId cli = st_.Connect(80);
  const ConnId srv2 = st_.Listen(82, other);
  const ConnId cli2 = st_.Connect(82, other);
  const ConnId srv3 = st_.Listen(84, high_seq);
  const ConnId cli3 = st_.Connect(84, high_seq);
  // A connection that ends with retransmits, dup acks and an out-of-order
  // segment keeps its full record: a fake peer on port 91 handshakes, sends
  // a segment from the future, dup-acks the server's data three times (a
  // fast retransmit) and goes silent until the server gives up.
  StreamConfig lossy;
  lossy.max_retries = 2;
  const ConnId lost = st_.Listen(90, lossy);
  InjectSeg(90, 91, 0, 0, StreamSeg::kFlagSyn, "");
  InjectSeg(90, 91, 1, 1, StreamSeg::kFlagAck, "");
  k_.Run();
  ASSERT_EQ(st_.StateOf(lost), CcbLayout::kEstablished);
  for (ConnId c : {cli, cli2, cli3}) {
    ASSERT_EQ(st_.Send(c, buf, 48), 48);
    ASSERT_TRUE(st_.Close(c));
  }
  k_.Run();
  for (ConnId s : {srv, srv2, srv3}) {
    ASSERT_EQ(st_.Recv(s, buf, 64), 48);
    ASSERT_EQ(st_.Recv(s, buf, 64), 0);
    ASSERT_TRUE(st_.Close(s));
  }
  InjectSeg(90, 91, 100, 1, StreamSeg::kFlagAck, "zzzz");
  ASSERT_EQ(st_.Send(lost, buf, 4), 4);
  for (int i = 0; i < 3; i++) {
    InjectSeg(90, 91, 1, 1, StreamSeg::kFlagAck, "");
  }
  k_.Run(5'000'000);
  ASSERT_EQ(st_.StateOf(lost), CcbLayout::kFailed);
  const std::vector<ConnId> ids = {cli, srv, cli2, srv2, lost, cli3, srv3};

  struct View {
    StreamStats stats;
    uint32_t state;
    uint16_t port;
    bool degraded;
    int32_t send, recv;
    bool close;
  };
  auto view = [&](ConnId id) {
    View v{st_.Stats(id), st_.StateOf(id), st_.PortOf(id), st_.DegradedOf(id),
           st_.Send(id, buf, 8), st_.Recv(id, buf, 8), st_.Close(id)};
    EXPECT_EQ(st_.CcbOf(id), 0u);
    EXPECT_EQ(st_.RingOf(id), nullptr);
    EXPECT_EQ(st_.SynthDeliverOf(id), kInvalidBlock);
    EXPECT_EQ(st_.SpecOf(id), kBadSpec);
    return v;
  };
  std::vector<View> before;
  for (ConnId id : ids) {
    before.push_back(view(id));
  }
  ASSERT_EQ(before[0].state, CcbLayout::kDone);
  ASSERT_GT(before[1].stats.accepted_segments, 0u);
  ASSERT_TRUE(before[0].stats.rto_us != before[2].stats.rto_us ||
              before[0].stats.cwnd != before[2].stats.cwnd);
  ASSERT_GT(before[4].stats.retransmits, 0u);
  ASSERT_GT(before[4].stats.fast_retransmits, 0u);
  ASSERT_GT(before[4].stats.timeouts, 0u);
  ASSERT_GT(before[4].stats.dup_acks, 0u);
  ASSERT_GT(before[4].stats.out_of_order, 0u);
  ASSERT_EQ(before[6].state, CcbLayout::kDone);
  ASSERT_GT(before[6].stats.rcv_nxt, 0xffffu);
  ASSERT_NE(st_.Listen(81), kBadConn);  // compacts the reclaimed records
  for (size_t i = 0; i < ids.size(); i++) {
    const View after = view(ids[i]);
    const StreamStats& a = before[i].stats;
    const StreamStats& b = after.stats;
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.fast_retransmits, b.fast_retransmits);
    EXPECT_EQ(a.dup_acks, b.dup_acks);
    EXPECT_EQ(a.out_of_order, b.out_of_order);
    EXPECT_EQ(a.accepted_segments, b.accepted_segments);
    EXPECT_EQ(a.rto_us, b.rto_us);
    EXPECT_EQ(a.cwnd, b.cwnd);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.rcv_nxt, b.rcv_nxt);
    EXPECT_EQ(before[i].state, after.state);
    EXPECT_EQ(before[i].port, after.port);
    EXPECT_EQ(before[i].degraded, after.degraded);
    EXPECT_EQ(before[i].send, after.send);
    EXPECT_EQ(before[i].recv, after.recv);
    EXPECT_EQ(before[i].close, after.close);
  }
}

// A connection is a control block, a ring and the code synthesized for it:
// its segment processor and its alarm stub. Nothing else — RecvSpan drains
// the ring directly, so no I/O channel (and no device name) sits over it.
TEST_F(StreamTest, ConnectionOwnsOnlyItsProcessorAndAlarmStub) {
  StreamConfig cfg;
  cfg.keepalive_idle_us = 0;  // no probe stub
  // The warm-up pair installs the shared generic processor.
  ASSERT_NE(st_.Listen(80, cfg), kBadConn);
  ASSERT_NE(st_.Connect(80, cfg), kBadConn);
  k_.Run();
  const size_t blocks = k_.code().live_block_count();
  const size_t handles = k_.spec().live_handles();

  const uint32_t kPairs = 8;
  std::vector<ConnId> conns;
  for (uint16_t port = 81; port < 81 + kPairs; port++) {
    conns.push_back(st_.Listen(port, cfg));
    conns.push_back(st_.Connect(port, cfg));
  }
  k_.Run();
  for (ConnId id : conns) {
    ASSERT_NE(id, kBadConn);
    ASSERT_EQ(st_.StateOf(id), CcbLayout::kEstablished);
  }
  EXPECT_EQ(k_.code().live_block_count(), blocks + 2 * conns.size())
      << "each connection adds its segment processor and alarm stub only";
  EXPECT_EQ(k_.spec().live_handles(), handles + conns.size())
      << "each connection holds one Specializer handle: its processor's";
  for (ConnId id : conns) {
    EXPECT_EQ(io_.Open("/net/tcp/" + std::to_string(st_.PortOf(id))),
              kBadChannel)
        << "a connection registers no ring device";
  }
}

// Satellite of the churn test above: the same open/transfer/close cycle, but
// with the fault plane firing at the allocator and the code store at the
// worst moments — during Connect's resource construction and during the
// mid-establishment re-synthesis. Every failure must roll back or fail the
// connection cleanly: after each cycle the installed-block and allocator
// occupancy are exactly the pre-churn values.
TEST_F(StreamTest, ChurnUnderInjectedFailuresKeepsOccupancyExact) {
  const uint32_t kTotal = 256;
  const std::string want = Pattern(kTotal);
  Addr buf = k_.allocator().Allocate(512);
  Memory& mem = k_.machine().memory();
  StreamConfig scfg;
  scfg.rto_base_us = 1000;
  scfg.max_retries = 2;  // injected-failure cycles burn the retry cap fast

  auto clean_cycle = [&](int i) {
    ConnId srv = st_.Listen(80, scfg);
    ConnId cli = st_.Connect(80, scfg);
    ASSERT_NE(srv, kBadConn) << "cycle " << i;
    ASSERT_NE(cli, kBadConn) << "cycle " << i;
    mem.WriteBytes(buf, want.data(), want.size());
    ASSERT_EQ(st_.Send(cli, buf, kTotal), static_cast<int32_t>(kTotal));
    ASSERT_TRUE(st_.Close(cli));
    k_.Run(10'000'000);
    // Drain through the one shared buffer (DrainAll allocates its own, which
    // would show up as drift in the occupancy checks below).
    std::string got;
    for (;;) {
      int32_t n = st_.Recv(srv, buf, 512);
      if (n <= 0) {
        break;
      }
      char tmp[512];
      mem.ReadBytes(buf, tmp, static_cast<size_t>(n));
      got.append(tmp, static_cast<size_t>(n));
    }
    ASSERT_EQ(got, want) << "cycle " << i;
    ASSERT_TRUE(st_.Close(srv));
    k_.Run(10'000'000);
    ASSERT_EQ(st_.StateOf(cli), CcbLayout::kDone) << "cycle " << i;
    ASSERT_EQ(st_.StateOf(srv), CcbLayout::kDone) << "cycle " << i;
  };

  FaultTrigger certain;
  certain.probability = 1.0;

  // Warm up until lazily-installed pieces are in place, then snapshot. The
  // warmup includes one degraded establishment so the one-time pieces that
  // path creates lazily (the sweep stub, the shared generic walk) exist
  // before the exact-occupancy baseline is taken.
  for (int i = 0; i < 3; i++) {
    clean_cycle(i);
  }
  {
    ConnId srv = st_.Listen(80, scfg);
    ConnId cli = st_.Connect(80, scfg);
    ASSERT_NE(srv, kBadConn);
    ASSERT_NE(cli, kBadConn);
    k_.faults().Arm(FaultSite::kCodeInstall, certain);
    k_.Run(10'000'000);
    k_.faults().Disarm(FaultSite::kCodeInstall);
    ASSERT_EQ(st_.StateOf(srv), CcbLayout::kEstablished);
    ASSERT_EQ(st_.StateOf(cli), CcbLayout::kEstablished);
    mem.WriteBytes(buf, want.data(), want.size());
    ASSERT_EQ(st_.Send(cli, buf, kTotal), static_cast<int32_t>(kTotal));
    k_.Run(10'000'000);
    while (st_.Recv(srv, buf, 512) > 0) {
    }
    st_.SweepNowForTest();  // promote both ends back to synthesized code
    ASSERT_TRUE(st_.Close(cli));
    ASSERT_TRUE(st_.Close(srv));
    k_.Run(10'000'000);
    ASSERT_EQ(st_.StateOf(cli), CcbLayout::kDone);
    ASSERT_EQ(st_.StateOf(srv), CcbLayout::kDone);
  }
  clean_cycle(3);
  k_.Run(1'000'000);  // drain deferred retirements before the snapshot
  const size_t blocks0 = k_.code().live_block_count();
  const uint32_t bytes0 = k_.allocator().bytes_in_use();
  const uint32_t allocs0 = k_.allocator().allocation_count();
  for (int i = 0; i < 3; i++) {
    // (a) Allocator failure inside Connect: the CCB allocation fails, the
    // attempt rolls back before anything else was acquired.
    uint64_t open_fails = st_.open_fail_gauge().events();
    k_.faults().Arm(FaultSite::kAlloc, certain);
    EXPECT_EQ(st_.Connect(80, scfg), kBadConn) << "cycle " << i;
    k_.faults().Disarm(FaultSite::kAlloc);
    EXPECT_EQ(st_.open_fail_gauge().events(), open_fails + 1);
    EXPECT_EQ(k_.code().live_block_count(), blocks0) << "cycle " << i;
    EXPECT_EQ(k_.allocator().bytes_in_use(), bytes0) << "cycle " << i;

    // (b) Code-store failure inside Connect: the channel read (or processor)
    // install fails after CCB + ring + namespace exist; all of it unwinds.
    k_.faults().Arm(FaultSite::kCodeInstall, certain);
    EXPECT_EQ(st_.Connect(80, scfg), kBadConn) << "cycle " << i;
    k_.faults().Disarm(FaultSite::kCodeInstall);
    EXPECT_EQ(st_.open_fail_gauge().events(), open_fails + 2);
    k_.Run(1'000'000);  // drain any deferred retirements
    EXPECT_EQ(k_.code().live_block_count(), blocks0) << "cycle " << i;
    EXPECT_EQ(k_.allocator().bytes_in_use(), bytes0) << "cycle " << i;

    // (c) Code-store failure mid-establishment: synthesis is an optimization,
    // not a correctness requirement. Both Establish-time re-syntheses are
    // refused, so each side falls back to the shared generic segment walk and
    // the handshake completes DEGRADED instead of failing. Bytes still flow;
    // once the injection clears, the sweep promotes both ends back to
    // synthesized code and occupancy converges exactly.
    ConnId srv = st_.Listen(80, scfg);
    ConnId cli = st_.Connect(80, scfg);
    ASSERT_NE(srv, kBadConn) << "cycle " << i;
    ASSERT_NE(cli, kBadConn) << "cycle " << i;
    uint64_t fallback0 = st_.synth_fallback_gauge().events();
    uint64_t resynth0 = st_.resynth_gauge().events();
    k_.faults().Arm(FaultSite::kCodeInstall, certain);
    k_.Run(10'000'000);
    k_.faults().Disarm(FaultSite::kCodeInstall);
    ASSERT_EQ(st_.StateOf(srv), CcbLayout::kEstablished) << "cycle " << i;
    ASSERT_EQ(st_.StateOf(cli), CcbLayout::kEstablished) << "cycle " << i;
    EXPECT_TRUE(st_.DegradedOf(srv)) << "cycle " << i;
    EXPECT_TRUE(st_.DegradedOf(cli)) << "cycle " << i;
    EXPECT_GE(st_.synth_fallback_gauge().events(), fallback0 + 2);
    mem.WriteBytes(buf, want.data(), want.size());
    ASSERT_EQ(st_.Send(cli, buf, kTotal), static_cast<int32_t>(kTotal));
    k_.Run(10'000'000);
    std::string got;
    for (;;) {
      int32_t n = st_.Recv(srv, buf, 512);
      if (n <= 0) {
        break;
      }
      char tmp[512];
      mem.ReadBytes(buf, tmp, static_cast<size_t>(n));
      got.append(tmp, static_cast<size_t>(n));
    }
    EXPECT_EQ(got, want) << "degraded connections must still move bytes";
    st_.SweepNowForTest();  // pressure drained: re-synthesize both ends now
    EXPECT_FALSE(st_.DegradedOf(srv)) << "cycle " << i;
    EXPECT_FALSE(st_.DegradedOf(cli)) << "cycle " << i;
    EXPECT_GE(st_.resynth_gauge().events(), resynth0 + 2);
    ASSERT_TRUE(st_.Close(cli));
    ASSERT_TRUE(st_.Close(srv));
    k_.Run(10'000'000);
    EXPECT_EQ(st_.StateOf(cli), CcbLayout::kDone) << "cycle " << i;
    EXPECT_EQ(st_.StateOf(srv), CcbLayout::kDone) << "cycle " << i;
    k_.Run(1'000'000);
    // The demux's own rebuild-under-injection may have fallen back to its
    // generic routine (one fewer live block until the next bind re-emits a
    // specialized one) — but never more blocks, and allocator occupancy is
    // exactly the pre-churn value.
    EXPECT_LE(k_.code().live_block_count(), blocks0) << "cycle " << i;
    EXPECT_EQ(k_.allocator().bytes_in_use(), bytes0) << "cycle " << i;
    EXPECT_EQ(k_.allocator().allocation_count(), allocs0) << "cycle " << i;

    // (d) Disarmed, the same port churns cleanly again — full recovery.
    clean_cycle(100 + i);
    k_.Run(1'000'000);
    EXPECT_EQ(k_.code().live_block_count(), blocks0) << "cycle " << i;
    EXPECT_EQ(k_.allocator().bytes_in_use(), bytes0) << "cycle " << i;
  }
}

// A pair degraded under certain install refusal holds degraded Specializer
// handles, so the kernel-wide sweep (AdaptNow) recovers it on its own, with
// no stream-sweep pass: the recovery is counted and the flows are rebound to
// the re-synthesized processors.
TEST_F(StreamTest, DegradedPairRecoversThroughTheKernelSweep) {
  ConnId srv = st_.Listen(80);
  ConnId cli = st_.Connect(80);
  ASSERT_NE(srv, kBadConn);
  ASSERT_NE(cli, kBadConn);
  FaultTrigger certain;
  certain.probability = 1.0;
  k_.faults().Arm(FaultSite::kCodeInstall, certain);
  k_.Run(10'000'000);
  k_.faults().Disarm(FaultSite::kCodeInstall);
  ASSERT_EQ(st_.StateOf(srv), CcbLayout::kEstablished);
  ASSERT_EQ(st_.StateOf(cli), CcbLayout::kEstablished);
  ASSERT_TRUE(st_.DegradedOf(srv));
  ASSERT_TRUE(st_.DegradedOf(cli));
  const BlockId walk = nic_.demux().generic_demux();
  ASSERT_EQ(st_.SynthDeliverOf(srv), walk);

  const uint64_t resynth0 = st_.resynth_gauge().events();
  k_.AdaptNow();
  EXPECT_EQ(st_.resynth_gauge().events(), resynth0 + 2);
  for (ConnId c : {srv, cli}) {
    EXPECT_FALSE(st_.DegradedOf(c));
    EXPECT_FALSE(k_.spec().DegradedOf(st_.SpecOf(c)));
    EXPECT_EQ(k_.spec().TierOf(st_.SpecOf(c)), SpecTier::kSpecialized);
    EXPECT_NE(st_.SynthDeliverOf(c), walk);
  }

  // The recovered processors carry the traffic.
  Addr buf = k_.allocator().Allocate(64);
  k_.machine().memory().WriteBytes(buf, "recovered", 9);
  ASSERT_EQ(st_.Send(cli, buf, 9), 9);
  k_.Run(10'000'000);
  EXPECT_EQ(DrainAll(srv), "recovered");
}

TEST_F(StreamTest, DuplicateAlarmAtOneDeadlineFiresExactlyOneTimeout) {
  StreamConfig cfg;
  cfg.rto_base_us = 300;
  cfg.max_retries = 3;
  ConnId cli = st_.Connect(4242, cfg);  // no listener: every timer fires
  ASSERT_NE(cli, kBadConn);
  // Connect armed the SYN retransmit timer; arming again at the same instant
  // queues a second alarm with the identical deadline tick. The integer tick
  // comparison makes the duplicate a deterministic no-op — the float-epsilon
  // compare this replaces left it to rounding luck. Run the connection all
  // the way to its retry cap: a total count proves the duplicate contributed
  // nothing without assuming anything about Run()'s granularity.
  st_.ArmTimerForTest(cli);
  k_.Run(50'000'000);
  EXPECT_EQ(st_.StateOf(cli), CcbLayout::kFailed);
  EXPECT_EQ(st_.Stats(cli).timeouts, cfg.max_retries + 1)
      << "coalesced alarms must fire each timeout exactly once; the "
         "duplicate's deadline tick is superseded by the first re-arm";
  EXPECT_EQ(st_.Stats(cli).retransmits, cfg.max_retries);
}

// --- Idle-connection reaper / keepalive -------------------------------------

TEST_F(StreamTest, KeepaliveProbesKeepIdleConnectionAlive) {
  StreamConfig ka;
  ka.keepalive_idle_us = 5000;
  ka.keepalive_interval_us = 2000;
  ka.keepalive_probes = 3;
  ConnId srv = st_.Listen(80, ka);
  ConnId cli = st_.Connect(80, ka);
  ASSERT_NE(srv, kBadConn);
  ASSERT_NE(cli, kBadConn);
  RunUntilUs(k_, 20'000);
  ASSERT_EQ(st_.StateOf(srv), CcbLayout::kEstablished);
  ASSERT_EQ(st_.StateOf(cli), CcbLayout::kEstablished);
  // A long idle stretch (200ms against a 5ms idle period, ~7 backoff-spaced
  // probe rounds per side): probes go out from already-acked sequence space,
  // the peer re-acks without consuming a byte, and the answers keep resetting
  // the probe budget — a live peer is never reaped, no matter how long it
  // idles.
  RunUntilUs(k_, 200'000);
  EXPECT_GT(st_.keepalive_probe_gauge().events(), 3u);
  EXPECT_EQ(st_.reaped_gauge().events(), 0u)
      << "a live peer must never be falsely reaped";
  EXPECT_EQ(st_.StateOf(srv), CcbLayout::kEstablished);
  EXPECT_EQ(st_.StateOf(cli), CcbLayout::kEstablished);
  // The probes did not corrupt the byte stream: a transfer still works.
  Addr buf = k_.allocator().Allocate(64);
  k_.machine().memory().WriteBytes(buf, "still here", 10);
  ASSERT_EQ(st_.Send(cli, buf, 10), 10);
  ASSERT_TRUE(st_.Close(cli));
  RunUntilUs(k_, k_.NowUs() + 100'000);
  EXPECT_EQ(DrainAll(srv), "still here");
  ASSERT_TRUE(st_.Close(srv));
  RunUntilUs(k_, k_.NowUs() + 100'000);
  EXPECT_EQ(st_.StateOf(cli), CcbLayout::kDone);
  EXPECT_EQ(st_.StateOf(srv), CcbLayout::kDone);
}

TEST_F(StreamTest, ReaperReapsDeadPeerAndReturnsOccupancyExactly) {
  StreamConfig ka;
  ka.keepalive_idle_us = 5000;
  ka.keepalive_interval_us = 2000;
  ka.keepalive_probes = 3;
  // Warmup cycle: the sweep stub and other lazily-installed pieces exist
  // before the exact-occupancy baseline is taken.
  {
    ConnId srv = st_.Listen(80, ka);
    ConnId cli = st_.Connect(80, ka);
    ASSERT_NE(srv, kBadConn);
    ASSERT_NE(cli, kBadConn);
    k_.Run(5'000);
    ASSERT_TRUE(st_.Close(cli));
    ASSERT_TRUE(st_.Close(srv));
    k_.Run(50'000);
    ASSERT_EQ(st_.StateOf(cli), CcbLayout::kDone);
    ASSERT_EQ(st_.StateOf(srv), CcbLayout::kDone);
  }
  k_.Run(1'000);  // drain deferred retirements
  const size_t blocks0 = k_.code().live_block_count();
  const uint32_t bytes0 = k_.allocator().bytes_in_use();
  const uint32_t allocs0 = k_.allocator().allocation_count();

  ConnId srv = st_.Listen(80, ka);
  ConnId cli = st_.Connect(80, ka);
  ASSERT_NE(srv, kBadConn);
  ASSERT_NE(cli, kBadConn);
  k_.Run(5'000);
  ASSERT_EQ(st_.StateOf(srv), CcbLayout::kEstablished);
  ASSERT_EQ(st_.StateOf(cli), CcbLayout::kEstablished);

  // Kill the client silently with a forged RST: its side dies without a FIN,
  // so the server sees a peer that simply stopped answering.
  const uint64_t probes0 = st_.keepalive_probe_gauge().events();
  InjectSeg(st_.PortOf(cli), 80, /*seq=*/1, /*ack=*/1,
            StreamSeg::kFlagRst | StreamSeg::kFlagAck, "");
  k_.Run(1'000);
  ASSERT_EQ(st_.StateOf(cli), CcbLayout::kFailed);
  k_.Run(50'000);
  EXPECT_GE(st_.keepalive_probe_gauge().events(), probes0 + 3)
      << "the full probe budget goes out before the verdict";
  EXPECT_EQ(st_.reaped_gauge().events(), 1u);
  EXPECT_EQ(st_.StateOf(srv), CcbLayout::kFailed)
      << "an unanswered probe budget reaps the connection";

  // Reaping goes through the same deferred-retirement teardown as any other
  // close: block, byte and allocation occupancy return exactly to baseline.
  k_.Run(1'000);
  EXPECT_EQ(k_.code().live_block_count(), blocks0);
  EXPECT_EQ(k_.allocator().bytes_in_use(), bytes0);
  EXPECT_EQ(k_.allocator().allocation_count(), allocs0);
}

// One live pair and one dead pair under a hostile fault plane: dropped and
// 4x-late alarms plus wire loss. The reaper must still converge (dead peer
// reaped, live peer untouched), and the whole run — fired-fault log and gauge
// fingerprint — must replay byte-identically from the same seed.
struct ReaperFaultOutcome {
  std::string fault_log;
  std::string gauges;
};

ReaperFaultOutcome RunReaperFaultScenario() {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  k.faults().ArmFromSpec(
      "seed=7,alarm_drop=p0.05,alarm_late=p0.05,wire_drop=p0.01");

  StreamConfig ka;
  ka.keepalive_idle_us = 5000;
  ka.keepalive_interval_us = 2000;
  ka.keepalive_probes = 3;
  ka.rto_base_us = 1000;
  ConnId live_srv = st.Listen(80, ka);
  ConnId live_cli = st.Connect(80, ka);
  ConnId dead_srv = st.Listen(81, ka);
  ConnId dead_cli = st.Connect(81, ka);
  EXPECT_NE(live_srv, kBadConn);
  EXPECT_NE(live_cli, kBadConn);
  EXPECT_NE(dead_srv, kBadConn);
  EXPECT_NE(dead_cli, kBadConn);
  RunUntilUs(k, 20'000);
  EXPECT_EQ(st.StateOf(live_cli), CcbLayout::kEstablished);
  EXPECT_EQ(st.StateOf(dead_cli), CcbLayout::kEstablished);

  uint32_t seq = 1, ack = 1,
           flags = StreamSeg::kFlagRst | StreamSeg::kFlagAck;
  std::vector<uint8_t> rst(StreamSeg::kHdrBytes);
  std::memcpy(rst.data() + StreamSeg::kSeq, &seq, 4);
  std::memcpy(rst.data() + StreamSeg::kAck, &ack, 4);
  std::memcpy(rst.data() + StreamSeg::kFlags, &flags, 4);
  uint32_t n = static_cast<uint32_t>(rst.size());
  uint16_t dead_port = st.PortOf(dead_cli);
  // A real closed peer answers every stray segment with a fresh RST, so the
  // kill is re-offered each round — wire_drop is armed and may eat any single
  // copy. Deterministic: the retry count is part of the replayed schedule.
  for (int i = 0; i < 50 && st.StateOf(dead_cli) != CcbLayout::kFailed; i++) {
    pool.InjectRaw(dead_port, 81, rst.data(), n,
                   FrameChecksum(dead_port, 81, rst.data(), n), n);
    RunUntilUs(k, k.NowUs() + 2'000);
  }
  EXPECT_EQ(st.StateOf(dead_cli), CcbLayout::kFailed);
  // The dead server now probes an unbound port: three unanswered rounds reap
  // it. Dropped and 4x-late alarms stretch the timeline, never the verdict —
  // the loop is bounded by time, not quanta, so the live pair's fault-draw
  // exposure stays what this scenario intends (~hundreds of ms, not minutes).
  for (int i = 0; i < 200 && st.StateOf(dead_srv) != CcbLayout::kFailed; i++) {
    RunUntilUs(k, k.NowUs() + 2'000);
  }
  EXPECT_EQ(st.StateOf(dead_srv), CcbLayout::kFailed)
      << "the dead peer must be reaped despite dropped and late alarms";
  EXPECT_EQ(st.StateOf(live_srv), CcbLayout::kEstablished)
      << "wire loss eating probe answers must never read as peer death";
  EXPECT_EQ(st.StateOf(live_cli), CcbLayout::kEstablished);
  EXPECT_GE(st.reaped_gauge().events(), 1u);

  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "probes=%llu reaped=%llu fallback=%llu resynth=%llu timeouts=%llu "
      "failed=%llu",
      static_cast<unsigned long long>(st.keepalive_probe_gauge().events()),
      static_cast<unsigned long long>(st.reaped_gauge().events()),
      static_cast<unsigned long long>(st.synth_fallback_gauge().events()),
      static_cast<unsigned long long>(st.resynth_gauge().events()),
      static_cast<unsigned long long>(st.timeout_gauge().events()),
      static_cast<unsigned long long>(st.failed_gauge().events()));
  return {k.faults().SerializeLog(), std::string(buf)};
}

TEST(StreamReaperFaultTest, ReaperUnderFaultsConvergesAndReplaysByteStable) {
  ReaperFaultOutcome a = RunReaperFaultScenario();
  ReaperFaultOutcome b = RunReaperFaultScenario();
  EXPECT_EQ(a.fault_log, b.fault_log)
      << "same seed, same scenario: the fired-fault log must replay exactly";
  EXPECT_EQ(a.gauges, b.gauges);
  EXPECT_FALSE(a.fault_log.empty())
      << "the spec's probabilities must actually fire in this scenario";
}

}  // namespace
}  // namespace synthesis
