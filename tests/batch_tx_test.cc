// TX-path tests, the transmit mirror of batch_rx_test: batched-vs-per-frame
// parity (same wire output, same gauges) across generic/synthesized retire
// loops and wire-fault schedules, burst doorbell amortization, exact
// tx_inflight accounting under injected interrupt bursts, ring-full
// backpressure (nothing lost: deferred ACK replay from the drain hook,
// parked senders), keepalive probes blocked by TX congestion never counting
// toward the reap verdict, exponential idle backoff, and the Sendv gather
// surface down through the emulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/io/io_system.h"
#include "src/io/iovec.h"
#include "src/kernel/fault_plane.h"
#include "src/kernel/kernel.h"
#include "src/kernel/user_program.h"
#include "src/machine/assembler.h"
#include "src/net/nic_device.h"
#include "src/net/nic_pool.h"
#include "src/net/stream.h"
#include "src/unix/emulator.h"

namespace synthesis {
namespace {

uint8_t PatternByte(uint32_t i) {
  return static_cast<uint8_t>('a' + (i * 13 + i / 26) % 26);
}

std::string Pattern(uint32_t n) {
  std::string s(n, 0);
  for (uint32_t i = 0; i < n; i++) {
    s[i] = static_cast<char>(PatternByte(i));
  }
  return s;
}

// Runs the kernel in single-slice steps until the virtual clock passes `t`,
// or until the kernel goes idle (no runnable threads, no pending alarms —
// e.g. after the last keepalive connection is reaped) and the clock stops
// advancing. Callers assert on outcomes, not on reaching `t`.
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

// Advances the virtual clock to exactly `t`, firing only the interrupts due
// by then. Unlike RunUntilUs this never overshoots into a later alarm — which
// matters for timeline-sensitive tests now that keepalive sweeps ride
// per-connection probe deadlines and the next alarm on a quiet network can be
// tens of milliseconds out.
void ParkAtUs(Kernel& k, double t) {
  while (!k.interrupts().Empty() && k.interrupts().NextTime() <= t) {
    k.machine().AdvanceToMicros(k.interrupts().NextTime());
    while (auto irq = k.interrupts().PopDue(k.NowUs())) {
      k.DispatchInterrupt(*irq);
    }
  }
  k.machine().AdvanceToMicros(t);
}

struct TxFaults {
  double drop = 0;
  double corrupt = 0;
  double reorder = 0;
  double duplicate = 0;
};

// Everything observable after a transmit run, for exact comparison between
// the burst-coalesced and per-frame TX pipelines.
struct TxOutcome {
  std::vector<uint8_t> ring_bytes;
  uint64_t delivered = 0;
  uint64_t csum_rejects = 0;
  uint64_t wire_drops = 0;
  uint64_t wire_reorders = 0;
  uint64_t wire_dups = 0;
  uint64_t tx_completed = 0;
  uint64_t tx_spurious = 0;
  uint64_t batch_dispatches = 0;
  uint64_t batch_frames = 0;
  uint32_t tx_inflight = 0;

  bool SameDeliveryAs(const TxOutcome& o) const {
    return ring_bytes == o.ring_bytes && delivered == o.delivered &&
           csum_rejects == o.csum_rejects && wire_drops == o.wire_drops &&
           wire_reorders == o.wire_reorders && wire_dups == o.wire_dups &&
           tx_completed == o.tx_completed && tx_spurious == o.tx_spurious &&
           tx_inflight == o.tx_inflight;
  }

  // Order-free comparison for fault schedules where delivery *timing* differs
  // legitimately between TX modes (reorder holds and dup echoes are offsets
  // from the retire instant, which coalescing compresses).
  bool SameBytesAndGaugesAs(const TxOutcome& o) const {
    std::vector<uint8_t> a = ring_bytes, b = o.ring_bytes;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b && delivered == o.delivered &&
           csum_rejects == o.csum_rejects && wire_drops == o.wire_drops &&
           wire_reorders == o.wire_reorders && wire_dups == o.wire_dups &&
           tx_completed == o.tx_completed && tx_spurious == o.tx_spurious &&
           tx_inflight == o.tx_inflight;
  }
};

// Transmits `frames` datagrams to one bound flow in bursts of four under a
// fault schedule and returns every observable. The fault draws happen at
// TransmitV time, in transmit order, so the per-frame and burst-coalesced
// runs see the identical schedule; every frame goes through the gather API
// split into two spans.
TxOutcome RunTxScenario(bool batch, bool synth, TxFaults f, int frames) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  pc.nic.tx_coalesce_us = batch ? 40.0 : 0.0;
  pc.nic.drop_rate = f.drop;
  pc.nic.corrupt_rate = f.corrupt;
  pc.nic.reorder_rate = f.reorder;
  pc.nic.duplicate_rate = f.duplicate;
  pc.nic.fault_seed = 77;
  pc.nic.synthesized_demux = synth;
  NicPool pool(k, pc);
  NicDevice& nic = pool.nic(0);

  auto ring = io.MakeRing(16384);
  EXPECT_TRUE(pool.BindFlow(FlowSpec::Ring(7, ring)));
  for (int i = 0; i < frames; i++) {
    if (i % 4 == 0) {
      pool.BeginTxBurst(7);  // no-op in per-frame mode
    }
    uint32_t n = 1 + (i * 7) % 48;
    std::string payload(n, static_cast<char>('a' + i % 26));
    const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data());
    SendSpan spans[2] = {{p, n / 2}, {p + n / 2, n - n / 2}};
    EXPECT_TRUE(pool.TransmitV(7, 100 + i % 5, spans, 2)) << "frame " << i;
    if (i % 4 == 3 || i == frames - 1) {
      pool.CommitTxBurst(7);
      k.Run();  // retire the burst before the next: batches of varying size
    }
  }
  k.Run();

  TxOutcome o;
  uint8_t b = 0;
  while (io.RingGetByte(*ring, &b)) {
    o.ring_bytes.push_back(b);
  }
  o.delivered = nic.demux().delivered_total();
  o.csum_rejects = nic.demux().csum_rejects();
  o.wire_drops = nic.wire_drop_gauge().events();
  o.wire_reorders = nic.wire_reorder_gauge().events();
  o.wire_dups = nic.wire_dup_gauge().events();
  o.tx_completed = nic.tx_completed();
  o.tx_spurious = nic.tx_spurious_gauge().events();
  o.batch_dispatches = nic.tx_batch_dispatches();
  o.batch_frames = nic.tx_batch_frames();
  o.tx_inflight = nic.tx_inflight();
  return o;
}

TEST(BatchTxTest, BurstTransmitIsByteIdenticalToPerFrameOnOrderKeepingWire) {
  // Drop and corrupt decisions ride the frame itself, so delivery order is
  // transmit order in both TX modes and the ring must match byte for byte.
  const TxFaults kSchedules[] = {
      {},                  // clean wire
      {0.25, 0, 0, 0},     // loss
      {0, 0.3, 0, 0},      // corruption
      {0.2, 0.2, 0, 0},    // both
  };
  for (bool synth : {false, true}) {
    for (size_t s = 0; s < std::size(kSchedules); s++) {
      TxOutcome per_frame = RunTxScenario(false, synth, kSchedules[s], 24);
      TxOutcome burst = RunTxScenario(true, synth, kSchedules[s], 24);
      EXPECT_TRUE(burst.SameDeliveryAs(per_frame))
          << "synth=" << synth << " schedule=" << s << ": delivered "
          << burst.delivered << " vs " << per_frame.delivered << ", ring "
          << burst.ring_bytes.size() << " vs " << per_frame.ring_bytes.size()
          << " bytes";
      EXPECT_GT(per_frame.delivered, 0u) << "vacuous schedule " << s;
      EXPECT_EQ(per_frame.tx_completed, 24u);
      EXPECT_EQ(per_frame.tx_spurious, 0u);
      EXPECT_EQ(per_frame.tx_inflight, 0u);
      EXPECT_EQ(per_frame.batch_dispatches, 0u)
          << "per-frame mode must not touch the TX batch machinery";
      EXPECT_EQ(burst.batch_frames, burst.tx_completed)
          << "every TX completion must retire through a batch";
    }
  }
}

TEST(BatchTxTest, ReorderAndDupSchedulesDeliverTheSameBytesAndGauges) {
  // Reorder holds and duplicate echoes are delays measured from the retire
  // instant, which coalescing compresses — so the cross-mode guarantee is
  // the byte multiset and every gauge, not arrival order.
  const TxFaults kSchedules[] = {
      {0, 0, 0.4, 0},          // reorder
      {0, 0, 0, 0.3},          // duplication
      {0.15, 0.15, 0.3, 0.2},  // everything at once
  };
  for (bool synth : {false, true}) {
    for (size_t s = 0; s < std::size(kSchedules); s++) {
      TxOutcome per_frame = RunTxScenario(false, synth, kSchedules[s], 24);
      TxOutcome burst = RunTxScenario(true, synth, kSchedules[s], 24);
      EXPECT_TRUE(burst.SameBytesAndGaugesAs(per_frame))
          << "synth=" << synth << " schedule=" << s;
      EXPECT_GT(per_frame.delivered, 0u) << "vacuous schedule " << s;
    }
  }
}

TEST(BatchTxTest, GenericTxRetireLoopMatchesSynthesized) {
  TxOutcome gen = RunTxScenario(true, false, TxFaults{}, 12);
  TxOutcome syn = RunTxScenario(true, true, TxFaults{}, 12);
  EXPECT_TRUE(gen.SameDeliveryAs(syn));
  EXPECT_EQ(gen.batch_dispatches, syn.batch_dispatches)
      << "the retire loops differ in cost only, not in batching";
}

TEST(BatchTxTest, OneTxBurstOneDispatch) {
  // Four descriptor fills under one doorbell complete at the same instant:
  // one coalesced kNetTx dispatch must retire all four.
  Kernel k;
  NicConfig cfg;
  cfg.tx_coalesce_us = 40.0;
  cfg.drop_rate = 1.0;  // wire sink: pure TX
  NicDevice nic(k, cfg);
  const uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const SendSpan span{payload, 8};
  nic.BeginTxBurst();
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(nic.TransmitV(7, 9000, &span, 1));
  }
  nic.CommitTxBurst();
  k.Run();
  EXPECT_EQ(nic.tx_completed(), 4u);
  EXPECT_EQ(nic.tx_batch_frames(), 4u);
  EXPECT_EQ(nic.tx_batch_dispatches(), 1u)
      << "simultaneous completions must share one interrupt entry";
  EXPECT_EQ(nic.tx_spurious_gauge().events(), 0u);
  EXPECT_EQ(nic.wire_drop_gauge().events(), 4u);
  EXPECT_EQ(nic.tx_inflight(), 0u);
}

TEST(BatchTxTest, FullRingRejectsAtCapacityAndRecoversAfterRetire) {
  Kernel k;
  NicConfig cfg;
  cfg.tx_slots = 4;
  cfg.drop_rate = 1.0;
  NicDevice nic(k, cfg);
  const uint8_t payload[4] = {9, 9, 9, 9};
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(nic.Transmit(7, 1, payload, 4)) << "frame " << i;
  }
  EXPECT_EQ(nic.tx_inflight(), 4u);
  EXPECT_FALSE(nic.Transmit(7, 1, payload, 4))
      << "the fifth frame exceeds the ring";
  k.Run();
  EXPECT_EQ(nic.tx_completed(), 4u);
  EXPECT_EQ(nic.tx_inflight(), 0u);
  EXPECT_TRUE(nic.Transmit(7, 1, payload, 4)) << "retired slots are reusable";
  k.Run();
  EXPECT_EQ(nic.tx_completed(), 5u);
  EXPECT_EQ(nic.tx_spurious_gauge().events(), 0u);
}

TEST(BatchTxTest, PerFrameIrqBurstAccountsInflightExactly) {
  // Every TX-complete interrupt double-fires. Each echo pops the next frame
  // off the wire early (a real retirement), so with four frames in flight
  // the first two doubled dispatches retire all four and the last two find
  // an empty wire: exactly four spurious dispatches, tx_inflight never
  // underflows, and tx_completed stays exact.
  Kernel k;
  NicConfig cfg;
  cfg.drop_rate = 1.0;
  NicDevice nic(k, cfg);
  FaultTrigger t;
  t.probability = 1.0;
  k.faults().Arm(FaultSite::kIrqBurst, t);
  const uint8_t payload[4] = {5, 5, 5, 5};
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(nic.Transmit(7, 1, payload, 4));
  }
  k.Run();
  EXPECT_EQ(nic.tx_completed(), 4u);
  EXPECT_EQ(nic.tx_inflight(), 0u);
  EXPECT_EQ(nic.tx_spurious_gauge().events(), 4u)
      << "each dispatch with nothing on the wire must be counted, not hidden";
  EXPECT_EQ(nic.wire_drop_gauge().events(), 4u) << "no frame retired twice";
}

TEST(BatchTxTest, CoalescedIrqBurstEchoRetiresNothingTwice) {
  // The batched entry latches due completions through the txfill trap; the
  // echo dispatch latches zero and the retire loop walks an empty table, so
  // coalescing absorbs the double fire without a single spurious pop.
  Kernel k;
  NicConfig cfg;
  cfg.tx_coalesce_us = 40.0;
  cfg.drop_rate = 1.0;
  NicDevice nic(k, cfg);
  FaultTrigger t;
  t.probability = 1.0;
  k.faults().Arm(FaultSite::kIrqBurst, t);
  const uint8_t payload[4] = {6, 6, 6, 6};
  const SendSpan span{payload, 4};
  nic.BeginTxBurst();
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(nic.TransmitV(7, 1, &span, 1));
  }
  nic.CommitTxBurst();
  k.Run();
  EXPECT_EQ(nic.tx_completed(), 4u);
  EXPECT_EQ(nic.tx_inflight(), 0u);
  EXPECT_EQ(nic.tx_batch_frames(), 4u);
  EXPECT_EQ(nic.tx_spurious_gauge().events(), 0u);
}

// Everything observable on the owning NIC after a run with TX coalescing on
// and RX coalescing optionally on, each direction's batch counts apart.
struct DuplexOutcome {
  std::vector<uint8_t> ring_bytes;
  uint64_t delivered = 0;
  uint64_t wire_drops = 0;
  uint64_t tx_completed = 0;
  uint64_t tx_spurious = 0;
  uint64_t rx_dispatches = 0;
  uint64_t rx_frames = 0;
  uint64_t tx_dispatches = 0;
  uint64_t tx_frames = 0;
  uint32_t rx_inflight = 0;
  uint32_t tx_inflight = 0;
  uint64_t idle_dispatches = 0;  // both directions, on the pool's other NIC
};

// RunTxScenario's bursts of four on a 2-NIC pool, with the RX window set to
// `rx_coalesce_us` beside a 40 us TX window and every interrupt optionally
// double-fired. Port 7 steers to one NIC; the other must stay untouched.
DuplexOutcome RunDuplexScenario(double rx_coalesce_us, TxFaults f, int frames,
                                bool irq_burst) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 2;
  pc.nic.rx_coalesce_us = rx_coalesce_us;
  pc.nic.tx_coalesce_us = 40.0;
  pc.nic.drop_rate = f.drop;
  pc.nic.corrupt_rate = f.corrupt;
  pc.nic.reorder_rate = f.reorder;
  pc.nic.duplicate_rate = f.duplicate;
  pc.nic.fault_seed = 77;
  NicPool pool(k, pc);
  NicDevice& nic = pool.nic(pool.SteerOf(7));
  NicDevice& idle = pool.nic(1 - pool.SteerOf(7));
  if (irq_burst) {
    FaultTrigger t;
    t.probability = 1.0;
    k.faults().Arm(FaultSite::kIrqBurst, t);
  }

  auto ring = io.MakeRing(16384);
  EXPECT_TRUE(pool.BindFlow(FlowSpec::Ring(7, ring)));
  for (int i = 0; i < frames; i++) {
    if (i % 4 == 0) {
      pool.BeginTxBurst(7);
    }
    uint32_t n = 1 + (i * 7) % 48;
    std::string payload(n, static_cast<char>('a' + i % 26));
    const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data());
    SendSpan spans[2] = {{p, n / 2}, {p + n / 2, n - n / 2}};
    EXPECT_TRUE(pool.TransmitV(7, 100 + i % 5, spans, 2)) << "frame " << i;
    if (i % 4 == 3 || i == frames - 1) {
      pool.CommitTxBurst(7);
      k.Run();
    }
  }
  k.Run();

  DuplexOutcome o;
  uint8_t b = 0;
  while (io.RingGetByte(*ring, &b)) {
    o.ring_bytes.push_back(b);
  }
  o.delivered = nic.demux().delivered_total();
  o.wire_drops = nic.wire_drop_gauge().events();
  o.tx_completed = nic.tx_completed();
  o.tx_spurious = nic.tx_spurious_gauge().events();
  o.rx_dispatches = nic.rx_batch_dispatches();
  o.rx_frames = nic.rx_batch_frames();
  o.tx_dispatches = nic.tx_batch_dispatches();
  o.tx_frames = nic.tx_batch_frames();
  o.rx_inflight = nic.rx_inflight();
  o.tx_inflight = nic.tx_inflight();
  o.idle_dispatches = idle.rx_batch_dispatches() + idle.tx_batch_dispatches();
  return o;
}

TEST(BatchTxTest, BothDirectionsCoalescedDeliverWhatTxOnlyDelivers) {
  // One NIC runs both coalescing engines on a lossy, reordering wire. RX
  // batching changes only how arrivals are dispatched, so the ring holds
  // exactly what TX-only coalescing delivers; the counts below pin each
  // direction's engine on its own, so state shared across directions fails.
  const TxFaults kWire = {0.1, 0, 0.1, 0};
  DuplexOutcome tx_only = RunDuplexScenario(0.0, kWire, 64, false);
  DuplexOutcome both = RunDuplexScenario(40.0, kWire, 64, false);
  EXPECT_EQ(both.ring_bytes, tx_only.ring_bytes);
  EXPECT_EQ(both.ring_bytes.size(), 1535u);
  EXPECT_EQ(both.delivered, 56u);
  EXPECT_EQ(both.tx_completed, 64u);
  EXPECT_EQ(both.wire_drops, 8u);
  EXPECT_EQ(both.tx_spurious, 0u);
  EXPECT_EQ(both.rx_dispatches, 17u);
  EXPECT_EQ(both.rx_frames, 56u) << "every delivered frame latched once";
  EXPECT_EQ(both.tx_dispatches, 16u) << "one retire dispatch per burst";
  EXPECT_EQ(both.tx_frames, 64u) << "every completion latched once";
  EXPECT_EQ(both.rx_inflight, 0u);
  EXPECT_EQ(both.tx_inflight, 0u);
  EXPECT_EQ(both.idle_dispatches, 0u);
  EXPECT_EQ(tx_only.rx_dispatches, 0u) << "RX coalescing was off";
  EXPECT_EQ(tx_only.tx_dispatches, both.tx_dispatches);
}

TEST(BatchTxTest, BothDirectionsAbsorbAnIrqBurstEachOnItsOwn) {
  // Every interrupt double-fires. Each direction's echo latches nothing, so
  // each burst costs two dispatches per direction and no frame is delivered
  // or retired twice.
  DuplexOutcome o = RunDuplexScenario(40.0, TxFaults{}, 16, true);
  EXPECT_EQ(o.delivered, 16u);
  EXPECT_EQ(o.tx_completed, 16u);
  EXPECT_EQ(o.tx_spurious, 0u);
  EXPECT_EQ(o.rx_dispatches, 8u);
  EXPECT_EQ(o.rx_frames, 16u);
  EXPECT_EQ(o.tx_dispatches, 8u);
  EXPECT_EQ(o.tx_frames, 16u);
  EXPECT_EQ(o.rx_inflight, 0u);
  EXPECT_EQ(o.tx_inflight, 0u);
  EXPECT_EQ(o.idle_dispatches, 0u);
}

// Host-side drain of everything queued on a stream connection.
std::string DrainConn(Kernel& k, StreamLayer& st, ConnId c) {
  std::string out;
  Addr buf = k.allocator().Allocate(256);
  for (;;) {
    int32_t n = st.Recv(c, buf, 256);
    if (n <= 0) {
      break;
    }
    char tmp[256];
    k.machine().memory().ReadBytes(buf, tmp, static_cast<size_t>(n));
    out.append(tmp, static_cast<size_t>(n));
  }
  return out;
}

TEST(BatchTxTest, StalledWindowRecoversThroughDrainHookBeforeRto) {
  // The server's ACK for delivered data finds the TX ring full (an alarm
  // stuffs every slot between the data frame's DMA-out and its delivery).
  // A pure ACK has no retransmit timer covering it — losing it silently
  // would stall the client's window until its 4ms RTO. The drain hook must
  // replay it the moment the first stuffer retires, so the transfer
  // completes with zero retransmits and zero timeouts.
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  pc.nic.tx_slots = 8;
  pc.nic.tx_complete_us = 40.0;
  pc.nic.wire_latency_us = 100.0;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  ConnId srv = st.Listen(80);
  ConnId cli = st.Connect(80);
  ASSERT_NE(srv, kBadConn);
  ASSERT_NE(cli, kBadConn);
  k.Run();
  ASSERT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
  ASSERT_EQ(st.StateOf(cli), CcbLayout::kEstablished);

  Addr buf = k.allocator().Allocate(16);
  k.machine().memory().WriteBytes(buf, "tx-recovery!", 12);
  ASSERT_EQ(st.Send(cli, buf, 12), 12);  // data frame leaves immediately

  // Stuff the ring full after the data frame's slot retires (+40us) but
  // before its delivery raises the server's ACK (+140us).
  int stuffed = 0;
  int vec = k.RegisterHostTrap([&](Machine&) {
    const uint8_t junk[4] = {1, 2, 3, 4};
    while (pool.Transmit(9999, 1, junk, 4)) {
      stuffed++;
    }
    return TrapAction::kContinue;
  });
  Asm a("ring_stuffer");
  a.Trap(vec).Rts();
  ASSERT_TRUE(k.SetAlarm(120.0, k.code().Install(a.BuildBlock())));
  k.Run();

  EXPECT_GT(stuffed, 0) << "the stall never happened";
  EXPECT_EQ(st.tx_full_drops_gauge().events(), 1u)
      << "exactly the server's ACK hit the full ring";
  EXPECT_EQ(st.Stats(cli).retransmits, 0u)
      << "recovery must come from the drain replay, not go-back-N";
  EXPECT_EQ(st.Stats(cli).timeouts, 0u)
      << "recovery must not wait out the RTO";
  EXPECT_EQ(st.timeout_gauge().events(), 0u);
  EXPECT_EQ(DrainConn(k, st, srv), "tx-recovery!");
  ASSERT_TRUE(st.Close(cli));
  ASSERT_TRUE(st.Close(srv));
  k.Run();
  EXPECT_EQ(st.StateOf(cli), CcbLayout::kDone);
  EXPECT_EQ(st.StateOf(srv), CcbLayout::kDone);
}

// Sends `total` pattern bytes then closes. Parks when the send buffer — or
// the TX ring underneath it — fills.
class PatternSender : public UserProgram {
 public:
  PatternSender(StreamLayer& st, ConnId conn, uint32_t total, bool* error)
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
  static constexpr uint32_t kChunk = 100;
  StreamLayer& st_;
  ConnId conn_;
  uint32_t total_;
  bool* error_;
  Addr buf_ = 0;
  uint32_t off_ = 0;
};

// Drains the stream into `out` until end-of-stream, then closes its side.
class PatternReceiver : public UserProgram {
 public:
  PatternReceiver(StreamLayer& st, ConnId conn, std::string* out, bool* error)
      : st_(st), conn_(conn), out_(out), error_(error) {}

  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(kChunk);
    }
    int32_t n = st_.Recv(conn_, buf_, kChunk);
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;
    }
    if (n == kIoError) {
      *error_ = true;
      return StepStatus::kDone;
    }
    if (n == 0) {
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

TEST(BatchTxTest, SenderParksOnCongestedRingAndEveryByteArrives) {
  // A 4-slot TX ring under an 8-segment window: window pushes are cut short
  // constantly. The deferral path must park the sender instead of losing
  // segments, replay from the drain hook, and deliver the byte stream intact
  // with no timeout ever firing. The replay resends only segments that never
  // left, so on this clean wire no segment arrives twice and none is resent.
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  pc.nic.tx_slots = 4;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  StreamConfig cfg;
  cfg.max_seg_data = 16;
  cfg.window_segments = 8;
  ConnId srv = st.Listen(80, cfg);
  ConnId cli = st.Connect(80, cfg);
  ASSERT_NE(srv, kBadConn);
  ASSERT_NE(cli, kBadConn);
  const uint32_t kTotal = 512;
  std::string got;
  bool send_err = false, recv_err = false;
  k.CreateThread(std::make_unique<PatternSender>(st, cli, kTotal, &send_err));
  k.CreateThread(std::make_unique<PatternReceiver>(st, srv, &got, &recv_err));
  k.Run(10'000'000);
  EXPECT_FALSE(send_err);
  EXPECT_FALSE(recv_err);
  EXPECT_EQ(got, Pattern(kTotal));
  EXPECT_GT(st.tx_full_drops_gauge().events(), 0u)
      << "the ring was never congested — the test is vacuous";
  EXPECT_EQ(st.timeout_gauge().events(), 0u)
      << "deferral replay must beat the RTO every time";
  EXPECT_EQ(st.Stats(srv).out_of_order, 0u)
      << "the replay resent segments that had already left";
  EXPECT_EQ(st.Stats(cli).retransmits, 0u)
      << "duplicate arrivals were re-acked into fast retransmits";
  EXPECT_EQ(st.StateOf(cli), CcbLayout::kDone);
  EXPECT_EQ(st.StateOf(srv), CcbLayout::kDone);
}

TEST(BatchTxTest, BlockedProbesDoNotCountTowardReap) {
  // A 50ms DMA pins stuffer frames in the TX ring across two dozen keepalive
  // sweeps. Every probe attempt in that window fails to transmit; none may
  // count toward the reap verdict (our own TX congestion reading as peer
  // death) and none may count as a probe sent. Probing resumes once the ring
  // drains.
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  pc.nic.tx_slots = 8;
  pc.nic.tx_complete_us = 50'000.0;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  StreamConfig ka;
  ka.rto_base_us = 400'000.0;  // the 50ms handshake must not retransmit
  ka.rto_cap_us = 800'000.0;
  // Idle must comfortably exceed the 100ms handshake round-trip: the client
  // establishes at ~100ms and a probe answer cannot return in under 100ms,
  // so a shorter idle would let legitimate (sent-but-unanswerable) probes
  // reap the client before the congestion window under test even opens.
  ka.keepalive_idle_us = 54'000;
  ka.keepalive_interval_us = 2000;
  ka.keepalive_probes = 3;
  ka.keepalive_backoff_max = 1;
  ConnId srv = st.Listen(80, ka);
  ConnId cli = st.Connect(80, ka);
  ASSERT_NE(srv, kBadConn);
  ASSERT_NE(cli, kBadConn);
  // SYN lands at 50ms, SYN-ACK at 100ms, the final ACK at 150ms; by 152ms
  // both sides are established, the ring is empty, and neither side has been
  // idle long enough to probe yet (client expires ~154.7ms, server ~204ms).
  // Park — don't RunUntilUs — so the clock cannot coast into the client's
  // probe deadline before the ring is stuffed: with per-connection probe
  // clocks that deadline is the only alarm pending on this quiet network.
  ParkAtUs(k, 152'000);
  ASSERT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
  ASSERT_EQ(st.StateOf(cli), CcbLayout::kEstablished);
  ASSERT_EQ(st.keepalive_probe_gauge().events(), 0u);

  int stuffed = 0;
  const uint8_t junk[4] = {7, 7, 7, 7};
  while (pool.Transmit(9999, 1, junk, 4)) {
    stuffed++;
  }
  EXPECT_EQ(stuffed, 8) << "the ring was not empty at the stuff point";
  EXPECT_FALSE(pool.Transmit(9999, 1, junk, 4));

  // The client's idle expires at ~154.7ms; the stuffers pin the ring until
  // ~202ms. Sweeps in between — the alarm-driven ones plus six forced here —
  // attempt far more probes than the 3-probe reap budget, and every one
  // fails to send.
  ParkAtUs(k, 158'000);
  for (int i = 0; i < 6; i++) {
    st.SweepNowForTest();
  }
  EXPECT_EQ(st.keepalive_probe_gauge().events(), 0u)
      << "a probe that never left the machine must not count as sent";
  EXPECT_EQ(st.reaped_gauge().events(), 0u)
      << "TX congestion must never read as peer death";
  EXPECT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
  EXPECT_EQ(st.StateOf(cli), CcbLayout::kEstablished);

  // The stuffers retire at ~202ms; the very next sweep's probe goes out.
  ParkAtUs(k, 202'500);
  st.SweepNowForTest();
  EXPECT_GT(st.keepalive_probe_gauge().events(), 0u)
      << "probing must resume the moment the ring drains";
  EXPECT_EQ(st.reaped_gauge().events(), 0u);
  EXPECT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
  EXPECT_EQ(st.StateOf(cli), CcbLayout::kEstablished);
}

uint64_t ProbesOverIdleWindow(uint32_t backoff_max) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  StreamConfig ka;
  ka.keepalive_idle_us = 3000;
  ka.keepalive_interval_us = 1000;
  ka.keepalive_probes = 3;
  ka.keepalive_backoff_max = backoff_max;
  ConnId srv = st.Listen(80, ka);
  ConnId cli = st.Connect(80, ka);
  EXPECT_NE(srv, kBadConn);
  EXPECT_NE(cli, kBadConn);
  RunUntilUs(k, 20'000);
  EXPECT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
  EXPECT_EQ(st.StateOf(cli), CcbLayout::kEstablished);
  // Count probes over an identical 150ms healthy-idle window in both runs;
  // every round is answered within the sweep interval, so the only variable
  // is how often the idle period re-expires.
  const uint64_t g0 = st.keepalive_probe_gauge().events();
  RunUntilUs(k, k.NowUs() + 150'000);
  EXPECT_EQ(st.reaped_gauge().events(), 0u)
      << "a live peer must never be reaped, backoff_max=" << backoff_max;
  EXPECT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
  EXPECT_EQ(st.StateOf(cli), CcbLayout::kEstablished);
  return st.keepalive_probe_gauge().events() - g0;
}

TEST(BatchTxTest, IdleBackoffProbesHealthyIdleConnectionsLessOften) {
  uint64_t fixed = ProbesOverIdleWindow(1);
  uint64_t backed = ProbesOverIdleWindow(8);
  EXPECT_GT(backed, 0u) << "backoff must not silence probing entirely";
  EXPECT_LT(backed, fixed)
      << "every answered round must stretch the next idle period";
}

TEST(BatchTxTest, DeadPeerStillReapedPromptlyWithBackoffEnabled) {
  // Backoff stretches only the healthy-idle period. Once a probe goes
  // unanswered the budget counts down at full sweep cadence, so a peer that
  // dies after answering a round is still reaped.
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);
  NicDevice& nic = pool.nic(0);
  StreamLayer st(k, io, pool);
  StreamConfig ka;
  ka.keepalive_idle_us = 3000;
  ka.keepalive_interval_us = 1000;
  ka.keepalive_probes = 3;
  ka.keepalive_backoff_max = 8;
  ConnId srv = st.Listen(80, ka);
  ConnId cli = st.Connect(80, ka);
  ASSERT_NE(srv, kBadConn);
  ASSERT_NE(cli, kBadConn);
  RunUntilUs(k, 20'000);
  ASSERT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
  ASSERT_EQ(st.StateOf(cli), CcbLayout::kEstablished);
  // At least one answered probe round grows the backoff before the kill.
  RunUntilUs(k, k.NowUs() + 9'000);
  ASSERT_GT(st.keepalive_probe_gauge().events(), 0u);
  ASSERT_EQ(st.reaped_gauge().events(), 0u);

  // Kill the client silently with a forged RST: the server now faces a peer
  // that stopped answering.
  std::vector<uint8_t> seg(StreamSeg::kHdrBytes);
  uint32_t seq = 1, ack = 1;
  uint32_t flags = StreamSeg::kFlagRst | StreamSeg::kFlagAck;
  std::memcpy(seg.data() + StreamSeg::kSeq, &seq, 4);
  std::memcpy(seg.data() + StreamSeg::kAck, &ack, 4);
  std::memcpy(seg.data() + StreamSeg::kFlags, &flags, 4);
  uint32_t n = static_cast<uint32_t>(seg.size());
  nic.InjectRaw(st.PortOf(cli), 80, seg.data(), n,
                FrameChecksum(st.PortOf(cli), 80, seg.data(), n), n);
  k.Run(2'000);
  ASSERT_EQ(st.StateOf(cli), CcbLayout::kFailed);

  RunUntilUs(k, k.NowUs() + 60'000);
  EXPECT_GE(st.reaped_gauge().events(), 1u)
      << "unanswered probes must still reap at full cadence under backoff";
  EXPECT_EQ(st.StateOf(srv), CcbLayout::kFailed);
}

TEST(BatchTxTest, ChattyNeighborDoesNotAccelerateQuietConnsReapClock) {
  // Two pairs share one sweeper. Pair A probes on a tight 2ms idle / 500us
  // interval; pair B is quiet (30ms idle, 10ms interval). When B's peer dies,
  // B's three-probe budget must burn down on B's own clock — one probe per
  // 10ms — even though A's cadence offers the sweeper a wakeup every few
  // hundred microseconds. A shared-cadence sweeper would retry B's unanswered
  // probes at A's rate and reap B ~25ms early.
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);
  NicDevice& nic = pool.nic(0);
  StreamLayer st(k, io, pool);
  StreamConfig chatty;
  chatty.keepalive_idle_us = 2000;
  chatty.keepalive_interval_us = 500;
  chatty.keepalive_probes = 3;
  chatty.keepalive_backoff_max = 1;
  StreamConfig quiet;
  quiet.keepalive_idle_us = 30'000;
  quiet.keepalive_interval_us = 10'000;
  quiet.keepalive_probes = 3;
  quiet.keepalive_backoff_max = 1;
  ConnId asrv = st.Listen(80, chatty);
  ConnId acli = st.Connect(80, chatty);
  ConnId bsrv = st.Listen(81, quiet);
  ConnId bcli = st.Connect(81, quiet);
  ASSERT_NE(asrv, kBadConn);
  ASSERT_NE(acli, kBadConn);
  ASSERT_NE(bsrv, kBadConn);
  ASSERT_NE(bcli, kBadConn);
  RunUntilUs(k, 20'000);
  ASSERT_EQ(st.StateOf(asrv), CcbLayout::kEstablished);
  ASSERT_EQ(st.StateOf(acli), CcbLayout::kEstablished);
  ASSERT_EQ(st.StateOf(bsrv), CcbLayout::kEstablished);
  ASSERT_EQ(st.StateOf(bcli), CcbLayout::kEstablished);

  // Kill B's client silently; its server now faces a dead peer while A's
  // answered probe rounds keep the sweeper waking every few hundred us.
  std::vector<uint8_t> seg(StreamSeg::kHdrBytes);
  uint32_t seq = 1, ack = 1;
  uint32_t flags = StreamSeg::kFlagRst | StreamSeg::kFlagAck;
  std::memcpy(seg.data() + StreamSeg::kSeq, &seq, 4);
  std::memcpy(seg.data() + StreamSeg::kAck, &ack, 4);
  std::memcpy(seg.data() + StreamSeg::kFlags, &flags, 4);
  uint32_t n = static_cast<uint32_t>(seg.size());
  nic.InjectRaw(st.PortOf(bcli), 81, seg.data(), n,
                FrameChecksum(st.PortOf(bcli), 81, seg.data(), n), n);
  // A bounded-time advance, not k.Run(quanta): on this half-idle network a
  // quantum can coast from one sparse probe alarm to the next, and a couple
  // thousand of them would play the whole reap timeline out inside this call.
  RunUntilUs(k, k.NowUs() + 1'000);
  ASSERT_EQ(st.StateOf(bcli), CcbLayout::kFailed);
  const uint64_t reaped0 = st.reaped_gauge().events();

  // B's server last heard its peer during the handshake (~1ms), so its idle
  // expires ~31ms and probes go out at ~31/41/51ms. At 38ms exactly one
  // unanswered probe exists — far from the three-probe verdict. The old
  // shared-cadence sweeper fired B's retries at A's 500us rate and had
  // already reaped B by ~33ms.
  RunUntilUs(k, 38'000);
  EXPECT_EQ(st.StateOf(bsrv), CcbLayout::kEstablished)
      << "a chatty neighbor's cadence must not burn this conn's probe budget";
  EXPECT_EQ(st.reaped_gauge().events(), reaped0);

  // On its own 10ms interval the verdict lands ~61ms; the dead peer is still
  // reaped, just not early.
  RunUntilUs(k, 95'000);
  EXPECT_EQ(st.StateOf(bsrv), CcbLayout::kFailed)
      << "per-connection clocks must not stop dead peers from being reaped";
  EXPECT_GE(st.reaped_gauge().events(), reaped0 + 1);
  EXPECT_EQ(st.StateOf(asrv), CcbLayout::kEstablished);
  EXPECT_EQ(st.StateOf(acli), CcbLayout::kEstablished);
}

TEST(BatchTxTest, EmulatorSendvGathersIovecsIntoOneStream) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  UnixEmulator emu(k, io, nullptr);
  emu.AttachStream(&st);

  int srv = emu.Listen(7000);
  int cli = emu.Connect(7000);
  ASSERT_GE(srv, 0);
  ASSERT_GE(cli, 0);
  k.Run();
  Memory& mem = k.machine().memory();
  Addr a1 = k.allocator().Allocate(16);
  Addr a2 = k.allocator().Allocate(16);
  Addr a3 = k.allocator().Allocate(16);
  mem.WriteBytes(a1, "scatter-", 8);
  mem.WriteBytes(a2, "gather-", 7);
  mem.WriteBytes(a3, "works", 5);
  // A zero-length element mid-vector is skipped, not an error.
  IoVec v[4] = {{a1, 8}, {a2, 7}, {a3, 0}, {a3, 5}};
  EXPECT_EQ(emu.Sendv(cli, v, 4), 20);
  k.Run();
  Addr in = k.allocator().Allocate(64);
  EXPECT_EQ(emu.RecvSpan(srv, in, 64), 20);
  char got[20];
  mem.ReadBytes(in, got, 20);
  EXPECT_EQ(std::string(got, 20), "scatter-gather-works");
  EXPECT_LT(emu.Sendv(99, v, 1), 0) << "an unknown fd must fail";
  EXPECT_EQ(emu.Close(cli), 0);
  EXPECT_EQ(emu.Close(srv), 0);
  k.Run(10'000'000);
}

}  // namespace
}  // namespace synthesis
