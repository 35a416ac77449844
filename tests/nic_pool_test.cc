// NicPool tests: the host steering hash vs the emitted steering blocks
// (generic loop and specialized shift+mask, power-of-two and not), flow
// migration + steering re-synthesis when the pool grows (placement follows
// the hash at every size), the tagged interrupt dispatch, a live stream
// connection surviving AddNic mid-transfer, the overload armor, and a pool
// that still delivers whichever bring-up install was refused.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/io/io_system.h"
#include "src/kernel/fault_plane.h"
#include "src/kernel/kernel.h"
#include "src/machine/executor.h"
#include "src/net/frame.h"
#include "src/net/nic_device.h"
#include "src/net/nic_pool.h"
#include "src/net/stream.h"

namespace synthesis {
namespace {

// Calls a steering (or demux) block directly with a1 = a well-formed frame
// for `port`, returning d0 (1 delivered, -2 no match).
uint32_t CallWithFrame(Kernel& k, BlockId blk, Addr frame, uint16_t port,
                       const char* payload) {
  uint32_t n = static_cast<uint32_t>(std::strlen(payload));
  WriteFrame(k.machine().memory(), frame, port, 7,
             reinterpret_cast<const uint8_t*>(payload), n);
  k.machine().set_reg(kA1, frame);
  RunResult rr = k.kexec().Call(blk);
  EXPECT_EQ(rr.outcome, RunOutcome::kReturned);
  return k.machine().reg(kD0);
}

TEST(NicPoolTest, EmittedSteeringAgreesWithHostHashAtEveryPoolSize) {
  // 1, 2 and 4 take the power-of-two mask path; 3 takes the subtract loop.
  for (uint32_t n : {1u, 2u, 3u, 4u}) {
    Kernel k;
    IoSystem io(k, nullptr);
    NicPoolConfig pc;
    pc.initial_nics = n;
    NicPool pool(k, pc);
    ASSERT_EQ(pool.size(), n);

    const uint16_t kPorts[] = {7, 80, 443, 999, 40000, 65535};
    std::vector<std::shared_ptr<RingHost>> rings;
    for (uint16_t port : kPorts) {
      auto ring = io.MakeRing(4096);
      ASSERT_TRUE(pool.BindFlow(FlowSpec::Ring(port, ring))) << "n=" << n << " port=" << port;
      rings.push_back(ring);
    }
    Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);
    for (size_t i = 0; i < std::size(kPorts); i++) {
      const uint16_t port = kPorts[i];
      const uint32_t owner = pool.SteerOf(port);
      ASSERT_LT(owner, n);
      uint64_t before = pool.nic(owner).demux().delivered_total();
      // Both steering implementations must deliver through the owner's demux.
      EXPECT_EQ(CallWithFrame(k, pool.generic_steering(), frame, port, "gen"),
                1u)
          << "n=" << n << " port=" << port;
      EXPECT_EQ(
          CallWithFrame(k, pool.synthesized_steering(), frame, port, "syn"),
          1u)
          << "n=" << n << " port=" << port;
      EXPECT_EQ(pool.nic(owner).demux().delivered_total(), before + 2)
          << "n=" << n << " port=" << port
          << ": the frame must land on the NIC the host hash names";
      EXPECT_EQ(io.RingAvail(*rings[i]), 2 * (4u + 3u))
          << "two delivery records, one per steering implementation";
    }
    // An unbound port falls through every demux to the no-match verdict.
    EXPECT_EQ(CallWithFrame(k, pool.generic_steering(), frame, 1234, "x"),
              static_cast<uint32_t>(-2));
    EXPECT_EQ(CallWithFrame(k, pool.synthesized_steering(), frame, 1234, "x"),
              static_cast<uint32_t>(-2));
  }
}

TEST(NicPoolTest, GrowReSynthesizesSteeringAndMigratesMovedFlows) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);

  // Ports chosen so the hash splits them across two NICs after the grow:
  // 80 stays on NIC 0 (even hash), 81 moves to NIC 1 (odd hash).
  auto ring_even = io.MakeRing(4096);
  auto ring_odd = io.MakeRing(4096);
  ASSERT_TRUE(pool.BindFlow(FlowSpec::Ring(80, ring_even)));
  ASSERT_TRUE(pool.BindFlow(FlowSpec::Ring(81, ring_odd)));
  ASSERT_EQ(pool.SteerOf(80), 0u);
  ASSERT_EQ(pool.SteerOf(81), 0u);

  const uint32_t gen_before = pool.steering_generation();
  const BlockId steer_before = pool.synthesized_steering();
  ASSERT_TRUE(pool.AddNic());
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_GT(pool.steering_generation(), gen_before)
      << "a geometry change must re-emit the specialized steering";
  EXPECT_NE(pool.synthesized_steering(), steer_before);
  EXPECT_EQ(pool.SteerOf(80), 0u);
  EXPECT_EQ(pool.SteerOf(81), 1u);
  EXPECT_TRUE(pool.nic(0).demux().HasFlow(80));
  EXPECT_FALSE(pool.nic(1).demux().HasFlow(80));
  EXPECT_TRUE(pool.nic(1).demux().HasFlow(81))
      << "the moved flow rebinds on its new owner";
  EXPECT_FALSE(pool.nic(0).demux().HasFlow(81));

  // End to end through the tagged interrupt path: frames for both ports
  // arrive in their rings, counted by the devices the hash names.
  const uint8_t msg[] = {'h', 'i'};
  ASSERT_TRUE(pool.Transmit(80, 9001, msg, 2));
  ASSERT_TRUE(pool.Transmit(81, 9001, msg, 2));
  k.Run();
  EXPECT_EQ(io.RingAvail(*ring_even), 4u + 2u);
  EXPECT_EQ(io.RingAvail(*ring_odd), 4u + 2u);
  EXPECT_EQ(pool.nic(0).demux().delivered_total(), 1u);
  EXPECT_EQ(pool.nic(1).demux().delivered_total(), 1u);
  NicPool::AggregateStats agg = pool.Aggregate();
  EXPECT_EQ(agg.delivered, 2u);
  EXPECT_EQ(agg.tx_completed, 2u);
  EXPECT_EQ(pool.nic(0).rx_gauge().events() + pool.nic(1).rx_gauge().events(),
            2u)
      << "each frame is counted once, by the NIC it entered through";

  // Growing to a non-power-of-two keeps both implementations in agreement.
  ASSERT_TRUE(pool.AddNic());
  ASSERT_EQ(pool.size(), 3u);
  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);
  for (uint16_t port : {80, 81}) {
    EXPECT_EQ(CallWithFrame(k, pool.generic_steering(), frame, port, "abc"),
              1u);
    EXPECT_EQ(CallWithFrame(k, pool.synthesized_steering(), frame, port, "abc"),
              1u);
  }
}

// A migrated flow's delivered count continues on the new owner's demux: the
// grow moves the count with the flow instead of restarting it at zero.
TEST(NicPoolTest, MigratedFlowKeepsItsDeliveredCount) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);
  auto ring = io.MakeRing(4096);
  ASSERT_TRUE(pool.BindFlow(FlowSpec::Ring(101, ring)));
  const uint8_t msg[] = {'h', 'i'};
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(pool.Transmit(101, 9001, msg, 2));
  }
  k.Run();
  ASSERT_EQ(pool.nic(0).demux().delivered(101), 3u);

  ASSERT_TRUE(pool.AddNic());
  ASSERT_EQ(pool.SteerOf(101), 1u) << "port 101 must migrate to NIC 1";
  EXPECT_EQ(pool.nic(1).demux().delivered(101), 3u)
      << "the count continues on the new owner's demux";
  ASSERT_TRUE(pool.Transmit(101, 9001, msg, 2));
  k.Run();
  EXPECT_EQ(pool.nic(1).demux().delivered(101), 4u);
}

TEST(NicPoolTest, StreamConnectionSurvivesPoolGrowthMidTransfer) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  Memory& mem = k.machine().memory();

  // Server on 81 (its flow migrates to NIC 1 when the pool grows); the
  // client's ephemeral 40000 hashes even and stays on NIC 0.
  ConnId srv = st.Listen(81);
  ConnId cli = st.Connect(81);
  ASSERT_NE(srv, kBadConn);
  ASSERT_NE(cli, kBadConn);
  k.Run();
  ASSERT_EQ(st.StateOf(cli), CcbLayout::kEstablished);
  ASSERT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
  const BlockId srv_proc = st.SynthDeliverOf(srv);

  Addr buf = k.allocator().Allocate(256);
  mem.WriteBytes(buf, "first half.", 11);
  ASSERT_EQ(st.Send(cli, buf, 11), 11);
  k.Run();

  ASSERT_TRUE(pool.AddNic());
  ASSERT_EQ(pool.SteerOf(81), 1u);
  EXPECT_EQ(st.SynthDeliverOf(srv), srv_proc)
      << "migration moves the flow, not the CCB-absolute segment processor";
  EXPECT_TRUE(pool.nic(1).demux().HasFlow(81));

  mem.WriteBytes(buf, "second half", 11);
  ASSERT_EQ(st.Send(cli, buf, 11), 11);
  ASSERT_TRUE(st.Close(cli));
  k.Run(10'000'000);

  std::string got;
  for (;;) {
    int32_t n = st.Recv(srv, buf, 256);
    if (n <= 0) {
      break;
    }
    char tmp[256];
    mem.ReadBytes(buf, tmp, static_cast<size_t>(n));
    got.append(tmp, static_cast<size_t>(n));
  }
  EXPECT_EQ(got, "first half.second half");
  ASSERT_TRUE(st.Close(srv));
  k.Run(10'000'000);
  EXPECT_EQ(st.StateOf(cli), CcbLayout::kDone);
  EXPECT_EQ(st.StateOf(srv), CcbLayout::kDone);
  EXPECT_EQ(st.Stats(cli).retransmits, 0u)
      << "the grow itself must not cost a retransmission on a clean wire";
}

// A flow's NIC is a pure function of its port. From one NIC up to kMaxNics,
// one grow at a time, every flow sits on SteerOf(port) and on no other NIC,
// frames for every datagram port reach its ring under both steering
// implementations, and only the grow itself re-emits steering: binds,
// unbinds and rebinds never do. The stream pairs were established at N=1
// (each establishment rebinds its processor), so a stale processor carried
// across a migration would drop their bytes.
TEST(NicPoolTest, PlacementFollowsTheHashAcrossEveryGrow) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  Memory& mem = k.machine().memory();
  const uint32_t gen0 = pool.steering_generation();

  std::vector<uint16_t> ports;  // every bound port, datagram ones first
  std::vector<std::shared_ptr<RingHost>> rings;
  for (uint16_t port = 1000; port < 1000 + 64; port++) {
    rings.push_back(io.MakeRing(1024));
    ASSERT_TRUE(pool.BindFlow(FlowSpec::Ring(port, rings.back())));
    ports.push_back(port);
  }
  ASSERT_TRUE(pool.BindFlow(FlowSpec::Ring(999, io.MakeRing(256))));
  ASSERT_TRUE(pool.UnbindFlow(999));
  std::vector<std::pair<ConnId, ConnId>> pairs;  // (server, client)
  for (uint16_t port = 2000; port < 2000 + 16; port++) {
    pairs.emplace_back(st.Listen(port), st.Connect(port));
  }
  k.Run();
  for (const auto& [srv, cli] : pairs) {
    ASSERT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
    ASSERT_EQ(st.StateOf(cli), CcbLayout::kEstablished);
    ports.push_back(st.PortOf(srv));
    ports.push_back(st.PortOf(cli));
  }
  EXPECT_EQ(pool.steering_generation(), gen0)
      << "binds, unbinds and establishment rebinds never re-emit steering";

  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);
  while (pool.size() < NicPool::kMaxNics) {
    const uint32_t gen = pool.steering_generation();
    ASSERT_TRUE(pool.AddNic());
    const uint32_t n = pool.size();
    EXPECT_EQ(pool.steering_generation(), gen + 1) << "n=" << n;
    for (uint16_t port : ports) {
      for (uint32_t i = 0; i < n; i++) {
        const bool owner = i == pool.SteerOf(port);
        EXPECT_EQ(pool.nic(i).flows().count(port) != 0, owner)
            << "n=" << n << " port=" << port << " nic=" << i;
        EXPECT_EQ(pool.nic(i).demux().HasFlow(port), owner)
            << "n=" << n << " port=" << port << " nic=" << i;
      }
    }
    for (size_t j = 0; j < rings.size(); j++) {
      const uint32_t before = io.RingAvail(*rings[j]);
      EXPECT_EQ(CallWithFrame(k, pool.generic_steering(), frame, ports[j],
                              "gen"),
                1u)
          << "n=" << n << " port=" << ports[j];
      EXPECT_EQ(CallWithFrame(k, pool.synthesized_steering(), frame, ports[j],
                              "syn"),
                1u)
          << "n=" << n << " port=" << ports[j];
      EXPECT_EQ(io.RingAvail(*rings[j]), before + 2 * (4u + 3u));
    }
  }

  const uint32_t gen = pool.steering_generation();
  const uint16_t srv_port = st.PortOf(pairs[0].first);
  EXPECT_TRUE(pool.RebindFlow(srv_port, st.SynthDeliverOf(pairs[0].first)));
  ASSERT_TRUE(pool.UnbindFlow(ports[0]));
  ASSERT_TRUE(pool.BindFlow(FlowSpec::Ring(ports[0], rings[0])));
  EXPECT_EQ(pool.steering_generation(), gen);

  // One direction at a time: both directions at once queue enough segments
  // on the single CPU to outlast the base retransmission timeout.
  Addr buf = k.allocator().Allocate(64);
  for (bool to_server : {true, false}) {
    for (size_t j = 0; j < pairs.size(); j++) {
      const std::string msg = "pair " + std::to_string(j);
      mem.WriteBytes(buf, msg.data(), msg.size());
      const ConnId from = to_server ? pairs[j].second : pairs[j].first;
      ASSERT_EQ(st.Send(from, buf, static_cast<uint32_t>(msg.size())),
                static_cast<int32_t>(msg.size()));
    }
    k.Run();
    for (size_t j = 0; j < pairs.size(); j++) {
      const std::string msg = "pair " + std::to_string(j);
      const ConnId to = to_server ? pairs[j].first : pairs[j].second;
      ASSERT_EQ(st.Recv(to, buf, 64), static_cast<int32_t>(msg.size()))
          << "pair " << j;
      std::string got(msg.size(), '\0');
      mem.ReadBytes(buf, got.data(), got.size());
      EXPECT_EQ(got, msg);
    }
  }
  for (const auto& [srv, cli] : pairs) {
    EXPECT_EQ(st.Stats(srv).retransmits, 0u);
    EXPECT_EQ(st.Stats(cli).retransmits, 0u);
  }
}

TEST(NicPoolTest, GenericSteeringAblationCarriesAStreamEndToEnd) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 4;
  pc.synthesized_steering = false;  // interpreted steering loop in the cells
  NicPool pool(k, pc);
  ASSERT_EQ(pool.active_steering(), pool.generic_steering());
  StreamLayer st(k, io, pool);
  Memory& mem = k.machine().memory();

  ConnId srv = st.Listen(80);
  ConnId cli = st.Connect(80);
  k.Run();
  ASSERT_EQ(st.StateOf(cli), CcbLayout::kEstablished);
  Addr buf = k.allocator().Allocate(64);
  mem.WriteBytes(buf, "steered", 7);
  ASSERT_EQ(st.Send(cli, buf, 7), 7);
  ASSERT_TRUE(st.Close(cli));
  k.Run(10'000'000);
  std::string got;
  for (;;) {
    int32_t n = st.Recv(srv, buf, 64);
    if (n <= 0) {
      break;
    }
    char tmp[64];
    mem.ReadBytes(buf, tmp, static_cast<size_t>(n));
    got.append(tmp, static_cast<size_t>(n));
  }
  EXPECT_EQ(got, "steered");
  ASSERT_TRUE(st.Close(srv));
  k.Run(10'000'000);
  EXPECT_EQ(st.StateOf(srv), CcbLayout::kDone);
}

// Overload armor: RX queue depth past the high watermark swaps the
// synthesized early-drop filter into the outer cells; known flows keep
// flowing, junk dies in a handful of instructions, and draining below the
// low watermark swaps full steering back (hysteresis).
TEST(NicPoolTest, OverloadArmorEngagesShedsJunkAndDisengagesOnDrain) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  pc.admission_control = true;
  pc.shed_high_watermark = 4;
  pc.shed_low_watermark = 1;
  NicPool pool(k, pc);
  auto ring = io.MakeRing(4096);
  ASSERT_TRUE(pool.BindFlow(FlowSpec::Ring(80, ring)));
  ASSERT_NE(pool.shed_filter(), kInvalidBlock);
  EXPECT_FALSE(pool.shedding()) << "idle pool: full steering in the cells";

  // Pile frames into RX slots without letting the kernel run: depth climbs
  // through the watermark and the admission hook engages the filter before
  // any of them is demultiplexed.
  const uint8_t msg[] = {'x', 'y'};
  for (int i = 0; i < 6; i++) {
    pool.InjectRaw(80, 9001, msg, 2, FrameChecksum(80, 9001, msg, 2), 2);
    pool.InjectRaw(999, 9001, msg, 2, FrameChecksum(999, 9001, msg, 2), 2);
  }
  EXPECT_TRUE(pool.shedding()) << "depth 12 >= high watermark 4";
  EXPECT_EQ(pool.shed_engages(), 1u);

  k.Run();
  NicPool::AggregateStats agg = pool.Aggregate();
  EXPECT_EQ(agg.delivered, 6u) << "bound-port frames pass the filter";
  // 5 of the 6 junk frames die in the filter; the drain crosses the low
  // watermark with one frame still queued, so the last one goes through full
  // steering and lands in the ordinary no-match count instead.
  EXPECT_EQ(agg.early_sheds, 5u)
      << "unknown-port frames die in the filter, before ring or wakeup work";
  EXPECT_FALSE(pool.shedding())
      << "drained below the low watermark: full steering is back";
  EXPECT_GE(io.RingAvail(*ring), 6u * (4u + 2u));

  // Quiet again: the next overload re-engages (hysteresis is a cycle, not a
  // one-shot).
  for (int i = 0; i < 5; i++) {
    pool.InjectRaw(999, 9001, msg, 2, FrameChecksum(999, 9001, msg, 2), 2);
  }
  EXPECT_TRUE(pool.shedding());
  EXPECT_EQ(pool.shed_engages(), 2u);
  k.Run();
  EXPECT_FALSE(pool.shedding());
  EXPECT_EQ(pool.Aggregate().early_sheds, 9u);  // again all but the last
}

// Builds a stream-shaped segment (12-byte seq/ack/flags header + data bytes)
// and injects it for `dst` — the shapes the level-2 class test distinguishes.
void InjectShapedSeg(NicPool& pool, uint16_t dst, uint16_t src, uint32_t flags,
                     uint32_t data_len) {
  std::vector<uint8_t> p(StreamSeg::kHdrBytes + data_len, 0xAB);
  uint32_t seq = 1;
  uint32_t ack = 1;
  std::memcpy(p.data() + StreamSeg::kSeq, &seq, 4);
  std::memcpy(p.data() + StreamSeg::kAck, &ack, 4);
  std::memcpy(p.data() + StreamSeg::kFlags, &flags, 4);
  uint32_t n = static_cast<uint32_t>(p.size());
  pool.InjectRaw(dst, src, p.data(), n, FrameChecksum(dst, src, p.data(), n),
                 n);
}

// Level-2 escalation: depth past shed_data_watermark re-emits the filter with
// the class test folded in. Bulk data to a bound port now sheds; control-
// plane segments (header-only pure acks, SYN/FIN/RST) stay admissible, so
// handshakes and teardowns complete while the flood is being dropped.
TEST(NicPoolTest, ShedEscalationAdmitsControlShedsData) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  pc.admission_control = true;
  pc.shed_high_watermark = 4;
  pc.shed_low_watermark = 1;
  pc.shed_data_watermark = 8;
  NicPool pool(k, pc);
  auto ring = io.MakeRing(4096);
  ASSERT_TRUE(pool.BindFlow(FlowSpec::Ring(80, ring)));
  const BlockId level1_filter = pool.shed_filter();
  ASSERT_NE(level1_filter, kInvalidBlock);

  // Pile junk into RX slots without letting the kernel run: the admission
  // hook walks the ladder as depth climbs through both watermarks.
  const uint8_t msg[] = {'x', 'y'};
  for (int i = 0; i < 8; i++) {
    pool.InjectRaw(999, 9001, msg, 2, FrameChecksum(999, 9001, msg, 2), 2);
  }
  EXPECT_EQ(pool.shed_level(), 2u) << "depth 8 >= data watermark 8";
  EXPECT_TRUE(pool.data_shedding());
  EXPECT_EQ(pool.shed_engages(), 1u);
  EXPECT_EQ(pool.shed_escalations(), 1u);
  EXPECT_NE(pool.shed_filter(), level1_filter)
      << "escalation folds the class test into fresh code, not a flag";

  // Three frames for the BOUND port, queued behind the junk: bulk data (16
  // bytes, plain ack flags) sheds at level 2; a FIN (control by flags) and a
  // pure ack (control by length) get through.
  InjectShapedSeg(pool, 80, 9001, StreamSeg::kFlagAck, 4);
  InjectShapedSeg(pool, 80, 9001, StreamSeg::kFlagFin | StreamSeg::kFlagAck,
                  4);
  InjectShapedSeg(pool, 80, 9001, StreamSeg::kFlagAck, 0);

  k.Run();
  NicPool::AggregateStats agg = pool.Aggregate();
  EXPECT_EQ(agg.early_sheds, 8u) << "all junk died in the filter";
  EXPECT_EQ(agg.data_sheds, 1u) << "bound-port bulk data shed at level 2";
  EXPECT_EQ(agg.delivered, 2u) << "both control segments were admitted";
  EXPECT_FALSE(pool.shedding()) << "drained: full steering is back";
  EXPECT_EQ(pool.shed_level(), 0u);
}

// Membership is a bound-port bitmap at every flow count: a bind or unbind is
// one bit write, never a re-emission of the filter. Only a shed-level change
// re-emits it.
TEST(NicPoolTest, BitmapVariantBindsWithoutReemissionAndFiltersByBit) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  pc.admission_control = true;
  pc.shed_high_watermark = 4;
  pc.shed_low_watermark = 1;
  NicPool pool(k, pc);
  const BlockId filter = pool.shed_filter();
  ASSERT_NE(filter, kInvalidBlock);
  const size_t blocks = k.code().live_block_count();
  std::vector<std::shared_ptr<RingHost>> rings;
  for (uint16_t port = 80; port < 80 + 64; port++) {
    rings.push_back(io.MakeRing(256));
    ASSERT_TRUE(pool.BindFlow(FlowSpec::Ring(port, rings.back())));
    ASSERT_EQ(pool.shed_filter(), filter)
        << "bind of flow " << (port - 79) << " re-emitted the filter";
  }
  // Each datagram bind installs exactly its own deliver block.
  EXPECT_EQ(k.code().live_block_count(), blocks + rings.size());

  // Drive the filter block directly: bound ports fall through to steering
  // and deliver; an unknown port dies with the no-match verdict.
  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);
  EXPECT_EQ(CallWithFrame(k, pool.shed_filter(), frame, 83, "ok"), 1u);
  EXPECT_EQ(CallWithFrame(k, pool.shed_filter(), frame, 999, "no"),
            static_cast<uint32_t>(-2));

  // Unbind clears the bit, again without re-emission; the port now sheds in
  // the filter itself (the early-shed counter proves it never reached the
  // demux's own no-match path).
  for (uint16_t port = 80; port < 80 + 64; port += 2) {
    ASSERT_TRUE(pool.UnbindFlow(port));
    ASSERT_EQ(pool.shed_filter(), filter);
  }
  EXPECT_EQ(CallWithFrame(k, pool.shed_filter(), frame, 82, "xx"),
            static_cast<uint32_t>(-2));
  EXPECT_EQ(CallWithFrame(k, pool.shed_filter(), frame, 83, "ok"), 1u);
  EXPECT_EQ(pool.Aggregate().early_sheds, 2u);
}

// Refusing any one code install while a pool comes up must leave a pool
// that still hears. Blocks with no generic fallback (the demux's shared
// helpers and walk, the NIC entries, the pool's generic steering, shims and
// dispatch chains) install exempt from injected refusal; the refusable ones
// (each table demux, the synthesized steering) fall back to their generic
// twins. So one datagram to a bound port arrives, and its TX completion
// retires, whichever bring-up visit was refused.
TEST(NicPoolTest, RefusingAnyBringUpInstallLeavesThePoolDelivering) {
  NicPoolConfig pc;
  pc.initial_nics = 2;
  uint64_t bring_up_visits = 0;
  {
    Kernel k;
    const uint64_t before = k.faults().visits(FaultSite::kCodeInstall);
    NicPool pool(k, pc);
    bring_up_visits = k.faults().visits(FaultSite::kCodeInstall) - before;
  }
  ASSERT_GT(bring_up_visits, 0u);
  for (uint64_t v = 1; v <= bring_up_visits; v++) {
    Kernel k;
    FaultTrigger once;
    once.schedule = {k.faults().visits(FaultSite::kCodeInstall) + v};
    k.faults().Arm(FaultSite::kCodeInstall, once);
    NicPool pool(k, pc);
    k.faults().Disarm(FaultSite::kCodeInstall);
    ASSERT_EQ(k.faults().fires(FaultSite::kCodeInstall), 1u) << "visit " << v;

    IoSystem io(k, nullptr);
    auto ring = io.MakeRing(4096);
    ASSERT_TRUE(pool.BindFlow(FlowSpec::Ring(80, ring))) << "visit " << v;
    const uint8_t msg[] = {'h', 'i'};
    ASSERT_TRUE(pool.Transmit(80, 9001, msg, 2)) << "visit " << v;
    k.Run();
    EXPECT_EQ(io.RingAvail(*ring), 4u + 2u) << "visit " << v;
    NicPool::AggregateStats agg = pool.Aggregate();
    EXPECT_EQ(agg.delivered, 1u) << "visit " << v;
    EXPECT_EQ(agg.tx_completed, 1u) << "visit " << v;
  }
}

TEST(NicPoolDeathTest, BadShedWatermarksAbortLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Kernel k;
        NicPoolConfig pc;
        pc.shed_high_watermark = 8;
        pc.shed_low_watermark = 8;
        NicPool pool(k, pc);
      },
      "high > low > 0");
  EXPECT_DEATH(
      {
        Kernel k;
        NicPoolConfig pc;
        pc.admission_control = true;
        pc.shed_data_watermark = 10;  // <= the default high watermark
        NicPool pool(k, pc);
      },
      "shed_data_watermark must exceed");
}

}  // namespace
}  // namespace synthesis
