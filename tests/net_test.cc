// Network subsystem tests: NIC interrupt delivery, generic vs synthesized
// demux parity, flow setup/teardown, fault-injection paths, the datagram
// socket layer, and the retransmit-under-loss guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/net/nic_device.h"
#include "src/net/nic_pool.h"
#include "src/net/socket.h"
#include "src/unix/emulator.h"

namespace synthesis {
namespace {

// Device-level tests run against a single-member pool: `nic_` is the pool's
// one device, so per-device surfaces (demux, gauges, faults) stay reachable
// while delivery runs the pooled interrupt path (dispatch shim + steering).
class NetTest : public ::testing::Test {
 protected:
  NetTest() : NetTest(NicConfig()) {}
  explicit NetTest(NicConfig cfg)
      : io_(k_, nullptr), pool_(k_, PoolConfig(cfg)), nic_(pool_.nic(0)) {}

  static NicPoolConfig PoolConfig(NicConfig cfg) {
    NicPoolConfig pc;
    pc.initial_nics = 1;
    pc.nic = cfg;
    return pc;
  }

  std::shared_ptr<RingHost> BindRing(uint16_t port, uint32_t fixed_len = 0,
                                     uint32_t capacity = 1024) {
    auto ring = io_.MakeRing(capacity);
    EXPECT_TRUE(nic_.BindFlow(FlowSpec::Ring(port, ring, fixed_len)));
    return ring;
  }

  // Drains one [len src payload] record from a flow ring.
  bool DrainRecord(RingHost& ring, uint32_t* src, std::string* payload) {
    uint8_t b[4];
    for (int i = 0; i < 4; i++) {
      if (!io_.RingGetByte(ring, &b[i])) {
        return false;
      }
    }
    uint32_t len = b[0] | (b[1] << 8);
    *src = b[2] | (b[3] << 8);
    payload->clear();
    for (uint32_t i = 0; i < len; i++) {
      uint8_t c = 0;
      if (!io_.RingGetByte(ring, &c)) {
        return false;
      }
      payload->push_back(static_cast<char>(c));
    }
    return true;
  }

  bool Send(uint16_t dst, uint16_t src, const std::string& payload) {
    return nic_.Transmit(dst, src,
                         reinterpret_cast<const uint8_t*>(payload.data()),
                         static_cast<uint32_t>(payload.size()));
  }

  Kernel k_;
  IoSystem io_;
  NicPool pool_;
  NicDevice& nic_;
};

TEST_F(NetTest, TransmitLoopsBackThroughInterruptsToTheFlowRing) {
  auto ring = BindRing(7);
  ASSERT_TRUE(Send(7, 99, "hello net"));
  k_.Run();
  uint32_t src = 0;
  std::string payload;
  ASSERT_TRUE(DrainRecord(*ring, &src, &payload));
  EXPECT_EQ(payload, "hello net");
  EXPECT_EQ(src, 99u);
  EXPECT_EQ(nic_.demux().delivered(7), 1u);
  EXPECT_EQ(nic_.demux().delivered_total(), 1u);
  EXPECT_EQ(nic_.tx_completed(), 1u);
  EXPECT_EQ(nic_.rx_gauge().events(), 1u);
}

TEST_F(NetTest, MultipleFlowsDemuxToTheirOwnRings) {
  auto r1 = BindRing(1000);
  auto r2 = BindRing(2000);
  ASSERT_TRUE(Send(2000, 5, "to-two"));
  ASSERT_TRUE(Send(1000, 5, "to-one"));
  k_.Run();
  uint32_t src = 0;
  std::string payload;
  ASSERT_TRUE(DrainRecord(*r1, &src, &payload));
  EXPECT_EQ(payload, "to-one");
  ASSERT_TRUE(DrainRecord(*r2, &src, &payload));
  EXPECT_EQ(payload, "to-two");
  EXPECT_EQ(nic_.demux().delivered(1000), 1u);
  EXPECT_EQ(nic_.demux().delivered(2000), 1u);
}

TEST_F(NetTest, GenericAndSynthesizedDemuxAgree) {
  auto ring_a = BindRing(10);
  auto ring_b = BindRing(20, /*fixed_len=*/8);
  // Build frames directly and run both demux routines over copies.
  struct Case {
    uint32_t dst;
    std::string payload;
    int32_t want_d0;
  };
  std::vector<Case> cases = {
      {10, "abc", 1},          // flexible flow
      {20, "12345678", 1},     // fixed-size flow, right size
      {20, "123", 0},          // fixed-size flow, wrong size -> malformed
      {30, "nobody", -2},      // no flow
  };
  Addr frame = k_.allocator().Allocate(FrameLayout::kSlotBytes);
  for (const Case& c : cases) {
    for (bool synth : {false, true}) {
      WriteFrame(k_.machine().memory(), frame, c.dst, 77,
                 reinterpret_cast<const uint8_t*>(c.payload.data()),
                 static_cast<uint32_t>(c.payload.size()));
      BlockId demux = synth ? nic_.demux().synthesized_demux()
                            : nic_.demux().generic_demux();
      k_.machine().set_reg(kA1, frame);
      k_.kexec().Call(demux);
      EXPECT_EQ(static_cast<int32_t>(k_.machine().reg(kD0)), c.want_d0)
          << "dst=" << c.dst << " synth=" << synth;
      if (c.want_d0 != -2) {
        EXPECT_EQ(k_.machine().reg(kD2), c.dst) << "matched port in d2";
      }
    }
  }
  // Both paths delivered: two records per delivering case.
  EXPECT_EQ(nic_.demux().delivered(10), 2u);
  EXPECT_EQ(nic_.demux().delivered(20), 2u);
  EXPECT_EQ(nic_.demux().malformed(), 2u);
  uint32_t src = 0;
  std::string payload;
  ASSERT_TRUE(DrainRecord(*ring_a, &src, &payload));
  EXPECT_EQ(payload, "abc");
  ASSERT_TRUE(DrainRecord(*ring_a, &src, &payload));
  EXPECT_EQ(payload, "abc");
  ASSERT_TRUE(DrainRecord(*ring_b, &src, &payload));
  EXPECT_EQ(payload, "12345678");
}

TEST_F(NetTest, SynthesizedDemuxHasShorterPathThanGeneric) {
  BindRing(1000);
  BindRing(2000);
  BindRing(3000);
  Addr frame = k_.allocator().Allocate(FrameLayout::kSlotBytes);
  const std::string payload(64, 'x');
  uint64_t instrs[2];
  for (bool synth : {false, true}) {
    WriteFrame(k_.machine().memory(), frame, 3000, 1,
               reinterpret_cast<const uint8_t*>(payload.data()),
               static_cast<uint32_t>(payload.size()));
    k_.machine().set_reg(kA1, frame);
    Stopwatch sw(k_.machine());
    k_.kexec().Call(synth ? nic_.demux().synthesized_demux()
                          : nic_.demux().generic_demux());
    instrs[synth] = sw.instructions();
    EXPECT_EQ(k_.machine().reg(kD0), 1u);
  }
  EXPECT_LT(instrs[1], instrs[0])
      << "synthesized demux must run fewer instructions per packet";
}

TEST_F(NetTest, ChecksumRejectIsCountedInPlace) {
  BindRing(7);
  const uint8_t payload[4] = {1, 2, 3, 4};
  uint32_t good = FrameChecksum(7, 9, payload, 4);
  nic_.InjectRaw(7, 9, payload, 4, good + 1, 4);  // corrupted checksum
  k_.Run();
  EXPECT_EQ(nic_.demux().csum_rejects(), 1u);
  EXPECT_EQ(nic_.demux().delivered_total(), 0u);
}

TEST_F(NetTest, OversizedLengthFieldIsMalformedNotACrash) {
  BindRing(7);
  nic_.InjectRaw(7, 9, nullptr, 0, 12345, /*length_field=*/0x7FFFFFFF);
  k_.Run();
  EXPECT_EQ(nic_.demux().malformed(), 1u);
  EXPECT_EQ(nic_.demux().delivered_total(), 0u);
}

TEST_F(NetTest, UnmatchedPortCountsAsNoMatch) {
  BindRing(7);
  ASSERT_TRUE(Send(4242, 1, "lost"));
  k_.Run();
  EXPECT_EQ(nic_.nomatch_gauge().events(), 1u);
  EXPECT_EQ(nic_.demux().delivered_total(), 0u);
}

TEST_F(NetTest, FullRingDropsAndCounts) {
  // 64-byte ring: 63 usable; each 20-byte payload needs 24 ring bytes.
  BindRing(7, 0, /*capacity=*/64);
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(Send(7, 1, std::string(20, 'a' + i)));
  }
  k_.Run();
  EXPECT_EQ(nic_.demux().delivered(7), 2u);
  EXPECT_EQ(nic_.demux().ring_drops(), 2u);
}

TEST_F(NetTest, FlowSetupTeardownAndResynthesis) {
  // The synthesized demux is an install-once lookup through the cell table:
  // flow changes rewrite cells, never the demux block.
  const BlockId demux = nic_.demux().synthesized_demux();
  ASSERT_NE(demux, kInvalidBlock);
  auto ring = BindRing(5);
  EXPECT_EQ(nic_.demux().synthesized_demux(), demux)
      << "binding a flow stores a cell, it does not re-synthesize the demux";
  EXPECT_TRUE(nic_.demux().HasFlow(5));
  EXPECT_FALSE(nic_.BindFlow(FlowSpec::Ring(5, ring))) << "port already bound";
  EXPECT_TRUE(nic_.UnbindFlow(5));
  EXPECT_EQ(nic_.demux().synthesized_demux(), demux);
  EXPECT_FALSE(nic_.demux().HasFlow(5));
  EXPECT_FALSE(nic_.UnbindFlow(5));
  // Frames to the removed port now fall through to no-match.
  ASSERT_TRUE(Send(5, 1, "gone"));
  k_.Run();
  EXPECT_EQ(nic_.nomatch_gauge().events(), 1u);
  // Rebinding works and delivers again, through the same demux block.
  BindRing(5);
  EXPECT_EQ(nic_.demux().synthesized_demux(), demux);
  ASSERT_TRUE(Send(5, 2, "back"));
  k_.Run();
  EXPECT_EQ(nic_.demux().delivered(5), 1u);
}

TEST_F(NetTest, DemuxCellSwapsImplementationWithoutRebinding) {
  auto ring = BindRing(7);
  nic_.UseSynthesizedDemux(false);
  ASSERT_TRUE(Send(7, 1, "generic"));
  k_.Run();
  nic_.UseSynthesizedDemux(true);
  ASSERT_TRUE(Send(7, 1, "synth"));
  k_.Run();
  EXPECT_EQ(nic_.demux().delivered(7), 2u);
  uint32_t src = 0;
  std::string payload;
  ASSERT_TRUE(DrainRecord(*ring, &src, &payload));
  EXPECT_EQ(payload, "generic");
  ASSERT_TRUE(DrainRecord(*ring, &src, &payload));
  EXPECT_EQ(payload, "synth");
}

// A bind that cannot get memory for its leaf or its counter word is refused
// with nothing changed — allocator, code store and both tables — and the same
// bind succeeds once memory is back.
TEST(DemuxCellTableTest, RefusedAllocationLeavesTheTablesUnchanged) {
  Kernel k;
  IoSystem io(k, nullptr);
  DemuxSynthesizer demux(k);
  auto ring = io.MakeRing(256);
  ASSERT_TRUE(demux.AddFlow(0x1234, ring->base));  // leaf 0x12 now exists
  const uint32_t bytes = k.allocator().bytes_in_use();
  const uint32_t count = k.allocator().allocation_count();
  const size_t blocks = k.code().live_block_count();
  auto refuse_visits = [&](std::vector<uint64_t> offsets) {
    FaultTrigger t;
    for (uint64_t o : offsets) {
      t.schedule.push_back(k.faults().visits(FaultSite::kAlloc) + o);
    }
    k.faults().Arm(FaultSite::kAlloc, t);
  };
  refuse_visits({1});  // the fresh leaf
  EXPECT_FALSE(demux.AddFlow(0x5678, ring->base));
  refuse_visits({1});
  EXPECT_FALSE(demux.AddFlowCustom(0x5679, ring->base, 0, demux.generic_demux(),
                                   demux.generic_demux()));
  refuse_visits({2});  // the leaf is granted, the counter word is not
  EXPECT_FALSE(demux.AddFlow(0x5678, ring->base));
  refuse_visits({1});  // existing leaf, no counter word
  EXPECT_FALSE(demux.AddFlow(0x1235, ring->base));
  k.faults().Disarm(FaultSite::kAlloc);
  EXPECT_EQ(k.allocator().bytes_in_use(), bytes);
  EXPECT_EQ(k.allocator().allocation_count(), count);
  EXPECT_EQ(k.code().live_block_count(), blocks);
  EXPECT_EQ(demux.flow_count(), 1u);

  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);
  const uint8_t payload[2] = {1, 2};
  for (uint16_t port : {0x5678, 0x5679, 0x1235}) {
    WriteFrame(k.machine().memory(), frame, port, 9, payload, 2);
    for (BlockId d : {demux.generic_demux(), demux.synthesized_demux()}) {
      k.machine().set_reg(kA1, frame);
      k.kexec().Call(d);
      EXPECT_EQ(static_cast<int32_t>(k.machine().reg(kD0)), -2) << port;
    }
  }
  ASSERT_TRUE(demux.AddFlow(0x5678, ring->base));
  WriteFrame(k.machine().memory(), frame, 0x5678, 9, payload, 2);
  k.machine().set_reg(kA1, frame);
  k.kexec().Call(demux.synthesized_demux());
  EXPECT_EQ(k.machine().reg(kD0), 1u);
}

// --- Socket layer -----------------------------------------------------------

class SocketTest : public NetTest {
 protected:
  SocketTest() : net_(k_, io_, pool_) {}
  DatagramSocketLayer net_;
};

TEST_F(SocketTest, BindSendReceiveRoundtrip) {
  SocketId rx = net_.Socket();
  ASSERT_TRUE(net_.Bind(rx, 8080));
  SocketId tx = net_.Socket();
  Addr out = k_.allocator().Allocate(64);
  k_.machine().memory().WriteBytes(out, "datagram!", 9);
  EXPECT_EQ(net_.SendTo(tx, 8080, out, 9), 9);
  uint16_t eph = net_.PortOf(tx);
  EXPECT_GE(eph, 49152) << "sender auto-bound to an ephemeral port";
  k_.Run();
  Addr in = k_.allocator().Allocate(64);
  uint32_t src = 0;
  EXPECT_EQ(net_.RecvFrom(rx, in, 64, &src), 9);
  EXPECT_EQ(src, eph);
  char got[9];
  k_.machine().memory().ReadBytes(in, got, 9);
  EXPECT_EQ(std::string(got, 9), "datagram!");
  // Nothing else queued.
  EXPECT_EQ(net_.RecvFrom(rx, in, 64, &src), kIoWouldBlock);
  EXPECT_TRUE(net_.CloseSocket(rx));
  EXPECT_FALSE(nic_.demux().HasFlow(8080));
}

TEST_F(SocketTest, TruncatesToCapacity) {
  SocketId rx = net_.Socket();
  ASSERT_TRUE(net_.Bind(rx, 8080));
  SocketId tx = net_.Socket();
  Addr out = k_.allocator().Allocate(64);
  k_.machine().memory().WriteBytes(out, "0123456789", 10);
  EXPECT_EQ(net_.SendTo(tx, 8080, out, 10), 10);
  k_.Run();
  Addr in = k_.allocator().Allocate(64);
  EXPECT_EQ(net_.RecvFrom(rx, in, 4, nullptr), 4);
  char got[4];
  k_.machine().memory().ReadBytes(in, got, 4);
  EXPECT_EQ(std::string(got, 4), "0123");
}

TEST_F(SocketTest, BlockedReceiverWakesOnDelivery) {
  SocketId rx = net_.Socket();
  ASSERT_TRUE(net_.Bind(rx, 8080));
  class Receiver : public UserProgram {
   public:
    Receiver(DatagramSocketLayer& net, SocketId s, Addr buf, std::string* out)
        : net_(net), s_(s), buf_(buf), out_(out) {}
    StepStatus Step(ThreadEnv& env) override {
      uint32_t src = 0;
      int32_t n = net_.RecvFrom(s_, buf_, 64, &src);
      if (n == kIoWouldBlock) {
        return StepStatus::kBlocked;  // RecvFrom already parked us
      }
      if (n > 0) {
        char tmp[64];
        env.kernel.machine().memory().ReadBytes(buf_, tmp, static_cast<size_t>(n));
        out_->assign(tmp, static_cast<size_t>(n));
      }
      return StepStatus::kDone;
    }

   private:
    DatagramSocketLayer& net_;
    SocketId s_;
    Addr buf_;
    std::string* out_;
  };
  std::string got;
  Addr buf = k_.allocator().Allocate(64);
  k_.CreateThread(std::make_unique<Receiver>(net_, rx, buf, &got));
  SocketId tx = net_.Socket();
  Addr out = k_.allocator().Allocate(64);
  k_.machine().memory().WriteBytes(out, "wake up", 7);
  EXPECT_EQ(net_.SendTo(tx, 8080, out, 7), 7);
  k_.Run();
  EXPECT_EQ(got, "wake up");
}

TEST_F(SocketTest, UnixEmulatorSurface) {
  UnixEmulator emu(k_, io_, nullptr);
  emu.AttachNet(&net_);
  int rx = emu.Socket();
  ASSERT_GE(rx, 0);
  EXPECT_EQ(emu.Bind(rx, 9000), 0);
  int tx = emu.Socket();
  Addr out = emu.scratch(128);
  k_.machine().memory().WriteBytes(out, "via unix", 8);
  EXPECT_EQ(emu.SendTo(tx, 9000, out, 8), 8);
  k_.Run();
  Addr in = k_.allocator().Allocate(64);
  uint32_t src = 0;
  EXPECT_EQ(emu.RecvFrom(rx, in, 64, &src), 8);
  char got[8];
  k_.machine().memory().ReadBytes(in, got, 8);
  EXPECT_EQ(std::string(got, 8), "via unix");
  EXPECT_EQ(emu.Close(rx), 0);
  EXPECT_EQ(emu.Close(rx), -1);
  // A PosixLikeApi without a network reports -1 without crashing.
  UnixEmulator bare(k_, io_, nullptr);
  EXPECT_EQ(bare.Socket(), -1);
}

// --- Wire fault modes: reorder, duplication, burst loss ----------------------

class ReorderNetTest : public NetTest {
 protected:
  static NicConfig Reordering() {
    NicConfig cfg;
    cfg.reorder_rate = 0.35;
    cfg.fault_seed = 7;
    // A held frame is only overtaken by frames entering the wire within
    // 2 * wire_latency_us of it; keep that window far above per-interrupt
    // processing time so the test measures the wire model, not ISR length.
    cfg.wire_latency_us = 200.0;
    return cfg;
  }
  ReorderNetTest() : NetTest(Reordering()) {}
};

TEST_F(ReorderNetTest, ReorderedFramesAllArriveButOutOfOrder)
{
  auto ring = BindRing(7, 0, 4096);
  const int kFrames = 12;
  for (int i = 0; i < kFrames; i++) {
    ASSERT_TRUE(Send(7, 1, std::string(1, static_cast<char>('a' + i))));
  }
  k_.Run();
  std::string order;
  uint32_t src = 0;
  std::string payload;
  while (DrainRecord(*ring, &src, &payload)) {
    order += payload;
  }
  EXPECT_EQ(order.size(), static_cast<size_t>(kFrames))
      << "reordering delays frames, it never loses them";
  std::string sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, "abcdefghijkl") << "every frame arrives exactly once";
  EXPECT_NE(order, sorted) << "held-back frames were overtaken on the wire";
  EXPECT_GT(nic_.wire_reorder_gauge().events(), 0u);
  EXPECT_EQ(nic_.wire_drop_gauge().events(), 0u);
}

TEST_F(NetTest, DuplicatedFramesDeliverTwice) {
  nic_.SetWireFaults(0, 0, 0, /*duplicate=*/1.0, 0);
  auto ring = BindRing(7);
  ASSERT_TRUE(Send(7, 1, "twice"));
  k_.Run();
  uint32_t src = 0;
  std::string payload;
  ASSERT_TRUE(DrainRecord(*ring, &src, &payload));
  EXPECT_EQ(payload, "twice");
  ASSERT_TRUE(DrainRecord(*ring, &src, &payload));
  EXPECT_EQ(payload, "twice");
  EXPECT_FALSE(DrainRecord(*ring, &src, &payload));
  EXPECT_EQ(nic_.wire_dup_gauge().events(), 1u);
  EXPECT_EQ(nic_.demux().delivered(7), 2u);
}

TEST_F(NetTest, BurstLossSwallowsConsecutiveFramesThenHeals) {
  // Every frame either starts or rides an in-progress burst: nothing survives.
  // Exactly burst_len (4) frames, so the countdown is spent when the wire
  // heals (fault decisions are drawn at transmit time).
  nic_.SetWireFaults(0, 0, 0, 0, /*burst_loss=*/1.0);
  auto ring = BindRing(7);
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(Send(7, 1, "burst"));
  }
  k_.Run();
  EXPECT_EQ(nic_.demux().delivered(7), 0u);
  EXPECT_EQ(nic_.wire_drop_gauge().events(), 4u);
  // The wire heals mid-run: later traffic flows again.
  nic_.SetWireFaults(0, 0, 0, 0, 0);
  ASSERT_TRUE(Send(7, 1, "alive"));
  k_.Run();
  EXPECT_EQ(nic_.demux().delivered(7), 1u);
  uint32_t src = 0;
  std::string payload;
  ASSERT_TRUE(DrainRecord(*ring, &src, &payload));
  EXPECT_EQ(payload, "alive");
}

TEST_F(NetTest, BurstLossConsumesItsConfiguredRunLength) {
  // Force exactly one burst: the first frame starts it (rate 1.0), then the
  // rate drops to zero while the burst countdown keeps eating frames.
  nic_.SetWireFaults(0, 0, 0, 0, 1.0);
  auto ring = BindRing(7);
  ASSERT_TRUE(Send(7, 1, "x0"));  // starts the burst (burst_len = 4)
  nic_.SetWireFaults(0, 0, 0, 0, 0);
  for (int i = 1; i < 6; i++) {
    ASSERT_TRUE(Send(7, 1, "x" + std::to_string(i)));
  }
  k_.Run();
  // Frames 0-3 vanish in the burst; 4 and 5 get through.
  EXPECT_EQ(nic_.wire_drop_gauge().events(), 4u);
  EXPECT_EQ(nic_.demux().delivered(7), 2u);
  uint32_t src = 0;
  std::string payload;
  ASSERT_TRUE(DrainRecord(*ring, &src, &payload));
  EXPECT_EQ(payload, "x4");
  ASSERT_TRUE(DrainRecord(*ring, &src, &payload));
  EXPECT_EQ(payload, "x5");
}

// --- Fault injection and retransmission -------------------------------------

class LossyNetTest : public NetTest {
 protected:
  static NicConfig Lossy() {
    NicConfig cfg;
    cfg.drop_rate = 0.10;
    cfg.corrupt_rate = 0.10;
    cfg.fault_seed = 42;
    return cfg;
  }
  LossyNetTest() : NetTest(Lossy()) {}
};

// A bounded retransmit-with-backoff sender: sends each payload, waits for it
// to show up in its own receive ring (loopback), and retransmits with doubled
// timeout until it does. The client polls ring availability (never blocking)
// so its virtual-time retransmit deadline keeps being checked.
class RetransmitClient : public UserProgram {
 public:
  RetransmitClient(IoSystem& io, DatagramSocketLayer& net, SocketId sock,
                   uint16_t port, int total, std::set<int>* received,
                   int* retransmits)
      : io_(io),
        net_(net),
        sock_(sock),
        port_(port),
        total_(total),
        received_(received),
        retransmits_(retransmits) {}

  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(16);
    }
    // Drain arrivals. Records are complete, so >= 4 ring bytes means a whole
    // datagram is waiting and RecvFrom will not park us.
    RingHost& ring = *net_.RingOf(sock_);
    while (io_.RingAvail(ring) >= 4) {
      uint32_t src = 0;
      if (net_.RecvFrom(sock_, buf_, 16, &src) < 4) {
        break;
      }
      received_->insert(static_cast<int>(k.machine().memory().Read32(buf_)));
    }
    if (static_cast<int>(received_->size()) >= total_) {
      return StepStatus::kDone;
    }
    bool acked = sent_once_ && received_->count(last_sent_) != 0;
    if (!sent_once_ || acked || k.NowUs() >= deadline_us_) {
      // Send (or retransmit) the lowest not-yet-delivered sequence number.
      int next = 0;
      while (received_->count(next) != 0) {
        next++;
      }
      if (sent_once_ && last_sent_ == next) {
        (*retransmits_)++;
        rto_us_ *= 2;  // exponential backoff
      } else {
        rto_us_ = 200;
      }
      k.machine().memory().Write32(buf_, static_cast<uint32_t>(next));
      net_.SendTo(sock_, port_, buf_, 4);
      sent_once_ = true;
      last_sent_ = next;
      deadline_us_ = k.NowUs() + rto_us_;
    }
    k.machine().Charge(50, 10, 0);  // poll loop body
    return StepStatus::kYield;
  }

 private:
  IoSystem& io_;
  DatagramSocketLayer& net_;
  SocketId sock_;
  uint16_t port_;
  int total_;
  std::set<int>* received_;
  int* retransmits_;
  Addr buf_ = 0;
  bool sent_once_ = false;
  int last_sent_ = -1;
  double rto_us_ = 200;
  double deadline_us_ = 0;
};

TEST_F(LossyNetTest, RetransmitWithBackoffDeliversEverythingDespiteFaults) {
  DatagramSocketLayer net(k_, io_, pool_);
  SocketId sock = net.Socket();
  ASSERT_TRUE(net.Bind(sock, 6000));
  std::set<int> received;
  int retransmits = 0;
  constexpr int kTotal = 40;
  k_.CreateThread(std::make_unique<RetransmitClient>(
      io_, net, sock, 6000, kTotal, &received, &retransmits));
  k_.Run(2'000'000);
  EXPECT_EQ(static_cast<int>(received.size()), kTotal)
      << "every payload must eventually arrive";
  // With a 10% drop + 10% corruption wire and seed 42 some frames were lost,
  // so the client had to retransmit, and the loss is observable.
  EXPECT_GT(retransmits, 0);
  EXPECT_GT(nic_.wire_drop_gauge().events() + nic_.demux().csum_rejects(), 0u);
}

}  // namespace
}  // namespace synthesis
