// conn_churn: connection lifecycles against a standing population.
//
// Set-up ramps a population of idle stream pairs across the 8-NIC pool, the
// shape of table12's pool. The timed phase runs closed-loop lifecycles from a
// few client threads: Listen, Connect, one 64 B request and its reply, Close
// on both ends. op = one lifecycle. Per-bind demux re-synthesis and the
// O(flows) port scans dominate; the segment path does almost nothing.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/kernel/user_program.h"
#include "src/net/nic_pool.h"
#include "src/net/stream.h"

namespace perfbench {
namespace {

using namespace synthesis;

constexpr uint32_t kPopulation = 512;  // idle pairs ramped at set-up
constexpr uint32_t kWave = 128;        // pairs opened per kernel drain
constexpr uint32_t kClients = 4;       // concurrent lifecycle threads
constexpr uint32_t kMsgBytes = 64;
constexpr uint32_t kPortRotation = 1024;  // lifecycle service ports, FIFO
constexpr uint64_t kWindowOps = 1000;
constexpr uint64_t kRunChunk = 16;  // slices per Advance
constexpr uint16_t kPortLo = 1024;  // service ports: [kPortLo, ephemeral base)

Kernel::Config KernelCfg() {
  Kernel::Config c;
  c.memory_bytes = 64 * 1024 * 1024;
  return c;
}

NicPoolConfig PoolCfg() {
  NicPoolConfig c;
  c.initial_nics = NicPool::kMaxNics;
  c.nic.rx_slots = 256;
  c.nic.tx_slots = 256;
  c.admission_control = true;
  c.shed_high_watermark = 32;
  c.shed_low_watermark = 4;
  c.shed_data_watermark = 128;
  return c;
}

StreamConfig StreamCfg() {
  StreamConfig c;
  c.ring_bytes = 1024;
  c.rto_base_us = 2000;
  c.max_retries = 16;
  return c;
}

class ConnChurn;

// One client thread: plays both ends of each lifecycle in turn.
class Lifecycle : public UserProgram {
 public:
  Lifecycle(ConnChurn& w, uint32_t idx);
  StepStatus Step(ThreadEnv& env) override;

 private:
  enum class Phase { kOpen, kSendReq, kRecvReq, kSendRep, kRecvRep, kClose };
  // Send/Recv `kMsgBytes` in pieces; true once the message is whole.
  StepStatus Pump(bool send, ConnId conn, Addr buf, bool* whole);

  ConnChurn& w_;
  std::mt19937_64 rng_;
  Phase phase_ = Phase::kOpen;
  Addr req_, srv_rx_, rep_, cli_rx_;
  uint8_t expect_[kMsgBytes] = {};
  bool corrupt_ = false;  // a byte of this lifecycle's exchange differed
  uint32_t off_ = 0;
  uint16_t port_ = 0;
  ConnId srv_ = kBadConn, cli_ = kBadConn;
  double t0_ = 0;
};

class ConnChurn : public Workload {
 public:
  ConnChurn(uint64_t seed, OpLog& log, Tracer* tracer)
      : k_(KernelCfg()),
        io_(k_, nullptr),
        pool_(k_, PoolCfg()),
        st_(k_, io_, pool_),
        log_(log),
        tracer_(tracer),
        seed_(seed) {
    std::vector<uint16_t> ports;
    for (uint32_t p = kPortLo; p < StreamLayer::kEphemeralBase; p++) {
      ports.push_back(static_cast<uint16_t>(p));
    }
    std::mt19937_64 rng(MixSeed(seed, 1));
    std::shuffle(ports.begin(), ports.end(), rng);
    // The seed draws the service ports, but every NIC gets the same share of
    // population ports and of rotation ports: bind cost grows with the flows
    // on the owning NIC, so a lopsided draw would make host speed a property
    // of the seed.
    const uint32_t nics = pool_.size();
    std::vector<uint32_t> pop_on(nics), rot_on(nics);
    std::vector<uint16_t> pop_ports;
    for (uint16_t p : ports) {
      const uint32_t nic = pool_.SteerOf(p);
      if (pop_on[nic] < kPopulation / nics) {
        pop_on[nic]++;
        pop_ports.push_back(p);
      } else if (rot_on[nic] < kPortRotation / nics) {
        rot_on[nic]++;
        free_ports_.push_back(p);
      }
    }

    const StreamConfig cfg = StreamCfg();
    for (uint16_t port : pop_ports) {
      const double t0 = HostNowS();
      pop_.push_back(st_.Listen(port, cfg));
      pop_.push_back(st_.Connect(port, cfg));
      ramp_open_s_ += HostNowS() - t0;
      if (pop_.size() % (2 * kWave) == 0) {
        k_.Run();
      }
    }
    k_.Run();
    for (ConnId c : pop_) {
      if (c == kBadConn || st_.StateOf(c) != CcbLayout::kEstablished) {
        log_.Fail("conn_churn: population pair did not establish");
      }
    }
    for (uint32_t i = 0; i < kClients; i++) {
      bufs_.push_back(k_.allocator().Allocate(4 * kMsgBytes));
    }
    for (uint32_t i = 0; i < kClients; i++) {
      k_.CreateThread(std::make_unique<Lifecycle>(*this, i));
    }
    baseline_ = OccupancyOf(k_);
  }

  Kernel& kernel() override { return k_; }
  uint64_t window_ops() const override { return kWindowOps; }

  Counters Read() override {
    Counters c = ReadKernel(k_);
    ReadNet(c, pool_, st_);
    for (const auto& lc : closed_) {
      for (ConnId id : {lc.cli, lc.srv}) {
        const StreamStats s = st_.Stats(id);
        c.seg_accepted += s.accepted_segments;
        c.seg_ooo += s.out_of_order;
      }
    }
    c.wouldblock = wouldblock_;
    return c;
  }

  bool Advance() override {
    Span s(tracer_, SpanKind::kRun);
    return k_.Run(kRunChunk) != 0;
  }

  void Finish() override {
    stop_ = true;
    {
      Span s(tracer_, SpanKind::kRun);
      k_.Run();
    }
    if (parked_.Size() != kClients) {
      log_.Fail("conn_churn: client threads did not all park");
    }
    for (const auto& lc : closed_) {
      if (st_.StateOf(lc.cli) != CcbLayout::kDone ||
          st_.StateOf(lc.srv) != CcbLayout::kDone) {
        log_.Fail("conn_churn: lifecycle on port " + std::to_string(lc.port) +
                  " did not end kDone");
      }
    }
    const Occupancy now = OccupancyOf(k_);
    if (!(now == baseline_)) {
      log_.Fail("conn_churn: occupancy " + Describe(now) +
                " != post-setup baseline " + Describe(baseline_));
    }
  }

  std::vector<Extra> Extras() override {
    const double bytes = static_cast<double>(k_.allocator().bytes_in_use()) +
                         static_cast<double>(k_.code().code_bytes());
    return {{"bytes_per_conn", bytes / static_cast<double>(pop_.size()), "B"},
            {"setup_listen_connect_s", ramp_open_s_, "s"}};
  }

 private:
  friend class Lifecycle;
  struct Ended {
    ConnId cli, srv;
    uint16_t port;
  };

  uint16_t TakePort() {
    const uint16_t p = free_ports_.front();
    free_ports_.pop_front();
    return p;
  }
  // The port goes to the back of the rotation: it is reused only after
  // every other rotation port, long after its close handshake has ended.
  void NoteClosed(ConnId cli, ConnId srv, uint16_t port) {
    closed_.push_back({cli, srv, port});
    free_ports_.push_back(port);
  }

  Kernel k_;
  IoSystem io_;
  NicPool pool_;
  StreamLayer st_;
  OpLog& log_;
  Tracer* tracer_;
  uint64_t seed_;
  std::vector<ConnId> pop_;
  std::deque<uint16_t> free_ports_;
  std::vector<Addr> bufs_;
  std::vector<Ended> closed_;
  Occupancy baseline_;
  // Client threads park here once stopped. An exiting thread would leave
  // its context-switch code behind (see README.md), so threads outlive the
  // phase and the occupancy check covers connection resources only.
  WaitQueue parked_;
  uint64_t wouldblock_ = 0;
  double ramp_open_s_ = 0;  // host time inside the ramp's Listen + Connect
  bool stop_ = false;
};

Lifecycle::Lifecycle(ConnChurn& w, uint32_t idx)
    : w_(w), rng_(MixSeed(w.seed_, 100 + idx)) {
  const Addr base = w.bufs_[idx];
  req_ = base;
  srv_rx_ = base + kMsgBytes;
  rep_ = base + 2 * kMsgBytes;
  cli_rx_ = base + 3 * kMsgBytes;
}

StepStatus Lifecycle::Pump(bool send, ConnId conn, Addr buf, bool* whole) {
  *whole = false;
  int32_t n;
  {
    Span s(w_.tracer_, send ? SpanKind::kSend : SpanKind::kRecv);
    n = send ? w_.st_.Send(conn, buf + off_, kMsgBytes - off_)
             : w_.st_.Recv(conn, buf + off_, kMsgBytes - off_);
  }
  if (n == kIoWouldBlock) {
    w_.wouldblock_++;
    return StepStatus::kBlocked;
  }
  if (n <= 0) {
    w_.log_.Fail(std::string("conn_churn: ") + (send ? "send" : "recv") +
                 " returned " + std::to_string(n));
    return StepStatus::kDone;
  }
  off_ += static_cast<uint32_t>(n);
  if (off_ == kMsgBytes) {
    off_ = 0;
    *whole = true;
  }
  return StepStatus::kYield;
}

StepStatus Lifecycle::Step(ThreadEnv& env) {
  Kernel& k = env.kernel;
  Memory& mem = k.machine().memory();
  StreamLayer& st = w_.st_;
  bool whole = false;
  StepStatus s = StepStatus::kYield;
  switch (phase_) {
    case Phase::kOpen: {
      if (w_.stop_) {
        k.BlockCurrentOn(w_.parked_);
        return StepStatus::kBlocked;
      }
      port_ = w_.TakePort();
      t0_ = k.NowUs();
      const StreamConfig cfg = StreamCfg();
      {
        Span sp(w_.tracer_, SpanKind::kListen);
        srv_ = st.Listen(port_, cfg);
      }
      {
        Span sp(w_.tracer_, SpanKind::kConnect);
        cli_ = st.Connect(port_, cfg);
      }
      if (srv_ == kBadConn || cli_ == kBadConn) {
        w_.log_.Fail("conn_churn: open failed on port " + std::to_string(port_));
        return StepStatus::kDone;
      }
      uint8_t req[kMsgBytes];
      for (uint32_t i = 0; i < kMsgBytes; i += 8) {
        const uint64_t r = rng_();
        std::memcpy(req + i, &r, 8);
      }
      mem.WriteBytes(req_, req, kMsgBytes);
      std::memcpy(expect_, req, kMsgBytes);
      phase_ = Phase::kSendReq;
      return StepStatus::kYield;
    }
    case Phase::kSendReq:
      s = Pump(true, cli_, req_, &whole);
      if (whole) phase_ = Phase::kRecvReq;
      return s;
    case Phase::kRecvReq: {
      s = Pump(false, srv_, srv_rx_, &whole);
      if (!whole) return s;
      uint8_t got[kMsgBytes];
      mem.ReadBytes(srv_rx_, got, kMsgBytes);
      corrupt_ = std::memcmp(got, expect_, kMsgBytes) != 0;
      // The reply is the request with every byte inverted, so a reply can
      // never pass for a looped-back request.
      for (uint32_t i = 0; i < kMsgBytes; i++) {
        got[i] = static_cast<uint8_t>(~got[i]);
        expect_[i] = static_cast<uint8_t>(~expect_[i]);
      }
      mem.WriteBytes(rep_, got, kMsgBytes);
      phase_ = Phase::kSendRep;
      return s;
    }
    case Phase::kSendRep:
      s = Pump(true, srv_, rep_, &whole);
      if (whole) phase_ = Phase::kRecvRep;
      return s;
    case Phase::kRecvRep: {
      s = Pump(false, cli_, cli_rx_, &whole);
      if (!whole) return s;
      uint8_t got[kMsgBytes];
      mem.ReadBytes(cli_rx_, got, kMsgBytes);
      corrupt_ = corrupt_ || std::memcmp(got, expect_, kMsgBytes) != 0;
      phase_ = Phase::kClose;
      return s;
    }
    case Phase::kClose: {
      bool ok;
      {
        Span sp(w_.tracer_, SpanKind::kClose);
        ok = st.Close(cli_);
      }
      {
        Span sp(w_.tracer_, SpanKind::kClose);
        ok = st.Close(srv_) && ok;
      }
      w_.NoteClosed(cli_, srv_, port_);
      if (!ok || corrupt_) {
        w_.log_.Fail("conn_churn: lifecycle on port " + std::to_string(port_) +
                     (ok ? ": request or reply bytes differ" : ": close refused"));
      } else {
        w_.log_.Complete(k.NowUs() - t0_, 2 * kMsgBytes);
      }
      phase_ = Phase::kOpen;
      return StepStatus::kYield;
    }
  }
  return s;
}

}  // namespace

std::unique_ptr<Workload> MakeConnChurn(uint64_t seed, OpLog& log,
                                        Tracer* tracer) {
  return std::make_unique<ConnChurn>(seed, log, tracer);
}

void PrintConnChurnConfig() {
  const NicPoolConfig p = PoolCfg();
  const StreamConfig s = StreamCfg();
  std::printf(
      "config pool nics=%u rx_slots=%u tx_slots=%u admission=%d "
      "shed_watermarks=%u/%u/%u\n",
      p.initial_nics, p.nic.rx_slots, p.nic.tx_slots, p.admission_control,
      p.shed_low_watermark, p.shed_high_watermark, p.shed_data_watermark);
  std::printf(
      "config stream window_segments=%u max_seg_data=%u ring_bytes=%u "
      "rto_base_us=%.0f max_retries=%u\n",
      s.window_segments, s.max_seg_data, s.ring_bytes, s.rto_base_us,
      s.max_retries);
  std::printf(
      "config conn_churn population_pairs=%u clients=%u msg_bytes=%u "
      "port_rotation=%u window_ops=%llu run_chunk=%llu\n",
      kPopulation, kClients, kMsgBytes, kPortRotation,
      static_cast<unsigned long long>(kWindowOps),
      static_cast<unsigned long long>(kRunChunk));
}

}  // namespace perfbench
