// stream_echo: closed-loop request/reply over a few long-lived stream pairs.
//
// One pair per NIC of the 8-NIC pool. Each client thread sends a request of
// seeded size (64 B to 2 KB, i.e. 1 to 8 segments of 256 B) and blocks in
// Recv until the whole echo is back; each server thread blocks in Recv and
// echoes what it got. op = one round trip. The work sits in the segment
// processor, checksum and copy, ring publish and the scheduler; there are
// only a few dozen binds, so synthesis is idle after set-up.
#include <cstdio>
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

constexpr uint32_t kMinMsg = 64;
constexpr uint32_t kMaxMsg = 2048;
constexpr uint64_t kWindowOps = 4000;
constexpr uint64_t kRunChunk = 16;  // slices per Advance

Kernel::Config KernelCfg() {
  Kernel::Config c;
  c.memory_bytes = 16 * 1024 * 1024;
  return c;
}

NicPoolConfig PoolCfg() {
  NicPoolConfig c;
  c.initial_nics = NicPool::kMaxNics;
  return c;
}

StreamConfig StreamCfg() { return StreamConfig(); }

// Per-pair state shared by its two threads.
struct Pair {
  ConnId srv = kBadConn, cli = kBadConn;
  Addr req = 0, cli_rx = 0, srv_buf = 0;
};

class StreamEcho;

class EchoClient : public UserProgram {
 public:
  EchoClient(StreamEcho& w, Pair& p, uint64_t seed) : w_(w), p_(p), rng_(seed) {}
  StepStatus Step(ThreadEnv& env) override;

 private:
  enum class Phase { kStart, kSend, kRecv };
  StreamEcho& w_;
  Pair& p_;
  std::mt19937_64 rng_;
  Phase phase_ = Phase::kStart;
  uint32_t size_ = 0, off_ = 0;
  std::vector<uint8_t> expect_;
  double t0_ = 0;
};

class EchoServer : public UserProgram {
 public:
  EchoServer(StreamEcho& w, Pair& p) : w_(w), p_(p) {}
  StepStatus Step(ThreadEnv& env) override;

 private:
  StreamEcho& w_;
  Pair& p_;
  bool sending_ = false;
  uint32_t pending_ = 0, off_ = 0;
};

class StreamEcho : public Workload {
 public:
  StreamEcho(uint64_t seed, OpLog& log, Tracer* tracer)
      : k_(KernelCfg()),
        io_(k_, nullptr),
        pool_(k_, PoolCfg()),
        st_(k_, io_, pool_),
        log_(log),
        tracer_(tracer),
        pairs_(pool_.size()) {
    // One service port per NIC, drawn from the seed among the ports the
    // steering hash sends to that NIC.
    std::mt19937_64 rng(MixSeed(seed, 2));
    std::uniform_int_distribution<uint32_t> port_dist(
        1024, StreamLayer::kEphemeralBase - 1);
    for (uint32_t nic = 0; nic < pool_.size(); nic++) {
      uint16_t port;
      do {
        port = static_cast<uint16_t>(port_dist(rng));
      } while (pool_.SteerOf(port) != nic || pool_.HasFlow(port));
      Pair& p = pairs_[nic];
      p.srv = st_.Listen(port, StreamCfg());
      p.cli = st_.Connect(port, StreamCfg());
      p.req = k_.allocator().Allocate(kMaxMsg);
      p.cli_rx = k_.allocator().Allocate(kMaxMsg);
      p.srv_buf = k_.allocator().Allocate(kMaxMsg);
    }
    k_.Run();
    for (const Pair& p : pairs_) {
      if (p.srv == kBadConn || p.cli == kBadConn ||
          st_.StateOf(p.srv) != CcbLayout::kEstablished ||
          st_.StateOf(p.cli) != CcbLayout::kEstablished) {
        log_.Fail("stream_echo: pair did not establish");
      }
    }
    for (uint32_t i = 0; i < pairs_.size(); i++) {
      k_.CreateThread(std::make_unique<EchoServer>(*this, pairs_[i]));
      k_.CreateThread(
          std::make_unique<EchoClient>(*this, pairs_[i], MixSeed(seed, 200 + i)));
    }
    baseline_ = OccupancyOf(k_);
  }

  Kernel& kernel() override { return k_; }
  uint64_t window_ops() const override { return kWindowOps; }

  Counters Read() override {
    Counters c = ReadKernel(k_);
    ReadNet(c, pool_, st_);
    for (const Pair& p : pairs_) {
      for (ConnId id : {p.cli, p.srv}) {
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
    if (parked_.Size() != pairs_.size()) {
      log_.Fail("stream_echo: client threads did not all park");
    }
    for (const Pair& p : pairs_) {
      if (st_.StateOf(p.srv) != CcbLayout::kEstablished ||
          st_.StateOf(p.cli) != CcbLayout::kEstablished) {
        log_.Fail("stream_echo: a long-lived pair left kEstablished");
      }
    }
    const Occupancy now = OccupancyOf(k_);
    if (!(now == baseline_)) {
      log_.Fail("stream_echo: occupancy " + Describe(now) +
                " != post-setup baseline " + Describe(baseline_));
    }
  }

 private:
  friend class EchoClient;
  friend class EchoServer;

  // Shared Send/Recv bookkeeping: a span, the would-block count, and error
  // returns turned into a failed op.
  int32_t Call(bool send, ConnId conn, Addr buf, uint32_t n) {
    int32_t r;
    {
      Span s(tracer_, send ? SpanKind::kSend : SpanKind::kRecv);
      r = send ? st_.Send(conn, buf, n) : st_.Recv(conn, buf, n);
    }
    if (r == kIoWouldBlock) {
      wouldblock_++;
    } else if (r <= 0) {
      log_.Fail(std::string("stream_echo: ") + (send ? "send" : "recv") +
                " returned " + std::to_string(r));
    }
    return r;
  }

  Kernel k_;
  IoSystem io_;
  NicPool pool_;
  StreamLayer st_;
  OpLog& log_;
  Tracer* tracer_;
  std::vector<Pair> pairs_;
  Occupancy baseline_;
  // Stopped clients park here; servers stay blocked in Recv. An exiting
  // thread would leave its context-switch code behind (see README.md), so
  // threads outlive the phase and the occupancy check covers the rest.
  WaitQueue parked_;
  uint64_t wouldblock_ = 0;
  bool stop_ = false;
};

StepStatus EchoClient::Step(ThreadEnv& env) {
  Kernel& k = env.kernel;
  Memory& mem = k.machine().memory();
  switch (phase_) {
    case Phase::kStart: {
      if (w_.stop_) {
        k.BlockCurrentOn(w_.parked_);
        return StepStatus::kBlocked;
      }
      size_ = std::uniform_int_distribution<uint32_t>(kMinMsg, kMaxMsg)(rng_);
      expect_.resize(size_);
      for (uint32_t i = 0; i < size_; i++) {
        expect_[i] = static_cast<uint8_t>(rng_());
      }
      mem.WriteBytes(p_.req, expect_.data(), size_);
      off_ = 0;
      t0_ = k.NowUs();
      phase_ = Phase::kSend;
      return StepStatus::kYield;
    }
    case Phase::kSend: {
      const int32_t n = w_.Call(true, p_.cli, p_.req + off_, size_ - off_);
      if (n == kIoWouldBlock) return StepStatus::kBlocked;
      if (n <= 0) return StepStatus::kDone;
      off_ += static_cast<uint32_t>(n);
      if (off_ == size_) {
        off_ = 0;
        phase_ = Phase::kRecv;
      }
      return StepStatus::kYield;
    }
    case Phase::kRecv: {
      const int32_t n = w_.Call(false, p_.cli, p_.cli_rx + off_, size_ - off_);
      if (n == kIoWouldBlock) return StepStatus::kBlocked;
      if (n <= 0) return StepStatus::kDone;
      off_ += static_cast<uint32_t>(n);
      if (off_ < size_) return StepStatus::kYield;
      std::vector<uint8_t> got(size_);
      mem.ReadBytes(p_.cli_rx, got.data(), size_);
      if (got != expect_) {
        w_.log_.Fail("stream_echo: echo differs from its request");
      } else {
        w_.log_.Complete(k.NowUs() - t0_, 2ull * size_);
      }
      phase_ = Phase::kStart;
      return StepStatus::kYield;
    }
  }
  return StepStatus::kDone;
}

StepStatus EchoServer::Step(ThreadEnv& env) {
  if (!sending_) {
    const int32_t n = w_.Call(false, p_.srv, p_.srv_buf, kMaxMsg);
    if (n == kIoWouldBlock) return StepStatus::kBlocked;
    if (n <= 0) return StepStatus::kDone;
    pending_ = static_cast<uint32_t>(n);
    off_ = 0;
    sending_ = true;
    return StepStatus::kYield;
  }
  const int32_t n = w_.Call(true, p_.srv, p_.srv_buf + off_, pending_ - off_);
  if (n == kIoWouldBlock) return StepStatus::kBlocked;
  if (n <= 0) return StepStatus::kDone;
  off_ += static_cast<uint32_t>(n);
  sending_ = off_ < pending_;
  return StepStatus::kYield;
}

}  // namespace

std::unique_ptr<Workload> MakeStreamEcho(uint64_t seed, OpLog& log,
                                         Tracer* tracer) {
  return std::make_unique<StreamEcho>(seed, log, tracer);
}

void PrintStreamEchoConfig() {
  const NicPoolConfig p = PoolCfg();
  const StreamConfig s = StreamCfg();
  std::printf("config pool nics=%u rx_slots=%u tx_slots=%u admission=%d\n",
              p.initial_nics, p.nic.rx_slots, p.nic.tx_slots,
              p.admission_control);
  std::printf(
      "config stream window_segments=%u max_seg_data=%u ring_bytes=%u "
      "rto_base_us=%.0f max_retries=%u\n",
      s.window_segments, s.max_seg_data, s.ring_bytes, s.rto_base_us,
      s.max_retries);
  std::printf(
      "config stream_echo pairs=%u msg_bytes=%u..%u window_ops=%llu "
      "run_chunk=%llu\n",
      p.initial_nics, kMinMsg, kMaxMsg,
      static_cast<unsigned long long>(kWindowOps),
      static_cast<unsigned long long>(kRunChunk));
}

}  // namespace perfbench
