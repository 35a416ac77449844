// Stream echo over a lossy, reordering wire: the synthesized network stack
// end to end, reliability included.
//
// A NIC with a 10% drop / 20% reorder / 5% corruption wire loops transmitted
// frames back to its own receive side. A server thread echoes every byte it
// receives; a client thread writes sequence-numbered payloads down a stream
// channel and reads the echoes back. Unlike the old datagram version of this
// example, nobody hand-rolls a retransmit loop: the stream channel's in-kernel
// machinery — per-connection retransmission timers, exponential backoff,
// cumulative acks, fast retransmit — repairs the wire invisibly. Along the way:
//
//   - establishment re-synthesizes each connection's segment processor (the
//     peer port becomes an immediate compare, CCB fields absolute addresses,
//     the checksum inlined, the ring copy bulk),
//   - corrupted frames are rejected by the inlined checksum and counted,
//   - drops and reorders surface only as gauge ticks, never as data loss.
//
//   $ ./examples/net_echo
#include <cstdio>
#include <cstring>
#include <memory>

#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/net/stream.h"

using namespace synthesis;

namespace {

constexpr int kTotal = 25;
constexpr uint16_t kPort = 7;  // the echo port, naturally

// Echoes every byte that arrives back down the same connection; closes when
// the client closes.
class EchoServer : public UserProgram {
 public:
  EchoServer(StreamLayer& st, ConnId conn) : st_(st), conn_(conn) {}

  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(64);
    }
    if (held_ == 0) {
      int32_t n = st_.Recv(conn_, buf_, 64);
      if (n == kIoWouldBlock) {
        return StepStatus::kBlocked;
      }
      if (n <= 0) {  // end of stream (or failure): close our side
        st_.Close(conn_);
        return StepStatus::kDone;
      }
      held_ = n;
    }
    int32_t n = st_.Send(conn_, buf_, static_cast<uint32_t>(held_));
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;
    }
    if (n < 0) {
      return StepStatus::kDone;
    }
    held_ = 0;  // Send accepts everything it returns >= 0 for
    k.machine().Charge(40, 10, 0);
    return StepStatus::kYield;
  }

 private:
  StreamLayer& st_;
  ConnId conn_;
  Addr buf_ = 0;
  int32_t held_ = 0;
};

// Writes kTotal sequence-numbered words, reads the echo stream back, and
// reports each round trip. No timers, no backoff, no duplicate filtering:
// the channel owns reliability now.
class EchoClient : public UserProgram {
 public:
  EchoClient(IoSystem& io, StreamLayer& st, ConnId conn, int* echoed)
      : io_(io), st_(st), conn_(conn), echoed_(echoed) {}

  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    Memory& mem = k.machine().memory();
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(32);
    }
    // Drain echoes first: >= 1 ring byte available guarantees Recv will not
    // park this thread. Bytes come back in order — the stream repaired every
    // drop and reorder below us.
    while (io_.RingAvail(*st_.RingOf(conn_)) >= 1 || sent_ >= kTotal) {
      int32_t n = st_.Recv(conn_, buf_, 32);
      if (n == kIoWouldBlock) {
        return StepStatus::kBlocked;
      }
      if (n <= 0) {
        return StepStatus::kDone;
      }
      for (int32_t i = 0; i < n; i++) {
        acc_[acc_len_++] = static_cast<char>(mem.Read8(buf_ + i));
        if (acc_len_ == 4) {
          uint32_t seq;
          std::memcpy(&seq, acc_, 4);
          std::printf("  echo %2u after %7.0f us\n", seq, k.NowUs());
          acc_len_ = 0;
          if (++*echoed_ >= kTotal) {
            st_.Close(conn_);
            return StepStatus::kDone;
          }
        }
      }
    }
    if (sent_ < kTotal) {
      mem.Write32(buf_, static_cast<uint32_t>(sent_));
      int32_t n = st_.Send(conn_, buf_, 4);
      if (n == kIoWouldBlock) {
        return StepStatus::kBlocked;
      }
      if (n < 0) {
        return StepStatus::kDone;
      }
      sent_++;
    }
    k.machine().Charge(50, 10, 0);
    return StepStatus::kYield;
  }

 private:
  IoSystem& io_;
  StreamLayer& st_;
  ConnId conn_;
  int* echoed_;
  Addr buf_ = 0;
  int sent_ = 0;
  char acc_[4];
  int acc_len_ = 0;
};

}  // namespace

int main() {
  Kernel kernel;
  IoSystem io(kernel, nullptr);
  NicConfig nc;
  nc.drop_rate = 0.10;     // one frame in ten vanishes on the wire
  nc.reorder_rate = 0.20;  // one in five is overtaken by later frames
  nc.corrupt_rate = 0.05;  // one in twenty takes a flipped byte
  nc.fault_seed = 9;
  NicPoolConfig pc;
  pc.nic = nc;
  NicPool pool(kernel, pc);
  NicDevice& nic = pool.nic(0);
  StreamLayer st(kernel, io, pool);

  ConnId server = st.Listen(kPort);
  ConnId client = st.Connect(kPort);
  std::printf("listening on port %u; stream connection %u -> %u\n\n", kPort,
              client, server);

  int echoed = 0;
  kernel.CreateThread(std::make_unique<EchoServer>(st, server));
  kernel.CreateThread(std::make_unique<EchoClient>(io, st, client, &echoed));
  kernel.Run(20'000'000);

  StreamStats cs = st.Stats(client);
  std::printf("\nechoed %d/%d payloads in %.0f us of virtual time\n", echoed,
              kTotal, kernel.NowUs());
  std::printf("  synthesized segment processors: client block %u, server %u\n",
              st.SynthDeliverOf(client), st.SynthDeliverOf(server));
  std::printf("  retransmissions:     %llu  (timeouts %llu, fast %llu)\n",
              static_cast<unsigned long long>(st.retransmit_gauge().events()),
              static_cast<unsigned long long>(st.timeout_gauge().events()),
              static_cast<unsigned long long>(cs.fast_retransmits));
  std::printf("  duplicate acks:      %llu\n",
              static_cast<unsigned long long>(st.dup_ack_gauge().events()));
  std::printf("  out-of-order segs:   %llu\n",
              static_cast<unsigned long long>(st.ooo_gauge().events()));
  std::printf("  wire drops:          %llu\n",
              static_cast<unsigned long long>(nic.wire_drop_gauge().events()));
  std::printf("  wire reorders:       %llu\n",
              static_cast<unsigned long long>(
                  nic.wire_reorder_gauge().events()));
  std::printf("  checksum rejects:    %llu  (corrupted frames caught by the\n"
              "                             inlined checksum)\n",
              static_cast<unsigned long long>(nic.demux().csum_rejects()));
  std::printf("  frames demuxed:      %llu\n",
              static_cast<unsigned long long>(nic.rx_gauge().events()));
  bool closed = st.StateOf(client) == CcbLayout::kDone;
  return echoed == kTotal && closed ? 0 : 1;
}
