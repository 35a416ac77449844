// Datagram sockets over the synthesized network stack (§5, Table 2's UNIX
// surface). A bound socket is a flow: binding allocates a byte ring, registers
// it as a ring device in the I/O system (so open() synthesizes the per-channel
// read code), and binds the port on the NIC pool (whose steering hash picks
// the owning device, where the flow's deliver block lands in the demux's
// cell table). Receive therefore runs:
// NIC RX interrupt -> steering -> specialized demux (delivery record pushed
// into the ring) -> the channel's synthesized ring read.
//
// Records in the ring are [len.lo len.hi src.lo src.hi payload...]; delivery
// is atomic with respect to threads because the demux runs at interrupt level.
#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/io/io_system.h"
#include "src/net/nic_pool.h"

namespace synthesis {

using SocketId = uint32_t;
inline constexpr SocketId kBadSocket = 0;

class DatagramSocketLayer {
 public:
  // Auto-bind draws from [kEphemeralBase, 65535], wrapping back to the base.
  static constexpr uint16_t kEphemeralBase = 49152;

  DatagramSocketLayer(Kernel& kernel, IoSystem& io, NicPool& pool);

  SocketId Socket();
  // Binds `port` and synthesizes the receive path. `fixed_len` > 0 declares a
  // fixed datagram size (folded into the demux). Fails on a taken port.
  bool Bind(SocketId sock, uint16_t port, uint32_t fixed_len = 0);
  // Sends `n` bytes at `buf` (simulated memory) to `dst_port`. An unbound
  // socket is auto-bound to an ephemeral port first. Returns n, or
  // kIoWouldBlock with the current thread parked when all TX slots are busy.
  int32_t SendTo(SocketId sock, uint16_t dst_port, Addr buf, uint32_t n);
  // Receives one datagram into `buf` (at most `cap` bytes; excess is
  // truncated). Returns the stored byte count, kIoWouldBlock with the current
  // thread parked when no datagram is queued, or kIoError.
  int32_t RecvFrom(SocketId sock, Addr buf, uint32_t cap,
                   uint32_t* src_port = nullptr);
  bool CloseSocket(SocketId sock);

  uint16_t PortOf(SocketId sock) const;
  // The bound socket's receive ring (null when unbound) — pollable via
  // IoSystem::RingAvail for non-blocking clients.
  std::shared_ptr<RingHost> RingOf(SocketId sock) const;

 private:
  struct Sock {
    uint16_t port = 0;  // 0 = unbound
    ChannelId ch = kBadChannel;
    std::shared_ptr<RingHost> ring;
  };

  Sock* Get(SocketId sock);
  bool BindInternal(Sock& s, uint16_t port, uint32_t fixed_len);
  uint16_t AllocateEphemeral();

  Kernel& kernel_;
  IoSystem& io_;
  NicPool& pool_;
  std::map<SocketId, Sock> socks_;
  SocketId next_id_ = 1;
  uint16_t next_ephemeral_ = kEphemeralBase;
  Addr scratch_ = 0;  // header/overflow staging for RecvFrom
};

}  // namespace synthesis

#endif  // SRC_NET_SOCKET_H_
