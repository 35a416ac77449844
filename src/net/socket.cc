#include "src/net/socket.h"

#include <algorithm>
#include <string>
#include <vector>

namespace synthesis {

namespace {
// Ring capacity per bound socket: a few max-size datagrams' worth.
constexpr uint32_t kSocketRingBytes = 4096;
}  // namespace

DatagramSocketLayer::DatagramSocketLayer(Kernel& kernel, IoSystem& io,
                                         NicPool& pool)
    : kernel_(kernel), io_(io), pool_(pool) {
  scratch_ = kernel_.allocator().Allocate(FrameLayout::kMaxPayload + 16);
}

DatagramSocketLayer::Sock* DatagramSocketLayer::Get(SocketId sock) {
  auto it = socks_.find(sock);
  return it == socks_.end() ? nullptr : &it->second;
}

SocketId DatagramSocketLayer::Socket() {
  SocketId id = next_id_++;
  socks_[id] = Sock{};
  kernel_.machine().Charge(24, 6, 2);  // socket-table slot
  return id;
}

bool DatagramSocketLayer::BindInternal(Sock& s, uint16_t port,
                                       uint32_t fixed_len) {
  if (port == 0 || pool_.HasFlow(port)) {
    return false;
  }
  std::shared_ptr<RingHost> ring = io_.MakeRing(kSocketRingBytes);
  if (ring->base == 0) {
    return false;  // allocator failure (e.g. injected): nothing acquired yet
  }
  const std::string path = "/net/udp/" + std::to_string(port);
  io_.RegisterRingDevice(path, ring, nullptr);
  ChannelId ch = io_.Open(path);  // synthesizes the per-channel ring read
  FlowSpec flow;
  flow.port = port;
  flow.ring = ring;
  flow.fixed_len = fixed_len;
  if (ch == kBadChannel || !pool_.BindFlow(std::move(flow))) {
    if (ch != kBadChannel) {
      io_.Close(ch);
    }
    io_.UnregisterRingDevice(path);
    kernel_.allocator().Free(ring->base);
    return false;
  }
  s.port = port;
  s.ch = ch;
  s.ring = std::move(ring);
  return true;
}

bool DatagramSocketLayer::Bind(SocketId sock, uint16_t port, uint32_t fixed_len) {
  Sock* s = Get(sock);
  if (s == nullptr || s->port != 0) {
    return false;
  }
  return BindInternal(*s, port, fixed_len);
}

// One wrapping pass over [kEphemeralBase, 65535]: past 65535 the search
// continues at the base, never down into the well-known ports. Returns 0
// when every candidate port already has a flow.
uint16_t DatagramSocketLayer::AllocateEphemeral() {
  const uint32_t span = 65536u - kEphemeralBase;
  for (uint32_t i = 0; i < span; i++) {
    uint16_t p = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ == 65535 ? kEphemeralBase : next_ephemeral_ + 1;
    if (!pool_.HasFlow(p)) {
      return p;
    }
  }
  return 0;
}

int32_t DatagramSocketLayer::SendTo(SocketId sock, uint16_t dst_port, Addr buf,
                                    uint32_t n) {
  Sock* s = Get(sock);
  if (s == nullptr || n > FrameLayout::kMaxPayload) {
    return kIoError;
  }
  if (s->port == 0) {
    // Auto-bind an ephemeral source port so replies have somewhere to land.
    uint16_t p = AllocateEphemeral();
    if (p == 0 || !BindInternal(*s, p, 0)) {
      return kIoError;
    }
  }
  // Zero-copy: the gather transmit writes the user bytes straight into the
  // TX descriptor slot, so the old user->driver staging vector (and its
  // word-copy charge) is gone — the descriptor write is charged in TransmitV.
  SendSpan span{n > 0 ? kernel_.machine().memory().raw(buf) : nullptr, n};
  if (!pool_.TransmitV(dst_port, s->port, &span, 1)) {
    if (kernel_.current_thread() != kNoThread) {
      kernel_.BlockCurrentOn(pool_.tx_waiters(dst_port));
    }
    return kIoWouldBlock;
  }
  return static_cast<int32_t>(n);
}

int32_t DatagramSocketLayer::RecvFrom(SocketId sock, Addr buf, uint32_t cap,
                                      uint32_t* src_port) {
  Sock* s = Get(sock);
  if (s == nullptr || s->port == 0) {
    return kIoError;
  }
  // The demux inserts records atomically (it runs at interrupt level), so a
  // non-empty ring always holds at least one complete record.
  int32_t got = io_.Read(s->ch, scratch_, 4);
  if (got == kIoWouldBlock || got == kIoError) {
    return got;  // io.Read already parked the current thread on would-block
  }
  Memory& mem = kernel_.machine().memory();
  uint32_t len = mem.Read8(scratch_) | (mem.Read8(scratch_ + 1) << 8);
  uint32_t src = mem.Read8(scratch_ + 2) | (mem.Read8(scratch_ + 3) << 8);
  if (src_port != nullptr) {
    *src_port = src;
  }
  uint32_t keep = std::min(len, cap);
  if (len > 0) {
    Addr land = keep == len ? buf : scratch_;
    if (io_.Read(s->ch, land, len) != static_cast<int32_t>(len)) {
      return kIoError;  // ring corrupted; cannot happen with intact records
    }
    if (keep != len && keep > 0) {
      mem.WriteBytes(buf, mem.raw(scratch_), keep);  // truncate to cap
      kernel_.machine().Charge(keep / 2, keep / 4, keep / 4);
    }
  }
  return static_cast<int32_t>(keep);
}

bool DatagramSocketLayer::CloseSocket(SocketId sock) {
  Sock* s = Get(sock);
  if (s == nullptr) {
    return false;
  }
  if (s->port != 0) {
    pool_.UnbindFlow(s->port);
    io_.UnregisterRingDevice("/net/udp/" + std::to_string(s->port));
    io_.Close(s->ch);
    kernel_.UnblockAll(s->ring->readers);
    kernel_.UnblockAll(s->ring->writers);
    kernel_.allocator().Free(s->ring->base);
  }
  socks_.erase(sock);
  return true;
}

uint16_t DatagramSocketLayer::PortOf(SocketId sock) const {
  auto it = socks_.find(sock);
  return it == socks_.end() ? 0 : it->second.port;
}

std::shared_ptr<RingHost> DatagramSocketLayer::RingOf(SocketId sock) const {
  auto it = socks_.find(sock);
  return it == socks_.end() ? nullptr : it->second.ring;
}

}  // namespace synthesis
