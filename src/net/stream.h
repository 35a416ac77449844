// Reliable stream channels over the synthesized network stack (§5 taken to
// its conclusion: a TCP-like protocol whose per-connection receive path is
// synthesized code).
//
// A connection is a quaject: a connection control block (CCB) in simulated
// memory, a byte ring RecvSpan drains (the UNIX emulator's stream fds call
// RecvSpan/Send directly; no I/O channel sits in between), and a
// per-connection *segment processor* the packet demux jumps to. Like the
// demux itself, the processor exists twice:
//
//  * The GENERIC processor is one shared interpreted routine: it chases the
//    flow-table entry to the CCB, reloads every connection variable through
//    pointers, and delivers payload bytes through the generic one-call-per-
//    byte ring put. This is the layered-kernel baseline.
//
//  * The SYNTHESIZED processor is re-emitted per connection at establishment,
//    when the peer becomes a connection-lifetime invariant: the peer port is
//    a compare-with-immediate, every CCB field is an absolute address, the
//    checksum is inlined (Collapsing Layers), and the ring geometry is folded
//    into a bulk copy that publishes the producer index once (Factoring
//    Invariants). Sequence/ack processing, duplicate-ack and out-of-order
//    accounting all run at interrupt level in synthesized code. The
//    processor's shapes are each optimized once per NIC (Synthesizer::
//    Prepare); a connection's processor is a copy of its shape with the
//    connection's port, peer, CCB and ring values patched in, equal to what
//    the full optimizer would emit for them.
//
// Both processors are rungs of the kernel-wide Specializer's tier ladder
// (specializer.h): each connection registers a handle whose emit callback
// re-builds the processor at a requested tier and whose install callback
// rebinds the flow. kGeneric is the shared walk, kSpecialized the per-
// connection processor above, and kHot a deeper re-fold earned by delivery
// heat: when the payload run is contiguous in the ring (no wrap), the copy
// runs word-wide instead of byte-wide — about a quarter of the per-byte
// loop's path length on bulk segments. The adaptation sweep promotes hot
// flows, demotes flows that go cold (releasing their blocks through deferred
// retirement), and retries degraded ones; all the old ad-hoc resynthesis
// entry points now route through Promote/Demote/Retire.
//
// The keepalive probe send is also synthesized per connection: a stub that
// stages the probe header from the CCB's folded sequence fields and traps to
// the transmit half, chained from the sweep interrupt (§3.1) instead of
// being assembled host-side every probe.
//
// Connections live on a NicPool: the pool's steering stage hashes the local
// port to the owning NIC, so the flow (and its processors) bind on that
// device's demux. The processors themselves are NIC-agnostic — CCB-absolute
// addresses care nothing for which descriptor ring the frame arrived in.
//
// Reliability is split across the boundary: the in-kernel processors advance
// snd_una/rcv_nxt and record events; the host half (this class) runs from the
// RX-done trap and the alarm interrupt — sliding send window, cumulative-ack
// pruning, retransmission on a per-connection timeout with exponential
// backoff, fast retransmit on triple duplicate acks, and graceful degradation
// (the window halves per timeout, the timeout doubles) under sustained loss.
// A connection that exhausts its retry cap fails gracefully: the error
// surfaces through Send/Recv, gauges record it, the port is unbound and all
// parked threads are released — no wedged rings.
//
// Teardown reclaims everything synthesis created: the segment processor and
// alarm stub go back to the code store (deferred until no executor can touch
// them; the stub waits out any alarm already in flight), the CCB and ring
// return to the allocator, and the host record keeps only a stats snapshot.
//
// Segment format, inside a datagram frame's payload:
//   [seq u32][ack u32][flags u32][data...]
// SYN and FIN each occupy one sequence number. Both sides number from
// StreamConfig::initial_seq (default 0), and all sequence/ack comparisons use
// serial-number arithmetic, so a stream crosses the 2^32 wrap transparently.
#ifndef SRC_NET_STREAM_H_
#define SRC_NET_STREAM_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/io/gauge.h"
#include "src/io/io_system.h"
#include "src/io/iovec.h"
#include "src/net/nic_pool.h"

namespace synthesis {

using ConnId = uint32_t;
inline constexpr ConnId kBadConn = 0;

// Serial-number comparisons (sequence space is a 2^32 ring): "a after b" is
// the sign of the 32-bit difference, valid while the two stay within 2^31.
inline bool SeqGt(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) > 0;
}
inline bool SeqGeq(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) >= 0;
}
inline bool SeqLt(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) < 0;
}
inline bool SeqLeq(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) <= 0;
}

// Segment header layout, relative to the frame payload base.
struct StreamSeg {
  static constexpr uint32_t kSeq = 0;
  static constexpr uint32_t kAck = 4;
  static constexpr uint32_t kFlags = 8;
  static constexpr uint32_t kHdrBytes = 12;

  static constexpr uint32_t kFlagSyn = 1;
  static constexpr uint32_t kFlagAck = 2;
  static constexpr uint32_t kFlagFin = 4;
  static constexpr uint32_t kFlagRst = 8;
};

// The connection control block, in simulated memory: the shared state between
// the in-kernel segment processors and the host protocol half.
struct CcbLayout {
  static constexpr uint32_t kState = 0;
  static constexpr uint32_t kPeer = 4;       // peer port (0 until known)
  static constexpr uint32_t kSndUna = 8;     // oldest unacknowledged seq
  static constexpr uint32_t kSndNxt = 12;    // next seq to be assigned
  static constexpr uint32_t kRcvNxt = 16;    // next expected in-order seq
  static constexpr uint32_t kEvents = 20;    // processor -> host event bits
  static constexpr uint32_t kLastFrame = 24; // frame addr of the last segment
  static constexpr uint32_t kDupAcks = 28;   // duplicate-ack counter
  static constexpr uint32_t kOoo = 32;       // out-of-order segment counter
  static constexpr uint32_t kAccepted = 36;  // in-order data segments taken
  static constexpr uint32_t kBytes = 40;

  // kState values.
  static constexpr uint32_t kClosed = 0;
  static constexpr uint32_t kListen = 1;
  static constexpr uint32_t kSynSent = 2;
  static constexpr uint32_t kEstablished = 3;
  static constexpr uint32_t kFinSent = 4;
  static constexpr uint32_t kDone = 5;
  static constexpr uint32_t kFailed = 6;

  // kEvents bits.
  static constexpr uint32_t kEvData = 1;        // in-order data accepted
  static constexpr uint32_t kEvAckAdvance = 2;  // snd_una moved
  static constexpr uint32_t kEvDupAck = 4;
  static constexpr uint32_t kEvOoo = 8;         // out-of-order / dup data
  static constexpr uint32_t kEvCtrl = 16;       // SYN/FIN/RST or pre-establish
  static constexpr uint32_t kEvRingFull = 32;   // receive ring had no room
  static constexpr uint32_t kEvBadSeg = 64;     // wrong peer
};

struct StreamConfig {
  uint32_t window_segments = 8;  // send window, in segments (the cwnd cap)
  uint32_t max_seg_data = 256;   // data bytes per segment
  // The initial retransmission timeout, fixed (no RTT estimator). Segment
  // service time on the simulated machine is ~1ms (checksum + per-byte ring
  // copy at 68020 speed), so this is only about four service times, and a
  // burst of four or more 256 B segments already outlives it on a clean
  // wire: a frame is delivered a wire latency after its TX-completion
  // interrupt is serviced, and interrupts do not nest, so the receiver's
  // acks for the burst reach the sender after this alarm and it goes back N
  // (ROADMAP records the measurements).
  double rto_base_us = 4000.0;
  double rto_cap_us = 64000.0;   // backoff ceiling
  uint32_t max_retries = 8;      // per-segment; exceeded => connection fails
  uint32_t ring_bytes = 4096;    // receive ring capacity (power of two)
  uint32_t initial_seq = 0;      // first sequence number this side assigns
  // Idle-connection reaper. 0 disables (the default — a quiet connection is
  // not an error). When set, a connection that has delivered nothing for
  // keepalive_idle_us is probed with a 1-byte segment from already-acked
  // sequence space every sweep (the peer re-acks it without consuming
  // anything); keepalive_probes consecutive unanswered probes reap the
  // connection through the normal failure path, returning its CCB, ring and
  // code-store blocks. Probing happens only while nothing is in flight — an
  // outstanding window already has the retransmit timer watching the peer.
  double keepalive_idle_us = 0;
  double keepalive_interval_us = 10000.0;  // sweep cadence while enabled
  uint32_t keepalive_probes = 3;
  // Exponential idle backoff: every answered probe round doubles the idle
  // period a healthy-but-quiet connection must sit out before the next
  // probe, up to keepalive_idle_us * keepalive_backoff_max; any real traffic
  // (data, control, an ack advance) resets the backoff to 1. Dead peers are
  // unaffected — unanswered probes never stretch the period, so the reap
  // deadline stays keepalive_probes sweeps. 1 disables (probe every idle
  // period forever, the old behavior).
  uint32_t keepalive_backoff_max = 8;
};

// Per-connection robustness counters: host events plus the CCB counters the
// in-kernel processors maintain.
struct StreamStats {
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t fast_retransmits = 0;
  uint64_t dup_acks = 0;
  uint64_t out_of_order = 0;
  uint64_t accepted_segments = 0;
  double rto_us = 0;
  uint32_t cwnd = 0;
  uint32_t state = CcbLayout::kClosed;
  uint32_t rcv_nxt = 0;  // survives reclamation (the CCB itself does not)
};

// The segment processor's three template shapes. Each is optimized once per
// NIC (Synthesizer::Prepare) and instantiated per connection by copying the
// prepared code and patching its per-connection holes.
enum class ProcShape : uint8_t { kPreEstablish, kEstablished, kHot };
CodeTemplate SegmentProcessorTemplate(ProcShape shape);
// The per-connection holes of every shape, in instance-value order; the rest
// ("csum", "ctr_mal", "ctr_csum") belong to the owning NIC's demux.
const std::vector<std::string>& SegmentProcessorHoles();

class StreamLayer {
 public:
  // The ephemeral range Connect() draws from: [kEphemeralBase, 65535],
  // wrapping back to the base, skipping bound flows and live connections.
  static constexpr uint16_t kEphemeralBase = 40000;

  StreamLayer(Kernel& kernel, IoSystem& io, NicPool& pool);
  ~StreamLayer();

  // Opens a passive connection on `port` (one peer; the first SYN wins).
  ConnId Listen(uint16_t port, StreamConfig cfg = StreamConfig());
  // Opens an active connection to `dst_port` from an ephemeral local port and
  // sends the SYN. Establishment completes asynchronously; Send/Recv work
  // immediately (data flows once the handshake lands). Returns kBadConn when
  // the ephemeral range is exhausted.
  ConnId Connect(uint16_t dst_port, StreamConfig cfg = StreamConfig());

  // Queues up to `n` bytes at `buf` (simulated memory) for transmission.
  // Returns the byte count accepted, kIoWouldBlock with the current thread
  // parked when the send buffer is full, or kIoError on a failed connection.
  int32_t Send(ConnId conn, Addr buf, uint32_t n);
  // Gathering send: queues the iovecs in order as one logical byte stream,
  // borrowing each piece straight from simulated memory (no per-element
  // temporary), then pushes the window once. Send is implemented on top of
  // this. Semantics match Send: bytes accepted, kIoWouldBlock (thread
  // parked) when the send buffer — or the TX ring below it — is full,
  // kIoError on a failed connection.
  int32_t Sendv(ConnId conn, const IoVec* iov, uint32_t iovcnt);
  // Reads up to `cap` in-order bytes into `buf`. Returns the byte count,
  // 0 at end of stream (peer FIN, everything drained), kIoWouldBlock with
  // the current thread parked when no data is queued, or kIoError.
  int32_t Recv(ConnId conn, Addr buf, uint32_t cap);
  // The zero-copy receive: drains the connection ring through contiguous
  // span borrows (RingPeekSpan/RingConsumeSpan) with one bulk copy per span
  // instead of a per-byte ring round trip. Recv is implemented on top of
  // this, so every reader gets the fast path.
  int32_t RecvSpan(ConnId conn, Addr buf, uint32_t cap);
  // Queues a FIN after all pending data; the connection reaches kDone once
  // both directions have closed and every segment is acknowledged, at which
  // point its kernel resources (processors, alarm stub, CCB, ring) are
  // reclaimed.
  bool Close(ConnId conn);

  StreamStats Stats(ConnId conn) const;
  uint32_t StateOf(ConnId conn) const;
  uint16_t PortOf(ConnId conn) const;
  Addr CcbOf(ConnId conn) const;
  std::shared_ptr<RingHost> RingOf(ConnId conn) const;
  // The current synthesized segment processor (re-emitted at establishment;
  // kInvalidBlock once the connection is reclaimed). For a degraded
  // connection this is the owning demux's shared generic walk.
  BlockId SynthDeliverOf(ConnId conn) const;
  // The connection's Specializer handle (kBadSpec once reclaimed): tests and
  // benches read tier/heat through Kernel::spec() with it.
  SpecId SpecOf(ConnId conn) const;
  // Whether the connection is running on the generic interpreted path because
  // a code-store install was refused (capacity or injected fault): the
  // Specializer's DegradedOf for its handle (kept in the post-mortem record
  // once reclaimed). The stream sweep, or the kernel's AdaptNow, promotes it
  // once the store has room again.
  bool DegradedOf(ConnId conn) const;
  // The shared interpreted segment processor (the baseline the benches run),
  // bound to the given NIC's demux helpers. Installed lazily, once per NIC.
  BlockId GenericProcFor(uint32_t nic_idx);
  BlockId generic_processor() { return GenericProcFor(0); }

  // Aggregate robustness gauges across all connections.
  Gauge& retransmit_gauge() { return retransmit_gauge_; }
  Gauge& timeout_gauge() { return timeout_gauge_; }
  Gauge& dup_ack_gauge() { return dup_ack_gauge_; }
  Gauge& ooo_gauge() { return ooo_gauge_; }
  Gauge& failed_gauge() { return failed_gauge_; }
  // Connect/Listen attempts that failed during resource construction (an
  // allocator failure — the truly-unrecoverable case) and were rolled back
  // without leaking.
  Gauge& open_fail_gauge() { return open_fail_gauge_; }
  // Degradation ladder gauges: processors that fell back to the generic
  // interpreted path when a code-store install was refused, and degraded
  // connections later promoted back to synthesized code by the sweep.
  Gauge& synth_fallback_gauge() { return synth_fallback_gauge_; }
  Gauge& resynth_gauge() { return resynth_gauge_; }
  // Reaper gauges: keepalive probes sent, and connections reaped dead.
  Gauge& keepalive_probe_gauge() { return keepalive_probe_gauge_; }
  Gauge& reaped_gauge() { return reaped_gauge_; }
  // Segments that found the TX ring full. None are lost anymore: data-path
  // segments stay on unacked/pending for the drain replay, pure ACKs and
  // window pushes are marked deferred and replayed from the pool's TX drain
  // hook the moment a slot frees.
  Gauge& tx_full_drops_gauge() { return tx_full_drops_gauge_; }

  // Test hooks: steer the ephemeral allocator to a specific starting point
  // (still clamped into the ephemeral range) and arm a connection's timer as
  // if a segment had just been sent.
  void set_next_ephemeral(uint16_t p) {
    next_ephemeral_ = p < eph_base_ ? eph_base_ : p;
  }
  void ArmTimerForTest(ConnId conn);
  // Narrows the ephemeral range (inclusive bounds) so exhaustion is reachable
  // without tens of thousands of connections.
  void set_ephemeral_range_for_test(uint16_t lo, uint16_t hi);
  // Runs one reaper/re-synthesis sweep synchronously (tests drive the sweep
  // without waiting out the alarm cadence).
  void SweepNowForTest() { SweepTick(); }

 private:
  // One in-flight segment: its assigned sequence number, payload, and flags.
  // SYN/FIN segments span one sequence number; data segments span their size.
  // `owed` marks a segment still to be put on the wire: set when it is queued
  // or scheduled for resend, cleared when TransmitSeg succeeds. `sent` records
  // that it left at least once, so any later send of it is a retransmit.
  struct Seg {
    uint32_t seq = 0;
    uint32_t flags = 0;
    bool owed = true;
    bool sent = false;
    std::vector<uint8_t> data;
    uint32_t Span() const {
      return static_cast<uint32_t>(data.size()) +
             ((flags & (StreamSeg::kFlagSyn | StreamSeg::kFlagFin)) ? 1 : 0);
    }
  };

  // A reclaimed connection's post-mortem record: what the accessors still
  // answer once its kernel resources are gone. ReclaimConn fills it; the
  // next Listen/Connect compacts the full Conn down to an EndedSlot. The
  // host counters narrow with saturation; the CCB counters are 32-bit words
  // already.
  struct Ended {
    double rto_us = 0;
    uint32_t retransmits = 0;
    uint32_t timeouts = 0;
    uint32_t fast_retransmits = 0;
    uint32_t dup_acks = 0;
    uint32_t out_of_order = 0;
    uint32_t accepted_segments = 0;
    uint32_t rcv_nxt = 0;
    uint32_t cwnd = 0;
    uint16_t local_port = 0;
    uint8_t state = CcbLayout::kClosed;  // kClosed: no record (live or never)
    bool degraded = false;

    StreamStats Stats() const;  // widened back
  };
  static_assert(sizeof(Ended) <= 48, "a full post-mortem record costs <= 48 bytes");

  // What a compacted connection keeps per ConnId ever opened. A connection
  // that ended clean (no retransmit, timeout, fast retransmit, dup ack or
  // out-of-order segment, not degraded, and rcv_nxt and accepted_segments
  // below 2^16) keeps only what differs between such connections: its
  // (rto_us, cwnd) pair is an index into the short table ended_senders_. Any
  // other connection, or one arriving when that table is full, keeps its full
  // record in ended_full_, and its slot only its port and state. A slot is
  // kept for every ConnId, so its size is the stream layer's host memory per
  // connection lifecycle.
  static constexpr uint8_t kFullRecord = 0xff;
  struct EndedSlot {
    uint16_t rcv_nxt = 0;
    uint16_t accepted_segments = 0;
    uint16_t local_port = 0;
    uint8_t state = CcbLayout::kClosed;  // kClosed: no record (live or never)
    uint8_t sender = kFullRecord;        // index into ended_senders_
  };
  static_assert(sizeof(EndedSlot) == 8, "a compacted connection costs 8 bytes");
  struct EndedSender {
    double rto_us = 0;
    uint32_t cwnd = 0;
  };

  struct Conn {
    ConnId id = 0;
    StreamConfig cfg;
    uint16_t local_port = 0;
    uint16_t peer_port = 0;
    uint32_t state = CcbLayout::kClosed;  // host mirror of CCB kState
    Addr ccb = 0;
    std::shared_ptr<RingHost> ring;
    BlockId alarm_stub = kInvalidBlock;
    // Specializer handles behind this connection's synthesized code: the
    // segment processor (generic/specialized/hot ladder) and the keepalive
    // probe stub. The Specializer holds their active blocks and degradation;
    // read them there.
    SpecId spec = kBadSpec;
    SpecId probe_spec = kBadSpec;
    uint32_t synth_gen = 0;  // uniquifies re-synthesized processor names

    uint32_t iss = 0;              // initial send sequence number
    uint32_t snd_nxt = 0;          // next sequence number to assign
    // Vectors, not deques: an empty one allocates nothing, and most live
    // connections are idle. Both stay short (unacked holds at most cwnd
    // segments, pending at most a window of bytes), so erasing from the
    // front is cheap.
    std::vector<Seg> unacked;      // in flight, oldest first
    std::vector<uint8_t> pending;  // accepted by Send, not yet segmented
    bool fin_queued = false;
    bool fin_sent = false;
    bool fin_received = false;

    uint32_t cwnd = 0;
    double rto_us = 0;
    uint32_t retries = 0;          // consecutive timeouts on the front segment
    uint64_t timer_deadline_ticks = 0;  // integer microseconds (see ArmTimer)
    bool timer_armed = false;
    uint32_t alarms_pending = 0;   // alarms raised, not yet dispatched
    uint32_t dup_base = 0;         // dup-ack count at the last fast retransmit
    uint64_t last_activity_ticks = 0;  // last delivered frame (reaper clock)
    uint32_t probes_sent = 0;      // unanswered keepalive probes
    uint32_t idle_backoff = 1;     // answered-probe idle multiplier (capped)
    // The per-connection probe clock: the tick at which this CCB next wants
    // a keepalive probe. Activity pushes it out by idle * backoff; a sent
    // probe by the connection's own interval — so each connection counts
    // down on its own clock and a chatty neighbor's tight cadence never
    // drives anyone else's probe or reap rate.
    uint64_t next_probe_ticks = 0;
    // TX-ring-full deferrals, replayed from the drain hook: a pure ACK owed
    // (ack_deferred, cleared by any segment that leaves, since each carries
    // the current ack) and/or segments whose transmit was cut short
    // (wnd_deferred — the segments themselves sit on unacked, marked owed,
    // or on pending).
    bool ack_deferred = false;
    bool wnd_deferred = false;

    bool reclaimed = false;  // kernel resources returned; `ended` answers
    Ended ended;

    WaitQueue senders;
    uint64_t retransmits = 0;
    uint64_t timeouts = 0;
    uint64_t fast_retransmits = 0;
  };

  Conn* Get(ConnId id);
  const Conn* Get(ConnId id) const;
  // The compacted record of `id`, rebuilt; nullopt when it has none.
  std::optional<Ended> EndedOf(ConnId id) const;
  // Compacts reclaimed records whose last alarm has landed into ended_. Runs
  // only at the top of NewConn, where no Conn reference is live.
  void CompactReclaimed();
  ConnId NewConn(uint16_t local_port, uint16_t peer_port, uint32_t state,
                 const StreamConfig& cfg);
  void SetState(Conn& c, uint32_t state);
  const PreparedTemplate& PreparedProcFor(uint32_t nic_idx, ProcShape shape);
  BlockId BuildSynthDeliver(const Conn& c, SpecTier tier);
  // The segment processor's wiring (its install hook, and once after
  // Register): rebinds the flow to the active block and counts the ladder
  // gauges by why the block moved.
  void InstallDeliver(ConnId id, SpecInstall why);
  uint16_t AllocateEphemeral();

  bool TransmitSeg(Conn& c, Seg& seg);
  bool SendOwed(Conn& c);
  void SendAck(Conn& c);
  void PushWindow(Conn& c);
  void DeferAck(Conn& c);
  void DeferWindow(Conn& c);
  void OnTxDrain();
  void ArmTimer(Conn& c);
  void OnTimer(ConnId id);
  void OnDeliver(ConnId id);
  void HandleCtrl(Conn& c);
  void Establish(Conn& c, uint16_t peer, uint32_t peer_seq);
  void HandleAckAdvance(Conn& c);
  void Fail(Conn& c);
  void Finish(Conn& c);
  void MaybeFinish(Conn& c);
  void ReclaimConn(Conn& c);
  void MaybeReclaim(Conn& c);
  bool NeedsSweep() const;
  double SweepPeriodUs() const;
  void ArmSweep();
  void SweepTick();
  // Probe dispatch: runs the connection's synthesized probe stub (chained
  // from interrupt level, called directly otherwise), or falls back to the
  // host-built probe when the stub's install was refused.
  void SendProbe(Conn& c);
  void RegisterProbe(Conn& c);
  BlockId BuildProbeStub(const Conn& c);
  // Host half of the synthesized probe: transmits the staged header after
  // revalidating the connection (the stub may run after a reap was queued).
  void FinishProbe(ConnId id);
  void HostProbe(Conn& c);
  void MarkActivity(Conn& c);
  // Recomputes the connection's next-probe deadline from its last activity
  // and current idle backoff.
  void ScheduleProbe(Conn& c);
  void UpdateSweepWatch(Conn& c);

  Kernel& kernel_;
  IoSystem& io_;
  NicPool& pool_;
  std::map<uint32_t, BlockId> proc_gen_;  // generic processor, per NIC index
  // Prepared segment processors, per (NIC index, shape), made on first use.
  std::map<std::pair<uint32_t, ProcShape>, PreparedTemplate> proc_prep_;
  int timer_vec_ = 0;
  int probe_vec_ = 0;
  // Shared staging area for synthesized probe sends (header + 1 zero data
  // byte): probes leave one at a time and the transmit trap consumes the
  // stage synchronously, so one serves every connection. Lazily allocated.
  Addr probe_stage_ = 0;
  // The reaper/re-synthesis sweep: one layer-wide alarm, lazily armed like
  // the bcache flusher — installed on first need, re-armed while any
  // connection wants it, dormant otherwise. A dropped alarm (kAlarmDrop) is
  // tolerated: the next delivery re-arms it.
  int sweep_vec_ = 0;
  BlockId sweep_stub_ = kInvalidBlock;
  bool sweep_armed_ = false;
  // Connections the sweep actually has to look at: live (established or
  // fin-sent) and either keepalive-armed or degraded. Maintained on every
  // state/degradation transition so the tick is O(watched), not O(all
  // connections) — at connection-scale (thousands of streams, a handful
  // watched) a full-map walk per tick is what turns the reaper into the
  // overload it exists to survive.
  std::set<ConnId> sweep_watch_;
  // Connections holding a TX-full deferral, drained (in id order) by the
  // pool's TX drain hook. Disjoint from the retransmit timer's coverage:
  // these are the segments the timer does NOT cover (pure ACKs) or covers
  // only after a full RTO the drain replay makes unnecessary.
  std::set<ConnId> tx_deferred_;
  ConnId sweep_cursor_ = 0;  // round-robin resume point for the probe budget
  // Adaptive cadence: when one sweep cycle (probe fan-out plus the delivered
  // answers) charges more virtual time than the sweep period, the re-armed
  // alarm is already due before the slice drains and the kernel livelocks in
  // its own keepalive traffic. The stretch widens the period geometrically
  // while cycles overrun and relaxes once they fit again.
  double last_sweep_entry_us_ = -1;
  double last_sweep_period_us_ = 0;
  uint32_t sweep_stretch_ = 1;
  std::map<ConnId, Conn> conns_;
  std::vector<ConnId> reclaimed_;  // reclaimed records not yet compacted
  std::deque<EndedSlot> ended_;    // indexed by ConnId - 1
  std::vector<EndedSender> ended_senders_;  // < kFullRecord entries
  std::map<ConnId, Ended> ended_full_;
  ConnId next_id_ = 1;
  uint16_t eph_base_ = kEphemeralBase;
  uint16_t eph_hi_ = 65535;
  uint16_t next_ephemeral_ = kEphemeralBase;

  Gauge retransmit_gauge_;
  Gauge timeout_gauge_;
  Gauge dup_ack_gauge_;
  Gauge ooo_gauge_;
  Gauge failed_gauge_;
  Gauge open_fail_gauge_;
  Gauge synth_fallback_gauge_;
  Gauge resynth_gauge_;
  Gauge keepalive_probe_gauge_;
  Gauge reaped_gauge_;
  Gauge tx_full_drops_gauge_;
};

}  // namespace synthesis

#endif  // SRC_NET_STREAM_H_
