// A pool of NICs behind one ingress, sharded by a synthesized steering stage.
//
// Scaling past one interrupt path (ROADMAP: multi-NIC sharding) means N
// devices, each with its own descriptor rings, demux cell table, and
// interrupt budget. The pool stitches them together with emitted code:
//
//  * The STEERING block sits in each NIC's outer demux cell. It hashes the
//    destination port and tail-jumps through the owning NIC's *inner* demux
//    cell. It exists twice, same contract as the demux (a1 = frame, returns
//    d0/d2): a GENERIC routine that reloads the pool geometry (N and the cell
//    table) from memory and reduces the hash by a subtract loop every packet
//    — the layered baseline, installed once and valid for any geometry — and
//    a SYNTHESIZED routine re-emitted only when the geometry changes, with
//    the table base folded to an immediate and the modulo folded to a single
//    shift+mask when N is a power of two (Factoring Invariants).
//
//  * Each NIC keeps its real demux id flowing into its inner cell, and each
//    demux is an install-once lookup through a port-indexed cell table, so
//    binds, unbinds and connection establishment re-emit neither steering
//    nor demux: they rewrite words of executable data structures in place.
//    A flow's NIC is a pure function of its port (SteerOf), so the pool
//    keeps no host index of its own: the owning NIC holds each flow's one
//    record, and every flow operation and transmit routes by the hash.
//
//  * One DISPATCH shim per interrupt vector (installed once, so TTE vector
//    snapshots stay valid) jumps through a dispatch cell to a re-emitted
//    compare chain that untags the payload (NIC index in the high half) and
//    enters the owning device's rx/tx entry.
//
// OVERLOAD ARMOR (admission control): past a configurable RX queue-depth
// watermark the pool swaps a *synthesized early-drop filter* into the outer
// cells; any frame for an unknown port is dropped in a handful of
// instructions, before checksum, ring append, or wakeup work. Known flows
// fall through to the normal steering stage (reached through a steering
// cell, so steering re-emission never re-emits the filter). Hysteresis: the
// filter disengages only when every NIC has drained below the low watermark.
// This is the Synthesis move applied to load shedding — the fate of a junk
// frame is decided by code specialized to "what is bound right now", which
// is what keeps goodput from collapsing under receive livelock (table9).
//
// The filter escalates in PRIORITY LEVELS, and the level is folded into the
// emitted code (re-emitted on watermark engage), not tested per frame:
//   level 1 (depth >= shed_high_watermark): unknown ports drop, bound flows
//     pass untouched;
//   level 2 (depth >= shed_data_watermark): unknown ports drop AND bulk data
//     to bound ports sheds; only control-plane segments — header-only pure
//     acks and segments flagged SYN/FIN/RST — stay admissible, so handshakes
//     and teardowns complete while the retransmit machinery absorbs the shed
//     data. Both levels disengage together on full drain.
// Membership is a bound-port BITMAP tested in O(1) — an executable data
// structure whose bits the bind path flips with one memory write — so binds
// and unbinds never re-emit the filter; it re-emits only when the shed level
// changes.
//
// Growing the pool (AddNic) migrates flows whose hash moved,
// re-emits the steering + dispatch blocks, retires the old ones, and leaves
// per-flow processors (the stream layer's CCB-absolute segment code)
// untouched.
#ifndef SRC_NET_NIC_POOL_H_
#define SRC_NET_NIC_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/net/nic_device.h"

namespace synthesis {

struct NicPoolConfig {
  uint32_t initial_nics = 1;
  NicConfig nic;  // per-NIC template; irq_tag/install_vectors are overridden
  bool synthesized_steering = true;  // false: generic loop (ablation/baseline)
  // Overload armor: when on, RX queue depth >= shed_high_watermark on any NIC
  // swaps the synthesized early-drop filter into the outer cells; depth <=
  // shed_low_watermark on every NIC swaps full steering back (hysteresis).
  bool admission_control = false;
  uint32_t shed_high_watermark = 48;
  uint32_t shed_low_watermark = 8;
  // Level-2 escalation: at this depth bulk data to bound ports sheds too and
  // only control-plane segments stay admissible. Must exceed the high
  // watermark (checked at construction).
  uint32_t shed_data_watermark = 96;
};

class NicPool {
 public:
  static constexpr uint32_t kMaxNics = 8;

  explicit NicPool(Kernel& kernel, NicPoolConfig config = NicPoolConfig());
  ~NicPool();

  uint32_t size() const { return static_cast<uint32_t>(nics_.size()); }
  NicDevice& nic(uint32_t i) { return *nics_[i]; }

  // The host twin of the emitted dst-port hash: which NIC the flow on `port`
  // lives on, and which NIC frames to `port` enter and leave through.
  uint32_t SteerOf(uint16_t port) const;
  // The demux that will see frames for `port` (the owning NIC's).
  DemuxSynthesizer& demux_of(uint16_t port) { return nic(SteerOf(port)).demux(); }

  // Grows the pool by one NIC: rebinds flows whose hash moved, updates the
  // geometry descriptor, re-emits steering + dispatch. Returns false at
  // kMaxNics. Per-flow custom processors survive untouched.
  bool AddNic();

  // Swaps which steering implementation the outer cells point at.
  void UseSynthesizedSteering(bool on);
  // Forwards to every NIC (the demux stage ablation).
  void UseSynthesizedDemux(bool on);

  uint32_t steering_generation() const { return steer_gen_; }
  BlockId generic_steering() const { return steer_generic_; }
  // The steering handle's active block: the specialized routine, or the
  // generic loop after a refused emit.
  BlockId synthesized_steering() const {
    return kernel_.spec().ActiveOf(steer_spec_);
  }
  BlockId active_steering() const {
    return config_.synthesized_steering ? synthesized_steering()
                                        : steer_generic_;
  }

  // --- Overload armor --------------------------------------------------------
  // Control-plane classification for prioritized shedding, matching the
  // stream layer's segment geometry (StreamSeg — not included here; the
  // stream layer sits above the pool): a frame whose payload is only a
  // segment header is a pure ack; otherwise the flags word at payload offset
  // kShedCtrlFlagsOff marks SYN/FIN/RST control.
  static constexpr uint32_t kShedCtrlMaxBytes = 12;
  static constexpr uint32_t kShedCtrlFlagsOff = 8;
  static constexpr uint32_t kShedCtrlFlagsMask = 0x1 | 0x4 | 0x8;
  // Bound-port bitmap: one bit per 16-bit port, walked by the filter.
  static constexpr uint32_t kShedBitmapBytes = 65536 / 8;

  // The active early-drop filter (kInvalidBlock while the last emit was
  // refused: a degraded filter handle means armor off; benches time it
  // directly).
  BlockId shed_filter() const {
    return kernel_.spec().DegradedOf(shed_spec_)
               ? kInvalidBlock
               : kernel_.spec().ActiveOf(shed_spec_);
  }
  bool shedding() const { return shedding_; }
  // 0 = off, 1 = unknown-port drop, 2 = + bulk-data drop (control passes).
  uint32_t shed_level() const { return shed_level_; }
  bool data_shedding() const { return shed_level_ >= 2; }
  uint64_t shed_engages() const { return shed_engages_; }
  uint64_t shed_escalations() const { return shed_escalations_; }
  // Depth signal from a member NIC (wired automatically; public for tests).
  void NoteRxDepth(uint32_t depth);

  // --- Flow operations, routed to the owning NIC -----------------------------
  // One entry point for every flavor of flow: plain fixed/flex ring flows,
  // custom per-connection processors, batch opt-out — all described by the
  // FlowSpec.
  bool BindFlow(FlowSpec spec);
  // Swaps an existing custom flow's synthesized processor (connection
  // re-synthesis after a rate change); the generic twin stays.
  bool RebindFlow(uint16_t port, BlockId synth_deliver);
  bool UnbindFlow(uint16_t port);
  bool HasFlow(uint16_t port) const {
    return nics_[SteerOf(port)]->demux().HasFlow(port);
  }

  // Frames enter and leave through the owning NIC, so loopback delivery always
  // lands where the flow is bound.
  bool Transmit(uint16_t dst_port, uint16_t src_port, const uint8_t* payload,
                uint32_t n);
  // Scatter/gather transmit, routed like Transmit: spans gathered straight
  // into the owning NIC's descriptor slot (no intermediate copy).
  bool TransmitV(uint16_t dst_port, uint16_t src_port, const SendSpan* spans,
                 uint32_t nspans);
  // Burst bracket for a run of sends to one destination (one doorbell on the
  // owning NIC; no-ops unless that NIC has TX coalescing on).
  void BeginTxBurst(uint16_t dst_port) { nic(SteerOf(dst_port)).BeginTxBurst(); }
  void CommitTxBurst(uint16_t dst_port) {
    nic(SteerOf(dst_port)).CommitTxBurst();
  }
  void InjectRaw(uint32_t dst_port, uint32_t src_port, const uint8_t* payload,
                 uint32_t n, uint32_t checksum, uint32_t length_field);
  WaitQueue& tx_waiters(uint16_t dst_port) {
    return nic(SteerOf(dst_port)).tx_waiters();
  }
  // Installed on every member NIC (current and future): runs after each TX
  // completion retires, so layers above can replay sends deferred on a full
  // ring the moment a slot frees.
  void SetTxDrainHook(std::function<void()> hook);

  // --- Pool-wide counters ----------------------------------------------------
  // Sums over the member NICs plus the shed filter's drop counters, each read
  // where it lives.
  struct AggregateStats {
    uint64_t delivered = 0;
    uint64_t tx_completed = 0;
    uint64_t rx_overruns = 0;
    uint64_t csum_rejects = 0;
    uint64_t malformed = 0;
    uint64_t ring_drops = 0;
    uint64_t wire_drops = 0;
    uint64_t early_sheds = 0;  // dropped by the admission filter
    uint64_t data_sheds = 0;   // bound-port bulk data shed at level 2
    uint64_t tx_spurious = 0;  // TX-complete dispatches with nothing to retire
  };
  AggregateStats Aggregate() const;

 private:
  // Descriptor layout (simulated memory, read by the generic steering loop):
  //   [0]                       live NIC count
  //   [4 .. 4+4*kMaxNics)       inner demux cell address per NIC
  static constexpr uint32_t kDescBytes = 4 + 4 * kMaxNics;

  void AppendNic();
  void WriteDescriptor();   // N + cell table, for the generic loop
  // Specializer handles: the steering block, the two dispatch chains and the
  // shed filter. Registered once at construction; geometry and shed-level
  // changes re-emit them through Reemit. Build* are the emit callbacks; each
  // handle's install callback is its wiring function below.
  void RegisterHandles();
  BlockId BuildSteering();
  // The payload-untag compare chain behind the shim of dispatched vector `d`
  // (0: kNetRx, 1: kNetTx).
  BlockId BuildDispatch(int d);
  BlockId BuildShedFilter();
  // Wiring functions: repoint the pool's cells at what the Specializer holds
  // active.
  void ApplySteering();     // steering cell + outer cells (filter or steering)
  void WireDispatch();      // the two dispatch cells
  void InstallShedFilter(); // re-applies steering while shedding
  void WriteShedBit(uint16_t port, bool on);
  void EnterShedLevel(uint32_t lvl);

  Kernel& kernel_;
  NicPoolConfig config_;
  std::vector<std::unique_ptr<NicDevice>> nics_;

  Addr desc_ = 0;
  BlockId steer_generic_ = kInvalidBlock;   // installed once, never a handle
  SpecId steer_spec_ = kBadSpec;
  uint32_t steer_gen_ = 0;

  // Per dispatched vector (kNetRx, kNetTx): the cell its shim jumps through
  // and the handle of the compare chain the cell holds.
  Addr dispatch_cell_[2] = {0, 0};
  SpecId dispatch_spec_[2] = {kBadSpec, kBadSpec};
  uint32_t dispatch_gen_ = 0;  // uniquifies chain names across re-emission

  // Overload armor state. steer_cell_ always holds the active steering id, so
  // the filter's pass path survives steering re-emission without re-emitting
  // the filter; shed_ctr_ / shed_data_ctr_ are the sim words the filter bumps
  // per early drop (unknown port / bound-port data at level 2).
  Addr steer_cell_ = 0;
  Addr shed_ctr_ = 0;
  Addr shed_data_ctr_ = 0;
  Addr shed_bitmap_ = 0;      // bound-port bitmap (kShedBitmapBytes)
  Addr shed_mask_tab_ = 0;    // 32 words of 1<<i (the ISA has no var shift)
  SpecId shed_spec_ = kBadSpec;
  bool shedding_ = false;
  uint32_t shed_level_ = 0;
  uint64_t shed_engages_ = 0;
  uint64_t shed_escalations_ = 0;
  uint32_t shed_gen_ = 0;
  uint32_t shed_filter_level_ = 0;  // level shape of the last emitted filter
  std::function<void()> tx_drain_hook_;  // replayed onto NICs added later
};

}  // namespace synthesis

#endif  // SRC_NET_NIC_POOL_H_
