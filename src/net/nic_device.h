// Simulated Ethernet NIC raising RX/TX interrupts on the virtual clock (§5).
//
// The device owns descriptor slot arrays in simulated memory. Transmit writes
// a frame into a TX slot, queues it on the "wire" (an optimistic SPSC queue —
// the host-level twin of the micro-code rings), and schedules a transmit-
// complete interrupt; the wire then loops the frame back into an RX slot and
// schedules a receive interrupt. The RX interrupt entry jumps through the
// *demux cell*, a memory word holding the BlockId of the current demux routine
// (an executable data structure: switching the generic and synthesized demux
// is one store — the interrupt path never tests a flag). The synthesized
// demux is itself a port-indexed cell table (demux.h), so binding a flow
// rewrites a table cell and leaves the demux cell alone.
//
// Fault injection models a lossy segment: each transmitted frame may be
// dropped, corrupted (one byte flipped), reordered (held on the wire for
// extra latency so later frames overtake it), duplicated (delivered twice),
// or caught in a burst loss (a run of consecutive frames vanishing), all with
// configured probabilities drawn from one seeded generator — the schedule is
// a pure function of (seed, config, transmit sequence), so fault runs replay
// deterministically. The kernel's FaultPlane adds a second, kernel-wide layer
// on the same wire points (kWire* sites): those fires OR into the per-NIC
// draws and land in the plane's injection log, so cross-subsystem fault
// schedules replay from one seed.
#ifndef SRC_NET_NIC_DEVICE_H_
#define SRC_NET_NIC_DEVICE_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <random>
#include <unordered_map>
#include <vector>

#include "src/io/gauge.h"
#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/net/demux.h"
#include "src/net/frame.h"
#include "src/sync/spsc_queue.h"

namespace synthesis {

struct NicConfig {
  // Descriptor ring geometry. Both MUST be nonzero powers of two (the slot
  // index masks depend on it); the constructor aborts loudly otherwise.
  uint32_t rx_slots = 64;
  uint32_t tx_slots = 64;
  double tx_complete_us = 2.0;   // DMA-out latency per frame
  double wire_latency_us = 5.0;  // loopback segment latency
  double drop_rate = 0.0;        // probability a frame vanishes on the wire
  double corrupt_rate = 0.0;     // probability one byte is flipped in transit
  double reorder_rate = 0.0;     // probability a frame is held back 3x latency
  double duplicate_rate = 0.0;   // probability a frame arrives twice
  double burst_loss_rate = 0.0;  // probability a loss burst starts here
  uint32_t burst_len = 4;        // frames consumed by one loss burst
  uint32_t fault_seed = 1;       // deterministic fault injection
  bool synthesized_demux = true; // false: interpret the flow table (baseline)
  // Pooling support (NicPool). `irq_tag` is OR'd into every RX/TX interrupt
  // payload (the pool puts the NIC index in the high half so one shared
  // vector can dispatch to the owning device). `install_vectors` = false
  // keeps the device from claiming the global kNetRx/kNetTx vectors — the
  // pool installs its own dispatch shim instead. `serialize_tx` models a
  // per-NIC DMA engine that completes one frame per tx_complete_us: with it,
  // adding NICs adds transmit lanes, which is what sharding scales.
  uint32_t irq_tag = 0;
  bool install_vectors = true;
  bool serialize_tx = false;
  // RX interrupt coalescing: > 0 enables batched delivery. Completions that
  // land within one window share a single interrupt whose entry loops over
  // every due descriptor slot in synthesized code, so the vector/trap
  // overhead is paid once per batch instead of once per frame. 0 (default)
  // keeps the classic one-interrupt-per-frame entry — the ablation baseline.
  double rx_coalesce_us = 0.0;
  // TX-complete coalescing, the same engine on the transmit side: > 0 holds
  // each frame's completion interrupt open for this window so later
  // completions retire under the same dispatch, and enables
  // BeginTxBurst/CommitTxBurst (one doorbell per burst of descriptor
  // fills). 0 (default) keeps the classic
  // one-kNetTx-per-frame entry — the ablation baseline — and makes the burst
  // calls no-ops, so existing configs behave byte-identically.
  double tx_coalesce_us = 0.0;
};

// One flow, fully described: the unified binding surface. A spec with the
// deliver blocks unset opens a datagram flow whose specialized deliver the
// demux synthesizer emits (and owns); a spec carrying synth_deliver +
// generic_deliver (the stream layer's segment processors) opens a custom
// flow, with `ctx` (the CCB) written into the flow-table entry and
// `deliver_hook` run from the RX-done trap after each accepted frame —
// host-only work (acks, window pushes, wakeups), never a nested kexec call.
// `batch` opts the flow into RX coalescing (NicConfig::rx_coalesce_us);
// latency-critical flows clear it so their arrival fires the batched entry
// immediately instead of waiting out the window. The owning device keeps the
// spec as the flow's one host record (RebindFlow keeps it current), so a
// pool migration rebinds the flow from it.
struct FlowSpec {
  uint16_t port = 0;
  std::shared_ptr<RingHost> ring;
  uint32_t fixed_len = 0;
  Addr ctx = 0;
  BlockId synth_deliver = kInvalidBlock;
  BlockId generic_deliver = kInvalidBlock;
  std::function<void()> deliver_hook;
  bool batch = true;

  // The common case: a plain datagram flow appending [len src payload]
  // records into `ring` (fixed_len > 0 declares every datagram that size —
  // the invariant the synthesizer folds).
  static FlowSpec Ring(uint16_t port, std::shared_ptr<RingHost> ring,
                       uint32_t fixed_len = 0) {
    FlowSpec s;
    s.port = port;
    s.ring = std::move(ring);
    s.fixed_len = fixed_len;
    return s;
  }
};

class NicDevice {
 public:
  NicDevice(Kernel& kernel, NicConfig config = NicConfig());
  ~NicDevice();

  // Opens the flow `spec` describes: frames addressed to `spec.port` are
  // delivered into `spec.ring` as [len.lo len.hi src.lo src.hi payload...]
  // records (datagram flows) or through the spec's own segment processors
  // (custom flows), and readers parked on the ring are woken per delivery.
  // `spec.fixed_len` > 0 declares a fixed datagram size the demux
  // synthesizer folds (and enforces). A spec must carry both deliver blocks
  // or neither.
  bool BindFlow(FlowSpec spec);
  // Swaps a custom flow's specialized deliver (e.g. a connection left LISTEN
  // and the peer is now a foldable invariant): one demux cell store.
  bool RebindFlow(uint16_t port, BlockId synth_deliver);
  bool UnbindFlow(uint16_t port);
  // The bound flows, keyed by port (the pool walks them to migrate).
  const std::unordered_map<uint16_t, FlowSpec>& flows() const {
    return flows_;
  }

  // Changes wire fault rates mid-run (e.g. a link going dark under test).
  void SetWireFaults(double drop, double corrupt, double reorder,
                     double duplicate, double burst_loss);

  // Sends one datagram (payload bytes are host memory). Returns false when
  // all TX slots are in flight — callers may park on tx_waiters().
  bool Transmit(uint16_t dst_port, uint16_t src_port, const uint8_t* payload,
                uint32_t n);

  // Scatter/gather transmit: the spans are gathered straight into the TX
  // descriptor slot, no intermediate contiguous copy. Byte-identical on the
  // wire to Transmit over the flattened payload; the spans are borrowed only
  // for the duration of the call. Returns false when the payload exceeds
  // kMaxPayload or all TX slots are in flight.
  bool TransmitV(uint16_t dst_port, uint16_t src_port, const SendSpan* spans,
                 uint32_t nspans);

  // Burst transmit (only meaningful with tx_coalesce_us > 0; no-ops
  // otherwise). Between Begin and Commit, each TransmitV fills a descriptor
  // without ringing the doorbell or arming its completion; Commit rings one
  // doorbell for the whole burst and schedules every staged completion. A
  // frame rejected mid-burst (ring full) is simply not staged — the commit
  // covers whatever was accepted.
  void BeginTxBurst();
  void CommitTxBurst();

  // Host hook run after each TX completion retires (slot freed, waiters
  // woken). The stream layer uses it to replay segments it deferred when the
  // ring was full — pure ACKs have no retransmit timer covering them.
  void SetTxDrainHook(std::function<void()> hook) {
    tx_drain_hook_ = std::move(hook);
  }

  // Test hook: places an arbitrary frame (e.g. a deliberately bad checksum or
  // length) directly on the wire, bypassing Transmit's framing.
  void InjectRaw(uint32_t dst_port, uint32_t src_port, const uint8_t* payload,
                 uint32_t n, uint32_t checksum, uint32_t length_field);

  // Swaps the demux implementation the RX interrupt jumps through.
  void UseSynthesizedDemux(bool on);

  // Interposes `steer` between the RX entry and this device's demux: the RX
  // entry's outer cell is rewritten to `steer`, while the device's real demux
  // id keeps flowing into the *inner* cell (an executable data structure the
  // steering block jumps through — a demux swap never needs the pool).
  // kInvalidBlock removes the override.
  void SetDemuxOverride(BlockId steer);
  // Address of the 4-byte word that always holds this device's current demux
  // routine (the steering stage indexes a table of these).
  Addr inner_cell_addr() const { return inner_cell_; }

  // Admission tap: called with the new RX queue depth on every rx_inflight
  // change (frame landed in a slot, or the demux drained one). The pool's
  // overload armor watches this to engage/disengage the shed filter.
  void SetAdmissionHook(std::function<void(uint32_t)> hook) {
    admission_hook_ = std::move(hook);
  }
  uint32_t rx_inflight() const { return rx_inflight_; }

  DemuxSynthesizer& demux() { return demux_; }
  WaitQueue& tx_waiters() { return tx_waiters_; }
  const NicConfig& config() const { return config_; }

  // Interrupt entry blocks (benches dispatch through these directly; the
  // pool's dispatch shim jumps through them per NIC index).
  BlockId rx_entry() const { return rx_entry_; }
  BlockId tx_entry() const { return tx_entry_; }

  // Host-observable event gauges (§2.3) and wire statistics. What the demux
  // micro-code counts (checksum rejects, drops) is read in place through
  // demux().
  Gauge& rx_gauge() { return rx_gauge_; }
  Gauge& nomatch_gauge() { return nomatch_gauge_; }
  Gauge& wire_drop_gauge() { return wire_drop_gauge_; }
  Gauge& corrupt_gauge() { return corrupt_gauge_; }
  Gauge& wire_reorder_gauge() { return wire_reorder_gauge_; }
  Gauge& wire_dup_gauge() { return wire_dup_gauge_; }
  // Counts TX-complete dispatches that found no frame to retire (e.g. an
  // interrupt-burst double fire) — the observable face of what used to be a
  // silently clamped tx_inflight_ underflow.
  Gauge& tx_spurious_gauge() { return tx_spurious_gauge_; }
  uint64_t tx_completed() const { return tx_completed_; }
  uint64_t rx_overruns() const { return rx_overruns_; }
  uint32_t tx_inflight() const { return tx_inflight_; }

  // Batched-delivery introspection (benches assert the amortization really
  // happened: frames per dispatch > 1 under load).
  bool batching() const { return config_.rx_coalesce_us > 0.0; }
  uint64_t rx_batch_dispatches() const { return rx_batch_.dispatches; }
  uint64_t rx_batch_frames() const { return rx_batch_.frames; }
  bool tx_batching() const { return config_.tx_coalesce_us > 0.0; }
  uint64_t tx_batch_dispatches() const { return tx_batch_.dispatches; }
  uint64_t tx_batch_frames() const { return tx_batch_.frames; }

 private:
  struct WireItem {
    uint32_t tx_slot = 0;
    bool drop = false;
    bool dup = false;          // deliver the frame twice
    uint8_t delay_mult = 1;    // >1: held back, later frames overtake it
    int32_t corrupt_off = -1;  // byte offset within the frame to flip, or -1
  };

  // A frame in slot `slot`, due at virtual time `at`: an RX frame's wire
  // arrival (latency + any reorder hold already applied) or a TX frame's
  // DMA-out completion. Per-frame mode raises its interrupt directly;
  // coalescing queues it and arms/advances the direction's single
  // outstanding batch interrupt.
  struct Pending {
    double at = 0;    // due time (latch order key)
    double fire = 0;  // when this frame alone would fire the batch interrupt
    uint64_t seq = 0;
    uint32_t slot = 0;
  };

  // One direction's interrupt coalescing; RX and TX each hold one, and its
  // simulated-memory words are allocated only when that direction's window
  // is > 0: the due table [count][slot...] the latch trap fills, a
  // descriptor {due table, ring base} (RX adds its demux cell) the generic
  // loop reloads per frame, the cell holding the active loop implementation,
  // and a spill word for the generic loop's counter (the demux clobbers
  // registers).
  struct Batch {
    Batch(Vector v, uint32_t ring_slots) : vec(v), slots(ring_slots) {}
    Vector vec;
    uint32_t slots;  // ring size: the most frames one latch takes
    Addr due = 0;
    Addr desc = 0;
    Addr cell = 0;
    Addr idx = 0;
    BlockId loop_gen = kInvalidBlock;
    SpecId spec = kBadSpec;
    std::vector<Pending> pending;
    uint64_t seq = 0;
    bool armed = false;    // one batch interrupt is outstanding
    double next_fire = 0;  // its fire time
    uint64_t dispatches = 0;
    uint64_t frames = 0;
  };

  // A burst-staged frame: descriptor filled, doorbell and completion arming
  // deferred to CommitTxBurst.
  struct StagedTx {
    uint32_t slot = 0;
    double complete_at = 0;
  };

  Addr RxSlotAddr(uint32_t index) const;
  Addr TxSlotAddr(uint32_t index) const;
  void RefreshDemuxCell();
  // The coalescing engine both directions share (see Batch).
  void AllocateBatch(Batch& b, std::initializer_list<Addr> desc_tail);
  int RegisterLatch(Batch& b);
  BlockId InstallBatchPath(Batch& b, bool rx, int done_vec, int fill_vec);
  void Arm(Batch& b, uint32_t slot, double at, double fire);
  // Emit callbacks for the batch-loop specialization handles (the vectors are
  // captured at construction; the loops fold device-lifetime invariants).
  BlockId BuildRxBatchLoop(int rxdone_vec);
  BlockId BuildTxBatchLoop(int txdone_vec);
  void ScheduleRxDelivery(uint32_t rx_idx, double at);
  void RetireOneTxCompletion();

  Kernel& kernel_;
  NicConfig config_;
  DemuxSynthesizer demux_;
  Addr rx_base_ = 0;
  Addr tx_base_ = 0;
  Addr demux_cell_ = 0;  // holds the BlockId the RX interrupt jumps through
  Addr inner_cell_ = 0;  // always the device's own demux (pool steering target)
  BlockId demux_override_ = kInvalidBlock;  // steering block, when pooled
  BlockId rx_entry_ = kInvalidBlock;
  BlockId tx_entry_ = kInvalidBlock;

  SpscQueue<WireItem> wire_;
  uint32_t tx_next_ = 0;
  uint32_t rx_next_ = 0;
  uint32_t tx_inflight_ = 0;
  uint32_t rx_inflight_ = 0;

  Batch rx_batch_;
  // Retire correctness never depends on the TX due table's contents: each
  // retire trap pops the wire queue, whose FIFO order matches completion
  // order (completion times are monotone in transmit order), and the popped
  // item carries its own tx_slot.
  Batch tx_batch_;
  bool tx_burst_open_ = false;
  std::vector<StagedTx> tx_staged_;

  std::unordered_map<uint16_t, FlowSpec> flows_;  // each flow's host record
  WaitQueue tx_waiters_;
  std::mt19937 rng_;
  std::uniform_real_distribution<double> uni_{0.0, 1.0};
  uint32_t burst_left_ = 0;  // remaining frames of an in-progress loss burst

  Gauge rx_gauge_;
  Gauge nomatch_gauge_;
  Gauge wire_drop_gauge_;
  Gauge corrupt_gauge_;
  Gauge wire_reorder_gauge_;
  Gauge wire_dup_gauge_;
  Gauge tx_spurious_gauge_;
  std::function<void()> tx_drain_hook_;
  uint64_t tx_completed_ = 0;
  uint64_t rx_overruns_ = 0;
  std::function<void(uint32_t)> admission_hook_;
  double tx_busy_until_ = 0;  // serialized DMA engine availability time
};

}  // namespace synthesis

#endif  // SRC_NET_NIC_DEVICE_H_
