#include "src/net/nic_device.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/machine/assembler.h"

namespace synthesis {

namespace {
bool IsPow2(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

NicDevice::NicDevice(Kernel& kernel, NicConfig config)
    : kernel_(kernel),
      config_(config),
      demux_(kernel),
      wire_(config.tx_slots == 0 ? 1 : config.tx_slots),
      rx_batch_{Vector::kNetRx, config.rx_slots},
      tx_batch_{Vector::kNetTx, config.tx_slots},
      rng_(config.fault_seed) {
  // The slot-index masks (rx_next_ & (slots - 1)) silently alias descriptors
  // for any other geometry, so a bad config is a hard construction error —
  // not a debug-build assert.
  if (!IsPow2(config_.rx_slots) || !IsPow2(config_.tx_slots)) {
    std::fprintf(stderr,
                 "NicDevice: rx_slots/tx_slots must be nonzero powers of two "
                 "(rx_slots=%u tx_slots=%u)\n",
                 config_.rx_slots, config_.tx_slots);
    std::abort();
  }
  rx_base_ = kernel_.allocator().Allocate(config_.rx_slots * FrameLayout::kSlotBytes);
  tx_base_ = kernel_.allocator().Allocate(config_.tx_slots * FrameLayout::kSlotBytes);
  demux_cell_ = kernel_.allocator().Allocate(4);
  inner_cell_ = kernel_.allocator().Allocate(4);
  assert(rx_base_ != 0 && tx_base_ != 0 && demux_cell_ != 0 && inner_cell_ != 0 &&
         "kernel memory exhausted bringing up a NIC");
  if (batching()) {
    AllocateBatch(rx_batch_, {rx_base_, demux_cell_});
  }
  if (tx_batching()) {
    AllocateBatch(tx_batch_, {tx_base_});
  }
  // A hands-off swap of the demux (refusal fallback to the generic walk)
  // must repoint this device's cells before the displaced block drains. Flow
  // binds never swap it: they rewrite the demux's cell table instead.
  demux_.SetSwapHook([this] { RefreshDemuxCell(); });
  RefreshDemuxCell();

  int rxdone_vec = kernel_.RegisterHostTrap([this](Machine& m) {
    rx_inflight_ = rx_inflight_ == 0 ? 0 : rx_inflight_ - 1;
    if (admission_hook_) {
      admission_hook_(rx_inflight_);
    }
    rx_gauge_.Count();
    uint32_t result = m.reg(kD0);
    if (result == 1) {
      auto it = flows_.find(static_cast<uint16_t>(m.reg(kD2)));
      if (it != flows_.end()) {
        kernel_.UnblockOne(it->second.ring->readers);
        if (it->second.deliver_hook) {
          // Copy before invoking: the hook may unbind its own port (e.g. a
          // stream connection failing its retry cap mid-delivery).
          std::function<void()> hook = it->second.deliver_hook;
          hook();
        }
      }
    } else if (result == static_cast<uint32_t>(-2)) {
      nomatch_gauge_.Count();
    }
    return TrapAction::kContinue;
  });

  int txdone_vec = kernel_.RegisterHostTrap([this](Machine&) {
    RetireOneTxCompletion();
    return TrapAction::kContinue;
  });

  int rxfill_vec = RegisterLatch(rx_batch_);
  int txfill_vec = RegisterLatch(tx_batch_);

  // The entry blocks and generic batch loops have no fallback, so they
  // install exempt from injected refusal: a refused one would leave the NIC
  // silently deaf.
  SynthesisOptions verbatim = SynthesisOptions::Disabled();

  if (!batching()) {
    // RX interrupt entry: d1 = slot index. Computes the frame address and
    // jumps through the demux cell — the cell's content IS the device's
    // demux state.
    Asm rx("nic_rx_entry");
    rx.Charge(60);  // controller status read, descriptor ack
    rx.Move(kD6, kD1);
    rx.MulI(kD6, FrameLayout::kSlotBytes);
    rx.AddI(kD6, static_cast<int32_t>(rx_base_));
    rx.Move(kA1, kD6);
    rx.LoadA32(kD7, static_cast<int32_t>(demux_cell_));
    rx.JsrInd(kD7);
    rx.Trap(rxdone_vec);
    rx.Rts();
    rx_entry_ = kernel_.SynthesizeInstallEssential(
        rx.Build(), Bindings(), nullptr, "nic_rx_entry", nullptr, &verbatim);
  } else {
    rx_entry_ = InstallBatchPath(rx_batch_, true, rxdone_vec, rxfill_vec);
  }
  assert(rx_entry_ != kInvalidBlock && "code store exhausted bringing up a NIC");
  if (config_.install_vectors) {
    kernel_.SetDefaultVector(Vector::kNetRx, rx_entry_);
  }

  if (!tx_batching()) {
    // TX-complete entry: acknowledge the descriptor, hand off to the host
    // wire model (which loops the frame back as a future RX interrupt).
    Asm tx("nic_tx_entry");
    tx.Charge(40);
    tx.Trap(txdone_vec);
    tx.Rts();
    tx_entry_ = kernel_.SynthesizeInstallEssential(
        tx.Build(), Bindings(), nullptr, "nic_tx_entry", nullptr, &verbatim);
  } else {
    tx_entry_ = InstallBatchPath(tx_batch_, false, txdone_vec, txfill_vec);
  }
  assert(tx_entry_ != kInvalidBlock && "code store exhausted bringing up a NIC");
  if (config_.install_vectors) {
    kernel_.SetDefaultVector(Vector::kNetTx, tx_entry_);
  }
}

NicDevice::~NicDevice() {
  // The emit/install callbacks capture `this`; the handles must not outlive
  // the device. (The demux retires its own lookup handle.)
  kernel_.spec().Retire(rx_batch_.spec);
  kernel_.spec().Retire(tx_batch_.spec);
}

// Allocates and seeds `b`'s simulated-memory words (see Batch). The
// descriptor is the due table's address followed by `desc_tail`.
void NicDevice::AllocateBatch(Batch& b, std::initializer_list<Addr> desc_tail) {
  KernelAllocator& alloc = kernel_.allocator();
  b.due = alloc.Allocate(4 + 4 * b.slots);
  b.desc = alloc.Allocate(4 + 4 * static_cast<uint32_t>(desc_tail.size()));
  b.cell = alloc.Allocate(4);
  b.idx = alloc.Allocate(4);
  assert(b.due != 0 && b.desc != 0 && b.cell != 0 && b.idx != 0 &&
         "kernel memory exhausted bringing up a NIC");
  Memory& mem = kernel_.machine().memory();
  mem.Write32(b.due, 0);
  mem.Write32(b.desc, b.due);
  Addr word = b.desc;
  for (Addr a : desc_tail) {
    word += 4;
    mem.Write32(word, a);
  }
}

// Batch latch: the "hardware" side of a coalesced interrupt (the
// controller's descriptor or completion scan). Every frame whose due time
// has passed is written into the due table (count + slot indices, in due
// order — so reordered RX frames still overtake), and the direction's
// interrupt re-arms for whatever is still in flight. A stale raise (the
// batch was advanced past it) or an interrupt-burst echo finds nothing newly
// due and the loop runs zero frames — double dispatch is tolerated by
// construction.
int NicDevice::RegisterLatch(Batch& b) {
  return kernel_.RegisterHostTrap([this, &b](Machine& m) {
    const double now = kernel_.NowUs() + 1e-9;
    std::stable_sort(b.pending.begin(), b.pending.end(),
                     [](const Pending& x, const Pending& y) {
                       return x.at < y.at || (x.at == y.at && x.seq < y.seq);
                     });
    Memory& mem = m.memory();
    uint32_t count = 0;
    size_t kept = 0;
    for (const Pending& p : b.pending) {
      if (p.at <= now && count < b.slots) {
        mem.Write32(b.due + 4 + 4 * count, p.slot);
        count++;
      } else {
        b.pending[kept++] = p;
      }
    }
    b.pending.resize(kept);
    mem.Write32(b.due, count);
    m.Charge(4 + 2 * count, 1, 1 + count);  // descriptor scan, a word per slot
    b.dispatches++;
    b.frames += count;
    b.armed = !b.pending.empty();
    if (b.armed) {
      b.next_fire = b.pending.front().fire;
      for (const Pending& p : b.pending) {
        b.next_fire = std::min(b.next_fire, p.fire);
      }
      kernel_.interrupts().Raise(b.next_fire, b.vec, config_.irq_tag);
    }
    return TrapAction::kContinue;
  });
}

// Coalesced interrupt path: ONE interrupt covers every due frame. The entry
// latches the due slots, then runs the active batch loop out of the batch
// cell. Two loop implementations share the cell, same pattern as
// demux/steering:
//
//  * GENERIC: reloads the descriptor from memory on every iteration, indexes
//    the due table and scales the slot index to a descriptor address — the
//    layered ablation baseline.
//  * SYNTHESIZED (BuildRxBatchLoop / BuildTxBatchLoop): folds what the
//    generic loop reloads, every one a device-lifetime invariant (Factoring
//    Invariants).
//
// Only the RX loop calls the demux, and both RX loops reload the demux cell
// per frame, so a flow rebound by a deliver hook mid-batch steers the very
// next frame through the fresh demux. Both directions keep the per-frame
// done trap (gauges, reader wakeups, hooks, TX retirement) — only the
// vector/entry/exit overhead is amortized. Host traps preserve simulated
// registers; the demux does not, hence the spilled loop counter.
BlockId NicDevice::InstallBatchPath(Batch& b, bool rx, int done_vec,
                                    int fill_vec) {
  const std::string name = rx ? "nic_rx_batch" : "nic_tx_batch";
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  Asm g(name + "_gen");
  g.MoveI(kD3, 0);
  g.StoreA32(static_cast<int32_t>(b.idx), kD3);
  g.Label("loop");
  g.MoveI(kA2, static_cast<int32_t>(b.desc));
  g.Load32(kD0, kA2, 0);  // due table base
  g.Move(kA4, kD0);
  g.Load32(kD6, kA4, 0);  // due count
  g.LoadA32(kD3, static_cast<int32_t>(b.idx));
  g.Cmp(kD3, kD6);
  g.Bge("done");
  g.Move(kD1, kD3);
  g.LslI(kD1, 2);
  g.Add(kD1, kD0);
  g.Move(kA5, kD1);
  g.Load32(kD1, kA5, 4);  // slot index
  g.Load32(kD5, kA2, 4);  // ring base
  g.MulI(kD1, FrameLayout::kSlotBytes);
  g.Add(kD1, kD5);
  g.Move(kA1, kD1);
  if (rx) {
    g.Load32(kD7, kA2, 8);  // demux cell address
    g.Move(kA5, kD7);
    g.Load32(kD7, kA5, 0);  // current demux
    g.JsrInd(kD7);
  }
  g.Trap(done_vec);
  g.LoadA32(kD3, static_cast<int32_t>(b.idx));
  g.AddI(kD3, 1);
  g.StoreA32(static_cast<int32_t>(b.idx), kD3);
  g.Bra("loop");
  g.Label("done");
  g.Rts();
  b.loop_gen = kernel_.SynthesizeInstallEssential(
      g.Build(), Bindings(), nullptr, name + "_gen", nullptr, &verbatim);
  assert(b.loop_gen != kInvalidBlock &&
         "code store exhausted bringing up a NIC");

  // The specialized loop registers behind a Specializer handle: the generic
  // loop is its fallback (it reloads the descriptor per frame, so it is
  // always valid), and the byte-cap sweep may demote it under pressure or
  // after a refused install.
  SpecDesc d;
  d.name = name + "@" + std::to_string(b.cell);
  d.generic = b.loop_gen;
  d.adaptive = false;  // folds device-lifetime invariants; never stale
  d.emit = [this, rx, done_vec](SpecTier) {
    return rx ? BuildRxBatchLoop(done_vec) : BuildTxBatchLoop(done_vec);
  };
  d.install = [this](BlockId, SpecTier, SpecInstall) { RefreshDemuxCell(); };
  b.spec = kernel_.spec().Register(std::move(d));
  RefreshDemuxCell();  // now that the loops exist, point the batch cell

  Asm e(name + "_entry");
  e.Charge(rx ? 60 : 40);  // controller status read, descriptor/completion ack
  e.Trap(fill_vec);        // latch every due frame into the table
  e.LoadA32(kD7, static_cast<int32_t>(b.cell));
  e.JsrInd(kD7);
  e.Rts();
  return kernel_.SynthesizeInstallEssential(
      e.Build(), Bindings(), nullptr, name + "_entry", nullptr, &verbatim);
}

BlockId NicDevice::BuildRxBatchLoop(int rxdone_vec) {
  // The slot stride is a power-of-two sum (1040 = 1024 + 16), so the
  // specialized loop strength-reduces the MulI to two shifts and an add —
  // the same Factoring Invariants move the demux makes with the ring mask.
  static_assert((1u << 10) + (1u << 4) == FrameLayout::kSlotBytes,
                "slot stride decomposition");
  Asm s("nic_rx_batch_syn");
  s.MoveI(kD3, 0);
  s.StoreA32(static_cast<int32_t>(rx_batch_.idx), kD3);
  s.Label("loop");
  s.LoadA32(kD3, static_cast<int32_t>(rx_batch_.idx));
  s.LoadA32(kD6, static_cast<int32_t>(rx_batch_.due));
  s.Cmp(kD3, kD6);
  s.Bge("done");
  s.LoadIdx32(kD1, kD3, static_cast<int32_t>(rx_batch_.due + 4));
  // d3 is dead until the next iteration: publish the incremented index now,
  // so the post-demux path needs no reload/spill pair (the demux clobbers
  // every data register).
  s.AddI(kD3, 1);
  s.StoreA32(static_cast<int32_t>(rx_batch_.idx), kD3);
  s.Move(kD5, kD1);
  s.LslI(kD1, 10);
  s.LslI(kD5, 4);
  s.Add(kD1, kD5);
  s.AddI(kD1, static_cast<int32_t>(rx_base_));
  s.Move(kA1, kD1);
  s.LoadA32(kD7, static_cast<int32_t>(demux_cell_));
  s.JsrInd(kD7);
  s.Trap(rxdone_vec);
  s.Bra("loop");
  s.Label("done");
  s.Rts();
  SynthesisOptions lopts = kernel_.config().synthesis;
  lopts.live_out |= (1u << kD0) | (1u << kD1) | (1u << kD2);
  return kernel_.SynthesizeInstall(s.Build(), Bindings(), nullptr,
                                   "nic_rx_batch_syn", nullptr, &lopts);
}

BlockId NicDevice::BuildTxBatchLoop(int txdone_vec) {
  // The key specialization is not folded addresses but dead-work
  // elimination: retirement identity comes from the completion queue itself
  // (the txdone trap pops the controller's FIFO, which names the slot), so
  // the generic loop's descriptor walk — reload descriptor, index the due
  // table, scale to a slot address — computes values nothing consumes. The
  // specializer strips the walk entirely; the due count (latched by txfill
  // before the loop ran, nothing inside changes it) survives only as the
  // loop bound, hoisted into a register that host traps are guaranteed to
  // preserve.
  Asm s("nic_tx_batch_syn");
  s.LoadA32(kD6, static_cast<int32_t>(tx_batch_.due));
  s.Tst(kD6);
  s.Beq("done");
  s.Label("loop");
  s.Trap(txdone_vec);
  s.SubI(kD6, 1);
  s.Tst(kD6);
  s.Bne("loop");
  s.Label("done");
  s.Rts();
  SynthesisOptions topts = kernel_.config().synthesis;
  topts.live_out |= (1u << kD0) | (1u << kD1) | (1u << kD2);
  return kernel_.SynthesizeInstall(s.Build(), Bindings(), nullptr,
                                   "nic_tx_batch_syn", nullptr, &topts);
}

Addr NicDevice::RxSlotAddr(uint32_t index) const {
  return rx_base_ + index * FrameLayout::kSlotBytes;
}

Addr NicDevice::TxSlotAddr(uint32_t index) const {
  return tx_base_ + index * FrameLayout::kSlotBytes;
}

void NicDevice::RefreshDemuxCell() {
  BlockId d = config_.synthesized_demux ? demux_.synthesized_demux()
                                        : demux_.generic_demux();
  Memory& mem = kernel_.machine().memory();
  // The inner cell always tracks the device's own demux, so a steering stage
  // in front survives a demux swap without being re-emitted.
  mem.Write32(inner_cell_, static_cast<uint32_t>(d));
  BlockId outer = demux_override_ != kInvalidBlock ? demux_override_ : d;
  mem.Write32(demux_cell_, static_cast<uint32_t>(outer));
  // Both batch cells track the same synthesized/generic knob, so one switch
  // flips the whole device (demux, RX dispatch loop, TX retire loop) between
  // the two variants. The synthesized side is the loop handle's active block
  // (the generic loop after a refused emit); before the handle registers it
  // is kInvalidBlock and the cell is left alone.
  for (const Batch* b : {&rx_batch_, &tx_batch_}) {
    if (b->cell == 0) {
      continue;
    }
    BlockId loop = config_.synthesized_demux ? kernel_.spec().ActiveOf(b->spec)
                                             : b->loop_gen;
    if (loop != kInvalidBlock) {
      mem.Write32(b->cell, static_cast<uint32_t>(loop));
    }
  }
  kernel_.machine().Charge(8, 1, 1);
}

void NicDevice::SetDemuxOverride(BlockId steer) {
  demux_override_ = steer;
  RefreshDemuxCell();
}

bool NicDevice::BindFlow(FlowSpec spec) {
  if (spec.ring == nullptr) {
    return false;
  }
  // A custom flow carries BOTH processor variants (the demux swaps between
  // them with the synthesized_demux knob); asking for one without the other
  // is a caller bug, not a fallback.
  bool custom = spec.synth_deliver != kInvalidBlock ||
                spec.generic_deliver != kInvalidBlock;
  if (custom) {
    if (spec.synth_deliver == kInvalidBlock ||
        spec.generic_deliver == kInvalidBlock) {
      return false;
    }
    if (!demux_.AddFlowCustom(spec.port, spec.ring->base, spec.ctx,
                              spec.synth_deliver, spec.generic_deliver)) {
      return false;
    }
  } else if (!demux_.AddFlow(spec.port, spec.ring->base, spec.fixed_len)) {
    return false;
  }
  const uint16_t port = spec.port;
  flows_.emplace(port, std::move(spec));
  return true;
}

bool NicDevice::RebindFlow(uint16_t port, BlockId synth_deliver) {
  auto it = flows_.find(port);
  if (it == flows_.end() || !demux_.SetFlowDeliver(port, synth_deliver)) {
    return false;
  }
  it->second.synth_deliver = synth_deliver;  // a migration rebinds it
  return true;
}

bool NicDevice::UnbindFlow(uint16_t port) {
  if (!demux_.RemoveFlow(port)) {
    return false;
  }
  flows_.erase(port);
  return true;
}

void NicDevice::SetWireFaults(double drop, double corrupt, double reorder,
                              double duplicate, double burst_loss) {
  config_.drop_rate = drop;
  config_.corrupt_rate = corrupt;
  config_.reorder_rate = reorder;
  config_.duplicate_rate = duplicate;
  config_.burst_loss_rate = burst_loss;
}

void NicDevice::UseSynthesizedDemux(bool on) {
  config_.synthesized_demux = on;
  RefreshDemuxCell();
}

bool NicDevice::Transmit(uint16_t dst_port, uint16_t src_port,
                         const uint8_t* payload, uint32_t n) {
  SendSpan span{payload, n};
  return TransmitV(dst_port, src_port, &span, 1);
}

bool NicDevice::TransmitV(uint16_t dst_port, uint16_t src_port,
                          const SendSpan* spans, uint32_t nspans) {
  uint32_t n = 0;
  for (uint32_t i = 0; i < nspans; i++) {
    n += spans[i].len;
  }
  if (n > FrameLayout::kMaxPayload || tx_inflight_ >= config_.tx_slots) {
    return false;
  }
  uint32_t slot = tx_next_ & (config_.tx_slots - 1);
  tx_next_++;
  WriteFrameV(kernel_.machine().memory(), TxSlotAddr(slot), dst_port, src_port,
              spans, nspans);
  if (tx_burst_open_) {
    // Burst member: descriptor fill and gather only — the driver-entry trap
    // and the doorbell (device register write, status read-back) are paid
    // once per burst, in the Begin/Commit bracket, not per frame.
    kernel_.machine().Charge(14 + n / 2, 2 + n / 4, 4 + n / 4);
  } else {
    // Driver cost: descriptor fill + frame copy into the TX slot + doorbell.
    kernel_.machine().Charge(40 + n / 2, 12 + n / 4, 4 + n / 4);
  }

  WireItem item;
  item.tx_slot = slot;
  if (burst_left_ > 0) {
    // A loss burst in progress swallows this frame too.
    burst_left_--;
    item.drop = true;
  } else if ((config_.burst_loss_rate > 0 &&
              uni_(rng_) < config_.burst_loss_rate) ||
             kernel_.faults().ShouldFire(FaultSite::kWireBurst)) {
    item.drop = true;
    burst_left_ = config_.burst_len == 0 ? 0 : config_.burst_len - 1;
  } else {
    item.drop = uni_(rng_) < config_.drop_rate ||
                kernel_.faults().ShouldFire(FaultSite::kWireDrop);
  }
  if (uni_(rng_) < config_.corrupt_rate) {
    item.corrupt_off = static_cast<int32_t>(
        uni_(rng_) * (FrameLayout::kPayload + (n == 0 ? 0 : n - 1)));
  } else if (kernel_.faults().ShouldFire(FaultSite::kWireCorrupt)) {
    // Plane-injected corruption flips a fixed byte (payload start, or the
    // checksum word for empty frames) so replays corrupt identically.
    item.corrupt_off = static_cast<int32_t>(
        n > 0 ? FrameLayout::kPayload : FrameLayout::kChecksum);
  }
  if (!item.drop && ((config_.duplicate_rate > 0 &&
                      uni_(rng_) < config_.duplicate_rate) ||
                     kernel_.faults().ShouldFire(FaultSite::kWireDup))) {
    item.dup = true;
  }
  if (!item.drop && ((config_.reorder_rate > 0 &&
                      uni_(rng_) < config_.reorder_rate) ||
                     kernel_.faults().ShouldFire(FaultSite::kWireReorder))) {
    item.delay_mult = 3;
  }
  bool queued = wire_.TryPut(item);
  assert(queued);
  (void)queued;
  tx_inflight_++;
  double complete_at;
  if (config_.serialize_tx) {
    // One DMA engine per NIC: frames stream out back to back, one every
    // tx_complete_us. This is the serialization sharding removes — each
    // extra NIC is an independent transmit lane.
    tx_busy_until_ = std::max(tx_busy_until_, kernel_.NowUs()) +
                     config_.tx_complete_us;
    complete_at = tx_busy_until_;
  } else {
    complete_at = kernel_.NowUs() + config_.tx_complete_us;
  }
  if (tx_burst_open_) {
    tx_staged_.push_back(StagedTx{slot, complete_at});
  } else {
    Arm(tx_batch_, slot, complete_at, complete_at + config_.tx_coalesce_us);
  }
  return true;
}

void NicDevice::BeginTxBurst() {
  // A no-op without TX coalescing: per-frame configs keep byte-identical
  // charges and interrupt schedules whether or not callers bracket sends.
  if (tx_batching()) {
    tx_burst_open_ = true;
  }
}

void NicDevice::CommitTxBurst() {
  if (!tx_burst_open_) {
    return;
  }
  tx_burst_open_ = false;
  if (tx_staged_.empty()) {
    return;
  }
  // One doorbell for the whole burst: tail-pointer write plus a cache line
  // of descriptor ownership bits per couple of frames.
  kernel_.machine().Charge(26 + 2 * static_cast<uint64_t>(tx_staged_.size()),
                           4, 2);
  for (const StagedTx& st : tx_staged_) {
    Arm(tx_batch_, st.slot, st.complete_at,
        st.complete_at + config_.tx_coalesce_us);
  }
  tx_staged_.clear();
}

void NicDevice::RetireOneTxCompletion() {
  WireItem item;
  if (!wire_.TryGet(item)) {
    // A completion dispatch with no frame on the wire: either an
    // interrupt-burst double fire, or (per-frame mode) a dispatch whose
    // frame an earlier duplicate dispatch already retired. Previously this
    // path also silently clamped the tx_inflight_ underflow; now it is
    // observable and the counter is provably untouched.
    tx_spurious_gauge_.Count();
    return;
  }
  tx_completed_++;
  // The wire holds exactly tx_inflight_ items (every TryPut pairs with an
  // increment), so a successful pop implies a positive count; hitting zero
  // here means double-completion accounting corruption, not load.
  assert(tx_inflight_ > 0 && "TX completion retired with nothing in flight");
  if (tx_inflight_ > 0) {
    tx_inflight_--;
  } else {
    tx_spurious_gauge_.Count();  // release builds: observable, not wrapped
  }
  kernel_.UnblockOne(tx_waiters_);
  if (item.drop) {
    wire_drop_gauge_.Count();
  } else {
    // DMA the frame across the wire into the next RX slot, applying any
    // injected corruption in transit. A reordered frame is held on the wire
    // for a multiple of the segment latency, so frames transmitted after it
    // overtake it; a duplicated frame lands in two RX slots, the echo one
    // round-trip later.
    Memory& mem = kernel_.machine().memory();
    Addr tx = TxSlotAddr(item.tx_slot);
    uint32_t len = std::min(mem.Read32(tx + FrameLayout::kLength),
                            FrameLayout::kMaxPayload);
    uint32_t bytes = FrameLayout::kPayload + len;
    double delay = config_.wire_latency_us * item.delay_mult;
    if (item.delay_mult > 1) {
      wire_reorder_gauge_.Count();
    }
    int copies = item.dup ? 2 : 1;
    for (int c = 0; c < copies; c++) {
      if (rx_inflight_ >= config_.rx_slots) {
        rx_overruns_++;
        break;
      }
      uint32_t rx_idx = rx_next_ & (config_.rx_slots - 1);
      rx_next_++;
      Addr rx = RxSlotAddr(rx_idx);
      mem.WriteBytes(rx, mem.raw(tx), bytes);
      if (item.corrupt_off >= 0 &&
          static_cast<uint32_t>(item.corrupt_off) < bytes) {
        mem.Write8(rx + static_cast<uint32_t>(item.corrupt_off),
                   mem.Read8(rx + static_cast<uint32_t>(item.corrupt_off)) ^
                       0xFF);
        corrupt_gauge_.Count();
      }
      kernel_.machine().Charge(20 + bytes / 4, 0, bytes / 2);
      rx_inflight_++;
      if (admission_hook_) {
        admission_hook_(rx_inflight_);
      }
      if (c == 1) {
        wire_dup_gauge_.Count();
      }
      ScheduleRxDelivery(rx_idx,
                         kernel_.NowUs() + delay +
                             c * 2 * config_.wire_latency_us);
    }
  }
  // The slot just freed may unstick a caller that deferred a send on a full
  // ring (the stream layer's ACK replay). Runs last: the ring has space and
  // re-entrant TransmitV calls are safe here.
  if (tx_drain_hook_) {
    tx_drain_hook_();
  }
}

void NicDevice::InjectRaw(uint32_t dst_port, uint32_t src_port,
                          const uint8_t* payload, uint32_t n, uint32_t checksum,
                          uint32_t length_field) {
  if (rx_inflight_ >= config_.rx_slots) {
    rx_overruns_++;
    return;
  }
  uint32_t rx_idx = rx_next_ & (config_.rx_slots - 1);
  rx_next_++;
  Memory& mem = kernel_.machine().memory();
  Addr rx = RxSlotAddr(rx_idx);
  mem.Write32(rx + FrameLayout::kDstPort, dst_port);
  mem.Write32(rx + FrameLayout::kSrcPort, src_port);
  mem.Write32(rx + FrameLayout::kLength, length_field);
  mem.Write32(rx + FrameLayout::kChecksum, checksum);
  if (n > 0) {
    mem.WriteBytes(rx + FrameLayout::kPayload, payload,
                   std::min(n, FrameLayout::kMaxPayload));
  }
  rx_inflight_++;
  if (admission_hook_) {
    admission_hook_(rx_inflight_);
  }
  ScheduleRxDelivery(rx_idx, kernel_.NowUs() + config_.wire_latency_us);
}

void NicDevice::ScheduleRxDelivery(uint32_t rx_idx, double at) {
  // Coalescing holds a frame's interrupt open for rx_coalesce_us past its
  // wire arrival so later completions ride the same dispatch. Flows bound
  // with batch=false (latency-sensitive) fire at arrival time; any frames
  // already due then are swept into their batch for free.
  double fire = at;
  if (batching()) {
    Memory& mem = kernel_.machine().memory();
    auto it = flows_.find(static_cast<uint16_t>(
        mem.Read32(RxSlotAddr(rx_idx) + FrameLayout::kDstPort)));
    if (it == flows_.end() || it->second.batch) {
      fire += config_.rx_coalesce_us;
    }
  }
  Arm(rx_batch_, rx_idx, at, fire);
}

// Schedules the interrupt for `slot`, due at `at`, on direction `b`. Without
// coalescing it is the slot's own interrupt at `at`. With it, the slot queues
// for the latch and the direction's one outstanding interrupt is advanced to
// `fire` (the due time plus the window) when that is earlier — so later
// frames of a burst ride the same dispatch.
void NicDevice::Arm(Batch& b, uint32_t slot, double at, double fire) {
  if (b.cell == 0) {
    kernel_.interrupts().Raise(at, b.vec, config_.irq_tag | slot);
    return;
  }
  b.pending.push_back(Pending{at, fire, b.seq++, slot});
  if (!b.armed || fire < b.next_fire) {
    kernel_.interrupts().Raise(fire, b.vec, config_.irq_tag);
    b.armed = true;
    b.next_fire = fire;
  }
}

}  // namespace synthesis
