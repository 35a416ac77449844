#include "src/net/nic_pool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/machine/assembler.h"
#include "src/net/frame.h"

namespace synthesis {

namespace {
// NIC index tag in the high half of an interrupt payload; the low half stays
// the device-local descriptor slot the per-NIC entry code expects.
constexpr uint32_t kTagShift = 16;
constexpr int32_t kSlotMask = 0xFFFF;
// The vectors the pool dispatches, indexed like dispatch_cell_/_spec_, and
// the name each one's shim and chain carry.
constexpr Vector kVectors[2] = {Vector::kNetRx, Vector::kNetTx};
constexpr const char* kVectorNames[2] = {"pool_rx", "pool_tx"};
}  // namespace

NicPool::NicPool(Kernel& kernel, NicPoolConfig config)
    : kernel_(kernel), config_(config) {
  assert(config_.initial_nics >= 1 && config_.initial_nics <= kMaxNics);
  // Inverted or degenerate watermarks make the armor either never engage or
  // never disengage — a bad config is a hard construction error, not a
  // debug-build assert (matching the ring/cache geometry checks).
  if (config_.shed_high_watermark <= config_.shed_low_watermark ||
      config_.shed_low_watermark == 0) {
    std::fprintf(stderr,
                 "NicPool: shed watermarks must satisfy high > low > 0 "
                 "(shed_high_watermark=%u shed_low_watermark=%u)\n",
                 config_.shed_high_watermark, config_.shed_low_watermark);
    std::abort();
  }
  if (config_.admission_control &&
      config_.shed_data_watermark <= config_.shed_high_watermark) {
    std::fprintf(stderr,
                 "NicPool: shed_data_watermark must exceed "
                 "shed_high_watermark (shed_data_watermark=%u "
                 "shed_high_watermark=%u)\n",
                 config_.shed_data_watermark, config_.shed_high_watermark);
    std::abort();
  }
  desc_ = kernel_.allocator().Allocate(kDescBytes);
  for (Addr& cell : dispatch_cell_) {
    cell = kernel_.allocator().Allocate(4);
  }
  steer_cell_ = kernel_.allocator().Allocate(4);
  shed_ctr_ = kernel_.allocator().Allocate(4);
  assert(desc_ != 0 && dispatch_cell_[0] != 0 && dispatch_cell_[1] != 0 &&
         steer_cell_ != 0 && shed_ctr_ != 0 &&
         "kernel memory exhausted bringing up the NIC pool");
  Memory& mem = kernel_.machine().memory();
  mem.Write32(shed_ctr_, 0);
  if (config_.admission_control) {
    shed_data_ctr_ = kernel_.allocator().Allocate(4);
    shed_bitmap_ = kernel_.allocator().Allocate(kShedBitmapBytes);
    shed_mask_tab_ = kernel_.allocator().Allocate(32 * 4);
    assert(shed_data_ctr_ != 0 && shed_bitmap_ != 0 && shed_mask_tab_ != 0 &&
           "kernel memory exhausted bringing up the admission filter");
    mem.Write32(shed_data_ctr_, 0);
    for (uint32_t w = 0; w < kShedBitmapBytes / 4; w++) {
      mem.Write32(shed_bitmap_ + 4 * w, 0);
    }
    for (uint32_t i = 0; i < 32; i++) {
      mem.Write32(shed_mask_tab_ + 4 * i, 1u << i);
    }
  }

  for (uint32_t i = 0; i < config_.initial_nics; i++) {
    AppendNic();
  }
  WriteDescriptor();

  // The generic steering loop is installed exactly once: it reloads the pool
  // geometry (NIC count, cell table) from the descriptor on every packet, so
  // any later AddNic is already covered — the defining property (and cost)
  // of the layered path. The dst-port hash is reduced by repeated
  // subtraction (no divider). It, the two shims and the dispatch chains
  // have no fallback, so they install exempt from injected refusal: a
  // refused one would leave the pool silently deaf.
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  Asm g("pool_steer_gen");
  g.Load32(kD0, kA1, FrameLayout::kDstPort);
  g.MoveI(kA2, static_cast<int32_t>(desc_));
  g.Move(kD7, kD0);
  g.LsrI(kD7, 8);
  g.Xor(kD0, kD7);
  g.AndI(kD0, 255);
  g.Load32(kD6, kA2, 0);  // live NIC count
  g.Label("mod");
  g.Cmp(kD0, kD6);
  g.Blt("done");
  g.Sub(kD0, kD6);
  g.Bra("mod");
  g.Label("done");
  g.LoadIdx32(kD7, kD0, static_cast<int32_t>(desc_ + 4));  // inner cell addr
  g.Move(kA2, kD7);
  g.Load32(kD7, kA2, 0);  // the owning NIC's current demux
  g.JsrInd(kD7);
  g.Rts();
  steer_generic_ = kernel_.SynthesizeInstallEssential(
      g.Build(), Bindings(), nullptr, "pool_steer_gen", nullptr, &verbatim);

  // One shim per vector, installed once: TTEs snapshot their vectors at
  // thread-creation time, so the re-emittable dispatch chain must sit behind
  // a cell the shim jumps through, not in the vector itself.
  for (int d = 0; d < 2; d++) {
    const std::string name = std::string(kVectorNames[d]) + "_shim";
    Asm s(name);
    s.LoadA32(kD7, static_cast<int32_t>(dispatch_cell_[d]));
    s.JmpInd(kD7);
    kernel_.SetDefaultVector(
        kVectors[d], kernel_.SynthesizeInstallEssential(
                         s.Build(), Bindings(), nullptr, name, nullptr, &verbatim));
  }

  RegisterHandles();
}

NicPool::~NicPool() {
  // The emit/install callbacks capture `this`; the handles must not outlive
  // the pool.
  kernel_.spec().Retire(steer_spec_);
  for (SpecId id : dispatch_spec_) {
    kernel_.spec().Retire(id);
  }
  kernel_.spec().Retire(shed_spec_);
}

void NicPool::AppendNic() {
  NicConfig nc = config_.nic;
  nc.irq_tag = static_cast<uint32_t>(nics_.size()) << kTagShift;
  nc.install_vectors = false;
  nics_.push_back(std::make_unique<NicDevice>(kernel_, nc));
  nics_.back()->SetAdmissionHook([this](uint32_t depth) { NoteRxDepth(depth); });
  if (tx_drain_hook_) {
    nics_.back()->SetTxDrainHook(tx_drain_hook_);
  }
}

void NicPool::SetTxDrainHook(std::function<void()> hook) {
  tx_drain_hook_ = std::move(hook);
  for (auto& n : nics_) {
    n->SetTxDrainHook(tx_drain_hook_);
  }
}

uint32_t NicPool::SteerOf(uint16_t port) const {
  uint32_t h = (static_cast<uint32_t>(port) ^ (port >> 8)) & 255u;
  return h % static_cast<uint32_t>(nics_.size());
}

void NicPool::WriteDescriptor() {
  Memory& mem = kernel_.machine().memory();
  mem.Write32(desc_, size());
  for (uint32_t i = 0; i < kMaxNics; i++) {
    mem.Write32(desc_ + 4 + 4 * i,
                i < size() ? nics_[i]->inner_cell_addr() : 0);
  }
  kernel_.machine().Charge(8 + 4 * kMaxNics, 2, 1 + kMaxNics);
}

void NicPool::RegisterHandles() {
  SpecDesc sd;
  sd.name = "pool_steer";
  sd.generic = steer_generic_;
  sd.adaptive = false;   // re-folded on geometry change, not on heat
  sd.evictable = false;  // one pool-wide block; eviction fodder lives below
  sd.emit = [this](SpecTier) { return BuildSteering(); };
  // A refusal fell back to the always-correct generic loop; the displaced
  // block retires deferred, after the cells are repointed.
  sd.install = [this](BlockId, SpecTier, SpecInstall) { ApplySteering(); };
  steer_spec_ = kernel_.spec().Register(std::move(sd));

  // The dispatch chains have no generic twin, so they install exempt from
  // injected refusal. A live-block cap can still refuse a re-emit: that
  // keeps the previous chain — stale (it misses the newest NIC) but safe;
  // the adaptation sweep retries while the handle stays degraded.
  for (int d = 0; d < 2; d++) {
    SpecDesc dd;
    dd.name = std::string(kVectorNames[d]) + "_dispatch";
    dd.adaptive = false;
    dd.evictable = false;
    dd.emit = [this, d](SpecTier) { return BuildDispatch(d); };
    dd.install = [this](BlockId, SpecTier, SpecInstall) { WireDispatch(); };
    dispatch_spec_[d] = kernel_.spec().Register(std::move(dd));
  }
  WireDispatch();

  if (config_.admission_control) {
    SpecDesc fd;
    fd.name = "pool_shed";
    fd.adaptive = false;   // re-shaped by watermarks and churn, not heat
    fd.evictable = false;  // the armor must not be an eviction victim
    fd.emit = [this](SpecTier) { return BuildShedFilter(); };
    fd.install = [this](BlockId, SpecTier, SpecInstall) {
      InstallShedFilter();
    };
    shed_spec_ = kernel_.spec().Register(std::move(fd));
    InstallShedFilter();
  }
  ApplySteering();
}

BlockId NicPool::BuildSteering() {
  steer_gen_++;
  const uint32_t n = size();
  const bool po2 = (n & (n - 1)) == 0;
  const std::string name = "pool_steer_syn#" + std::to_string(steer_gen_);

  Asm a(name);
  a.Load32(kD0, kA1, FrameLayout::kDstPort);
  a.Move(kD7, kD0);
  a.LsrI(kD7, 8);
  a.Xor(kD0, kD7);
  if (po2) {
    // N is a pool-geometry invariant and a power of two: the whole hash
    // reduction folds to one mask (Factoring Invariants).
    a.AndI(kD0, static_cast<int32_t>(n - 1));
  } else {
    a.AndI(kD0, 255);
    a.Label("mod");
    a.CmpI(kD0, static_cast<int32_t>(n));
    a.Blt("done");
    a.SubI(kD0, static_cast<int32_t>(n));
    a.Bra("mod");
    a.Label("done");
  }
  // Tail-jump through the owning NIC's inner cell: the demux returns straight
  // to the RX entry, no extra frame (Collapsing Layers).
  a.LoadIdx32(kD7, kD0, static_cast<int32_t>(desc_ + 4));
  a.Move(kA2, kD7);
  a.Load32(kD7, kA2, 0);
  a.JmpInd(kD7);

  SynthesisOptions opts = kernel_.config().synthesis;
  opts.live_out |= (1u << kD0) | (1u << kD1) | (1u << kD2);
  return kernel_.SynthesizeInstall(a.Build(), Bindings(), nullptr, name,
                                   nullptr, &opts);
}

BlockId NicPool::BuildDispatch(int d) {
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  const std::string name = std::string(kVectorNames[d]) + "_dispatch#" +
                           std::to_string(++dispatch_gen_);
  // d1 = tagged payload. High half selects the NIC, low half is the slot the
  // per-NIC entry expects in d1.
  Asm a(name);
  a.Move(kD6, kD1);
  a.LsrI(kD6, kTagShift);
  a.AndI(kD1, kSlotMask);
  for (uint32_t i = 0; i < size(); i++) {
    const std::string next = "n" + std::to_string(i);
    a.CmpI(kD6, static_cast<int32_t>(i));
    a.Bne(next);
    a.Jsr(static_cast<int32_t>(d == 0 ? nics_[i]->rx_entry()
                                      : nics_[i]->tx_entry()));
    a.Rts();
    a.Label(next);
  }
  a.Rts();  // unknown tag: drop on the floor
  return kernel_.SynthesizeInstallEssential(a.Build(), Bindings(), nullptr,
                                            name, nullptr, &verbatim);
}

void NicPool::WireDispatch() {
  // Before a chain first installs (a live-block cap refused it), its cell
  // keeps whatever it held.
  Memory& mem = kernel_.machine().memory();
  for (int d = 0; d < 2; d++) {
    const BlockId chain = kernel_.spec().ActiveOf(dispatch_spec_[d]);
    if (chain != kInvalidBlock) {
      mem.Write32(dispatch_cell_[d], static_cast<uint32_t>(chain));
    }
  }
}

namespace {
// Emits the level-2 class test at label "cls": a header-only segment (pure
// ack) or one whose flags word carries SYN/FIN/RST is control plane and
// branches to "pass"; bulk data bumps `data_ctr` and drops like a no-match.
void EmitClassTest(Asm& a, Addr data_ctr) {
  a.Label("cls");
  a.Load32(kD3, kA1, FrameLayout::kLength);
  a.CmpI(kD3, static_cast<int32_t>(NicPool::kShedCtrlMaxBytes));
  a.Bls("pass");
  a.Load32(kD3, kA1,
           FrameLayout::kPayload + NicPool::kShedCtrlFlagsOff);
  a.AndI(kD3, static_cast<int32_t>(NicPool::kShedCtrlFlagsMask));
  a.Tst(kD3);
  a.Bne("pass");
  a.LoadA32(kD1, static_cast<int32_t>(data_ctr));
  a.AddI(kD1, 1);
  a.StoreA32(static_cast<int32_t>(data_ctr), kD1);
  a.MoveI(kD0, -2);
  a.Rts();
}

// Emits the O(1) bitmap membership test: d0 = dst port on entry; branches to
// `hit` when the port's bit is set, falls through otherwise. The ISA has no
// variable shift, so the bit mask comes from a 32-entry table.
void EmitBitmapTest(Asm& a, Addr bitmap, Addr mask_tab,
                    const std::string& hit) {
  a.Move(kD1, kD0);
  a.LsrI(kD1, 5);
  a.LoadIdx32(kD3, kD1, static_cast<int32_t>(bitmap));
  a.Move(kD4, kD0);
  a.AndI(kD4, 31);
  a.LoadIdx32(kD4, kD4, static_cast<int32_t>(mask_tab));
  a.And(kD3, kD4);
  a.Tst(kD3);
  a.Bne(hit);
}
}  // namespace

BlockId NicPool::BuildShedFilter() {
  const uint32_t lvl = shed_level_ >= 2 ? 2u : 1u;
  shed_gen_++;
  const std::string name = "pool_shed#" + std::to_string(shed_gen_);
  // The synthesized early-drop filter: the current shed level compiled into
  // straight-line code around the bound-port bitmap test. Membership lives in
  // the bitmap, so binds and unbinds are bit writes and never re-emit the
  // filter. A control-plane frame falls through to the full steering stage
  // (via the steering cell, so steering re-emission never touches the
  // filter); everything shed is dropped after a handful of instructions — no
  // checksum, no ring append, no wakeup.
  Asm a(name);
  a.Load32(kD0, kA1, FrameLayout::kDstPort);
  EmitBitmapTest(a, shed_bitmap_, shed_mask_tab_, lvl == 2 ? "cls" : "pass");
  a.LoadA32(kD1, static_cast<int32_t>(shed_ctr_));
  a.AddI(kD1, 1);
  a.StoreA32(static_cast<int32_t>(shed_ctr_), kD1);
  a.MoveI(kD0, -2);  // same contract as a demux no-match
  a.Rts();
  if (lvl == 2) {
    EmitClassTest(a, shed_data_ctr_);
  }
  a.Label("pass");
  a.LoadA32(kD7, static_cast<int32_t>(steer_cell_));
  a.JmpInd(kD7);

  SynthesisOptions opts = kernel_.config().synthesis;
  opts.live_out |= (1u << kD0) | (1u << kD1) | (1u << kD2);
  BlockId blk = kernel_.SynthesizeInstall(a.Build(), Bindings(), nullptr, name,
                                          nullptr, &opts);
  if (blk != kInvalidBlock) {
    shed_filter_level_ = lvl;  // an emitted block always becomes active
  }
  return blk;
}

void NicPool::InstallShedFilter() {
  if (!shedding_) {
    return;
  }
  if (shed_filter() == kInvalidBlock) {
    // A refused emit degrades the handle, and a degraded filter's level no
    // longer matches the pool's, so refusal means armor off — the pool
    // serves the full path until a later emit succeeds (the adaptation sweep
    // retries while the handle stays degraded).
    shedding_ = false;
    shed_level_ = 0;
  }
  ApplySteering();  // repoint the cells before the displaced block drains
}

void NicPool::WriteShedBit(uint16_t port, bool on) {
  if (!config_.admission_control) {
    return;
  }
  Memory& mem = kernel_.machine().memory();
  Addr w = shed_bitmap_ + (static_cast<uint32_t>(port) >> 5) * 4;
  uint32_t v = static_cast<uint32_t>(mem.Read32(w));
  uint32_t m = 1u << (port & 31);
  mem.Write32(w, on ? (v | m) : (v & ~m));
  kernel_.machine().Charge(6, 1, 1);
}

void NicPool::EnterShedLevel(uint32_t lvl) {
  const uint32_t prev = shed_level_;
  shed_level_ = lvl;
  // Re-emitted on watermark engage when the emitted shape no longer matches
  // the level: the class test is folded into the filter's code, so
  // escalation changes the code, not a flag.
  if (shed_filter() == kInvalidBlock || shed_filter_level_ != lvl) {
    kernel_.spec().Reemit(shed_spec_);
  }
  if (shed_filter() == kInvalidBlock) {
    shed_level_ = 0;  // can't shed without a filter; serve the full path
    shedding_ = false;
    return;
  }
  shedding_ = true;
  if (prev == 0) {
    shed_engages_++;
  }
  if (lvl == 2) {
    shed_escalations_++;
  }
  ApplySteering();
}

void NicPool::ApplySteering() {
  // The steering cell always tracks the active steering block, so the shed
  // filter's pass path follows re-emissions without being re-emitted itself.
  kernel_.machine().memory().Write32(steer_cell_,
                                     static_cast<uint32_t>(active_steering()));
  const BlockId filter = shedding_ ? shed_filter() : kInvalidBlock;
  BlockId outer = filter != kInvalidBlock ? filter : active_steering();
  for (auto& nic : nics_) {
    nic->SetDemuxOverride(outer);
  }
}

void NicPool::NoteRxDepth(uint32_t depth) {
  if (!config_.admission_control) {
    return;
  }
  // Escalation ladder: level 1 (unknown-port drop) engages at the high
  // watermark; level 2 (bulk data sheds too, control stays admissible) at the
  // data watermark. De-escalation skips straight to level 0 — a pool drained
  // below the low watermark doesn't need either filter.
  if (shed_level_ == 0 && depth >= config_.shed_high_watermark) {
    EnterShedLevel(1);
  }
  if (shed_level_ == 1 && depth >= config_.shed_data_watermark) {
    EnterShedLevel(2);
  }
  if (shed_level_ == 0 || depth > config_.shed_low_watermark) {
    return;
  }
  // Hysteresis: swap the full path back only when the whole pool has drained.
  for (auto& nic : nics_) {
    if (nic->rx_inflight() > config_.shed_low_watermark) {
      return;
    }
  }
  shed_level_ = 0;
  shedding_ = false;
  ApplySteering();
}

bool NicPool::AddNic() {
  if (size() >= kMaxNics) {
    return false;
  }
  AppendNic();
  // Rebind flows whose hash moved, in port order so the migration replays
  // identically, each from the record its old NIC kept. The flow's
  // processors (the stream layer's CCB-absolute segment code) are
  // NIC-agnostic and move by reference; only cells on the affected NICs
  // change. The delivered count continues in the new owner's counter word.
  std::vector<std::pair<uint16_t, uint32_t>> moved;  // (port, old NIC)
  for (uint32_t i = 0; i < size(); i++) {
    for (const auto& [port, spec] : nics_[i]->flows()) {
      if (SteerOf(port) != i) {
        moved.emplace_back(port, i);
      }
    }
  }
  std::sort(moved.begin(), moved.end());
  for (const auto& [port, from] : moved) {
    FlowSpec spec = nics_[from]->flows().at(port);
    const auto delivered =
        static_cast<uint32_t>(nics_[from]->demux().delivered(port));
    NicDevice& to = *nics_[SteerOf(port)];
    bool ok = nics_[from]->UnbindFlow(port) && to.BindFlow(std::move(spec)) &&
              to.demux().SetDelivered(port, delivered);
    assert(ok);
    (void)ok;
  }
  WriteDescriptor();
  kernel_.spec().Reemit(steer_spec_);
  for (SpecId id : dispatch_spec_) {
    kernel_.spec().Reemit(id);
  }
  ApplySteering();
  return true;
}

void NicPool::UseSynthesizedSteering(bool on) {
  config_.synthesized_steering = on;
  ApplySteering();
}

void NicPool::UseSynthesizedDemux(bool on) {
  for (auto& nic : nics_) {
    nic->UseSynthesizedDemux(on);
  }
}

// Flow operations touch only tables: the owning NIC's demux cell and the
// bound-port bitmap. None of steering, the demux or the shed filter is
// re-emitted.
bool NicPool::BindFlow(FlowSpec spec) {
  const uint16_t port = spec.port;
  if (HasFlow(port) || !nic(SteerOf(port)).BindFlow(std::move(spec))) {
    return false;
  }
  WriteShedBit(port, true);
  return true;
}

bool NicPool::RebindFlow(uint16_t port, BlockId synth_deliver) {
  return nic(SteerOf(port)).RebindFlow(port, synth_deliver);
}

bool NicPool::UnbindFlow(uint16_t port) {
  if (!nic(SteerOf(port)).UnbindFlow(port)) {
    return false;
  }
  WriteShedBit(port, false);
  return true;
}

bool NicPool::Transmit(uint16_t dst_port, uint16_t src_port,
                       const uint8_t* payload, uint32_t n) {
  return nic(SteerOf(dst_port)).Transmit(dst_port, src_port, payload, n);
}

bool NicPool::TransmitV(uint16_t dst_port, uint16_t src_port,
                        const SendSpan* spans, uint32_t nspans) {
  return nic(SteerOf(dst_port)).TransmitV(dst_port, src_port, spans, nspans);
}

void NicPool::InjectRaw(uint32_t dst_port, uint32_t src_port,
                        const uint8_t* payload, uint32_t n, uint32_t checksum,
                        uint32_t length_field) {
  nic(SteerOf(static_cast<uint16_t>(dst_port)))
      .InjectRaw(dst_port, src_port, payload, n, checksum, length_field);
}

NicPool::AggregateStats NicPool::Aggregate() const {
  AggregateStats s;
  for (const auto& nic : nics_) {
    s.delivered += nic->demux().delivered_total();
    s.tx_completed += nic->tx_completed();
    s.rx_overruns += nic->rx_overruns();
    s.csum_rejects += nic->demux().csum_rejects();
    s.malformed += nic->demux().malformed();
    s.ring_drops += nic->demux().ring_drops();
    s.wire_drops += nic->wire_drop_gauge().events();
    s.tx_spurious += nic->tx_spurious_gauge().events();
  }
  const Memory& mem = kernel_.machine().memory();
  s.early_sheds = mem.Read32(shed_ctr_);
  if (shed_data_ctr_ != 0) {
    s.data_sheds = mem.Read32(shed_data_ctr_);
  }
  return s;
}

}  // namespace synthesis
