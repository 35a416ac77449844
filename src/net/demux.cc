#include "src/net/demux.h"

#include <cassert>
#include <cstring>
#include <string>

#include "src/io/channel.h"
#include "src/machine/assembler.h"

namespace synthesis {

namespace {

// Counter words, relative to ctrs_.
constexpr uint32_t kCtrCsum = 0;
constexpr uint32_t kCtrMalformed = 4;
constexpr uint32_t kCtrDrops = 8;
constexpr uint32_t kCtrTotal = 12;
constexpr uint32_t kCtrBytes = 16;

// Generic flow-table entry, relative to entry base (see FlowEntryLayout).
constexpr uint32_t kEntPort = FlowEntryLayout::kPort;
constexpr uint32_t kEntRing = FlowEntryLayout::kRing;
constexpr uint32_t kEntCtr = FlowEntryLayout::kCtr;
constexpr uint32_t kEntFixed = FlowEntryLayout::kFixed;
constexpr uint32_t kEntHandler = FlowEntryLayout::kHandler;
constexpr uint32_t kEntBytes = FlowEntryLayout::kBytes;

// Emits the counter-bump sequence `*addr_sym += 1` (clobbers d1).
void BumpCounter(Asm& a, const std::string& addr_sym) {
  a.LoadA32(kD1, Asm::Sym(addr_sym));
  a.AddI(kD1, 1);
  a.StoreA32(Asm::Sym(addr_sym), kD1);
}

// One byte into the flow ring at cursor d3 (specialized delivery): the buffer
// base and mask are symbolic holes the synthesizer folds to immediates.
void PutByteSpecialized(Asm& a) {
  a.Lea(kA2, kD3, Asm::Sym("buf"));
  a.Store8(kA2, kD1, 0);
  a.AddI(kD3, 1);
  a.AndI(kD3, Asm::Sym("mask"));
}

// The shared checksum verifier: a1 = frame, d0 = 1 ok / 0 mismatch.
// Clobbers d0, d1, d3, a4. Callers MUST have validated the length field
// (<= kMaxPayload) first: the loop trusts it.
CodeTemplate CsumTemplate() {
  Asm a("net_csum");
  a.Load32(kD0, kA1, FrameLayout::kDstPort);
  a.Load32(kD1, kA1, FrameLayout::kSrcPort);
  a.Add(kD0, kD1);
  a.Load32(kD3, kA1, FrameLayout::kLength);
  a.Add(kD0, kD3);
  a.Move(kA4, kA1);
  a.AddI(kA4, FrameLayout::kPayload);
  a.Label("loop");
  a.Tst(kD3);
  a.Beq("done");
  a.Load8(kD1, kA4, 0);
  a.Add(kD0, kD1);
  a.AddI(kA4, 1);
  a.SubI(kD3, 1);
  a.Bra("loop");
  a.Label("done");
  a.Load32(kD1, kA1, FrameLayout::kChecksum);
  a.Cmp(kD0, kD1);
  a.Beq("ok");
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("ok");
  a.MoveI(kD0, 1);
  a.Rts();
  return a.Build();
}

// The general single-byte ring put of Figure 1: a4 = ring, d1 = byte.
// Reloads head/tail/mask from the ring every call — the procedure-call-per-
// byte cost the synthesized path eliminates. Clobbers d0, d3, d4, d7, a6.
CodeTemplate Put1Template() {
  Asm a("net_put1");
  a.Load32(kD3, kA4, RingLayout::kHead);
  a.Lea(kD4, kD3, 1);
  a.Load32(kD7, kA4, RingLayout::kMask);
  a.And(kD4, kD7);
  a.Load32(kD0, kA4, RingLayout::kTail);
  a.Cmp(kD4, kD0);
  a.Beq("full");
  a.Move(kA6, kA4);
  a.AddI(kA6, RingLayout::kBuf);
  a.Add(kA6, kD3);
  a.Store8(kA6, kD1, 0);
  a.Store32(kA4, kD4, RingLayout::kHead);
  a.MoveI(kD0, 1);
  a.Rts();
  a.Label("full");
  a.MoveI(kD0, 0);
  a.Rts();
  return a.Build();
}

// Generic layered delivery: a1 = frame, a2 = flow-table entry, a4 = ring,
// d5 = payload length (validated). Space-checks, then moves the 4-byte
// header and the payload one generic put1 call per byte.
CodeTemplate DeliverGenericTemplate() {
  Asm a("net_deliver_gen");
  a.Load32(kD3, kA4, RingLayout::kHead);
  a.Load32(kD4, kA4, RingLayout::kTail);
  a.Load32(kD7, kA4, RingLayout::kMask);
  a.Move(kD0, kD4);
  a.Sub(kD0, kD3);
  a.SubI(kD0, 1);
  a.And(kD0, kD7);  // space = (tail - head - 1) & mask
  a.Move(kD1, kD5);
  a.AddI(kD1, 4);   // need = len + header
  a.Cmp(kD1, kD0);
  a.Bls("room");
  BumpCounter(a, "ctr_drop");
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("room");
  a.Move(kD1, kD5);
  a.AndI(kD1, 255);
  a.Jsr(Asm::Sym("put1"));
  a.Move(kD1, kD5);
  a.LsrI(kD1, 8);
  a.AndI(kD1, 255);
  a.Jsr(Asm::Sym("put1"));
  a.Load32(kD1, kA1, FrameLayout::kSrcPort);
  a.AndI(kD1, 255);
  a.Jsr(Asm::Sym("put1"));
  a.Load32(kD1, kA1, FrameLayout::kSrcPort);
  a.LsrI(kD1, 8);
  a.AndI(kD1, 255);
  a.Jsr(Asm::Sym("put1"));
  a.Move(kA3, kA1);
  a.AddI(kA3, FrameLayout::kPayload);
  a.Move(kD6, kD5);
  a.Label("ploop");
  a.Tst(kD6);
  a.Beq("pdone");
  a.Load8(kD1, kA3, 0);
  a.Jsr(Asm::Sym("put1"));
  a.AddI(kA3, 1);
  a.SubI(kD6, 1);
  a.Bra("ploop");
  a.Label("pdone");
  a.Load32(kA5, kA2, kEntCtr);  // per-flow delivered counter address
  a.Load32(kD1, kA5, 0);
  a.AddI(kD1, 1);
  a.Store32(kA5, kD1, 0);
  BumpCounter(a, "ctr_total");
  a.MoveI(kD0, 1);
  a.Rts();
  return a.Build();
}

// The generic interpreted demux: walks the flow table in memory, then runs
// checksum + delivery through procedure calls. a1 = frame base.
CodeTemplate GenericDemuxTemplate() {
  Asm a("net_demux_gen");
  a.Load32(kD2, kA1, FrameLayout::kDstPort);
  a.MoveI(kA2, Asm::Sym("ftab"));
  a.Load32(kD6, kA2, 0);  // live flow count
  a.AddI(kA2, 4);
  a.Label("loop");
  a.Tst(kD6);
  a.Beq("nomatch");
  a.Load32(kD1, kA2, kEntPort);
  a.Cmp(kD1, kD2);
  a.Beq("match");
  a.AddI(kA2, kEntBytes);
  a.SubI(kD6, 1);
  a.Bra("loop");
  a.Label("nomatch");
  a.MoveI(kD0, -2);
  a.Rts();
  a.Label("match");
  a.Load32(kD5, kA1, FrameLayout::kLength);
  a.MoveI(kD1, FrameLayout::kMaxPayload);
  a.Cmp(kD5, kD1);
  a.Bls("lenok");
  a.Label("bad");
  BumpCounter(a, "ctr_mal");
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("lenok");
  a.Load32(kD1, kA2, kEntFixed);
  a.Tst(kD1);
  a.Beq("flex");
  a.Cmp(kD1, kD5);
  a.Bne("bad");
  a.Label("flex");
  a.Jsr(Asm::Sym("csum"));
  a.Tst(kD0);
  a.Bne("ck");
  BumpCounter(a, "ctr_csum");
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("ck");
  a.Load32(kA4, kA2, kEntRing);
  // Per-flow handler dispatch: datagram flows point at the shared layered
  // delivery, custom flows (the stream layer) at their own segment processor.
  a.Load32(kD7, kA2, kEntHandler);
  a.JsrInd(kD7);
  a.Rts();
  return a.Build();
}

// The synthesized demux: one lookup through the two-level cell table, then
// a tail-jump through the cell into the flow's own deliver block, whose rts
// returns straight to the demux's caller. a1 = frame base. Root words hold
// leaf addresses in word units (leaves are 8-byte aligned), so the leaf index
// is one scaled load; root words of absent leaves point at the shared empty
// leaf, so only the cell itself is tested. Clobbers d0, d1, d7.
CodeTemplate TableDemuxTemplate() {
  Asm a("net_demux_syn");
  a.Load32(kD0, kA1, FrameLayout::kDstPort);
  a.CmpI(kD0, 0xFFFF);
  a.Bhi("nomatch");  // hostile dst words past the port space
  a.Move(kD1, kD0);
  a.LsrI(kD1, 8);
  a.LoadIdx32(kD1, kD1, Asm::Sym("root"));  // leaf base / 4
  a.AndI(kD0, 255);
  a.Add(kD1, kD0);
  a.LoadIdx32(kD7, kD1, 0);  // the cell: the flow's deliver block, 0 = unbound
  a.Tst(kD7);
  a.Beq("nomatch");
  a.JmpInd(kD7);
  a.Label("nomatch");
  a.MoveI(kD0, -2);
  a.Rts();
  return a.Build();
}

// Host-modelled table maintenance, identical for every flow count: an entry
// append or a swap-with-last removal (six words plus the count) and one cell
// store.
constexpr uint32_t kTableEditCycles = 40;
constexpr uint32_t kCellStoreCycles = 8;

}  // namespace

DemuxSynthesizer::DemuxSynthesizer(Kernel& kernel) : kernel_(kernel) {
  KernelAllocator& alloc = kernel_.allocator();
  ftab_ = alloc.Allocate(4 + kMaxFlows * kEntBytes);
  ctrs_ = alloc.Allocate(kCtrBytes);
  root_ = alloc.Allocate(kRootWords * 4);
  empty_leaf_ = alloc.Allocate(kLeafCells * 4);
  assert(ftab_ != 0 && ctrs_ != 0 && root_ != 0 && empty_leaf_ != 0 &&
         "kernel memory exhausted bringing up a demux");
  Memory& mem = kernel_.machine().memory();
  mem.Write32(ftab_, 0);
  for (uint32_t off = 0; off < kCtrBytes; off += 4) {
    mem.Write32(ctrs_ + off, 0);
  }
  std::memset(mem.raw(empty_leaf_), 0, kLeafCells * 4);
  for (uint32_t i = 0; i < kRootWords; i++) {
    mem.Write32(root_ + 4 * i, empty_leaf_ / 4);
  }

  // The generic path is installed verbatim: it IS the unspecialized layered
  // kernel a traditional protocol stack runs on every packet. It and the
  // shared helpers are every flow's fallback and have none of their own, so
  // they install exempt from injected refusal.
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  put1_ = kernel_.SynthesizeInstallEssential(Put1Template(), Bindings(), nullptr,
                                             "net_put1", nullptr, &verbatim);
  csum_ = kernel_.SynthesizeInstallEssential(CsumTemplate(), Bindings(), nullptr,
                                             "net_csum", nullptr, &verbatim);
  Bindings dg;
  dg.Set("put1", static_cast<int32_t>(put1_));
  dg.Set("ctr_drop", static_cast<int32_t>(ctrs_ + kCtrDrops));
  dg.Set("ctr_total", static_cast<int32_t>(ctrs_ + kCtrTotal));
  deliver_gen_ = kernel_.SynthesizeInstallEssential(
      DeliverGenericTemplate(), dg, nullptr, "net_deliver_gen", nullptr,
      &verbatim);
  Bindings gd;
  gd.Set("ftab", static_cast<int32_t>(ftab_));
  gd.Set("csum", static_cast<int32_t>(csum_));
  gd.Set("ctr_mal", static_cast<int32_t>(ctrs_ + kCtrMalformed));
  gd.Set("ctr_csum", static_cast<int32_t>(ctrs_ + kCtrCsum));
  generic_ = kernel_.SynthesizeInstallEssential(
      GenericDemuxTemplate(), gd, nullptr, "net_demux_gen", nullptr, &verbatim);

  // The lookup block sits behind a Specializer handle whose fallback is the
  // generic walk: a refused install serves every frame through the walk
  // (slower, never wrong, since both read tables the flow operations keep
  // current). It is emitted here and never again — flow churn rewrites
  // cells, not code — so it is neither adaptive nor an eviction victim.
  SpecDesc sd;
  sd.name = "net_demux@" + std::to_string(root_);
  sd.generic = generic_;
  sd.adaptive = false;
  sd.evictable = false;
  sd.emit = [this](SpecTier) { return BuildTableDemux(); };
  sd.install = [this](BlockId, SpecTier, SpecInstall) {
    if (swap_hook_) {
      swap_hook_();
    }
  };
  spec_ = kernel_.spec().Register(std::move(sd));
}

BlockId DemuxSynthesizer::synthesized_demux() const {
  return kernel_.spec().ActiveOf(spec_);
}

DemuxSynthesizer::~DemuxSynthesizer() { kernel_.spec().Retire(spec_); }

BlockId DemuxSynthesizer::BuildTableDemux() {
  Bindings b;
  b.Set("root", static_cast<int32_t>(root_));
  SynthesisOptions opts = kernel_.config().synthesis;
  opts.live_out |= (1u << kD0) | (1u << kD1) | (1u << kD2);
  return kernel_.SynthesizeInstall(TableDemuxTemplate(), b, nullptr,
                                   "net_demux_syn@" + std::to_string(root_),
                                   nullptr, &opts);
}

Addr DemuxSynthesizer::LeafOf(uint16_t port) const {
  return 4 * kernel_.machine().memory().Read32(root_ + 4 * (port >> 8));
}

Addr DemuxSynthesizer::CellAddr(uint16_t port) const {
  return LeafOf(port) + 4 * (port & 255u);
}

bool DemuxSynthesizer::EnsureLeaf(uint16_t port) {
  if (LeafOf(port) != empty_leaf_) {
    return true;
  }
  const Addr leaf = kernel_.allocator().Allocate(kLeafCells * 4);
  if (leaf == 0) {
    return false;
  }
  Memory& mem = kernel_.machine().memory();
  std::memset(mem.raw(leaf), 0, kLeafCells * 4);
  mem.Write32(root_ + 4 * (port >> 8), leaf / 4);
  kernel_.machine().Charge(2 * kLeafCells, 0, kLeafCells + 1);  // zero fill
  return true;
}

void DemuxSynthesizer::ReleaseLeafIfEmpty(uint16_t port) {
  const Addr leaf = LeafOf(port);
  if (leaf_live_[port >> 8] != 0 || leaf == empty_leaf_) {
    return;
  }
  kernel_.machine().memory().Write32(root_ + 4 * (port >> 8), empty_leaf_ / 4);
  kernel_.allocator().Free(leaf);
}

bool DemuxSynthesizer::Reserve(uint16_t port, Flow* f) {
  if (flows_.size() >= kMaxFlows || HasFlow(port) || !EnsureLeaf(port)) {
    return false;
  }
  f->port = port;
  f->ctr = kernel_.allocator().Allocate(4);
  if (f->ctr == 0) {
    ReleaseLeafIfEmpty(port);  // allocator exhausted (or injected)
    return false;
  }
  kernel_.machine().memory().Write32(f->ctr, 0);
  return true;
}

void DemuxSynthesizer::Unreserve(const Flow& f) {
  kernel_.allocator().Free(f.ctr);
  ReleaseLeafIfEmpty(f.port);
}

void DemuxSynthesizer::Commit(const Flow& f) {
  const uint32_t i = static_cast<uint32_t>(flows_.size());
  flows_.push_back(f);
  index_[f.port] = i;
  WriteEntry(i);
  // Publish the entry before the count, and the cell last: each table is
  // consistent at every step.
  Memory& mem = kernel_.machine().memory();
  mem.Write32(ftab_, i + 1);
  mem.Write32(CellAddr(f.port), static_cast<uint32_t>(f.deliver));
  leaf_live_[f.port >> 8]++;
  kernel_.machine().Charge(kTableEditCycles, 4, 8);
}

void DemuxSynthesizer::WriteEntry(uint32_t i) {
  Memory& mem = kernel_.machine().memory();
  const Flow& f = flows_[i];
  const Addr e = ftab_ + 4 + i * kEntBytes;
  mem.Write32(e + kEntPort, f.port);
  mem.Write32(e + kEntRing, f.ring);
  mem.Write32(e + kEntCtr, f.ctr);
  mem.Write32(e + kEntFixed, f.fixed_len);
  mem.Write32(e + kEntHandler, f.handler);
  mem.Write32(e + FlowEntryLayout::kCtx, f.ctx);
}

bool DemuxSynthesizer::AddFlow(uint16_t port, Addr ring_base, uint32_t fixed_len) {
  Flow f;
  if (fixed_len > FrameLayout::kMaxPayload || !Reserve(port, &f)) {
    return false;
  }
  f.ring = ring_base;
  f.fixed_len = fixed_len;
  f.handler = deliver_gen_;
  f.deliver = SynthesizeDeliver(f);
  if (f.deliver == kInvalidBlock) {
    Unreserve(f);  // code-store pressure: undo and refuse
    return false;
  }
  f.owns_deliver = true;
  Commit(f);
  return true;
}

bool DemuxSynthesizer::AddFlowCustom(uint16_t port, Addr ring_base, Addr ctx,
                                     BlockId synth_deliver,
                                     BlockId generic_deliver) {
  Flow f;
  if (!Reserve(port, &f)) {
    return false;  // surfaced to the caller; its deliver blocks stay its own
  }
  f.ring = ring_base;
  f.ctx = ctx;
  f.handler = generic_deliver;
  f.deliver = synth_deliver;
  Commit(f);
  return true;
}

bool DemuxSynthesizer::SetFlowDeliver(uint16_t port, BlockId synth_deliver) {
  auto it = index_.find(port);
  if (it == index_.end() || flows_[it->second].owns_deliver) {
    return false;  // unbound, or a datagram flow whose deliver the demux owns
  }
  flows_[it->second].deliver = synth_deliver;
  kernel_.machine().memory().Write32(CellAddr(port),
                                     static_cast<uint32_t>(synth_deliver));
  kernel_.machine().Charge(kCellStoreCycles, 1, 1);
  return true;
}

bool DemuxSynthesizer::RemoveFlow(uint16_t port) {
  auto it = index_.find(port);
  if (it == index_.end()) {
    return false;
  }
  const uint32_t i = it->second;
  index_.erase(it);
  Memory& mem = kernel_.machine().memory();
  // Clear the cell first, so the synthesized path stops matching before the
  // generic table changes under it.
  mem.Write32(CellAddr(port), 0);
  leaf_live_[port >> 8]--;
  const Flow gone = flows_[i];
  // Swap-with-last removal keeps the generic table dense in O(1).
  const uint32_t last = static_cast<uint32_t>(flows_.size()) - 1;
  if (i != last) {
    flows_[i] = flows_[last];
    index_[flows_[i].port] = i;
    WriteEntry(i);
  }
  flows_.pop_back();
  mem.Write32(ftab_, last);
  kernel_.machine().Charge(kTableEditCycles, 4, 8);
  ReleaseLeafIfEmpty(port);
  kernel_.allocator().Free(gone.ctr);
  if (gone.owns_deliver) {
    kernel_.RetireBlock(gone.deliver);
  }
  return true;
}

BlockId DemuxSynthesizer::SynthesizeDeliver(const Flow& f) const {
  Memory& mem = kernel_.machine().memory();
  uint32_t mask = mem.Read32(f.ring + RingLayout::kMask);
  const std::string name = "net_deliver$" + std::to_string(f.port);
  const bool unrolled = f.fixed_len > 0 && f.fixed_len <= kUnrollLimit;

  Asm a(name);
  a.MoveI(kD2, Asm::Sym("port"));  // matched port, for the NIC wake path
  a.Load32(kD5, kA1, FrameLayout::kLength);
  if (f.fixed_len > 0) {
    // The datagram size is a flow invariant: anything else is malformed.
    a.CmpI(kD5, Asm::Sym("fixed"));
    a.Beq("lenok");
  } else {
    a.MoveI(kD1, FrameLayout::kMaxPayload);
    a.Cmp(kD5, kD1);
    a.Bls("lenok");
  }
  BumpCounter(a, "ctr_mal");
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("lenok");
  if (unrolled) {
    // Checksum with the length folded in and the byte loop unrolled.
    a.Load32(kD0, kA1, FrameLayout::kDstPort);
    a.Load32(kD1, kA1, FrameLayout::kSrcPort);
    a.Add(kD0, kD1);
    a.AddI(kD0, Asm::Sym("fixed"));
    for (uint32_t i = 0; i < f.fixed_len; i++) {
      a.Load8(kD1, kA1, FrameLayout::kPayload + i);
      a.Add(kD0, kD1);
    }
    a.Load32(kD1, kA1, FrameLayout::kChecksum);
    a.Cmp(kD0, kD1);
    a.Beq("ck");
  } else {
    a.Jsr(Asm::Sym("csum"));  // inlined by Collapsing Layers
    a.Tst(kD0);
    a.Bne("ck");
  }
  BumpCounter(a, "ctr_csum");
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("ck");
  // Space check against folded ring constants; need = len + 4-byte header.
  a.LoadA32(kD3, Asm::Sym("head"));
  a.LoadA32(kD4, Asm::Sym("tail"));
  a.Move(kD0, kD4);
  a.Sub(kD0, kD3);
  a.SubI(kD0, 1);
  a.AndI(kD0, Asm::Sym("mask"));
  a.Move(kD1, kD5);
  a.AddI(kD1, 4);
  a.Cmp(kD1, kD0);
  a.Bls("room");
  BumpCounter(a, "ctr_drop");
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("room");
  // Bulk insert with the producer index in d3, published once at the end —
  // the optimistic SPSC discipline (§3.2: publish last).
  const bool folded_append = f.fixed_len > 0 && f.fixed_len + 4 <= mask + 1;
  if (folded_append) {
    // Folded contiguous append: with the record stride a flow invariant, the
    // header bytes become immediates and the payload copy runs against a raw
    // buffer pointer with no per-byte masking. ONE compare decides whether
    // the record straddles the buffer edge; the straddling case (at most
    // once per ring lap) falls through to the masked per-byte code below.
    a.CmpI(kD3, Asm::Sym("cap_rec"));
    a.Bhi("slow");
    a.Lea(kA2, kD3, Asm::Sym("buf"));
    a.MoveI(kD1, Asm::Sym("len_lo"));
    a.Store8(kA2, kD1, 0);
    a.MoveI(kD1, Asm::Sym("len_hi"));
    a.Store8(kA2, kD1, 1);
    a.Load32(kD1, kA1, FrameLayout::kSrcPort);
    a.Store8(kA2, kD1, 2);
    a.LsrI(kD1, 8);
    a.Store8(kA2, kD1, 3);
    if (unrolled) {
      for (uint32_t i = 0; i < f.fixed_len; i++) {
        a.Load8(kD1, kA1, FrameLayout::kPayload + i);
        a.Store8(kA2, kD1, 4 + static_cast<int32_t>(i));
      }
    } else {
      a.Move(kA3, kA1);
      a.AddI(kA3, FrameLayout::kPayload);
      a.AddI(kA2, 4);
      a.Move(kD6, kD5);
      a.Label("floop");
      a.Tst(kD6);
      a.Beq("fdone");
      a.Load8(kD1, kA3, 0);
      a.Store8(kA2, kD1, 0);
      a.AddI(kA3, 1);
      a.AddI(kA2, 1);
      a.SubI(kD6, 1);
      a.Bra("floop");
      a.Label("fdone");
    }
    a.AddI(kD3, Asm::Sym("rec"));
    a.AndI(kD3, Asm::Sym("mask"));
    a.Bra("pub");
    a.Label("slow");
  }
  a.Move(kD1, kD5);
  a.AndI(kD1, 255);
  PutByteSpecialized(a);
  a.Move(kD1, kD5);
  a.LsrI(kD1, 8);
  a.AndI(kD1, 255);
  PutByteSpecialized(a);
  a.Load32(kD1, kA1, FrameLayout::kSrcPort);
  a.AndI(kD1, 255);
  PutByteSpecialized(a);
  a.Load32(kD1, kA1, FrameLayout::kSrcPort);
  a.LsrI(kD1, 8);
  a.AndI(kD1, 255);
  PutByteSpecialized(a);
  if (unrolled) {
    for (uint32_t i = 0; i < f.fixed_len; i++) {
      a.Load8(kD1, kA1, FrameLayout::kPayload + i);
      PutByteSpecialized(a);
    }
  } else {
    a.Move(kA3, kA1);
    a.AddI(kA3, FrameLayout::kPayload);
    a.Move(kD6, kD5);
    a.Label("uloop");
    a.Tst(kD6);
    a.Beq("udone");
    a.Load8(kD1, kA3, 0);
    PutByteSpecialized(a);
    a.AddI(kA3, 1);
    a.SubI(kD6, 1);
    a.Bra("uloop");
    a.Label("udone");
  }
  a.Label("pub");
  a.StoreA32(Asm::Sym("head"), kD3);
  BumpCounter(a, "ctr_flow");
  BumpCounter(a, "ctr_total");
  a.MoveI(kD0, 1);
  a.Rts();

  Bindings b;
  b.Set("port", f.port);
  b.Set("fixed", static_cast<int32_t>(f.fixed_len));
  if (folded_append) {
    const uint32_t rec = f.fixed_len + 4;
    b.Set("rec", static_cast<int32_t>(rec));
    b.Set("cap_rec", static_cast<int32_t>(mask + 1 - rec));
    b.Set("len_lo", static_cast<int32_t>(f.fixed_len & 255u));
    b.Set("len_hi", static_cast<int32_t>((f.fixed_len >> 8) & 255u));
  }
  b.Set("csum", static_cast<int32_t>(csum_));
  b.Set("head", static_cast<int32_t>(f.ring + RingLayout::kHead));
  b.Set("tail", static_cast<int32_t>(f.ring + RingLayout::kTail));
  b.Set("buf", static_cast<int32_t>(f.ring + RingLayout::kBuf));
  b.Set("mask", static_cast<int32_t>(mask));
  b.Set("ctr_mal", static_cast<int32_t>(ctrs_ + kCtrMalformed));
  b.Set("ctr_csum", static_cast<int32_t>(ctrs_ + kCtrCsum));
  b.Set("ctr_drop", static_cast<int32_t>(ctrs_ + kCtrDrops));
  b.Set("ctr_flow", static_cast<int32_t>(f.ctr));
  b.Set("ctr_total", static_cast<int32_t>(ctrs_ + kCtrTotal));
  SynthesisOptions opts = kernel_.config().synthesis;
  opts.live_out |= (1u << kD0) | (1u << kD1) | (1u << kD2);
  // Bindings with unbound "fixed"/"port" would abort: the template binds all.
  return kernel_.SynthesizeInstall(a.Build(), b, nullptr, name, nullptr, &opts);
}

uint64_t DemuxSynthesizer::csum_rejects() const {
  return kernel_.machine().memory().Read32(ctrs_ + kCtrCsum);
}
uint64_t DemuxSynthesizer::malformed() const {
  return kernel_.machine().memory().Read32(ctrs_ + kCtrMalformed);
}
uint64_t DemuxSynthesizer::ring_drops() const {
  return kernel_.machine().memory().Read32(ctrs_ + kCtrDrops);
}
uint64_t DemuxSynthesizer::delivered_total() const {
  return kernel_.machine().memory().Read32(ctrs_ + kCtrTotal);
}
uint64_t DemuxSynthesizer::delivered(uint16_t port) const {
  auto it = index_.find(port);
  return it == index_.end()
             ? 0
             : kernel_.machine().memory().Read32(flows_[it->second].ctr);
}

Addr DemuxSynthesizer::ctr_malformed_addr() const {
  return ctrs_ + kCtrMalformed;
}
Addr DemuxSynthesizer::ctr_csum_addr() const { return ctrs_ + kCtrCsum; }

bool DemuxSynthesizer::SetDelivered(uint16_t port, uint32_t count) {
  auto it = index_.find(port);
  if (it == index_.end()) {
    return false;
  }
  kernel_.machine().memory().Write32(flows_[it->second].ctr, count);
  kernel_.machine().Charge(kCellStoreCycles, 1, 1);
  return true;
}

}  // namespace synthesis
