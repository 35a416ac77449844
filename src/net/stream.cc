#include "src/net/stream.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "src/machine/assembler.h"

namespace synthesis {

namespace {

// Emits `*addr_sym += 1` (clobbers d1).
void BumpCounter(Asm& a, const std::string& addr_sym) {
  a.LoadA32(kD1, Asm::Sym(addr_sym));
  a.AddI(kD1, 1);
  a.StoreA32(Asm::Sym(addr_sym), kD1);
}

// Emits `events |= bit` through the CCB pointer in a5 (clobbers d1).
void OrEvent(Asm& a, uint32_t bit) {
  a.Load32(kD1, kA5, CcbLayout::kEvents);
  a.OrI(kD1, static_cast<int32_t>(bit));
  a.Store32(kA5, kD1, CcbLayout::kEvents);
}

// Emits `events |= bit` through the folded CCB address (clobbers d1).
void OrEventA(Asm& a, uint32_t bit) {
  a.LoadA32(kD1, Asm::Sym("ev"));
  a.OrI(kD1, static_cast<int32_t>(bit));
  a.StoreA32(Asm::Sym("ev"), kD1);
}

// Timer deadlines are compared at integer-microsecond granularity: the
// virtual clock is a double, and a float-epsilon compare makes coalesced
// alarms at "the same" deadline fire or skip depending on accumulated
// rounding. Rounding both sides to a tick makes the decision deterministic.
uint64_t TimerTicks(double us) {
  return static_cast<uint64_t>(std::llround(us));
}

// Sweep cadence when only degraded connections (no keepalive) want the sweep:
// how often the layer re-attempts synthesis once code-store pressure drains.
constexpr double kResynthSweepUs = 20000.0;

// At most this many keepalive probes leave per sweep tick; the rest of the
// watched set resumes next tick, round-robin. A probe is cheap to send but its
// answer is a full delivery through the owning demux — fanning out every
// probe at once makes one tick's cost grow with the watched-connection count
// until a cycle charges more than its own period and the alarm livelocks.
constexpr uint32_t kMaxProbesPerSweep = 8;

// Upper bound on the adaptive cadence stretch: a 16x-stretched keepalive still
// reaps dead peers, just later; an unbounded stretch would let one pathological
// cycle turn the reaper off in all but name.
constexpr uint32_t kMaxSweepStretch = 16;

// Narrows a 64-bit host counter into the post-mortem record, saturating.
uint32_t Saturate32(uint64_t v) {
  return static_cast<uint32_t>(
      std::min<uint64_t>(v, std::numeric_limits<uint32_t>::max()));
}

// The GENERIC segment processor, shared by every connection: the layered
// baseline. Called from the generic demux's handler dispatch with a1 = frame,
// a2 = flow-table entry, a4 = ring, d5 = validated length (d2, the matched
// port, must survive). Checksum and max-length were already verified by the
// generic demux walk. Everything here is a pointer chase: the CCB comes from
// the flow entry, every connection variable is register-indirect, and payload
// bytes go through the generic one-call-per-byte ring put.
CodeTemplate GenericStreamTemplate() {
  Asm a("net_stream_gen");
  a.Load32(kA5, kA2, FlowEntryLayout::kCtx);  // the CCB
  a.CmpI(kD5, StreamSeg::kHdrBytes - 1);
  a.Bhi("hdrok");
  BumpCounter(a, "ctr_mal");  // too short to hold a segment header
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("hdrok");
  a.Store32(kA5, kA1, CcbLayout::kLastFrame);
  a.Load32(kD0, kA5, CcbLayout::kState);
  a.CmpI(kD0, CcbLayout::kEstablished);
  a.Beq("fast");
  a.CmpI(kD0, CcbLayout::kFinSent);
  a.Beq("fast");
  a.Label("ctrl");  // handshake / FIN / RST: the host protocol half decides
  OrEvent(a, CcbLayout::kEvCtrl);
  a.MoveI(kD0, 1);
  a.Rts();
  a.Label("fast");
  a.Load32(kD1, kA1, FrameLayout::kSrcPort);
  a.Load32(kD0, kA5, CcbLayout::kPeer);
  a.Cmp(kD1, kD0);
  a.Beq("peerok");
  OrEvent(a, CcbLayout::kEvBadSeg);
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("peerok");
  a.Load32(kD6, kA1, FrameLayout::kPayload + StreamSeg::kFlags);
  a.Move(kD1, kD6);
  a.AndI(kD1, StreamSeg::kFlagSyn | StreamSeg::kFlagFin | StreamSeg::kFlagRst);
  a.Tst(kD1);
  a.Bne("ctrl");
  // Cumulative ack: advance snd_una when una < ack <= snd_nxt in SERIAL
  // arithmetic — the sign of the 32-bit difference — so the comparison
  // survives sequence wraparound. Count a duplicate only for a pure ack
  // repeating una while data is outstanding.
  a.Load32(kD4, kA1, FrameLayout::kPayload + StreamSeg::kAck);
  a.Load32(kD0, kA5, CcbLayout::kSndUna);
  a.Move(kD1, kD4);
  a.Sub(kD1, kD0);
  a.Tst(kD1);
  a.Ble("noadv");  // (ack - una) <= 0 signed: no advance
  a.Load32(kD1, kA5, CcbLayout::kSndNxt);
  a.Move(kD7, kD4);
  a.Sub(kD7, kD1);
  a.Tst(kD7);
  a.Bgt("ackdone");  // (ack - nxt) > 0 signed: acks data never sent, ignore
  a.Store32(kA5, kD4, CcbLayout::kSndUna);
  OrEvent(a, CcbLayout::kEvAckAdvance);
  a.MoveI(kD1, 0);
  a.Store32(kA5, kD1, CcbLayout::kDupAcks);
  a.Bra("ackdone");
  a.Label("noadv");
  a.Bne("ackdone");  // ack - una != 0: stale, nothing to record
  a.CmpI(kD5, StreamSeg::kHdrBytes);
  a.Bne("ackdone");  // carries data: not a duplicate ack
  a.Load32(kD1, kA5, CcbLayout::kSndNxt);
  a.Cmp(kD1, kD0);
  a.Beq("ackdone");  // nothing outstanding
  a.Load32(kD1, kA5, CcbLayout::kDupAcks);
  a.AddI(kD1, 1);
  a.Store32(kA5, kD1, CcbLayout::kDupAcks);
  OrEvent(a, CcbLayout::kEvDupAck);
  a.Label("ackdone");
  // In-order data lands in the ring; anything else is counted and re-acked.
  a.Move(kD6, kD5);
  a.SubI(kD6, StreamSeg::kHdrBytes);
  a.Tst(kD6);
  a.Beq("okout");
  a.Load32(kD4, kA1, FrameLayout::kPayload + StreamSeg::kSeq);
  a.Load32(kD0, kA5, CcbLayout::kRcvNxt);
  a.Cmp(kD4, kD0);
  a.Beq("seqok");
  a.Load32(kD1, kA5, CcbLayout::kOoo);
  a.AddI(kD1, 1);
  a.Store32(kA5, kD1, CcbLayout::kOoo);
  OrEvent(a, CcbLayout::kEvOoo);
  a.Bra("okout");
  a.Label("seqok");
  a.Load32(kD3, kA4, RingLayout::kHead);
  a.Load32(kD4, kA4, RingLayout::kTail);
  a.Load32(kD7, kA4, RingLayout::kMask);
  a.Move(kD0, kD4);
  a.Sub(kD0, kD3);
  a.SubI(kD0, 1);
  a.And(kD0, kD7);  // space = (tail - head - 1) & mask
  a.Cmp(kD6, kD0);
  a.Bls("room");
  OrEvent(a, CcbLayout::kEvRingFull);
  a.Bra("okout");
  a.Label("room");
  a.Move(kA3, kA1);
  a.AddI(kA3, FrameLayout::kPayload + StreamSeg::kHdrBytes);
  a.Label("cloop");
  a.Tst(kD6);
  a.Beq("cdone");
  a.Load8(kD1, kA3, 0);
  a.Jsr(Asm::Sym("put1"));  // the generic ring put, one call per byte
  a.AddI(kA3, 1);
  a.SubI(kD6, 1);
  a.Bra("cloop");
  a.Label("cdone");
  a.Move(kD6, kD5);
  a.SubI(kD6, StreamSeg::kHdrBytes);
  a.Load32(kD1, kA5, CcbLayout::kRcvNxt);
  a.Add(kD1, kD6);
  a.Store32(kA5, kD1, CcbLayout::kRcvNxt);
  a.Load32(kD1, kA5, CcbLayout::kAccepted);
  a.AddI(kD1, 1);
  a.Store32(kA5, kD1, CcbLayout::kAccepted);
  OrEvent(a, CcbLayout::kEvData);
  a.Label("okout");
  a.MoveI(kD0, 1);
  a.Rts();
  return a.Build();
}

}  // namespace

StreamLayer::StreamLayer(Kernel& kernel, IoSystem& io, NicPool& pool)
    : kernel_(kernel), io_(io), pool_(pool) {
  timer_vec_ = kernel_.RegisterHostTrap([this](Machine& m) {
    OnTimer(static_cast<ConnId>(m.reg(kD1)));
    return TrapAction::kContinue;
  });
  sweep_vec_ = kernel_.RegisterHostTrap([this](Machine&) {
    SweepTick();
    return TrapAction::kContinue;
  });
  probe_vec_ = kernel_.RegisterHostTrap([this](Machine& m) {
    FinishProbe(static_cast<ConnId>(m.reg(kD1)));
    return TrapAction::kContinue;
  });
  // Replay TX-full deferrals (pure ACKs, cut-short window pushes) as slots
  // free — without this a peer whose ACK hit a full ring stalls until
  // keepalive notices.
  pool_.SetTxDrainHook([this] { OnTxDrain(); });
}

StreamLayer::~StreamLayer() {
  // Connections still open when the layer goes down: their emit/install
  // callbacks capture `this`, so the handles must not outlive it.
  for (auto& [id, c] : conns_) {
    (void)id;
    kernel_.spec().Retire(c.spec);
    kernel_.spec().Retire(c.probe_spec);
  }
}

BlockId StreamLayer::GenericProcFor(uint32_t nic_idx) {
  auto it = proc_gen_.find(nic_idx);
  if (it != proc_gen_.end()) {
    return it->second;
  }
  // Installed verbatim: it IS the layered baseline. One copy per NIC, bound
  // to that device's demux helpers (its ring put and malformed counter).
  DemuxSynthesizer& dmx = pool_.nic(nic_idx).demux();
  Bindings b;
  b.Set("put1", static_cast<int32_t>(dmx.put1_block()));
  b.Set("ctr_mal", static_cast<int32_t>(dmx.ctr_malformed_addr()));
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  const std::string name = "net_stream_gen#" + std::to_string(nic_idx);
  BlockId blk = kernel_.SynthesizeInstall(GenericStreamTemplate(), b, nullptr,
                                          name, nullptr, &verbatim);
  if (blk != kInvalidBlock) {  // never cache an injected install failure
    proc_gen_.emplace(nic_idx, blk);
  }
  return blk;
}

// The SYNTHESIZED per-connection segment processor's template, one per shape.
// Reached through the demux's cell for its port with a1 = frame; must set d2
// to the (folded) port. Before establishment the peer is unknown, so
// everything routes to the host's control path; at establishment the
// processor is re-emitted with the connection-lifetime invariants folded in:
// the peer port is an immediate compare, every CCB field an absolute address,
// the checksum inlined, and the ring geometry folded into a bulk copy
// publishing the head once.
//
// The kHot shape folds one step deeper: when the payload's destination run is
// contiguous (head + len fits before the ring edge — the common case for a
// ring much larger than a segment), the copy runs word-wide with no per-byte
// mask, roughly a quarter of the byte loop's path length; a run that would
// wrap falls back to the masked byte loop in the same block.
CodeTemplate SegmentProcessorTemplate(ProcShape shape) {
  Asm a("net_stream");
  // Validation order matches the generic pipeline exactly (demux walk, then
  // handler): max length, checksum, header minimum — so both implementations
  // bump the same reject counter for every malformed frame.
  a.MoveI(kD2, Asm::Sym("port"));
  a.Load32(kD5, kA1, FrameLayout::kLength);
  a.CmpI(kD5, FrameLayout::kMaxPayload);
  a.Bhi("bad");
  a.Jsr(Asm::Sym("csum"));  // inlined by Collapsing Layers
  a.Tst(kD0);
  a.Bne("ck");
  BumpCounter(a, "ctr_csum");
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("ck");
  a.CmpI(kD5, StreamSeg::kHdrBytes - 1);
  a.Bhi("len1");
  a.Label("bad");
  BumpCounter(a, "ctr_mal");
  a.MoveI(kD0, 0);
  a.Rts();
  a.Label("len1");
  a.StoreA32(Asm::Sym("lastf"), kA1);
  if (shape == ProcShape::kPreEstablish) {
    OrEventA(a, CcbLayout::kEvCtrl);
    a.MoveI(kD0, 1);
    a.Rts();
  } else {
    a.LoadA32(kD0, Asm::Sym("st"));
    a.CmpI(kD0, CcbLayout::kEstablished);
    a.Beq("fast");
    a.CmpI(kD0, CcbLayout::kFinSent);
    a.Beq("fast");
    a.Label("ctrl");
    OrEventA(a, CcbLayout::kEvCtrl);
    a.MoveI(kD0, 1);
    a.Rts();
    a.Label("fast");
    a.Load32(kD1, kA1, FrameLayout::kSrcPort);
    a.CmpI(kD1, Asm::Sym("peer"));  // the connection's folded invariant
    a.Beq("peerok");
    OrEventA(a, CcbLayout::kEvBadSeg);
    a.MoveI(kD0, 0);
    a.Rts();
    a.Label("peerok");
    a.Load32(kD6, kA1, FrameLayout::kPayload + StreamSeg::kFlags);
    a.Move(kD1, kD6);
    a.AndI(kD1,
           StreamSeg::kFlagSyn | StreamSeg::kFlagFin | StreamSeg::kFlagRst);
    a.Tst(kD1);
    a.Bne("ctrl");
    // Serial-arithmetic cumulative ack — mirrors the generic processor.
    a.Load32(kD4, kA1, FrameLayout::kPayload + StreamSeg::kAck);
    a.LoadA32(kD0, Asm::Sym("una"));
    a.Move(kD1, kD4);
    a.Sub(kD1, kD0);
    a.Tst(kD1);
    a.Ble("noadv");  // (ack - una) <= 0 signed: no advance
    a.LoadA32(kD1, Asm::Sym("nxt"));
    a.Move(kD7, kD4);
    a.Sub(kD7, kD1);
    a.Tst(kD7);
    a.Bgt("ackdone");  // (ack - nxt) > 0 signed: acks data never sent
    a.StoreA32(Asm::Sym("una"), kD4);
    OrEventA(a, CcbLayout::kEvAckAdvance);
    a.MoveI(kD1, 0);
    a.StoreA32(Asm::Sym("dup"), kD1);
    a.Bra("ackdone");
    a.Label("noadv");
    a.Bne("ackdone");  // ack - una != 0: stale
    a.CmpI(kD5, StreamSeg::kHdrBytes);
    a.Bne("ackdone");
    a.LoadA32(kD1, Asm::Sym("nxt"));
    a.Cmp(kD1, kD0);
    a.Beq("ackdone");
    a.LoadA32(kD1, Asm::Sym("dup"));
    a.AddI(kD1, 1);
    a.StoreA32(Asm::Sym("dup"), kD1);
    OrEventA(a, CcbLayout::kEvDupAck);
    a.Label("ackdone");
    a.Move(kD6, kD5);
    a.SubI(kD6, StreamSeg::kHdrBytes);
    a.Tst(kD6);
    a.Beq("okout");
    a.Load32(kD4, kA1, FrameLayout::kPayload + StreamSeg::kSeq);
    a.LoadA32(kD0, Asm::Sym("rnxt"));
    a.Cmp(kD4, kD0);
    a.Beq("seqok");
    a.LoadA32(kD1, Asm::Sym("ooo"));
    a.AddI(kD1, 1);
    a.StoreA32(Asm::Sym("ooo"), kD1);
    OrEventA(a, CcbLayout::kEvOoo);
    a.Bra("okout");
    a.Label("seqok");
    // Ring space check and bulk copy against folded ring constants; the
    // producer index is published once at the end (§3.2: publish last).
    a.LoadA32(kD3, Asm::Sym("head"));
    a.LoadA32(kD4, Asm::Sym("tail"));
    a.Move(kD0, kD4);
    a.Sub(kD0, kD3);
    a.SubI(kD0, 1);
    a.AndI(kD0, Asm::Sym("mask"));
    a.Cmp(kD6, kD0);
    a.Bls("room");
    OrEventA(a, CcbLayout::kEvRingFull);
    a.Bra("okout");
    a.Label("room");
    a.Move(kA3, kA1);
    a.AddI(kA3, FrameLayout::kPayload + StreamSeg::kHdrBytes);
    if (shape == ProcShape::kHot) {
      // Contiguity check: head + len within the ring size means the whole
      // run lands before the edge, so the copy needs no per-byte mask.
      a.Move(kD0, kD3);
      a.Add(kD0, kD6);
      a.CmpI(kD0, Asm::Sym("rsz"));
      a.Bhi("cloop");  // would wrap: the masked byte loop handles it
      a.Lea(kA2, kD3, Asm::Sym("buf"));
      a.Label("wloop");
      a.CmpI(kD6, 3);
      a.Bls("wtail");
      a.Load32(kD1, kA3, 0);
      a.Store32(kA2, kD1, 0);
      a.AddI(kA3, 4);
      a.AddI(kA2, 4);
      a.AddI(kD3, 4);
      a.SubI(kD6, 4);
      a.Bra("wloop");
      a.Label("wtail");
      a.Tst(kD6);
      a.Beq("wdone");
      a.Load8(kD1, kA3, 0);
      a.Store8(kA2, kD1, 0);
      a.AddI(kA3, 1);
      a.AddI(kA2, 1);
      a.AddI(kD3, 1);
      a.SubI(kD6, 1);
      a.Bra("wtail");
      a.Label("wdone");
      a.AndI(kD3, Asm::Sym("mask"));  // head + len == size wraps to 0
      a.Bra("cdone");
    }
    a.Label("cloop");
    a.Tst(kD6);
    a.Beq("cdone");
    a.Load8(kD1, kA3, 0);
    a.Lea(kA2, kD3, Asm::Sym("buf"));
    a.Store8(kA2, kD1, 0);
    a.AddI(kD3, 1);
    a.AndI(kD3, Asm::Sym("mask"));
    a.AddI(kA3, 1);
    a.SubI(kD6, 1);
    a.Bra("cloop");
    a.Label("cdone");
    a.StoreA32(Asm::Sym("head"), kD3);
    a.Move(kD6, kD5);
    a.SubI(kD6, StreamSeg::kHdrBytes);
    a.LoadA32(kD1, Asm::Sym("rnxt"));
    a.Add(kD1, kD6);
    a.StoreA32(Asm::Sym("rnxt"), kD1);
    a.LoadA32(kD1, Asm::Sym("acc"));
    a.AddI(kD1, 1);
    a.StoreA32(Asm::Sym("acc"), kD1);
    OrEventA(a, CcbLayout::kEvData);
    a.Label("okout");
    a.MoveI(kD0, 1);
    a.Rts();
  }
  return a.Build();
}

const std::vector<std::string>& SegmentProcessorHoles() {
  static const std::vector<std::string> kHoles = {
      "port", "lastf", "ev", "peer", "st", "una", "nxt", "rnxt",
      "dup", "ooo", "acc", "head", "tail", "buf", "mask", "rsz"};
  return kHoles;
}

namespace {

// Each shape is assembled once, and its template shared by every NIC's
// preparation of it.
const std::shared_ptr<const CodeTemplate>& SharedProcessorTemplate(ProcShape shape) {
  static const std::array<std::shared_ptr<const CodeTemplate>, 3> kShapes = {
      std::make_shared<const CodeTemplate>(SegmentProcessorTemplate(ProcShape::kPreEstablish)),
      std::make_shared<const CodeTemplate>(SegmentProcessorTemplate(ProcShape::kEstablished)),
      std::make_shared<const CodeTemplate>(SegmentProcessorTemplate(ProcShape::kHot)),
  };
  return kShapes[static_cast<size_t>(shape)];
}

}  // namespace

// Each shape is optimized once per NIC: the owning demux's checksum block
// (inlined by Collapsing Layers) and reject counters are its fixed holes.
const PreparedTemplate& StreamLayer::PreparedProcFor(uint32_t nic_idx,
                                                     ProcShape shape) {
  const auto key = std::make_pair(nic_idx, shape);
  auto it = proc_prep_.find(key);
  if (it == proc_prep_.end()) {
    DemuxSynthesizer& dmx = pool_.nic(nic_idx).demux();
    Bindings fixed;
    fixed.Set("csum", static_cast<int32_t>(dmx.csum_block()));
    fixed.Set("ctr_mal", static_cast<int32_t>(dmx.ctr_malformed_addr()));
    fixed.Set("ctr_csum", static_cast<int32_t>(dmx.ctr_csum_addr()));
    SynthesisOptions opts = kernel_.config().synthesis;
    opts.live_out |= (1u << kD0) | (1u << kD1) | (1u << kD2);
    it = proc_prep_
             .emplace(key, kernel_.synthesizer().Prepare(
                               SharedProcessorTemplate(shape), fixed,
                               SegmentProcessorHoles(), opts))
             .first;
  }
  return it->second;
}

// Emits the connection's processor at `tier`: an instance of its shape,
// prepared for the demux that will actually see this port's frames — the
// pool steers by local-port hash, so this is the owning NIC's. (If the pool
// later grows and migrates the flow, these blocks and counter words stay
// installed and valid; the steering stage is what moves.)
BlockId StreamLayer::BuildSynthDeliver(const Conn& c, SpecTier tier) {
  const bool established = c.state == CcbLayout::kEstablished ||
                           c.state == CcbLayout::kFinSent;
  const ProcShape shape = !established            ? ProcShape::kPreEstablish
                          : tier == SpecTier::kHot ? ProcShape::kHot
                                                   : ProcShape::kEstablished;
  const Addr ring = c.ring->base;
  const uint32_t mask =
      kernel_.machine().memory().Read32(ring + RingLayout::kMask);
  auto at = [](Addr a) { return static_cast<int32_t>(a); };
  // In SegmentProcessorHoles() order.
  const int32_t values[] = {
      c.local_port,
      at(c.ccb + CcbLayout::kLastFrame),
      at(c.ccb + CcbLayout::kEvents),
      c.peer_port,
      at(c.ccb + CcbLayout::kState),
      at(c.ccb + CcbLayout::kSndUna),
      at(c.ccb + CcbLayout::kSndNxt),
      at(c.ccb + CcbLayout::kRcvNxt),
      at(c.ccb + CcbLayout::kDupAcks),
      at(c.ccb + CcbLayout::kOoo),
      at(c.ccb + CcbLayout::kAccepted),
      at(ring + RingLayout::kHead),
      at(ring + RingLayout::kTail),
      at(ring + RingLayout::kBuf),
      at(mask),
      at(mask + 1),  // ring size
  };
  const std::string name = "net_stream$" + std::to_string(c.local_port) + "#" +
                           std::to_string(c.synth_gen);
  return kernel_.SynthesizeInstall(
      PreparedProcFor(pool_.SteerOf(c.local_port), shape), values, name);
}

// The segment processor's wiring, run by the Specializer's install hook and
// once after Register. The old block's retirement already happened inside
// the Specializer (deferred); all that is left is wiring the active block
// into the flow table and keeping the degradation gauges truthful. A refusal
// fallback counts on the ladder gauges and a recovery climbs back; a policy
// demotion to kGeneric counts on neither — cold is not broken. No ArmSweep
// on refusal: re-arming from a refused install would spin the alarm on an
// idle kernel; the next delivered frame (OnDeliver) re-arms it.
void StreamLayer::InstallDeliver(ConnId id, SpecInstall why) {
  Conn* c = Get(id);
  if (c == nullptr || c->reclaimed) {
    return;
  }
  if (why == SpecInstall::kRefused) {
    synth_fallback_gauge_.Count();
  } else if (why == SpecInstall::kRecovered) {
    resynth_gauge_.Count();  // promoted back to synthesized code
  }
  UpdateSweepWatch(*c);
  if (pool_.HasFlow(c->local_port)) {
    pool_.RebindFlow(c->local_port, kernel_.spec().ActiveOf(c->spec));
  }
}

StreamLayer::Conn* StreamLayer::Get(ConnId id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

const StreamLayer::Conn* StreamLayer::Get(ConnId id) const {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

StreamStats StreamLayer::Ended::Stats() const {
  StreamStats s;
  s.retransmits = retransmits;
  s.timeouts = timeouts;
  s.fast_retransmits = fast_retransmits;
  s.dup_acks = dup_acks;
  s.out_of_order = out_of_order;
  s.accepted_segments = accepted_segments;
  s.rto_us = rto_us;
  s.cwnd = cwnd;
  s.state = state;
  s.rcv_nxt = rcv_nxt;
  return s;
}

std::optional<StreamLayer::Ended> StreamLayer::EndedOf(ConnId id) const {
  if (id == kBadConn || id > ended_.size() ||
      ended_[id - 1].state == CcbLayout::kClosed) {
    return std::nullopt;
  }
  const EndedSlot& slot = ended_[id - 1];
  if (slot.sender == kFullRecord) {
    return ended_full_.at(id);
  }
  Ended e;
  e.rto_us = ended_senders_[slot.sender].rto_us;
  e.cwnd = ended_senders_[slot.sender].cwnd;
  e.accepted_segments = slot.accepted_segments;
  e.rcv_nxt = slot.rcv_nxt;
  e.local_port = slot.local_port;
  e.state = slot.state;
  return e;
}

void StreamLayer::CompactReclaimed() {
  size_t kept = 0;
  for (ConnId id : reclaimed_) {
    auto it = conns_.find(id);
    if (it == conns_.end()) {
      continue;
    }
    const Conn& c = it->second;
    if (c.alarms_pending > 0) {
      reclaimed_[kept++] = id;  // OnTimer still needs the record
      continue;
    }
    if (ended_.size() < id) {
      ended_.resize(id);
    }
    const Ended& e = c.ended;
    EndedSlot& slot = ended_[id - 1];
    slot = EndedSlot{};
    slot.local_port = e.local_port;
    slot.state = e.state;
    if (e.retransmits == 0 && e.timeouts == 0 && e.fast_retransmits == 0 &&
        e.dup_acks == 0 && e.out_of_order == 0 && !e.degraded &&
        e.rcv_nxt <= UINT16_MAX && e.accepted_segments <= UINT16_MAX) {
      auto same = std::find_if(
          ended_senders_.begin(), ended_senders_.end(),
          [&e](const EndedSender& s) { return s.rto_us == e.rto_us && s.cwnd == e.cwnd; });
      if (same == ended_senders_.end() && ended_senders_.size() < kFullRecord) {
        same = ended_senders_.insert(same, EndedSender{e.rto_us, e.cwnd});
      }
      if (same != ended_senders_.end()) {
        slot.sender = static_cast<uint8_t>(same - ended_senders_.begin());
        slot.rcv_nxt = static_cast<uint16_t>(e.rcv_nxt);
        slot.accepted_segments = static_cast<uint16_t>(e.accepted_segments);
      }
    }
    if (slot.sender == kFullRecord) {
      ended_full_.emplace(id, e);
    }
    conns_.erase(it);
  }
  reclaimed_.resize(kept);
}

void StreamLayer::SetState(Conn& c, uint32_t state) {
  c.state = state;
  kernel_.machine().memory().Write32(c.ccb + CcbLayout::kState, state);
  UpdateSweepWatch(c);
}

// Membership is re-derived from the connection's current shape on every
// transition that can change it (state, degradation, reclaim), so the set
// never needs a scan to stay truthful.
void StreamLayer::UpdateSweepWatch(Conn& c) {
  const bool live = !c.reclaimed && (c.state == CcbLayout::kEstablished ||
                                     c.state == CcbLayout::kFinSent);
  if (live &&
      (c.cfg.keepalive_idle_us > 0 || kernel_.spec().DegradedOf(c.spec))) {
    sweep_watch_.insert(c.id);
  } else {
    sweep_watch_.erase(c.id);
  }
}

ConnId StreamLayer::NewConn(uint16_t local_port, uint16_t peer_port,
                            uint32_t state, const StreamConfig& cfg) {
  CompactReclaimed();
  if (local_port == 0 || pool_.HasFlow(local_port)) {
    return kBadConn;
  }
  ConnId id = next_id_++;
  Conn c;
  c.id = id;
  c.cfg = cfg;
  c.local_port = local_port;
  c.peer_port = peer_port;
  // Every resource below can fail to materialize (the allocator and code
  // store are fault-injection sites): each acquisition is checked and, on
  // failure, everything acquired so far is rolled back — the error surfaces
  // as kBadConn, the gauge records it, and nothing leaks.
  c.ccb = kernel_.allocator().Allocate(CcbLayout::kBytes);
  if (c.ccb == 0) {
    open_fail_gauge_.Count();
    return kBadConn;
  }
  Memory& mem = kernel_.machine().memory();
  for (uint32_t off = 0; off < CcbLayout::kBytes; off += 4) {
    mem.Write32(c.ccb + off, 0);
  }
  mem.Write32(c.ccb + CcbLayout::kPeer, peer_port);
  c.iss = cfg.initial_seq;
  c.snd_nxt = c.iss;
  mem.Write32(c.ccb + CcbLayout::kSndUna, c.iss);
  mem.Write32(c.ccb + CcbLayout::kSndNxt, c.iss);
  c.ring = io_.MakeRing(cfg.ring_bytes);
  if (c.ring->base == 0) {
    kernel_.allocator().Free(c.ccb);
    open_fail_gauge_.Count();
    return kBadConn;
  }
  c.cwnd = cfg.window_segments;
  c.rto_us = cfg.rto_base_us;
  c.last_activity_ticks = TimerTicks(kernel_.NowUs());
  ScheduleProbe(c);
  SetState(c, state);
  // The generic processor must be bound to the NIC that will own the flow.
  const uint32_t owner = pool_.SteerOf(local_port);
  BlockId generic = GenericProcFor(owner);
  if (generic == kInvalidBlock) {
    kernel_.allocator().Free(c.ring->base);
    kernel_.allocator().Free(c.ccb);
    open_fail_gauge_.Count();
    return kBadConn;
  }
  auto it = conns_.emplace(id, std::move(c)).first;
  Conn& ref = it->second;
  // Common rollback for everything past this point: the record is in the map
  // (the Specializer's callbacks resolve it by id), so unwinding also erases.
  auto unwind = [&] {
    if (ref.spec != kBadSpec) {
      kernel_.spec().Retire(ref.spec);
    }
    if (ref.alarm_stub != kInvalidBlock) {
      kernel_.RetireBlock(ref.alarm_stub);
    }
    kernel_.allocator().Free(ref.ring->base);
    kernel_.allocator().Free(ref.ccb);
    conns_.erase(it);
    open_fail_gauge_.Count();
  };
  // The segment processor lives behind a Specializer handle: the emit
  // callback re-builds it at the requested tier, the install callback wires
  // it into the flow table. Registration performs the initial emission; a
  // refusal degrades the open to the owning demux's generic walk (the
  // ladder's first rung) instead of failing it — the sweep promotes it back
  // once the store has room.
  SpecDesc sd;
  sd.name = "net_stream$" + std::to_string(local_port);
  sd.generic = pool_.nic(owner).demux().generic_demux();
  sd.emit = [this, id](SpecTier tier) -> BlockId {
    Conn* cc = Get(id);
    if (cc == nullptr || cc->reclaimed) {
      return kInvalidBlock;
    }
    cc->synth_gen++;
    return BuildSynthDeliver(*cc, tier);
  };
  sd.install = [this, id](BlockId, SpecTier, SpecInstall why) {
    InstallDeliver(id, why);
  };
  ref.spec = kernel_.spec().Register(std::move(sd));
  if (kernel_.spec().ActiveOf(ref.spec) == kInvalidBlock) {
    // Refused emit AND no generic walk to degrade to: truly unrecoverable.
    unwind();
    return kBadConn;
  }
  const bool degraded = kernel_.spec().DegradedOf(ref.spec);
  InstallDeliver(id, degraded ? SpecInstall::kRefused : SpecInstall::kPolicy);
  // The per-connection alarm stub: the alarm payload is the handler itself,
  // so the stub re-loads d1 with the connection id before trapping to the
  // host timeout logic. The stub cannot degrade — a connection without a
  // retransmit timer is not a connection — so a refused install here rolls
  // everything back (the truly-unrecoverable class, with allocator failure).
  const std::string stub_name = "stream_alarm$" + std::to_string(local_port);
  Asm st(stub_name);
  st.MoveI(kD1, static_cast<int32_t>(id));
  st.Trap(timer_vec_);
  st.Rts();
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  ref.alarm_stub = kernel_.SynthesizeInstall(st.Build(), Bindings(), nullptr,
                                             stub_name, nullptr, &verbatim);
  if (ref.alarm_stub == kInvalidBlock) {
    unwind();
    return kBadConn;
  }
  FlowSpec flow;
  flow.port = local_port;
  flow.ring = ref.ring;
  flow.ctx = ref.ccb;
  flow.synth_deliver = kernel_.spec().ActiveOf(ref.spec);
  flow.generic_deliver = generic;
  flow.deliver_hook = [this, id] { OnDeliver(id); };
  if (!pool_.BindFlow(std::move(flow))) {
    unwind();
    return kBadConn;
  }
  if (degraded) {
    ArmSweep();
  }
  return id;
}

ConnId StreamLayer::Listen(uint16_t port, StreamConfig cfg) {
  return NewConn(port, 0, CcbLayout::kListen, cfg);
}

// One pass over the ephemeral range [kEphemeralBase, 65535], wrapping past
// 65535 back to the base (never into the well-known ports below), skipping
// anything with a live demux flow: listeners, datagram sockets, and every
// stream connection until it is reclaimed (it holds its flow from open to
// reclaim). Returns 0 when every candidate is taken.
uint16_t StreamLayer::AllocateEphemeral() {
  const uint32_t span = static_cast<uint32_t>(eph_hi_) - eph_base_ + 1;
  for (uint32_t i = 0; i < span; i++) {
    uint16_t p = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ == eph_hi_ ? eph_base_
                                                 : next_ephemeral_ + 1;
    if (!pool_.HasFlow(p)) {
      return p;
    }
  }
  return 0;
}

void StreamLayer::set_ephemeral_range_for_test(uint16_t lo, uint16_t hi) {
  eph_base_ = lo;
  eph_hi_ = hi;
  next_ephemeral_ = lo;
}

ConnId StreamLayer::Connect(uint16_t dst_port, StreamConfig cfg) {
  uint16_t local = AllocateEphemeral();
  if (local == 0) {
    return kBadConn;  // ephemeral range exhausted
  }
  ConnId id = NewConn(local, dst_port, CcbLayout::kSynSent, cfg);
  if (id == kBadConn) {
    return kBadConn;
  }
  Conn& c = *Get(id);
  Seg syn;
  syn.seq = c.snd_nxt;
  syn.flags = StreamSeg::kFlagSyn;
  c.snd_nxt += 1;
  kernel_.machine().memory().Write32(c.ccb + CcbLayout::kSndNxt, c.snd_nxt);
  c.unacked.push_back(syn);
  if (!TransmitSeg(c, c.unacked.back())) {
    DeferWindow(c);  // replayed from the drain hook; the RTO also covers it
  }
  ArmTimer(c);
  return id;
}

bool StreamLayer::TransmitSeg(Conn& c, Seg& seg) {
  Memory& mem = kernel_.machine().memory();
  // Header on the stack, payload borrowed from the segment: the gather API
  // writes both straight into the TX descriptor slot, so no contiguous
  // header+payload staging copy exists anymore. Same byte order as the old
  // Put32 builder (host-endian memcpy, matching Memory::Read32).
  uint8_t hdr[StreamSeg::kHdrBytes];
  uint32_t w = seg.seq;
  std::memcpy(hdr + StreamSeg::kSeq, &w, 4);
  w = mem.Read32(c.ccb + CcbLayout::kRcvNxt);
  std::memcpy(hdr + StreamSeg::kAck, &w, 4);
  w = seg.flags | StreamSeg::kFlagAck;
  std::memcpy(hdr + StreamSeg::kFlags, &w, 4);
  SendSpan spans[2] = {{hdr, StreamSeg::kHdrBytes},
                       {seg.data.data(),
                        static_cast<uint32_t>(seg.data.size())}};
  uint32_t nspans = seg.data.empty() ? 1 : 2;
  if (!pool_.TransmitV(c.peer_port, c.local_port, spans, nspans)) {
    // Full TX ring. Callers defer and the drain hook replays — nothing is
    // silently lost anymore (pure ACKs have no retransmit timer).
    tx_full_drops_gauge_.Count();
    return false;
  }
  seg.owed = false;
  seg.sent = true;
  c.ack_deferred = false;  // every segment carries the current ack
  return true;
}

void StreamLayer::SendAck(Conn& c) {
  Seg ack;
  ack.seq = c.snd_nxt;
  if (!TransmitSeg(c, ack)) {
    DeferAck(c);
  }
}

void StreamLayer::DeferAck(Conn& c) {
  c.ack_deferred = true;
  tx_deferred_.insert(c.id);
}

void StreamLayer::DeferWindow(Conn& c) {
  c.wnd_deferred = true;
  tx_deferred_.insert(c.id);
}

// Puts every owed segment on the wire, oldest first; one that had already
// left once counts as a retransmit. A full ring stops the walk and re-defers
// the rest to the drain hook, so wire order holds. Returns false then.
bool StreamLayer::SendOwed(Conn& c) {
  for (Seg& s : c.unacked) {
    if (!s.owed) {
      continue;
    }
    const bool again = s.sent;
    if (!TransmitSeg(c, s)) {
      DeferWindow(c);
      return false;
    }
    if (again) {
      c.retransmits++;
      retransmit_gauge_.Count();
    }
  }
  return true;
}

// Runs from the NIC's TX-complete retirement, after a slot freed: replay
// whatever the full ring cut short. A window replay sends only the owed
// segments, in order: the sends the full ring refused, first sends and
// scheduled resends alike. The prefix that left before the ring filled is
// not sent again. Then it pushes any window the deferral blocked. A replay
// that finds the ring full again simply re-defers — the next retirement
// retries.
void StreamLayer::OnTxDrain() {
  if (tx_deferred_.empty()) {
    return;
  }
  std::vector<ConnId> ids(tx_deferred_.begin(), tx_deferred_.end());
  tx_deferred_.clear();
  for (ConnId id : ids) {
    Conn* c = Get(id);
    if (c == nullptr || c->reclaimed || c->state == CcbLayout::kFailed ||
        c->state == CcbLayout::kDone) {
      continue;
    }
    if (c->wnd_deferred) {
      c->wnd_deferred = false;
      pool_.BeginTxBurst(c->peer_port);
      const bool replayed = SendOwed(*c);
      pool_.CommitTxBurst(c->peer_port);
      if (replayed) {
        PushWindow(*c);
        kernel_.UnblockAll(c->senders);
      }
      if (!c->unacked.empty() && !c->timer_armed) {
        ArmTimer(*c);
      }
    }
    // A deferred pure ACK is still owed only if no segment has left since.
    if (c->ack_deferred && !c->wnd_deferred) {
      c->ack_deferred = false;
      SendAck(*c);  // re-defers itself if the ring is still full
    }
  }
}

void StreamLayer::PushWindow(Conn& c) {
  Memory& mem = kernel_.machine().memory();
  if (c.wnd_deferred) {
    // A window replay is already owed; fresh segments transmitted now would
    // overtake the deferred ones on the wire. The drain hook calls back.
    if (!c.unacked.empty() && !c.timer_armed) {
      ArmTimer(c);
    }
    return;
  }
  // One doorbell for the whole push when the NIC coalesces TX completions
  // (a no-op bracket otherwise).
  pool_.BeginTxBurst(c.peer_port);
  while (c.state == CcbLayout::kEstablished && !c.pending.empty() &&
         c.unacked.size() < c.cwnd) {
    Seg s;
    s.seq = c.snd_nxt;
    uint32_t take = std::min<uint32_t>(c.cfg.max_seg_data,
                                       static_cast<uint32_t>(c.pending.size()));
    s.data.assign(c.pending.begin(),
                  c.pending.begin() + static_cast<long>(take));
    c.pending.erase(c.pending.begin(),
                    c.pending.begin() + static_cast<long>(take));
    c.snd_nxt += take;
    mem.Write32(c.ccb + CcbLayout::kSndNxt, c.snd_nxt);
    c.unacked.push_back(std::move(s));
    if (!TransmitSeg(c, c.unacked.back())) {
      // The segment stays on unacked; the drain replay (or the RTO) covers
      // it. Later segments are not attempted — wire order is preserved.
      DeferWindow(c);
      break;
    }
  }
  if (!c.wnd_deferred && c.fin_queued && !c.fin_sent && c.pending.empty() &&
      c.state == CcbLayout::kEstablished && c.unacked.size() < c.cwnd) {
    Seg fin;
    fin.seq = c.snd_nxt;
    fin.flags = StreamSeg::kFlagFin;
    c.snd_nxt += 1;
    mem.Write32(c.ccb + CcbLayout::kSndNxt, c.snd_nxt);
    c.unacked.push_back(fin);
    c.fin_sent = true;
    SetState(c, CcbLayout::kFinSent);
    if (!TransmitSeg(c, c.unacked.back())) {
      DeferWindow(c);
    }
  }
  pool_.CommitTxBurst(c.peer_port);
  if (!c.unacked.empty() && !c.timer_armed) {
    ArmTimer(c);
  }
}

void StreamLayer::ArmTimer(Conn& c) {
  c.timer_deadline_ticks = TimerTicks(kernel_.NowUs() + c.rto_us);
  c.timer_armed = true;
  // Every *raised* alarm dispatches exactly once; a dropped alarm (the
  // kAlarmDrop injection site) never will, so it must not be counted or the
  // stub's retirement would wait forever. The lost wakeup itself is covered
  // by the next event that re-arms the timer.
  if (kernel_.SetAlarm(c.rto_us, c.alarm_stub)) {
    c.alarms_pending++;
  }
}

void StreamLayer::ArmTimerForTest(ConnId conn) {
  Conn* c = Get(conn);
  if (c != nullptr && !c->reclaimed) {
    ArmTimer(*c);
  }
}

void StreamLayer::OnTimer(ConnId id) {
  Conn* c = Get(id);
  if (c == nullptr) {
    return;
  }
  if (c->alarms_pending > 0) {
    c->alarms_pending--;
  }
  if (c->reclaimed) {
    // The stub outlives the connection until its last in-flight alarm lands;
    // this was it.
    if (c->alarms_pending == 0 && c->alarm_stub != kInvalidBlock) {
      kernel_.RetireBlock(c->alarm_stub);
      c->alarm_stub = kInvalidBlock;
    }
    return;
  }
  if (!c->timer_armed) {
    return;
  }
  if (TimerTicks(kernel_.NowUs()) < c->timer_deadline_ticks) {
    return;  // superseded by a later re-arm; the fresh alarm is still pending
  }
  c->timer_armed = false;
  if (c->unacked.empty() || c->state == CcbLayout::kDone ||
      c->state == CcbLayout::kFailed) {
    return;
  }
  c->timeouts++;
  timeout_gauge_.Count();
  c->retries++;
  if (c->retries > c->cfg.max_retries) {
    if (c->state == CcbLayout::kFinSent && c->fin_received) {
      // Only our FIN's ack is missing and the peer already closed: the peer
      // is plausibly gone for good reasons. Close out instead of failing.
      Finish(*c);
    } else {
      Fail(*c);
    }
    return;
  }
  // Graceful degradation under sustained loss: the timeout doubles and the
  // window halves, so throughput decays instead of livelocking the wire.
  c->rto_us = std::min(c->rto_us * 2, c->cfg.rto_cap_us);
  c->cwnd = std::max(1u, c->cwnd / 2);
  // Go-back-N: the receiver keeps no out-of-order buffer, so everything after
  // the lost segment was discarded — resend the whole outstanding window, as
  // one burst. A full ring cuts the replay short; the drain hook finishes it
  // (only segments that actually leave again count as retransmits).
  for (Seg& s : c->unacked) {
    s.owed = true;
  }
  pool_.BeginTxBurst(c->peer_port);
  SendOwed(*c);
  pool_.CommitTxBurst(c->peer_port);
  ArmTimer(*c);
}

void StreamLayer::MarkActivity(Conn& c) {
  c.last_activity_ticks = TimerTicks(kernel_.NowUs());
  c.probes_sent = 0;
  ScheduleProbe(c);
}

void StreamLayer::ScheduleProbe(Conn& c) {
  if (c.cfg.keepalive_idle_us <= 0) {
    return;
  }
  c.next_probe_ticks =
      c.last_activity_ticks +
      TimerTicks(c.cfg.keepalive_idle_us) * std::max(1u, c.idle_backoff);
}

bool StreamLayer::NeedsSweep() const { return !sweep_watch_.empty(); }

double StreamLayer::SweepPeriodUs() const {
  // The alarm serves whichever per-connection probe clock expires first. A
  // deadline already due (a probe the TX ring refused) contributes its own
  // interval — the retry cadence — never zero, so a congested ring cannot
  // spin the alarm.
  const uint64_t now = TimerTicks(kernel_.NowUs());
  double period = 0;
  for (ConnId id : sweep_watch_) {
    const Conn* c = Get(id);
    if (c == nullptr || c->cfg.keepalive_idle_us <= 0) {
      continue;
    }
    const double due = c->next_probe_ticks > now
                           ? static_cast<double>(c->next_probe_ticks - now)
                           : c->cfg.keepalive_interval_us;
    if (period == 0 || due < period) {
      period = due;
    }
  }
  return period > 0 ? period : kResynthSweepUs;
}

// Lazily armed, like the bcache flusher: the stub is installed on first need
// and never retired; the alarm is re-armed only while some connection wants
// the sweep (keepalive enabled, or degraded and waiting for code-store room).
void StreamLayer::ArmSweep() {
  if (sweep_armed_ || !NeedsSweep()) {
    return;
  }
  if (sweep_stub_ == kInvalidBlock) {
    Asm st("stream_sweep");
    st.Trap(sweep_vec_);
    st.Rts();
    SynthesisOptions verbatim = SynthesisOptions::Disabled();
    sweep_stub_ = kernel_.SynthesizeInstall(st.Build(), Bindings(), nullptr,
                                            "stream_sweep", nullptr,
                                            &verbatim);
    if (sweep_stub_ == kInvalidBlock) {
      return;  // refused install: dormant until the next delivery retries
    }
  }
  // A dropped alarm (kAlarmDrop) on a fully idle layer would have no next
  // delivery to recover through, so the arm itself retries a few independent
  // draws; each SweepTick re-arms fresh anyway.
  // The stretch widens the cadence while sweep cycles overrun their period
  // (see SweepTick); a stretched but live reaper beats a punctual one that
  // livelocks the kernel.
  const double period = SweepPeriodUs() * sweep_stretch_;
  for (int i = 0; i < 4 && !sweep_armed_; i++) {
    sweep_armed_ = kernel_.SetAlarm(period, sweep_stub_);
  }
  if (sweep_armed_) {
    last_sweep_period_us_ = period;
  }
}

// One reaper/re-synthesis pass over the watched connections. Invariants:
//  * a probe goes out only when nothing is in flight (snd_una == snd_nxt), so
//    its sequence number sits in already-acked space and the peer re-acks it
//    without consuming a byte — an outstanding window is the retransmit
//    timer's job, not the reaper's;
//  * probe/reap accounting freezes while the pool itself is shedding bulk
//    data: our own overload armor eating the probes must never read as peer
//    death;
//  * reaping goes through Fail() → ReclaimConn(), the same deferred-
//    retirement path as every other teardown, so occupancy stays exactly
//    flat under churn;
//  * one tick's cost is bounded: idle checks and reaping run over the whole
//    watched set (no transmissions), but at most kMaxProbesPerSweep probes
//    leave per tick, resuming round-robin where the last tick stopped. A
//    conn past the budget is probed a few ticks later — its reap verdict
//    arrives late, never wrong.
void StreamLayer::SweepTick() {
  sweep_armed_ = false;
  const double entry_us = kernel_.NowUs();
  // Storm guard: compare the realized gap since the previous tick with the
  // period that tick armed. A cycle that keeps landing late means the probe
  // fan-out and its answering deliveries charge more virtual time than the
  // period itself — left alone, the re-armed alarm is due again before the
  // scheduler slice drains and the kernel never gets out of its own
  // keepalive traffic. Cadence stretches geometrically while cycles
  // overrun, and relaxes once they fit with slack again.
  if (last_sweep_entry_us_ >= 0 && last_sweep_period_us_ > 0) {
    const double gap = entry_us - last_sweep_entry_us_;
    if (gap > 1.25 * last_sweep_period_us_) {
      sweep_stretch_ = std::min(sweep_stretch_ * 2, kMaxSweepStretch);
    } else if (gap <= 1.1 * last_sweep_period_us_ && sweep_stretch_ > 1) {
      sweep_stretch_ /= 2;
    }
  }
  last_sweep_entry_us_ = entry_us;
  const uint64_t now = TimerTicks(entry_us);
  const bool frozen = pool_.data_shedding();
  // Snapshot in round-robin order: Fail()/Resynthesize() below edit the set.
  std::vector<ConnId> order;
  order.reserve(sweep_watch_.size());
  auto wrap = sweep_watch_.upper_bound(sweep_cursor_);
  order.insert(order.end(), wrap, sweep_watch_.end());
  order.insert(order.end(), sweep_watch_.begin(), wrap);
  uint32_t probe_budget = kMaxProbesPerSweep;
  for (ConnId id : order) {
    Conn* pc = Get(id);
    if (pc == nullptr || pc->reclaimed) {
      continue;
    }
    Conn& c = *pc;
    if (kernel_.spec().DegradedOf(c.spec) && kernel_.code().HasRoom()) {
      // Pressure drained: ask the Specializer to climb back to synthesized
      // code. The install hook rebinds the flow and clears the degradation.
      kernel_.spec().Promote(c.spec, SpecTier::kSpecialized);
      if (c.reclaimed) {
        continue;
      }
    }
    if (c.cfg.keepalive_idle_us <= 0 || !c.unacked.empty() || frozen) {
      continue;
    }
    // Each connection counts down on its own probe clock: activity pushed
    // the deadline out by idle * backoff (answered rounds double the backoff,
    // capped by the config, so long-idle healthy peers are probed
    // geometrically less often), and a sent probe pushes it by the
    // connection's own interval. A tick only touches connections that are
    // actually due — a chatty neighbor's cadence never probes anyone else.
    if (now < c.next_probe_ticks) {
      continue;
    }
    if (c.probes_sent >= c.cfg.keepalive_probes) {
      reaped_gauge_.Count();
      Fail(c);  // dead peer: graceful close through deferred retirement
      continue;
    }
    if (probe_budget > 0) {
      SendProbe(c);
      probe_budget--;
      sweep_cursor_ = id;
    }
  }
  // Keepalive needs its cadence, so it re-arms; resynthesis does not. A
  // degraded connection whose install was just refused would otherwise spin
  // the alarm against a still-full store on an idle kernel (each firing
  // burns a scheduler slice) — it goes dormant instead and the next
  // delivered frame retries through OnDeliver, the bcache dormancy pattern.
  bool keepalive_live = false;
  for (ConnId id : sweep_watch_) {
    const Conn* c = Get(id);
    if (c != nullptr && c->cfg.keepalive_idle_us > 0) {
      keepalive_live = true;
      break;
    }
  }
  if (keepalive_live) {
    ArmSweep();
  } else {
    // Dormant: the next gap is delivery-driven, not cadence-driven, so it
    // must not feed the storm guard.
    last_sweep_entry_us_ = -1;
    last_sweep_period_us_ = 0;
  }
}

void StreamLayer::SendProbe(Conn& c) {
  const BlockId probe = kernel_.spec().ActiveOf(c.probe_spec);
  if (probe != kInvalidBlock) {
    // The probe send is the connection's own synthesized code. From the
    // sweep alarm (kernel executor mid-run) the block is chained to run at
    // the end of this interrupt (§3.1 Procedure Chaining); a host-driven
    // sweep runs it synchronously. Either way it stages the header from the
    // CCB's folded fields and traps to FinishProbe for the transmit.
    if (kernel_.kexec().active()) {
      kernel_.ChainProcedure(probe);
    } else {
      kernel_.kexec().Call(probe);
    }
    return;
  }
  HostProbe(c);  // refused stub install: the host path still probes
}

// Registers the keepalive probe stub with the Specializer at establishment.
// Non-adaptive (probes are cadence-driven, not heat-driven), non-evictable
// (a handful of instructions, and there is no generic block to fall to — the
// fallback is the host path, taken while the handle has no active block).
// The stub folds nothing that moves, so it has no install callback: SendProbe
// reads the active block at every probe.
void StreamLayer::RegisterProbe(Conn& c) {
  if (c.probe_spec != kBadSpec) {
    return;
  }
  SpecDesc sd;
  sd.name = "stream_probe$" + std::to_string(c.local_port);
  sd.max_tier = SpecTier::kSpecialized;
  sd.evictable = false;
  sd.adaptive = false;
  ConnId id = c.id;
  sd.emit = [this, id](SpecTier) -> BlockId {
    Conn* cc = Get(id);
    if (cc == nullptr || cc->reclaimed) {
      return kInvalidBlock;
    }
    return BuildProbeStub(*cc);
  };
  c.probe_spec = kernel_.spec().Register(std::move(sd));
}

// The synthesized probe stub: seq = snd_nxt - 1 and ack = rcv_nxt are loaded
// through folded CCB addresses into the shared staging area, then the stub
// traps to the host transmit half with the connection id. The send itself —
// previously assembled host-side on every probe — is now the connection's
// own code, charged at synthesized path length.
BlockId StreamLayer::BuildProbeStub(const Conn& c) {
  Memory& mem = kernel_.machine().memory();
  if (probe_stage_ == 0) {
    probe_stage_ = kernel_.allocator().Allocate(16);
    if (probe_stage_ == 0) {
      return kInvalidBlock;
    }
    for (uint32_t off = 0; off < 16; off += 4) {
      mem.Write32(probe_stage_ + off, 0);  // the 1-byte payload stays zero
    }
  }
  const std::string name = "stream_probe$" + std::to_string(c.local_port);
  Asm a(name);
  a.LoadA32(kD1, Asm::Sym("snxt"));
  a.SubI(kD1, 1);
  a.StoreA32(Asm::Sym("pseq"), kD1);
  a.LoadA32(kD1, Asm::Sym("rnxt"));
  a.StoreA32(Asm::Sym("pack"), kD1);
  a.MoveI(kD1, static_cast<int32_t>(StreamSeg::kFlagAck));
  a.StoreA32(Asm::Sym("pflg"), kD1);
  a.MoveI(kD1, static_cast<int32_t>(c.id));
  a.Trap(probe_vec_);
  a.Rts();
  Bindings b;
  b.Set("snxt", static_cast<int32_t>(c.ccb + CcbLayout::kSndNxt));
  b.Set("rnxt", static_cast<int32_t>(c.ccb + CcbLayout::kRcvNxt));
  b.Set("pseq", static_cast<int32_t>(probe_stage_ + StreamSeg::kSeq));
  b.Set("pack", static_cast<int32_t>(probe_stage_ + StreamSeg::kAck));
  b.Set("pflg", static_cast<int32_t>(probe_stage_ + StreamSeg::kFlags));
  SynthesisOptions opts = kernel_.config().synthesis;
  opts.live_out |= 1u << kD1;
  return kernel_.SynthesizeInstall(a.Build(), b, nullptr, name, nullptr,
                                   &opts);
}

// Host half of the synthesized probe: the stub staged the header and trapped
// here with the connection id. Revalidate first — a chained stub runs at the
// end of the interrupt, and the connection may have failed, finished or
// grown an in-flight window since the sweep chained it — then transmit the
// staged header + 1 byte and account exactly like the host-path probe.
void StreamLayer::FinishProbe(ConnId id) {
  Conn* c = Get(id);
  if (c == nullptr || c->reclaimed || c->state == CcbLayout::kFailed ||
      c->state == CcbLayout::kDone || !c->unacked.empty()) {
    return;
  }
  Memory& mem = kernel_.machine().memory();
  SendSpan span{mem.raw(probe_stage_), StreamSeg::kHdrBytes + 1};
  if (!pool_.TransmitV(c->peer_port, c->local_port, &span, 1)) {
    // Ring full: the probe never left, so it must not count toward the reap
    // verdict. The deadline stays due; the next sweep retries.
    tx_full_drops_gauge_.Count();
    return;
  }
  c->probes_sent++;
  c->next_probe_ticks =
      TimerTicks(kernel_.NowUs() + c->cfg.keepalive_interval_us);
  keepalive_probe_gauge_.Count();
}

void StreamLayer::HostProbe(Conn& c) {
  // One byte from already-acked sequence space (snd_nxt - 1): with nothing in
  // flight the peer's rcv_nxt equals snd_nxt, so the probe is never consumed
  // as data — the peer counts it out-of-order and re-acks, and that ack is
  // the liveness signal. Not tracked in unacked: a lost probe costs nothing.
  Seg probe;
  probe.seq = c.snd_nxt - 1;
  probe.data.assign(1, 0);
  if (!TransmitSeg(c, probe)) {
    // Ring full: the probe never left, so it must not count toward the reap
    // verdict — our own TX congestion reading as peer death would be the
    // shedding-freeze bug all over again. The deadline stays due, so the
    // next sweep retries the moment the ring drains.
    return;
  }
  c.probes_sent++;
  // The unanswered-round countdown runs on this connection's own interval:
  // the next probe (or the reap verdict) comes one interval from now, not
  // one sweep of whoever else is armed.
  c.next_probe_ticks =
      TimerTicks(kernel_.NowUs() + c.cfg.keepalive_interval_us);
  keepalive_probe_gauge_.Count();
}

void StreamLayer::OnDeliver(ConnId id) {
  Conn* c = Get(id);
  if (c == nullptr || c->reclaimed) {
    return;
  }
  // Any delivered frame — data, control, even a pure ack raising no event
  // bits (the keepalive probe's answer) — proves the peer and wire are live.
  const bool was_probing = c->probes_sent > 0;
  MarkActivity(*c);
  // Heat feed: every delivery is one hit on the segment processor's handle;
  // the adaptation sweep promotes sustained flows to the hot tier and
  // demotes flows whose heat stays zero.
  kernel_.spec().NoteHit(c->spec);
  // Delivery is also the recovery hook for a sweep alarm the fault plane
  // dropped: re-arm is a no-op while one is pending (the bcache pattern).
  ArmSweep();
  Memory& mem = kernel_.machine().memory();
  uint32_t ev = mem.Read32(c->ccb + CcbLayout::kEvents);
  mem.Write32(c->ccb + CcbLayout::kEvents, 0);
  constexpr uint32_t kRealTraffic =
      CcbLayout::kEvData | CcbLayout::kEvCtrl | CcbLayout::kEvAckAdvance;
  if ((ev & kRealTraffic) == 0) {
    if (was_probing && c->cfg.keepalive_backoff_max > 1) {
      // An ack answering an outstanding probe: a bare no-event ack, or the
      // duplicate-ack the processor records when the re-ack repeats snd_una.
      // The peer is healthy but idle — double the effective idle period so
      // the next probe round comes later; forever-idle peers stop costing a
      // probe per idle period.
      c->idle_backoff =
          std::min(c->idle_backoff * 2, c->cfg.keepalive_backoff_max);
    }
  } else {
    c->idle_backoff = 1;  // real traffic: back to the configured cadence
  }
  ScheduleProbe(*c);  // the deadline tracks the (possibly new) backoff
  if (ev & CcbLayout::kEvCtrl) {
    HandleCtrl(*c);
    c = Get(id);  // HandleCtrl may fail/erase state; re-validate
    if (c == nullptr || c->state == CcbLayout::kFailed || c->reclaimed) {
      return;
    }
  }
  if (ev & CcbLayout::kEvAckAdvance) {
    HandleAckAdvance(*c);
    if (c->state == CcbLayout::kFailed || c->reclaimed) {
      return;
    }
  }
  if (ev & CcbLayout::kEvDupAck) {
    dup_ack_gauge_.Count();
    uint32_t dups = mem.Read32(c->ccb + CcbLayout::kDupAcks);
    if (dups >= c->dup_base + 3 && !c->unacked.empty()) {
      // Triple duplicate ack: the front segment is presumed lost.
      c->dup_base = dups;
      Seg& front = c->unacked.front();
      front.owed = true;
      if (TransmitSeg(*c, front)) {
        c->fast_retransmits++;
        c->retransmits++;
        retransmit_gauge_.Count();
      } else {
        DeferWindow(*c);  // the drain replay resends the owed front
      }
    }
  }
  if (ev & CcbLayout::kEvOoo) {
    ooo_gauge_.Count();
  }
  if (ev & (CcbLayout::kEvData | CcbLayout::kEvOoo | CcbLayout::kEvRingFull)) {
    // Every data arrival is acked immediately; out-of-order and ring-full
    // arrivals re-ack rcv_nxt so the peer learns what is still missing.
    SendAck(*c);
  }
}

void StreamLayer::Establish(Conn& c, uint16_t peer, uint32_t peer_seq) {
  Memory& mem = kernel_.machine().memory();
  c.peer_port = peer;
  mem.Write32(c.ccb + CcbLayout::kPeer, peer);
  mem.Write32(c.ccb + CcbLayout::kRcvNxt, peer_seq + 1);
  SetState(c, CcbLayout::kEstablished);
  // The peer is now a connection-lifetime invariant: re-fold the processor
  // with it (and the ring geometry) through the Specializer — an equal-tier
  // promotion, since the pre-establishment block folds invariants that just
  // moved. A refusal drops to the generic walk (the install hook records the
  // degradation); only a refusal with no generic to fall to — the stale
  // block cannot carry established traffic — fails the connection.
  if (!kernel_.spec().Promote(c.spec, SpecTier::kSpecialized) &&
      kernel_.spec().TierOf(c.spec) != SpecTier::kGeneric) {
    Fail(c);
  }
  if (c.state == CcbLayout::kFailed || c.reclaimed) {
    return;
  }
  MarkActivity(c);
  if (c.cfg.keepalive_idle_us > 0) {
    RegisterProbe(c);  // the probe send is the connection's own code now
    ArmSweep();        // the reaper starts watching at establishment
  }
  kernel_.UnblockAll(c.senders);
}

void StreamLayer::HandleCtrl(Conn& c) {
  Memory& mem = kernel_.machine().memory();
  Addr f = mem.Read32(c.ccb + CcbLayout::kLastFrame);
  uint32_t src = mem.Read32(f + FrameLayout::kSrcPort);
  uint32_t len = mem.Read32(f + FrameLayout::kLength);
  if (len < StreamSeg::kHdrBytes) {
    return;  // cannot happen: the processors validate before raising kEvCtrl
  }
  uint32_t seq = mem.Read32(f + FrameLayout::kPayload + StreamSeg::kSeq);
  uint32_t ack = mem.Read32(f + FrameLayout::kPayload + StreamSeg::kAck);
  uint32_t flags = mem.Read32(f + FrameLayout::kPayload + StreamSeg::kFlags);

  if (flags & StreamSeg::kFlagRst) {
    if (c.state != CcbLayout::kListen) {
      Fail(c);
    }
    return;
  }
  switch (c.state) {
    case CcbLayout::kListen:
      if (flags & StreamSeg::kFlagSyn) {
        Establish(c, static_cast<uint16_t>(src), seq);
        if (c.state == CcbLayout::kFailed || c.reclaimed) {
          return;  // re-synthesis failed mid-establishment (injected fault)
        }
        Seg synack;
        synack.seq = c.snd_nxt;
        synack.flags = StreamSeg::kFlagSyn;
        c.snd_nxt += 1;
        mem.Write32(c.ccb + CcbLayout::kSndNxt, c.snd_nxt);
        c.unacked.push_back(synack);
        if (!TransmitSeg(c, c.unacked.back())) {
          DeferWindow(c);  // replayed from unacked; RTO covers it too
        }
        ArmTimer(c);
      }
      return;
    case CcbLayout::kSynSent:
      if ((flags & StreamSeg::kFlagSyn) && src == c.peer_port) {
        if ((flags & StreamSeg::kFlagAck) && SeqGt(ack, c.iss)) {
          mem.Write32(c.ccb + CcbLayout::kSndUna, ack);
          if (!c.unacked.empty() &&
              (c.unacked.front().flags & StreamSeg::kFlagSyn)) {
            c.unacked.erase(c.unacked.begin());
          }
          c.retries = 0;
          c.rto_us = c.cfg.rto_base_us;
        }
        Establish(c, static_cast<uint16_t>(src), seq);
        if (c.state == CcbLayout::kFailed || c.reclaimed) {
          return;  // re-synthesis failed mid-establishment (injected fault)
        }
        SendAck(c);
        PushWindow(c);
        if (c.unacked.empty()) {
          c.timer_armed = false;
        } else {
          ArmTimer(c);
        }
      }
      return;
    default:
      break;
  }
  // Established / fin-sent / done, reached with SYN or FIN flags.
  if (src != c.peer_port) {
    return;
  }
  if (flags & StreamSeg::kFlagSyn) {
    // The peer retransmitted its SYN: our SYN|ACK (or its ack) was lost.
    if (!c.unacked.empty() &&
        (c.unacked.front().flags & StreamSeg::kFlagSyn)) {
      Seg& syn = c.unacked.front();
      syn.owed = true;
      if (TransmitSeg(c, syn)) {
        c.retransmits++;
        retransmit_gauge_.Count();
      } else {
        DeferWindow(c);
      }
    } else {
      SendAck(c);
    }
    return;
  }
  if (flags & StreamSeg::kFlagFin) {
    // Piggybacked cumulative ack first (the fast path skipped this segment).
    uint32_t una = mem.Read32(c.ccb + CcbLayout::kSndUna);
    if (SeqGt(ack, una) && SeqLeq(ack, c.snd_nxt)) {
      mem.Write32(c.ccb + CcbLayout::kSndUna, ack);
      HandleAckAdvance(c);
      if (c.state == CcbLayout::kFailed || c.reclaimed) {
        return;
      }
    }
    if (seq == mem.Read32(c.ccb + CcbLayout::kRcvNxt)) {
      mem.Write32(c.ccb + CcbLayout::kRcvNxt, seq + 1);
      c.fin_received = true;
      kernel_.UnblockAll(c.ring->readers);  // end-of-stream is now readable
    }
    SendAck(c);
    MaybeFinish(c);
    return;
  }
}

void StreamLayer::HandleAckAdvance(Conn& c) {
  Memory& mem = kernel_.machine().memory();
  uint32_t una = mem.Read32(c.ccb + CcbLayout::kSndUna);
  const auto first_unacked = std::find_if(
      c.unacked.begin(), c.unacked.end(),
      [una](const Seg& s) { return !SeqLeq(s.seq + s.Span(), una); });
  const bool advanced = first_unacked != c.unacked.begin();
  c.unacked.erase(c.unacked.begin(), first_unacked);
  if (advanced) {
    // Recovery: the retry budget and timeout reset, the window re-opens one
    // segment per ack (the inverse of the timeout halving).
    c.retries = 0;
    c.rto_us = c.cfg.rto_base_us;
    c.cwnd = std::min(c.cwnd + 1, c.cfg.window_segments);
    c.dup_base = mem.Read32(c.ccb + CcbLayout::kDupAcks);
  }
  PushWindow(c);
  kernel_.UnblockAll(c.senders);
  if (c.unacked.empty()) {
    c.timer_armed = false;
    MaybeFinish(c);
  } else {
    ArmTimer(c);
  }
}

void StreamLayer::MaybeFinish(Conn& c) {
  if (c.fin_sent && c.fin_received && c.unacked.empty() && c.pending.empty() &&
      c.state != CcbLayout::kDone && c.state != CcbLayout::kFailed) {
    Finish(c);
  }
}

void StreamLayer::Finish(Conn& c) {
  SetState(c, CcbLayout::kDone);
  c.timer_armed = false;
  kernel_.UnblockAll(c.senders);
  kernel_.UnblockAll(c.ring->readers);
  // The port stays bound (so a peer retransmitting its FIN still gets acked)
  // until the receive ring is drained; then everything is reclaimed.
  MaybeReclaim(c);
}

// Graceful failure: the error is surfaced through Send/Recv, the gauge
// records it, and every parked thread is released — no wedged rings. The
// connection's kernel resources are reclaimed on the spot.
void StreamLayer::Fail(Conn& c) {
  SetState(c, CcbLayout::kFailed);
  c.timer_armed = false;
  failed_gauge_.Count();
  c.pending.clear();
  c.unacked.clear();
  kernel_.UnblockAll(c.senders);
  ReclaimConn(c);
}

void StreamLayer::MaybeReclaim(Conn& c) {
  if (c.reclaimed || c.state != CcbLayout::kDone || !c.fin_queued) {
    return;
  }
  if (c.ring && io_.RingAvail(*c.ring) != 0) {
    return;  // undrained data: the ring (and flow, for FIN re-acks) stay
  }
  ReclaimConn(c);
}

// Returns every kernel resource a connection synthesis created: the flow, the
// segment processor, the alarm stub (unless an alarm is still in flight — the
// stub's code-store slot must stay its own until the last raised alarm has
// dispatched), the CCB and the ring. Block frees go through the kernel's
// deferred retire queue so code that may still be on an executor's path is
// never freed mid-run. The host record survives with its post-mortem record
// for later queries.
void StreamLayer::ReclaimConn(Conn& c) {
  if (c.reclaimed) {
    return;
  }
  Memory& mem = kernel_.machine().memory();
  Ended& e = c.ended;
  e.rto_us = c.rto_us;
  e.retransmits = Saturate32(c.retransmits);
  e.timeouts = Saturate32(c.timeouts);
  e.fast_retransmits = Saturate32(c.fast_retransmits);
  e.dup_acks = mem.Read32(c.ccb + CcbLayout::kDupAcks);
  e.out_of_order = mem.Read32(c.ccb + CcbLayout::kOoo);
  e.accepted_segments = mem.Read32(c.ccb + CcbLayout::kAccepted);
  e.rcv_nxt = mem.Read32(c.ccb + CcbLayout::kRcvNxt);
  e.cwnd = c.cwnd;
  e.local_port = c.local_port;
  e.state = static_cast<uint8_t>(c.state);
  e.degraded = kernel_.spec().DegradedOf(c.spec);
  c.reclaimed = true;
  reclaimed_.push_back(c.id);
  sweep_watch_.erase(c.id);
  tx_deferred_.erase(c.id);
  c.ack_deferred = false;
  c.wnd_deferred = false;

  pool_.UnbindFlow(c.local_port);
  // Retiring the handles releases whatever blocks they own through deferred
  // retirement (a degraded handle owns nothing — its active block aliases
  // the shared generic walk). The probe stub may still be chained for this
  // interrupt; chains drain before retired blocks are freed, and FinishProbe
  // revalidates, so the late run is harmless.
  kernel_.spec().Retire(c.spec);
  c.spec = kBadSpec;
  kernel_.spec().Retire(c.probe_spec);
  c.probe_spec = kBadSpec;
  if (c.alarms_pending == 0) {
    kernel_.RetireBlock(c.alarm_stub);
    c.alarm_stub = kInvalidBlock;
  }
  kernel_.UnblockAll(c.ring->readers);
  kernel_.UnblockAll(c.ring->writers);
  kernel_.allocator().Free(c.ring->base);
  c.ring.reset();
  kernel_.allocator().Free(c.ccb);
  c.ccb = 0;
}

int32_t StreamLayer::Send(ConnId conn, Addr buf, uint32_t n) {
  IoVec v{buf, n};
  return Sendv(conn, &v, 1);
}

// Gathering send: all iovecs land in the pending queue as one logical write,
// then one PushWindow segments them — so k small iovecs cost one window push,
// not k, and short writes split exactly at the window limit like Send always
// did.
int32_t StreamLayer::Sendv(ConnId conn, const IoVec* iov, uint32_t iovcnt) {
  Conn* c = Get(conn);
  if (c == nullptr || c->state == CcbLayout::kFailed ||
      c->state == CcbLayout::kDone || c->fin_queued) {
    return kIoError;
  }
  if (c->wnd_deferred) {
    // The TX ring was full when the window last pushed; queueing more bytes
    // now would just grow pending behind a stalled wire. Park on the NIC's
    // tx_waiters — the completion that frees a slot wakes us after the drain
    // replay has run.
    if (kernel_.current_thread() != kNoThread) {
      kernel_.BlockCurrentOn(pool_.tx_waiters(c->peer_port));
    }
    return kIoWouldBlock;
  }
  uint32_t limit = c->cfg.window_segments * c->cfg.max_seg_data;
  uint32_t used = static_cast<uint32_t>(c->pending.size());
  if (used >= limit) {
    if (kernel_.current_thread() != kNoThread) {
      kernel_.BlockCurrentOn(c->senders);
    }
    return kIoWouldBlock;
  }
  uint32_t room = limit - used;
  Memory& mem = kernel_.machine().memory();
  uint32_t taken = 0;
  for (uint32_t i = 0; i < iovcnt && room > 0; i++) {
    uint32_t take = std::min(iov[i].len, room);
    if (take == 0) {
      continue;
    }
    const uint8_t* src = mem.raw(iov[i].base);
    c->pending.insert(c->pending.end(), src, src + take);
    kernel_.machine().Charge(take / 2, take / 4, take / 4);  // user->net copy
    room -= take;
    taken += take;
  }
  PushWindow(*c);
  return static_cast<int32_t>(taken);
}

int32_t StreamLayer::Recv(ConnId conn, Addr buf, uint32_t cap) {
  return RecvSpan(conn, buf, cap);
}

int32_t StreamLayer::RecvSpan(ConnId conn, Addr buf, uint32_t cap) {
  Conn* c = Get(conn);
  if (c == nullptr) {
    const std::optional<Ended> e = EndedOf(conn);
    return !e || e->state == CcbLayout::kFailed ? kIoError : 0;
  }
  if (c->state == CcbLayout::kFailed) {
    return kIoError;
  }
  if (c->reclaimed) {
    return 0;  // kDone, drained, resources gone: end of stream
  }
  if (io_.RingAvail(*c->ring) == 0) {
    if (c->fin_received || c->state == CcbLayout::kDone) {
      MaybeReclaim(*c);
      return 0;  // end of stream
    }
    // Park on the ring's reader queue; the deliver path wakes us.
    if (kernel_.current_thread() != kNoThread) {
      kernel_.BlockCurrentOn(c->ring->readers);
    }
    return kIoWouldBlock;
  }
  // Zero-copy drain: borrow the ring's contiguous readable run and bulk-copy
  // it out — at most two spans when the occupancy wraps the buffer edge,
  // instead of a load-store-mask round trip per byte.
  Memory& mem = kernel_.machine().memory();
  kernel_.machine().Charge(20, 2, 2);  // entry + channel state
  uint32_t copied = 0;
  while (copied < cap) {
    const uint8_t* span = nullptr;
    uint32_t run = io_.RingPeekSpan(*c->ring, &span);
    if (run == 0) {
      break;
    }
    uint32_t take = std::min(run, cap - copied);
    mem.WriteBytes(buf + copied, span, take);
    kernel_.machine().Charge(4 + take / 4, 1, take / 4);  // word-wide copy
    io_.RingConsumeSpan(*c->ring, take);
    copied += take;
  }
  if (copied > 0) {
    kernel_.UnblockOne(c->ring->writers);  // space was freed
    kernel_.scheduler().ReportIo(kernel_.current_thread(), copied,
                                 kernel_.NowUs());
    if (io_.RingAvail(*c->ring) == 0) {
      MaybeReclaim(*c);  // the reader just drained a finished connection
    }
  }
  return static_cast<int32_t>(copied);
}

bool StreamLayer::Close(ConnId conn) {
  Conn* c = Get(conn);
  if (c == nullptr || c->state == CcbLayout::kFailed) {
    return false;
  }
  if (c->state == CcbLayout::kDone) {
    MaybeReclaim(*c);
    return false;
  }
  if (c->fin_queued) {
    return true;
  }
  c->fin_queued = true;
  PushWindow(*c);
  return true;
}

StreamStats StreamLayer::Stats(ConnId conn) const {
  const Conn* c = Get(conn);
  StreamStats s;
  if (c == nullptr) {
    const std::optional<Ended> e = EndedOf(conn);
    return e ? e->Stats() : s;
  }
  if (c->reclaimed) {
    return c->ended.Stats();
  }
  Memory& mem = kernel_.machine().memory();
  s.retransmits = c->retransmits;
  s.timeouts = c->timeouts;
  s.fast_retransmits = c->fast_retransmits;
  s.dup_acks = mem.Read32(c->ccb + CcbLayout::kDupAcks);
  s.out_of_order = mem.Read32(c->ccb + CcbLayout::kOoo);
  s.accepted_segments = mem.Read32(c->ccb + CcbLayout::kAccepted);
  s.rto_us = c->rto_us;
  s.cwnd = c->cwnd;
  s.state = c->state;
  s.rcv_nxt = mem.Read32(c->ccb + CcbLayout::kRcvNxt);
  return s;
}

uint32_t StreamLayer::StateOf(ConnId conn) const {
  if (const Conn* c = Get(conn)) {
    return c->state;
  }
  const std::optional<Ended> e = EndedOf(conn);
  return e ? e->state : CcbLayout::kClosed;
}

uint16_t StreamLayer::PortOf(ConnId conn) const {
  if (const Conn* c = Get(conn)) {
    return c->local_port;
  }
  const std::optional<Ended> e = EndedOf(conn);
  return e ? e->local_port : 0;
}

Addr StreamLayer::CcbOf(ConnId conn) const {
  const Conn* c = Get(conn);
  return c == nullptr ? 0 : c->ccb;
}

std::shared_ptr<RingHost> StreamLayer::RingOf(ConnId conn) const {
  const Conn* c = Get(conn);
  return c == nullptr ? nullptr : c->ring;
}

BlockId StreamLayer::SynthDeliverOf(ConnId conn) const {
  const Conn* c = Get(conn);
  return c == nullptr ? kInvalidBlock : kernel_.spec().ActiveOf(c->spec);
}

SpecId StreamLayer::SpecOf(ConnId conn) const {
  const Conn* c = Get(conn);
  return c == nullptr || c->reclaimed ? kBadSpec : c->spec;
}

bool StreamLayer::DegradedOf(ConnId conn) const {
  if (const Conn* c = Get(conn)) {
    return c->reclaimed ? c->ended.degraded : kernel_.spec().DegradedOf(c->spec);
  }
  const std::optional<Ended> e = EndedOf(conn);
  return e && e->degraded;
}

}  // namespace synthesis
