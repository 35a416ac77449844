// Packet demultiplexing, generic and synthesized (§2.2, §2.3, §5).
//
// The demux decides, per received frame, which open flow (destination port)
// the packet belongs to, verifies the checksum, and deposits
// [len.lo len.hi src.lo src.hi payload...] into the flow's byte ring. Two
// implementations of the same contract coexist:
//
//  * The GENERIC demux is the traditional layered path: it walks a flow table
//    in memory, calls a shared checksum routine, and delivers through a
//    general single-byte ring put — one procedure call per byte, the general
//    Q_put of Figure 1. This is the measured baseline, the differential
//    oracle, and the fallback when the synthesized demux is refused.
//
//  * The SYNTHESIZED demux is an Executable Data Structure (§2.2), the same
//    trick as the Figure 3 ready queue: a two-level, port-indexed CELL TABLE
//    in simulated memory whose words are the BlockIds of per-flow deliver
//    blocks. The demux block itself is emitted once per NIC and never again:
//    it range-checks the destination port, indexes the 256-word root by the
//    port's high byte and the 256-cell leaf by its low byte, returns -2 on a
//    zero cell, and otherwise jumps through the cell (a tail call: the
//    deliver block returns to the demux's caller). Binding, rebinding or
//    unbinding a flow is one cell store — no synthesis. Leaves are allocated
//    on the first bind that lands in them and freed when their last cell
//    clears; root words of absent leaves point at one shared all-zero leaf,
//    so the lookup never tests the root.
//
//    Each per-flow deliver block applies the paper's methods on its own:
//    ring constants folded into a bulk insert that publishes the producer
//    index once (Factoring Invariants), the checksum inlined (Collapsing
//    Layers), and fixed-size datagram flows' checksum and copy loops unrolled
//    with the length folded to an immediate.
//
// Demux contract (both routines): a1 = frame base. Returns d0 = 1 delivered,
// 0 rejected (checksum / malformed length / ring full; counters in simulated
// memory record which), -2 no matching flow. d2 = matched destination port
// whenever d0 != -2.
#ifndef SRC_NET_DEMUX_H_
#define SRC_NET_DEMUX_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/net/frame.h"

namespace synthesis {

// Generic flow-table entry layout (the table the interpreted demux walks),
// relative to the entry base. Custom flows (the stream layer) carry their own
// handler block and a context pointer the generic handler dereferences.
struct FlowEntryLayout {
  static constexpr uint32_t kPort = 0;
  static constexpr uint32_t kRing = 4;
  static constexpr uint32_t kCtr = 8;
  static constexpr uint32_t kFixed = 12;
  static constexpr uint32_t kHandler = 16;  // BlockId of the generic deliver
  static constexpr uint32_t kCtx = 20;      // handler context (e.g. a CCB)
  static constexpr uint32_t kBytes = 24;
};

class DemuxSynthesizer {
 public:
  // Sized for the C10K scenario: a pool of 8 NICs hash-shards ~4k connection
  // flows to ~512 per demux, so each flow table carries comfortable headroom
  // (the table is 4 + kMaxFlows * FlowEntryLayout::kBytes ≈ 25 KB of
  // simulated memory per NIC).
  static constexpr uint32_t kMaxFlows = 1024;
  // Fixed-size flows up to this many payload bytes get fully unrolled
  // checksum and copy code.
  static constexpr uint32_t kUnrollLimit = 64;
  // Cell-table geometry: the root has one word per high port byte, each leaf
  // one cell per low port byte.
  static constexpr uint32_t kRootWords = 256;
  static constexpr uint32_t kLeafCells = 256;

  explicit DemuxSynthesizer(Kernel& kernel);
  ~DemuxSynthesizer();

  // Opens a flow for `port` delivering into the ring at `ring_base`
  // (a RingLayout ring). `fixed_len` > 0 declares every datagram of the flow
  // to be exactly that many payload bytes — an invariant the synthesizer
  // folds into the flow's deliver block. Returns false, with nothing
  // changed, when the port is taken, the table is full, or memory or the
  // code store refuses.
  bool AddFlow(uint16_t port, Addr ring_base, uint32_t fixed_len = 0);
  // Opens a flow whose per-packet processing is caller-supplied: the cell
  // points at `synth_deliver` (a per-flow specialized block, a1 = frame) and
  // the generic walk calls `generic_deliver` (a shared interpreted block,
  // a1 = frame, a2 = flow entry, a4 = ring, d5 = validated length) with `ctx`
  // available in the entry. The stream layer uses this to install its
  // per-connection segment processors. Emits no code.
  bool AddFlowCustom(uint16_t port, Addr ring_base, Addr ctx,
                     BlockId synth_deliver, BlockId generic_deliver);
  // Swaps a custom flow's synthesized deliver (connection state changed —
  // e.g. establishment folds the now-known peer): one cell store. False for
  // unbound ports and for datagram flows, whose deliver the demux owns.
  bool SetFlowDeliver(uint16_t port, BlockId synth_deliver);
  bool RemoveFlow(uint16_t port);
  bool HasFlow(uint16_t port) const { return index_.count(port) != 0; }
  size_t flow_count() const { return flows_.size(); }

  // Building blocks and counter addresses custom deliver routines share with
  // the demux (so generic/synthesized paths bump identical counters).
  BlockId csum_block() const { return csum_; }
  BlockId put1_block() const { return put1_; }
  Addr ctr_malformed_addr() const;
  Addr ctr_csum_addr() const;

  // The two interchangeable demux routines. Both are installed once; flow
  // changes only rewrite the tables they read. The synthesized one is the
  // lookup handle's active block: the generic walk after a refused emit.
  BlockId generic_demux() const { return generic_; }
  BlockId synthesized_demux() const;

  // Invoked when the synthesized demux changes hands (a refused install
  // falling back to the generic walk), so the owning device can repoint its
  // demux cell. The hook must be cheap and idempotent.
  void SetSwapHook(std::function<void()> hook) { swap_hook_ = std::move(hook); }

  // Counters, bumped by the demux micro-code in simulated memory and read
  // there.
  uint64_t csum_rejects() const;
  uint64_t malformed() const;
  uint64_t ring_drops() const;
  uint64_t delivered_total() const;
  uint64_t delivered(uint16_t port) const;
  // Continues a flow's delivered count from another demux (pool migration):
  // one store into the flow's counter word. False for an unbound port.
  bool SetDelivered(uint16_t port, uint32_t count);

 private:
  struct Flow {
    uint16_t port = 0;
    Addr ring = 0;
    Addr ctr = 0;  // per-flow delivered counter word
    Addr ctx = 0;  // custom-flow context (e.g. stream CCB), 0 for datagram
    uint32_t fixed_len = 0;
    BlockId handler = kInvalidBlock;  // generic-walk deliver routine
    BlockId deliver = kInvalidBlock;  // synthesized per-flow deliver
    bool owns_deliver = false;  // demux-emitted (AddFlow) vs caller-owned
  };

  // Shared front half of AddFlow/AddFlowCustom: capacity and duplicate
  // checks, the leaf the port's cell lives in, and the counter word. Returns
  // false with nothing acquired.
  bool Reserve(uint16_t port, Flow* f);
  // Undoes a successful Reserve whose flow was never committed.
  void Unreserve(const Flow& f);
  // Appends the flow to the generic table and stores its cell.
  void Commit(const Flow& f);
  void WriteEntry(uint32_t i);
  Addr LeafOf(uint16_t port) const;
  Addr CellAddr(uint16_t port) const;
  bool EnsureLeaf(uint16_t port);
  void ReleaseLeafIfEmpty(uint16_t port);
  BlockId BuildTableDemux();  // emit callback: the install-once lookup block
  BlockId SynthesizeDeliver(const Flow& f) const;

  Kernel& kernel_;
  Addr ftab_ = 0;  // count word + kMaxFlows entries of FlowEntryLayout::kBytes
  Addr ctrs_ = 0;  // csum_rejects / malformed / ring_drops / delivered_total
  Addr root_ = 0;        // kRootWords leaf addresses, in words (address / 4)
  Addr empty_leaf_ = 0;  // all-zero leaf every absent root word points at
  std::array<uint16_t, kRootWords> leaf_live_{};  // live cells per leaf
  BlockId csum_ = kInvalidBlock;        // shared checksum verify routine
  BlockId put1_ = kInvalidBlock;        // generic one-byte ring put
  BlockId deliver_gen_ = kInvalidBlock; // generic layered delivery
  BlockId generic_ = kInvalidBlock;
  SpecId spec_ = kBadSpec;  // the lookup block's handle (generic = the walk)
  std::function<void()> swap_hook_;
  std::vector<Flow> flows_;  // flows_[i] is generic-table entry i
  std::unordered_map<uint16_t, uint32_t> index_;  // port -> position in flows_
};

}  // namespace synthesis

#endif  // SRC_NET_DEMUX_H_
