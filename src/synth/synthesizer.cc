#include "src/synth/synthesizer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>

#include "src/machine/opcode.h"

namespace synthesis {

namespace {

constexpr size_t kMaxInlinedSize = 4096;

// Register liveness is tracked as a bitmask; bit 16 is the condition codes.
constexpr uint32_t kCcBit = 1u << 16;
constexpr uint32_t kAllRegs = 0xFFFF;

uint32_t RegBit(uint8_t r) { return 1u << r; }

struct DefUse {
  uint32_t def = 0;
  uint32_t use = 0;
  bool removable = false;  // safe to delete when all defs are dead
};

DefUse DefUseOf(const Instr& in) {
  DefUse d;
  switch (in.op) {
    case Opcode::kMoveI:
      d.def = RegBit(in.rd);
      d.removable = true;
      break;
    case Opcode::kMove:
    case Opcode::kLea:
    case Opcode::kLoad8:
    case Opcode::kLoad16:
    case Opcode::kLoad32:
      d.def = RegBit(in.rd);
      d.use = RegBit(in.rs);
      d.removable = true;
      break;
    case Opcode::kStore8:
    case Opcode::kStore16:
    case Opcode::kStore32:
    case Opcode::kStoreIdx32:
      d.use = RegBit(in.rd) | RegBit(in.rs);
      break;
    case Opcode::kLoadA8:
    case Opcode::kLoadA16:
    case Opcode::kLoadA32:
      d.def = RegBit(in.rd);
      d.removable = true;
      break;
    case Opcode::kLoadIdx32:
      d.def = RegBit(in.rd);
      d.use = RegBit(in.rs);
      d.removable = true;
      break;
    case Opcode::kStoreA8:
    case Opcode::kStoreA16:
    case Opcode::kStoreA32:
      d.use = RegBit(in.rs);
      break;
    case Opcode::kCasA:
      d.use = RegBit(kD0) | RegBit(in.rd);
      d.def = RegBit(kD0) | kCcBit;
      break;
    case Opcode::kPush:
      d.use = RegBit(in.rs) | RegBit(kA7);
      d.def = RegBit(kA7);
      break;
    case Opcode::kPop:
      d.use = RegBit(kA7);
      d.def = RegBit(in.rd) | RegBit(kA7);
      break;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
      d.def = RegBit(in.rd);
      d.use = RegBit(in.rd) | RegBit(in.rs);
      d.removable = true;
      break;
    case Opcode::kAddI:
    case Opcode::kSubI:
    case Opcode::kMulI:
    case Opcode::kAndI:
    case Opcode::kOrI:
    case Opcode::kLslI:
    case Opcode::kLsrI:
      d.def = RegBit(in.rd);
      d.use = RegBit(in.rd);
      d.removable = true;
      break;
    case Opcode::kCmp:
      d.def = kCcBit;
      d.use = RegBit(in.rd) | RegBit(in.rs);
      d.removable = true;
      break;
    case Opcode::kCmpI:
    case Opcode::kTst:
      d.def = kCcBit;
      d.use = RegBit(in.rd);
      d.removable = true;
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBgt:
    case Opcode::kBle:
    case Opcode::kBhi:
    case Opcode::kBls:
      d.use = kCcBit;
      break;
    case Opcode::kBra:
      break;
    case Opcode::kJsr:
    case Opcode::kJsrInd:
    case Opcode::kJmpInd:
    case Opcode::kTrap:
      d.use = kAllRegs | kCcBit;
      d.def = kAllRegs | kCcBit;
      break;
    case Opcode::kRts:
    case Opcode::kHalt:
      d.use = kAllRegs;
      break;
    case Opcode::kCas:
      d.use = RegBit(kD0) | RegBit(in.rd) | RegBit(in.rs);
      d.def = RegBit(kD0) | kCcBit;
      break;
    case Opcode::kMovemSave: {
      uint32_t mask = in.imm >= 16 ? kAllRegs : ((1u << in.imm) - 1);
      d.use = mask | RegBit(in.rd);
      break;
    }
    case Opcode::kMovemLoad: {
      uint32_t mask = in.imm >= 16 ? kAllRegs : ((1u << in.imm) - 1);
      d.def = mask;
      d.use = RegBit(in.rs);
      break;
    }
    case Opcode::kSetVbr:
      d.use = RegBit(in.rs);
      break;
    case Opcode::kNop:
      d.removable = true;
      break;
    case Opcode::kCharge:
    case Opcode::kNumOpcodes:
      break;
  }
  return d;
}

// True if control never falls through past this instruction.
bool IsTerminator(Opcode op) {
  return op == Opcode::kBra || op == Opcode::kRts || op == Opcode::kHalt ||
         op == Opcode::kJmpInd;
}

// Deletes instructions where keep[i] is false, remapping branch targets.
// A branch to a deleted instruction is redirected to the next kept one.
// `slots` (Prepare's per-instruction opaque slots) loses the same entries.
size_t DeleteInstrs(std::vector<Instr>& code, const std::vector<bool>& keep,
                    std::vector<int32_t>* slots) {
  size_t n = code.size();
  std::vector<int32_t> new_index(n + 1, 0);
  int32_t next = 0;
  for (size_t i = 0; i < n; i++) {
    new_index[i] = next;
    if (keep[i]) {
      next++;
    }
  }
  new_index[n] = next;
  // "Branch to deleted" maps to the index the next kept instruction gets.
  // Because new_index[i] counts kept instructions before i, that is already
  // the right value.
  std::vector<Instr> out;
  out.reserve(static_cast<size_t>(next));
  size_t removed = 0;
  for (size_t i = 0; i < n; i++) {
    if (!keep[i]) {
      removed++;
      continue;
    }
    Instr in = code[i];
    if (IsBranch(in.op)) {
      size_t t = in.imm < 0 ? 0 : static_cast<size_t>(in.imm);
      if (t > n) {
        t = n;
      }
      in.imm = new_index[t];
    }
    out.push_back(in);
  }
  code = std::move(out);
  if (slots != nullptr) {
    size_t kept = 0;
    for (size_t i = 0; i < n; i++) {
      if (keep[i]) {
        (*slots)[kept++] = (*slots)[i];
      }
    }
    slots->resize(kept);
  }
  return removed;
}

// --- Constant propagation / folding ------------------------------------------

struct AbsState {
  std::optional<uint32_t> regs[kNumRegisters];
  std::optional<std::pair<uint32_t, uint32_t>> cc;
  // Prepare only: registers (and the condition codes) whose value derives
  // from an opaque hole — unknown here, a constant in every instance.
  uint32_t opaque = 0;
  bool cc_opaque = false;

  void Reset() {
    for (auto& r : regs) {
      r.reset();
    }
    cc.reset();
    opaque = 0;
    cc_opaque = false;
  }
  void ClobberAll() { Reset(); }

  void Set(uint8_t r, uint32_t v) {
    regs[r] = v;
    opaque &= ~RegBit(r);
  }
  void Forget(uint8_t r) {
    regs[r].reset();
    opaque &= ~RegBit(r);
  }
  void MarkOpaque(uint8_t r) {
    regs[r].reset();
    opaque |= RegBit(r);
  }
  bool Opaque(uint8_t r) const { return (opaque & RegBit(r)) != 0; }
  // Known here or opaque: a constant in every instance's Specialize.
  bool Fixed(uint8_t r) const { return regs[r].has_value() || Opaque(r); }

  void SetCc(uint32_t lhs, uint32_t rhs) {
    cc = std::make_pair(lhs, rhs);
    cc_opaque = false;
  }
  void ForgetCc() {
    cc.reset();
    cc_opaque = false;
  }
  void MarkCcOpaque() {
    cc.reset();
    cc_opaque = true;
  }
};

// The immediate that makes a peephole rule fire on `op` (an identity
// operation, or kLea's "no displacement"), or none for ops without one.
std::optional<int32_t> IdentityImm(Opcode op) {
  switch (op) {
    case Opcode::kAddI:
    case Opcode::kSubI:
    case Opcode::kOrI:
    case Opcode::kLslI:
    case Opcode::kLsrI:
    case Opcode::kLea:
      return 0;
    case Opcode::kMulI:
      return 1;
    case Opcode::kAndI:
      return -1;
    default:
      return std::nullopt;
  }
}

std::optional<bool> EvalCond(Opcode op, uint32_t lhs, uint32_t rhs) {
  int32_t sl = static_cast<int32_t>(lhs);
  int32_t sr = static_cast<int32_t>(rhs);
  switch (op) {
    case Opcode::kBeq:
      return lhs == rhs;
    case Opcode::kBne:
      return lhs != rhs;
    case Opcode::kBlt:
      return sl < sr;
    case Opcode::kBge:
      return sl >= sr;
    case Opcode::kBgt:
      return sl > sr;
    case Opcode::kBle:
      return sl <= sr;
    case Opcode::kBhi:
      return lhs > rhs;
    case Opcode::kBls:
      return lhs <= rhs;
    default:
      return std::nullopt;
  }
}

}  // namespace

struct Synthesizer::Opaque {
  std::vector<int32_t> slot;  // per instruction: its imm's opaque slot, or -1
  std::vector<PreparedTemplate::Guard> guards;
};

bool PreparedTemplate::Trips(std::span<const int32_t> values) const {
  for (const Guard& g : guards_) {
    if (values[g.slot] == g.value) {
      return true;
    }
  }
  return false;
}

CodeBlock Synthesizer::Specialize(const CodeTemplate& tmpl, const Bindings& bindings,
                                  const InvariantMemory* invariants,
                                  const SynthesisOptions& options, SynthesisStats* stats,
                                  const std::string& output_name) const {
  CodeBlock out;
  out.name = output_name.empty() ? tmpl.block.name + "$synth" : output_name;
  out.code = tmpl.block.code;

  SynthesisStats local;
  SynthesisStats& st = stats ? *stats : local;
  st.input_instructions = out.code.size();

  // --- Bind holes (Factoring Invariants, part 1) ------------------------------
  for (const SymUse& use : tmpl.holes) {
    if (!bindings.Has(use.name)) {
      std::fprintf(stderr, "Synthesizer: template '%s' hole '%s' unbound\n",
                   tmpl.block.name.c_str(), use.name.c_str());
      std::abort();
    }
    out.code[use.index].imm = bindings.Get(use.name);
  }

  Optimize(out.code, invariants, options, st, nullptr);
  st.output_instructions = out.code.size();
  return out;
}

PreparedTemplate Synthesizer::Prepare(std::shared_ptr<const CodeTemplate> tmpl,
                                      const Bindings& fixed,
                                      const std::vector<std::string>& opaque,
                                      const SynthesisOptions& options) const {
  PreparedTemplate p;
  p.fixed_ = fixed;
  p.opaque_ = opaque;
  p.options_ = options;
  std::vector<Instr> code = tmpl->block.code;
  Opaque opq;
  opq.slot.assign(code.size(), -1);
  for (const SymUse& use : tmpl->holes) {
    Instr& in = code[use.index];
    auto it = std::find(opaque.begin(), opaque.end(), use.name);
    if (it == opaque.end()) {
      if (!fixed.Has(use.name)) {
        std::fprintf(stderr, "Synthesizer: template '%s' hole '%s' neither fixed nor opaque\n",
                     tmpl->block.name.c_str(), use.name.c_str());
        std::abort();
      }
      in.imm = fixed.Get(use.name);
      continue;
    }
    opq.slot[use.index] = static_cast<int32_t>(it - opaque.begin());
    in.imm = 0;  // patched per instance
    // Read by inlining or liveness before any fold runs.
    if (in.op == Opcode::kJsr || in.op == Opcode::kMovemSave ||
        in.op == Opcode::kMovemLoad) {
      p.declined_ = true;
    }
  }
  p.tmpl_ = std::move(tmpl);
  if (p.declined_) {
    return p;
  }
  p.stats_.input_instructions = code.size();
  if (!Optimize(code, nullptr, options, p.stats_, &opq)) {
    p.declined_ = true;
    return p;
  }
  p.stats_.output_instructions = code.size();
  for (size_t i = 0; i < code.size(); i++) {
    if (opq.slot[i] >= 0) {
      p.patches_.push_back(PreparedTemplate::Patch{
          static_cast<uint32_t>(i), static_cast<uint32_t>(opq.slot[i])});
    }
  }
  p.code_ = std::move(code);
  p.guards_ = std::move(opq.guards);
  return p;
}

CodeBlock Synthesizer::Instantiate(const PreparedTemplate& p,
                                   std::span<const int32_t> values,
                                   SynthesisStats* stats,
                                   const std::string& output_name) const {
  if (values.size() != p.opaque_.size()) {
    std::fprintf(stderr, "Synthesizer: template '%s' has %zu opaque holes, got %zu values\n",
                 p.tmpl_->block.name.c_str(), p.opaque_.size(), values.size());
    std::abort();
  }
  if (p.declined_ || p.Trips(values)) {
    Bindings bindings = p.fixed_;
    for (size_t i = 0; i < values.size(); i++) {
      bindings.Set(p.opaque_[i], values[i]);
    }
    return Specialize(*p.tmpl_, bindings, nullptr, p.options_, stats, output_name);
  }
  CodeBlock out{output_name.empty() ? p.tmpl_->block.name + "$synth" : output_name,
                p.code_};
  for (const PreparedTemplate::Patch& patch : p.patches_) {
    out.code[patch.index].imm = values[patch.slot];
  }
  if (stats) {
    *stats = p.stats_;
  }
  return out;
}

bool Synthesizer::Optimize(std::vector<Instr>& code, const InvariantMemory* invariants,
                           const SynthesisOptions& options, SynthesisStats& st,
                           Opaque* opaque) const {
  std::vector<int32_t>* slots = opaque ? &opaque->slot : nullptr;
  int inline_rounds = 0;

  for (int pass = 0; pass < options.max_passes; pass++) {
    bool changed = false;

    // --- Collapsing Layers: inline direct calls -------------------------------
    if (options.inline_calls && inline_rounds < options.max_inline_depth) {
      bool inlined_any = false;
      for (size_t i = 0; i < code.size(); i++) {
        if (code[i].op != Opcode::kJsr || !store_->Valid(code[i].imm)) {
          continue;
        }
        const CodeBlock& callee = store_->Get(code[i].imm);
        if (code.size() + callee.code.size() > kMaxInlinedSize) {
          continue;
        }
        int32_t body_len = static_cast<int32_t>(callee.code.size());
        // Remap host branch targets around the growing region.
        for (Instr& in : code) {
          if (IsBranch(in.op) && in.imm > static_cast<int32_t>(i)) {
            in.imm += body_len - 1;
          }
        }
        // Transform the callee body.
        std::vector<Instr> body = callee.code;
        for (Instr& in : body) {
          if (IsBranch(in.op)) {
            in.imm += static_cast<int32_t>(i);
          } else if (in.op == Opcode::kRts) {
            in.op = Opcode::kBra;
            in.rd = in.rs = 0;
            in.imm = static_cast<int32_t>(i) + body_len;
          }
        }
        code.erase(code.begin() + static_cast<ptrdiff_t>(i));
        code.insert(code.begin() + static_cast<ptrdiff_t>(i), body.begin(), body.end());
        if (slots != nullptr) {  // the call had no opaque slot; the body has none
          slots->insert(slots->begin() + static_cast<ptrdiff_t>(i),
                        static_cast<size_t>(body_len) - 1, -1);
        }
        st.inlined_calls++;
        inlined_any = true;
        changed = true;
        i += static_cast<size_t>(body_len) - 1;  // skip past the inlined body
      }
      if (inlined_any) {
        inline_rounds++;
      }
    }

    // --- Constant propagation, invariant-load folding, branch folding ---------
    // Under Prepare, each rewrite first checks its operands: one that is
    // opaque while the rest are known (or opaque) would fold in every
    // instance, so Prepare declines rather than guess. Asm puts holes only
    // in operand immediates, so no rewrite ever overwrites an opaque one.
    if (options.constant_fold) {
      std::set<int32_t> targets;
      for (const Instr& in : code) {
        if (IsBranch(in.op)) {
          targets.insert(in.imm);
        }
      }
      AbsState s;
      for (size_t i = 0; i < code.size(); i++) {
        if (targets.count(static_cast<int32_t>(i))) {
          s.Reset();  // conservative merge at join points
        }
        Instr& in = code[i];
        const bool imm_opaque = slots != nullptr && (*slots)[i] >= 0;
        auto known = [&](uint8_t r) { return s.regs[r]; };
        auto fold_to_movei = [&](uint8_t rd, uint32_t value) {
          if (in.op != Opcode::kMoveI || in.imm != static_cast<int32_t>(value)) {
            changed = true;
          }
          in.op = Opcode::kMoveI;
          in.rd = rd;
          in.rs = 0;
          in.imm = static_cast<int32_t>(value);
          s.Set(rd, value);
        };
        switch (in.op) {
          case Opcode::kMoveI:
            if (imm_opaque) {
              s.MarkOpaque(in.rd);
            } else {
              s.Set(in.rd, static_cast<uint32_t>(in.imm));
            }
            break;
          case Opcode::kMove:
            if (s.Opaque(in.rs)) {
              return false;
            }
            if (auto v = known(in.rs)) {
              fold_to_movei(in.rd, *v);
            } else {
              s.Forget(in.rd);
            }
            break;
          case Opcode::kLea:
            if (s.Opaque(in.rs) || (imm_opaque && known(in.rs))) {
              return false;
            }
            if (auto v = known(in.rs)) {
              fold_to_movei(in.rd, *v + static_cast<uint32_t>(in.imm));
            } else {
              s.Forget(in.rd);
            }
            break;
          case Opcode::kLoad8:
          case Opcode::kLoad16:
          case Opcode::kLoad32: {
            size_t len = in.op == Opcode::kLoad8 ? 1 : in.op == Opcode::kLoad16 ? 2 : 4;
            auto base = known(in.rs);
            if (s.Opaque(in.rs) || (imm_opaque && base)) {
              return false;
            }
            if (base && options.fold_invariant_loads && invariants &&
                invariants->Covers(*base + static_cast<uint32_t>(in.imm), len)) {
              uint32_t v = invariants->Read(*base + static_cast<uint32_t>(in.imm), len);
              fold_to_movei(in.rd, v);
              st.folded_loads++;
            } else if (base && options.constant_fold) {
              // Absolute-ification: fold the known base into the instruction
              // (68020 absolute-long mode), freeing the base register.
              in.op = in.op == Opcode::kLoad8    ? Opcode::kLoadA8
                      : in.op == Opcode::kLoad16 ? Opcode::kLoadA16
                                                 : Opcode::kLoadA32;
              in.imm = static_cast<int32_t>(*base + static_cast<uint32_t>(in.imm));
              in.rs = 0;
              s.Forget(in.rd);
              changed = true;
            } else {
              s.Forget(in.rd);
            }
            break;
          }
          case Opcode::kLoadA8:
          case Opcode::kLoadA16:
          case Opcode::kLoadA32: {
            size_t len = in.op == Opcode::kLoadA8 ? 1 : in.op == Opcode::kLoadA16 ? 2 : 4;
            Addr addr = static_cast<Addr>(in.imm);
            if (options.fold_invariant_loads && invariants &&
                invariants->Covers(addr, len)) {
              fold_to_movei(in.rd, invariants->Read(addr, len));
              st.folded_loads++;
            } else {
              s.Forget(in.rd);
            }
            break;
          }
          case Opcode::kLoadIdx32:
            if (s.Opaque(in.rs) || (imm_opaque && known(in.rs))) {
              return false;
            }
            if (auto idx = known(in.rs)) {
              in.op = Opcode::kLoadA32;
              in.imm = static_cast<int32_t>(static_cast<uint32_t>(in.imm) + *idx * 4);
              in.rs = 0;
              changed = true;
              // Re-processed as kLoadA32 next pass (may fold to an immediate).
            }
            s.Forget(in.rd);
            break;
          case Opcode::kStore8:
          case Opcode::kStore16:
          case Opcode::kStore32:
            if (s.Opaque(in.rd) || (imm_opaque && known(in.rd))) {
              return false;
            }
            if (auto base = known(in.rd); base && options.constant_fold) {
              in.op = in.op == Opcode::kStore8    ? Opcode::kStoreA8
                      : in.op == Opcode::kStore16 ? Opcode::kStoreA16
                                                  : Opcode::kStoreA32;
              in.imm = static_cast<int32_t>(*base + static_cast<uint32_t>(in.imm));
              in.rd = 0;
              changed = true;
            }
            break;
          case Opcode::kStoreIdx32:
            if (s.Opaque(in.rs) || (imm_opaque && known(in.rs))) {
              return false;
            }
            if (auto idx = known(in.rs)) {
              in.op = Opcode::kStoreA32;
              in.imm = static_cast<int32_t>(static_cast<uint32_t>(in.imm) + *idx * 4);
              // kStoreA32 takes its value from rs.
              in.rs = in.rd;
              in.rd = 0;
              changed = true;
            }
            break;
          case Opcode::kStoreA8:
          case Opcode::kStoreA16:
          case Opcode::kStoreA32:
          case Opcode::kMovemSave:
          case Opcode::kSetVbr:
          case Opcode::kCharge:
          case Opcode::kNop:
            break;
          case Opcode::kPush:
            // An unknown stack pointer stays unknown, an opaque one opaque.
            if (auto sp = known(kA7)) {
              s.Set(kA7, *sp - 4);
            }
            break;
          case Opcode::kPop:
            s.Forget(in.rd);
            if (auto sp = known(kA7)) {
              s.Set(kA7, *sp + 4);
            }
            break;
          case Opcode::kAdd:
          case Opcode::kSub:
          case Opcode::kAnd:
          case Opcode::kOr:
          case Opcode::kXor: {
            if (s.Fixed(in.rd) && s.Fixed(in.rs) &&
                (s.Opaque(in.rd) || s.Opaque(in.rs))) {
              return false;
            }
            auto a = known(in.rd);
            auto b = known(in.rs);
            if (a && b) {
              uint32_t v = in.op == Opcode::kAdd   ? *a + *b
                           : in.op == Opcode::kSub ? *a - *b
                           : in.op == Opcode::kAnd ? (*a & *b)
                           : in.op == Opcode::kOr  ? (*a | *b)
                                                   : (*a ^ *b);
              fold_to_movei(in.rd, v);
            } else {
              s.Forget(in.rd);
            }
            break;
          }
          case Opcode::kAddI:
          case Opcode::kSubI:
          case Opcode::kMulI:
          case Opcode::kAndI:
          case Opcode::kOrI:
          case Opcode::kLslI:
          case Opcode::kLsrI: {
            auto a = known(in.rd);
            if (s.Opaque(in.rd) || (imm_opaque && a)) {
              return false;
            }
            uint32_t immu = static_cast<uint32_t>(in.imm);
            if (a) {
              uint32_t v = in.op == Opcode::kAddI   ? *a + immu
                           : in.op == Opcode::kSubI ? *a - immu
                           : in.op == Opcode::kMulI ? *a * immu
                           : in.op == Opcode::kAndI ? (*a & immu)
                           : in.op == Opcode::kOrI  ? (*a | immu)
                           : in.op == Opcode::kLslI ? (*a << (in.imm & 31))
                                                    : (*a >> (in.imm & 31));
              fold_to_movei(in.rd, v);
            } else {
              s.Forget(in.rd);
            }
            break;
          }
          case Opcode::kCmp:
            if (s.Fixed(in.rd) && s.Fixed(in.rs) &&
                (s.Opaque(in.rd) || s.Opaque(in.rs))) {
              s.MarkCcOpaque();
            } else if (known(in.rd) && known(in.rs)) {
              s.SetCc(*known(in.rd), *known(in.rs));
            } else {
              s.ForgetCc();
            }
            break;
          case Opcode::kCmpI:
            if (s.Opaque(in.rd) || (imm_opaque && known(in.rd))) {
              s.MarkCcOpaque();
            } else if (known(in.rd)) {
              s.SetCc(*known(in.rd), static_cast<uint32_t>(in.imm));
            } else {
              s.ForgetCc();
            }
            break;
          case Opcode::kTst:
            if (s.Opaque(in.rd)) {
              s.MarkCcOpaque();
            } else if (known(in.rd)) {
              s.SetCc(*known(in.rd), 0u);
            } else {
              s.ForgetCc();
            }
            break;
          case Opcode::kBeq:
          case Opcode::kBne:
          case Opcode::kBlt:
          case Opcode::kBge:
          case Opcode::kBgt:
          case Opcode::kBle:
          case Opcode::kBhi:
          case Opcode::kBls:
            if (options.fold_branches && s.cc_opaque) {
              return false;
            }
            if (options.fold_branches && s.cc) {
              auto taken = EvalCond(in.op, s.cc->first, s.cc->second);
              if (taken.has_value()) {
                if (*taken) {
                  in.op = Opcode::kBra;
                } else {
                  in.op = Opcode::kNop;
                  in.imm = 0;
                }
                st.folded_branches++;
                changed = true;
              }
            }
            break;
          case Opcode::kBra:
            // Code after an unconditional branch is unreachable until the next
            // branch target; reset so stale knowledge cannot leak there.
            s.Reset();
            break;
          case Opcode::kJsrInd:
            if (s.Opaque(in.rs)) {
              return false;
            }
            // Only rewrite when the target is a real block; patch slots hold
            // placeholder values that must survive synthesis.
            if (auto v = known(in.rs);
                v && store_->Valid(static_cast<BlockId>(*v))) {
              in.op = Opcode::kJsr;
              in.imm = static_cast<int32_t>(*v);
              in.rs = 0;
              changed = true;
            }
            s.ClobberAll();
            break;
          case Opcode::kJsr:
          case Opcode::kTrap:
            s.ClobberAll();
            break;
          case Opcode::kJmpInd:
          case Opcode::kRts:
          case Opcode::kHalt:
            s.Reset();
            break;
          case Opcode::kCas:
            if (s.Opaque(in.rs) || (imm_opaque && known(in.rs))) {
              return false;
            }
            if (auto base = known(in.rs); base && options.constant_fold) {
              in.op = Opcode::kCasA;
              in.imm = static_cast<int32_t>(*base + static_cast<uint32_t>(in.imm));
              in.rs = 0;
              changed = true;
            }
            s.Forget(kD0);
            s.ForgetCc();
            break;
          case Opcode::kCasA:
            s.Forget(kD0);
            s.ForgetCc();
            break;
          case Opcode::kMovemLoad: {
            int count = in.imm > 16 ? 16 : in.imm;
            for (int r = 0; r < count; r++) {
              s.Forget(static_cast<uint8_t>(r));
            }
            break;
          }
          case Opcode::kNumOpcodes:
            break;
        }
      }
    }

    // --- Unreachable-code removal ----------------------------------------------
    if (options.fold_branches && !code.empty()) {
      std::vector<bool> reachable(code.size(), false);
      std::vector<size_t> work{0};
      while (!work.empty()) {
        size_t i = work.back();
        work.pop_back();
        if (i >= code.size() || reachable[i]) {
          continue;
        }
        reachable[i] = true;
        const Instr& in = code[i];
        if (IsBranch(in.op)) {
          work.push_back(in.imm < 0 ? code.size() : static_cast<size_t>(in.imm));
        }
        if (!IsTerminator(in.op)) {
          work.push_back(i + 1);
        }
      }
      bool any_dead = false;
      for (bool r : reachable) {
        if (!r) {
          any_dead = true;
          break;
        }
      }
      if (any_dead) {
        st.removed_instructions += DeleteInstrs(code, reachable, slots);
        changed = true;
      }
    }

    // --- Dead-code elimination ----------------------------------------------------
    if (options.dead_code_elim && !code.empty()) {
      size_t n = code.size();
      const uint32_t return_live = options.live_out;
      // Def/use is a static fact of each instruction: derive it once per
      // pass, not on every fixpoint iteration.
      std::vector<DefUse> defuse(n);
      for (size_t idx = 0; idx < n; idx++) {
        defuse[idx] = DefUseOf(code[idx]);
        if (code[idx].op == Opcode::kRts || code[idx].op == Opcode::kHalt) {
          defuse[idx].use = return_live;  // calling convention, not "everything"
        }
      }
      std::vector<uint32_t> live(n + 1, 0);
      live[n] = return_live;  // falling off the end returns to the caller
      bool grew = true;
      while (grew) {
        grew = false;
        for (size_t idx = n; idx-- > 0;) {
          const Instr& in = code[idx];
          const DefUse& du = defuse[idx];
          uint32_t out_live;
          if (in.op == Opcode::kRts || in.op == Opcode::kHalt ||
              in.op == Opcode::kJmpInd) {
            out_live = 0;  // uses encode what matters
          } else if (in.op == Opcode::kBra) {
            size_t t = in.imm < 0 || static_cast<size_t>(in.imm) > n
                           ? n
                           : static_cast<size_t>(in.imm);
            out_live = live[t];
          } else if (IsConditionalBranch(in.op)) {
            size_t t = in.imm < 0 || static_cast<size_t>(in.imm) > n
                           ? n
                           : static_cast<size_t>(in.imm);
            out_live = live[t] | live[idx + 1];
          } else {
            out_live = live[idx + 1];
          }
          uint32_t new_live = du.use | (out_live & ~du.def);
          if (in.op == Opcode::kRts || in.op == Opcode::kHalt ||
              in.op == Opcode::kJmpInd) {
            new_live = du.use;
          }
          if (new_live != live[idx]) {
            live[idx] = new_live;
            grew = true;
          }
        }
      }
      std::vector<bool> keep(n, true);
      bool any = false;
      for (size_t idx = 0; idx < n; idx++) {
        const Instr& in = code[idx];
        const DefUse& du = defuse[idx];
        uint32_t out_live = idx + 1 <= n ? live[idx + 1] : kAllRegs;
        if (du.removable && in.op != Opcode::kNop && (du.def & out_live) == 0) {
          keep[idx] = false;
          any = true;
        } else if (in.op == Opcode::kNop) {
          keep[idx] = false;
          any = true;
        }
      }
      if (any) {
        st.removed_instructions += DeleteInstrs(code, keep, slots);
        changed = true;
      }
    }

    // --- Peephole ------------------------------------------------------------------
    if (options.peephole && !code.empty()) {
      for (size_t i = 0; i < code.size(); i++) {
        Instr& in = code[i];
        bool to_nop = false;
        if (in.op == Opcode::kMove && in.rd == in.rs) {
          to_nop = true;
        } else if (auto identity = IdentityImm(in.op)) {
          if (slots != nullptr && (*slots)[i] >= 0) {
            // An opaque immediate: the rule stays off, guarded.
            PreparedTemplate::Guard g{static_cast<uint32_t>((*slots)[i]), *identity};
            if (std::find(opaque->guards.begin(), opaque->guards.end(), g) ==
                opaque->guards.end()) {
              opaque->guards.push_back(g);
            }
          } else if (in.imm == *identity && in.op == Opcode::kLea) {
            in.op = Opcode::kMove;
            changed = true;
          } else if (in.imm == *identity) {
            to_nop = true;
          }
        } else if (IsBranch(in.op)) {
          // Thread branch chains: a branch to an unconditional kBra follows it.
          int hops = 0;
          while (hops++ < 8 && in.imm >= 0 && static_cast<size_t>(in.imm) < code.size() &&
                 code[in.imm].op == Opcode::kBra &&
                 code[in.imm].imm != in.imm) {
            in.imm = code[in.imm].imm;
            changed = true;
          }
          if (in.imm == static_cast<int32_t>(i + 1)) {
            to_nop = true;  // branch to the next instruction
          }
        }
        if (to_nop) {
          in = Instr{};  // kNop
          changed = true;
        }
      }
      // Strip the nops we just created (DCE also strips nops next pass).
      std::vector<bool> keep(code.size(), true);
      bool any = false;
      for (size_t i = 0; i < code.size(); i++) {
        if (code[i].op == Opcode::kNop) {
          keep[i] = false;
          any = true;
        }
      }
      if (any) {
        st.removed_instructions += DeleteInstrs(code, keep, slots);
        changed = true;
      }
    }

    if (!changed) {
      break;
    }
  }
  return true;
}

}  // namespace synthesis
