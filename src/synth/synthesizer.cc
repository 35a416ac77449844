#include "src/synth/synthesizer.h"

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
size_t DeleteInstrs(std::vector<Instr>& code, const std::vector<bool>& keep) {
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
  return removed;
}

// --- Constant propagation / folding ------------------------------------------

struct AbsState {
  std::optional<uint32_t> regs[kNumRegisters];
  std::optional<std::pair<uint32_t, uint32_t>> cc;

  void Reset() {
    for (auto& r : regs) {
      r.reset();
    }
    cc.reset();
  }
  void ClobberAll() { Reset(); }
};

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

  auto& code = out.code;
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
        auto known = [&](uint8_t r) { return s.regs[r]; };
        auto fold_to_movei = [&](uint8_t rd, uint32_t value) {
          if (in.op != Opcode::kMoveI || in.imm != static_cast<int32_t>(value)) {
            changed = true;
          }
          in.op = Opcode::kMoveI;
          in.rd = rd;
          in.rs = 0;
          in.imm = static_cast<int32_t>(value);
          s.regs[rd] = value;
        };
        switch (in.op) {
          case Opcode::kMoveI:
            s.regs[in.rd] = static_cast<uint32_t>(in.imm);
            break;
          case Opcode::kMove:
            if (auto v = known(in.rs)) {
              fold_to_movei(in.rd, *v);
            } else {
              s.regs[in.rd].reset();
            }
            break;
          case Opcode::kLea:
            if (auto v = known(in.rs)) {
              fold_to_movei(in.rd, *v + static_cast<uint32_t>(in.imm));
            } else {
              s.regs[in.rd].reset();
            }
            break;
          case Opcode::kLoad8:
          case Opcode::kLoad16:
          case Opcode::kLoad32: {
            size_t len = in.op == Opcode::kLoad8 ? 1 : in.op == Opcode::kLoad16 ? 2 : 4;
            auto base = known(in.rs);
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
              s.regs[in.rd].reset();
              changed = true;
            } else {
              s.regs[in.rd].reset();
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
              s.regs[in.rd].reset();
            }
            break;
          }
          case Opcode::kLoadIdx32:
            if (auto idx = known(in.rs)) {
              in.op = Opcode::kLoadA32;
              in.imm = static_cast<int32_t>(static_cast<uint32_t>(in.imm) + *idx * 4);
              in.rs = 0;
              changed = true;
              // Re-processed as kLoadA32 next pass (may fold to an immediate).
            }
            s.regs[in.rd].reset();
            break;
          case Opcode::kStore8:
          case Opcode::kStore16:
          case Opcode::kStore32:
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
            s.regs[kA7] = known(kA7) ? std::optional<uint32_t>(*known(kA7) - 4)
                                     : std::nullopt;
            break;
          case Opcode::kPop:
            s.regs[in.rd].reset();
            s.regs[kA7] = known(kA7) ? std::optional<uint32_t>(*known(kA7) + 4)
                                     : std::nullopt;
            break;
          case Opcode::kAdd:
          case Opcode::kSub:
          case Opcode::kAnd:
          case Opcode::kOr:
          case Opcode::kXor: {
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
              s.regs[in.rd].reset();
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
              s.regs[in.rd].reset();
            }
            break;
          }
          case Opcode::kCmp:
            if (known(in.rd) && known(in.rs)) {
              s.cc = std::make_pair(*known(in.rd), *known(in.rs));
            } else {
              s.cc.reset();
            }
            break;
          case Opcode::kCmpI:
            if (known(in.rd)) {
              s.cc = std::make_pair(*known(in.rd), static_cast<uint32_t>(in.imm));
            } else {
              s.cc.reset();
            }
            break;
          case Opcode::kTst:
            if (known(in.rd)) {
              s.cc = std::make_pair(*known(in.rd), 0u);
            } else {
              s.cc.reset();
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
            if (auto base = known(in.rs); base && options.constant_fold) {
              in.op = Opcode::kCasA;
              in.imm = static_cast<int32_t>(*base + static_cast<uint32_t>(in.imm));
              in.rs = 0;
              changed = true;
            }
            s.regs[kD0].reset();
            s.cc.reset();
            break;
          case Opcode::kCasA:
            s.regs[kD0].reset();
            s.cc.reset();
            break;
          case Opcode::kMovemLoad: {
            int count = in.imm > 16 ? 16 : in.imm;
            for (int r = 0; r < count; r++) {
              s.regs[r].reset();
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
        st.removed_instructions += DeleteInstrs(code, reachable);
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
        st.removed_instructions += DeleteInstrs(code, keep);
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
        } else if ((in.op == Opcode::kAddI || in.op == Opcode::kSubI ||
                    in.op == Opcode::kOrI || in.op == Opcode::kLslI ||
                    in.op == Opcode::kLsrI) &&
                   in.imm == 0) {
          to_nop = true;
        } else if (in.op == Opcode::kMulI && in.imm == 1) {
          to_nop = true;
        } else if (in.op == Opcode::kAndI && in.imm == -1) {
          to_nop = true;
        } else if (in.op == Opcode::kLea && in.imm == 0) {
          in.op = Opcode::kMove;
          changed = true;
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
        st.removed_instructions += DeleteInstrs(code, keep);
        changed = true;
      }
    }

    if (!changed) {
      break;
    }
  }

  st.output_instructions = code.size();
  return out;
}

}  // namespace synthesis
