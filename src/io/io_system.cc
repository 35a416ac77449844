#include "src/io/io_system.h"

#include <algorithm>
#include <cassert>

#include "src/io/copy_code.h"

namespace synthesis {

namespace {

constexpr uint32_t kSyscallEntryCycles = 32;  // trap + vector dispatch
constexpr uint32_t kCloseCycles = 240;        // free record, unhook vectors
constexpr int32_t kTypeNull = static_cast<int32_t>(DeviceType::kNull);
constexpr int32_t kTypeFile = static_cast<int32_t>(DeviceType::kFile);
constexpr int32_t kTypeRing = static_cast<int32_t>(DeviceType::kRing);
constexpr int32_t kTypeCached = static_cast<int32_t>(DeviceType::kCachedFile);

// Shifts rd right/left by the count in `cnt` via repeated single-bit shifts.
// The ISA only has immediate shifts, so the layered path — which reads the
// block shift out of the cache descriptor at run time — must loop. The
// synthesized path folds the shift to an immediate and skips all of this.
void EmitVarShift(Asm& a, bool right, uint8_t rd, uint8_t cnt,
                  const std::string& pfx) {
  a.Label(pfx + "top");
  a.Tst(cnt);
  a.Beq(pfx + "out");
  if (right) {
    a.LsrI(rd, 1);
  } else {
    a.LslI(rd, 1);
  }
  a.SubI(cnt, 1);
  a.Bra(pfx + "top");
  a.Label(pfx + "out");
}

// Emits the layered block-cached file body: walk the cache descriptor load
// by load, probe the lookup map, and transfer one contiguous run per trip
// through the shared copy routine. On a lookup miss the routine parks its
// progress in the scratch word, the wanted block in the miss word, and
// returns kIoMiss for the syscall layer to fill and re-enter.
// Register use mirrors EmitRingBody: a0 = record, a1 = user cursor,
// d2 = granted bytes, a5 = remaining, a6 = granted.
void EmitCachedBody(Asm& a, bool is_read, const std::string& pfx) {
  // Grant: reads are bounded by the live size, writes by the capacity.
  a.Load32(kD3, kA0, ChannelLayout::kPosition);
  if (is_read) {
    a.Load32(kD4, kA0, ChannelLayout::kSizeAddr);
    a.Load32(kD4, kD4, 0);  // live size
  } else {
    a.Load32(kD4, kA0, ChannelLayout::kCapacity);
  }
  a.Sub(kD4, kD3);
  a.Tst(kD4);
  a.Bne(pfx + "has");
  a.MoveI(kD0, is_read ? 0 : kIoError);  // EOF / extent full
  a.Rts();
  a.Label(pfx + "has");
  a.Cmp(kD2, kD4);
  a.Bls(pfx + "len");
  a.Move(kD2, kD4);
  a.Label(pfx + "len");
  a.Move(kA5, kD2);  // remaining
  a.Move(kA6, kD2);  // granted
  a.Label(pfx + "loop");
  a.Move(kD0, kA5);
  a.Tst(kD0);
  a.Beq(pfx + "done");
  // block = (pos >> desc.shift) + first_block  (shift-by-register loop)
  a.Load32(kD7, kA0, ChannelLayout::kCacheDesc);
  a.Load32(kD3, kA0, ChannelLayout::kPosition);
  a.Load32(kD5, kD7, BcacheLayout::kBlockShift);
  a.Move(kD1, kD3);
  EmitVarShift(a, /*right=*/true, kD1, kD5, pfx + "sh1");
  a.Load32(kD4, kA0, ChannelLayout::kFirstBlock);
  a.Add(kD1, kD4);
  // probe the map: slot = map_base + (block & map_mask) * 8
  a.Load32(kD4, kD7, BcacheLayout::kMapMask);
  a.Move(kD5, kD1);
  a.And(kD5, kD4);
  a.LslI(kD5, 3);
  a.Load32(kD4, kD7, BcacheLayout::kMapBase);
  a.Add(kD5, kD4);
  a.Load32(kD4, kD5, BcacheLayout::kSlotTag);
  a.Cmp(kD4, kD1);
  a.Bne(pfx + "miss");
  a.Load32(kD6, kD5, BcacheLayout::kSlotEntry);
  // touch the entry meta: ref = 1 (writes also set dirty)
  a.Load32(kD4, kD7, BcacheLayout::kMetaBase);
  a.Move(kD5, kD6);
  a.LslI(kD5, 3);
  a.Add(kD5, kD4);
  a.MoveI(kD4, 1);
  a.Store32(kD5, kD4, BcacheLayout::kMetaRef);
  if (!is_read) {
    a.Store32(kD5, kD4, BcacheLayout::kMetaDirty);
  }
  // cache byte address = data_base + (entry << shift) + (pos & block_mask)
  a.Load32(kD4, kD7, BcacheLayout::kBlockShift);
  EmitVarShift(a, /*right=*/false, kD6, kD4, pfx + "sh2");
  a.Load32(kD4, kD7, BcacheLayout::kDataBase);
  a.Add(kD6, kD4);
  a.Load32(kD4, kD7, BcacheLayout::kBlockMask);
  a.Move(kD5, kD3);
  a.And(kD5, kD4);
  a.Add(kD6, kD5);
  // m = min(remaining, block_bytes - off)
  a.Load32(kD4, kD7, BcacheLayout::kBlockBytes);
  a.Sub(kD4, kD5);
  a.Move(kD2, kA5);
  a.Cmp(kD2, kD4);
  a.Bls(pfx + "m");
  a.Move(kD2, kD4);
  a.Label(pfx + "m");
  if (is_read) {
    a.Move(kA2, kD6);
    a.Move(kA3, kA1);
  } else {
    a.Move(kA2, kA1);
    a.Move(kA3, kD6);
  }
  a.Move(kA4, kD2);
  a.Store32(kA0, kD2, ChannelLayout::kScratch);  // park m across the copy
  a.Add(kA1, kD2);                               // advance the user cursor
  a.Jsr(Asm::Sym("copy"));
  // pos += m; writes also keep size = max(size, pos)
  a.Load32(kD2, kA0, ChannelLayout::kScratch);
  a.Load32(kD3, kA0, ChannelLayout::kPosition);
  a.Add(kD3, kD2);
  a.Store32(kA0, kD3, ChannelLayout::kPosition);
  if (!is_read) {
    a.Load32(kD5, kA0, ChannelLayout::kSizeAddr);
    a.Load32(kD6, kD5, 0);
    a.Cmp(kD3, kD6);
    a.Bls(pfx + "sz");
    a.Store32(kD5, kD3, 0);
    a.Label(pfx + "sz");
  }
  a.Move(kD1, kA5);
  a.Sub(kD1, kD2);
  a.Move(kA5, kD1);
  a.Bra(pfx + "loop");
  a.Label(pfx + "miss");
  a.Store32(kA0, kD1, ChannelLayout::kMissBlock);
  a.Move(kD0, kA6);
  a.Sub(kD0, kA5);  // progress so far
  a.Store32(kA0, kD0, ChannelLayout::kScratch);
  a.MoveI(kD0, kIoMiss);
  a.Rts();
  a.Label(pfx + "done");
  a.Move(kD0, kA6);
  a.Rts();
}

// Emits the byte-ring transfer loop shared by ring-read and ring-write.
// Direction: read moves ring->user (cursor = tail), write moves user->ring
// (cursor = head). Register use:
//   a0 = channel record, a1 = user buffer cursor, d2 = requested bytes
//   a5 = remaining, a6 = original n; d6 = ring base (reloaded every trip).
// The loop transfers the largest contiguous run per trip via the copy
// routine; m is parked in the channel's scratch word across the copy.
void EmitRingBody(Asm& a, bool is_read, const std::string& pfx) {
  const uint32_t ring_field = is_read ? ChannelLayout::kRdRing : ChannelLayout::kWrRing;
  const uint32_t cursor_off = is_read ? RingLayout::kTail : RingLayout::kHead;

  // Single-byte fast path: character-at-a-time streams are the common case
  // the paper's synthesized queue operations serve in ~a dozen instructions
  // (§3.2); the general segmented path below handles everything else.
  a.CmpI(kD2, 1);
  a.Bne(pfx + "slow");
  a.Load32(kD6, kA0, ring_field);
  a.Load32(kD3, kD6, cursor_off);
  a.Load32(kD4, kD6, is_read ? RingLayout::kHead : RingLayout::kTail);
  a.Load32(kD7, kD6, RingLayout::kMask);
  a.Move(kD0, kD4);
  a.Sub(kD0, kD3);
  if (!is_read) {
    a.SubI(kD0, 1);
  }
  a.And(kD0, kD7);
  a.Tst(kD0);
  a.Bne(pfx + "f_ok");
  a.MoveI(kD0, kIoWouldBlock);
  a.Rts();
  a.Label(pfx + "f_ok");
  a.Move(kA2, kD6);
  a.AddI(kA2, RingLayout::kBuf);
  a.Add(kA2, kD3);  // ring byte address
  if (is_read) {
    a.Load8(kD1, kA2, 0);
    a.Store8(kA1, kD1, 0);
  } else {
    a.Load8(kD1, kA1, 0);
    a.Store8(kA2, kD1, 0);
  }
  a.AddI(kD3, 1);
  a.And(kD3, kD7);
  a.Store32(kD6, kD3, cursor_off);
  a.MoveI(kD0, 1);
  a.Rts();

  a.Label(pfx + "slow");
  a.Move(kA5, kD2);   // remaining
  a.Move(kA6, kD2);   // original n
  a.Label(pfx + "loop");
  a.Move(kD0, kA5);
  a.Tst(kD0);
  a.Beq(pfx + "done");
  a.Load32(kD6, kA0, ring_field);
  a.Load32(kD3, kD6, is_read ? RingLayout::kTail : RingLayout::kHead);  // cursor
  a.Load32(kD4, kD6, is_read ? RingLayout::kHead : RingLayout::kTail);  // other end
  a.Load32(kD7, kD6, RingLayout::kMask);
  if (is_read) {
    // avail = (head - tail) & mask
    a.Move(kD0, kD4);
    a.Sub(kD0, kD3);
    a.And(kD0, kD7);
  } else {
    // space = (tail - head - 1) & mask
    a.Move(kD0, kD4);
    a.Sub(kD0, kD3);
    a.SubI(kD0, 1);
    a.And(kD0, kD7);
  }
  a.Tst(kD0);
  a.Bne(pfx + "have");
  // Nothing transferable: partial success returns the count, otherwise the
  // caller must block.
  a.Move(kD1, kA6);
  a.Sub(kD1, kA5);
  a.Tst(kD1);
  a.Bne(pfx + "done");
  a.MoveI(kD0, kIoWouldBlock);
  a.Rts();
  a.Label(pfx + "have");
  // contig = ring size - cursor (indices are kept masked)
  a.Move(kD1, kD7);
  a.AddI(kD1, 1);
  a.Sub(kD1, kD3);
  // m = min(remaining, avail, contig)
  a.Move(kD2, kA5);
  a.Cmp(kD2, kD0);
  a.Bls(pfx + "m1");
  a.Move(kD2, kD0);
  a.Label(pfx + "m1");
  a.Cmp(kD2, kD1);
  a.Bls(pfx + "m2");
  a.Move(kD2, kD1);
  a.Label(pfx + "m2");
  // Copy operands: ring side = ring base + kBuf + cursor.
  if (is_read) {
    a.Move(kA2, kD6);
    a.AddI(kA2, RingLayout::kBuf);
    a.Add(kA2, kD3);
    a.Move(kA3, kA1);
  } else {
    a.Move(kA2, kA1);
    a.Move(kA3, kD6);
    a.AddI(kA3, RingLayout::kBuf);
    a.Add(kA3, kD3);
  }
  a.Move(kA4, kD2);
  a.Store32(kA0, kD2, ChannelLayout::kScratch);  // park m across the copy
  a.Add(kA1, kD2);                               // advance the user cursor
  a.Jsr(Asm::Sym("copy"));
  // cursor = (cursor + m) & mask
  a.Load32(kD6, kA0, ring_field);
  a.Load32(kD3, kD6, is_read ? RingLayout::kTail : RingLayout::kHead);
  a.Load32(kD2, kA0, ChannelLayout::kScratch);
  a.Add(kD3, kD2);
  a.Load32(kD7, kD6, RingLayout::kMask);
  a.And(kD3, kD7);
  a.Store32(kD6, kD3, is_read ? RingLayout::kTail : RingLayout::kHead);
  // remaining -= m; exit without another empty-check trip when satisfied
  a.Move(kD1, kA5);
  a.Sub(kD1, kD2);
  a.Move(kA5, kD1);
  a.Tst(kD1);
  a.Bne(pfx + "loop");
  a.Label(pfx + "done");
  a.Move(kD0, kA6);
  a.Sub(kD0, kA5);
  a.Rts();
}

}  // namespace

CodeTemplate GeneralReadTemplate() {
  // a1 = destination buffer, d2 = byte count; d0 = bytes read / 0 EOF /
  // kIoWouldBlock / kIoError. One template for every device type.
  Asm a("read_general");
  a.MoveI(kA0, Asm::Sym("chan"));
  a.Load32(kD0, kA0, ChannelLayout::kType);
  a.CmpI(kD0, kTypeNull);
  a.Beq("null");
  a.CmpI(kD0, kTypeFile);
  a.Beq("file");
  a.CmpI(kD0, kTypeRing);
  a.Beq("ring");
  a.CmpI(kD0, kTypeCached);
  a.Beq("cf");
  a.MoveI(kD0, kIoError);
  a.Rts();

  a.Label("null");
  a.MoveI(kD0, 0);  // reading /dev/null gives EOF
  a.Rts();

  a.Label("file");
  a.Load32(kD3, kA0, ChannelLayout::kPosition);
  a.Load32(kD4, kA0, ChannelLayout::kSizeAddr);
  a.Load32(kD4, kD4, 0);  // live size
  a.Sub(kD4, kD3);        // avail = size - pos
  a.Tst(kD4);
  a.Bne("f_has");
  a.MoveI(kD0, 0);  // EOF
  a.Rts();
  a.Label("f_has");
  a.Cmp(kD2, kD4);
  a.Bls("f_len");
  a.Move(kD2, kD4);
  a.Label("f_len");
  a.Load32(kD5, kA0, ChannelLayout::kDataBase);
  a.Move(kA2, kD5);
  a.Add(kA2, kD3);  // src = base + pos
  a.Move(kA3, kA1);
  a.Move(kA4, kD2);
  a.Move(kA5, kD2);  // n survives the copy's register clobber
  a.Jsr(Asm::Sym("copy"));
  a.Load32(kD3, kA0, ChannelLayout::kPosition);
  a.Move(kD4, kA5);
  a.Add(kD3, kD4);
  a.Store32(kA0, kD3, ChannelLayout::kPosition);  // pos += n
  a.Move(kD0, kA5);
  a.Rts();

  a.Label("ring");
  EmitRingBody(a, /*is_read=*/true, "rr_");
  a.Label("cf");
  EmitCachedBody(a, /*is_read=*/true, "cfr_");
  return a.Build();
}

CodeTemplate GeneralWriteTemplate() {
  // a1 = source buffer, d2 = byte count; d0 = bytes written / sentinels.
  Asm a("write_general");
  a.MoveI(kA0, Asm::Sym("chan"));
  a.Load32(kD0, kA0, ChannelLayout::kType);
  a.CmpI(kD0, kTypeNull);
  a.Beq("null");
  a.CmpI(kD0, kTypeFile);
  a.Beq("file");
  a.CmpI(kD0, kTypeRing);
  a.Beq("ring");
  a.CmpI(kD0, kTypeCached);
  a.Beq("cf");
  a.MoveI(kD0, kIoError);
  a.Rts();

  a.Label("null");
  a.Move(kD0, kD2);  // /dev/null swallows everything
  a.Rts();

  a.Label("file");
  a.Load32(kD3, kA0, ChannelLayout::kPosition);
  a.Load32(kD4, kA0, ChannelLayout::kCapacity);
  a.Sub(kD4, kD3);  // room = capacity - pos
  a.Tst(kD4);
  a.Bne("w_has");
  a.MoveI(kD0, kIoError);  // no space: the extent is full
  a.Rts();
  a.Label("w_has");
  a.Cmp(kD2, kD4);
  a.Bls("w_len");
  a.Move(kD2, kD4);
  a.Label("w_len");
  a.Load32(kD5, kA0, ChannelLayout::kDataBase);
  a.Move(kA3, kD5);
  a.Add(kA3, kD3);  // dst = base + pos
  a.Move(kA2, kA1);
  a.Move(kA4, kD2);
  a.Move(kA5, kD2);
  a.Jsr(Asm::Sym("copy"));
  a.Load32(kD3, kA0, ChannelLayout::kPosition);
  a.Move(kD4, kA5);
  a.Add(kD3, kD4);
  a.Store32(kA0, kD3, ChannelLayout::kPosition);
  // size = max(size, pos)
  a.Load32(kD5, kA0, ChannelLayout::kSizeAddr);
  a.Load32(kD6, kD5, 0);
  a.Cmp(kD3, kD6);
  a.Bls("w_sz");
  a.Store32(kD5, kD3, 0);
  a.Label("w_sz");
  a.Move(kD0, kA5);
  a.Rts();

  a.Label("ring");
  EmitRingBody(a, /*is_read=*/false, "wr_");
  a.Label("cf");
  EmitCachedBody(a, /*is_read=*/false, "cfw_");
  return a.Build();
}

namespace {

// The per-fd cached-file template: every descriptor field is a hole bound at
// open time, so a hit costs a handful of compares plus the copy. The
// full-block case skips the copy routine entirely for an unrolled MOVEM
// sequence with no length checks — the cached analogue of Collapsing Layers.
CodeTemplate CachedFileTemplate(bool is_read, uint32_t block_bytes) {
  Asm a(is_read ? "read_cached" : "write_cached");
  a.MoveI(kA0, Asm::Sym("chan"));
  a.Load32(kD3, kA0, ChannelLayout::kPosition);
  if (is_read) {
    a.LoadA32(kD4, Asm::Sym("size_addr"));
  } else {
    a.MoveI(kD4, Asm::Sym("capacity"));
  }
  a.Sub(kD4, kD3);
  a.Tst(kD4);
  a.Bne("has");
  a.MoveI(kD0, is_read ? 0 : kIoError);
  a.Rts();
  a.Label("has");
  a.Cmp(kD2, kD4);
  a.Bls("len");
  a.Move(kD2, kD4);
  a.Label("len");
  a.Move(kA5, kD2);
  a.Move(kA6, kD2);
  a.Label("loop");
  a.Move(kD0, kA5);
  a.Tst(kD0);
  a.Beq("done");
  a.Load32(kD3, kA0, ChannelLayout::kPosition);
  a.Move(kD1, kD3);
  a.LsrI(kD1, Asm::Sym("shift"));
  a.AddI(kD1, Asm::Sym("first_block"));  // absolute disk block
  a.Move(kD5, kD1);
  a.AndI(kD5, Asm::Sym("map_mask"));
  a.LslI(kD5, 3);
  a.Lea(kD5, kD5, Asm::Sym("map_base"));
  a.Load32(kD4, kD5, BcacheLayout::kSlotTag);
  a.Cmp(kD4, kD1);
  a.Bne("miss");
  a.Load32(kD6, kD5, BcacheLayout::kSlotEntry);
  a.Move(kD5, kD6);
  a.LslI(kD5, 3);
  a.Lea(kD5, kD5, Asm::Sym("meta_base"));
  a.MoveI(kD4, 1);
  a.Store32(kD5, kD4, BcacheLayout::kMetaRef);
  if (!is_read) {
    a.Store32(kD5, kD4, BcacheLayout::kMetaDirty);
  }
  a.LslI(kD6, Asm::Sym("shift"));
  a.Lea(kD6, kD6, Asm::Sym("data_base"));  // entry data address
  a.Move(kD5, kD3);
  a.AndI(kD5, Asm::Sym("block_mask"));     // off = pos within the block
  a.Tst(kD5);
  a.Bne("slow");
  a.Move(kD0, kA5);
  a.CmpI(kD0, Asm::Sym("block_bytes"));
  a.Blt("slow");
  // Full-block fast path: aligned, whole block wanted.
  if (is_read) {
    a.Move(kA2, kD6);
    a.Move(kA3, kA1);
  } else {
    a.Move(kA2, kA1);
    a.Move(kA3, kD6);
  }
  for (uint32_t off = 0; off < block_bytes; off += 32) {
    a.MovemLoad(kA2, 8);
    a.MovemSave(kA3, 8);
    a.AddI(kA2, 32);
    a.AddI(kA3, 32);
  }
  a.AddI(kA1, Asm::Sym("block_bytes"));
  a.Load32(kD3, kA0, ChannelLayout::kPosition);
  a.AddI(kD3, Asm::Sym("block_bytes"));
  a.Store32(kA0, kD3, ChannelLayout::kPosition);
  if (!is_read) {
    a.LoadA32(kD6, Asm::Sym("size_addr"));
    a.Cmp(kD3, kD6);
    a.Bls("fsz");
    a.StoreA32(Asm::Sym("size_addr"), kD3);
    a.Label("fsz");
  }
  a.Move(kD1, kA5);
  a.SubI(kD1, Asm::Sym("block_bytes"));
  a.Move(kA5, kD1);
  a.Bra("loop");
  // Partial-block path: transfer min(remaining, run) via the copy routine.
  a.Label("slow");
  a.Add(kD6, kD5);  // + off
  a.MoveI(kD4, Asm::Sym("block_bytes"));
  a.Sub(kD4, kD5);  // run = block_bytes - off
  a.Move(kD2, kA5);
  a.Cmp(kD2, kD4);
  a.Bls("m");
  a.Move(kD2, kD4);
  a.Label("m");
  if (is_read) {
    a.Move(kA2, kD6);
    a.Move(kA3, kA1);
  } else {
    a.Move(kA2, kA1);
    a.Move(kA3, kD6);
  }
  a.Move(kA4, kD2);
  a.Store32(kA0, kD2, ChannelLayout::kScratch);
  a.Add(kA1, kD2);
  a.Jsr(Asm::Sym("copy"));
  a.Load32(kD2, kA0, ChannelLayout::kScratch);
  a.Load32(kD3, kA0, ChannelLayout::kPosition);
  a.Add(kD3, kD2);
  a.Store32(kA0, kD3, ChannelLayout::kPosition);
  if (!is_read) {
    a.LoadA32(kD6, Asm::Sym("size_addr"));
    a.Cmp(kD3, kD6);
    a.Bls("ssz");
    a.StoreA32(Asm::Sym("size_addr"), kD3);
    a.Label("ssz");
  }
  a.Move(kD1, kA5);
  a.Sub(kD1, kD2);
  a.Move(kA5, kD1);
  a.Bra("loop");
  a.Label("miss");
  a.Store32(kA0, kD1, ChannelLayout::kMissBlock);
  a.Move(kD0, kA6);
  a.Sub(kD0, kA5);
  a.Store32(kA0, kD0, ChannelLayout::kScratch);
  a.MoveI(kD0, kIoMiss);
  a.Rts();
  a.Label("done");
  a.Move(kD0, kA6);
  a.Rts();
  return a.Build();
}

}  // namespace

CodeTemplate CachedReadTemplate(uint32_t block_bytes) {
  return CachedFileTemplate(/*is_read=*/true, block_bytes);
}

CodeTemplate CachedWriteTemplate(uint32_t block_bytes) {
  return CachedFileTemplate(/*is_read=*/false, block_bytes);
}

BlockId SynthesizeRingPut1(Kernel& kernel, Addr ring, const std::string& name) {
  Asm a(name);
  a.LoadA32(kD0, Asm::Sym("head"));
  a.Lea(kD2, kD0, 1);
  a.AndI(kD2, Asm::Sym("mask"));
  a.LoadA32(kD3, Asm::Sym("tail"));
  a.Cmp(kD2, kD3);
  a.Beq("full");
  a.Lea(kA1, kD0, Asm::Sym("buf"));  // byte address = buf + head
  a.Store8(kA1, kD1, 0);
  a.StoreA32(Asm::Sym("head"), kD2);
  a.MoveI(kD0, 1);
  a.Rts();
  a.Label("full");
  a.MoveI(kD0, 0);
  a.Rts();
  Bindings b;
  b.Set("head", static_cast<int32_t>(ring + RingLayout::kHead));
  b.Set("tail", static_cast<int32_t>(ring + RingLayout::kTail));
  b.Set("mask",
        static_cast<int32_t>(kernel.machine().memory().Read32(ring + RingLayout::kMask)));
  b.Set("buf", static_cast<int32_t>(ring + RingLayout::kBuf));
  SynthesisOptions opts = kernel.config().synthesis;
  opts.live_out |= 1u << kD1;
  return kernel.SynthesizeInstall(a.Build(), b, nullptr, name, nullptr, &opts);
}

BlockId SynthesizeRingGet1(Kernel& kernel, Addr ring, const std::string& name) {
  Asm a(name);
  a.LoadA32(kD2, Asm::Sym("tail"));
  a.LoadA32(kD3, Asm::Sym("head"));
  a.Cmp(kD2, kD3);
  a.Beq("empty");
  a.Lea(kA1, kD2, Asm::Sym("buf"));
  a.Load8(kD1, kA1, 0);
  a.Lea(kD4, kD2, 1);
  a.AndI(kD4, Asm::Sym("mask"));
  a.StoreA32(Asm::Sym("tail"), kD4);
  a.MoveI(kD0, 1);
  a.Rts();
  a.Label("empty");
  a.MoveI(kD0, 0);
  a.Rts();
  Bindings b;
  b.Set("head", static_cast<int32_t>(ring + RingLayout::kHead));
  b.Set("tail", static_cast<int32_t>(ring + RingLayout::kTail));
  b.Set("mask",
        static_cast<int32_t>(kernel.machine().memory().Read32(ring + RingLayout::kMask)));
  b.Set("buf", static_cast<int32_t>(ring + RingLayout::kBuf));
  SynthesisOptions opts = kernel.config().synthesis;
  opts.live_out |= 1u << kD1;
  return kernel.SynthesizeInstall(a.Build(), b, nullptr, name, nullptr, &opts);
}

IoSystem::IoSystem(Kernel& kernel, FileSystem* fs)
    : kernel_(kernel),
      fs_(fs),
      copy_block_(InstallCopyBulk(kernel.code())),
      read_tmpl_(GeneralReadTemplate()),
      write_tmpl_(GeneralWriteTemplate()) {}

IoSystem::~IoSystem() {
  // Channels still open when the I/O system goes down: their emit callbacks
  // capture `this`, so the handles must not outlive it.
  for (auto& [id, c] : channels_) {
    (void)id;
    kernel_.spec().Retire(c.read_spec);
    kernel_.spec().Retire(c.write_spec);
  }
}

void IoSystem::EnsureCachedTemplates() {
  if (cached_tmpls_built_) {
    return;
  }
  uint32_t bb = fs_->bcache()->block_bytes();
  cached_read_tmpl_ = CachedReadTemplate(bb);
  cached_write_tmpl_ = CachedWriteTemplate(bb);
  cached_tmpls_built_ = true;
}

std::shared_ptr<RingHost> IoSystem::MakeRing(uint32_t capacity) {
  assert((capacity & (capacity - 1)) == 0 && "ring capacity must be a power of 2");
  auto ring = std::make_shared<RingHost>();
  ring->base = kernel_.allocator().Allocate(RingLayout::TotalBytes(capacity));
  ring->capacity = capacity;
  if (ring->base == 0) {
    return ring;  // allocator failure (e.g. injected); callers check base
  }
  Memory& mem = kernel_.machine().memory();
  mem.Write32(ring->base + RingLayout::kHead, 0);
  mem.Write32(ring->base + RingLayout::kTail, 0);
  mem.Write32(ring->base + RingLayout::kMask, capacity - 1);
  return ring;
}

void IoSystem::RegisterRingDevice(const std::string& path,
                                  std::shared_ptr<RingHost> rd,
                                  std::shared_ptr<RingHost> wr) {
  devices_[path] = DeviceEntry{std::move(rd), std::move(wr)};
}

void IoSystem::UnregisterRingDevice(const std::string& path) {
  devices_.erase(path);
}

IoSystem::Channel* IoSystem::Get(ChannelId ch) {
  auto it = channels_.find(ch);
  return it == channels_.end() ? nullptr : &it->second;
}

ChannelId IoSystem::InstallChannel(Channel chan, const std::string& tag) {
  // Build the channel record in simulated memory.
  Addr rec = kernel_.allocator().Allocate(ChannelLayout::kSize);
  if (rec == 0) {
    return kBadChannel;  // kernel memory exhausted: open fails cleanly
  }
  Memory& mem = kernel_.machine().memory();
  mem.Write32(rec + ChannelLayout::kType, static_cast<uint32_t>(chan.type));
  mem.Write32(rec + ChannelLayout::kPosition, 0);
  mem.Write32(rec + ChannelLayout::kScratch, 0);
  mem.Write32(rec + ChannelLayout::kRdRing, chan.rd_ring ? chan.rd_ring->base : 0);
  mem.Write32(rec + ChannelLayout::kWrRing, chan.wr_ring ? chan.wr_ring->base : 0);
  mem.Write32(rec + ChannelLayout::kCacheDesc, 0);
  mem.Write32(rec + ChannelLayout::kFirstBlock, 0);
  mem.Write32(rec + ChannelLayout::kMissBlock, 0);
  if (chan.type == DeviceType::kFile && fs_ != nullptr) {
    FileSystem::Extent ext = fs_->Ensure(chan.file_id);
    mem.Write32(rec + ChannelLayout::kDataBase, ext.base);
    mem.Write32(rec + ChannelLayout::kSizeAddr, ext.size_addr);
    mem.Write32(rec + ChannelLayout::kCapacity, ext.capacity);
  } else if (chan.type == DeviceType::kCachedFile && fs_ != nullptr) {
    mem.Write32(rec + ChannelLayout::kDataBase, 0);
    mem.Write32(rec + ChannelLayout::kSizeAddr, chan.cext.size_addr);
    mem.Write32(rec + ChannelLayout::kCapacity, chan.cext.capacity);
    mem.Write32(rec + ChannelLayout::kCacheDesc, fs_->bcache()->descriptor());
    mem.Write32(rec + ChannelLayout::kFirstBlock, chan.cext.first_block);
  } else {
    mem.Write32(rec + ChannelLayout::kDataBase, 0);
    mem.Write32(rec + ChannelLayout::kSizeAddr, 0);
    mem.Write32(rec + ChannelLayout::kCapacity, 0);
  }
  chan.record = rec;

  // Specialize read and write for this channel (kernel code synthesis),
  // registered as Specializer handles: a channel has no generic twin (open
  // fails cleanly under code-store pressure) and its folded invariants never
  // move, so the handles are non-adaptive and retire at Close.
  const bool cached = chan.type == DeviceType::kCachedFile &&
                      kernel_.config().synthesis.fold_invariant_loads;
  Bindings b;
  b.Set("chan", static_cast<int32_t>(rec));
  b.Set("copy", copy_block_);
  if (cached) {
    // Synthesis on: emit the dedicated per-fd cached paths with the cache
    // geometry and the file's extent folded to immediates. With synthesis
    // off, the general template's descriptor-walking branch runs instead —
    // that interpreted layered path is the ablation baseline.
    EnsureCachedTemplates();
    Bcache* bc = fs_->bcache();
    b.Set("size_addr", static_cast<int32_t>(chan.cext.size_addr));
    b.Set("capacity", static_cast<int32_t>(chan.cext.capacity));
    b.Set("map_base", static_cast<int32_t>(bc->map_base()));
    b.Set("map_mask", static_cast<int32_t>(bc->map_mask()));
    b.Set("meta_base", static_cast<int32_t>(bc->meta_base()));
    b.Set("data_base", static_cast<int32_t>(bc->data_base()));
    b.Set("shift", static_cast<int32_t>(bc->block_shift()));
    b.Set("block_mask", static_cast<int32_t>(bc->block_bytes() - 1));
    b.Set("block_bytes", static_cast<int32_t>(bc->block_bytes()));
    b.Set("first_block", static_cast<int32_t>(chan.cext.first_block));
  }
  const Addr rd_ring_base = chan.rd_ring ? chan.rd_ring->base : 0;
  const Addr wr_ring_base = chan.wr_ring ? chan.wr_ring->base : 0;
  const bool cached_type = chan.type == DeviceType::kCachedFile;
  auto invariants = [this, rec, rd_ring_base, wr_ring_base, cached_type]() {
    InvariantMemory inv(kernel_.machine().memory());
    inv.AddRange(ChannelLayout::InvariantPrefix(rec));
    inv.AddRange(ChannelLayout::InvariantSuffix(rec));
    if (rd_ring_base != 0) {
      inv.AddRange(RingLayout::InvariantRange(rd_ring_base));
    }
    if (wr_ring_base != 0) {
      inv.AddRange(RingLayout::InvariantRange(wr_ring_base));
    }
    if (cached_type) {
      inv.AddRange(BcacheLayout::InvariantRange(fs_->bcache()->descriptor()));
    }
    return inv;
  };
  SpecDesc rd;
  rd.name = "io_read$" + tag;
  rd.adaptive = false;
  rd.evictable = false;
  rd.emit = [this, b, cached, invariants, tag](SpecTier) {
    InvariantMemory inv = invariants();
    return kernel_.SynthesizeInstall(cached ? cached_read_tmpl_ : read_tmpl_, b,
                                     &inv, "read$" + tag, &last_read_stats);
  };
  chan.read_spec = kernel_.spec().Register(std::move(rd));
  SpecDesc wd;
  wd.name = "io_write$" + tag;
  wd.adaptive = false;
  wd.evictable = false;
  wd.emit = [this, b, cached, invariants, tag](SpecTier) {
    InvariantMemory inv = invariants();
    return kernel_.SynthesizeInstall(cached ? cached_write_tmpl_ : write_tmpl_,
                                     b, &inv, "write$" + tag);
  };
  chan.write_spec = kernel_.spec().Register(std::move(wd));
  if (kernel_.spec().ActiveOf(chan.read_spec) == kInvalidBlock ||
      kernel_.spec().ActiveOf(chan.write_spec) == kInvalidBlock) {
    // Code-store pressure: retire whichever half made it, free the record,
    // and surface the failure as a bad channel — no partial installs leak.
    kernel_.spec().Retire(chan.read_spec);
    kernel_.spec().Retire(chan.write_spec);
    kernel_.allocator().Free(rec);
    return kBadChannel;
  }

  ChannelId id = next_id_++;
  channels_[id] = std::move(chan);
  return id;
}

ChannelId IoSystem::Open(const std::string& path) {
  kernel_.machine().Charge(kSyscallEntryCycles, 1, 4);
  Stopwatch lookup_sw(kernel_.machine());

  // Directory walk: one probe of the hashed-backwards name table per path
  // component (the dominant share of open()'s cost, ~60% per §6.3).
  uint32_t components = 0;
  for (char c : path) {
    components += c == '/';
  }
  if (components == 0) {
    components = 1;
  }
  kernel_.machine().Charge(175 * components + 8 * static_cast<uint32_t>(path.size()),
                           10 * components, 6 * components);

  Channel chan;
  bool found = false;
  auto dev = devices_.find(path);
  if (dev != devices_.end()) {
    if (path == "/dev/null") {
      chan.type = DeviceType::kNull;
    } else {
      chan.type = DeviceType::kRing;
      chan.rd_ring = dev->second.rd;
      chan.wr_ring = dev->second.wr;
    }
    found = true;
  } else if (fs_ != nullptr) {
    uint32_t fid = fs_->LookupId(path);
    if (fid != 0) {
      chan.type = DeviceType::kFile;
      chan.file_id = fid;
      if (fs_->bcache() != nullptr) {
        // Ride the buffer cache when the extent aligns to cache blocks; no
        // disk round trip happens at open. Unaligned (pre-attach) files fall
        // back to whole-file residency.
        chan.cext = fs_->EnsureCached(fid);
        if (chan.cext.size_addr != 0) {
          chan.type = DeviceType::kCachedFile;
        }
      }
      found = true;
    }
  }
  if (!found) {
    return kBadChannel;
  }
  last_open_lookup_us = lookup_sw.micros();

  // Pull a cold file through the disk pipeline before timing synthesis: the
  // paper's open() numbers are for resident data, and disk latency is
  // neither name lookup nor code generation.
  if (chan.type == DeviceType::kFile && fs_ != nullptr) {
    fs_->Ensure(chan.file_id);
  }

  Stopwatch synth_sw(kernel_.machine());
  ChannelId id = InstallChannel(std::move(chan), path + "#" + std::to_string(next_id_));
  last_open_synth_us = synth_sw.micros();
  return id;
}

std::pair<ChannelId, ChannelId> IoSystem::CreatePipe(uint32_t capacity) {
  auto ring = MakeRing(capacity);
  Channel rd;
  rd.type = DeviceType::kRing;
  rd.rd_ring = ring;
  Channel wr;
  wr.type = DeviceType::kRing;
  wr.wr_ring = ring;
  std::string tag = "pipe#" + std::to_string(next_id_);
  ChannelId r = InstallChannel(std::move(rd), tag + "r");
  ChannelId w = InstallChannel(std::move(wr), tag + "w");
  return {r, w};
}

int32_t IoSystem::CachedIo(Channel& c, bool is_write, Addr buf, uint32_t n) {
  Machine& m = kernel_.machine();
  Memory& mem = m.memory();
  Bcache* bc = fs_->bcache();
  const uint32_t bb = bc->block_bytes();
  const uint32_t pos_at_entry = mem.Read32(c.record + ChannelLayout::kPosition);
  uint32_t total = 0;
  bool fill_failed = false;
  for (;;) {
    m.set_reg(kA1, buf + total);
    m.set_reg(kD2, n - total);
    RunResult r = kernel_.kexec().Call(
        kernel_.spec().ActiveOf(is_write ? c.write_spec : c.read_spec));
    if (r.outcome != RunOutcome::kReturned) {
      return kIoError;
    }
    int32_t got = static_cast<int32_t>(m.reg(kD0));
    if (got == kIoMiss) {
      // The VM path ran out of resident blocks: bank its progress, pull the
      // wanted block through the cache manager, and re-enter. Fills happen
      // here — with the VM idle — because interrupt dispatch cannot nest
      // under the running syscall code.
      total += mem.Read32(c.record + ChannelLayout::kScratch);
      uint32_t block = mem.Read32(c.record + ChannelLayout::kMissBlock);
      uint32_t last_block = block;
      BcacheFill fill = BcacheFill::kRead;
      if (is_write) {
        uint32_t pos = mem.Read32(c.record + ChannelLayout::kPosition);
        fill = pos % bb == 0 && n - total >= bb ? BcacheFill::kOverwrite
                                                : BcacheFill::kWrite;
      } else {
        // The call's last block, from its position at entry and n (never past
        // EOF): the fill brings in every block the call still lacks at once.
        uint64_t end = std::min<uint64_t>(uint64_t{pos_at_entry} + n,
                                          mem.Read32(c.cext.size_addr));
        if (end > 0) {
          last_block = c.cext.first_block + static_cast<uint32_t>((end - 1) / bb);
        }
      }
      if (!fs_->CacheFill(c.file_id, block, last_block, fill)) {
        fill_failed = true;  // allocation failed: graceful partial result
        break;
      }
      continue;
    }
    if (got < 0) {
      return total > 0 ? static_cast<int32_t>(total) : got;
    }
    total += static_cast<uint32_t>(got);
    break;
  }
  if (total > 0) {
    if (is_write) {
      bc->NoteDirty();  // pure-hit writes dirty blocks without trapping
    }
    kernel_.scheduler().ReportIo(kernel_.current_thread(), total, kernel_.NowUs());
    return static_cast<int32_t>(total);
  }
  return fill_failed ? kIoError : 0;
}

int32_t IoSystem::Read(ChannelId ch, Addr dst, uint32_t n) {
  Channel* c = Get(ch);
  if (c == nullptr) {
    return kIoError;
  }
  kernel_.machine().Charge(kSyscallEntryCycles, 1, 4);
  if (c->type == DeviceType::kCachedFile) {
    return CachedIo(*c, /*is_write=*/false, dst, n);
  }
  Machine& m = kernel_.machine();
  m.set_reg(kA1, dst);
  m.set_reg(kD2, n);
  RunResult r = kernel_.kexec().Call(kernel_.spec().ActiveOf(c->read_spec));
  if (r.outcome != RunOutcome::kReturned) {
    return kIoError;
  }
  int32_t got = static_cast<int32_t>(m.reg(kD0));
  if (got == kIoWouldBlock) {
    if (c->rd_ring && kernel_.current_thread() != kNoThread) {
      kernel_.BlockCurrentOn(c->rd_ring->readers);
    }
    return kIoWouldBlock;
  }
  if (got > 0) {
    if (c->rd_ring) {
      kernel_.UnblockOne(c->rd_ring->writers);  // space was freed
    }
    kernel_.scheduler().ReportIo(kernel_.current_thread(), static_cast<uint32_t>(got),
                                 kernel_.NowUs());
  }
  return got;
}

int32_t IoSystem::Write(ChannelId ch, Addr src, uint32_t n) {
  Channel* c = Get(ch);
  if (c == nullptr) {
    return kIoError;
  }
  kernel_.machine().Charge(kSyscallEntryCycles, 1, 4);
  if (c->type == DeviceType::kCachedFile) {
    return CachedIo(*c, /*is_write=*/true, src, n);
  }
  Machine& m = kernel_.machine();
  m.set_reg(kA1, src);
  m.set_reg(kD2, n);
  RunResult r = kernel_.kexec().Call(kernel_.spec().ActiveOf(c->write_spec));
  if (r.outcome != RunOutcome::kReturned) {
    return kIoError;
  }
  int32_t put = static_cast<int32_t>(m.reg(kD0));
  if (put == kIoWouldBlock) {
    if (c->wr_ring && kernel_.current_thread() != kNoThread) {
      kernel_.BlockCurrentOn(c->wr_ring->writers);
    }
    return kIoWouldBlock;
  }
  if (put > 0) {
    if (c->wr_ring) {
      kernel_.UnblockOne(c->wr_ring->readers);  // data became available
    }
    kernel_.scheduler().ReportIo(kernel_.current_thread(), static_cast<uint32_t>(put),
                                 kernel_.NowUs());
  }
  return put;
}

int32_t IoSystem::Fsync(ChannelId ch) {
  Channel* c = Get(ch);
  if (c == nullptr) {
    return kIoError;
  }
  kernel_.machine().Charge(kSyscallEntryCycles, 1, 4);
  if ((c->type == DeviceType::kFile || c->type == DeviceType::kCachedFile) &&
      fs_ != nullptr) {
    fs_->FsyncFile(c->file_id);
  }
  return 0;  // rings and /dev/null have nothing durable to push
}

void IoSystem::Close(ChannelId ch) {
  Channel* c = Get(ch);
  if (c == nullptr) {
    return;
  }
  kernel_.machine().Charge(kCloseCycles, 8, 12);
  kernel_.allocator().Free(c->record);
  // The channel's specialized read/write code is dead once the record goes:
  // nothing else holds these entry points. Retiring the handles releases the
  // blocks through the Specializer's deferred reclamation.
  kernel_.spec().Retire(c->read_spec);
  kernel_.spec().Retire(c->write_spec);
  channels_.erase(ch);
}

BlockId IoSystem::ReadCodeOf(ChannelId ch) const {
  auto it = channels_.find(ch);
  return it == channels_.end() ? kInvalidBlock
                               : kernel_.spec().ActiveOf(it->second.read_spec);
}

BlockId IoSystem::WriteCodeOf(ChannelId ch) const {
  auto it = channels_.find(ch);
  return it == channels_.end()
             ? kInvalidBlock
             : kernel_.spec().ActiveOf(it->second.write_spec);
}

Addr IoSystem::RecordOf(ChannelId ch) const {
  auto it = channels_.find(ch);
  return it == channels_.end() ? 0 : it->second.record;
}

bool IoSystem::RingPutByte(RingHost& ring, uint8_t byte) {
  Memory& mem = kernel_.machine().memory();
  uint32_t mask = ring.capacity - 1;
  uint32_t h = mem.Read32(ring.base + RingLayout::kHead);
  uint32_t t = mem.Read32(ring.base + RingLayout::kTail);
  if (((h + 1) & mask) == t) {
    return false;
  }
  mem.Write8(ring.base + RingLayout::kBuf + h, byte);
  mem.Write32(ring.base + RingLayout::kHead, (h + 1) & mask);
  kernel_.machine().Charge(30, 5, 4);
  return true;
}

bool IoSystem::RingGetByte(RingHost& ring, uint8_t* byte) {
  Memory& mem = kernel_.machine().memory();
  uint32_t mask = ring.capacity - 1;
  uint32_t h = mem.Read32(ring.base + RingLayout::kHead);
  uint32_t t = mem.Read32(ring.base + RingLayout::kTail);
  if (h == t) {
    return false;
  }
  *byte = mem.Read8(ring.base + RingLayout::kBuf + t);
  mem.Write32(ring.base + RingLayout::kTail, (t + 1) & mask);
  kernel_.machine().Charge(30, 5, 4);
  return true;
}

uint32_t IoSystem::RingPeekSpan(RingHost& ring, const uint8_t** data) {
  Memory& mem = kernel_.machine().memory();
  uint32_t mask = ring.capacity - 1;
  uint32_t h = mem.Read32(ring.base + RingLayout::kHead);
  uint32_t t = mem.Read32(ring.base + RingLayout::kTail);
  uint32_t avail = (h - t) & mask;
  uint32_t run = std::min(avail, ring.capacity - t);
  *data = mem.raw(ring.base + RingLayout::kBuf + t);
  kernel_.machine().Charge(10, 3, 0);
  return run;
}

void IoSystem::RingConsumeSpan(RingHost& ring, uint32_t n) {
  Memory& mem = kernel_.machine().memory();
  uint32_t mask = ring.capacity - 1;
  uint32_t t = mem.Read32(ring.base + RingLayout::kTail);
  mem.Write32(ring.base + RingLayout::kTail, (t + n) & mask);
  kernel_.machine().Charge(8, 2, 1);
}

uint32_t IoSystem::RingAvail(const RingHost& ring) const {
  const Memory& mem = kernel_.machine().memory();
  uint32_t h = mem.Read32(ring.base + RingLayout::kHead);
  uint32_t t = mem.Read32(ring.base + RingLayout::kTail);
  return (h - t) & (ring.capacity - 1);
}

}  // namespace synthesis
