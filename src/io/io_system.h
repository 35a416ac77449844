// The Synthesis I/O system: streams, device servers, and the open() that
// synthesizes per-channel read/write code (§5).
//
// All devices share ONE general read template and ONE general write template:
// programs that load the channel's type, dispatch on it, and run the matching
// device body (null / file extent / byte ring). open() specializes them for
// the channel being opened — the type switch folds away, the device constants
// become absolute addresses, and the copy helper is inlined (Collapsing
// Layers). The baseline kernel executes the same templates with synthesis
// disabled, which is exactly the general-purpose layered path a traditional
// kernel runs on every call.
#ifndef SRC_IO_IO_SYSTEM_H_
#define SRC_IO_IO_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/fs/file_system.h"
#include "src/io/channel.h"
#include "src/kernel/kernel.h"
#include "src/machine/assembler.h"

namespace synthesis {

using ChannelId = uint32_t;
inline constexpr ChannelId kBadChannel = 0;

// Read/Write results <= these sentinels are errors; >= 0 are byte counts.
inline constexpr int32_t kIoWouldBlock = -1;  // caller parked; retry on resume
inline constexpr int32_t kIoError = -2;
// Internal to the cached-file paths: the VM code ran out of resident blocks.
// Progress so far is parked in the channel's scratch word and the wanted
// block in its miss word; the syscall layer fills the block and re-enters.
// Never escapes to callers.
inline constexpr int32_t kIoMiss = -3;

// A byte ring shared by the channels connected to it (both pipe ends; the
// tty queues). Blocking threads park on the ring's own wait queues (§4.1).
struct RingHost {
  Addr base = 0;
  uint32_t capacity = 0;  // power of two; capacity-1 bytes usable
  WaitQueue readers;
  WaitQueue writers;
};

// The general templates (exposed for the baseline kernel and benches).
CodeTemplate GeneralReadTemplate();
CodeTemplate GeneralWriteTemplate();

// The per-fd cached-file templates. The block size is baked in at emission
// time: the full-block hit path is an unrolled MOVEM copy with no length
// checks and no call, which is where the synthesized path beats the layered
// one. Holes: chan, copy, size_addr, capacity, map_base, map_mask, meta_base,
// data_base, shift, block_mask, block_bytes, first_block.
CodeTemplate CachedReadTemplate(uint32_t block_bytes);
CodeTemplate CachedWriteTemplate(uint32_t block_bytes);

// Synthesizes a single-byte put/get for a specific ring (used by interrupt
// handlers; d1 = byte; returns d0 = 1/0).
BlockId SynthesizeRingPut1(Kernel& kernel, Addr ring, const std::string& name);
BlockId SynthesizeRingGet1(Kernel& kernel, Addr ring, const std::string& name);

class IoSystem {
 public:
  // `fs` may be null (no file namespace, devices only).
  IoSystem(Kernel& kernel, FileSystem* fs);
  ~IoSystem();

  // --- Native Synthesis kernel calls (Table 2) --------------------------------
  ChannelId Open(const std::string& path);
  int32_t Read(ChannelId ch, Addr dst, uint32_t n);
  int32_t Write(ChannelId ch, Addr src, uint32_t n);
  void Close(ChannelId ch);
  // fsync(2) semantics: pushes the channel's dirty cache blocks (or dirty
  // resident extent) to the platter. Returns 0, or kIoError on a bad channel.
  int32_t Fsync(ChannelId ch);

  // Creates a pipe of `capacity` bytes (power of two); returns {read end,
  // write end}.
  std::pair<ChannelId, ChannelId> CreatePipe(uint32_t capacity);

  // Registers a ring-backed device under `path` (tty-style). Either ring may
  // be null (write-only / read-only device).
  void RegisterRingDevice(const std::string& path, std::shared_ptr<RingHost> rd,
                          std::shared_ptr<RingHost> wr);

  // Removes a ring device from the namespace (already-open channels keep
  // their synthesized code; new Opens fail). Used by connection teardown.
  void UnregisterRingDevice(const std::string& path);

  // Allocates and initializes a ring in simulated memory.
  std::shared_ptr<RingHost> MakeRing(uint32_t capacity);

  // Host-side ring helpers for device models and tests (charged lightly).
  bool RingPutByte(RingHost& ring, uint8_t byte);
  bool RingGetByte(RingHost& ring, uint8_t* byte);
  uint32_t RingAvail(const RingHost& ring) const;

  // Zero-copy borrow of the ring's readable bytes: *data points into the
  // simulated buffer at the consumer index, and the returned count is the
  // contiguous run up to the buffer edge (a wrapped occupancy takes two
  // borrows). The span stays valid until the next ConsumeSpan/RingGetByte;
  // nothing is consumed until ConsumeSpan advances the tail by n <= the
  // borrowed count. One index charge per borrow instead of a
  // load-store-mask round trip per byte.
  uint32_t RingPeekSpan(RingHost& ring, const uint8_t** data);
  void RingConsumeSpan(RingHost& ring, uint32_t n);

  Kernel& kernel() { return kernel_; }
  FileSystem* fs() { return fs_; }

  // Introspection for benches/tests: the cost split of the last Open.
  double last_open_lookup_us = 0;
  double last_open_synth_us = 0;
  SynthesisStats last_read_stats;

  // Access to a channel's synthesized code (for disassembly in examples).
  BlockId ReadCodeOf(ChannelId ch) const;
  BlockId WriteCodeOf(ChannelId ch) const;
  // The channel record's address (the UNIX emulator's lseek pokes position).
  Addr RecordOf(ChannelId ch) const;

 private:
  struct Channel {
    Addr record = 0;
    DeviceType type = DeviceType::kNull;
    // Handles behind the channel's read/write code; the Specializer holds
    // the active blocks.
    SpecId read_spec = kBadSpec;
    SpecId write_spec = kBadSpec;
    std::shared_ptr<RingHost> rd_ring;
    std::shared_ptr<RingHost> wr_ring;
    uint32_t file_id = 0;
    FileSystem::CachedExtent cext;  // kCachedFile only
  };

  struct DeviceEntry {
    std::shared_ptr<RingHost> rd;
    std::shared_ptr<RingHost> wr;
  };

  ChannelId InstallChannel(Channel chan, const std::string& tag);
  Channel* Get(ChannelId ch);
  // The fill-and-reenter loop behind Read/Write on kCachedFile channels.
  int32_t CachedIo(Channel& c, bool is_write, Addr buf, uint32_t n);
  void EnsureCachedTemplates();

  Kernel& kernel_;
  FileSystem* fs_;
  BlockId copy_block_;
  CodeTemplate read_tmpl_;
  CodeTemplate write_tmpl_;
  CodeTemplate cached_read_tmpl_;   // built lazily: needs the bcache geometry
  CodeTemplate cached_write_tmpl_;
  bool cached_tmpls_built_ = false;
  std::unordered_map<std::string, DeviceEntry> devices_;
  std::unordered_map<ChannelId, Channel> channels_;
  ChannelId next_id_ = 1;
};

}  // namespace synthesis

#endif  // SRC_IO_IO_SYSTEM_H_
