// Simulated physical memory of the Quamachine.
//
// One flat byte array models the single physical address space shared by all
// quaspaces (§2.1 of the paper: all quaspaces are subspaces of one address
// space). Access checking against the current quaspace's visible ranges is
// done by the executor via an AddressFilter, mirroring the paper's bus-fault
// behaviour for out-of-quaspace references.
#ifndef SRC_MACHINE_MEMORY_H_
#define SRC_MACHINE_MEMORY_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

namespace synthesis {

using Addr = uint32_t;

// Storage for simulated memory: calloc'd, and never value-initialized on top,
// so the host hands out zero pages on first touch and a large simulated
// memory costs resident host memory only for the pages the simulation uses.
// Memory is a std::vector over it.
template <typename T>
struct ZeroPageAllocator {
  using value_type = T;

  ZeroPageAllocator() = default;
  template <typename U>
  ZeroPageAllocator(const ZeroPageAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(size_t n) {
    void* p = std::calloc(n, sizeof(T));
    if (p == nullptr) {
      throw std::bad_alloc();
    }
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t) { std::free(p); }
  // Value-initialization: calloc already zeroed the element.
  template <typename U>
  void construct(U*) {}

  friend bool operator==(const ZeroPageAllocator&, const ZeroPageAllocator&) {
    return true;
  }
};

class Memory {
 public:
  explicit Memory(size_t size_bytes) : bytes_(size_bytes) {}

  size_t size() const { return bytes_.size(); }
  bool InRange(Addr addr, size_t len) const {
    return static_cast<uint64_t>(addr) + len <= bytes_.size();
  }

  uint8_t Read8(Addr addr) const { return Read8(data(), addr); }
  uint16_t Read16(Addr addr) const { return Read16(data(), addr); }
  uint32_t Read32(Addr addr) const { return Read32(data(), addr); }

  void Write8(Addr addr, uint8_t v) { Write8(data(), addr, v); }
  void Write16(Addr addr, uint16_t v) { Write16(data(), addr, v); }
  void Write32(Addr addr, uint32_t v) { Write32(data(), addr, v); }

  // The same accessors over a base pointer, for a loop that keeps data() in a
  // local between host boundaries (Executor::Run). No range check.
  static uint8_t Read8(const uint8_t* base, Addr addr) { return base[addr]; }
  static uint16_t Read16(const uint8_t* base, Addr addr) {
    return static_cast<uint16_t>(base[addr] | (base[addr + 1] << 8));
  }
  static uint32_t Read32(const uint8_t* base, Addr addr) {
    uint32_t v;
    std::memcpy(&v, base + addr, 4);
    return v;
  }
  static void Write8(uint8_t* base, Addr addr, uint8_t v) { base[addr] = v; }
  static void Write16(uint8_t* base, Addr addr, uint16_t v) {
    base[addr] = static_cast<uint8_t>(v);
    base[addr + 1] = static_cast<uint8_t>(v >> 8);
  }
  static void Write32(uint8_t* base, Addr addr, uint32_t v) { std::memcpy(base + addr, &v, 4); }

  // Bulk access for host-side device models and loaders.
  void WriteBytes(Addr addr, const void* src, size_t len) {
    std::memcpy(&bytes_[addr], src, len);
  }
  void ReadBytes(Addr addr, void* dst, size_t len) const {
    std::memcpy(dst, &bytes_[addr], len);
  }

  uint8_t* raw(Addr addr) { return &bytes_[addr]; }
  const uint8_t* raw(Addr addr) const { return &bytes_[addr]; }
  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }

 private:
  std::vector<uint8_t, ZeroPageAllocator<uint8_t>> bytes_;
};

// A half-open address range [begin, end).
struct AddrRange {
  Addr begin = 0;
  Addr end = 0;

  bool Contains(Addr addr, size_t len) const {
    return addr >= begin && static_cast<uint64_t>(addr) + len <= end;
  }
  friend bool operator==(const AddrRange&, const AddrRange&) = default;
};

// The set of ranges the currently executing context may touch. An empty
// filter permits everything (kernel mode / supervisor state).
class AddressFilter {
 public:
  void Clear() { ranges_.clear(); }
  void Allow(AddrRange range) { ranges_.push_back(range); }
  bool empty() const { return ranges_.empty(); }

  bool Permits(Addr addr, size_t len) const {
    if (ranges_.empty()) {
      return true;
    }
    for (const AddrRange& r : ranges_) {
      if (r.Contains(addr, len)) {
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<AddrRange> ranges_;
};

}  // namespace synthesis

#endif  // SRC_MACHINE_MEMORY_H_
