// Fine-grain scheduling (§4.4).
//
// Synthesis has no priorities: round-robin with a per-thread CPU quantum
// adjusted to the thread's "need to execute", judged by the rate at which I/O
// data flows through its quaspace. Gauges (§2.3) count I/O events and feed
// this scheduler; the quantum grows with the measured flow rate and decays
// back toward the base when the flow stops. Quanta stay within a band so the
// granularity remains fine (the paper: "a typical quantum is on the order of
// a few hundred microseconds").
#ifndef SRC_KERNEL_SCHEDULER_H_
#define SRC_KERNEL_SCHEDULER_H_

#include <cstdint>
#include <unordered_map>

namespace synthesis {

class FineGrainScheduler {
 public:
  static constexpr double kBaseQuantumUs = 200;
  static constexpr double kMinQuantumUs = 100;
  static constexpr double kMaxQuantumUs = 800;
  // EWMA time constant for the I/O rate gauge, in microseconds.
  static constexpr double kRateTauUs = 10'000;
  // I/O bytes/second at which the quantum doubles over the base.
  static constexpr double kRateScale = 500'000;

  void AddThread(uint32_t tid) { threads_[tid] = PerThread{}; }
  void RemoveThread(uint32_t tid) { threads_.erase(tid); }

  // Gauge feed: `bytes` moved through thread `tid`'s streams at time `now`.
  void ReportIo(uint32_t tid, uint32_t bytes, double now_us);

  // Current quantum for the thread, in microseconds.
  double QuantumUsFor(uint32_t tid, double now_us);

  // Observed smoothed I/O rate in bytes/second (for tests and monitors).
  double IoRateFor(uint32_t tid, double now_us);

 private:
  struct PerThread {
    double rate_bps = 0;       // EWMA of bytes/second
    double last_update_us = 0;
  };

  void Decay(PerThread& t, double now_us);

  std::unordered_map<uint32_t, PerThread> threads_;
};

}  // namespace synthesis

#endif  // SRC_KERNEL_SCHEDULER_H_
