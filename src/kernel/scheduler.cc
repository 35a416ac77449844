#include "src/kernel/scheduler.h"

#include <algorithm>
#include <cmath>

namespace synthesis {

void FineGrainScheduler::Decay(PerThread& t, double now_us) {
  double dt = now_us - t.last_update_us;
  if (dt <= 0) {
    return;
  }
  t.rate_bps *= std::exp(-dt / kRateTauUs);
  t.last_update_us = now_us;
}

void FineGrainScheduler::ReportIo(uint32_t tid, uint32_t bytes, double now_us) {
  auto it = threads_.find(tid);
  if (it == threads_.end()) {
    return;
  }
  PerThread& t = it->second;
  Decay(t, now_us);
  // An event of `bytes` spread over the EWMA window contributes
  // bytes / tau_seconds to the smoothed rate.
  t.rate_bps += static_cast<double>(bytes) / (kRateTauUs * 1e-6);
}

double FineGrainScheduler::IoRateFor(uint32_t tid, double now_us) {
  auto it = threads_.find(tid);
  if (it == threads_.end()) {
    return 0;
  }
  Decay(it->second, now_us);
  return it->second.rate_bps;
}

double FineGrainScheduler::QuantumUsFor(uint32_t tid, double now_us) {
  double rate = IoRateFor(tid, now_us);
  double q = kBaseQuantumUs * (1.0 + rate / kRateScale);
  return std::clamp(q, kMinQuantumUs, kMaxQuantumUs);
}

}  // namespace synthesis
