// The repository benchmark driver.
//
//   perfbench --workload <conn_churn|stream_echo|file_mix> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0: sets the workload up several times (set-up time is the median),
// then runs one untraced timed phase and prints the end-to-end metrics.
// --trace 1: runs the measurement window untraced on one fresh set-up and
// traced on another, prints the per-layer metrics, and self-checks that
// (a) every virtual end-to-end metric is byte-identical between the two and
// (b) the top-level spans' virtual durations sum exactly to the window's
// cycle delta (zero residual).
//
// Every line before the last is `name value unit [n=<samples> q=<pct>]` or a
// `config`/`check` line; the last line is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed op or check makes
// `correct` false and the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

const double g_process_start = HostNowS();

constexpr int kSetups = 3;  // set-ups per untraced run (median) ...
constexpr int kMaxSetups = 25;
constexpr double kMinSetupS = 0.5;  // ... or more, until this much is sampled
constexpr double kMaxWindowS = 100;  // a window slower than this fails
constexpr double kSliceS = 0.25;     // host-throughput sampling slice

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t n = -1;  // sample count behind a percentile
  double q = 0;    // percentile actually used, when it differs
};

std::string Format(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Print(const Metric& m) {
  std::printf("%s %s %s", m.name.c_str(), Format(m.value).c_str(),
              m.unit.c_str());
  if (m.n >= 0) {
    std::printf(" n=%lld", static_cast<long long>(m.n));
  }
  if (m.q != 0) {
    std::printf(" q=%s", Format(m.q).c_str());
  }
  std::printf("\n");
}

Metric FromTail(const std::string& name, const Tail& t, double want) {
  Metric m{name, t.value, "us", static_cast<int64_t>(t.n)};
  if (t.q != want) {
    m.q = t.q;
  }
  return m;
}

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

struct WorkloadDef {
  const char* name;
  WorkloadFactory make;
  void (*print_config)();
};

const WorkloadDef kWorkloads[] = {
    {"conn_churn", MakeConnChurn, PrintConnChurnConfig},
    {"stream_echo", MakeStreamEcho, PrintStreamEchoConfig},
    {"file_mix", MakeFileMix, PrintFileMixConfig},
};

// One set-up: the op log outlives the workload that writes into it.
struct Instance {
  std::unique_ptr<OpLog> log = std::make_unique<OpLog>();
  std::unique_ptr<Workload> w;
};

struct Phase {
  Counters c0, c1;             // phase start, window end
  double h0 = 0, h1 = 0, h2 = 0;  // host: start, window end, phase end
  uint64_t ops = 0;            // completed over the whole phase
  double window_us = 0;        // virtual
  std::vector<double> slice_rates;  // ops per host second, per slice
};

// Runs the window, then keeps the closed loop going until `seconds` of host
// time have passed, then finishes the workload. Host throughput is sampled
// per slice of kSliceS (see FastestDecileMean).
Phase RunPhase(Instance& in, Tracer* tracer, double seconds) {
  Workload& w = *in.w;
  OpLog& log = *in.log;
  Phase p;
  p.c0 = w.Read();
  p.h0 = HostNowS();
  const uint64_t ops0 = log.completed();
  double slice_h = p.h0;
  uint64_t slice_ops = ops0;
  bool in_window = true;
  auto close_window = [&](double now) {
    p.c1 = w.Read();
    p.h1 = now;
    log.CloseWindow();
    if (tracer != nullptr) {
      tracer->CloseWindow();
    }
    in_window = false;
  };
  while (in_window || HostNowS() - p.h0 < seconds) {
    const bool progressed = w.Advance();
    const double now = HostNowS();
    if (now - slice_h >= kSliceS) {
      p.slice_rates.push_back(
          static_cast<double>(log.completed() - slice_ops) / (now - slice_h));
      slice_h = now;
      slice_ops = log.completed();
    }
    if (!progressed || (in_window && now - p.h0 > kMaxWindowS)) {
      log.Fail(progressed ? "the window took longer than its host-time limit"
                          : "the system stalled with work outstanding");
      if (in_window) close_window(now);
      break;
    }
    if (in_window && log.window_ops() >= w.window_ops()) {
      close_window(now);
    }
  }
  p.h2 = HostNowS();
  p.ops = log.completed() - ops0;
  w.Finish();
  p.window_us =
      w.kernel().machine().cost_model().CyclesToMicros(p.c1.cycles - p.c0.cycles);
  return p;
}

// The end-to-end metrics measured in virtual time over the window: the same
// seed gives the same bytes, traced or not.
std::vector<Metric> VirtualMetrics(const Phase& p, const OpLog& log) {
  const double ops = static_cast<double>(log.window_ops());
  std::vector<Metric> out;
  out.push_back({"ops_per_vsec", Div(ops, p.window_us / 1e6), "1/s"});
  out.push_back(FromTail("lat_p50_us", Percentile(log.lat_us(), 50), 50));
  out.push_back(FromTail("lat_p99_us", Percentile(log.lat_us(), 99), 99));
  out.push_back({"goodput_B_per_vms",
                 Div(static_cast<double>(log.window_bytes()), p.window_us / 1e3),
                 "B/ms"});
  out.push_back({"instr_per_op",
                 Div(static_cast<double>(p.c1.instrs - p.c0.instrs), ops),
                 "count"});
  if (!log.fsync_us().empty()) {
    out.push_back(FromTail("fsync_p50_us", Percentile(log.fsync_us(), 50), 50));
    out.push_back(FromTail("fsync_p99_us", Percentile(log.fsync_us(), 99), 99));
  }
  return out;
}

// Simulator speed: the mean rate of the fastest tenth of the phase's host
// slices. On a shared host, contention only ever slows a slice down, so the
// fast slices are what the simulator itself sustains; their mean keeps one
// lucky slice from setting the figure.
double FastestDecileMean(const Phase& p) {
  std::vector<double> r = p.slice_rates;
  if (r.empty()) {
    return Div(static_cast<double>(p.ops), p.h2 - p.h0);
  }
  std::sort(r.begin(), r.end(), std::greater<double>());
  const size_t k = std::max<size_t>(1, r.size() / 10);
  double sum = 0;
  for (size_t i = 0; i < k; i++) sum += r[i];
  return sum / static_cast<double>(k);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), Format(metrics[i].value).c_str(),
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int RunUntraced(const Options& o, const WorkloadDef& def) {
  std::vector<double> setup_s;
  Instance in;
  uint64_t setup_failed = 0;
  // At least kSetups set-ups; cheap ones repeat until kMinSetupS of set-up
  // time has been sampled, so the median is not one scheduler hiccup.
  double sampled_s = 0;
  for (int i = 0; i < kMaxSetups && (i < kSetups || sampled_s < kMinSetupS);
       i++) {
    in.w.reset();
    in.log = std::make_unique<OpLog>();
    const double t0 = i == 0 ? g_process_start : HostNowS();
    in.w = def.make(o.seed, *in.log, nullptr);
    setup_s.push_back(HostNowS() - t0);
    sampled_s += setup_s.back();
    setup_failed += in.log->failed();
  }
  const uint64_t failed_before = in.log->failed();
  const Phase p = RunPhase(in, nullptr, o.seconds);
  OpLog& log = *in.log;

  const uint64_t failed = setup_failed + log.failed() - failed_before;
  const uint64_t attempted = p.ops + failed;

  // The result object carries the end-to-end metrics every workload has;
  // fsync percentiles, bytes per connection and fail_rate are printed only.
  std::vector<Metric> result = {
      {"setup_s", Median(setup_s), "s", static_cast<int64_t>(setup_s.size())},
      {"ops_per_host_s", FastestDecileMean(p), "1/s",
       static_cast<int64_t>(p.slice_rates.size())},
  };
  std::vector<Metric> printed_only;
  for (const Metric& m : VirtualMetrics(p, log)) {
    (m.name.rfind("fsync", 0) == 0 ? printed_only : result).push_back(m);
  }
  result.push_back({"host_rss_mb", PeakRssMb(), "MB"});
  for (const Workload::Extra& e : in.w->Extras()) {
    printed_only.push_back({e.name, e.value, e.unit});
  }
  printed_only.push_back({"fail_rate",
                          Div(static_cast<double>(failed),
                              static_cast<double>(attempted)),
                          "ratio"});

  std::printf("phase host_s %s s\n", Format(p.h2 - p.h0).c_str());
  std::printf("phase window_host_s %s s\n", Format(p.h1 - p.h0).c_str());
  std::printf("phase window_ops %llu count\n",
              static_cast<unsigned long long>(log.window_ops()));
  for (const Metric& m : result) Print(m);
  for (const Metric& m : printed_only) Print(m);
  PrintResult(failed == 0, attempted, failed, result);
  return failed == 0 ? 0 : 1;
}

std::vector<Metric> LayerMetrics(const Phase& p, const OpLog& log,
                                 const Tracer& t) {
  const Counters& a = p.c0;
  const Counters& b = p.c1;
  const double ops = static_cast<double>(log.window_ops());
  auto d = [](uint64_t x0, uint64_t x1) { return static_cast<double>(x1 - x0); };
  auto per_op = [&](uint64_t x0, uint64_t x1) { return Div(d(x0, x1), ops); };
  const double us_per_cycle = Div(p.window_us, d(a.cycles, b.cycles));
  auto mean_vus = [&](SpanKind k) {
    const SpanAgg& s = t.agg(k);
    return Div(static_cast<double>(s.cycles) * us_per_cycle,
               static_cast<double>(s.count));
  };
  auto mean_host_us = [&](SpanKind k) {
    const SpanAgg& s = t.agg(k);
    return Div(s.host_s * 1e6, static_cast<double>(s.count));
  };
  auto host_tail = [&](const std::string& name, SpanKind k, double want) {
    return FromTail(name, Percentile(t.agg(k).host_us, want), want);
  };
  auto level = [](uint64_t x) { return static_cast<double>(x); };
  return {
      host_tail("net.stream.listen.host_us_p50", SpanKind::kListen, 50),
      host_tail("net.stream.listen.host_us_p99", SpanKind::kListen, 99),
      host_tail("net.stream.connect.host_us_p50", SpanKind::kConnect, 50),
      host_tail("net.stream.connect.host_us_p99", SpanKind::kConnect, 99),
      host_tail("net.stream.close.host_us_p50", SpanKind::kClose, 50),
      host_tail("net.stream.close.host_us_p99", SpanKind::kClose, 99),
      {"net.stream.connect.vus", mean_vus(SpanKind::kConnect), "us"},
      {"synth.live_blocks", level(b.live_blocks), "count"},
      {"synth.code_bytes", level(b.code_bytes), "B"},
      {"synth.code_bytes_hw", level(b.code_bytes_hw), "B"},
      {"synth.live_handles", level(b.live_handles), "count"},
      {"synth.refusals", d(a.refusals, b.refusals), "count"},
      {"synth.promotions", d(a.promotions, b.promotions), "count"},
      {"kernel.alloc_bytes", level(b.alloc_bytes), "B"},
      {"kernel.alloc_count", level(b.alloc_count), "count"},
      {"net.stream.send.vus", mean_vus(SpanKind::kSend), "us"},
      {"net.stream.recv.vus", mean_vus(SpanKind::kRecv), "us"},
      {"net.stream.wouldblock_per_op", per_op(a.wouldblock, b.wouldblock), "1/op"},
      {"net.stream.retransmits_per_op", per_op(a.retransmits, b.retransmits),
       "1/op"},
      {"net.stream.timeouts_per_op", per_op(a.timeouts, b.timeouts), "1/op"},
      {"net.stream.ooo_per_op", per_op(a.ooo, b.ooo), "1/op"},
      {"net.stream.accept_ratio",
       Div(d(a.seg_accepted, b.seg_accepted),
           d(a.seg_accepted, b.seg_accepted) + d(a.seg_ooo, b.seg_ooo)),
       "ratio"},
      {"kernel.run.vus_per_op",
       Div(static_cast<double>(t.agg(SpanKind::kRun).self_cycles) * us_per_cycle,
           ops),
       "us/op"},
      {"kernel.run.host_us_per_op",
       Div(t.agg(SpanKind::kRun).host_s * 1e6, ops), "us/op"},
      {"kernel.ctx_switches_per_op", per_op(a.ctx_switches, b.ctx_switches),
       "1/op"},
      {"kernel.irqs_per_op", per_op(a.irqs, b.irqs), "1/op"},
      {"kernel.chained_per_op", per_op(a.chained, b.chained), "1/op"},
      {"net.pool.rx_overruns", d(a.rx_overruns, b.rx_overruns), "count"},
      {"net.pool.ring_drops", d(a.ring_drops, b.ring_drops), "count"},
      {"net.pool.tx_full_drops", d(a.tx_full_drops, b.tx_full_drops), "count"},
      {"net.pool.tx_spurious", d(a.tx_spurious, b.tx_spurious), "count"},
      {"net.stream.synth_fallback", d(a.synth_fallback, b.synth_fallback),
       "count"},
      {"machine.instr_per_op", per_op(a.instrs, b.instrs), "1/op"},
      {"machine.cycles_per_op", per_op(a.cycles, b.cycles), "1/op"},
      {"machine.memrefs_per_op", per_op(a.memrefs, b.memrefs), "1/op"},
      {"machine.host_ns_per_instr", Div((p.h1 - p.h0) * 1e9, d(a.instrs, b.instrs)),
       "ns"},
      {"unix.read.vus", mean_vus(SpanKind::kRead), "us"},
      {"unix.read.host_us", mean_host_us(SpanKind::kRead), "us"},
      {"unix.write.vus", mean_vus(SpanKind::kWrite), "us"},
      {"unix.write.host_us", mean_host_us(SpanKind::kWrite), "us"},
      {"unix.fsync.vus", mean_vus(SpanKind::kFsync), "us"},
      {"unix.fsync.host_us", mean_host_us(SpanKind::kFsync), "us"},
      {"fs.bcache.miss_ratio",
       Div(d(a.bc_misses, b.bc_misses), d(a.block_lookups, b.block_lookups)),
       "ratio"},
      {"fs.bcache.read_ahead_hit_ratio",
       Div(d(a.ra_hits, b.ra_hits), d(a.ra_issued, b.ra_issued)), "ratio"},
      {"fs.bcache.evictions_per_op", per_op(a.bc_evictions, b.bc_evictions),
       "1/op"},
      {"fs.bcache.flushes", d(a.bc_flushes, b.bc_flushes), "count"},
      {"fs.journal.batches_per_fsync",
       Div(d(a.journal_batches, b.journal_batches),
           static_cast<double>(log.fsync_us().size())),
       "1/fsync"},
      {"fs.disk.requests_per_op", per_op(a.disk_requests, b.disk_requests),
       "1/op"},
      {"fs.disk.retries", d(a.disk_retries, b.disk_retries), "count"},
  };
}

int RunTraced(const Options& o, const WorkloadDef& def) {
  // Untraced reference window.
  Instance ref;
  ref.w = def.make(o.seed, *ref.log, nullptr);
  const Phase pr = RunPhase(ref, nullptr, 0);
  const std::vector<Metric> vref = VirtualMetrics(pr, *ref.log);
  const uint64_t ref_failed = ref.log->failed();
  const uint64_t ref_attempted = pr.ops + ref_failed;
  ref.w.reset();

  Tracer tracer;
  Instance in;
  in.w = def.make(o.seed, *in.log, &tracer);
  tracer.Attach(in.w->kernel().machine());
  const Phase p = RunPhase(in, &tracer, o.seconds);
  const std::vector<Metric> vtr = VirtualMetrics(p, *in.log);

  bool checks_ok = true;
  // (a) Virtual metrics are byte-identical, traced or not.
  bool identical = vref.size() == vtr.size();
  for (size_t i = 0; identical && i < vref.size(); i++) {
    identical = vref[i].name == vtr[i].name &&
                Format(vref[i].value) == Format(vtr[i].value) &&
                vref[i].n == vtr[i].n;
  }
  std::printf("check virtual_identical %s\n", identical ? "ok" : "FAILED");
  if (!identical) {
    checks_ok = false;
    for (size_t i = 0; i < vref.size() && i < vtr.size(); i++) {
      std::fprintf(stderr, "perfbench: %s untraced %s traced %s\n",
                   vref[i].name.c_str(), Format(vref[i].value).c_str(),
                   Format(vtr[i].value).c_str());
    }
  }
  // (b) Zero residual: the virtual clock moves only inside the calls the
  // benchmark makes, so its top-level spans cover the window exactly.
  const uint64_t window_cycles = p.c1.cycles - p.c0.cycles;
  const uint64_t covered = tracer.top_level_cycles();
  std::printf("check zero_residual %s window_cycles=%llu span_cycles=%llu\n",
              covered == window_cycles ? "ok" : "FAILED",
              static_cast<unsigned long long>(window_cycles),
              static_cast<unsigned long long>(covered));
  checks_ok = checks_ok && covered == window_cycles;
  std::printf("trace overhead_x %s ratio\n",
              Format(Div(p.h1 - p.h0, pr.h1 - pr.h0)).c_str());

  const std::vector<Metric> layers = LayerMetrics(p, *in.log, tracer);
  for (const Metric& m : vtr) Print(m);
  for (const Metric& m : layers) Print(m);
  const uint64_t failed = ref_failed + in.log->failed();
  const uint64_t attempted = ref_attempted + p.ops + in.log->failed();
  const bool correct = failed == 0 && checks_ok;
  PrintResult(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}

bool Parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = val;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      o->trace = val == "1";
      if (val != "0" && val != "1") return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds >= 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!Parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (o.workload == w.name) def = &w;
  }
  if (def == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  // The kernel arms its fault plane from SYNTHESIS_FAULTS at construction;
  // the benchmark measures a clean wire.
  unsetenv("SYNTHESIS_FAULTS");
  std::printf("config run workload=%s seed=%llu seconds=%s trace=%d "
              "build_type=%s faults=none\n",
              def->name, static_cast<unsigned long long>(o.seed),
              Format(o.seconds).c_str(), o.trace ? 1 : 0, PERFBENCH_BUILD_TYPE);
  def->print_config();
  std::fflush(stdout);
  return o.trace ? RunTraced(o, *def) : RunUntraced(o, *def);
}
