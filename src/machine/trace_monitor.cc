#include "src/machine/trace_monitor.h"

#include <algorithm>
#include <cstdio>

#include "src/machine/disasm.h"

namespace synthesis {

std::string TraceMonitor::FormatTrace(size_t n) const {
  const auto& trace = machine_.trace();
  size_t start = trace.size() > n ? trace.size() - n : 0;
  std::string out;
  for (size_t i = start; i < trace.size(); i++) {
    const TraceEntry& e = trace[i];
    const char* name =
        store_.Valid(e.block) ? store_.Get(e.block).name.c_str() : "?";
    char line[160];
    std::snprintf(line, sizeof(line), "%-24s %4u: %-28s ; %u cycles\n", name, e.pc,
                  Disassemble(e.instr).c_str(), e.cycles);
    out += line;
  }
  return out;
}

std::vector<TraceMonitor::BlockProfile> TraceMonitor::Profile() const {
  std::map<BlockId, BlockProfile> acc;
  for (const TraceEntry& e : machine_.trace()) {
    BlockProfile& p = acc[e.block];
    if (p.instructions == 0) {
      p.block = e.block;
      p.name = store_.Valid(e.block) ? store_.Get(e.block).name : "?";
    }
    p.instructions++;
    p.cycles += e.cycles;
  }
  std::vector<BlockProfile> out;
  out.reserve(acc.size());
  for (auto& [id, p] : acc) {
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(), [](const BlockProfile& a, const BlockProfile& b) {
    return a.cycles > b.cycles;
  });
  return out;
}

std::string TraceMonitor::FormatProfile(size_t top) const {
  std::vector<BlockProfile> prof = Profile();
  std::string out = "block                             instrs     cycles\n";
  for (size_t i = 0; i < prof.size() && i < top; i++) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-32s %7llu %10llu\n", prof[i].name.c_str(),
                  static_cast<unsigned long long>(prof[i].instructions),
                  static_cast<unsigned long long>(prof[i].cycles));
    out += line;
  }
  return out;
}

}  // namespace synthesis
