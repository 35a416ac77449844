#include "src/io/crash_harness.h"

#include <cstring>

namespace synthesis {

CrashStack::CrashStack(const CrashStackConfig& cfg)
    : kernel(cfg.kernel),
      disk(kernel, cfg.disk),
      sched(disk),
      fs(kernel, disk, sched),
      bcache(kernel, disk, sched, cfg.bcache),
      journal(kernel, disk, sched, FileSystem::kJournalStart,
              bcache.block_bytes(), cfg.journal),
      io(kernel, &fs) {
  Attach(cfg, /*format=*/true);
}

CrashStack::CrashStack(const CrashStackConfig& cfg,
                       const std::vector<uint8_t>& image)
    : kernel(cfg.kernel),
      disk(kernel, cfg.disk),
      sched(disk),
      fs(kernel, disk, sched),
      bcache(kernel, disk, sched, cfg.bcache),
      journal(kernel, disk, sched, FileSystem::kJournalStart,
              bcache.block_bytes(), cfg.journal),
      io(kernel, &fs) {
  // The surviving platter: whatever the completion interrupts had landed at
  // the instant of the power failure, torn in-flight sectors included.
  std::vector<uint8_t>& platter = disk.backing();
  const size_t n = image.size() < platter.size() ? image.size() : platter.size();
  std::memcpy(platter.data(), image.data(), n);
  Attach(cfg, /*format=*/false);
  mount = fs.Mount();
}

void CrashStack::Attach(const CrashStackConfig& cfg, bool format) {
  fs.AttachBcache(&bcache);
  if (cfg.journaled) {
    bcache.AttachJournal(&journal);
    fs.AttachJournal(&journal, format);
  }
}

CrashHarness::CrashHarness(CrashStackConfig cfg) : cfg_(cfg) {
  stack_ = std::make_unique<CrashStack>(cfg_);
}

FileSystem::MountReport CrashHarness::Reboot() {
  // Power failure freezes a snapshot; a clean reboot carries the live
  // platter. Either way the old kernel's volatile state is discarded.
  std::vector<uint8_t> image =
      stack_->Crashed() ? stack_->disk.crash_image() : stack_->disk.backing();
  stack_.reset();
  stack_ = std::make_unique<CrashStack>(cfg_, image);
  ++reboots_;
  return stack_->mount;
}

}  // namespace synthesis
