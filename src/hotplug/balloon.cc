#include "src/hotplug/balloon.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace squeezy {

BalloonDevice::BalloonDevice(MemMap* memmap, const CostModel* cost, Hypervisor* hv, VmId vm,
                             CpuAccountant* cpu, std::string guest_thread,
                             std::string host_thread)
    : memmap_(memmap),
      cost_(cost),
      hv_(hv),
      vm_(vm),
      cpu_(cpu),
      guest_thread_(std::move(guest_thread)),
      host_thread_(std::move(host_thread)) {
  assert(memmap_ != nullptr && cost_ != nullptr && hv_ != nullptr);
}

BalloonOutcome BalloonDevice::Inflate(uint64_t bytes, Zone* zone, TimeNs now) {
  BalloonOutcome out;
  const uint64_t want = BytesToPages(bytes);
  // With batch size 1 every page pays a VM exit; larger batches amortize
  // the kick (the batching ablation) but the host still releases per page
  // (MADV_DONTNEED on 4 KiB).  reports[k] counts the reports that found k
  // of their pages host-populated: only those shrink the host's footprint,
  // but every reported page pays the exit-side latency.
  const uint32_t batch = std::max<uint32_t>(1, cost_->balloon_batch_pages);
  std::vector<uint64_t> reports(batch + 1);
  uint32_t open_pages = 0;      // Pages of the report being filled.
  uint32_t open_populated = 0;  // How many of them were host-populated.
  uint64_t populated = 0;

  // Reports the inflated run [start, start + n), which lies in one block.
  auto report = [&](Pfn start, uint32_t n) {
    if (batch == 1) {  // One report per page: its bit is its count.
      const uint32_t cleared = memmap_->ClearHostPopulated(start, n);
      reports[1] += cleared;
      reports[0] += n - cleared;
      populated += cleared;
      return;
    }
    for (uint32_t off = 0; off < n;) {
      const uint32_t take = std::min(n - off, batch - open_pages);
      const uint32_t cleared = memmap_->ClearHostPopulated(start + off, take);
      open_populated += cleared;
      populated += cleared;
      open_pages += take;
      off += take;
      if (open_pages == batch) {
        ++reports[open_populated];
        open_pages = 0;
        open_populated = 0;
      }
    }
  };

  // The driver pins pages it inflates: they become unmovable kernel
  // allocations until deflation.  Each buddy chunk comes back as one run.
  assert(want <= UINT32_MAX);
  std::vector<PageRun> runs;
  out.pages = zone->AllocPages(static_cast<uint32_t>(want), PageKind::kKernel, kNoOwner, 0,
                               &runs);
  for (const PageRun& run : runs) {
    Hold(run.start, run.pages);
    report(run.start, run.pages);
  }
  if (open_pages > 0) {
    ++reports[open_populated];
  }

  out.breakdown.rest = cost_->balloon_guest_page * static_cast<int64_t>(out.pages);
  out.breakdown.vm_exits =
      hv_->BalloonRelease(vm_, reports, now) +
      cost_->balloon_exit_page * static_cast<int64_t>(out.pages - populated);
  out.complete = out.pages >= want;
  if (cpu_ != nullptr) {
    if (out.breakdown.rest > 0) {
      cpu_->AddBusy(guest_thread_, now, out.breakdown.rest);
    }
    if (out.breakdown.vm_exits > 0) {
      cpu_->AddBusy(host_thread_, now, out.breakdown.vm_exits);
    }
  }
  return out;
}

void BalloonDevice::Hold(Pfn start, uint32_t pages) {
  held_pages_ += pages;
  if (!held_.empty()) {
    PageRun& last = held_.back();
    if (last.start + last.pages == start && start % kPagesPerBlock != 0) {
      last.pages += pages;
      return;
    }
  }
  held_.push_back({start, pages});
}

DurationNs BalloonDevice::Deflate(uint64_t bytes, Zone* zone) {
  uint64_t left = std::min(BytesToPages(bytes), held_pages_);
  held_pages_ -= left;
  const DurationNs latency = cost_->balloon_guest_page * static_cast<int64_t>(left);
  while (left > 0) {
    // The most recently inflated page is the last of the last run.
    PageRun& run = held_.back();
    const auto take = static_cast<uint32_t>(std::min<uint64_t>(left, run.pages));
    for (uint32_t i = 0; i < take; ++i) {
      zone->Free(run.start + run.pages - 1 - i);
    }
    run.pages -= take;
    left -= take;
    if (run.pages == 0) {
      held_.pop_back();
    }
  }
  return latency;
}

}  // namespace squeezy
