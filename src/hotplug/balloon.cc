#include "src/hotplug/balloon.h"

#include <algorithm>
#include <cassert>

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
  std::vector<Pfn> batch;
  batch.reserve(cost_->balloon_batch_pages);

  auto report_batch = [&] {
    if (batch.empty()) {
      return;
    }
    // The host releases each reported page; only host-populated frames
    // actually shrink the host's footprint, but every report pays the
    // exit-side latency.
    uint64_t populated = 0;
    for (const Pfn pfn : batch) {
      populated += memmap_->ClearHostPopulated(pfn, 1);
    }
    out.breakdown.vm_exits +=
        hv_->BalloonRelease(vm_, populated, now) +
        cost_->balloon_exit_page * static_cast<int64_t>(batch.size() - populated);
    batch.clear();
  };

  while (out.pages < want) {
    // The driver pins pages it inflates: they become unmovable kernel
    // allocations until deflation.
    const Pfn pfn = zone->Alloc(/*order=*/0, PageKind::kKernel, kNoOwner, 0);
    if (pfn == kInvalidPfn) {
      break;  // Zone exhausted; inflation stalls (complete=false).
    }
    held_.push_back(pfn);
    ++out.pages;
    out.breakdown.rest += cost_->balloon_guest_page;

    // With batch size 1 every page pays a VM exit; larger batches amortize
    // the kick (the batching ablation) but the host still releases
    // per-page (MADV_DONTNEED on 4 KiB).
    batch.push_back(pfn);
    if (batch.size() >= cost_->balloon_batch_pages) {
      report_batch();
    }
  }
  report_batch();

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

DurationNs BalloonDevice::Deflate(uint64_t bytes, Zone* zone) {
  const uint64_t want = std::min<uint64_t>(BytesToPages(bytes), held_.size());
  DurationNs latency = 0;
  for (uint64_t i = 0; i < want; ++i) {
    const Pfn pfn = held_.back();
    held_.pop_back();
    assert(memmap_->record(pfn).state == PageState::kAllocated);
    zone->Free(pfn);
    latency += cost_->balloon_guest_page;
  }
  return latency;
}

}  // namespace squeezy
