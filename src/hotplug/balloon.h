// virtio-balloon device model.
//
// Inflation reclaims guest memory in 4 KiB pages: the driver allocates
// guest pages (pinning them, so they are unmovable) and reports them to
// the hypervisor in batches of balloon_batch_pages, which releases the
// backing.  The simulated cost is charged per page: the per-page VM exits
// dominate (81% in the paper's Fig 5) and the cost scales linearly with
// the reclaimed size — the pathology Squeezy avoids.  The simulator's own
// work is per run, not per page: pages come from the buddy allocator one
// chunk at a time, host backing is cleared one contiguous run at a time,
// one counted host release books all of an inflation's reports, and the
// held pages are kept as pfn runs.
#ifndef SQUEEZY_HOTPLUG_BALLOON_H_
#define SQUEEZY_HOTPLUG_BALLOON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/host/hypervisor.h"
#include "src/hotplug/hotplug.h"
#include "src/mm/memmap.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"
#include "src/sim/cpu_accountant.h"

namespace squeezy {

struct BalloonOutcome {
  uint64_t pages = 0;
  UnplugBreakdown breakdown;  // vm_exits = host side; rest = guest alloc side.
  bool complete = false;

  DurationNs latency() const { return breakdown.total(); }
  uint64_t bytes() const { return PagesToBytes(pages); }
};

class BalloonDevice {
 public:
  BalloonDevice(MemMap* memmap, const CostModel* cost, Hypervisor* hv, VmId vm,
                CpuAccountant* cpu = nullptr, std::string guest_thread = "balloon/guest",
                std::string host_thread = "balloon/host");

  // Inflates by `bytes`: allocates order-0 pages from `zone` (the pfns,
  // zone and memmap state of Alloc(0, kKernel, kNoOwner, i) for the
  // inflation's i-th page) and reports them.  Stops early if the zone runs
  // dry (complete=false).
  BalloonOutcome Inflate(uint64_t bytes, Zone* zone, TimeNs now);

  // Deflates by `bytes` (most recently inflated first), returning pages to
  // their zones.  Returns guest-side latency.
  DurationNs Deflate(uint64_t bytes, Zone* zone);

  uint64_t held_pages() const { return held_pages_; }
  uint64_t held_bytes() const { return PagesToBytes(held_pages_); }

 private:
  // Holds an inflated run, extending the last one when it continues it in
  // the same block.
  void Hold(Pfn start, uint32_t pages);

  MemMap* memmap_;
  const CostModel* cost_;
  Hypervisor* hv_;
  VmId vm_;
  CpuAccountant* cpu_;
  std::string guest_thread_;
  std::string host_thread_;
  // In-block runs, each inflated in ascending order, in inflation order.
  std::vector<PageRun> held_;
  uint64_t held_pages_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_HOTPLUG_BALLOON_H_
