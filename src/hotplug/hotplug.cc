#include "src/hotplug/hotplug.h"

#include <cassert>

namespace squeezy {

HotplugManager::HotplugManager(MemMap* memmap, const CostModel* cost, Hypervisor* hv, VmId vm,
                               OwnerRegistry* owners)
    : memmap_(memmap), cost_(cost), hv_(hv), vm_(vm), owners_(owners) {
  assert(memmap_ != nullptr && cost_ != nullptr && hv_ != nullptr);
}

DurationNs HotplugManager::HotAddBlock(BlockIndex b) {
  assert(memmap_->block_state(b) == BlockState::kAbsent);
  memmap_->InitBlock(b);
  ++blocks_added_;
  return cost_->block_hotadd;
}

DurationNs HotplugManager::OnlineBlock(BlockIndex b, Zone* zone) {
  assert(memmap_->block_state(b) == BlockState::kPresent);
  zone->AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
  memmap_->set_block_state(b, BlockState::kOnline);
  return cost_->block_online;
}

OfflineResult HotplugManager::OfflineBlock(BlockIndex b, Zone* zone, Zone* migration_target,
                                           const OfflineOptions& opts, TimeNs now) {
  OfflineResult result;
  assert(memmap_->block_state(b) == BlockState::kOnline);
  memmap_->set_block_state(b, BlockState::kGoingOffline);

  const Pfn start = MemMap::BlockStart(b);

  // 1. Pull every free page out of the allocator.  The generic allocator
  //    path zeroes pages it hands out (init_on_alloc hardening), and it is
  //    oblivious to the fact that these pages are about to be unplugged —
  //    the waste Squeezy's skip_zeroing eliminates.
  const uint64_t isolated = zone->IsolateFreeRange(start, kPagesPerBlock);
  result.breakdown.rest += cost_->isolate_page * static_cast<int64_t>(kPagesPerBlock);
  if (!opts.skip_zeroing) {
    result.breakdown.zeroing += cost_->ZeroPages(isolated);
  }

  // 2. Evacuate occupied folios.
  const uint64_t occupied = kPagesPerBlock - isolated;
  if (occupied > 0) {
    if (!opts.allow_migration) {
      zone->UndoIsolation(start, kPagesPerBlock);
      memmap_->set_block_state(b, BlockState::kOnline);
      result.ok = false;
      return result;
    }
    const MigrateOutcome mig = MigrateOutOfRange(*memmap_, *zone, *migration_target, start,
                                                 kPagesPerBlock, *cost_, owners_);
    result.pages_migrated += mig.pages_moved;
    result.folios_migrated += mig.folios_moved;
    // Moved folios stay moved even when the offline then aborts.
    total_pages_migrated_ += mig.pages_moved;
    result.breakdown.migration += mig.cost;
    if (mig.pages_newly_backed > 0) {
      // Copies into previously-unbacked frames grew the host footprint;
      // the fault latency is already inside migrate_page.
      hv_->NestedFaultPopulate(vm_, /*extents=*/0, PagesToBytes(mig.pages_newly_backed), now);
    }
    if (!opts.skip_zeroing) {
      // The vacated frames also flow through the zeroing-on-isolation path.
      result.breakdown.zeroing += cost_->ZeroPages(mig.pages_moved);
    }
    if (!mig.ok) {
      zone->UndoIsolation(start, kPagesPerBlock);
      memmap_->set_block_state(b, BlockState::kOnline);
      result.ok = false;
      return result;
    }
  }

  // 3. Retire the fully-isolated range.
  zone->RetireRange(start, kPagesPerBlock);
  memmap_->set_block_state(b, BlockState::kOffline);
  result.breakdown.rest += cost_->block_offline_fixed;
  result.ok = true;
  return result;
}

DurationNs HotplugManager::HotRemoveBlock(BlockIndex b, UnplugBreakdown* breakdown, TimeNs now) {
  assert(memmap_->block_state(b) == BlockState::kOffline);

  // Tear down the memmap; the hypervisor madvises the host backing away.
  const uint64_t populated = memmap_->RemoveBlock(b);
  ++blocks_removed_;

  const DurationNs host_side = hv_->AckUnplugBlock(vm_, PagesToBytes(populated), now);
  if (breakdown != nullptr) {
    breakdown->vm_exits += host_side;
  }
  return host_side;
}

}  // namespace squeezy
