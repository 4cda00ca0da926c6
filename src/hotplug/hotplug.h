// Memory hot(un)plug core: the Linux add/online/offline/remove pipeline.
//
// Hotplugging a 128 MiB block: hot-add (init memmap) + online (release the
// pages to a zone).  Hotunplugging: offline (isolate free pages, migrate
// occupied folios out, retire the range) + hot-remove (tear down memmap,
// acknowledge to the hypervisor, which madvises the backing away).
//
// Latency is accounted per the calibrated cost model and broken down into
// the paper's Fig 5 slices: zeroing / migration / VM exits / rest.
#ifndef SQUEEZY_HOTPLUG_HOTPLUG_H_
#define SQUEEZY_HOTPLUG_HOTPLUG_H_

#include <cstdint>

#include "src/host/hypervisor.h"
#include "src/mm/memmap.h"
#include "src/mm/migration.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"

namespace squeezy {

struct UnplugBreakdown {
  DurationNs zeroing = 0;    // init_on_alloc zeroing of offlining pages.
  DurationNs migration = 0;  // Evacuating occupied folios.
  DurationNs vm_exits = 0;   // Host-side exit + madvise work.
  DurationNs rest = 0;       // Isolation scans, metadata, fixed costs.

  DurationNs total() const { return zeroing + migration + vm_exits + rest; }
  void Add(const UnplugBreakdown& o) {
    zeroing += o.zeroing;
    migration += o.migration;
    vm_exits += o.vm_exits;
    rest += o.rest;
  }
};

struct OfflineOptions {
  // Squeezy: skip zeroing of offlining pages (deferred to the host, which
  // zeroes on re-allocation anyway).
  bool skip_zeroing = false;
  // Squeezy partitions are empty by construction; unplug asserts that no
  // migration is ever needed instead of silently doing it.
  bool allow_migration = true;
};

struct OfflineResult {
  bool ok = false;
  UnplugBreakdown breakdown;
  uint64_t pages_migrated = 0;
  uint64_t folios_migrated = 0;
};

class HotplugManager {
 public:
  // `owners` (nullable) receives folio relocation callbacks during
  // offline-driven migration.
  HotplugManager(MemMap* memmap, const CostModel* cost, Hypervisor* hv, VmId vm,
                 OwnerRegistry* owners);

  // --- Plug ---------------------------------------------------------------
  // kAbsent -> kPresent.  Returns latency (memmap init).
  DurationNs HotAddBlock(BlockIndex b);
  // kPresent -> kOnline: pages join `zone`'s buddy.
  DurationNs OnlineBlock(BlockIndex b, Zone* zone);

  // --- Unplug -------------------------------------------------------------
  // kOnline -> kOffline.  On failure (unmovable page / no migration room /
  // migration forbidden) the block is restored to kOnline and ok=false.
  // `now` anchors host-population accounting for migration copies.
  OfflineResult OfflineBlock(BlockIndex b, Zone* zone, Zone* migration_target,
                             const OfflineOptions& opts, TimeNs now = 0);
  // kOffline -> kAbsent + host acknowledgement (exit + madvise).  Returns
  // total latency; the breakdown's vm_exits slice grows by the host part.
  DurationNs HotRemoveBlock(BlockIndex b, UnplugBreakdown* breakdown, TimeNs now);

  // Lifetime totals (across all operations).
  uint64_t blocks_added() const { return blocks_added_; }
  uint64_t blocks_removed() const { return blocks_removed_; }
  // Pages migrated out of offlining blocks, including those a failed
  // offline moved before it aborted (they stay moved, and their cost is
  // charged): the sum of every OfflineResult::pages_migrated.
  uint64_t total_pages_migrated() const { return total_pages_migrated_; }

  MemMap* memmap() { return memmap_; }
  const CostModel& cost() const { return *cost_; }

 private:
  MemMap* memmap_;
  const CostModel* cost_;
  Hypervisor* hv_;
  VmId vm_;
  OwnerRegistry* owners_;
  uint64_t blocks_added_ = 0;
  uint64_t blocks_removed_ = 0;
  uint64_t total_pages_migrated_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_HOTPLUG_HOTPLUG_H_
