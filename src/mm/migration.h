// Page migration: evacuating occupied folios out of an offlining range.
//
// This is the operation whose cost dominates vanilla virtio-mem unplug in
// the paper (61.5% of unplug latency on average, Fig 5) and whose CPU
// consumption interferes with co-located instances (Fig 7/9).  Squeezy's
// whole point is to never need it on the reclaim path.
//
// The copies are charged per folio, as the kernel's migrate_pages pays a
// fixed cost per folio.  The simulator still executes runs of order-0
// pages in bulk: a run of one owner's pages at consecutive owner slots
// (what a page-cache fill's AllocPages leaves) takes all its targets in
// one Zone::AllocPages, with the same result as one Alloc(0) per page, and
// isolates its source extents with one record each.  The owners are
// patched once per target run: the page cache moves one extent, and a
// process patches each of its folio slots.
#ifndef SQUEEZY_MM_MIGRATION_H_
#define SQUEEZY_MM_MIGRATION_H_

#include <cstdint>

#include "src/mm/memmap.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"

namespace squeezy {

// Consumers that track folio locations (processes, the page cache)
// implement this so migration can patch their tables.
class OwnerRegistry {
 public:
  virtual ~OwnerRegistry() = default;
  // The folios of (kind, owner) at owner slots first_slot, first_slot + 1,
  // ... now lie back to back over `to`, 2^order pages each: one larger
  // folio, or a run of single pages.  Called once per target run.
  virtual void RelocateRun(PageKind kind, int32_t owner, uint32_t first_slot,
                           uint8_t order, PageRun to) = 0;
};

// What one MigrateOutOfRange did.  Every field reads as if the folios had
// moved one at a time: a run of order-0 pages moved in bulk counts each
// page as a folio and charges each MigrateFolio(1).
struct MigrateOutcome {
  bool ok = true;               // False: unmovable page or target exhaustion.
  uint64_t folios_moved = 0;
  uint64_t pages_moved = 0;
  // Target frames that gained host backing during the copies (the caller
  // must charge these to the hypervisor's population books; the latency is
  // already folded into migrate_page).
  uint64_t pages_newly_backed = 0;
  DurationNs cost = 0;          // Guest CPU time consumed by the copies.
};

// Moves every allocated folio in [start, start + npages) into free space
// of `target_zone`.  The range's free pages must already be isolated so
// the target allocation cannot land back inside the range.  Folio frames
// vacated in the range go straight to kIsolated.
//
// On failure the outcome reports the partial progress: every folio before
// the unmovable page, or before the first one the target had no room for,
// has moved.  The caller decides whether to undo the isolation (offline
// abort).
MigrateOutcome MigrateOutOfRange(MemMap& memmap, Zone& src_zone, Zone& target_zone, Pfn start,
                                 uint64_t npages, const CostModel& cost, OwnerRegistry* owners);

}  // namespace squeezy

#endif  // SQUEEZY_MM_MIGRATION_H_
