#include "src/mm/migration.h"

#include <cassert>

namespace squeezy {

MigrateOutcome MigrateOutOfRange(MemMap& memmap, Zone& src_zone, Zone& target_zone, Pfn start,
                                 uint64_t npages, const CostModel& cost, OwnerRegistry* owners) {
  MigrateOutcome outcome;
  const Pfn end = start + npages;
  Pfn pfn = start;
  while (pfn < end) {
    const Page p = memmap.record(pfn);
    if (p.state != PageState::kAllocated) {
      pfn = memmap.NextExtent(pfn);
      continue;
    }
    if (p.kind == PageKind::kKernel) {
      // Pinned/unmovable memory: offline cannot proceed.
      outcome.ok = false;
      return outcome;
    }
    const uint8_t order = p.order;
    const PageKind kind = p.kind;
    const int32_t owner = p.owner();
    const uint32_t owner_slot = p.owner_slot();
    const uint32_t folio_pages = 1u << order;

    const Pfn target = target_zone.Alloc(order, kind, owner, owner_slot);
    if (target == kInvalidPfn) {
      outcome.ok = false;  // Nowhere to migrate to (memory pressure).
      return outcome;
    }
    assert(!(target >= start && target < end) && "target allocated inside isolating range");

    // The copy writes every byte of the target folio; the host backs it as
    // a side effect (cost folded into migrate_page).
    outcome.pages_newly_backed += memmap.SetHostPopulated(target, folio_pages);
    src_zone.FreeIntoIsolation(pfn);
    if (owners != nullptr) {
      owners->RelocateFolio(kind, owner, owner_slot, target);
    }

    outcome.folios_moved += 1;
    outcome.pages_moved += folio_pages;
    outcome.cost += cost.MigrateFolio(folio_pages);
    pfn += folio_pages;
  }
  return outcome;
}

}  // namespace squeezy
