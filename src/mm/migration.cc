#include "src/mm/migration.h"

#include <cassert>
#include <vector>

namespace squeezy {

namespace {

// How many pages from `pfn` on (before `end`) continue the run of single
// pages whose first extent begins at `pfn` with record `first`: whole
// extents of single pages (run records or order-0 folios) of the same kind
// and owner at owner slots ascending by one — what AllocPages leaves behind.
uint32_t SinglePageRun(const MemMap& memmap, Pfn pfn, const Page& first, Pfn end) {
  uint32_t n = 1u << first.order;
  while (pfn + n < end) {
    const Page q = memmap.record(pfn + n);
    if (q.state != PageState::kAllocated || (q.order > 0 && !q.run) || q.kind != first.kind ||
        q.owner() != first.owner() || q.owner_slot() != first.owner_slot() + n) {
      break;
    }
    n += 1u << q.order;
  }
  return n;
}

}  // namespace

MigrateOutcome MigrateOutOfRange(MemMap& memmap, Zone& src_zone, Zone& target_zone, Pfn start,
                                 uint64_t npages, const CostModel& cost, OwnerRegistry* owners) {
  MigrateOutcome outcome;
  const Pfn end = start + npages;
  std::vector<PageRun> targets;
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
    const PageKind kind = p.kind;
    const int32_t owner = p.owner();
    const uint32_t owner_slot = p.owner_slot();

    // A larger folio moves alone; a run of single pages, cut on extent
    // boundaries, takes its targets in one AllocPages, which equals one
    // Alloc(0) per page.  Freeing the sources and patching the owners
    // never touch the target's free lists, so the result is the
    // folio-at-a-time one, also where the target runs dry.
    const uint8_t folio_order = p.run ? 0 : p.order;
    const uint32_t folio_pages = 1u << folio_order;
    uint32_t n = 1;
    uint32_t got = 0;
    targets.clear();
    if (folio_pages > 1) {
      const Pfn target = target_zone.Alloc(folio_order, kind, owner, owner_slot);
      if (target != kInvalidPfn) {
        targets.push_back({target, folio_pages});
        got = 1;
      }
    } else {
      n = SinglePageRun(memmap, pfn, p, end);
      got = target_zone.AllocPages(n, kind, owner, owner_slot, &targets);
    }

    // The copy writes every byte of the target folios; the host backs them
    // as a side effect (cost folded into migrate_page), and the owners are
    // patched, one update each per target run.  The sources go to
    // kIsolated with one record per extent.
    uint32_t slot = owner_slot;
    for (const PageRun& run : targets) {
      assert(!(run.start < end && run.start + run.pages > start) &&
             "target allocated inside isolating range");
      outcome.pages_newly_backed += memmap.SetHostPopulated(run.start, run.pages);
      if (owners != nullptr) {
        owners->RelocateRun(kind, owner, slot, folio_order, run);
      }
      slot += run.pages / folio_pages;
    }
    if (got > 0) {
      src_zone.FreeIntoIsolation(pfn, got * folio_pages);
    }
    // Still charged per folio: each single page pays the fixed cost.
    outcome.folios_moved += got;
    outcome.pages_moved += static_cast<uint64_t>(got) * folio_pages;
    outcome.cost += static_cast<DurationNs>(got) * cost.MigrateFolio(folio_pages);
    if (got < n) {
      outcome.ok = false;  // Nowhere to migrate to (memory pressure).
      return outcome;
    }
    pfn += n * folio_pages;
  }
  return outcome;
}

}  // namespace squeezy
