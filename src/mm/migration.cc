#include "src/mm/migration.h"

#include <algorithm>
#include <cassert>

namespace squeezy {

namespace {

// The longest run of order-0 pages moved with one bulk allocation: one
// max-order slot, so the targets fit a stack buffer.
constexpr uint32_t kMaxRunPages = MemMap::kSlotPages;

// How many allocated order-0 pages from `pfn` on (at most `limit`)
// continue the run that `first` (pfn's record) begins: same kind and
// owner, owner slots ascending by one — what AllocPages leaves behind.
uint32_t OrderZeroRun(const MemMap& memmap, Pfn pfn, const Page& first, uint32_t limit) {
  uint32_t n = 1;
  while (n < limit) {
    const Page q = memmap.record(pfn + n);
    if (q.state != PageState::kAllocated || q.order != 0 || q.kind != first.kind ||
        q.owner() != first.owner() || q.owner_slot() != first.owner_slot() + n) {
      break;
    }
    ++n;
  }
  return n;
}

}  // namespace

MigrateOutcome MigrateOutOfRange(MemMap& memmap, Zone& src_zone, Zone& target_zone, Pfn start,
                                 uint64_t npages, const CostModel& cost, OwnerRegistry* owners) {
  MigrateOutcome outcome;
  const Pfn end = start + npages;
  Pfn targets[kMaxRunPages];
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
    const uint32_t folio_pages = 1u << p.order;

    // A larger folio moves alone; a run of order-0 pages takes its targets
    // in one AllocPages, which equals one Alloc(0) per page.  Freeing the
    // sources and patching the owners never touch the target's free
    // lists, so the result is the folio-at-a-time one, also where the
    // target runs dry.
    uint32_t n = 1;
    uint32_t got = 0;
    if (p.order > 0) {
      targets[0] = target_zone.Alloc(p.order, kind, owner, owner_slot);
      got = targets[0] != kInvalidPfn ? 1 : 0;
    } else {
      const auto limit = static_cast<uint32_t>(std::min<uint64_t>(kMaxRunPages, end - pfn));
      n = OrderZeroRun(memmap, pfn, p, limit);
      got = target_zone.AllocPages(n, kind, owner, owner_slot, targets);
    }

    // The copy writes every byte of the target folios; the host backs them
    // as a side effect (cost folded into migrate_page), one update per
    // contiguous in-block run of targets.
    for (uint32_t i = 0; i < got;) {
      uint32_t len = 1;
      while (i + len < got && targets[i + len] == targets[i] + len &&
             MemMap::BlockOf(targets[i + len]) == MemMap::BlockOf(targets[i])) {
        ++len;
      }
      outcome.pages_newly_backed += memmap.SetHostPopulated(targets[i], len * folio_pages);
      i += len;
    }
    for (uint32_t i = 0; i < got; ++i) {
      assert(!(targets[i] >= start && targets[i] < end) &&
             "target allocated inside isolating range");
      src_zone.FreeIntoIsolation(pfn + i * folio_pages);
      if (owners != nullptr) {
        owners->RelocateFolio(kind, owner, owner_slot + i, targets[i]);
      }
    }
    // Still charged per folio: each order-0 page pays the fixed cost.
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
