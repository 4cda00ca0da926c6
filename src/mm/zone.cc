#include "src/mm/zone.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace squeezy {

namespace {

void AssertWholeBlocks(Pfn start, uint64_t npages) {
  assert(start % kPagesPerBlock == 0 && npages % kPagesPerBlock == 0 &&
         "range operations take whole blocks");
  (void)start;
  (void)npages;
}

// Calls fn(pfn, order) for each piece of the tiling of [start, start + n)
// by its largest naturally aligned pieces, in ascending order.  A range
// that starts on a 2^k boundary and is at most 2^k long takes popcount(n)
// pieces; one that ends on such a boundary takes one per set bit of n too.
template <typename Fn>
void ForEachPiece(Pfn start, uint64_t n, Fn&& fn) {
  while (n > 0) {
    const auto align = static_cast<uint32_t>(__builtin_ctz(start | (1u << kMaxPageOrder)));
    const auto fit = static_cast<uint32_t>(63 - __builtin_clzll(n));
    const auto order = static_cast<uint8_t>(std::min(align, fit));
    fn(start, order);
    start += 1u << order;
    n -= uint64_t{1} << order;
  }
}

// The record of the 2^order pages `offset` pages into the run whose record
// is `run`: a run record, or a single page's record.
Page RunPiece(const Page& run, uint32_t offset, uint8_t order) {
  Page rec = run;
  rec.order = order;
  rec.run = order > 0;
  rec.SetOwner(run.owner(), run.owner_slot() + offset);
  return rec;
}

}  // namespace

const char* ZoneTypeName(ZoneType t) {
  switch (t) {
    case ZoneType::kNormal:
      return "Normal";
    case ZoneType::kMovable:
      return "Movable";
    case ZoneType::kSqueezyPrivate:
      return "SqueezyPrivate";
    case ZoneType::kSqueezyShared:
      return "SqueezyShared";
  }
  return "?";
}

Zone::Zone(int16_t id, ZoneType type, std::string name, MemMap* memmap, Rng* shuffle_rng)
    : id_(id), type_(type), name_(std::move(name)), memmap_(memmap), shuffle_rng_(shuffle_rng) {
  assert(memmap_ != nullptr);
}

FreeLink& Zone::Link(uint8_t order, Pfn pfn) {
  return order == kMaxPageOrder ? memmap_->max_link(pfn) : memmap_->mutable_record(pfn).free;
}

FreeLink Zone::Link(uint8_t order, Pfn pfn) const {
  return order == kMaxPageOrder ? memmap_->max_link(pfn) : memmap_->record(pfn).free;
}

Page Zone::ExtentRecord(PageState state, uint8_t order) const {
  Page rec;  // No kind, owner or links.
  rec.state = state;
  rec.order = order;
  rec.head = state != PageState::kIsolated;
  rec.zone_id = id_;
  return rec;
}

Page Zone::AllocatedRecord(uint8_t order, PageKind kind, int32_t owner,
                           uint32_t owner_slot) const {
  Page rec = ExtentRecord(PageState::kAllocated, order);
  rec.kind = kind;
  rec.SetOwner(owner, owner_slot);
  return rec;
}

void Zone::CutRun(Pfn start, const Page& run, Pfn lo, Pfn hi) {
  assert(run.run && start <= lo && lo < hi && hi <= start + (1u << run.order));
  auto keep = [&](Pfn pfn, uint8_t order) {
    memmap_->Stamp(pfn, RunPiece(run, pfn - start, order));
  };
  ForEachPiece(start, lo - start, keep);
  ForEachPiece(hi, start + (1u << run.order) - hi, keep);
}

void Zone::CutRunEdges(Pfn ext, const Page& run, Pfn start, Pfn end) {
  const Pfn lo = std::max(ext, start);
  const Pfn hi = std::min<Pfn>(ext + (1u << run.order), end);
  CutRun(ext, run, lo, hi);
  // The run's pages inside the range keep run records of their own, so
  // each piece begins an extent that reads allocated until its free, and
  // the extent tree stays whole for the buddy checks.  The one exception
  // needs no record: a lone piece that is its tree node's right half is
  // the range's first piece, and only its own free, which stamps it, reads
  // past its start (to its left).  A single page freed from a run is one.
  const uint32_t n = hi - lo;
  const bool lone_right_half = (n & (n - 1)) == 0 && (lo & (2 * n - 1)) == n;
  if (!lone_right_half) {
    ForEachPiece(lo, n, [&](Pfn pfn, uint8_t order) {
      memmap_->Stamp(pfn, RunPiece(run, pfn - ext, order));
    });
  }
}

void Zone::ListPushFront(uint8_t order, Pfn pfn) {
  FreeArea& area = areas_[order];
  FreeLink& link = Link(order, pfn);
  link.prev = kInvalidPfn;
  link.next = area.head;
  if (area.head != kInvalidPfn) {
    Link(order, area.head).prev = pfn;
  } else {
    area.tail = pfn;
  }
  area.head = pfn;
  ++area.nr_free;
}

void Zone::ListPushBack(uint8_t order, Pfn pfn) {
  FreeArea& area = areas_[order];
  FreeLink& link = Link(order, pfn);
  link.next = kInvalidPfn;
  link.prev = area.tail;
  if (area.tail != kInvalidPfn) {
    Link(order, area.tail).next = pfn;
  } else {
    area.head = pfn;
  }
  area.tail = pfn;
  ++area.nr_free;
}

void Zone::ListRemove(uint8_t order, Pfn pfn) {
  FreeArea& area = areas_[order];
  FreeLink& link = Link(order, pfn);
  if (link.prev != kInvalidPfn) {
    Link(order, link.prev).next = link.next;
  } else {
    assert(area.head == pfn);
    area.head = link.next;
  }
  if (link.next != kInvalidPfn) {
    Link(order, link.next).prev = link.prev;
  } else {
    assert(area.tail == pfn);
    area.tail = link.prev;
  }
  link = FreeLink{};
  assert(area.nr_free > 0);
  --area.nr_free;
}

Pfn Zone::ListPopFront(uint8_t order) {
  FreeArea& area = areas_[order];
  if (area.head == kInvalidPfn) {
    return kInvalidPfn;
  }
  const Pfn pfn = area.head;
  ListRemove(order, pfn);
  return pfn;
}

void Zone::StampFreeChunk(Pfn pfn, uint8_t order) {
  memmap_->Stamp(pfn, ExtentRecord(PageState::kFree, order));
}

void Zone::FreeChunk(Pfn pfn, uint8_t order) {
  assert((pfn & ((1u << order) - 1)) == 0 && "chunk must be naturally aligned");
  // Coalesce with the buddy while possible.  The chunk is a whole node of
  // its slot's extent tree, so its buddy begins an extent: one whose order
  // exceeded the chunk's would contain the chunk.
  while (order < kMaxPageOrder) {
    const Pfn buddy = pfn ^ (1u << order);
    const Page bp = memmap_->record(buddy);
    if (bp.state != PageState::kFree || bp.order != order || bp.zone_id != id_) {
      break;
    }
    ListRemove(order, buddy);
    pfn = std::min(pfn, buddy);
    ++order;
  }
  StampFreeChunk(pfn, order);
  QueueFree(pfn, order, /*fresh=*/false);
}

void Zone::QueueFree(Pfn pfn, uint8_t order, bool fresh) {
  // Insertion policy mirrors Linux behaviour closely enough for placement
  // realism: freshly onlined memory queues at the tail (a new zone hands
  // out ascending addresses) — randomized in shuffled zones (the
  // SHUFFLE_PAGE_ALLOCATOR effect) — while runtime frees always go to the
  // head: the kernel reuses recently-freed (host-backed, cache-hot) pages
  // first, which keeps a VM's host footprint near its high watermark
  // instead of creeping across the whole region.
  if (fresh && shuffle_rng_ != nullptr && shuffle_rng_->Chance(0.5)) {
    ListPushFront(order, pfn);
  } else if (fresh) {
    ListPushBack(order, pfn);
  } else {
    ListPushFront(order, pfn);
  }
}

void Zone::AddFreeRange(Pfn start, uint64_t npages) {
  AssertWholeBlocks(start, npages);
  const Pfn end = static_cast<Pfn>(start + npages);
  present_pages_ += npages;
  managed_pages_ += npages;
  free_pages_ += npages;

  // Every slot of an offline block is one offline extent, so onlining
  // writes one record per slot and queues it as a max-order chunk.
  std::vector<Pfn> chunks;
  for (Pfn pfn = start; pfn < end; pfn += MemMap::kSlotPages) {
    assert(memmap_->record(pfn).state == PageState::kOffline);
    StampFreeChunk(pfn, kMaxPageOrder);
    chunks.push_back(pfn);
  }
  // Linux's shuffle_page_allocator randomizes the free-list order of
  // onlined memory so steady-state allocations scatter across blocks;
  // that scatter is what makes vanilla unplug migrate (paper §2.2).
  if (shuffle_rng_ != nullptr) {
    shuffle_rng_->Shuffle(chunks.begin(), chunks.end());
  }
  for (const Pfn pfn : chunks) {
    QueueFree(pfn, kMaxPageOrder, /*fresh=*/true);
  }
}

Pfn Zone::Alloc(uint8_t order, PageKind kind, int32_t owner, uint32_t owner_slot) {
  assert(order <= kMaxPageOrder);
  // Find the smallest order with a free chunk.
  uint8_t from = order;
  while (from <= kMaxPageOrder && areas_[from].nr_free == 0) {
    ++from;
  }
  if (from > kMaxPageOrder) {
    return kInvalidPfn;
  }
  Pfn chunk = ListPopFront(from);
  assert(chunk != kInvalidPfn);
  memmap_->Stamp(chunk, AllocatedRecord(order, kind, owner, owner_slot));

  // Split down, returning upper halves to the free lists.
  while (from > order) {
    --from;
    const Pfn upper = chunk + (1u << from);
    StampFreeChunk(upper, from);
    ListPushFront(from, upper);
  }

  const uint32_t n = 1u << order;
  assert(free_pages_ >= n);
  free_pages_ -= n;
  memmap_->AdjustBlockAllocated(chunk, n);
  return chunk;
}

uint32_t Zone::AllocPages(uint32_t n, PageKind kind, int32_t owner, uint32_t first_slot,
                          std::vector<PageRun>* runs) {
  uint32_t taken = 0;
  while (taken < n) {
    uint8_t from = 0;
    while (from <= kMaxPageOrder && areas_[from].nr_free == 0) {
      ++from;
    }
    if (from > kMaxPageOrder) {
      break;  // The zone ran dry.
    }
    const Pfn chunk = ListPopFront(from);
    const uint32_t size = 1u << from;
    const uint32_t take = std::min(n - taken, size);
    // Repeated Alloc(0) hands out a chunk's pages in ascending order at
    // ascending slots: the taken prefix, tiled by its largest aligned
    // pieces, is one run record per piece.
    const Page run = AllocatedRecord(0, kind, owner, first_slot + taken);
    ForEachPiece(chunk, take, [&](Pfn pfn, uint8_t order) {
      memmap_->Stamp(pfn, RunPiece(run, pfn - chunk, order));
    });
    // The rest ends up as repeated splitting leaves it: tiled by the
    // largest naturally aligned piece at each offset.  The lists below
    // `from` were empty, so each piece is alone at the front of its list.
    ForEachPiece(chunk + take, size - take, [&](Pfn pfn, uint8_t order) {
      assert(areas_[order].nr_free == 0);
      StampFreeChunk(pfn, order);
      ListPushFront(order, pfn);
    });
    assert(free_pages_ >= take);
    free_pages_ -= take;
    memmap_->AdjustBlockAllocated(chunk, take);
    runs->push_back({chunk, take});
    taken += take;
  }
  return taken;
}

void Zone::Free(Pfn head) {
  const Pfn first = memmap_->ExtentStart(head);
  const Page p = memmap_->record(first);
  FreeFrom(first, p, head, p.run ? 1 : 1u << p.order);
}

void Zone::Free(Pfn start, uint32_t pages) {
  const Pfn first = memmap_->ExtentStart(start);
  FreeFrom(first, memmap_->record(first), start, pages);
}

void Zone::FreeFrom(Pfn first, const Page& fp, Pfn start, uint32_t pages) {
  const Pfn end = start + pages;
  const Pfn first_end = first + (1u << fp.order);
#ifndef NDEBUG
  for (Pfn ext = first; ext < end; ext = memmap_->NextExtent(ext)) {
    const Page p = memmap_->record(ext);
    assert(p.state == PageState::kAllocated && p.head && p.zone_id == id_);
    assert((p.run || (ext >= start && ext + (1u << p.order) <= end)) &&
           "only a run is freed in part");
  }
#endif
  if (first < start || first_end > end) {
    CutRunEdges(first, fp, start, end);
  }
  if (first_end < end) {
    const Pfn last = memmap_->ExtentStart(end - 1);
    const Page lp = memmap_->record(last);
    if (last + (1u << lp.order) > end) {
      CutRunEdges(last, lp, start, end);
    }
  }
  // Each piece's pages are all allocated, so the sequential frees of its
  // heads would leave it one free chunk, coalesced and queued exactly as
  // FreeChunk leaves it.
  free_pages_ += pages;
  ForEachPiece(start, pages, [this](Pfn piece, uint8_t order) {
    memmap_->AdjustBlockAllocated(piece, -static_cast<int64_t>(1u << order));
    FreeChunk(piece, order);
  });
}

void Zone::FreeAll(const Pfn* heads, size_t n) {
  // Allocated pages per max-order slot over the touched slot range.
  Pfn first_slot = kInvalidPfn;
  Pfn last_slot = 0;
  for (size_t i = 0; i < n; ++i) {
    first_slot = std::min(first_slot, heads[i] >> kMaxPageOrder);
    last_slot = std::max(last_slot, heads[i] >> kMaxPageOrder);
  }
  std::vector<uint32_t> slot_pages(n == 0 ? 0 : last_slot - first_slot + 1);
  std::vector<uint8_t> orders(n);
  uint64_t pages = 0;
  for (size_t i = 0; i < n; ++i) {
    const Pfn start = memmap_->ExtentStart(heads[i]);
    const Page p = memmap_->record(start);
    assert(p.state == PageState::kAllocated && p.head && p.zone_id == id_);
    assert((p.run || start == heads[i]) && "not a folio head");
    orders[i] = p.run ? 0 : p.order;  // A run frees one page per head.
    slot_pages[(heads[i] >> kMaxPageOrder) - first_slot] += 1u << orders[i];
    pages += 1u << orders[i];
  }
  assert(pages == allocated_pages() && "FreeAll takes every allocated folio of the zone");
#ifndef NDEBUG
  // No free page sits outside a slot that drains, so the sequential frees
  // would coalesce every lower-order chunk into a max-order one.
  for (uint8_t order = 0; order < kMaxPageOrder; ++order) {
    for (Pfn pfn = areas_[order].head; pfn != kInvalidPfn; pfn = Link(order, pfn).next) {
      const Pfn slot = pfn >> kMaxPageOrder;
      assert(slot >= first_slot && slot <= last_slot &&
             slot_pages[slot - first_slot] > 0 &&
             "lower-order free chunk outside a draining slot");
    }
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    const Pfn head = heads[i];
    const uint32_t folio_pages = 1u << orders[i];
    memmap_->AdjustBlockAllocated(head, -static_cast<int64_t>(folio_pages));
    uint32_t& left = slot_pages[(head >> kMaxPageOrder) - first_slot];
    left -= folio_pages;
    if (left == 0) {
      // The free of the slot's last page forms its max-order chunk, queued
      // at the head like any runtime free.
      const Pfn slot = head & ~(MemMap::kSlotPages - 1);
      StampFreeChunk(slot, kMaxPageOrder);
      ListPushFront(kMaxPageOrder, slot);
    }
  }
  for (uint8_t order = 0; order < kMaxPageOrder; ++order) {
    areas_[order] = FreeArea{};
  }
  free_pages_ += pages;
}

void Zone::FreeIntoIsolation(Pfn start, uint32_t pages) {
  const Pfn end = start + pages;
  Pfn ext = memmap_->ExtentStart(start);
  for (Pfn pfn = start; pfn < end; ext = pfn) {
    const Page p = memmap_->record(ext);
    assert(p.state == PageState::kAllocated && p.head);
    assert(p.zone_id == id_);
    const Pfn ext_end = ext + (1u << p.order);
    const Pfn hi = std::min(ext_end, end);
    if (ext != pfn || hi != ext_end) {
      assert(p.run && "only a run is isolated in part");
      CutRun(ext, p, pfn, hi);
    }
    ForEachPiece(pfn, hi - pfn, [&](Pfn piece, uint8_t order) {
      memmap_->Stamp(piece, ExtentRecord(PageState::kIsolated, order));
    });
    memmap_->AdjustBlockAllocated(pfn, -static_cast<int64_t>(hi - pfn));
    pfn = hi;
  }
  // Isolated pages no longer count as allocatable; they were allocated, so
  // free_pages_ is unchanged.
}

uint64_t Zone::IsolateFreeRange(Pfn start, uint64_t npages) {
  AssertWholeBlocks(start, npages);
  uint64_t isolated = 0;
  const Pfn end = start + npages;
  for (Pfn pfn = start; pfn < end;) {
    const Page p = memmap_->record(pfn);
    const uint32_t n = 1u << p.order;
    if (p.state == PageState::kFree) {
      ListRemove(p.order, pfn);
      memmap_->Stamp(pfn, ExtentRecord(PageState::kIsolated, p.order));
      isolated += n;
    }
    pfn += n;
  }
  assert(free_pages_ >= isolated);
  free_pages_ -= isolated;
  return isolated;
}

void Zone::UndoIsolation(Pfn start, uint64_t npages) {
  AssertWholeBlocks(start, npages);
  // Re-free maximal runs of isolated extents.  Every free chunk of the
  // range was isolated, so the extent after a run is allocated and the
  // frees below never merge past it.
  Pfn pfn = start;
  const Pfn end = start + npages;
  while (pfn < end) {
    const PageState state = memmap_->record(pfn).state;
    assert(state != PageState::kFree);
    if (state != PageState::kIsolated) {
      pfn = memmap_->NextExtent(pfn);
      continue;
    }
    Pfn run_end = pfn;
    while (run_end < end && memmap_->record(run_end).state == PageState::kIsolated) {
      run_end = memmap_->NextExtent(run_end);
    }
    free_pages_ += run_end - pfn;
    ForEachPiece(pfn, run_end - pfn,
                 [this](Pfn piece, uint8_t order) { FreeChunk(piece, order); });
    pfn = run_end;
  }
}

void Zone::RetireRange(Pfn start, uint64_t npages) {
  AssertWholeBlocks(start, npages);
  // Each slot becomes one offline extent, dropping its isolated pieces.
  for (Pfn pfn = start; pfn < start + npages; pfn += MemMap::kSlotPages) {
    assert(pfn % kPagesPerBlock != 0 ||
           memmap_->CountBlockPages(MemMap::BlockOf(pfn), PageState::kIsolated) ==
               kPagesPerBlock);
    assert(memmap_->record(pfn).zone_id == id_);
    memmap_->Stamp(pfn, MemMap::SlotRecord(PageState::kOffline));
  }
  assert(present_pages_ >= npages && managed_pages_ >= npages);
  present_pages_ -= npages;
  managed_pages_ -= npages;
}

void Zone::ShuffleFreeLists(Rng& rng) {
  for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
    FreeArea& area = areas_[order];
    std::vector<Pfn> chunks;
    chunks.reserve(area.nr_free);
    for (Pfn pfn = area.head; pfn != kInvalidPfn; pfn = Link(order, pfn).next) {
      chunks.push_back(pfn);
    }
    rng.Shuffle(chunks.begin(), chunks.end());
    area.head = kInvalidPfn;
    area.tail = kInvalidPfn;
    area.nr_free = 0;
    for (const Pfn pfn : chunks) {
      ListPushBack(order, pfn);
    }
  }
}

bool Zone::CheckFreeLists() const {
  uint64_t pages_seen = 0;
  for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
    const FreeArea& area = areas_[order];
    uint64_t chunks = 0;
    Pfn prev = kInvalidPfn;
    for (Pfn pfn = area.head; pfn != kInvalidPfn; pfn = Link(order, pfn).next) {
      const Page p = memmap_->record(pfn);
      if (p.state != PageState::kFree || !p.head || p.order != order || p.zone_id != id_) {
        return false;
      }
      if ((pfn & ((1u << order) - 1)) != 0) {
        return false;  // Misaligned chunk.
      }
      if (Link(order, pfn).prev != prev) {
        return false;  // Broken back-link.
      }
      prev = pfn;
      ++chunks;
      pages_seen += 1u << order;
      if (chunks > area.nr_free) {
        return false;  // Cycle or counter mismatch.
      }
    }
    if (area.tail != prev || chunks != area.nr_free) {
      return false;
    }
  }
  return pages_seen == free_pages_;
}

}  // namespace squeezy
