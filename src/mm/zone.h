// Memory zones with a per-zone binary buddy allocator.
//
// Mirrors the Linux design the paper builds on: hot-plugged memory is
// onlined into ZONE_MOVABLE (or, under Squeezy, into a per-partition
// zone); the buddy allocator serves folios of order 0..kMaxPageOrder from
// intrusive per-order free lists threaded through the memmap.  A block
// onlined whole stays a uniform MemMap block (no per-page state) until the
// first allocation inside it.  The allocator keeps state only in the
// record at each extent start (memmap.h), so an alloc, split, free,
// coalesce or isolation writes O(1) records per folio or chunk, never one
// per page.  Page-cache fills, balloon inflation and the migration of
// order-0 runs allocate runs of single pages in bulk (AllocPages), one
// buddy chunk at a time, and keep each chunk's pages as a few run records
// (page.h); a range of them goes back in one Free(start, pages), one chunk
// per aligned piece.  A zone emptied at once (a Squeezy partition at
// its last user's exit) drains through FreeAll in O(folios), and every
// block it empties reverts to uniform.
//
// The offline path uses the isolation primitives: free chunks in a range
// are pulled out of the free lists (kIsolated) so concurrent allocations
// cannot land in a block that is going away, occupied folios are migrated
// out, and finally the fully-isolated range is retired (kOffline).  Each
// walks the range one extent at a time, in ascending order.
#ifndef SQUEEZY_MM_ZONE_H_
#define SQUEEZY_MM_ZONE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/mm/memmap.h"
#include "src/mm/page.h"
#include "src/sim/cost_model.h"
#include "src/sim/rng.h"

namespace squeezy {

enum class ZoneType : uint8_t {
  kNormal,          // Boot memory; kernel + unmovable allocations.
  kMovable,         // ZONE_MOVABLE: user/file pages, hot(un)pluggable.
  kSqueezyPrivate,  // One Squeezy partition (anonymous memory of one instance).
  kSqueezyShared,   // The per-VM shared Squeezy partition (file mappings).
};

const char* ZoneTypeName(ZoneType t);

class Zone {
 public:
  // `shuffle_rng` (optional, not owned) randomizes free-list insertion to
  // emulate the steady-state scatter of a long-running kernel allocator
  // (Linux CONFIG_SHUFFLE_PAGE_ALLOCATOR + allocation churn).  Without it
  // the allocator hands out contiguous ascending ranges.
  Zone(int16_t id, ZoneType type, std::string name, MemMap* memmap, Rng* shuffle_rng = nullptr);

  Zone(const Zone&) = delete;
  Zone& operator=(const Zone&) = delete;

  int16_t id() const { return id_; }
  ZoneType type() const { return type_; }
  const std::string& name() const { return name_; }

  // --- Online/offline -------------------------------------------------------
  // Every range below is whole 128 MiB blocks, as hotplug works.

  // Attributes offline (hot-added) blocks to this zone and frees them into
  // the buddy as max-order chunks.  O(chunks).
  void AddFreeRange(Pfn start, uint64_t npages);

  // Removes every *free* page in the range from the buddy (-> kIsolated),
  // one extent at a time in ascending order.  Returns the number of pages
  // isolated.
  uint64_t IsolateFreeRange(Pfn start, uint64_t npages);

  // Returns isolated pages in the range to the buddy (offline abort): each
  // maximal run of isolated pages is freed as its largest aligned chunks,
  // in ascending order.
  void UndoIsolation(Pfn start, uint64_t npages);

  // Retires a fully-isolated range from the zone (-> kOffline, zone stats
  // shrink): each block becomes uniformly offline in O(1).  Every page in
  // the range must be kIsolated.
  void RetireRange(Pfn start, uint64_t npages);

  // --- Allocation ------------------------------------------------------------
  // Allocates a 2^order folio.  Returns the head pfn or kInvalidPfn when the
  // zone cannot satisfy the request.
  Pfn Alloc(uint8_t order, PageKind kind, int32_t owner, uint32_t owner_slot);

  // Allocates up to n single pages, equal to n calls of
  // Alloc(0, kind, owner, first_slot + i) — the same pages in the same
  // order, free lists and memmap views — but one pass per buddy chunk
  // (Linux's alloc_pages_bulk).  Each chunk's taken pages are stamped as at
  // most popcount(taken) run records (page.h) and appended to `runs` as one
  // PageRun, in allocation order.  Returns how many pages were allocated:
  // fewer than n only when the zone ran dry.
  uint32_t AllocPages(uint32_t n, PageKind kind, int32_t owner, uint32_t first_slot,
                      std::vector<PageRun>* runs);

  // Frees the allocated pages [start, start + pages), coalescing with
  // buddies: equal to Free(head) on each head of the range in ascending
  // order — the same views, free lists in the same order, and counts.  The
  // range holds whole folios and run pages; it may begin or end inside a
  // run, which it first cuts at its edges.  Then each piece of the range's
  // tiling by its largest aligned pieces is freed as one chunk.  Costs
  // O(pieces), not O(pages): freeing a whole 1024-page run writes one
  // record.
  void Free(Pfn start, uint32_t pages);
  // Frees the allocated folio headed at `head`: a folio's first page, or
  // any page of a run.  The range free above, with the folio as its range.
  void Free(Pfn head);

  // Frees every allocated folio of the zone: equal to Free(heads[i]) for
  // i = 0..n-1, and requires the heads to be exactly the zone's allocated
  // folios (every page of a run is one) and the zone to hold whole blocks
  // (as every GuestKernel zone does).  Costs O(folios + touched max-order
  // slots), not O(pages): each slot goes on the max-order list when its
  // last page is freed (where the sequential frees would put it), the
  // lower-order lists empty, and each block it drains drops its Page chunk
  // (MemMap::Dematerialize).
  void FreeAll(const Pfn* heads, size_t n);

  // Frees the allocated pages [start, start + pages) of an isolating range:
  // they go straight to kIsolated instead of back to the free lists
  // (migration source path).  The range starts at a head (as Free) and
  // holds whole folios; it may begin or end inside a run.  Each extent it
  // covers whole is isolated with one record, and a run it covers in part
  // is cut first.
  void FreeIntoIsolation(Pfn start, uint32_t pages);

  // --- Stats ------------------------------------------------------------------
  uint64_t free_pages() const { return free_pages_; }
  uint64_t present_pages() const { return present_pages_; }
  uint64_t managed_pages() const { return managed_pages_; }
  uint64_t allocated_pages() const { return managed_pages_ - free_pages_; }
  uint64_t free_chunks(uint8_t order) const { return areas_[order].nr_free; }
  uint64_t free_bytes() const { return PagesToBytes(free_pages_); }

  // Rebuilds every free list in a random order.  Models the steady-state
  // scatter of a long-running kernel (boot-time onlining inserts blocks
  // sequentially; churn and SHUFFLE_PAGE_ALLOCATOR randomize over time).
  // Benches call this once after the boot-time plug of a large region.
  void ShuffleFreeLists(Rng& rng);

  // Debug invariant check: walks the free lists and verifies linkage,
  // alignment, state and the per-order counters.  O(free chunks).
  bool CheckFreeLists() const;

 private:
  struct FreeArea {
    Pfn head = kInvalidPfn;
    Pfn tail = kInvalidPfn;
    uint64_t nr_free = 0;  // Chunks (not pages) in this list.
  };

  // Free-list links of a chunk head: max-order heads link through the
  // MemMap side table, smaller orders through their head Page.
  FreeLink& Link(uint8_t order, Pfn pfn);
  FreeLink Link(uint8_t order, Pfn pfn) const;

  // The record of a kFree, kIsolated or kAllocated extent of this zone.
  Page ExtentRecord(PageState state, uint8_t order) const;
  Page AllocatedRecord(uint8_t order, PageKind kind, int32_t owner, uint32_t owner_slot) const;

  // Cuts the run extent at `start` (record `run`) so that [lo, hi), a part
  // of it, begins and ends on extent boundaries: the run's pages outside
  // [lo, hi) are restamped as aligned runs.  The caller stamps [lo, hi).
  void CutRun(Pfn start, const Page& run, Pfn lo, Pfn hi);
  // Cuts the run extent at `ext` (record `run`) where [start, end), the
  // range Free releases, begins or ends inside it.
  void CutRunEdges(Pfn ext, const Page& run, Pfn start, Pfn end);
  // Free(start, pages), given the extent that holds `start`: its start
  // `first` and its record `fp`.
  void FreeFrom(Pfn first, const Page& fp, Pfn start, uint32_t pages);

  // Whether block b is unmaterialized and uniformly `state`: the range
  // operations then handle it in O(1) or O(max-order heads).
  bool UniformBlockIs(BlockIndex b, PageState state) const;

  void ListPushFront(uint8_t order, Pfn pfn);
  void ListPushBack(uint8_t order, Pfn pfn);
  void ListRemove(uint8_t order, Pfn pfn);
  Pfn ListPopFront(uint8_t order);

  // Frees a chunk (all frames currently not in any list) with coalescing,
  // queued at the head of its list.
  void FreeChunk(Pfn pfn, uint8_t order);
  // Queues a stamped free chunk: `fresh` chunks (newly onlined) at the
  // tail, runtime frees at the head (hot reuse), unless the shuffle RNG
  // randomizes the side.
  void QueueFree(Pfn pfn, uint8_t order, bool fresh);
  // Makes [pfn, pfn + 2^order) one free chunk extent.
  void StampFreeChunk(Pfn pfn, uint8_t order);

  int16_t id_;
  ZoneType type_;
  std::string name_;
  MemMap* memmap_;
  Rng* shuffle_rng_;

  std::array<FreeArea, kMaxPageOrder + 1> areas_{};
  uint64_t free_pages_ = 0;
  uint64_t present_pages_ = 0;
  uint64_t managed_pages_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_MM_ZONE_H_
