// Guest physical page model (the simulator's `struct page`).
//
// A 12-byte Page record is stored only at extent starts, never one per
// 4 KiB guest frame (memmap.h).  An extent is an allocated folio
// (compound page), a run of allocated single pages, a free buddy chunk or
// an isolated run: 2^order contiguous, naturally aligned frames, order <=
// kMaxPageOrder, so it never crosses a max-order (4 MiB) slot.  The record
// at its start is the only authoritative state, and every frame reads by
// the record rule (MemMap::page):
//   - the start reads as the record;
//   - any other frame reads as the record with head = false and
//     free = FreeLink{};
//   - kIsolated, kOffline and kHole frames read order 0, although their
//     record's order holds the extent's order;
//   - a run record (run = true) stands for 2^order order-0 pages of one
//     kind, zone and owner at owner slots base .. base + 2^order - 1 (base
//     is the record's owner_slot): frame i of the run reads as an order-0
//     allocated head with owner_slot = base + i and run = false.
// Free buddy chunks thread an intrusive doubly-linked free list through
// their start records (max-order chunks link beside their MemMap slot
// instead; see memmap.h).
//
// Like Linux's `struct page`, the owner and the free-list link share one
// 8-byte word pair: a free head has no owner, and an allocated head is on
// no list.  Other records hold the "unlinked" value FreeLink{}.  State,
// kind, order and the head and run flags pack into two bytes of
// bit-fields.  Host
// (EPT) backing is not a Page field: MemMap keeps it in a per-block bitmap
// (memmap.h).
#ifndef SQUEEZY_MM_PAGE_H_
#define SQUEEZY_MM_PAGE_H_

#include <cassert>
#include <cstdint>
#include <type_traits>

namespace squeezy {

// Page frame number: index of a 4 KiB frame in guest physical space.
using Pfn = uint32_t;
inline constexpr Pfn kInvalidPfn = 0xffffffffu;

// Owner sentinel for pages not owned by a process or file.
inline constexpr int32_t kNoOwner = -1;

enum class PageState : uint8_t {
  kHole,       // No memory behind this frame (not hot-added).
  kFree,       // In a buddy free list of its zone.
  kAllocated,  // Part of an allocated folio.
  kIsolated,   // Removed from the allocator while its block is offlining.
  kOffline,    // Present (hot-added) but not online in any zone.
};

enum class PageKind : uint8_t {
  kNone,
  kAnon,    // Anonymous process memory (movable).
  kFile,    // Page-cache page (movable).
  kKernel,  // Kernel/pinned allocation (unmovable), incl. balloon-held pages.
};

// Buddy free-list linkage of one free chunk head.  FreeLink{} is also the
// value of every page that is neither a listed free head nor an allocated
// head.
struct FreeLink {
  Pfn next = kInvalidPfn;
  Pfn prev = kInvalidPfn;
};

struct Page {
  // C++17 has no default member initializers for bit-fields.
  Page() : state(PageState::kHole), kind(PageKind::kNone), order(0), head(false), run(false) {}

  PageState state : 4;
  PageKind kind : 4;
  uint8_t order : 4;     // Extent order (page.h's record rule for views).
  bool head : 1;         // True at the start of a folio or free chunk.
  bool run : 1;          // A run record of 2^order single pages; never in a view.
  int16_t zone_id = -1;  // Owning zone, -1 while offline/hole.
  // Free-list linkage of a free head below max order (max-order links live
  // in MemMap); on an allocated head the same two words hold its owner.
  // Read `free` only on a listed free head, and owner() only on an
  // allocated head.
  FreeLink free;

  // Owner of an allocated head.  Anon: pid.  File: file id.  Kernel:
  // kNoOwner.
  int32_t owner() const {
    return free.next == kInvalidPfn ? kNoOwner : static_cast<int32_t>(free.next);
  }
  // Anon: index in the owner's folio table.  File: page index in the file.
  uint32_t owner_slot() const { return free.prev; }
  void SetOwner(int32_t owner, uint32_t owner_slot) {
    assert(owner >= kNoOwner);
    free.next = owner == kNoOwner ? kInvalidPfn : static_cast<Pfn>(owner);
    free.prev = owner_slot;
  }
};

// Records are copied as plain bytes when a slot's record array shifts.
static_assert(sizeof(Page) == 12,
              "Page grew: every slot start and every stored extent start holds one");
static_assert(std::is_trivially_copyable_v<Page>);
static_assert(std::is_trivially_destructible_v<Page>);

struct FolioRef {
  Pfn head = kInvalidPfn;
  uint8_t order = 0;

  uint32_t pages() const { return 1u << order; }
};

// Pages [start, start + pages).
struct PageRun {
  Pfn start = kInvalidPfn;
  uint32_t pages = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_MM_PAGE_H_
