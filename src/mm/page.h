// Guest physical page model (the simulator's `struct page`).
//
// One Page exists per 4 KiB guest frame of the managed span.  Pages form
// folios (compound pages): an order-N folio covers 2^N contiguous,
// naturally aligned frames; only the head carries ownership metadata.
// Free buddy chunks use the same head/tail scheme plus an intrusive
// doubly-linked free list threaded through the heads (max-order heads link
// through a MemMap side table instead; see memmap.h).
#ifndef SQUEEZY_MM_PAGE_H_
#define SQUEEZY_MM_PAGE_H_

#include <cstdint>

namespace squeezy {

// Page frame number: index of a 4 KiB frame in guest physical space.
using Pfn = uint32_t;
inline constexpr Pfn kInvalidPfn = 0xffffffffu;

// Owner sentinel for pages not owned by a process or file.
inline constexpr int32_t kNoOwner = -1;

enum class PageState : uint8_t {
  kHole,       // No memory behind this frame (not hot-added).
  kFree,       // In a buddy free list of its zone.
  kAllocated,  // Head or tail of an allocated folio.
  kIsolated,   // Removed from the allocator while its block is offlining.
  kOffline,    // Present (hot-added) but not online in any zone.
};

enum class PageKind : uint8_t {
  kNone,
  kAnon,    // Anonymous process memory (movable).
  kFile,    // Page-cache page (movable).
  kKernel,  // Kernel/pinned allocation (unmovable), incl. balloon-held pages.
};

// Buddy free-list linkage of one free chunk head.
struct FreeLink {
  Pfn next = kInvalidPfn;
  Pfn prev = kInvalidPfn;
};

struct Page {
  PageState state = PageState::kHole;
  PageKind kind = PageKind::kNone;
  uint8_t order = 0;           // Folio/chunk order; valid on heads.
  bool head = false;           // True for folio/chunk head frames.
  bool host_populated = false; // Host (EPT) backing exists for this frame.
  int16_t zone_id = -1;        // Owning zone, -1 while offline/hole.
  int32_t owner = kNoOwner;    // Anon: pid.  File: file id.  (heads only)
  uint32_t owner_slot = 0;     // Anon: index in the owner's folio table.
                               // File: page index within the file.
  FreeLink free;               // Free-list linkage (free heads below max order
                               // only; max-order links live in MemMap).
};

struct FolioRef {
  Pfn head = kInvalidPfn;
  uint8_t order = 0;

  uint32_t pages() const { return 1u << order; }
};

}  // namespace squeezy

#endif  // SQUEEZY_MM_PAGE_H_
