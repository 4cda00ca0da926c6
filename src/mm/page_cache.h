// Guest page cache: file -> resident page mapping.
//
// File-backed memory (container rootfs, language runtimes, model files) is
// faulted in once and shared by every instance that maps it.  Under
// Squeezy these pages live in the dedicated shared partition; in a vanilla
// VM they live in ZONE_MOVABLE interleaved with anonymous memory.
//
// Extents.  Fills take pages a buddy chunk at a time (Zone::AllocPages), so
// a file's cached pages come in long runs of consecutive pfns.  Each file
// keeps them as sorted, disjoint extents {page_idx, pfn, pages}: pages
// page_idx .. page_idx + pages - 1 live at pfn .. pfn + pages - 1.  Extents
// are maximal: an insert or a relocation merges its extent with a
// neighbour whenever both the page index and the pfn continue, so two
// adjacent extents always break in one or the other.  Every operation
// costs O(extents) at most and none walks pages: a file filled from one
// max-order chunk is one extent, and one migrated onto n target chunks is
// n extents.
#ifndef SQUEEZY_MM_PAGE_CACHE_H_
#define SQUEEZY_MM_PAGE_CACHE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/mm/page.h"
#include "src/sim/cost_model.h"

namespace squeezy {

class PageCache {
 public:
  // Pages [page_idx, page_idx + pages) of a file at [pfn, pfn + pages).
  struct Extent {
    uint64_t page_idx = 0;
    Pfn pfn = kInvalidPfn;
    uint32_t pages = 0;

    uint64_t end_idx() const { return page_idx + pages; }
  };
  // A span of a file's pages that are all cached or all uncached.
  struct Span {
    bool cached = false;
    uint64_t pages = 0;
  };

  // Registers a file of `size_bytes`; returns its file id.  Allocates no
  // per-page table.
  int32_t RegisterFile(std::string name, uint64_t size_bytes);

  uint64_t FilePages(int32_t file) const { return BytesToPages(file_size(file)); }
  uint64_t file_size(int32_t file) const { return files_[file].size_bytes; }
  const std::string& file_name(int32_t file) const { return files_[file].name; }
  size_t file_count() const { return files_.size(); }

  // The pfn of page `page_idx`, or kInvalidPfn when it is not cached.  One
  // binary search.
  Pfn Lookup(int32_t file, uint64_t page_idx) const;
  // The longest span from `page_idx` (before `end`) whose pages are all
  // cached, or all uncached, as page `page_idx` is.
  Span SpanAt(int32_t file, uint64_t page_idx, uint64_t end) const;
  // Caches the uncached pages [page_idx, page_idx + pages) at
  // [pfn, pfn + pages).
  void InsertRun(int32_t file, uint64_t page_idx, Pfn pfn, uint32_t pages);
  // Migration: the cached pages [page_idx, page_idx + pages) moved to
  // [new_pfn, new_pfn + pages).  The extents they cover are cut at both
  // ends of the range.
  void RelocateRun(int32_t file, uint64_t page_idx, Pfn new_pfn, uint32_t pages);
  // Forgets every cached page of `file` and returns its extents in
  // page_idx order (the caller frees the pages).
  std::vector<Extent> RemoveAll(int32_t file);

  uint64_t cached_pages(int32_t file) const { return files_[file].cached; }
  uint64_t total_cached_pages() const { return total_cached_; }
  uint64_t total_cached_bytes() const { return PagesToBytes(total_cached_); }
  size_t extent_count(int32_t file) const { return files_[file].extents.size(); }

  // --- Backing source (cross-host shared dependency cache) -------------------
  // Per-file resolver of the cold-miss backing cost in ns per 1000 bytes;
  // < 0 means the cost model's backing-store IO rate.  The FaaS runtime
  // installs one on dependency files that answers from the live registry
  // — the network rate exactly while a peer host holds the image warm —
  // so the charge can never go stale between admission and fault time.
  void SetBackingResolver(int32_t file, std::function<DurationNs()> resolver) {
    files_[file].backing_resolver = std::move(resolver);
  }
  DurationNs backing_cost(int32_t file) const {
    const File& f = files_[file];
    return f.backing_resolver ? f.backing_resolver() : -1;
  }
  // Cold-miss read accounting, split by source (disk IO vs. peer fetch vs.
  // pages adopted from a host-resident image without any read at all vs.
  // pages bulk-prefetched out of a recorded snapshot working set).
  void CountDiskRead(int32_t file, uint64_t bytes) { files_[file].disk_read_bytes += bytes; }
  void CountRemoteRead(int32_t file, uint64_t bytes) { files_[file].remote_read_bytes += bytes; }
  void CountAdopted(int32_t file, uint64_t bytes) { files_[file].adopted_bytes += bytes; }
  void CountRestored(int32_t file, uint64_t bytes) { files_[file].restored_bytes += bytes; }
  uint64_t disk_read_bytes(int32_t file) const { return files_[file].disk_read_bytes; }
  uint64_t remote_read_bytes(int32_t file) const { return files_[file].remote_read_bytes; }
  uint64_t adopted_bytes(int32_t file) const { return files_[file].adopted_bytes; }
  uint64_t restored_bytes(int32_t file) const { return files_[file].restored_bytes; }

 private:
  struct File {
    std::string name;
    uint64_t size_bytes = 0;
    uint64_t cached = 0;
    std::function<DurationNs()> backing_resolver;  // Unset: disk IO default.
    uint64_t disk_read_bytes = 0;
    uint64_t remote_read_bytes = 0;
    uint64_t adopted_bytes = 0;
    uint64_t restored_bytes = 0;
    std::vector<Extent> extents;  // Sorted by page_idx, disjoint, maximal.
  };

  // The index of the first extent of f that ends after page_idx.
  static size_t FirstEndingAfter(const File& f, uint64_t page_idx);
  // Splits the extent holding page_idx, if any, so that one begins there.
  static void CutAt(File& f, uint64_t page_idx);
  // Merges extent i with its neighbours where both page_idx and pfn
  // continue.
  static void MergeAround(File& f, size_t i);

  std::vector<File> files_;
  uint64_t total_cached_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_MM_PAGE_CACHE_H_
