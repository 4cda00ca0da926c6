// The guest memory map: per-page `struct page` state over the managed
// guest physical span plus the hotplug memory-block state machine (Linux
// adds and removes memory in 128 MiB blocks on x86).
//
// Uniform blocks.  Squeezy plugs and reclaims partitions whole (paper
// §3-4), so a hot-plugged block often comes and goes without the guest
// ever allocating from it.  Such a block keeps no per-page array: it is
// *uniform*, and every one of its pages reads as the block's template in
// one of four states —
//   kHole      nothing behind the block (never added, or removed);
//   kOffline   hot-added but in no zone (InitBlock, Zone::RetireRange);
//   kFree      online in zone Z as 32 free max-order (4 MiB) chunks;
//   kIsolated  offlining: all of it pulled out of zone Z's free lists.
// The const accessor synthesizes a uniform block's pages from that
// template (a max-order head every 1024 pages in kFree).  The first
// mutable touch — in practice the first Zone::Alloc inside the block —
// materializes the block's chunk of 32768 12-byte Pages (384 KiB) in one
// fill pass.  The block stays materialized until RemoveBlock frees the
// chunk, or until Zone::FreeAll drains it whole: Dematerialize then drops
// the chunk and the block reads as uniformly free again, so a Squeezy
// partition emptied by its last exit unplugs without per-page work.  So
// hot-add, online, isolate, retire and hot-remove of an untouched or
// drained block cost O(1) or O(32 max-order heads) instead of O(32768
// pages).
//
// Max-order free-list links live here, one {next, prev} pair per 1024-page
// slot (8 B per 4 MiB), not in Page: that is what lets a whole-free block
// sit on its zone's free lists with no per-page storage.  Smaller orders
// keep their links in the head Page, overlaid on the owner fields (see
// page.h).
//
// Host (EPT) backing is not Page state: each block keeps a bitmap (4 KiB,
// allocated on the first set bit) and a count of its backed pages, so a
// block drops its chunk without losing its backing, and hot-remove reads
// the populated count in O(1).
//
// Per-page loops that stay inside one block (a folio, a free chunk, a
// host granule range) take one span() instead of one page() per page.
//
// Every transition reads back exactly as a fully materialized map would;
// only host time and sim RSS change (tests/property_test.cc replays random
// scripts against a map forced to materialize after every step).
//
// Reference stability: `page()` references are invalidated by InitBlock,
// RemoveBlock and Dematerialize of that page's block (chunk free), and a
// const reference into a uniform block points at its template, so it does
// not see writes made after the block materializes.  Call sites read
// through a reference before writing the page, within one operation.
#ifndef SQUEEZY_MM_MEMMAP_H_
#define SQUEEZY_MM_MEMMAP_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/mm/page.h"
#include "src/sim/cost_model.h"

namespace squeezy {

using BlockIndex = uint32_t;

enum class BlockState : uint8_t {
  kAbsent,        // No memory behind the block (never added / removed).
  kPresent,       // Hot-added: memmap initialized, pages offline.
  kOnline,        // Pages released to a zone's allocator.
  kGoingOffline,  // Offlining in progress (pages isolating/migrating).
  kOffline,       // Pages retracted from the allocator, still present.
};

class MemMap {
 public:
  // Creates the map for a guest span of `span_bytes` (rounded up to whole
  // 128 MiB blocks).  All blocks start kAbsent, uniform holes.
  explicit MemMap(uint64_t span_bytes);

  MemMap(const MemMap&) = delete;
  MemMap& operator=(const MemMap&) = delete;

  uint64_t span_pages() const { return span_pages_; }
  uint32_t block_count() const { return static_cast<uint32_t>(blocks_.size()); }

  // Mutable access materializes the page's block from its uniform template
  // on first touch.
  Page& page(Pfn pfn) {
    const BlockIndex b = BlockOf(pfn);
    Page* chunk = chunks_[b].get();
    if (chunk == nullptr) {
      chunk = Materialize(b);
    }
    return chunk[pfn - BlockStart(b)];
  }
  // The n pages [pfn, pfn + n) as one array, with one block lookup (and at
  // most one materialization).  A span never crosses a block: folios, free
  // chunks and host granules never do.
  Page* span(Pfn pfn, uint32_t n) {
    assert(n > 0 && BlockOf(pfn) == BlockOf(pfn + n - 1) && "span crosses a block");
    (void)n;
    return &page(pfn);
  }
  // Const access never materializes: a uniform block's page is read from
  // the block's template.
  const Page& page(Pfn pfn) const {
    const BlockIndex b = BlockOf(pfn);
    const Page* chunk = chunks_[b].get();
    if (chunk != nullptr) {
      return chunk[pfn - BlockStart(b)];
    }
    const bool head = (pfn & ((1u << kMaxPageOrder) - 1)) == 0;
    return head ? uniform_[b].head : uniform_[b].tail;
  }

  // Whether block b holds a per-page chunk.  An unmaterialized block is
  // uniform: page() const reads its template.
  bool BlockMaterialized(BlockIndex b) const { return chunks_[b] != nullptr; }

  // Moves an unmaterialized block to another uniform state.  `zone_id` owns
  // the kFree/kIsolated states; kHole/kOffline pages belong to no zone.
  void SetUniform(BlockIndex b, PageState state, int16_t zone_id = -1);

  // Free-list links of the max-order chunk headed at `head`.
  FreeLink& max_link(Pfn head) { return max_links_[head >> kMaxPageOrder]; }
  const FreeLink& max_link(Pfn head) const { return max_links_[head >> kMaxPageOrder]; }

  BlockState block_state(BlockIndex b) const { return blocks_[b]; }
  void set_block_state(BlockIndex b, BlockState s) { blocks_[b] = s; }

  static BlockIndex BlockOf(Pfn pfn) { return pfn / kPagesPerBlock; }
  static Pfn BlockStart(BlockIndex b) { return b * kPagesPerBlock; }

  // Hot-add: the block becomes uniformly offline (kHole -> kOffline).  O(1).
  void InitBlock(BlockIndex b);
  // Hot-remove: tears the block down to a uniform hole and frees its chunk
  // and host-backing bitmap.  Requires every page to be kOffline.  Returns
  // how many pages were host-populated — the span the hypervisor releases.
  // O(1).
  uint64_t RemoveBlock(BlockIndex b);
  // Drops the chunk of a block that Zone::FreeAll drained: every page is
  // free in zone `zone_id` as whole max-order chunks, so the block reads as
  // the uniform kFree template again.  Requires BlockOccupied(b) == 0.
  void Dematerialize(BlockIndex b, int16_t zone_id);

  // --- Host (EPT) backing ---------------------------------------------------
  bool host_populated(Pfn pfn) const {
    const uint64_t* bits = host_bits_[BlockOf(pfn)].get();
    const Pfn off = pfn % kPagesPerBlock;
    return bits != nullptr && ((bits[off / 64] >> (off % 64)) & 1) != 0;
  }
  // Flag [pfn, pfn + n) as backed / unbacked, a word at a time.  The range
  // stays inside one block.  Each returns how many flags changed.
  uint32_t SetHostPopulated(Pfn pfn, uint32_t n);
  uint32_t ClearHostPopulated(Pfn pfn, uint32_t n);
  // Host-populated pages of block b: the incrementally kept count (O(1))
  // and a popcount of the bitmap (O(512 words); asserts and tests
  // cross-check the two).
  uint32_t BlockPopulated(BlockIndex b) const { return host_count_[b]; }
  uint32_t CountBlockPopulated(BlockIndex b) const;

  // Number of pages in the block with the given state (O(block) scan on a
  // materialized block; the tests use it to cross-check the counter below).
  uint64_t CountBlockPages(BlockIndex b, PageState state) const;

  // Incrementally maintained count of allocated pages per block, updated
  // by the zone allocator.  O(1); unplug candidate selection depends on it.
  uint32_t BlockOccupied(BlockIndex b) const { return allocated_per_block_[b]; }
  void AdjustBlockAllocated(Pfn head, int64_t delta_pages) {
    const BlockIndex b = BlockOf(head);
    allocated_per_block_[b] = static_cast<uint32_t>(allocated_per_block_[b] + delta_pages);
  }

  // Resolve a folio's head pfn from any of its frames.
  Pfn FolioHead(Pfn pfn) const;

  // Count of blocks in each state (diagnostics).
  uint32_t CountBlocks(BlockState s) const;

  // --- Materialization accounting (the per-host sim-RSS signal) ------------
  static uint64_t ChunkBytes() { return kPagesPerBlock * sizeof(Page); }
  uint32_t materialized_blocks() const { return materialized_; }
  uint32_t materialized_peak_blocks() const { return materialized_peak_; }
  uint64_t materialized_bytes() const { return materialized_ * ChunkBytes(); }
  uint64_t materialized_peak_bytes() const { return materialized_peak_ * ChunkBytes(); }

 private:
  // What every page of an unmaterialized block reads as: `head` at each
  // max-order boundary, `tail` elsewhere (equal unless kFree).
  struct UniformPages {
    Page head;
    Page tail;
  };
  // Chunks are filled from the template straight into raw storage, so
  // they are released without running Page destructors (page.h asserts
  // that Page is trivially copyable and trivially destructible).
  struct ChunkDeleter {
    void operator()(Page* chunk) const;
  };

  Page* Materialize(BlockIndex b);
  void ReleaseChunk(BlockIndex b);
  void ReleaseHostBacking(BlockIndex b);

  uint64_t span_pages_ = 0;
  // One Page[kPagesPerBlock] chunk per 128 MiB block, null while uniform.
  std::vector<std::unique_ptr<Page[], ChunkDeleter>> chunks_;
  std::vector<UniformPages> uniform_;
  std::vector<FreeLink> max_links_;  // One per max-order slot of the span.
  std::vector<BlockState> blocks_;
  std::vector<uint32_t> allocated_per_block_;
  // One bit per page, kPagesPerBlock / 64 words per block, null while no
  // page of the block is backed.
  std::vector<std::unique_ptr<uint64_t[]>> host_bits_;
  std::vector<uint32_t> host_count_;
  uint32_t materialized_ = 0;
  uint32_t materialized_peak_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_MM_MEMMAP_H_
