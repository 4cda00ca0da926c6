// The guest memory map: `struct page` state over the managed guest
// physical span plus the hotplug memory-block state machine (Linux adds
// and removes memory in 128 MiB blocks on x86).
//
// Extent records.  Only the Page record at the start of each extent — an
// allocated folio, a run of allocated single pages, a free buddy chunk or
// an isolated run — is stored, and every other page reads by page.h's
// record rule.  Extents are naturally aligned and at most one max-order
// (1024-page) slot long, so they tile each slot like the nodes of a binary
// tree, and every slot start begins one.  Production code reads and writes
// records only at known extent starts: a folio head, a free chunk's buddy
// (an extent that held the buddy and was any larger would hold the chunk
// too), the next start of an ascending walk (NextExtent), or the start
// ExtentStart finds for a page that may sit inside a run.  So alloc,
// split, free, coalesce, isolate and migrate write O(1) records per folio
// or chunk, and the range operations step once per extent.  A bulk
// allocation of single pages (Zone::AllocPages) writes at most
// popcount(n) run records per buddy chunk it takes n pages from, not one
// per page; freeing or isolating part of a run cuts it into aligned runs
// around the pages it releases, in at most order + 1 records (a range free
// also restamps the run's pages inside the range when they take more than
// one piece).  A merge
// writes only the merged chunk's record: the records left inside it are
// stale but unreachable, since walks jump over them.  The const page(pfn)
// finds pfn's extent by descending the slot's tree (at most kMaxPageOrder
// + 1 reads) and expands a run; it serves tests and asserts, and ReadBlock
// expands a whole block in one pass.
//
// Uniform blocks.  Squeezy plugs and reclaims partitions whole (paper
// §3-4), so a hot-plugged block often comes and goes without the guest
// ever allocating from it.  Such a block keeps no per-page array: it is
// *uniform*, and each of its 32 slots is one max-order extent whose record
// is the block's template, in one of four states —
//   kHole      nothing behind the block (never added, or removed);
//   kOffline   hot-added but in no zone (InitBlock, Zone::RetireRange);
//   kFree      online in zone Z as 32 free max-order (4 MiB) chunks;
//   kIsolated  offlining: all of it pulled out of zone Z's free lists.
// The first mutable touch of a kFree or kIsolated block — in practice the
// first Zone::Alloc inside it — materializes the block: a chunk with room
// for 32768 12-byte Pages (384 KiB), of which only the 32 slot-start
// records are written.  kHole and kOffline blocks never materialize.  The
// block stays materialized until Zone::RetireRange offlines it, or until
// Zone::FreeAll drains it whole: Dematerialize then drops the chunk and
// the block reads as uniformly free again, so a Squeezy partition emptied
// by its last exit unplugs without per-page work.  So hot-add, online,
// isolate, retire and hot-remove of an untouched or drained block cost
// O(1) or O(32 max-order heads).
//
// Chunks are recycled.  A dropped chunk goes onto one process-wide LIFO
// free list (shared by every MemMap), and Materialize
// takes the most recently dropped one before it allocates: a recycled
// chunk's pages are already faulted in, so materializing stops paying a
// first-touch fault per 4 KiB.  Chunks are never handed back to malloc;
// the list holds at most the process's peak of live chunks minus the live
// ones.  A chunk's contents are stale until stamped — records of whatever
// block last held it — which is safe because only the 32 slot starts are
// read before a Stamp writes them.  To keep that checkable, a pooled chunk
// is ASan-poisoned, and builds without NDEBUG fill it with 0xA5 first.
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
// Every transition reads back exactly as a fully materialized map would;
// only host time and sim RSS change (tests/property_test.cc replays random
// scripts against a map forced to materialize after every step).  Views
// are returned by value; the only reference handed out, mutable_record's,
// is used at once, within one free-list update.
#ifndef SQUEEZY_MM_MEMMAP_H_
#define SQUEEZY_MM_MEMMAP_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
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

  // --- The const view (tests and asserts) -----------------------------------
  // What pfn reads as under the record rule: its extent's start record,
  // found in at most kMaxPageOrder + 1 reads.  Never materializes.
  Page page(Pfn pfn) const;
  // Writes page(BlockStart(b) + i) to out[i] for every page of block b, in
  // one extent walk.
  void ReadBlock(BlockIndex b, Page* out) const;

  // --- Extent records ---------------------------------------------------------
  // An extent is an allocated folio, a run of single pages, a free buddy
  // chunk or an isolated run: 2^order naturally aligned pages inside one
  // max-order slot, so every slot start begins one.  Point reads and writes
  // go through the record at an extent's start.
  Page record(Pfn start) const {
    assert(ExtentStart(start) == start && "not an extent start");
    return Raw(start);
  }
  // The same record for writing its free-list link in place.  Materializes
  // the block on first touch; debug builds check that `start` begins an
  // extent.
  Page& mutable_record(Pfn start);
  // Makes [start, start + 2^rec.order) one extent described by `rec` (for
  // kIsolated or a run, rec.order is the extent's order, and its pages read
  // order 0).  Writes that record only.
  void Stamp(Pfn start, const Page& rec) {
    assert(rec.order <= kMaxPageOrder && start % (1u << rec.order) == 0 &&
           "extents are naturally aligned");
    const BlockIndex b = BlockOf(start);
    ::new (static_cast<void*>(WritableChunk(b) + (start - BlockStart(b)))) Page(rec);
    ++records_written_;
  }
  // The start of the extent after the one beginning at `start`.
  Pfn NextExtent(Pfn start) const { return start + (1u << Raw(start).order); }
  // The start of the extent that holds pfn, in at most kMaxPageOrder + 1
  // record reads.
  Pfn ExtentStart(Pfn pfn) const;

  // Whether block b holds a per-page chunk.  An unmaterialized block is
  // uniform: page() const reads its template.
  bool BlockMaterialized(BlockIndex b) const { return chunks_[b] != nullptr; }

  // Makes block b uniform in `state`, dropping its chunk if it has one.
  // `zone_id` owns the kFree/kIsolated states; kHole/kOffline pages belong
  // to no zone.
  void SetUniform(BlockIndex b, PageState state, int16_t zone_id = -1);

  // Free-list links of the max-order chunk headed at `head`.
  FreeLink& max_link(Pfn head) { return max_links_[head >> kMaxPageOrder]; }
  const FreeLink& max_link(Pfn head) const { return max_links_[head >> kMaxPageOrder]; }

  BlockState block_state(BlockIndex b) const { return blocks_[b]; }
  void set_block_state(BlockIndex b, BlockState s) { blocks_[b] = s; }

  static constexpr uint32_t kSlotPages = 1u << kMaxPageOrder;
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

  // Number of pages in the block with the given state (one extent walk of a
  // materialized block; the tests use it to cross-check the counter below).
  uint64_t CountBlockPages(BlockIndex b, PageState state) const;

  // Incrementally maintained count of allocated pages per block, updated
  // by the zone allocator.  O(1); unplug candidate selection depends on it.
  uint32_t BlockOccupied(BlockIndex b) const { return allocated_per_block_[b]; }
  void AdjustBlockAllocated(Pfn head, int64_t delta_pages) {
    const BlockIndex b = BlockOf(head);
    allocated_per_block_[b] = static_cast<uint32_t>(allocated_per_block_[b] + delta_pages);
  }

  // Count of blocks in each state (diagnostics).
  uint32_t CountBlocks(BlockState s) const;

  // --- Materialization accounting (the per-host sim-RSS signal) ------------
  static uint64_t ChunkBytes() { return kPagesPerBlock * sizeof(Page); }
  uint32_t materialized_blocks() const { return materialized_; }
  uint32_t materialized_peak_blocks() const { return materialized_peak_; }
  uint64_t materialized_bytes() const { return materialized_ * ChunkBytes(); }
  uint64_t materialized_peak_bytes() const { return materialized_peak_ * ChunkBytes(); }
  // Extent records written so far: 32 per materialized block plus one per
  // Stamp.  Deterministic; the cost model of guest-mm bookkeeping.
  uint64_t records_written() const { return records_written_; }
  // Chunks allocated fresh, process-wide: Materialize found the free list
  // empty.  Depends on every MemMap in the process, so it is not a
  // simulated result.
  static uint64_t chunks_allocated();

 private:
  // Chunks hold records at extent starts only, constructed in place, so
  // they are pooled without running Page destructors (page.h asserts that
  // Page is trivially copyable and trivially destructible).
  struct ChunkDeleter {
    void operator()(Page* chunk) const;
  };

  // Block b's chunk, materialized from its template on first touch.
  Page* WritableChunk(BlockIndex b) {
    Page* chunk = chunks_[b].get();
    return chunk != nullptr ? chunk : Materialize(b);
  }
  // The record stored at pfn: the template in a uniform block.  Only an
  // extent start's is meaningful.
  const Page& Raw(Pfn pfn) const {
    const BlockIndex b = BlockOf(pfn);
    const Page* chunk = chunks_[b].get();
    return chunk != nullptr ? chunk[pfn - BlockStart(b)] : uniform_[b];
  }
  Page* Materialize(BlockIndex b);
  void ReleaseChunk(BlockIndex b);
  void ReleaseHostBacking(BlockIndex b);

  uint64_t span_pages_ = 0;
  // One Page[kPagesPerBlock] chunk per 128 MiB block, null while uniform.
  std::vector<std::unique_ptr<Page[], ChunkDeleter>> chunks_;
  // Each block's template: the record of every slot of a uniform block.
  std::vector<Page> uniform_;
  std::vector<FreeLink> max_links_;  // One per max-order slot of the span.
  std::vector<BlockState> blocks_;
  std::vector<uint32_t> allocated_per_block_;
  // One bit per page, kPagesPerBlock / 64 words per block, null while no
  // page of the block is backed.
  std::vector<std::unique_ptr<uint64_t[]>> host_bits_;
  std::vector<uint32_t> host_count_;
  uint32_t materialized_ = 0;
  uint32_t materialized_peak_ = 0;
  uint64_t records_written_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_MM_MEMMAP_H_
