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
// one piece).
//
// One record store per slot.  Each slot keeps its start record inline and,
// only while it is split into more than one extent, the records past its
// start in an array sorted by offset.  Stamp writes its start's record and
// drops every start the new extent covers, so the stored starts are always
// exactly the extent starts, and ExtentStart is the last stored start at or
// before a page (a binary search of the slot's array).  Squeezy plugs and
// reclaims partitions whole (paper §3-4), and a slot that is one extent —
// offline, whole-free, isolated or retired — allocates nothing: online,
// isolate and retire of an untouched or drained block write 32 slot-start
// records.  A merge back into a whole max-order chunk (Zone::FreeChunk, or
// Zone::FreeAll draining a slot) drops the slot's array.  Like Linux's
// SPARSEMEM, a block that is not present has no slot table at all: hot-add
// allocates its 32 slots and hot-remove frees them, and a hole reads as one
// hole extent per slot.
//
// Max-order free-list links live beside each slot's start record, one
// {next, prev} pair per present 1024-page slot, not in Page, so a
// whole-free slot's record reads with no links; smaller orders keep their
// links in the head Page, overlaid on the owner fields (see page.h).
//
// Host (EPT) backing is not Page state: each block keeps a bitmap (4 KiB,
// allocated on the first set bit) and a count of its backed pages, so
// hot-remove reads the populated count in O(1).
//
// Views are returned by value; the only reference handed out,
// mutable_record's, points at a record that exists already and is used at
// once, within one free-list update.  tests/oracles/dense_memmap.h keeps
// one Page per pfn as the reference that property_test fuzzes this store
// against.
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
  // 128 MiB blocks).  All blocks start kAbsent: holes with no slot table.
  explicit MemMap(uint64_t span_bytes);

  MemMap(const MemMap&) = delete;
  MemMap& operator=(const MemMap&) = delete;

  uint64_t span_pages() const { return span_pages_; }
  uint32_t block_count() const { return static_cast<uint32_t>(blocks_.size()); }

  // --- The const view (tests and asserts) -----------------------------------
  // What pfn reads as under the record rule: its extent's start record.
  Page page(Pfn pfn) const;
  // Writes page(BlockStart(b) + i) to out[i] for every page of block b, in
  // one pass over its stored records.
  void ReadBlock(BlockIndex b, Page* out) const;

  // --- Extent records ---------------------------------------------------------
  // An extent is an allocated folio, a run of single pages, a free buddy
  // chunk or an isolated run: 2^order naturally aligned pages inside one
  // max-order slot, so every slot start begins one.  Point reads and writes
  // go through the record at an extent's start.
  Page record(Pfn start) const {
    assert(ExtentStart(start) == start && "not an extent start");
    return *Find(start).rec;
  }
  // The same record for writing its free-list link in place.  It never
  // inserts or moves a record, so two of these references stay valid
  // together; debug builds check that `start` begins an extent.
  Page& mutable_record(Pfn start);
  // Makes [start, start + 2^rec.order) one extent described by `rec` (for
  // kIsolated or a run, rec.order is the extent's order, and its pages read
  // order 0): writes that record and drops the starts it covers.  Moves
  // the records of start's slot only.
  void Stamp(Pfn start, const Page& rec);
  // The start of the extent after the one beginning at `start`.
  Pfn NextExtent(Pfn start) const { return start + (1u << Find(start).rec->order); }
  // The start of the extent that holds pfn: the last stored start at or
  // before it in its slot.
  Pfn ExtentStart(Pfn pfn) const { return Find(pfn).start; }

  // The record of a whole slot in `state` that belongs to no zone (kHole or
  // kOffline): max order, no head, kind, owner or links.
  static Page SlotRecord(PageState state);

  // Free-list links of the max-order chunk headed at `head`.  A slot of a
  // block that is not present reads unlinked.
  FreeLink& max_link(Pfn head) { return MutableSlotOf(head).max_link; }
  const FreeLink& max_link(Pfn head) const { return SlotOf(head).max_link; }

  BlockState block_state(BlockIndex b) const { return blocks_[b]; }
  void set_block_state(BlockIndex b, BlockState s) { blocks_[b] = s; }

  static constexpr uint32_t kSlotPages = 1u << kMaxPageOrder;
  static BlockIndex BlockOf(Pfn pfn) { return pfn / kPagesPerBlock; }
  static Pfn BlockStart(BlockIndex b) { return b * kPagesPerBlock; }

  // Hot-add: gives the block its slot table, every slot one offline extent
  // (kHole -> kOffline).  O(32).
  void InitBlock(BlockIndex b);
  // Hot-remove: frees the block's slot table, with any records stored in
  // it, and its host-backing bitmap, so it reads as holes again.  Requires
  // every page to be kOffline.  Returns
  // how many pages were host-populated — the span the hypervisor releases.
  uint64_t RemoveBlock(BlockIndex b);

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

  // Number of pages in the block with the given state (one pass over its
  // stored records; the tests use it to cross-check the counter below).
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

  // --- Record storage (the per-host sim-RSS signal) ---------------------------
  // Bytes of the records stored past slot starts (16 B each); a slot that
  // is one extent stores none.  Beside them, each present block holds a
  // fixed table of its 32 slots.  The materialized_peak_* names, kept
  // because perfbench reads them, are the peaks of these two.
  uint64_t storage_bytes() const { return stored_ * sizeof(Entry); }
  uint64_t materialized_peak_bytes() const { return stored_peak_ * sizeof(Entry); }
  // Blocks with any slot split into more than one extent.
  uint32_t split_blocks() const { return split_blocks_; }
  uint32_t materialized_peak_blocks() const { return split_blocks_peak_; }
  // Extent records written so far, one per Stamp.  Deterministic; the cost
  // model of guest-mm bookkeeping.
  uint64_t records_written() const { return records_written_; }

 private:
  // A record past its slot's start.
  struct Entry {
    uint16_t offset;  // Pages from the slot start, 1 .. kSlotPages - 1.
    Page rec;
  };
  struct Slot {
    Page first;               // The record at the slot start.
    FreeLink max_link;        // Its links while a free max-order chunk.
    std::vector<Entry> rest;  // Sorted by offset; empty while one extent.
  };
  static constexpr uint32_t kSlotsPerBlock = kPagesPerBlock / kSlotPages;

  static uint32_t SlotIndex(Pfn pfn) { return (pfn >> kMaxPageOrder) % kSlotsPerBlock; }
  // Every slot of a block that is not present: one hole extent.
  static const Slot& HoleSlot();
  const Slot& SlotOf(Pfn pfn) const {
    const Slot* table = slots_[BlockOf(pfn)].get();
    return table == nullptr ? HoleSlot() : table[SlotIndex(pfn)];
  }
  Slot& MutableSlotOf(Pfn pfn) {
    assert(slots_[BlockOf(pfn)] != nullptr && "a hole has no records");
    return slots_[BlockOf(pfn)][SlotIndex(pfn)];
  }
  // The last stored start at or before pfn in its slot, and its record.
  struct Found {
    Pfn start;
    const Page* rec;
  };
  Found Find(Pfn pfn) const;
  // Calls fn(start, record) for each extent of block b, in ascending order.
  template <typename Fn>
  void ForEachExtent(BlockIndex b, Fn&& fn) const;
  void ReleaseHostBacking(BlockIndex b);

  uint64_t span_pages_ = 0;
  // Each present block's 32 slots, null while the block is a hole: a map
  // allocates nothing per slot until its blocks are hot-added.
  std::vector<std::unique_ptr<Slot[]>> slots_;
  std::vector<BlockState> blocks_;
  std::vector<uint32_t> allocated_per_block_;
  std::vector<uint8_t> split_slots_;  // Per block.
  // One bit per page, kPagesPerBlock / 64 words per block, null while no
  // page of the block is backed.
  std::vector<std::unique_ptr<uint64_t[]>> host_bits_;
  std::vector<uint32_t> host_count_;
  uint64_t stored_ = 0;
  uint64_t stored_peak_ = 0;
  uint32_t split_blocks_ = 0;
  uint32_t split_blocks_peak_ = 0;
  uint64_t records_written_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_MM_MEMMAP_H_
