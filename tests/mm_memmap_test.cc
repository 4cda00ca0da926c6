// Unit tests for the memory map and block state machine.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/mm/memmap.h"
#include "src/mm/migration.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"

namespace squeezy {
namespace {

TEST(MemMapTest, SpanRoundsUpToBlocks) {
  MemMap m(kMemoryBlockBytes + 1);
  EXPECT_EQ(m.block_count(), 2u);
  EXPECT_EQ(m.span_pages(), 2u * kPagesPerBlock);
}

TEST(MemMapTest, BlocksStartAbsentWithHolePages) {
  MemMap m(GiB(1));
  EXPECT_EQ(m.block_count(), 8u);
  for (BlockIndex b = 0; b < 8; ++b) {
    EXPECT_EQ(m.block_state(b), BlockState::kAbsent);
  }
  EXPECT_EQ(m.page(0).state, PageState::kHole);
  EXPECT_EQ(m.page(m.span_pages() - 1).state, PageState::kHole);
}

TEST(MemMapTest, InitBlockMakesPagesOffline) {
  MemMap m(GiB(1));
  const MemMap& cm = m;
  m.InitBlock(3);
  EXPECT_EQ(m.block_state(3), BlockState::kPresent);
  // Hot-add writes one offline record per slot and stores nothing more.
  EXPECT_EQ(m.records_written(), 32u);
  EXPECT_EQ(m.storage_bytes(), 0u);
  EXPECT_EQ(m.materialized_peak_blocks(), 0u);
  const Pfn start = MemMap::BlockStart(3);
  EXPECT_EQ(cm.page(start).state, PageState::kOffline);
  EXPECT_EQ(cm.page(start).zone_id, -1);
  EXPECT_EQ(cm.page(start + kPagesPerBlock - 1).state, PageState::kOffline);
  // Neighbours untouched.
  EXPECT_EQ(cm.page(start - 1).state, PageState::kHole);
  EXPECT_EQ(cm.page(start + kPagesPerBlock).state, PageState::kHole);
  EXPECT_EQ(m.CountBlockPages(3, PageState::kOffline),
            static_cast<uint64_t>(kPagesPerBlock));
}

TEST(MemMapTest, RemoveBlockRestoresHoles) {
  MemMap m(GiB(1));
  m.InitBlock(0);
  m.set_block_state(0, BlockState::kOffline);
  EXPECT_EQ(m.RemoveBlock(0), 0u);
  EXPECT_EQ(m.block_state(0), BlockState::kAbsent);
  EXPECT_EQ(m.page(0).state, PageState::kHole);
}

TEST(MemMapTest, BlockIndexMath) {
  EXPECT_EQ(MemMap::BlockOf(0), 0u);
  EXPECT_EQ(MemMap::BlockOf(kPagesPerBlock - 1), 0u);
  EXPECT_EQ(MemMap::BlockOf(kPagesPerBlock), 1u);
  EXPECT_EQ(MemMap::BlockStart(2), 2u * kPagesPerBlock);
}

TEST(MemMapTest, CountBlockPagesByState) {
  MemMap m(GiB(1));
  m.InitBlock(0);
  EXPECT_EQ(m.CountBlockPages(0, PageState::kOffline), static_cast<uint64_t>(kPagesPerBlock));
  EXPECT_EQ(m.CountBlockPages(0, PageState::kFree), 0u);
  EXPECT_EQ(m.CountBlockPages(1, PageState::kHole), static_cast<uint64_t>(kPagesPerBlock));
}

TEST(MemMapTest, CountBlocksByState) {
  MemMap m(GiB(1));
  m.InitBlock(0);
  m.InitBlock(5);
  EXPECT_EQ(m.CountBlocks(BlockState::kAbsent), 6u);
  EXPECT_EQ(m.CountBlocks(BlockState::kPresent), 2u);
}

TEST(MemMapTest, ExtentStartResolvesFromTail) {
  MemMap m(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &m);
  m.InitBlock(0);
  zone.AddFreeRange(0, kPagesPerBlock);
  const Pfn head = zone.Alloc(kThpOrder, PageKind::kAnon, 1, 0);
  ASSERT_NE(head, kInvalidPfn);
  const Pfn small = zone.Alloc(2, PageKind::kAnon, 1, 1);
  ASSERT_EQ(small, head + (1u << kThpOrder));
  for (uint32_t i = 0; i < (1u << kThpOrder); i += 37) {
    EXPECT_EQ(m.ExtentStart(head + i), head);
    EXPECT_EQ(m.page(head + i).head, i == 0);
    EXPECT_EQ(m.page(head + i).order, kThpOrder);
  }
  // The split left free chunks of orders 2..8 after the order-2 folio.
  EXPECT_EQ(m.ExtentStart(small + 3), small);
  EXPECT_EQ(m.ExtentStart(small + 4), small + 4);
  EXPECT_EQ(m.ExtentStart(head + 1023), head + 768);
  EXPECT_EQ(m.NextExtent(head), small);
  EXPECT_EQ(m.NextExtent(small), small + 4);
  EXPECT_EQ(m.NextExtent(head + 768), 1u << kMaxPageOrder);
}

TEST(MemMapTest, RemoveBlockCountsAndDropsHostBacking) {
  // Hot-remove returns the block's populated count for the unplug
  // acknowledgement in O(1) and drops the host-backing bitmap with the
  // slot table.
  MemMap m(GiB(1));
  m.InitBlock(0);
  m.SetHostPopulated(17, 1);
  m.SetHostPopulated(4000, 1);
  m.set_block_state(0, BlockState::kOffline);
  EXPECT_EQ(m.RemoveBlock(0), 2u);
  const MemMap& cm = m;
  EXPECT_FALSE(cm.host_populated(17));
  EXPECT_EQ(cm.BlockPopulated(0), 0u);
  EXPECT_EQ(cm.page(17).state, PageState::kHole);
}

TEST(MemMapTest, ConstReadsOfAFreshMapStoreNothing) {
  MemMap m(GiB(1));
  const MemMap& cm = m;
  // A fresh map stores no record: span RSS is bounded by touch, not by
  // span size.
  for (Pfn pfn = 0; pfn < cm.span_pages(); pfn += kPagesPerBlock / 3) {
    EXPECT_EQ(cm.page(pfn).state, PageState::kHole);
    EXPECT_EQ(cm.ExtentStart(pfn), pfn & ~(MemMap::kSlotPages - 1));
    EXPECT_FALSE(cm.host_populated(pfn));
  }
  EXPECT_EQ(m.storage_bytes(), 0u);
  EXPECT_EQ(m.split_blocks(), 0u);
  EXPECT_EQ(m.records_written(), 0u);
}

TEST(MemMapTest, MutableRecordOfAWholeSlotStoresNothing) {
  MemMap m(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &m);
  m.InitBlock(3);
  zone.AddFreeRange(MemMap::BlockStart(3), kPagesPerBlock);
  Page& p = m.mutable_record(MemMap::BlockStart(3) + (1u << kMaxPageOrder));
  EXPECT_EQ(p.state, PageState::kFree);
  EXPECT_TRUE(p.head);
  EXPECT_EQ(p.order, kMaxPageOrder);
  EXPECT_EQ(m.storage_bytes(), 0u);
  EXPECT_EQ(m.split_blocks(), 0u);
}

TEST(MemMapTest, RetireRangeDropsTheSplitSlots) {
  // Offlining returns a block's record storage: a retired slot is one
  // offline extent, however many isolated pieces it held.
  MemMap m(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &m);
  m.InitBlock(0);
  zone.AddFreeRange(0, kPagesPerBlock);
  const Pfn pfn = zone.Alloc(0, PageKind::kAnon, 1, 0);  // Splits slot 0.
  ASSERT_EQ(pfn, 0u);
  m.SetHostPopulated(9, 1);
  EXPECT_EQ(m.split_blocks(), 1u);
  // The page and the free chunks of orders 0..9 beside it: 10 records past
  // the slot start.
  EXPECT_EQ(m.storage_bytes(), 10u * 16u);
  EXPECT_EQ(zone.IsolateFreeRange(0, kPagesPerBlock), kPagesPerBlock - 1u);
  zone.FreeIntoIsolation(pfn, 1);
  EXPECT_EQ(m.storage_bytes(), 10u * 16u);
  zone.RetireRange(0, kPagesPerBlock);
  EXPECT_EQ(m.split_blocks(), 0u);
  EXPECT_EQ(m.storage_bytes(), 0u);
  EXPECT_EQ(m.materialized_peak_blocks(), 1u);  // Peaks are sticky.
  EXPECT_EQ(m.materialized_peak_bytes(), 10u * 16u);
  EXPECT_EQ(m.CountBlockPages(0, PageState::kOffline), static_cast<uint64_t>(kPagesPerBlock));
  m.set_block_state(0, BlockState::kOffline);
  EXPECT_EQ(m.RemoveBlock(0), 1u);
  // The freed block reads as holes again and can be re-initialized.
  const MemMap& cm = m;
  EXPECT_EQ(cm.page(0).state, PageState::kHole);
  m.InitBlock(0);
  EXPECT_EQ(cm.page(0).state, PageState::kOffline);
  EXPECT_FALSE(cm.host_populated(9));
}

TEST(MemMapTest, HostBackingCountsAcrossWordEdges) {
  MemMap m(GiB(1));
  const Pfn start = MemMap::BlockStart(1);
  // [60, 70) straddles the first 64-bit word edge.
  EXPECT_EQ(m.SetHostPopulated(start + 60, 10), 10u);
  // [65, 130) overlaps it and crosses the next edge: 60 new bits.
  EXPECT_EQ(m.SetHostPopulated(start + 65, 65), 60u);
  EXPECT_FALSE(m.host_populated(start + 59));
  EXPECT_TRUE(m.host_populated(start + 60));
  EXPECT_TRUE(m.host_populated(start + 63));
  EXPECT_TRUE(m.host_populated(start + 64));
  EXPECT_TRUE(m.host_populated(start + 129));
  EXPECT_FALSE(m.host_populated(start + 130));
  EXPECT_EQ(m.BlockPopulated(1), 70u);
  EXPECT_EQ(m.CountBlockPopulated(1), 70u);
  EXPECT_EQ(m.BlockPopulated(0), 0u);  // Neighbours untouched.
  EXPECT_EQ(m.BlockPopulated(2), 0u);
  // Clearing exactly the second word takes 64; again, none.
  EXPECT_EQ(m.ClearHostPopulated(start + 64, 64), 64u);
  EXPECT_EQ(m.ClearHostPopulated(start + 64, 64), 0u);
  EXPECT_EQ(m.BlockPopulated(1), 6u);
  EXPECT_TRUE(m.host_populated(start + 129));
  // A whole block: the rest of it is new, and all of it clears.
  EXPECT_EQ(m.SetHostPopulated(start, kPagesPerBlock), kPagesPerBlock - 6u);
  EXPECT_EQ(m.BlockPopulated(1), kPagesPerBlock);
  EXPECT_EQ(m.CountBlockPopulated(1), kPagesPerBlock);
  EXPECT_EQ(m.ClearHostPopulated(start, kPagesPerBlock), kPagesPerBlock);
  EXPECT_EQ(m.BlockPopulated(1), 0u);
  EXPECT_EQ(m.CountBlockPopulated(1), 0u);
  // A block that was never backed clears nothing.
  EXPECT_EQ(m.ClearHostPopulated(MemMap::BlockStart(3), 100), 0u);
  // Host backing is not Page state: none of this split a slot.
  EXPECT_EQ(m.materialized_peak_blocks(), 0u);
}

static_assert(MemMap::SlotBytes() == 32, "a slot is its start record, links and array");

TEST(MemMapTest, FullyBackedBlockHoldsNoBitmap) {
  MemMap m(GiB(1));
  const Pfn start = MemMap::BlockStart(1);
  EXPECT_EQ(m.CountHostBitmaps(), 0u);
  // A whole-block set never allocates a bitmap; the count answers.
  EXPECT_EQ(m.SetHostPopulated(start, kPagesPerBlock), kPagesPerBlock);
  EXPECT_EQ(m.CountHostBitmaps(), 0u);
  EXPECT_TRUE(m.host_populated(start));
  EXPECT_TRUE(m.host_populated(start + kPagesPerBlock - 1));
  EXPECT_EQ(m.CountBlockPopulated(1), kPagesPerBlock);
  EXPECT_EQ(m.SetHostPopulated(start + 7, 9), 0u);
  EXPECT_EQ(m.CountHostBitmaps(), 0u);
  // A partial clear rebuilds the bitmap, all ones but the cleared pages.
  EXPECT_EQ(m.ClearHostPopulated(start + 100, 3), 3u);
  EXPECT_EQ(m.CountHostBitmaps(), 1u);
  EXPECT_TRUE(m.host_populated(start + 99));
  EXPECT_FALSE(m.host_populated(start + 100));
  EXPECT_FALSE(m.host_populated(start + 102));
  EXPECT_TRUE(m.host_populated(start + 103));
  EXPECT_EQ(m.CountBlockPopulated(1), kPagesPerBlock - 3);
  // The set that backs the block fully again frees it.
  EXPECT_EQ(m.SetHostPopulated(start + 96, 8), 3u);
  EXPECT_EQ(m.CountHostBitmaps(), 0u);
  EXPECT_EQ(m.BlockPopulated(1), kPagesPerBlock);
  // Backed THP by THP, a block holds a bitmap until the last piece.
  m.InitBlock(2);
  const Pfn two = MemMap::BlockStart(2);
  for (uint32_t off = 0; off < kPagesPerBlock; off += 1u << kThpOrder) {
    EXPECT_EQ(m.CountHostBitmaps(), off == 0 ? 0u : 1u) << "offset " << off;
    EXPECT_EQ(m.SetHostPopulated(two + off, 1u << kThpOrder), 1u << kThpOrder);
  }
  EXPECT_EQ(m.CountHostBitmaps(), 0u);
  EXPECT_EQ(m.CountBlockPopulated(2), kPagesPerBlock);
  // Hot-remove hands back the whole block's backing.
  m.set_block_state(2, BlockState::kOffline);
  EXPECT_EQ(m.RemoveBlock(2), kPagesPerBlock);
  EXPECT_FALSE(m.host_populated(two));
  EXPECT_EQ(m.CountBlockPopulated(2), 0u);
  EXPECT_EQ(m.CountHostBitmaps(), 0u);
}

TEST(MemMapTest, HostBackingSurvivesMergeAndSplit) {
  MemMap m(GiB(1));
  const MemMap& cm = m;
  Zone zone(3, ZoneType::kSqueezyPrivate, "p", &m);
  m.InitBlock(1);
  const Pfn start = MemMap::BlockStart(1);
  zone.AddFreeRange(start, kPagesPerBlock);
  m.set_block_state(1, BlockState::kOnline);
  const Pfn head = zone.Alloc(kThpOrder, PageKind::kAnon, 1, 0);
  ASSERT_EQ(head, start);
  EXPECT_EQ(m.SetHostPopulated(head, 1u << kThpOrder), 1u << kThpOrder);
  EXPECT_EQ(m.split_blocks(), 1u);
  zone.Free(head);  // Merges the slot back into one max-order chunk.
  EXPECT_EQ(m.split_blocks(), 0u);
  EXPECT_EQ(m.storage_bytes(), 0u);
  EXPECT_EQ(cm.page(start).state, PageState::kFree);
  EXPECT_EQ(cm.page(start).zone_id, 3);
  EXPECT_TRUE(zone.CheckFreeLists());
  EXPECT_TRUE(m.host_populated(head + 511));
  EXPECT_FALSE(m.host_populated(head + 512));
  EXPECT_EQ(m.BlockPopulated(1), 1u << kThpOrder);
  // The next allocation splits the slot again; the bits stay.
  EXPECT_EQ(zone.Alloc(0, PageKind::kAnon, 1, 0), start);
  EXPECT_EQ(m.split_blocks(), 1u);
  EXPECT_TRUE(m.host_populated(head + 511));
  EXPECT_EQ(m.CountBlockPopulated(1), 1u << kThpOrder);
}

TEST(MemMapTest, RemoveBlockResetsHostBackingAndInitBlockStartsUnbacked) {
  MemMap m(GiB(1));
  m.InitBlock(0);
  m.SetHostPopulated(100, 300);
  m.set_block_state(0, BlockState::kOffline);
  EXPECT_EQ(m.RemoveBlock(0), 300u);
  EXPECT_EQ(m.BlockPopulated(0), 0u);
  EXPECT_EQ(m.CountBlockPopulated(0), 0u);
  m.InitBlock(0);
  EXPECT_FALSE(m.host_populated(100));
  EXPECT_EQ(m.BlockPopulated(0), 0u);
  // Backing flagged over a hole is dropped by hot-add as well.
  m.SetHostPopulated(MemMap::BlockStart(2) + 5, 1);
  m.InitBlock(2);
  EXPECT_FALSE(m.host_populated(MemMap::BlockStart(2) + 5));
  EXPECT_EQ(m.BlockPopulated(2), 0u);
}

TEST(MemMapTest, OnlineWholeBlockStoresNothing) {
  MemMap m(GiB(1));
  const MemMap& cm = m;
  Zone zone(4, ZoneType::kMovable, "z", &m);
  m.InitBlock(1);
  zone.AddFreeRange(MemMap::BlockStart(1), kPagesPerBlock);
  EXPECT_EQ(m.storage_bytes(), 0u);
  EXPECT_EQ(zone.free_chunks(kMaxPageOrder), 32u);
  EXPECT_TRUE(zone.CheckFreeLists());
  // One max-order free chunk per slot.
  for (Pfn pfn = MemMap::BlockStart(1); pfn < MemMap::BlockStart(2); pfn += 511) {
    const Page p = cm.page(pfn);
    EXPECT_EQ(p.state, PageState::kFree);
    EXPECT_EQ(p.zone_id, 4);
    EXPECT_EQ(p.order, kMaxPageOrder);
    EXPECT_EQ(p.head, pfn % (1u << kMaxPageOrder) == 0);
  }
  EXPECT_EQ(m.CountBlockPages(1, PageState::kFree),
            static_cast<uint64_t>(kPagesPerBlock));
  // The max-order chunks link through the MemMap side table, in ascending
  // order for an unshuffled zone.
  EXPECT_EQ(cm.max_link(MemMap::BlockStart(1)).next,
            MemMap::BlockStart(1) + (1u << kMaxPageOrder));
  EXPECT_EQ(cm.page(MemMap::BlockStart(1)).free.next, kInvalidPfn);
  EXPECT_EQ(m.materialized_peak_blocks(), 0u);
}

TEST(MemMapTest, FirstAllocSplitsOneSlot) {
  MemMap m(GiB(1));
  const MemMap& cm = m;
  Zone zone(0, ZoneType::kMovable, "z", &m);
  m.InitBlock(0);
  zone.AddFreeRange(0, kPagesPerBlock);
  const Pfn head = zone.Alloc(0, PageKind::kAnon, 1, 0);
  ASSERT_EQ(head, 0u);
  EXPECT_EQ(m.split_blocks(), 1u);
  EXPECT_EQ(m.storage_bytes(), 10u * 16u);
  // The untouched max-order chunks read as before.
  EXPECT_EQ(cm.page(1u << kMaxPageOrder).state, PageState::kFree);
  EXPECT_TRUE(cm.page(1u << kMaxPageOrder).head);
  EXPECT_EQ(cm.page(kPagesPerBlock - 1).order, kMaxPageOrder);
  EXPECT_EQ(zone.free_chunks(kMaxPageOrder), 31u);
  EXPECT_TRUE(zone.CheckFreeLists());
}

TEST(MemMapTest, UntouchedBlockIsolatesRetiresAndRemovesWithoutStorage) {
  MemMap m(GiB(1));
  const MemMap& cm = m;
  Zone zone(2, ZoneType::kSqueezyPrivate, "p", &m);
  m.InitBlock(3);
  const Pfn start = MemMap::BlockStart(3);
  zone.AddFreeRange(start, kPagesPerBlock);

  EXPECT_EQ(zone.IsolateFreeRange(start, kPagesPerBlock),
            static_cast<uint64_t>(kPagesPerBlock));
  EXPECT_EQ(m.storage_bytes(), 0u);
  EXPECT_EQ(zone.free_chunks(kMaxPageOrder), 0u);
  EXPECT_EQ(zone.free_pages(), 0u);
  EXPECT_EQ(cm.page(start).state, PageState::kIsolated);
  EXPECT_EQ(cm.page(start).zone_id, 2);
  EXPECT_FALSE(cm.page(start).head);
  EXPECT_EQ(cm.page(start).order, 0);
  EXPECT_EQ(m.CountBlockPages(3, PageState::kIsolated),
            static_cast<uint64_t>(kPagesPerBlock));

  zone.RetireRange(start, kPagesPerBlock);
  EXPECT_EQ(m.storage_bytes(), 0u);
  EXPECT_EQ(zone.present_pages(), 0u);
  EXPECT_EQ(cm.page(start + 77).state, PageState::kOffline);
  EXPECT_EQ(cm.page(start + 77).zone_id, -1);

  m.set_block_state(3, BlockState::kOffline);
  EXPECT_EQ(m.RemoveBlock(3), 0u);
  EXPECT_EQ(cm.page(start).state, PageState::kHole);
  EXPECT_EQ(m.materialized_peak_blocks(), 0u);
}

// Guest-mm bookkeeping costs records per extent, not Pages per frame: the
// counter below is the deterministic measure of it.
TEST(MemMapTest, RecordsWrittenCountsExtentsNotPages) {
  MemMap m(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &m);
  for (BlockIndex b = 0; b < 2; ++b) {
    m.InitBlock(b);
    zone.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
  }
  // Hot-add and online write one record per slot each.
  EXPECT_EQ(m.records_written(), 2u * (32u + 32u));

  // A THP: the folio and the upper half.
  const uint64_t before_alloc = m.records_written();
  const Pfn thp = zone.Alloc(kThpOrder, PageKind::kAnon, 1, 0);
  ASSERT_EQ(thp, 0u);
  EXPECT_EQ(m.records_written() - before_alloc, 2u);

  // Freeing it coalesces once, with its upper half: one record.
  const uint64_t before_free = m.records_written();
  zone.Free(thp);
  EXPECT_EQ(m.records_written() - before_free, 1u);
  EXPECT_EQ(zone.free_chunks(kMaxPageOrder), 64u);

  // Two order-0 pages leave free chunks of orders 1..9 and 31 slots: one
  // record each to isolate.
  const Pfn a = zone.Alloc(0, PageKind::kAnon, 1, 0);
  const Pfn b = zone.Alloc(0, PageKind::kAnon, 1, 1);
  ASSERT_EQ(a, 0u);
  ASSERT_EQ(b, 1u);
  uint64_t chunks = 0;
  for (Pfn pfn = 0; pfn < kPagesPerBlock; pfn = m.NextExtent(pfn)) {
    chunks += m.page(pfn).state == PageState::kFree ? 1 : 0;
  }
  EXPECT_EQ(chunks, 9u + 31u);
  const uint64_t before_isolate = m.records_written();
  EXPECT_EQ(zone.IsolateFreeRange(0, kPagesPerBlock), kPagesPerBlock - 2u);
  EXPECT_EQ(m.records_written() - before_isolate, chunks);

  // Migrated-out folios are isolated with one record each, and the abort
  // frees the block's single isolated run as 32 max-order chunks.
  zone.FreeIntoIsolation(a, 1);
  zone.FreeIntoIsolation(b, 1);
  EXPECT_EQ(m.records_written() - before_isolate, chunks + 2u);
  const uint64_t before_undo = m.records_written();
  zone.UndoIsolation(0, kPagesPerBlock);
  EXPECT_EQ(m.records_written() - before_undo, 32u);
  EXPECT_EQ(zone.free_chunks(kMaxPageOrder), 64u);
  EXPECT_TRUE(zone.CheckFreeLists());

  // Bulk single pages cost run records per buddy chunk, not one per page.
  // A whole max-order slot of a fresh block: one run record.
  Zone bulk(1, ZoneType::kMovable, "bulk", &m);
  m.InitBlock(2);
  const Pfn base = MemMap::BlockStart(2);
  bulk.AddFreeRange(base, kPagesPerBlock);
  std::vector<PageRun> runs;
  const uint64_t before_run = m.records_written();
  ASSERT_EQ(bulk.AllocPages(1024, PageKind::kFile, 7, 0, &runs), 1024u);
  EXPECT_EQ(m.records_written() - before_run, 1u);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].start, base);
  EXPECT_EQ(runs[0].pages, 1024u);

  // 300 pages from the next slot: popcount(300) run records for the
  // pages, and one free record per set bit of the 724-page remainder.
  const uint64_t before_take = m.records_written();
  ASSERT_EQ(bulk.AllocPages(300, PageKind::kFile, 7, 1024, &runs), 300u);
  EXPECT_EQ(m.records_written() - before_take,
            uint64_t{__builtin_popcount(300)} + __builtin_popcount(1024 - 300));
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1].start, base + 1024);
  EXPECT_EQ(runs[1].pages, 300u);

  // Freeing one page inside the 1024-page run cuts the run into 10 runs
  // around the page, plus the page's free record: 11 in all.
  const uint64_t before_cut = m.records_written();
  bulk.Free(base + 517);
  EXPECT_EQ(m.records_written() - before_cut, 11u);
  EXPECT_EQ(m.page(base + 517).state, PageState::kFree);
  EXPECT_TRUE(bulk.CheckFreeLists());
  EXPECT_EQ(m.BlockOccupied(2), 1024u + 300u - 1u);
}

// Every page of a run reads as an order-0 head at its own owner slot, with
// no run bit, before and after its run is cut by a free and by isolation.
TEST(MemMapTest, RunPagesReadAsSingleHeads) {
  MemMap m(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &m);
  m.InitBlock(0);
  zone.AddFreeRange(0, kPagesPerBlock);
  std::vector<PageRun> runs;
  ASSERT_EQ(zone.AllocPages(1024, PageKind::kFile, 5, 100, &runs), 1024u);
  ASSERT_TRUE(m.record(0).run);
  ASSERT_EQ(m.record(0).order, kMaxPageOrder);

  std::vector<Page> block(kPagesPerBlock);
  // Pages [0, 1024) outside `isolated` read as the run's pages, except
  // `freed`.
  auto expect_run_view = [&](Pfn freed, Pfn iso_lo, Pfn iso_hi) {
    m.ReadBlock(0, block.data());
    for (Pfn pfn = 0; pfn < 1024; ++pfn) {
      const Page p = m.page(pfn);
      SCOPED_TRACE("pfn " + std::to_string(pfn));
      EXPECT_FALSE(p.run);
      EXPECT_EQ(p.order, 0);
      EXPECT_EQ(block[pfn].state, p.state);
      EXPECT_EQ(block[pfn].head, p.head);
      EXPECT_EQ(block[pfn].free.prev, p.free.prev);
      EXPECT_FALSE(block[pfn].run);
      if (pfn == freed) {
        EXPECT_EQ(p.state, PageState::kFree);
      } else if (pfn >= iso_lo && pfn < iso_hi) {
        EXPECT_EQ(p.state, PageState::kIsolated);
        EXPECT_FALSE(p.head);
      } else {
        EXPECT_EQ(p.state, PageState::kAllocated);
        EXPECT_TRUE(p.head);
        EXPECT_EQ(p.kind, PageKind::kFile);
        EXPECT_EQ(p.zone_id, 0);
        EXPECT_EQ(p.owner(), 5);
        EXPECT_EQ(p.owner_slot(), 100 + pfn);
        EXPECT_EQ(block[pfn].owner_slot(), 100 + pfn);
      }
    }
  };
  expect_run_view(kInvalidPfn, 0, 0);
  if (testing::Test::HasFailure()) {
    return;
  }

  zone.Free(300);
  expect_run_view(300, 0, 0);
  if (testing::Test::HasFailure()) {
    return;
  }

  // Isolation takes [100, 700): it starts inside a cut piece and ends
  // inside another, and covers the freed page's neighbours whole.
  EXPECT_EQ(zone.IsolateFreeRange(0, kPagesPerBlock), kPagesPerBlock - 1023u);
  zone.FreeIntoIsolation(100, 200);
  zone.FreeIntoIsolation(301, 399);
  expect_run_view(kInvalidPfn, 100, 700);
  EXPECT_EQ(m.page(300).state, PageState::kIsolated);
  EXPECT_EQ(m.BlockOccupied(0), 1023u - 599u);
  EXPECT_EQ(m.CountBlockPages(0, PageState::kAllocated), 1023u - 599u);
}

TEST(MemMapTest, CountBlockPagesOnAHole) {
  MemMap m(GiB(1));
  EXPECT_EQ(m.CountBlockPages(2, PageState::kHole), static_cast<uint64_t>(kPagesPerBlock));
  EXPECT_EQ(m.CountBlockPages(2, PageState::kOffline), 0u);
}

TEST(MemMapTest, OccupancyCounterStartsZero) {
  MemMap m(GiB(1));
  for (BlockIndex b = 0; b < m.block_count(); ++b) {
    EXPECT_EQ(m.BlockOccupied(b), 0u);
  }
  m.AdjustBlockAllocated(0, 5);
  EXPECT_EQ(m.BlockOccupied(0), 5u);
  m.AdjustBlockAllocated(3, -5);  // pfn 3 is still block 0.
  EXPECT_EQ(m.BlockOccupied(0), 0u);
}

// A Page's owner shares its two words with the free-list link (page.h).
// Free-list traffic on the pages around an allocated head must not touch
// its owner, and migration must hand the registry the original one.
TEST(MemMapTest, OwnerOverlaySurvivesNeighbourFreesAndMigration) {
  MemMap m(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &m);
  for (BlockIndex b = 0; b < 2; ++b) {
    m.InitBlock(b);
    zone.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
    m.set_block_state(b, BlockState::kOnline);
  }
  // A fresh zone hands out ascending pfns: neighbours 0-3, the file page
  // at 4, neighbours 5-7.
  std::vector<Pfn> neighbours;
  for (uint32_t i = 0; i < 4; ++i) {
    neighbours.push_back(zone.Alloc(0, PageKind::kAnon, 1, i));
  }
  const Pfn file = zone.Alloc(0, PageKind::kFile, /*owner=*/5, /*owner_slot=*/77);
  ASSERT_EQ(file, 4u);
  for (uint32_t i = 4; i < 7; ++i) {
    neighbours.push_back(zone.Alloc(0, PageKind::kAnon, 1, i));
  }
  // Freed, they coalesce into [0, 4) at order 2, {5} at order 0 and
  // [6, 8) at order 1, each linked on its list around the file page.
  for (const Pfn pfn : neighbours) {
    zone.Free(pfn);
  }
  const MemMap& cm = m;
  EXPECT_TRUE(zone.CheckFreeLists());
  EXPECT_TRUE(cm.page(0).head && cm.page(0).order == 2);
  EXPECT_TRUE(cm.page(5).head && cm.page(5).order == 0);
  EXPECT_TRUE(cm.page(6).head && cm.page(6).order == 1);
  EXPECT_EQ(cm.page(file).state, PageState::kAllocated);
  EXPECT_EQ(cm.page(file).owner(), 5);
  EXPECT_EQ(cm.page(file).owner_slot(), 77u);

  struct Registry : OwnerRegistry {
    void RelocateRun(PageKind kind, int32_t owner, uint32_t first_slot, uint8_t order,
                     PageRun to) override {
      for (uint32_t i = 0; i < to.pages >> order; ++i) {
        moves.push_back({kind, owner, first_slot + i, to.start + (i << order)});
      }
    }
    struct Move {
      PageKind kind;
      int32_t owner;
      uint32_t owner_slot;
      Pfn to;
    };
    std::vector<Move> moves;
  } registry;
  EXPECT_EQ(zone.IsolateFreeRange(0, kPagesPerBlock), kPagesPerBlock - 1u);
  const CostModel cost = CostModel::Default();
  const MigrateOutcome out =
      MigrateOutOfRange(m, zone, zone, 0, kPagesPerBlock, cost, &registry);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(registry.moves.size(), 1u);
  EXPECT_EQ(registry.moves[0].kind, PageKind::kFile);
  EXPECT_EQ(registry.moves[0].owner, 5);
  EXPECT_EQ(registry.moves[0].owner_slot, 77u);
  const Page moved = cm.page(registry.moves[0].to);
  EXPECT_EQ(MemMap::BlockOf(registry.moves[0].to), 1u);
  EXPECT_EQ(moved.owner(), 5);
  EXPECT_EQ(moved.owner_slot(), 77u);
  EXPECT_EQ(cm.page(file).state, PageState::kIsolated);
  EXPECT_TRUE(zone.CheckFreeLists());
}

// --- Record storage -------------------------------------------------------------

// A slot that is one extent stores no record past its start, whatever the
// extent: a whole-slot folio, a 1024-page run or a free chunk.
TEST(MemMapStorageTest, OneExtentSlotsStoreNothing) {
  MemMap m(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &m);
  m.InitBlock(0);
  zone.AddFreeRange(0, kPagesPerBlock);
  ASSERT_EQ(zone.Alloc(kMaxPageOrder, PageKind::kAnon, 1, 0), 0u);
  std::vector<PageRun> runs;
  ASSERT_EQ(zone.AllocPages(1024, PageKind::kFile, 2, 0, &runs), 1024u);
  EXPECT_TRUE(m.record(1024).run);
  EXPECT_EQ(m.storage_bytes(), 0u);
  EXPECT_EQ(m.materialized_peak_bytes(), 0u);
  EXPECT_EQ(m.materialized_peak_blocks(), 0u);
}

// Zone::FreeAll restamps every slot it drains as one max-order chunk, so a
// drained block stores nothing, however split its slots were.
TEST(MemMapStorageTest, FreeAllOfADrainedBlockReleasesItsStorage) {
  MemMap m(GiB(1));
  Zone zone(0, ZoneType::kSqueezyPrivate, "p", &m);
  m.InitBlock(1);
  zone.AddFreeRange(MemMap::BlockStart(1), kPagesPerBlock);
  std::vector<Pfn> heads;
  for (uint32_t i = 0; i < 5; ++i) {
    heads.push_back(zone.Alloc(kThpOrder, PageKind::kAnon, 1, i));
    heads.push_back(zone.Alloc(0, PageKind::kAnon, 1, 100 + i));
  }
  std::vector<PageRun> runs;
  ASSERT_EQ(zone.AllocPages(777, PageKind::kFile, 2, 0, &runs), 777u);
  for (const PageRun& run : runs) {
    for (uint32_t i = 0; i < run.pages; ++i) {
      heads.push_back(run.start + i);
    }
  }
  EXPECT_EQ(m.split_blocks(), 1u);
  const uint64_t peak = m.storage_bytes();
  EXPECT_GT(peak, 0u);
  zone.FreeAll(heads.data(), heads.size());
  EXPECT_EQ(m.storage_bytes(), 0u);
  EXPECT_EQ(m.split_blocks(), 0u);
  EXPECT_EQ(m.materialized_peak_bytes(), peak);
  EXPECT_EQ(m.materialized_peak_blocks(), 1u);
  EXPECT_EQ(zone.free_chunks(kMaxPageOrder), 32u);
  EXPECT_TRUE(zone.CheckFreeLists());
}

// Hot-remove frees the block's slot table with whatever records it holds:
// here an offline slot stamped in two halves.
TEST(MemMapStorageTest, RemoveBlockReleasesItsStorage) {
  MemMap m(GiB(1));
  m.InitBlock(2);
  Page half = MemMap::SlotRecord(PageState::kOffline);
  half.order = kThpOrder;
  const Pfn start = MemMap::BlockStart(2);
  m.Stamp(start, half);
  m.Stamp(start + (1u << kThpOrder), half);
  EXPECT_EQ(m.ExtentStart(start + 600), start + (1u << kThpOrder));
  EXPECT_EQ(m.split_blocks(), 1u);
  EXPECT_EQ(m.storage_bytes(), 16u);
  EXPECT_EQ(m.RemoveBlock(2), 0u);
  EXPECT_EQ(m.storage_bytes(), 0u);
  EXPECT_EQ(m.split_blocks(), 0u);
  EXPECT_EQ(m.ExtentStart(start + 600), start);
  EXPECT_EQ(m.page(start + 600).state, PageState::kHole);
}

// mutable_record hands out references to records that exist already, so
// two of them in one split slot stay valid together, and a Stamp in one
// slot moves no record of another.
TEST(MemMapStorageTest, MutableRecordsStayPutTogether) {
  MemMap m(GiB(1));
  m.InitBlock(0);
  // Slot 0 in four order-8 pieces, slot 1 in two order-9 halves.
  auto stamp = [&](Pfn start, uint8_t order) {
    Page rec = MemMap::SlotRecord(PageState::kOffline);
    rec.order = order;
    m.Stamp(start, rec);
  };
  for (Pfn pfn = 0; pfn < 1024; pfn += 256) {
    stamp(pfn, 8);
  }
  stamp(1024, kThpOrder);
  stamp(1536, kThpOrder);
  const uint64_t stored = m.storage_bytes();
  EXPECT_EQ(stored, 4u * 16u);
  Page& a = m.mutable_record(256);
  Page& b = m.mutable_record(768);
  a.free = FreeLink{7, 8};
  b.free = FreeLink{9, 10};
  EXPECT_EQ(m.storage_bytes(), stored);
  EXPECT_EQ(m.record(256).free.next, 7u);
  EXPECT_EQ(m.record(768).free.prev, 10u);
  const Page* other = &m.mutable_record(1536);
  for (Pfn pfn = 0; pfn < 256; pfn += 16) {
    stamp(pfn, 4);  // 15 more records in slot 0.
  }
  EXPECT_EQ(&m.mutable_record(1536), other);
  EXPECT_EQ(m.storage_bytes(), stored + 15u * 16u);
}

}  // namespace
}  // namespace squeezy
