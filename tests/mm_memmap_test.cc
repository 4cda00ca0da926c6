// Unit tests for the memory map and block state machine.
#include <gtest/gtest.h>

#include <memory>
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
  // Hot-add is O(1): the block is uniformly offline, with no chunk.
  EXPECT_FALSE(m.BlockMaterialized(3));
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
  // chunk.
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
  EXPECT_FALSE(m.BlockMaterialized(0));
}

TEST(MemMapTest, ConstReadsNeverMaterialize) {
  MemMap m(GiB(1));
  const MemMap& cm = m;
  // A fresh map holds no chunks at all: span RSS is bounded by touch, not
  // by span size.
  EXPECT_EQ(m.materialized_blocks(), 0u);
  for (Pfn pfn = 0; pfn < cm.span_pages(); pfn += kPagesPerBlock / 3) {
    EXPECT_EQ(cm.page(pfn).state, PageState::kHole);
    EXPECT_FALSE(cm.host_populated(pfn));
  }
  EXPECT_EQ(m.materialized_blocks(), 0u);
  EXPECT_EQ(m.materialized_bytes(), 0u);
  for (BlockIndex b = 0; b < m.block_count(); ++b) {
    EXPECT_FALSE(m.BlockMaterialized(b));
  }
}

TEST(MemMapTest, MutableTouchMaterializesOneChunk) {
  MemMap m(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &m);
  m.InitBlock(3);
  zone.AddFreeRange(MemMap::BlockStart(3), kPagesPerBlock);
  EXPECT_EQ(m.materialized_blocks(), 0u);
  Page& p = m.mutable_record(MemMap::BlockStart(3) + (1u << kMaxPageOrder));
  // First mutable touch sees the template's max-order chunk.
  EXPECT_EQ(p.state, PageState::kFree);
  EXPECT_TRUE(p.head);
  EXPECT_EQ(p.order, kMaxPageOrder);
  EXPECT_EQ(m.materialized_blocks(), 1u);
  EXPECT_TRUE(m.BlockMaterialized(3));
  EXPECT_FALSE(m.BlockMaterialized(2));
  EXPECT_EQ(m.materialized_bytes(), MemMap::ChunkBytes());
  EXPECT_EQ(m.materialized_peak_blocks(), 1u);
}

TEST(MemMapTest, RetireRangeFreesTheChunk) {
  // Offlining returns a materialized block's sim memory: a retired block
  // is uniformly offline, so hot-remove never meets a chunk.
  MemMap m(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &m);
  m.InitBlock(0);
  zone.AddFreeRange(0, kPagesPerBlock);
  const Pfn pfn = zone.Alloc(0, PageKind::kAnon, 1, 0);  // Materializes the block.
  ASSERT_EQ(pfn, 0u);
  m.SetHostPopulated(9, 1);
  EXPECT_EQ(m.materialized_blocks(), 1u);
  zone.Free(pfn);
  EXPECT_EQ(zone.IsolateFreeRange(0, kPagesPerBlock), static_cast<uint64_t>(kPagesPerBlock));
  zone.RetireRange(0, kPagesPerBlock);
  EXPECT_FALSE(m.BlockMaterialized(0));
  EXPECT_EQ(m.materialized_blocks(), 0u);
  EXPECT_EQ(m.materialized_peak_blocks(), 1u);  // Peak is sticky.
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
  // Host backing is not Page state: none of this materialized a block.
  EXPECT_EQ(m.materialized_peak_blocks(), 0u);
}

TEST(MemMapTest, HostBackingSurvivesDematerializeAndRematerialize) {
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
  zone.Free(head);
  EXPECT_TRUE(m.BlockMaterialized(1));  // A plain Free never dematerializes.
  m.Dematerialize(1, zone.id());
  EXPECT_FALSE(m.BlockMaterialized(1));
  EXPECT_EQ(m.materialized_blocks(), 0u);
  EXPECT_EQ(cm.page(start).state, PageState::kFree);
  EXPECT_EQ(cm.page(start).zone_id, 3);
  EXPECT_TRUE(zone.CheckFreeLists());
  EXPECT_TRUE(m.host_populated(head + 511));
  EXPECT_FALSE(m.host_populated(head + 512));
  EXPECT_EQ(m.BlockPopulated(1), 1u << kThpOrder);
  // The next allocation re-materializes the block; the bits stay.
  EXPECT_EQ(zone.Alloc(0, PageKind::kAnon, 1, 0), start);
  EXPECT_TRUE(m.BlockMaterialized(1));
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

TEST(MemMapTest, OnlineWholeBlockStaysUniformFree) {
  MemMap m(GiB(1));
  const MemMap& cm = m;
  Zone zone(4, ZoneType::kMovable, "z", &m);
  m.InitBlock(1);
  zone.AddFreeRange(MemMap::BlockStart(1), kPagesPerBlock);
  EXPECT_FALSE(m.BlockMaterialized(1));
  EXPECT_EQ(zone.free_chunks(kMaxPageOrder), 32u);
  EXPECT_TRUE(zone.CheckFreeLists());
  // Synthesized exactly as StampFreeChunk writes max-order chunks.
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

TEST(MemMapTest, FirstAllocMaterializesTheFreeTemplate) {
  MemMap m(GiB(1));
  const MemMap& cm = m;
  Zone zone(0, ZoneType::kMovable, "z", &m);
  m.InitBlock(0);
  zone.AddFreeRange(0, kPagesPerBlock);
  const Pfn head = zone.Alloc(0, PageKind::kAnon, 1, 0);
  ASSERT_EQ(head, 0u);
  EXPECT_TRUE(m.BlockMaterialized(0));
  EXPECT_EQ(m.materialized_blocks(), 1u);
  // The untouched max-order chunks read as before.
  EXPECT_EQ(cm.page(1u << kMaxPageOrder).state, PageState::kFree);
  EXPECT_TRUE(cm.page(1u << kMaxPageOrder).head);
  EXPECT_EQ(cm.page(kPagesPerBlock - 1).order, kMaxPageOrder);
  EXPECT_EQ(zone.free_chunks(kMaxPageOrder), 31u);
  EXPECT_TRUE(zone.CheckFreeLists());
}

TEST(MemMapTest, UntouchedBlockIsolatesRetiresAndRemovesUniformly) {
  MemMap m(GiB(1));
  const MemMap& cm = m;
  Zone zone(2, ZoneType::kSqueezyPrivate, "p", &m);
  m.InitBlock(3);
  const Pfn start = MemMap::BlockStart(3);
  zone.AddFreeRange(start, kPagesPerBlock);

  EXPECT_EQ(zone.IsolateFreeRange(start, kPagesPerBlock),
            static_cast<uint64_t>(kPagesPerBlock));
  EXPECT_FALSE(m.BlockMaterialized(3));
  EXPECT_EQ(zone.free_chunks(kMaxPageOrder), 0u);
  EXPECT_EQ(zone.free_pages(), 0u);
  EXPECT_EQ(cm.page(start).state, PageState::kIsolated);
  EXPECT_EQ(cm.page(start).zone_id, 2);
  EXPECT_FALSE(cm.page(start).head);
  EXPECT_EQ(cm.page(start).order, 0);
  EXPECT_EQ(m.CountBlockPages(3, PageState::kIsolated),
            static_cast<uint64_t>(kPagesPerBlock));

  zone.RetireRange(start, kPagesPerBlock);
  EXPECT_FALSE(m.BlockMaterialized(3));
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
  EXPECT_EQ(m.records_written(), 0u);  // Online is O(1) per block.

  // Materializing a block writes its 32 slot-start records.
  (void)m.mutable_record(MemMap::BlockStart(1));
  EXPECT_EQ(m.records_written(), 32u);

  // A THP in a fresh block: 32 slot starts, the folio and the upper half.
  const uint64_t before_alloc = m.records_written();
  const Pfn thp = zone.Alloc(kThpOrder, PageKind::kAnon, 1, 0);
  ASSERT_EQ(thp, 0u);
  EXPECT_EQ(m.records_written() - before_alloc, 32u + 2u);

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
  // A whole max-order slot of a fresh block: 32 slot starts to
  // materialize, then one run record.
  Zone bulk(1, ZoneType::kMovable, "bulk", &m);
  m.InitBlock(2);
  const Pfn base = MemMap::BlockStart(2);
  bulk.AddFreeRange(base, kPagesPerBlock);
  std::vector<PageRun> runs;
  const uint64_t before_run = m.records_written();
  ASSERT_EQ(bulk.AllocPages(1024, PageKind::kFile, 7, 0, &runs), 1024u);
  EXPECT_EQ(m.records_written() - before_run, 32u + 1u);
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

TEST(MemMapTest, CountBlockPagesOnAbsentChunk) {
  MemMap m(GiB(1));
  EXPECT_EQ(m.CountBlockPages(2, PageState::kHole), static_cast<uint64_t>(kPagesPerBlock));
  EXPECT_EQ(m.CountBlockPages(2, PageState::kOffline), 0u);
  EXPECT_EQ(m.materialized_blocks(), 0u);  // Counting must not materialize.
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

// --- Chunk recycling ----------------------------------------------------------

// Materializes the first n blocks of m as uniformly free blocks of zone 0.
void MaterializeBlocks(MemMap& m, BlockIndex n) {
  for (BlockIndex b = 0; b < n; ++b) {
    m.InitBlock(b);
    m.SetUniform(b, PageState::kFree, 0);
    (void)m.mutable_record(MemMap::BlockStart(b));
  }
}

TEST(MemMapTest, DroppedChunksAreRecycledWithoutAllocating) {
  {
    MemMap m(3 * kMemoryBlockBytes);
    MaterializeBlocks(m, 3);
  }
  const uint64_t allocated = MemMap::chunks_allocated();
  MemMap m(3 * kMemoryBlockBytes);
  MaterializeBlocks(m, 3);
  EXPECT_EQ(m.materialized_blocks(), 3u);
  EXPECT_EQ(MemMap::chunks_allocated(), allocated);
}

// One block online in one zone.
struct OneBlockGuest {
  OneBlockGuest() {
    memmap.InitBlock(0);
    zone.AddFreeRange(0, kPagesPerBlock);
    memmap.set_block_state(0, BlockState::kOnline);
  }
  MemMap memmap{kMemoryBlockBytes};
  Zone zone{0, ZoneType::kMovable, "z", &memmap};
};

// Runs one script on g's block (a THP, which materializes it, an order-0
// page-cache run, smaller anon folios and frees) and returns its view.
std::vector<Page> RunScriptAndRead(OneBlockGuest& g) {
  std::vector<PageRun> runs;
  EXPECT_NE(g.zone.Alloc(kThpOrder, PageKind::kAnon, 1, 0), kInvalidPfn);
  EXPECT_EQ(g.zone.AllocPages(300, PageKind::kFile, 2, 10, &runs), 300u);
  const Pfn folio = g.zone.Alloc(3, PageKind::kAnon, 3, 5);
  EXPECT_NE(g.zone.Alloc(2, PageKind::kAnon, 3, 6), kInvalidPfn);
  EXPECT_EQ(runs.size(), 1u);
  for (uint32_t i = 0; i < runs[0].pages; i += 3) {
    g.zone.Free(runs[0].start + i);
  }
  g.zone.Free(folio);
  EXPECT_NE(g.zone.Alloc(0, PageKind::kKernel, kNoOwner, 0), kInvalidPfn);
  EXPECT_TRUE(g.zone.CheckFreeLists());
  std::vector<Page> pages(kPagesPerBlock);
  g.memmap.ReadBlock(0, pages.data());
  return pages;
}

// A recycled chunk holds the stale records of the block that dropped it
// (0xA5 bytes in builds without NDEBUG): a block built on one must read
// exactly as a block built on a fresh chunk.
TEST(MemMapTest, RecycledChunkReadsAsAFreshOne) {
  // Empty the free list: materialize held blocks until one allocates.
  std::vector<std::unique_ptr<MemMap>> held;
  for (uint64_t before = MemMap::chunks_allocated();
       MemMap::chunks_allocated() == before;) {
    ASSERT_LT(held.size(), 4096u);
    held.push_back(std::make_unique<MemMap>(kMemoryBlockBytes));
    MaterializeBlocks(*held.back(), 1);
  }
  uint64_t allocated = MemMap::chunks_allocated();
  OneBlockGuest fresh;
  const std::vector<Page> want = RunScriptAndRead(fresh);
  ASSERT_EQ(MemMap::chunks_allocated(), ++allocated);
  {
    // Dirty a chunk with order-0 folios: a record at every page.
    OneBlockGuest dirty;
    for (uint32_t i = 0; i < kPagesPerBlock; ++i) {
      ASSERT_EQ(dirty.zone.Alloc(0, PageKind::kFile, 9, i), i);
    }
    ASSERT_EQ(MemMap::chunks_allocated(), ++allocated);
  }
  OneBlockGuest reused;
  const std::vector<Page> got = RunScriptAndRead(reused);
  ASSERT_EQ(MemMap::chunks_allocated(), allocated) << "the dirty chunk was not reused";
  for (uint32_t i = 0; i < kPagesPerBlock; ++i) {
    const Page& p = got[i];
    const Page& q = want[i];
    ASSERT_TRUE(p.state == q.state && p.kind == q.kind && p.order == q.order &&
                p.head == q.head && p.zone_id == q.zone_id &&
                p.free.next == q.free.next && p.free.prev == q.free.prev)
        << "pfn " << i;
  }
  EXPECT_EQ(reused.memmap.records_written(), fresh.memmap.records_written());
}

}  // namespace
}  // namespace squeezy
