// Unit + property tests for the buddy allocator and zone accounting.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/mm/memmap.h"
#include "src/mm/page.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"
#include "src/sim/rng.h"

namespace squeezy {
namespace {

class ZoneTest : public testing::Test {
 protected:
  void SetUp() override {
    memmap_ = std::make_unique<MemMap>(GiB(1));  // 8 blocks.
    zone_ = std::make_unique<Zone>(0, ZoneType::kMovable, "test", memmap_.get());
    for (BlockIndex b = 0; b < 8; ++b) {
      memmap_->InitBlock(b);
    }
  }

  void OnlineBlocks(uint32_t n) {
    for (BlockIndex b = 0; b < n; ++b) {
      zone_->AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
      memmap_->set_block_state(b, BlockState::kOnline);
    }
  }

  std::unique_ptr<MemMap> memmap_;
  std::unique_ptr<Zone> zone_;
};

TEST_F(ZoneTest, AddFreeRangePopulatesStats) {
  OnlineBlocks(2);
  EXPECT_EQ(zone_->free_pages(), 2u * kPagesPerBlock);
  EXPECT_EQ(zone_->present_pages(), 2u * kPagesPerBlock);
  EXPECT_EQ(zone_->managed_pages(), 2u * kPagesPerBlock);
  EXPECT_EQ(zone_->allocated_pages(), 0u);
  EXPECT_TRUE(zone_->CheckFreeLists());
  // A whole block is 32 max-order chunks.
  EXPECT_EQ(zone_->free_chunks(kMaxPageOrder), 64u);
}

TEST_F(ZoneTest, AllocReturnsAlignedHead) {
  OnlineBlocks(1);
  for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
    const Pfn pfn = zone_->Alloc(order, PageKind::kAnon, 1, 0);
    ASSERT_NE(pfn, kInvalidPfn);
    EXPECT_EQ(pfn & ((1u << order) - 1), 0u) << "order " << int{order};
    const Page p = memmap_->page(pfn);
    EXPECT_EQ(p.state, PageState::kAllocated);
    EXPECT_TRUE(p.head);
    EXPECT_EQ(p.order, order);
    EXPECT_EQ(p.owner(), 1);
  }
  EXPECT_TRUE(zone_->CheckFreeLists());
}

TEST_F(ZoneTest, AllocSetsTailPages) {
  OnlineBlocks(1);
  const Pfn pfn = zone_->Alloc(3, PageKind::kAnon, 5, 7);
  ASSERT_NE(pfn, kInvalidPfn);
  for (uint32_t i = 1; i < 8; ++i) {
    const Page p = memmap_->page(pfn + i);
    EXPECT_EQ(p.state, PageState::kAllocated);
    EXPECT_FALSE(p.head);
  }
}

TEST_F(ZoneTest, FreeCoalescesBackToMaxOrder) {
  OnlineBlocks(1);
  std::vector<Pfn> folios;
  // Drain the zone at order 0, then free everything.
  while (true) {
    const Pfn pfn = zone_->Alloc(0, PageKind::kAnon, 1, 0);
    if (pfn == kInvalidPfn) {
      break;
    }
    folios.push_back(pfn);
  }
  EXPECT_EQ(folios.size(), kPagesPerBlock);
  EXPECT_EQ(zone_->free_pages(), 0u);
  for (const Pfn pfn : folios) {
    zone_->Free(pfn);
  }
  EXPECT_EQ(zone_->free_pages(), static_cast<uint64_t>(kPagesPerBlock));
  // Full coalescing: only max-order chunks remain.
  for (uint8_t order = 0; order < kMaxPageOrder; ++order) {
    EXPECT_EQ(zone_->free_chunks(order), 0u) << "order " << int{order};
  }
  EXPECT_EQ(zone_->free_chunks(kMaxPageOrder), kPagesPerBlock >> kMaxPageOrder);
  EXPECT_TRUE(zone_->CheckFreeLists());
}

TEST_F(ZoneTest, AllocFailsWhenEmptyZone) {
  EXPECT_EQ(zone_->Alloc(0, PageKind::kAnon, 1, 0), kInvalidPfn);
}

TEST_F(ZoneTest, AllocFailsWhenExhausted) {
  OnlineBlocks(1);
  const uint64_t chunks = kPagesPerBlock >> kMaxPageOrder;
  for (uint64_t i = 0; i < chunks; ++i) {
    ASSERT_NE(zone_->Alloc(kMaxPageOrder, PageKind::kAnon, 1, 0), kInvalidPfn);
  }
  EXPECT_EQ(zone_->Alloc(0, PageKind::kAnon, 1, 0), kInvalidPfn);
  EXPECT_EQ(zone_->free_pages(), 0u);
}

TEST_F(ZoneTest, SplitProducesBuddyHalves) {
  OnlineBlocks(1);
  const uint64_t before = zone_->free_chunks(kMaxPageOrder);
  const Pfn pfn = zone_->Alloc(0, PageKind::kAnon, 1, 0);
  ASSERT_NE(pfn, kInvalidPfn);
  EXPECT_EQ(zone_->free_chunks(kMaxPageOrder), before - 1);
  // Splitting a max-order chunk to order 0 leaves one chunk per order.
  for (uint8_t order = 0; order < kMaxPageOrder; ++order) {
    EXPECT_EQ(zone_->free_chunks(order), 1u) << "order " << int{order};
  }
  EXPECT_TRUE(zone_->CheckFreeLists());
}

TEST_F(ZoneTest, OccupancyCounterMatchesScan) {
  OnlineBlocks(2);
  Rng rng(3);
  std::vector<Pfn> folios;
  for (int i = 0; i < 200; ++i) {
    const uint8_t order = static_cast<uint8_t>(rng.UniformInt(0, kThpOrder));
    const Pfn pfn = zone_->Alloc(order, PageKind::kAnon, 1, 0);
    if (pfn != kInvalidPfn) {
      folios.push_back(pfn);
    }
  }
  for (size_t i = 0; i < folios.size(); i += 2) {
    zone_->Free(folios[i]);
  }
  for (BlockIndex b = 0; b < 2; ++b) {
    EXPECT_EQ(memmap_->BlockOccupied(b), memmap_->CountBlockPages(b, PageState::kAllocated));
  }
}

TEST_F(ZoneTest, IsolateFreeRangeRemovesFromAllocator) {
  OnlineBlocks(2);
  const uint64_t isolated = zone_->IsolateFreeRange(MemMap::BlockStart(0), kPagesPerBlock);
  EXPECT_EQ(isolated, static_cast<uint64_t>(kPagesPerBlock));
  EXPECT_EQ(zone_->free_pages(), static_cast<uint64_t>(kPagesPerBlock));
  // Allocations can no longer land in block 0.
  for (int i = 0; i < 32; ++i) {
    const Pfn pfn = zone_->Alloc(kMaxPageOrder, PageKind::kAnon, 1, 0);
    ASSERT_NE(pfn, kInvalidPfn);
    EXPECT_GE(pfn, kPagesPerBlock);
  }
  EXPECT_TRUE(zone_->CheckFreeLists());
}

TEST_F(ZoneTest, IsolateSkipsAllocatedPages) {
  OnlineBlocks(1);
  const Pfn held = zone_->Alloc(kThpOrder, PageKind::kAnon, 1, 0);
  ASSERT_NE(held, kInvalidPfn);
  const uint64_t isolated = zone_->IsolateFreeRange(0, kPagesPerBlock);
  EXPECT_EQ(isolated, kPagesPerBlock - (1u << kThpOrder));
  EXPECT_EQ(memmap_->page(held).state, PageState::kAllocated);
}

TEST_F(ZoneTest, UndoIsolationRestoresFreePages) {
  OnlineBlocks(1);
  zone_->IsolateFreeRange(0, kPagesPerBlock);
  EXPECT_EQ(zone_->free_pages(), 0u);
  zone_->UndoIsolation(0, kPagesPerBlock);
  EXPECT_EQ(zone_->free_pages(), static_cast<uint64_t>(kPagesPerBlock));
  EXPECT_TRUE(zone_->CheckFreeLists());
  // And allocation works again.
  EXPECT_NE(zone_->Alloc(kMaxPageOrder, PageKind::kAnon, 1, 0), kInvalidPfn);
}

TEST_F(ZoneTest, UndoIsolationCoalesces) {
  OnlineBlocks(1);
  zone_->IsolateFreeRange(0, kPagesPerBlock);
  zone_->UndoIsolation(0, kPagesPerBlock);
  EXPECT_EQ(zone_->free_chunks(kMaxPageOrder), kPagesPerBlock >> kMaxPageOrder);
}

TEST_F(ZoneTest, FreeIntoIsolationBypassesFreeLists) {
  OnlineBlocks(1);
  const Pfn held = zone_->Alloc(kThpOrder, PageKind::kAnon, 1, 0);
  zone_->IsolateFreeRange(0, kPagesPerBlock);
  const uint64_t free_before = zone_->free_pages();
  zone_->FreeIntoIsolation(held, 1u << kThpOrder);
  EXPECT_EQ(zone_->free_pages(), free_before);  // Not returned to buddy.
  EXPECT_EQ(memmap_->page(held).state, PageState::kIsolated);
  EXPECT_EQ(memmap_->BlockOccupied(0), 0u);
}

TEST_F(ZoneTest, RetireRangeShrinksZone) {
  OnlineBlocks(2);
  zone_->IsolateFreeRange(0, kPagesPerBlock);
  zone_->RetireRange(0, kPagesPerBlock);
  EXPECT_EQ(zone_->present_pages(), static_cast<uint64_t>(kPagesPerBlock));
  EXPECT_EQ(zone_->managed_pages(), static_cast<uint64_t>(kPagesPerBlock));
  EXPECT_EQ(memmap_->page(0).state, PageState::kOffline);
  EXPECT_EQ(memmap_->page(0).zone_id, -1);
}

TEST_F(ZoneTest, ShuffledZoneScattersAllocations) {
  // With a shuffle RNG, consecutive allocations should not be contiguous.
  Rng rng(7);
  Zone shuffled(1, ZoneType::kMovable, "shuffled", memmap_.get(), &rng);
  for (BlockIndex b = 0; b < 8; ++b) {
    shuffled.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
  }
  std::set<BlockIndex> blocks_hit;
  for (int i = 0; i < 64; ++i) {
    const Pfn pfn = shuffled.Alloc(kThpOrder, PageKind::kAnon, 1, 0);
    ASSERT_NE(pfn, kInvalidPfn);
    blocks_hit.insert(MemMap::BlockOf(pfn));
  }
  // 64 THP folios = 128 MiB = could fit in 1 block; shuffling should
  // spread them over several.
  EXPECT_GT(blocks_hit.size(), 2u);
  EXPECT_TRUE(shuffled.CheckFreeLists());
}

// Property test: random alloc/free sequences conserve pages and keep the
// free lists well-formed, across different folio-order mixes.
class ZoneChurnPropertyTest : public testing::TestWithParam<std::tuple<uint64_t, uint8_t>> {};

TEST_P(ZoneChurnPropertyTest, ConservationUnderChurn) {
  const auto [seed, max_order] = GetParam();
  MemMap memmap(MiB(512));
  Zone zone(0, ZoneType::kMovable, "churn", &memmap);
  const uint32_t nblocks = 4;
  for (BlockIndex b = 0; b < nblocks; ++b) {
    memmap.InitBlock(b);
    zone.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
  }
  const uint64_t total = zone.free_pages();

  Rng rng(seed);
  std::vector<Pfn> live;
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.Chance(0.55)) {
      const uint8_t order = static_cast<uint8_t>(rng.UniformInt(0, max_order));
      const Pfn pfn = zone.Alloc(order, PageKind::kAnon, 1, 0);
      if (pfn != kInvalidPfn) {
        live.push_back(pfn);
      }
    } else {
      const size_t idx = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      zone.Free(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(zone.free_pages() + zone.allocated_pages(), total);
  }
  ASSERT_TRUE(zone.CheckFreeLists());
  // Free everything: the zone must return to fully-coalesced emptiness.
  for (const Pfn pfn : live) {
    zone.Free(pfn);
  }
  EXPECT_EQ(zone.free_pages(), total);
  EXPECT_EQ(zone.allocated_pages(), 0u);
  EXPECT_EQ(zone.free_chunks(kMaxPageOrder), total >> kMaxPageOrder);
  EXPECT_TRUE(zone.CheckFreeLists());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ZoneChurnPropertyTest,
    testing::Combine(testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                     testing::Values(uint8_t{0}, uint8_t{4}, kThpOrder, kMaxPageOrder)),
    [](const testing::TestParamInfo<std::tuple<uint64_t, uint8_t>>& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) + "_maxorder" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(ZoneTypeTest, Names) {
  EXPECT_STREQ(ZoneTypeName(ZoneType::kNormal), "Normal");
  EXPECT_STREQ(ZoneTypeName(ZoneType::kMovable), "Movable");
  EXPECT_STREQ(ZoneTypeName(ZoneType::kSqueezyPrivate), "SqueezyPrivate");
  EXPECT_STREQ(ZoneTypeName(ZoneType::kSqueezyShared), "SqueezyShared");
}

}  // namespace
}  // namespace squeezy
