// Unit tests for page migration: the operation Squeezy eliminates.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "src/mm/memmap.h"
#include "src/mm/migration.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"

namespace squeezy {
namespace {

// Allocates n single pages with one AllocPages; returns them in order.
std::vector<Pfn> AllocPfns(Zone& zone, uint32_t n, PageKind kind, int32_t owner,
                           uint32_t first_slot) {
  std::vector<PageRun> runs;
  zone.AllocPages(n, kind, owner, first_slot, &runs);
  std::vector<Pfn> pfns;
  for (const PageRun& run : runs) {
    for (uint32_t i = 0; i < run.pages; ++i) {
      pfns.push_back(run.start + i);
    }
  }
  return pfns;
}

class RecordingRegistry : public OwnerRegistry {
 public:
  void RelocateRun(PageKind kind, int32_t owner, uint32_t first_slot, uint8_t order,
                   PageRun to) override {
    for (uint32_t i = 0; i < to.pages >> order; ++i) {
      moves.push_back({kind, owner, first_slot + i, to.start + (i << order)});
    }
  }
  struct Move {
    PageKind kind;
    int32_t owner;
    uint32_t slot;
    Pfn to;
  };
  std::vector<Move> moves;
};

class MigrationTest : public testing::Test {
 protected:
  void SetUp() override {
    memmap_ = std::make_unique<MemMap>(GiB(1));
    zone_ = std::make_unique<Zone>(0, ZoneType::kMovable, "z", memmap_.get());
    for (BlockIndex b = 0; b < 4; ++b) {
      memmap_->InitBlock(b);
      zone_->AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
      memmap_->set_block_state(b, BlockState::kOnline);
    }
  }

  std::unique_ptr<MemMap> memmap_;
  std::unique_ptr<Zone> zone_;
  CostModel cost_ = CostModel::Default();
  RecordingRegistry registry_;
};

TEST_F(MigrationTest, EmptyRangeMigratesNothing) {
  zone_->IsolateFreeRange(0, kPagesPerBlock);
  const MigrateOutcome out =
      MigrateOutOfRange(*memmap_, *zone_, *zone_, 0, kPagesPerBlock, cost_, &registry_);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.pages_moved, 0u);
  EXPECT_EQ(out.cost, 0);
  EXPECT_TRUE(registry_.moves.empty());
}

TEST_F(MigrationTest, MovesFolioOutAndPatchesOwner) {
  // Allocate one THP folio in block 0 (fresh zone allocates low-first).
  const Pfn head = zone_->Alloc(kThpOrder, PageKind::kAnon, /*owner=*/42, /*slot=*/7);
  ASSERT_LT(head, kPagesPerBlock);
  zone_->IsolateFreeRange(0, kPagesPerBlock);

  const MigrateOutcome out =
      MigrateOutOfRange(*memmap_, *zone_, *zone_, 0, kPagesPerBlock, cost_, &registry_);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.folios_moved, 1u);
  EXPECT_EQ(out.pages_moved, 1u << kThpOrder);
  EXPECT_EQ(out.cost, cost_.MigrateFolio(1u << kThpOrder));

  ASSERT_EQ(registry_.moves.size(), 1u);
  EXPECT_EQ(registry_.moves[0].owner, 42);
  EXPECT_EQ(registry_.moves[0].slot, 7u);
  const Pfn new_head = registry_.moves[0].to;
  EXPECT_GE(new_head, kPagesPerBlock);  // Left the isolating block.
  const Page p = memmap_->page(new_head);
  EXPECT_EQ(p.state, PageState::kAllocated);
  EXPECT_EQ(p.owner(), 42);
  EXPECT_EQ(p.owner_slot(), 7u);
  EXPECT_EQ(p.order, kThpOrder);
  // Source frames are isolated, not free.
  EXPECT_EQ(memmap_->page(head).state, PageState::kIsolated);
  // Block 0 has no occupied pages left.
  EXPECT_EQ(memmap_->BlockOccupied(0), 0u);
}

TEST_F(MigrationTest, TargetHostBackingIsPopulated) {
  const Pfn head = zone_->Alloc(0, PageKind::kAnon, 1, 0);
  (void)head;
  zone_->IsolateFreeRange(0, kPagesPerBlock);
  MigrateOutOfRange(*memmap_, *zone_, *zone_, 0, kPagesPerBlock, cost_, &registry_);
  ASSERT_EQ(registry_.moves.size(), 1u);
  EXPECT_TRUE(memmap_->host_populated(registry_.moves[0].to));
}

TEST_F(MigrationTest, KernelPageAbortsOffline) {
  const Pfn pinned = zone_->Alloc(0, PageKind::kKernel, kNoOwner, 0);
  ASSERT_LT(pinned, kPagesPerBlock);
  zone_->IsolateFreeRange(0, kPagesPerBlock);
  const MigrateOutcome out =
      MigrateOutOfRange(*memmap_, *zone_, *zone_, 0, kPagesPerBlock, cost_, &registry_);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(memmap_->page(pinned).state, PageState::kAllocated);
}

TEST_F(MigrationTest, FailsWhenTargetZoneExhausted) {
  // Fill the whole zone, then try to evacuate block 0: nowhere to go.
  std::vector<Pfn> folios;
  while (true) {
    const Pfn pfn = zone_->Alloc(kThpOrder, PageKind::kAnon, 1, 0);
    if (pfn == kInvalidPfn) {
      break;
    }
    folios.push_back(pfn);
  }
  zone_->IsolateFreeRange(0, kPagesPerBlock);  // Isolates nothing (all used).
  const MigrateOutcome out =
      MigrateOutOfRange(*memmap_, *zone_, *zone_, 0, kPagesPerBlock, cost_, &registry_);
  EXPECT_FALSE(out.ok);
}

TEST_F(MigrationTest, MixedFolioSizesAllMove) {
  std::vector<std::tuple<Pfn, uint8_t>> folios;
  // A mix of orders in block 0.
  const uint8_t orders[] = {0, 3, static_cast<uint8_t>(kThpOrder), 1, 5};
  for (const uint8_t order : orders) {
    const Pfn pfn = zone_->Alloc(order, PageKind::kFile, /*owner=*/3, /*slot=*/order);
    ASSERT_LT(pfn, kPagesPerBlock);
    folios.push_back({pfn, order});
  }
  zone_->IsolateFreeRange(0, kPagesPerBlock);
  const MigrateOutcome out =
      MigrateOutOfRange(*memmap_, *zone_, *zone_, 0, kPagesPerBlock, cost_, &registry_);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.folios_moved, folios.size());
  uint64_t expected_pages = 0;
  for (const auto& [pfn, order] : folios) {
    expected_pages += 1u << order;
  }
  EXPECT_EQ(out.pages_moved, expected_pages);
  // Every frame of block 0 is now isolated.
  EXPECT_EQ(memmap_->CountBlockPages(0, PageState::kIsolated),
            static_cast<uint64_t>(kPagesPerBlock));
}

TEST_F(MigrationTest, CostScalesWithPagesMoved) {
  const Pfn a = zone_->Alloc(0, PageKind::kAnon, 1, 0);
  const Pfn b = zone_->Alloc(kThpOrder, PageKind::kAnon, 1, 1);
  ASSERT_LT(a, kPagesPerBlock);
  ASSERT_LT(b, kPagesPerBlock);
  zone_->IsolateFreeRange(0, kPagesPerBlock);
  const MigrateOutcome out =
      MigrateOutOfRange(*memmap_, *zone_, *zone_, 0, kPagesPerBlock, cost_, &registry_);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.cost, cost_.MigrateFolio(1) + cost_.MigrateFolio(1u << kThpOrder));
}

TEST_F(MigrationTest, OrderZeroRunsMoveInPageOrderAndPayPerFolio) {
  // Block 0 from pfn 0: a file run of eight pages whose page 3 was freed
  // and refilled under slot 100 (a slot gap), an anon page, a THP at 512
  // and a kernel page at 1024.  A placeholder takes 9..511 so the THP and
  // the kernel page land above it, then goes.
  const std::vector<Pfn> file = AllocPfns(*zone_, 8, PageKind::kFile, 5, 0);
  ASSERT_EQ(file.size(), 8u);
  ASSERT_EQ(file[0], 0u);
  zone_->Free(file[3]);
  ASSERT_EQ(zone_->Alloc(0, PageKind::kFile, 5, 100), file[3]);
  ASSERT_EQ(zone_->Alloc(0, PageKind::kAnon, 6, 0), 8u);
  const std::vector<Pfn> placeholder = AllocPfns(*zone_, 503, PageKind::kAnon, 7, 0);
  ASSERT_EQ(placeholder.size(), 503u);
  ASSERT_EQ(zone_->Alloc(kThpOrder, PageKind::kAnon, 6, 1), 512u);
  ASSERT_EQ(zone_->Alloc(0, PageKind::kKernel, kNoOwner, 0), 1024u);
  for (const Pfn pfn : placeholder) {
    zone_->Free(pfn);
  }
  zone_->IsolateFreeRange(0, kPagesPerBlock);

  const MigrateOutcome out =
      MigrateOutOfRange(*memmap_, *zone_, *zone_, 0, kPagesPerBlock, cost_, &registry_);
  EXPECT_FALSE(out.ok);  // The kernel page ends the walk after the rest moved.
  EXPECT_EQ(out.folios_moved, 10u);
  EXPECT_EQ(out.pages_moved, 9u + (1u << kThpOrder));
  EXPECT_EQ(out.cost, 9 * cost_.MigrateFolio(1) + cost_.MigrateFolio(1u << kThpOrder));
  const uint32_t want_slots[] = {0, 1, 2, 100, 4, 5, 6, 7};
  ASSERT_EQ(registry_.moves.size(), 10u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(registry_.moves[i].kind, PageKind::kFile) << i;
    EXPECT_EQ(registry_.moves[i].owner, 5) << i;
    EXPECT_EQ(registry_.moves[i].slot, want_slots[i]) << i;
  }
  EXPECT_EQ(registry_.moves[8].kind, PageKind::kAnon);
  EXPECT_EQ(registry_.moves[8].slot, 0u);
  EXPECT_EQ(registry_.moves[9].slot, 1u);
  for (const RecordingRegistry::Move& m : registry_.moves) {
    EXPECT_GE(m.to, kPagesPerBlock);
    const Page p = memmap_->page(m.to);
    EXPECT_EQ(p.state, PageState::kAllocated);
    EXPECT_EQ(p.owner_slot(), m.slot);
    EXPECT_TRUE(memmap_->host_populated(m.to));
  }
  EXPECT_EQ(memmap_->page(1024).state, PageState::kAllocated);
  EXPECT_EQ(memmap_->BlockOccupied(0), 1u);
  EXPECT_EQ(memmap_->CountBlockPages(0, PageState::kIsolated), kPagesPerBlock - 1u);
}

TEST_F(MigrationTest, TargetRunningDryMidRunMovesThePagesBefore) {
  // The target zone has room for 5 pages; an 8-page file run moves its
  // first 5 and stops.
  MemMap memmap(GiB(1));
  Zone src(0, ZoneType::kMovable, "src", &memmap);
  Zone dst(1, ZoneType::kMovable, "dst", &memmap);
  memmap.InitBlock(0);
  memmap.InitBlock(1);
  src.AddFreeRange(MemMap::BlockStart(0), kPagesPerBlock);
  dst.AddFreeRange(MemMap::BlockStart(1), kPagesPerBlock);
  ASSERT_EQ(AllocPfns(dst, kPagesPerBlock - 5, PageKind::kAnon, 9, 0).size(),
            kPagesPerBlock - 5);
  const std::vector<Pfn> file = AllocPfns(src, 8, PageKind::kFile, 5, 40);
  ASSERT_EQ(file.size(), 8u);
  src.IsolateFreeRange(0, kPagesPerBlock);

  const MigrateOutcome out =
      MigrateOutOfRange(memmap, src, dst, 0, kPagesPerBlock, cost_, &registry_);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.folios_moved, 5u);
  EXPECT_EQ(out.pages_moved, 5u);
  EXPECT_EQ(out.cost, 5 * cost_.MigrateFolio(1));
  EXPECT_EQ(out.pages_newly_backed, 5u);
  ASSERT_EQ(registry_.moves.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(registry_.moves[i].slot, 40 + i);
    EXPECT_EQ(memmap.page(file[i]).state, PageState::kIsolated);
  }
  for (uint32_t i = 5; i < 8; ++i) {
    EXPECT_EQ(memmap.page(file[i]).state, PageState::kAllocated);
    EXPECT_EQ(memmap.page(file[i]).owner_slot(), 40 + i);
  }
  EXPECT_EQ(dst.free_pages(), 0u);
  EXPECT_EQ(memmap.BlockOccupied(0), 3u);
  EXPECT_TRUE(dst.CheckFreeLists());
}

TEST_F(MigrationTest, NullRegistryIsAllowed) {
  zone_->Alloc(0, PageKind::kAnon, 1, 0);
  zone_->IsolateFreeRange(0, kPagesPerBlock);
  const MigrateOutcome out =
      MigrateOutOfRange(*memmap_, *zone_, *zone_, 0, kPagesPerBlock, cost_, nullptr);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.folios_moved, 1u);
}

TEST_F(MigrationTest, CrossZoneMigration) {
  // Target zone is a different zone (e.g. movable -> movable of another
  // span); folios land there and carry ownership.
  MemMap memmap(GiB(1));
  Zone src(0, ZoneType::kMovable, "src", &memmap);
  Zone dst(1, ZoneType::kMovable, "dst", &memmap);
  memmap.InitBlock(0);
  memmap.InitBlock(1);
  src.AddFreeRange(MemMap::BlockStart(0), kPagesPerBlock);
  dst.AddFreeRange(MemMap::BlockStart(1), kPagesPerBlock);

  const Pfn head = src.Alloc(4, PageKind::kAnon, 9, 2);
  ASSERT_NE(head, kInvalidPfn);
  src.IsolateFreeRange(0, kPagesPerBlock);
  RecordingRegistry reg;
  const MigrateOutcome out =
      MigrateOutOfRange(memmap, src, dst, 0, kPagesPerBlock, CostModel::Default(), &reg);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(reg.moves.size(), 1u);
  EXPECT_EQ(memmap.page(reg.moves[0].to).zone_id, 1);
  EXPECT_EQ(dst.allocated_pages(), 16u);
  // The source range is fully isolated and can be retired, emptying src.
  src.RetireRange(0, kPagesPerBlock);
  EXPECT_EQ(src.managed_pages(), 0u);
}

}  // namespace
}  // namespace squeezy
