// Unit tests for the hot(un)plug pipeline: add/online/offline/remove.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/hotplug/hotplug.h"
#include "src/mm/memmap.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"

namespace squeezy {
namespace {

class HotplugTest : public testing::Test {
 protected:
  void SetUp() override {
    memmap_ = std::make_unique<MemMap>(GiB(1));
    zone_ = std::make_unique<Zone>(0, ZoneType::kMovable, "mv", memmap_.get());
    host_ = std::make_unique<HostMemory>(GiB(8));
    hv_ = std::make_unique<Hypervisor>(host_.get(), &cost_);
    vm_ = hv_->RegisterVm("vm", 1);
    mgr_ = std::make_unique<HotplugManager>(memmap_.get(), &cost_, hv_.get(), vm_, nullptr);
  }

  void AddOnline(BlockIndex b) {
    mgr_->HotAddBlock(b);
    mgr_->OnlineBlock(b, zone_.get());
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<MemMap> memmap_;
  std::unique_ptr<Zone> zone_;
  std::unique_ptr<HostMemory> host_;
  std::unique_ptr<Hypervisor> hv_;
  VmId vm_ = 0;
  std::unique_ptr<HotplugManager> mgr_;
};

TEST_F(HotplugTest, HotAddTransitionsToPresentWithCost) {
  const DurationNs lat = mgr_->HotAddBlock(0);
  EXPECT_EQ(lat, cost_.block_hotadd);
  EXPECT_EQ(memmap_->block_state(0), BlockState::kPresent);
  EXPECT_EQ(mgr_->blocks_added(), 1u);
}

TEST_F(HotplugTest, OnlineReleasesPagesToZone) {
  mgr_->HotAddBlock(0);
  const DurationNs lat = mgr_->OnlineBlock(0, zone_.get());
  EXPECT_EQ(lat, cost_.block_online);
  EXPECT_EQ(memmap_->block_state(0), BlockState::kOnline);
  EXPECT_EQ(zone_->free_pages(), static_cast<uint64_t>(kPagesPerBlock));
}

TEST_F(HotplugTest, OfflineEmptyBlockNoMigrationZeroingChargesFreePages) {
  AddOnline(0);
  const OfflineResult res = mgr_->OfflineBlock(0, zone_.get(), zone_.get(), OfflineOptions{});
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.pages_migrated, 0u);
  EXPECT_EQ(res.breakdown.migration, 0);
  // All 32768 free pages get zeroed by the oblivious allocator path.
  EXPECT_EQ(res.breakdown.zeroing, cost_.ZeroPages(kPagesPerBlock));
  EXPECT_GT(res.breakdown.rest, 0);
  EXPECT_EQ(memmap_->block_state(0), BlockState::kOffline);
  EXPECT_EQ(zone_->managed_pages(), 0u);
}

TEST_F(HotplugTest, SkipZeroingEliminatesZeroCost) {
  AddOnline(0);
  const OfflineResult res = mgr_->OfflineBlock(0, zone_.get(), zone_.get(),
                                               OfflineOptions{/*skip_zeroing=*/true,
                                                              /*allow_migration=*/true});
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.breakdown.zeroing, 0);
}

TEST_F(HotplugTest, OfflineMigratesOccupiedFolios) {
  AddOnline(0);
  AddOnline(1);
  // Put two folios in block 0.
  const Pfn a = zone_->Alloc(kThpOrder, PageKind::kAnon, 1, 0);
  const Pfn b = zone_->Alloc(0, PageKind::kAnon, 1, 1);
  ASSERT_LT(a, kPagesPerBlock);
  ASSERT_LT(b, kPagesPerBlock);

  const OfflineResult res = mgr_->OfflineBlock(0, zone_.get(), zone_.get(), OfflineOptions{});
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.pages_migrated, (1u << kThpOrder) + 1u);
  EXPECT_EQ(res.folios_migrated, 2u);
  EXPECT_GT(res.breakdown.migration, 0);
  // The two folios now live in block 1, still allocated.
  EXPECT_EQ(zone_->allocated_pages(), (1u << kThpOrder) + 1u);
  EXPECT_EQ(memmap_->BlockOccupied(1), (1u << kThpOrder) + 1u);
}

TEST_F(HotplugTest, OfflineForbidMigrationFailsOnOccupiedBlock) {
  AddOnline(0);
  zone_->Alloc(0, PageKind::kAnon, 1, 0);
  const OfflineResult res = mgr_->OfflineBlock(0, zone_.get(), zone_.get(),
                                               OfflineOptions{/*skip_zeroing=*/false,
                                                              /*allow_migration=*/false});
  EXPECT_FALSE(res.ok);
  // Block restored to online, zone intact.
  EXPECT_EQ(memmap_->block_state(0), BlockState::kOnline);
  EXPECT_EQ(zone_->free_pages(), kPagesPerBlock - 1u);
  EXPECT_TRUE(zone_->CheckFreeLists());
}

TEST_F(HotplugTest, OfflineFailsWhenNowhereToMigrate) {
  AddOnline(0);  // Single block: migration has no target space.
  zone_->Alloc(0, PageKind::kAnon, 1, 0);
  const OfflineResult res = mgr_->OfflineBlock(0, zone_.get(), zone_.get(), OfflineOptions{});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(memmap_->block_state(0), BlockState::kOnline);
  EXPECT_TRUE(zone_->CheckFreeLists());
  // The allocation is still usable afterwards.
  EXPECT_NE(zone_->Alloc(0, PageKind::kAnon, 1, 1), kInvalidPfn);
}

TEST_F(HotplugTest, FailedOfflineStillCountsThePagesItMoved) {
  // Block 0 is full: a 20000-page file run, then anon pages.  Block 1 has
  // room for 5000 pages, so the migration runs dry inside the file run.
  AddOnline(0);
  std::vector<PageRun> runs;
  ASSERT_EQ(zone_->AllocPages(20000, PageKind::kFile, 3, 0, &runs), 20000u);
  ASSERT_EQ(zone_->AllocPages(kPagesPerBlock - 20000, PageKind::kAnon, 1, 0, &runs),
            kPagesPerBlock - 20000);
  AddOnline(1);
  ASSERT_EQ(zone_->AllocPages(kPagesPerBlock - 5000, PageKind::kAnon, 2, 0, &runs),
            kPagesPerBlock - 5000);

  const OfflineResult res = mgr_->OfflineBlock(0, zone_.get(), zone_.get(), OfflineOptions{});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.pages_migrated, 5000u);
  EXPECT_EQ(res.folios_migrated, 5000u);
  EXPECT_EQ(res.breakdown.migration, 5000 * cost_.MigrateFolio(1));
  // The moved pages stay moved, so the lifetime total counts them.
  EXPECT_EQ(mgr_->total_pages_migrated(), res.pages_migrated);
  EXPECT_EQ(memmap_->block_state(0), BlockState::kOnline);
  EXPECT_EQ(memmap_->BlockOccupied(0), kPagesPerBlock - 5000u);
  EXPECT_EQ(zone_->free_pages(), 5000u);
  EXPECT_TRUE(zone_->CheckFreeLists());
}

TEST_F(HotplugTest, OfflineFailsOnPinnedKernelPage) {
  AddOnline(0);
  AddOnline(1);
  const Pfn pinned = zone_->Alloc(0, PageKind::kKernel, kNoOwner, 0);
  ASSERT_LT(pinned, kPagesPerBlock);
  const OfflineResult res = mgr_->OfflineBlock(0, zone_.get(), zone_.get(), OfflineOptions{});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(memmap_->block_state(0), BlockState::kOnline);
}

TEST_F(HotplugTest, HotRemoveReleasesHostBacking) {
  AddOnline(0);
  // Touch some memory so the host backs it.
  const Pfn pfn = zone_->Alloc(kThpOrder, PageKind::kAnon, 1, 0);
  memmap_->SetHostPopulated(pfn, 1u << kThpOrder);
  hv_->NestedFaultPopulate(vm_, 1, PagesToBytes(1u << kThpOrder), 0);

  zone_->Free(pfn);
  const OfflineResult res = mgr_->OfflineBlock(0, zone_.get(), zone_.get(), OfflineOptions{});
  ASSERT_TRUE(res.ok);

  UnplugBreakdown bd;
  mgr_->HotRemoveBlock(0, &bd, Sec(1));
  EXPECT_EQ(bd.vm_exits, cost_.block_unplug_exit);
  EXPECT_EQ(memmap_->block_state(0), BlockState::kAbsent);
  EXPECT_EQ(mgr_->blocks_removed(), 1u);
  // Host backing flags cleared.
  EXPECT_FALSE(memmap_->host_populated(pfn));
}

TEST_F(HotplugTest, FullCycleAddOnlineOfflineRemoveRepeats) {
  for (int round = 0; round < 3; ++round) {
    AddOnline(2);
    EXPECT_EQ(zone_->free_pages(), static_cast<uint64_t>(kPagesPerBlock));
    const OfflineResult res = mgr_->OfflineBlock(2, zone_.get(), zone_.get(), OfflineOptions{});
    ASSERT_TRUE(res.ok);
    UnplugBreakdown bd;
    mgr_->HotRemoveBlock(2, &bd, 0);
    EXPECT_EQ(memmap_->block_state(2), BlockState::kAbsent);
    EXPECT_EQ(zone_->free_pages(), 0u);
  }
  EXPECT_EQ(mgr_->blocks_added(), 3u);
  EXPECT_EQ(mgr_->blocks_removed(), 3u);
}

TEST_F(HotplugTest, BreakdownTotalSumsSlices) {
  UnplugBreakdown bd;
  bd.zeroing = 1;
  bd.migration = 2;
  bd.vm_exits = 3;
  bd.rest = 4;
  EXPECT_EQ(bd.total(), 10);
  UnplugBreakdown other;
  other.zeroing = 10;
  bd.Add(other);
  EXPECT_EQ(bd.zeroing, 11);
  EXPECT_EQ(bd.total(), 20);
}

}  // namespace
}  // namespace squeezy
