// Unit tests for the virtio-balloon device.
#include <gtest/gtest.h>

#include <memory>

#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/hotplug/balloon.h"
#include "src/mm/memmap.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"

namespace squeezy {
namespace {

class BalloonTest : public testing::Test {
 protected:
  void SetUp() override {
    memmap_ = std::make_unique<MemMap>(GiB(1));
    zone_ = std::make_unique<Zone>(0, ZoneType::kMovable, "mv", memmap_.get());
    for (BlockIndex b = 0; b < 8; ++b) {
      memmap_->InitBlock(b);
      zone_->AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
    }
    host_ = std::make_unique<HostMemory>(GiB(8));
    hv_ = std::make_unique<Hypervisor>(host_.get(), &cost_);
    vm_ = hv_->RegisterVm("vm", 1);
    balloon_ = std::make_unique<BalloonDevice>(memmap_.get(), &cost_, hv_.get(), vm_);
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<MemMap> memmap_;
  std::unique_ptr<Zone> zone_;
  std::unique_ptr<HostMemory> host_;
  std::unique_ptr<Hypervisor> hv_;
  VmId vm_ = 0;
  std::unique_ptr<BalloonDevice> balloon_;
};

TEST_F(BalloonTest, InflateReservesPages) {
  const BalloonOutcome out = balloon_->Inflate(MiB(4), zone_.get(), 0);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.pages, MiB(4) / kPageSize);
  EXPECT_EQ(balloon_->held_pages(), out.pages);
  EXPECT_EQ(zone_->allocated_pages(), out.pages);
}

TEST_F(BalloonTest, PerPageCostDominatedByExits) {
  const BalloonOutcome out = balloon_->Inflate(MiB(8), zone_.get(), 0);
  const uint64_t pages = MiB(8) / kPageSize;
  EXPECT_EQ(out.breakdown.rest, static_cast<DurationNs>(pages) * cost_.balloon_guest_page);
  EXPECT_EQ(out.breakdown.vm_exits, static_cast<DurationNs>(pages) * cost_.balloon_exit_page);
  // Paper Fig 5: ~81% of balloon reclaim is exit/host work.
  const double exit_frac =
      static_cast<double>(out.breakdown.vm_exits) / static_cast<double>(out.latency());
  EXPECT_GT(exit_frac, 0.75);
  EXPECT_LT(exit_frac, 0.90);
}

TEST_F(BalloonTest, InflatedPagesAreUnmovableKernelPages) {
  balloon_->Inflate(kPageSize * 10, zone_.get(), 0);
  uint64_t kernel_pages = 0;
  for (Pfn pfn = 0; pfn < memmap_->span_pages(); ++pfn) {
    const Page p = memmap_->page(pfn);
    if (p.state == PageState::kAllocated && p.kind == PageKind::kKernel) {
      ++kernel_pages;
    }
  }
  EXPECT_EQ(kernel_pages, 10u);
}

TEST_F(BalloonTest, InflateReleasesHostBacking) {
  // Pre-populate host backing for the first block.
  hv_->NestedFaultPopulate(vm_, 1, kMemoryBlockBytes, 0);
  memmap_->SetHostPopulated(0, kPagesPerBlock);
  const uint64_t populated_before = host_->populated();
  balloon_->Inflate(MiB(4), zone_.get(), 0);
  EXPECT_EQ(host_->populated(), populated_before - MiB(4));
}

TEST_F(BalloonTest, InflateStallsWhenZoneExhausted) {
  // Drain the zone except a sliver.
  while (zone_->free_pages() > 100) {
    if (zone_->Alloc(kMaxPageOrder, PageKind::kAnon, 1, 0) == kInvalidPfn) {
      break;
    }
  }
  while (zone_->Alloc(0, PageKind::kAnon, 1, 0) != kInvalidPfn && zone_->free_pages() > 10) {
  }
  const BalloonOutcome out = balloon_->Inflate(MiB(1), zone_.get(), 0);
  EXPECT_FALSE(out.complete);
  EXPECT_LT(out.pages, MiB(1) / kPageSize);
}

TEST_F(BalloonTest, DeflateReturnsPages) {
  balloon_->Inflate(MiB(2), zone_.get(), 0);
  const uint64_t held = balloon_->held_pages();
  const DurationNs lat = balloon_->Deflate(MiB(1), zone_.get());
  EXPECT_GT(lat, 0);
  EXPECT_EQ(balloon_->held_pages(), held - MiB(1) / kPageSize);
  EXPECT_EQ(zone_->allocated_pages(), balloon_->held_pages());
}

TEST_F(BalloonTest, DeflateMoreThanHeldClamp) {
  balloon_->Inflate(MiB(1), zone_.get(), 0);
  balloon_->Deflate(MiB(100), zone_.get());
  EXPECT_EQ(balloon_->held_pages(), 0u);
  EXPECT_EQ(zone_->allocated_pages(), 0u);
  EXPECT_TRUE(zone_->CheckFreeLists());
}

TEST_F(BalloonTest, BatchingReducesNothingOnReleaseAccounting) {
  // Batching (HarvestVM-style ablation knob) changes how many reports the
  // pages go out in, not what they cost under one cost model or how much
  // memory the host releases.  Twin guests, half of whose first block is
  // host-backed, inflate the same 4 MiB at batch 1 and at batch 256.
  struct Guest {
    explicit Guest(const CostModel* cost)
        : memmap(GiB(1)), zone(0, ZoneType::kMovable, "mv", &memmap), host(GiB(8)),
          hv(&host, cost) {
      memmap.InitBlock(0);
      zone.AddFreeRange(0, kPagesPerBlock);
      vm = hv.RegisterVm("vm", 1);
      hv.NestedFaultPopulate(vm, 1, PagesToBytes(kPagesPerBlock / 2), 0);
      memmap.SetHostPopulated(0, kPagesPerBlock / 2);
    }
    MemMap memmap;
    Zone zone;
    HostMemory host;
    Hypervisor hv;
    VmId vm = 0;
  };
  CostModel batched = cost_;
  batched.balloon_batch_pages = 256;
  Guest one(&cost_);
  Guest many(&batched);
  BalloonDevice one_dev(&one.memmap, &cost_, &one.hv, one.vm);
  BalloonDevice many_dev(&many.memmap, &batched, &many.hv, many.vm);
  const BalloonOutcome a = one_dev.Inflate(MiB(4), &one.zone, 0);
  const BalloonOutcome b = many_dev.Inflate(MiB(4), &many.zone, 0);
  EXPECT_TRUE(b.complete);
  EXPECT_EQ(b.pages, MiB(4) / kPageSize);
  EXPECT_EQ(b.pages, a.pages);
  EXPECT_LT(many.host.populated(), PagesToBytes(kPagesPerBlock / 2));
  EXPECT_EQ(many.host.populated(), one.host.populated());
  EXPECT_EQ(many.hv.stats(many.vm).populated_bytes, one.hv.stats(one.vm).populated_bytes);
  EXPECT_EQ(b.breakdown.vm_exits, a.breakdown.vm_exits);
  EXPECT_EQ(b.breakdown.rest, a.breakdown.rest);
}

TEST_F(BalloonTest, ScalingIsLinearInSize) {
  const BalloonOutcome small = balloon_->Inflate(MiB(8), zone_.get(), 0);
  BalloonDevice dev2(memmap_.get(), &cost_, hv_.get(), vm_);
  const BalloonOutcome big = dev2.Inflate(MiB(32), zone_.get(), 0);
  EXPECT_NEAR(static_cast<double>(big.latency()) / static_cast<double>(small.latency()), 4.0,
              0.01);
}

}  // namespace
}  // namespace squeezy
