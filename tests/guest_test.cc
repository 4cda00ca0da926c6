// Unit/integration tests for the guest kernel: processes, fault paths,
// fork/exit, OOM, vanilla hot(un)plug policy.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/core/squeezy.h"
#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/sim/cost_model.h"

namespace squeezy {
namespace {

class GuestTest : public testing::Test {
 protected:
  void SetUp() override {
    host_ = std::make_unique<HostMemory>(GiB(32));
    hv_ = std::make_unique<Hypervisor>(host_.get(), &cost_);
    GuestConfig cfg;
    cfg.name = "test-vm";
    cfg.vcpus = 2;
    cfg.base_memory = MiB(512);
    cfg.hotplug_region = GiB(2);
    cfg.shuffle_allocator = false;  // Deterministic placement for tests.
    guest_ = std::make_unique<GuestKernel>(cfg, hv_.get());
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<HostMemory> host_;
  std::unique_ptr<Hypervisor> hv_;
  std::unique_ptr<GuestKernel> guest_;
};

TEST_F(GuestTest, BootBringsUpNormalZone) {
  // 512 MiB base minus the pinned kernel footprint is allocatable.
  EXPECT_EQ(guest_->normal_zone().managed_pages(), MiB(512) / kPageSize);
  EXPECT_GT(guest_->normal_zone().allocated_pages(), 0u);  // Kernel tax.
  EXPECT_EQ(guest_->movable_zone().managed_pages(), 0u);   // Nothing plugged.
  EXPECT_EQ(guest_->hotplug_first_block(), 4u);
  EXPECT_EQ(guest_->hotplug_nr_blocks(), 16u);
}

TEST_F(GuestTest, PlugGrowsMovableZone) {
  const PlugOutcome out = guest_->PlugMemory(MiB(768), 0);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(guest_->movable_zone().managed_pages(), MiB(768) / kPageSize);
  EXPECT_EQ(guest_->online_bytes(), MiB(512) + MiB(768));
}

TEST_F(GuestTest, TouchAnonFaultsThpFolios) {
  guest_->PlugMemory(MiB(256), 0);
  const Pid pid = guest_->CreateProcess();
  const TouchResult r = guest_->TouchAnon(pid, MiB(64), 0);
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(r.bytes, MiB(64));
  EXPECT_EQ(guest_->process(pid).anon_bytes(), MiB(64));
  EXPECT_GT(r.latency, 0);
  EXPECT_GT(r.nested, 0);  // Freshly plugged memory needs host backing.
  // THP-sized folios: 32 folios for 64 MiB.
  EXPECT_EQ(guest_->process(pid).folios().size(), 32u);
}

TEST_F(GuestTest, SecondTouchHasNoNestedFaults) {
  guest_->PlugMemory(MiB(256), 0);
  const Pid a = guest_->CreateProcess();
  guest_->TouchAnon(a, MiB(64), 0);
  guest_->Exit(a);
  // Same memory re-touched: host backing already present.
  const Pid b = guest_->CreateProcess();
  const TouchResult r = guest_->TouchAnon(b, MiB(64), 0);
  EXPECT_EQ(r.nested, 0);
}

TEST_F(GuestTest, SubPageRoundingAndSmallTouches) {
  guest_->PlugMemory(MiB(128), 0);
  const Pid pid = guest_->CreateProcess();
  const TouchResult r = guest_->TouchAnon(pid, 1, 0);  // One byte -> one page.
  EXPECT_EQ(r.bytes, kPageSize);
  const TouchResult r2 = guest_->TouchAnon(pid, kPageSize * 3, 0);
  EXPECT_EQ(r2.bytes, kPageSize * 3);
  EXPECT_EQ(guest_->process(pid).anon_bytes(), kPageSize * 4);
}

TEST_F(GuestTest, AnonSpillsToNormalZoneWhenMovableFull) {
  guest_->PlugMemory(kMemoryBlockBytes, 0);  // 128 MiB movable.
  const Pid pid = guest_->CreateProcess();
  const TouchResult r = guest_->TouchAnon(pid, MiB(192), 0);
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(guest_->process(pid).anon_bytes(), MiB(192));
  EXPECT_GT(guest_->normal_zone().allocated_pages(), MiB(64) / kPageSize);
}

TEST_F(GuestTest, OomKillsProcessWhenEverythingFull) {
  guest_->PlugMemory(kMemoryBlockBytes, 0);
  const Pid pid = guest_->CreateProcess();
  // Demand far beyond base + plugged.
  const TouchResult r = guest_->TouchAnon(pid, GiB(1), 0);
  EXPECT_TRUE(r.oom);
  EXPECT_EQ(guest_->process(pid).state(), ProcessState::kOomKilled);
  EXPECT_FALSE(guest_->Alive(pid));
  // Its memory was released.
  EXPECT_EQ(guest_->process(pid).anon_bytes(), 0u);
}

TEST_F(GuestTest, ExitFreesAllAnonMemory) {
  guest_->PlugMemory(MiB(256), 0);
  const Pid pid = guest_->CreateProcess();
  guest_->TouchAnon(pid, MiB(100), 0);
  const uint64_t allocated_before = guest_->movable_zone().allocated_pages();
  EXPECT_GT(allocated_before, 0u);
  EXPECT_GT(guest_->process(pid).folios().capacity(), 0u);
  guest_->Exit(pid);
  EXPECT_EQ(guest_->movable_zone().allocated_pages(), 0u);
  EXPECT_EQ(guest_->live_process_count(), 0u);
  EXPECT_TRUE(guest_->movable_zone().CheckFreeLists());
  // The exited process keeps no folio-table memory.
  EXPECT_EQ(guest_->process(pid).folios().capacity(), 0u);
  EXPECT_EQ(guest_->process(pid).anon_pages(), 0u);
}

TEST_F(GuestTest, FreeAnonPartialRelease) {
  guest_->PlugMemory(MiB(256), 0);
  const Pid pid = guest_->CreateProcess();
  guest_->TouchAnon(pid, MiB(100), 0);
  const uint64_t freed = guest_->FreeAnon(pid, MiB(40));
  EXPECT_GE(freed, MiB(40));
  EXPECT_LE(freed, MiB(42));  // Folio granularity.
  EXPECT_EQ(guest_->process(pid).anon_bytes(), MiB(100) - freed);
}

TEST_F(GuestTest, TouchFilePopulatesSharedCacheOnce) {
  guest_->PlugMemory(MiB(256), 0);
  const int32_t file = guest_->CreateFile("deps", MiB(32));
  const Pid a = guest_->CreateProcess();
  const TouchResult first = guest_->TouchFile(a, file, MiB(32), 0);
  EXPECT_EQ(guest_->page_cache().cached_pages(file), MiB(32) / kPageSize);

  const Pid b = guest_->CreateProcess();
  const TouchResult second = guest_->TouchFile(b, file, MiB(32), 0);
  // Cache hit: no IO, dramatically cheaper (this is the N:1 sharing win).
  EXPECT_LT(second.latency, first.latency / 10);
  // Cache population is not duplicated.
  EXPECT_EQ(guest_->page_cache().cached_pages(file), MiB(32) / kPageSize);
}

// Every page's view and host bit, one block at a time.
struct GuestMmSnapshot {
  explicit GuestMmSnapshot(const MemMap& m) : pages(m.span_pages()), host(m.span_pages()) {
    for (BlockIndex b = 0; b < m.block_count(); ++b) {
      m.ReadBlock(b, &pages[MemMap::BlockStart(b)]);
    }
    for (Pfn pfn = 0; pfn < m.span_pages(); ++pfn) {
      host[pfn] = m.host_populated(pfn);
    }
  }
  std::vector<Page> pages;
  std::vector<bool> host;
};

TEST_F(GuestTest, DropFileCacheFreesEveryRunAndReleasesItsBacking) {
  guest_->PlugMemory(MiB(256), 0);
  const Pid pid = guest_->CreateProcess();
  const uint64_t file_pages = MiB(12) / kPageSize;
  const int32_t file = guest_->CreateFile("dep-image", MiB(12));
  // The first 1024 pages fill one max-order chunk.  The anon page then
  // splits the next chunk, so the rest of the file lands on its free
  // pieces and further chunks: runs of many sizes, with the anon page
  // between owner slots 1023 and 1024.
  guest_->TouchFile(pid, file, MiB(4), 0);
  ASSERT_FALSE(guest_->TouchAnon(pid, kPageSize, 0).oom);
  ASSERT_FALSE(guest_->TouchFile(pid, file, MiB(12), 0).oom);
  ASSERT_EQ(guest_->page_cache().cached_pages(file), file_pages);

  const MemMap& m = guest_->memmap();
  std::vector<bool> is_file(m.span_pages());
  uint64_t file_backed = 0;
  uint32_t runs = 0;
  Pfn prev = kInvalidPfn;
  for (uint64_t idx = 0; idx < file_pages; ++idx) {
    const Pfn pfn = guest_->page_cache().Lookup(file, idx);
    ASSERT_EQ(m.page(pfn).owner_slot(), idx);
    is_file[pfn] = true;
    file_backed += m.host_populated(pfn) ? 1 : 0;
    runs += prev + 1 != pfn ? 1 : 0;
    prev = pfn;
  }
  EXPECT_GT(runs, 1u) << "the file must span several runs";
  EXPECT_GT(file_backed, 0u);
  const GuestMmSnapshot before(m);
  const uint64_t free_before = guest_->movable_zone().free_pages();
  const uint64_t host_before = host_->populated();

  EXPECT_EQ(guest_->DropFileCache(file, Msec(1)), MiB(12));
  EXPECT_EQ(guest_->page_cache().cached_pages(file), 0u);
  EXPECT_EQ(guest_->movable_zone().free_pages(), free_before + file_pages);
  EXPECT_TRUE(guest_->movable_zone().CheckFreeLists());
  EXPECT_TRUE(guest_->normal_zone().CheckFreeLists());
  // Only the file's own backed pages go back to the host, in one madvise.
  EXPECT_EQ(host_before - host_->populated(), PagesToBytes(file_backed));

  // Every file page is free and unbacked; every other page is allocated
  // and backed exactly as before; and the free chunks are coalesced as far
  // as the buddy rule allows.
  const GuestMmSnapshot after(m);
  for (Pfn pfn = 0; pfn < m.span_pages(); ++pfn) {
    const Page& p = after.pages[pfn];
    const Page& q = before.pages[pfn];
    ASSERT_FALSE(p.run) << "pfn " << pfn;
    if (is_file[pfn]) {
      ASSERT_EQ(p.state, PageState::kFree) << "pfn " << pfn;
      ASSERT_FALSE(after.host[pfn]) << "pfn " << pfn;
      continue;
    }
    ASSERT_EQ(after.host[pfn], before.host[pfn]) << "pfn " << pfn;
    ASSERT_EQ(p.state, q.state) << "pfn " << pfn;
    if (p.state == PageState::kAllocated) {
      ASSERT_TRUE(p.kind == q.kind && p.order == q.order && p.head == q.head &&
                  p.zone_id == q.zone_id && p.owner() == q.owner() &&
                  p.owner_slot() == q.owner_slot())
          << "pfn " << pfn;
    }
    if (p.state == PageState::kFree && p.head && p.order < kMaxPageOrder) {
      const Page& buddy = after.pages[pfn ^ (1u << p.order)];
      ASSERT_FALSE(buddy.state == PageState::kFree && buddy.head && buddy.order == p.order)
          << "pfn " << pfn << " left uncoalesced";
    }
  }
}

// The page cache holds a file as O(runs) extents, and dropping it frees
// each extent with one range free.
TEST_F(GuestTest, PageCacheExtentsCountRunsNotPages) {
  guest_->PlugMemory(MiB(256), 0);
  const Pid pid = guest_->CreateProcess();
  PageCache& pc = guest_->page_cache();
  MemMap& m = guest_->memmap();

  // A file filled from one max-order chunk is one extent, and dropping it
  // frees that chunk with one record, not one per page.
  const int32_t dropped = guest_->CreateFile("dropped", MiB(4));
  ASSERT_FALSE(guest_->TouchFile(pid, dropped, MiB(4), 0).oom);
  EXPECT_EQ(pc.extent_count(dropped), 1u);
  const uint64_t records = m.records_written();
  EXPECT_EQ(guest_->DropFileCache(dropped, 0), MiB(4));
  EXPECT_LE(m.records_written() - records, 2u);
  EXPECT_EQ(pc.extent_count(dropped), 0u);

  // Migrated onto n target chunks, a one-extent file is n extents.  The
  // target zone's free space is 64 order-8 chunks, no two adjacent.
  const int32_t moved = guest_->CreateFile("moved", MiB(4));
  ASSERT_FALSE(guest_->TouchFile(pid, moved, MiB(4), 0).oom);
  ASSERT_EQ(pc.extent_count(moved), 1u);
  Zone* target = guest_->CreateZone(ZoneType::kMovable, "target");
  const BlockIndex tb = guest_->hotplug_first_block() + 2;
  m.InitBlock(tb);
  target->AddFreeRange(MemMap::BlockStart(tb), kPagesPerBlock);
  m.set_block_state(tb, BlockState::kOnline);
  std::vector<Pfn> quarters;
  for (uint32_t i = 0; i < kPagesPerBlock / 256; ++i) {
    quarters.push_back(target->Alloc(8, PageKind::kKernel, kNoOwner, 0));
  }
  for (size_t i = 1; i < quarters.size(); i += 2) {
    target->Free(quarters[i]);
  }
  const uint64_t target_free = target->free_pages();
  const Pfn src = MemMap::BlockStart(MemMap::BlockOf(pc.Lookup(moved, 0)));
  Zone& movable = guest_->movable_zone();
  movable.IsolateFreeRange(src, kPagesPerBlock);
  const MigrateOutcome out = MigrateOutOfRange(m, movable, *target, src, kPagesPerBlock,
                                               guest_->cost(), guest_.get());
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.pages_moved, 1024u);
  EXPECT_EQ(pc.extent_count(moved), 4u);
  for (uint64_t idx = 0; idx < 1024; ++idx) {
    const Pfn pfn = pc.Lookup(moved, idx);
    ASSERT_EQ(MemMap::BlockOf(pfn), tb) << "page " << idx;
    ASSERT_EQ(m.page(pfn).owner_slot(), idx) << "page " << idx;
  }
  movable.UndoIsolation(src, kPagesPerBlock);

  // The drop frees the moved pages back into the target zone.
  EXPECT_EQ(guest_->DropFileCache(moved, 0), MiB(4));
  EXPECT_EQ(target->free_pages(), target_free);
  EXPECT_EQ(target->free_chunks(8), kPagesPerBlock / 512);
  EXPECT_TRUE(target->CheckFreeLists());
  EXPECT_TRUE(movable.CheckFreeLists());
}

TEST_F(GuestTest, FileRereadCostsScaleWithSize) {
  guest_->PlugMemory(MiB(512), 0);
  const int32_t small = guest_->CreateFile("small", MiB(8));
  const int32_t large = guest_->CreateFile("large", MiB(64));
  const Pid pid = guest_->CreateProcess();
  const DurationNs small_cost = guest_->TouchFile(pid, small, MiB(8), 0).latency;
  const DurationNs large_cost = guest_->TouchFile(pid, large, MiB(64), 0).latency;
  EXPECT_NEAR(static_cast<double>(large_cost) / static_cast<double>(small_cost), 8.0, 0.5);
}

TEST_F(GuestTest, ForkSharesPartitionAndFiles) {
  const int32_t file = guest_->CreateFile("lib", MiB(1));
  const Pid parent = guest_->CreateProcess();
  guest_->process(parent).MapFile(file);
  const Pid child = guest_->Fork(parent);
  EXPECT_EQ(guest_->process(child).parent(), parent);
  EXPECT_EQ(guest_->process(child).files().size(), 1u);
  EXPECT_EQ(guest_->live_process_count(), 2u);
}

TEST_F(GuestTest, VanillaUnplugAfterProcessExitMigratesSurvivors) {
  guest_->PlugMemory(MiB(512), 0);
  // Two processes interleave (ascending allocation interleaves at folio
  // granularity as they alternate), filling 3 of the 4 plugged blocks.
  const Pid a = guest_->CreateProcess();
  const Pid b = guest_->CreateProcess();
  for (int i = 0; i < 24; ++i) {
    guest_->TouchAnon(a, MiB(8), 0);
    guest_->TouchAnon(b, MiB(8), 0);
  }
  // Kill A; reclaim more than the fully-free spare block so at least one
  // half-occupied block must be evacuated.
  guest_->Exit(a);
  const UnplugOutcome out = guest_->UnplugMemory(MiB(256), 0);
  EXPECT_TRUE(out.complete);
  EXPECT_GT(out.pages_migrated, 0u);
  // B's memory is intact after the migration.
  EXPECT_EQ(guest_->process(b).anon_bytes(), MiB(192));
  // Every folio B owns is still allocated and owned by B.
  for (const FolioRef& f : guest_->process(b).folios()) {
    if (f.head == kInvalidPfn) {
      continue;
    }
    const Page p = guest_->memmap().page(f.head);
    EXPECT_EQ(p.state, PageState::kAllocated);
    EXPECT_EQ(p.owner(), b);
  }
}

TEST_F(GuestTest, BalloonReclaimShrinksMovable) {
  guest_->PlugMemory(MiB(256), 0);
  const BalloonOutcome out = guest_->BalloonReclaim(MiB(64), 0);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(guest_->balloon().held_bytes(), MiB(64));
}

TEST_F(GuestTest, AllocatedBytesAccountsAllZones) {
  guest_->PlugMemory(MiB(256), 0);
  const uint64_t boot = guest_->allocated_bytes();
  const Pid pid = guest_->CreateProcess();
  guest_->TouchAnon(pid, MiB(32), 0);
  EXPECT_EQ(guest_->allocated_bytes(), boot + MiB(32));
}

TEST_F(GuestTest, NestedFaultLatencyMatchesBackingGranules) {
  guest_->PlugMemory(MiB(256), 0);
  const Pid pid = guest_->CreateProcess();
  const TouchResult r = guest_->TouchAnon(pid, MiB(64), 0);
  // One exit per backing granule of freshly plugged memory.
  const int64_t granules = static_cast<int64_t>(MiB(64) / cost_.host_thp_bytes);
  EXPECT_EQ(r.nested, granules * cost_.nested_fault_exit);
}

TEST_F(GuestTest, LargeHostGranulesFaultOncePerGranule) {
  cost_.host_thp_bytes = MiB(2);
  guest_->PlugMemory(MiB(256), 0);
  const uint64_t before = host_->populated();
  const Pid pid = guest_->CreateProcess();
  const TouchResult r = guest_->TouchAnon(pid, MiB(64), 0);
  EXPECT_EQ(r.nested, 32 * cost_.nested_fault_exit);
  EXPECT_EQ(host_->populated(), before + MiB(64));
  // A 4 KiB touch inside a fresh granule backs the whole granule once.
  guest_->FreeAnon(pid, MiB(64));
  EXPECT_EQ(guest_->TouchAnon(pid, MiB(64), 0).nested, 0);
  const Pid small = guest_->CreateProcess();
  EXPECT_EQ(guest_->TouchAnon(small, kPageSize, 0).nested, cost_.nested_fault_exit);
  EXPECT_EQ(host_->populated(), before + MiB(66));
}

TEST_F(GuestTest, HostPopulationGrowsWithTouches) {
  guest_->PlugMemory(MiB(256), 0);
  const uint64_t before = host_->populated();
  const Pid pid = guest_->CreateProcess();
  guest_->TouchAnon(pid, MiB(64), 0);
  EXPECT_EQ(host_->populated(), before + MiB(64));
  // Unplug after exit releases it back.
  guest_->Exit(pid);
  guest_->UnplugMemory(MiB(256), 0);
  EXPECT_EQ(host_->populated(), before);
}

// A Squeezy partition's last exit drains its zone through Zone::FreeAll:
// every slot it empties is one free max-order extent again and stores no
// record past its start, so the unplug that follows does no per-page work.
// An exit that leaves pages behind in its zone frees folio by folio.
TEST(GuestSqueezyExitTest, SoleOccupantExitLeavesPartitionSlotsWhole) {
  HostMemory host(GiB(16));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  SqueezyConfig scfg;
  scfg.partition_bytes = MiB(256);  // 2 blocks.
  scfg.nr_partitions = 2;
  scfg.shared_bytes = MiB(256);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = scfg.region_bytes();
  cfg.shuffle_allocator = false;
  GuestKernel guest(cfg, &hv);
  SqueezyManager sqz(&guest, scfg);
  guest.PlugMemory(scfg.partition_bytes, 0);
  const MemMap& memmap = guest.memmap();
  const uint64_t stored_before = memmap.storage_bytes();

  const Pid parent = guest.CreateProcess();
  ASSERT_TRUE(sqz.SqueezyEnable(parent).has_value());
  guest.TouchAnon(parent, MiB(200), 0);  // Spans both blocks.
  const Pid child = guest.Fork(parent);
  guest.TouchAnon(child, MiB(20), 0);
  const Partition& part = sqz.partition(0);
  const BlockIndex first = part.first_block;
  const uint64_t stored_touched = memmap.storage_bytes();
  ASSERT_GT(stored_touched, stored_before);

  // The child still holds pages in the zone: per-folio frees, which merge
  // the slots they empty.
  guest.Exit(parent);
  EXPECT_EQ(memmap.BlockOccupied(first), 0u);
  EXPECT_LT(memmap.storage_bytes(), stored_touched);
  EXPECT_GT(memmap.storage_bytes(), stored_before);
  EXPECT_TRUE(part.zone->CheckFreeLists());

  // The sole occupant's exit drains the zone whole.
  const uint32_t populated = memmap.BlockPopulated(first + 1);
  EXPECT_GT(populated, 0u);
  guest.Exit(child);
  EXPECT_EQ(part.zone->allocated_pages(), 0u);
  EXPECT_EQ(memmap.storage_bytes(), stored_before);
  EXPECT_TRUE(part.zone->CheckFreeLists());
  EXPECT_EQ(part.zone->free_chunks(kMaxPageOrder), 64u);
  const Page p = memmap.page(MemMap::BlockStart(first + 1));
  EXPECT_EQ(p.state, PageState::kFree);
  EXPECT_TRUE(p.head);
  EXPECT_EQ(p.zone_id, part.zone->id());
  EXPECT_EQ(memmap.BlockPopulated(first + 1), populated);  // Backing stays.

  const uint64_t host_before = host.populated();
  const UnplugOutcome out = guest.UnplugMemory(scfg.partition_bytes, 0);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.pages_migrated, 0u);
  EXPECT_EQ(part.state, PartitionState::kUnplugged);
  EXPECT_EQ(memmap.page(MemMap::BlockStart(first)).state, PageState::kHole);
  EXPECT_LT(host.populated(), host_before);
  EXPECT_EQ(memmap.BlockPopulated(first), 0u);
  EXPECT_EQ(memmap.BlockPopulated(first + 1), 0u);
}

}  // namespace
}  // namespace squeezy
