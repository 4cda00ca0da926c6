// Randomized property tests (parameterized sweeps): the system-wide
// invariants of DESIGN.md §6 must survive arbitrary operation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/squeezy.h"
#include "src/faas/function.h"
#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/hotplug/balloon.h"
#include "src/hotplug/hotplug.h"
#include "src/mm/memmap.h"
#include "src/mm/migration.h"
#include "src/mm/page_cache.h"
#include "src/mm/zone.h"
#include "src/sim/cpu_accountant.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/sharded_event_queue.h"
#include "src/trace/cluster_trace.h"
#include "tests/oracles/dense_memmap.h"
#include "tests/oracles/dense_page_cache.h"
#include "tests/oracles/heap_event_queue.h"
#include "tests/oracles/idle_scan.h"
#include "tests/oracles/scan_placement.h"
#include "tests/support/cluster_churn.h"

namespace squeezy {
namespace {

// --- Vanilla guest fuzz: mixed process/file/hotplug/balloon ops ---------------

class GuestFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(GuestFuzzTest, MixedOperationsKeepInvariants) {
  const uint64_t seed = GetParam();
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(2);
  cfg.seed = seed;
  cfg.unplug_timeout = Minutes(1);
  GuestKernel guest(cfg, &hv);
  guest.PlugMemory(MiB(512), 0);

  Rng rng(seed * 2654435761ull + 1);
  std::vector<Pid> live;
  std::vector<int32_t> files;
  files.push_back(guest.CreateFile("f0", MiB(32)));

  for (int step = 0; step < 300; ++step) {
    switch (rng.UniformInt(0, 6)) {
      case 0: {  // Spawn + touch.
        const Pid pid = guest.CreateProcess();
        guest.TouchAnon(pid, static_cast<uint64_t>(rng.UniformInt(1, 64)) * MiB(1), 0);
        if (guest.Alive(pid)) {
          live.push_back(pid);
        }
        break;
      }
      case 1: {  // Exit.
        if (!live.empty()) {
          const size_t i =
              static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
          guest.Exit(live[i]);
          live[i] = live.back();
          live.pop_back();
        }
        break;
      }
      case 2: {  // Partial free + re-touch.
        if (!live.empty()) {
          const Pid pid = live[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
          const uint64_t freed = guest.FreeAnon(pid, MiB(8));
          guest.TouchAnon(pid, freed, 0);
          if (!guest.Alive(pid)) {
            for (size_t i = 0; i < live.size(); ++i) {
              if (live[i] == pid) {
                live[i] = live.back();
                live.pop_back();
                break;
              }
            }
          }
        }
        break;
      }
      case 3: {  // File touch (shared cache).
        if (!live.empty()) {
          const Pid pid = live[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
          guest.TouchFile(pid, files[0], MiB(16), 0);
        }
        break;
      }
      case 4:  // Plug.
        guest.PlugMemory(kMemoryBlockBytes, 0);
        break;
      case 5:  // Unplug (may migrate or fail under pressure: both legal).
        guest.UnplugMemory(kMemoryBlockBytes, 0);
        break;
      case 6:  // Balloon round-trip.
        guest.BalloonReclaim(MiB(16), 0);
        guest.balloon().Deflate(MiB(16), &guest.movable_zone());
        break;
    }
    // Invariants checked every step.
    ASSERT_TRUE(guest.movable_zone().CheckFreeLists());
    ASSERT_TRUE(guest.normal_zone().CheckFreeLists());
    // Occupancy counters match full scans on a sampled block.
    const BlockIndex b = static_cast<BlockIndex>(
        rng.UniformInt(0, static_cast<int64_t>(guest.memmap().block_count()) - 1));
    if (guest.memmap().block_state(b) == BlockState::kOnline) {
      ASSERT_EQ(guest.memmap().BlockOccupied(b),
                guest.memmap().CountBlockPages(b, PageState::kAllocated));
    }
  }
  // Tear down everything: zones must drain to zero allocations.
  for (const Pid pid : live) {
    guest.Exit(pid);
  }
  guest.balloon().Deflate(GiB(1), &guest.movable_zone());
  EXPECT_EQ(guest.movable_zone().allocated_pages(),
            guest.page_cache().total_cached_pages());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestFuzzTest, testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// --- Squeezy fuzz across partition geometries ---------------------------------

class SqueezyFuzzTest
    : public testing::TestWithParam<std::tuple<uint64_t /*partition MiB*/, uint32_t /*N*/,
                                               uint64_t /*seed*/>> {};

TEST_P(SqueezyFuzzTest, PartitionStateMachineConsistent) {
  const auto [part_mib, nr, seed] = GetParam();
  HostMemory host(GiB(96));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  SqueezyConfig scfg;
  scfg.partition_bytes = part_mib * MiB(1);
  scfg.nr_partitions = nr;
  scfg.shared_bytes = MiB(128);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = scfg.region_bytes();
  cfg.seed = seed;
  GuestKernel guest(cfg, &hv);
  SqueezyManager sqz(&guest, scfg);

  Rng rng(seed + 7);
  std::vector<Pid> live;
  for (int step = 0; step < 200; ++step) {
    const int64_t op = rng.UniformInt(0, 3);
    if (op == 0 && sqz.populated_partitions() < nr) {
      guest.PlugMemory(scfg.partition_bytes, 0);
    } else if (op == 1 && sqz.ready_partitions() > 0) {
      const Pid pid = guest.CreateProcess();
      ASSERT_TRUE(sqz.SqueezyEnable(pid).has_value());
      const uint64_t bytes =
          static_cast<uint64_t>(rng.UniformInt(1, static_cast<int64_t>(part_mib) - 32)) *
          MiB(1);
      ASSERT_FALSE(guest.TouchAnon(pid, bytes, 0).oom);
      live.push_back(pid);
    } else if (op == 2 && !live.empty()) {
      const size_t i =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      guest.Exit(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else if (op == 3 && sqz.ready_partitions() > 0) {
      const UnplugOutcome out = guest.UnplugMemory(scfg.partition_bytes, 0);
      ASSERT_EQ(out.pages_migrated, 0u);
    }

    // State-machine invariants.
    uint32_t assigned = 0;
    for (size_t p = 0; p < sqz.partition_count(); ++p) {
      const Partition& part = sqz.partition(static_cast<int32_t>(p));
      switch (part.state) {
        case PartitionState::kUnplugged:
          ASSERT_EQ(part.populated_blocks, 0u);
          ASSERT_EQ(part.users, 0u);
          break;
        case PartitionState::kPopulating:
          ASSERT_GT(part.populated_blocks, 0u);
          ASSERT_LT(part.populated_blocks, part.nr_blocks);
          break;
        case PartitionState::kReady:
          ASSERT_EQ(part.populated_blocks, part.nr_blocks);
          ASSERT_EQ(part.users, 0u);
          ASSERT_EQ(part.zone->allocated_pages(), 0u);
          break;
        case PartitionState::kAssigned:
          ASSERT_GT(part.users, 0u);
          ++assigned;
          break;
      }
    }
    ASSERT_EQ(assigned, live.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SqueezyFuzzTest,
    testing::Combine(testing::Values(128u, 256u, 768u), testing::Values(2u, 4u, 8u),
                     testing::Values(1u, 2u)),
    [](const testing::TestParamInfo<std::tuple<uint64_t, uint32_t, uint64_t>>& param_info) {
      return "p" + std::to_string(std::get<0>(param_info.param)) + "mib_n" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

// --- Reclaim-latency monotonicity sweep ----------------------------------------

class ReclaimScalingTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ReclaimScalingTest, SqueezyUnplugLinearInBlocks) {
  const uint64_t mib = GetParam();
  HostMemory host(GiB(96));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  SqueezyConfig scfg;
  scfg.partition_bytes = mib * MiB(1);
  scfg.nr_partitions = 2;
  scfg.shared_bytes = 0;
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = scfg.region_bytes();
  GuestKernel guest(cfg, &hv);
  SqueezyManager sqz(&guest, scfg);
  guest.PlugMemory(scfg.partition_bytes, 0);
  const UnplugOutcome out = guest.UnplugMemory(scfg.partition_bytes, 0);
  ASSERT_TRUE(out.complete);
  // Latency = request fixed + blocks * (scan + offline + exit).
  const DurationNs per_block = cost.isolate_page * kPagesPerBlock + cost.block_offline_fixed +
                               cost.block_unplug_exit;
  const DurationNs expected =
      cost.unplug_request_fixed + static_cast<DurationNs>(BytesToBlocks(mib * MiB(1))) * per_block;
  EXPECT_EQ(out.latency(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReclaimScalingTest,
                         testing::Values(128u, 256u, 512u, 1024u, 1536u, 2048u),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return std::to_string(param_info.param) + "mib";
                         });

// --- MemMap views: the shared checks of the mm oracles -----------------------

// ExpectSame holds two sets of MemMap + Zones to the same observables:
// free-list counts and linkage, per-state block page counts, the const
// view of every pfn, host bits and max-order links.  It also holds each
// set to the record rule (memmap.h): every page of an extent reads as the
// extent's start without the head flag and the links, or, in a run, as an
// order-0 head at the next owner slot; no view shows the run bit.  It
// folds the view into a digest that each test locks per seed, so a change
// of representation must keep every view of every step.
namespace mm_oracle {

constexpr uint32_t kBlocks = 6;
constexpr int16_t kZones = 2;

struct MmSet {
  MmSet(uint64_t shuffle_seed, bool shuffled)
      : shuffle_rng(shuffle_seed), memmap(kBlocks * kMemoryBlockBytes) {
    for (int16_t z = 0; z < kZones; ++z) {
      Rng* shuffle = shuffled ? &shuffle_rng : nullptr;
      zones.push_back(
          std::make_unique<Zone>(z, ZoneType::kMovable, "z", &memmap, shuffle));
    }
  }
  Rng shuffle_rng;
  MemMap memmap;
  std::vector<std::unique_ptr<Zone>> zones;
};

// Compares every field; `free` also carries an allocated head's owner.
// Host backing lives in the MemMap, not the Page; ExpectSame compares it.
bool SamePage(const Page& a, const Page& b) {
  return a.state == b.state && a.kind == b.kind && a.order == b.order &&
         a.head == b.head && a.zone_id == b.zone_id && a.free.next == b.free.next &&
         a.free.prev == b.free.prev;
}

// 64-bit FNV-1a, one word at a time.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
void Fold(uint64_t* digest, uint64_t word) { *digest = (*digest ^ word) * 0x100000001b3ull; }
void FoldPage(uint64_t* digest, const Page& p, bool populated) {
  Fold(digest, uint64_t{static_cast<uint8_t>(p.state)} |
                   uint64_t{static_cast<uint8_t>(p.kind)} << 4 | uint64_t{p.order} << 8 |
                   uint64_t{p.head} << 12 | uint64_t{populated} << 13 |
                   uint64_t{static_cast<uint16_t>(p.zone_id)} << 16);
  Fold(digest, uint64_t{p.free.next} | uint64_t{p.free.prev} << 32);
}
void FoldLinks(const MemMap& m, uint64_t* digest) {
  for (Pfn head = 0; head < m.span_pages(); head += 1u << kMaxPageOrder) {
    Fold(digest, uint64_t{m.max_link(head).next} | uint64_t{m.max_link(head).prev} << 32);
  }
}

// Every page of block b through ReadBlock, held to the record rule and
// checked against the point view at each extent's first and last page.
std::vector<Page> ReadRuled(const MemMap& m, BlockIndex b) {
  std::vector<Page> pages(kPagesPerBlock);
  m.ReadBlock(b, pages.data());
  for (const Page& p : pages) {
    EXPECT_FALSE(p.run) << "a view shows the run bit";
  }
  const Pfn base = MemMap::BlockStart(b);
  for (Pfn pfn = base; pfn < base + kPagesPerBlock;) {
    const Pfn next = m.NextExtent(pfn);
    EXPECT_GT(next, pfn);
    EXPECT_LE(next - pfn, MemMap::kSlotPages) << "pfn " << pfn;
    if (next <= pfn || next - pfn > MemMap::kSlotPages) {
      break;
    }
    const bool run = m.record(pfn).run;
    EXPECT_TRUE(!run || (pages[pfn - base].state == PageState::kAllocated && next - pfn > 1))
        << "pfn " << pfn;
    Page tail = pages[pfn - base];
    if (!run) {
      tail.head = false;
      tail.free = FreeLink{};
    }
    Pfn q = pfn + 1;
    for (; q < next; ++q) {
      if (run) {
        tail.SetOwner(tail.owner(), tail.owner_slot() + 1);
      }
      if (!SamePage(pages[q - base], tail)) {
        break;
      }
    }
    EXPECT_EQ(q, next) << "pfn " << q << " breaks the record rule of extent " << pfn;
    EXPECT_TRUE(SamePage(m.page(pfn), pages[pfn - base])) << "pfn " << pfn;
    EXPECT_TRUE(SamePage(m.page(next - 1), pages[next - 1 - base])) << "pfn " << next - 1;
    EXPECT_EQ(m.ExtentStart(next - 1), pfn);
    pfn = next;
  }
  return pages;
}

void ExpectSame(const MmSet& lazy, const MmSet& eager, int step, uint64_t* digest) {
  SCOPED_TRACE("step " + std::to_string(step));
  for (int16_t z = 0; z < kZones; ++z) {
    const Zone& lz = *lazy.zones[static_cast<size_t>(z)];
    const Zone& ez = *eager.zones[static_cast<size_t>(z)];
    ASSERT_TRUE(lz.CheckFreeLists());
    ASSERT_TRUE(ez.CheckFreeLists());
    ASSERT_EQ(lz.free_pages(), ez.free_pages());
    ASSERT_EQ(lz.managed_pages(), ez.managed_pages());
    for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
      ASSERT_EQ(lz.free_chunks(order), ez.free_chunks(order)) << "order " << int{order};
    }
  }
  const MemMap& lm = lazy.memmap;
  const MemMap& em = eager.memmap;
  for (BlockIndex b = 0; b < kBlocks; ++b) {
    for (const PageState st : {PageState::kHole, PageState::kFree, PageState::kAllocated,
                               PageState::kIsolated, PageState::kOffline}) {
      ASSERT_EQ(lm.CountBlockPages(b, st), em.CountBlockPages(b, st)) << "block " << b;
    }
  }
  for (BlockIndex b = 0; b < kBlocks; ++b) {
    const std::vector<Page> lp = ReadRuled(lm, b);
    const std::vector<Page> ep = ReadRuled(em, b);
    ASSERT_FALSE(testing::Test::HasFailure()) << "block " << b;
    for (uint32_t i = 0; i < kPagesPerBlock; ++i) {
      const Pfn pfn = MemMap::BlockStart(b) + i;
      const Page& p = lp[i];
      if (!SamePage(p, ep[i]) || lm.host_populated(pfn) != em.host_populated(pfn)) {
        FAIL() << "pfn " << pfn << " differs";
      }
      FoldPage(digest, p, lm.host_populated(pfn));
    }
  }
  for (Pfn head = 0; head < lm.span_pages(); head += 1u << kMaxPageOrder) {
    ASSERT_EQ(lm.max_link(head).next, em.max_link(head).next) << "pfn " << head;
    ASSERT_EQ(lm.max_link(head).prev, em.max_link(head).prev) << "pfn " << head;
  }
  FoldLinks(lm, digest);
}

// ExpectSame's checks and digest on one set: its free lists, the record
// rule, and every page view, host bit and max-order link folded in the
// same order.
void ExpectRuled(const MmSet& set, int step, uint64_t* digest) {
  SCOPED_TRACE("step " + std::to_string(step));
  for (const auto& zone : set.zones) {
    ASSERT_TRUE(zone->CheckFreeLists());
  }
  const MemMap& m = set.memmap;
  for (BlockIndex b = 0; b < kBlocks; ++b) {
    const std::vector<Page> pages = ReadRuled(m, b);
    ASSERT_FALSE(testing::Test::HasFailure()) << "block " << b;
    for (uint32_t i = 0; i < kPagesPerBlock; ++i) {
      FoldPage(digest, pages[i], m.host_populated(MemMap::BlockStart(b) + i));
    }
  }
  FoldLinks(m, digest);
}

// Allocates n single pages with one AllocPages; returns them in order.
std::vector<Pfn> AllocPfns(Zone& zone, uint32_t n, PageKind kind, int32_t owner,
                           uint32_t first_slot) {
  std::vector<PageRun> runs;
  const uint32_t taken = zone.AllocPages(n, kind, owner, first_slot, &runs);
  std::vector<Pfn> pfns;
  for (const PageRun& run : runs) {
    for (uint32_t i = 0; i < run.pages; ++i) {
      pfns.push_back(run.start + i);
    }
  }
  EXPECT_EQ(pfns.size(), taken);
  return pfns;
}

}  // namespace mm_oracle

// --- Zone script view digests ----------------------------------------------

// One random script of hot-add, online, Alloc at orders 0/9/10, Free,
// isolate + retire-or-undo and remove on one set, held after every op to
// the record rule and free-list linkage (mm_oracle::ExpectRuled), with the
// view digest of every step locked per seed and shuffle.  The digests were
// recorded when every page of an extent was still written, and held while
// untouched blocks kept a uniform template and touched ones a dense chunk,
// so they pin the views across every representation since.
class ZoneScriptDigestTest : public testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(ZoneScriptDigestTest, ViewsMatchLockedDigests) {
  const auto [seed, shuffled] = GetParam();
  using mm_oracle::kBlocks;
  using mm_oracle::kZones;
  uint64_t digest = mm_oracle::kFnvOffset;
  mm_oracle::MmSet set(seed + 17, shuffled);
  Rng rng(seed);
  std::vector<int16_t> block_zone(kBlocks, -1);
  struct Held {
    Pfn head;
    int16_t zone;
  };
  std::vector<Held> held;

  auto pick = [&rng](int64_t n) { return static_cast<size_t>(rng.UniformInt(0, n - 1)); };
  auto pick_block = [&](BlockState want) -> int64_t {
    std::vector<BlockIndex> cands;
    for (BlockIndex b = 0; b < kBlocks; ++b) {
      if (set.memmap.block_state(b) == want) {
        cands.push_back(b);
      }
    }
    if (cands.empty()) {
      return -1;
    }
    return cands[pick(static_cast<int64_t>(cands.size()))];
  };

  for (int step = 0; step < 160; ++step) {
    switch (rng.UniformInt(0, 6)) {
      case 0: {  // Hot-add.
        const int64_t b = pick_block(BlockState::kAbsent);
        if (b >= 0) {
          set.memmap.InitBlock(static_cast<BlockIndex>(b));
        }
        break;
      }
      case 1: {  // Online into a random zone.
        const int64_t b = pick_block(BlockState::kPresent);
        if (b >= 0) {
          const auto z = static_cast<int16_t>(rng.UniformInt(0, kZones - 1));
          block_zone[static_cast<size_t>(b)] = z;
          set.zones[static_cast<size_t>(z)]->AddFreeRange(
              MemMap::BlockStart(static_cast<BlockIndex>(b)), kPagesPerBlock);
          set.memmap.set_block_state(static_cast<BlockIndex>(b), BlockState::kOnline);
        }
        break;
      }
      case 2:
      case 3: {  // Alloc at order 0, 9 or 10.
        const uint8_t orders[] = {0, kThpOrder, kMaxPageOrder};
        const uint8_t order = orders[rng.UniformInt(0, 2)];
        const auto z = static_cast<int16_t>(rng.UniformInt(0, kZones - 1));
        const auto zi = static_cast<size_t>(z);
        const Pfn a = set.zones[zi]->Alloc(order, PageKind::kAnon, 1, 0);
        if (a != kInvalidPfn) {
          held.push_back({a, z});
          if (rng.Chance(0.5)) {  // Host-back the head, as a fault would.
            set.memmap.SetHostPopulated(a, 1);
          }
        }
        break;
      }
      case 4: {  // Free.
        if (!held.empty()) {
          const size_t i = pick(static_cast<int64_t>(held.size()));
          set.zones[static_cast<size_t>(held[i].zone)]->Free(held[i].head);
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      }
      case 5: {  // Offline: isolate, then retire (empty block) or undo.
        const int64_t b = pick_block(BlockState::kOnline);
        if (b >= 0) {
          const Pfn start = MemMap::BlockStart(static_cast<BlockIndex>(b));
          const auto z = static_cast<size_t>(block_zone[static_cast<size_t>(b)]);
          const uint64_t isolated = set.zones[z]->IsolateFreeRange(start, kPagesPerBlock);
          if (isolated == kPagesPerBlock && rng.Chance(0.7)) {
            set.zones[z]->RetireRange(start, kPagesPerBlock);
            set.memmap.set_block_state(static_cast<BlockIndex>(b), BlockState::kOffline);
          } else {
            set.zones[z]->UndoIsolation(start, kPagesPerBlock);
          }
        }
        break;
      }
      case 6: {  // Hot-remove an offline (or never-onlined) block.
        int64_t b = pick_block(BlockState::kOffline);
        if (b < 0) {
          b = pick_block(BlockState::kPresent);
        }
        if (b >= 0) {
          const auto rb = static_cast<BlockIndex>(b);
          const uint32_t populated = set.memmap.CountBlockPopulated(rb);
          ASSERT_EQ(set.memmap.RemoveBlock(rb), populated) << "step " << step;
        }
        break;
      }
    }
    mm_oracle::ExpectRuled(set, step, &digest);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The view digest of every step, by seed and shuffle.
  static const uint64_t kDigests[][2] = {
      {0x90a7281773166864ull, 0x83d3b9c4bd352978ull},
      {0x451cfbf044dc941dull, 0xd0f461ed3da036ccull},
      {0xc91e93c1ca41f324ull, 0xa927f4d27fd9c4bcull},
      {0x1516e54fe39f8bb7ull, 0xcffa5387bbe37f4eull},
  };
  EXPECT_EQ(digest, kDigests[seed - 1][shuffled ? 1 : 0]);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ZoneScriptDigestTest,
    testing::Combine(testing::Values(1u, 2u, 3u, 4u), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<uint64_t, bool>>& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_shuffled" : "_ascending");
    });

// Plugging and unplugging a block the guest never allocates from splits no
// slot: every slot stays one extent and stores nothing past its start.
TEST(UntouchedBlockTest, PlugUnplugNeverSplitsASlot) {
  HostMemory host(GiB(4));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  const VmId vm = hv.RegisterVm("vm", 1);
  MemMap memmap(GiB(1));
  Rng shuffle(5);
  Zone zone(0, ZoneType::kMovable, "mv", &memmap, &shuffle);
  HotplugManager mgr(&memmap, &cost, &hv, vm, nullptr);
  for (int round = 0; round < 3; ++round) {
    for (BlockIndex b = 2; b < 6; ++b) {
      mgr.HotAddBlock(b);
      mgr.OnlineBlock(b, &zone);
    }
    for (BlockIndex b = 2; b < 6; ++b) {
      const OfflineResult res = mgr.OfflineBlock(b, &zone, &zone, OfflineOptions{});
      ASSERT_TRUE(res.ok);
      EXPECT_EQ(res.pages_migrated, 0u);
      UnplugBreakdown bd;
      mgr.HotRemoveBlock(b, &bd, 0);
    }
  }
  EXPECT_EQ(mgr.blocks_removed(), 12u);
  EXPECT_EQ(memmap.materialized_peak_blocks(), 0u);
  EXPECT_EQ(memmap.materialized_peak_bytes(), 0u);
  EXPECT_EQ(zone.present_pages(), 0u);
}

// --- Record store vs the dense map ------------------------------------------

// MemMap keeps, per slot, its start record inline and the records past the
// start in an array sorted by offset, and Stamp drops the starts the new
// extent covers.  tests/oracles/dense_memmap.h keeps one Page per pfn,
// leaves covered records behind, and finds extents by tree descent.  Both
// maps take one random script of whole transitions, each leaving every
// slot tiled by stamped extents: hot-add and hot-remove, reset a slot to
// one extent, split a free extent into buddies, merge free buddies,
// allocate an extent as a folio or a run, free or isolate one, and cut a
// run around a range of its pages.  After each, every slot of the touched
// block must answer ExtentStart, page, record, NextExtent and ReadBlock
// alike.  Each step also writes the links of two records of one slot
// through two live mutable_record references, and checks that a record
// in another slot did not move.
namespace memmap_fuzz {

constexpr uint32_t kBlocks = 3;

// Every field, the run bit included.
bool SameRecord(const Page& a, const Page& b) {
  return a.state == b.state && a.kind == b.kind && a.order == b.order &&
         a.head == b.head && a.run == b.run && a.zone_id == b.zone_id &&
         a.free.next == b.free.next && a.free.prev == b.free.prev;
}

// Calls fn(pfn, order) for the largest aligned pieces of [start, start + n).
template <typename Fn>
void ForEachPiece(Pfn start, uint32_t n, Fn&& fn) {
  while (n > 0) {
    const auto align = static_cast<uint32_t>(__builtin_ctz(start | MemMap::kSlotPages));
    const auto fit = static_cast<uint32_t>(31 - __builtin_clz(n));
    const auto order = static_cast<uint8_t>(std::min(align, fit));
    fn(start, order);
    start += 1u << order;
    n -= 1u << order;
  }
}

void ExpectSameBlock(const MemMap& m, const DenseMemMap& d, BlockIndex b) {
  const Pfn base = MemMap::BlockStart(b);
  for (Pfn pfn = base; pfn < base + kPagesPerBlock; ++pfn) {
    ASSERT_EQ(m.ExtentStart(pfn), d.ExtentStart(pfn)) << "pfn " << pfn;
    ASSERT_TRUE(SameRecord(m.page(pfn), d.page(pfn))) << "pfn " << pfn;
  }
  for (Pfn pfn = base; pfn < base + kPagesPerBlock; pfn = d.NextExtent(pfn)) {
    ASSERT_TRUE(SameRecord(m.record(pfn), d.record(pfn))) << "pfn " << pfn;
    ASSERT_EQ(m.NextExtent(pfn), d.NextExtent(pfn)) << "pfn " << pfn;
  }
  std::vector<Page> mv(kPagesPerBlock);
  std::vector<Page> dv(kPagesPerBlock);
  m.ReadBlock(b, mv.data());
  d.ReadBlock(b, dv.data());
  for (uint32_t i = 0; i < kPagesPerBlock; ++i) {
    ASSERT_TRUE(SameRecord(mv[i], dv[i])) << "pfn " << base + i;
  }
}

}  // namespace memmap_fuzz

class MemMapVsDenseFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(MemMapVsDenseFuzzTest, StoreReadsAsTheDenseMap) {
  using memmap_fuzz::kBlocks;
  MemMap m(kBlocks * kMemoryBlockBytes);
  DenseMemMap d(kBlocks * kMemoryBlockBytes);
  EXPECT_EQ(m.storage_bytes(), 0u);
  Rng rng(GetParam());
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  auto both = [&](Pfn start, const Page& rec) {
    m.Stamp(start, rec);
    d.Stamp(start, rec);
  };
  auto make = [&](PageState state, uint8_t order) {
    Page rec;
    rec.state = state;
    rec.order = order;
    rec.head = state != PageState::kIsolated;
    rec.zone_id = static_cast<int16_t>(rng.UniformInt(0, 1));
    if (state == PageState::kAllocated) {
      rec.kind = rng.Chance(0.5) ? PageKind::kAnon : PageKind::kFile;
      rec.SetOwner(static_cast<int32_t>(rng.UniformInt(0, 9)),
                   static_cast<uint32_t>(rng.UniformInt(0, 1 << 20)));
      rec.run = order > 0 && rng.Chance(0.5);
    }
    return rec;
  };
  // The extents of the slot holding pfn, in ascending order.
  auto extents = [&](Pfn pfn) {
    std::vector<Pfn> out;
    const Pfn slot = pfn & ~(MemMap::kSlotPages - 1);
    for (Pfn e = slot; e < slot + MemMap::kSlotPages; e = d.NextExtent(e)) {
      out.push_back(e);
    }
    return out;
  };
  std::vector<bool> present(kBlocks, false);
  bool saw_split = false;
  bool saw_merge = false;
  bool saw_cut = false;
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    auto b = static_cast<BlockIndex>(rng.UniformInt(0, kBlocks - 1));
    if (!present[b]) {  // Hot-add.
      m.InitBlock(b);
      d.InitBlock(b);
      present[b] = true;
    } else if (rng.Chance(0.03)) {  // Offline every slot, then hot-remove.
      for (Pfn pfn = MemMap::BlockStart(b); pfn < MemMap::BlockStart(b + 1);
           pfn += MemMap::kSlotPages) {
        both(pfn, MemMap::SlotRecord(PageState::kOffline));
      }
      m.RemoveBlock(b);
      d.RemoveBlock(b);
      present[b] = false;
    } else {
      // Four slots per block, so that transitions pile up on each.
      const Pfn slot =
          MemMap::BlockStart(b) + static_cast<Pfn>(pick(4)) * MemMap::kSlotPages;
      const std::vector<Pfn> ext = extents(slot);
      const Pfn e = ext[pick(ext.size())];
      const Page rec = d.record(e);
      const uint32_t n = 1u << rec.order;
      switch (rec.state == PageState::kOffline ? 0 : rng.UniformInt(0, 8)) {
        case 0: {  // Reset the slot to one extent.
          const PageState states[] = {PageState::kFree, PageState::kFree,
                                      PageState::kIsolated, PageState::kOffline};
          const PageState st = states[rng.UniformInt(0, 3)];
          both(slot, st == PageState::kOffline ? MemMap::SlotRecord(st)
                                               : make(st, kMaxPageOrder));
          break;
        }
        case 1:
        case 7:
        case 8:  // Split a free extent into buddies.
          if (rec.state == PageState::kFree && rec.order > 0) {
            const auto half = static_cast<uint8_t>(rec.order - 1);
            both(e, make(PageState::kFree, half));
            both(e + n / 2, make(PageState::kFree, half));
            saw_split = true;
          }
          break;
        case 2: {  // Merge free buddies.
          const Pfn buddy = e ^ n;
          if (rec.state == PageState::kFree && rec.order < kMaxPageOrder &&
              std::find(ext.begin(), ext.end(), buddy) != ext.end() &&
              d.record(buddy).state == PageState::kFree &&
              d.record(buddy).order == rec.order) {
            const auto merged = static_cast<uint8_t>(rec.order + 1);
            both(std::min(e, buddy), make(PageState::kFree, merged));
            saw_merge = true;
          }
          break;
        }
        case 3:  // Allocate a free extent as a folio or a run.
          if (rec.state == PageState::kFree) {
            both(e, make(PageState::kAllocated, rec.order));
          }
          break;
        case 4:  // Free or isolate an allocated or isolated extent.
          if (rec.state == PageState::kAllocated || rec.state == PageState::kIsolated) {
            const PageState st = rng.Chance(0.5) ? PageState::kFree : PageState::kIsolated;
            both(e, make(st, rec.order));
          }
          break;
        case 5:
        case 6: {  // Cut a run around [lo, hi), which is freed, isolated or kept.
          Page run = rec;
          if (!run.run) {  // Allocate a free extent as the run first.
            if (rec.state != PageState::kFree || rec.order == 0) {
              break;
            }
            run = make(PageState::kAllocated, rec.order);
            run.run = true;
            both(e, run);
          }
          const auto lo = static_cast<uint32_t>(pick(n));
          const auto hi = static_cast<uint32_t>(rng.UniformInt(lo + 1, n));
          auto keep = [&](Pfn pfn, uint8_t order) {
            Page piece = run;
            piece.order = order;
            piece.run = order > 0;
            piece.SetOwner(run.owner(), run.owner_slot() + (pfn - e));
            both(pfn, piece);
          };
          memmap_fuzz::ForEachPiece(e, lo, keep);
          memmap_fuzz::ForEachPiece(e + hi, n - hi, keep);
          const int fate = static_cast<int>(rng.UniformInt(0, 2));
          memmap_fuzz::ForEachPiece(e + lo, hi - lo, [&](Pfn pfn, uint8_t order) {
            if (fate == 0) {
              keep(pfn, order);
            } else {
              both(pfn, make(fate == 1 ? PageState::kFree : PageState::kIsolated, order));
            }
          });
          saw_cut = true;
          break;
        }
      }
      // Two live references into one slot, both written.
      const std::vector<Pfn> now = extents(slot);
      const Pfn x = now[pick(now.size())];
      const Pfn y = now[pick(now.size())];
      const uint64_t stored = m.storage_bytes();
      Page& rx = m.mutable_record(x);
      Page& ry = m.mutable_record(y);
      rx.free = FreeLink{static_cast<Pfn>(step), x};
      ry.free = FreeLink{static_cast<Pfn>(step), y};
      for (const Pfn pfn : {x, y}) {
        Page rec2 = d.record(pfn);
        rec2.free = FreeLink{static_cast<Pfn>(step), pfn};
        d.Stamp(pfn, rec2);
      }
      EXPECT_EQ(m.storage_bytes(), stored);
    }
    memmap_fuzz::ExpectSameBlock(m, d, b);
    if (HasFatalFailure()) {
      return;
    }
    // A record in another present block's slot stays where it was through
    // a Stamp of this one.
    const auto other = static_cast<BlockIndex>((b + 1) % kBlocks);
    if (present[b] && present[other]) {
      const Pfn far = d.ExtentStart(MemMap::BlockStart(other) + 5000);
      const Page* before = &m.mutable_record(far);
      const Pfn near = MemMap::BlockStart(b);
      both(near, d.record(near));
      EXPECT_EQ(&m.mutable_record(far), before);
    }
  }
  EXPECT_TRUE(saw_split);
  EXPECT_TRUE(saw_merge);
  EXPECT_TRUE(saw_cut);
}

// Host backing through the life of a block: backed in pieces or whole
// until it is full (when it holds no bitmap), cleared in part page by page
// or in report batches as the balloon clears it, backed again, and
// hot-removed.  Every step compares each page and each block's count with
// the dense flags.
TEST_P(MemMapVsDenseFuzzTest, HostBackingReadsAsTheDenseMap) {
  using memmap_fuzz::kBlocks;
  MemMap m(kBlocks * kMemoryBlockBytes);
  DenseMemMap d(kBlocks * kMemoryBlockBytes);
  Rng rng(GetParam());
  auto pick = [&rng](uint32_t lo, uint32_t hi) {
    return static_cast<uint32_t>(rng.UniformInt(lo, hi));
  };
  for (BlockIndex b = 0; b < kBlocks; ++b) {
    m.InitBlock(b);
    d.InitBlock(b);
  }
  auto set = [&](Pfn pfn, uint32_t n) {
    ASSERT_EQ(m.SetHostPopulated(pfn, n), d.SetHostPopulated(pfn, n)) << "pfn " << pfn;
  };
  auto clear = [&](Pfn pfn, uint32_t n) {
    ASSERT_EQ(m.ClearHostPopulated(pfn, n), d.ClearHostPopulated(pfn, n))
        << "pfn " << pfn;
  };
  auto expect_same = [&]() {
    uint32_t partial = 0;
    uint32_t full = 0;
    for (BlockIndex b = 0; b < kBlocks; ++b) {
      for (Pfn pfn = MemMap::BlockStart(b); pfn < MemMap::BlockStart(b + 1); ++pfn) {
        ASSERT_EQ(m.host_populated(pfn), d.host_populated(pfn)) << "pfn " << pfn;
      }
      const uint32_t count = d.BlockPopulated(b);
      ASSERT_EQ(m.BlockPopulated(b), count) << "block " << b;
      ASSERT_EQ(m.CountBlockPopulated(b), m.BlockPopulated(b)) << "block " << b;
      partial += count > 0 && count < kPagesPerBlock ? 1 : 0;
      full += count == kPagesPerBlock ? 1 : 0;
    }
    // Partly backed blocks hold a bitmap; fully backed ones never do.
    EXPECT_GE(m.CountHostBitmaps(), partial);
    EXPECT_LE(m.CountHostBitmaps(), kBlocks - full);
  };
  int saw_full = 0;
  int saw_cleared_full = 0;
  int saw_removed_full = 0;
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto b = static_cast<BlockIndex>(pick(0, kBlocks - 1));
    const Pfn base = MemMap::BlockStart(b);
    // Back the block until it is full: whole, by THP granules, or by
    // random ranges with the gaps filled last.
    switch (pick(0, 2)) {
      case 0:
        set(base, kPagesPerBlock);
        break;
      case 1:
        for (uint32_t off = 0; off < kPagesPerBlock; off += 1u << kThpOrder) {
          set(base + off, 1u << kThpOrder);
        }
        break;
      default:
        for (int i = 0; i < 40; ++i) {
          const uint32_t off = pick(0, kPagesPerBlock - 1);
          set(base + off, pick(1, std::min<uint32_t>(700, kPagesPerBlock - off)));
        }
        for (uint32_t off = 0; off < kPagesPerBlock; off += 4096) {
          set(base + off, 4096);
        }
        break;
    }
    ASSERT_NO_FATAL_FAILURE(expect_same());
    ASSERT_EQ(m.BlockPopulated(b), kPagesPerBlock);
    ++saw_full;
    // Clear part of it as the balloon does: a run of pages, page by page
    // or in report batches.
    const uint32_t batches[] = {1, 32, 256};
    const uint32_t batch = batches[pick(0, 2)];
    for (int runs = static_cast<int>(pick(1, 4)); runs > 0; --runs) {
      const uint32_t off = pick(0, kPagesPerBlock - 1);
      const uint32_t n = pick(1, std::min<uint32_t>(1500, kPagesPerBlock - off));
      for (uint32_t done = 0; done < n; done += batch) {
        clear(base + off + done, std::min(batch, n - done));
      }
      ASSERT_NO_FATAL_FAILURE(expect_same());
    }
    ++saw_cleared_full;
    // Back all of it again, or part of it.
    if (round % 2 == 0) {
      set(base, kPagesPerBlock);
    } else {
      const uint32_t off = pick(0, kPagesPerBlock - 1);
      set(base + off, pick(1, kPagesPerBlock - off));
    }
    ASSERT_NO_FATAL_FAILURE(expect_same());
    // Hot-remove it, full or partly backed, and add it back.
    if (round % 4 < 2) {
      saw_removed_full += m.BlockPopulated(b) == kPagesPerBlock ? 1 : 0;
      m.set_block_state(b, BlockState::kOffline);
      ASSERT_EQ(m.RemoveBlock(b), d.RemoveBlock(b));
      ASSERT_NO_FATAL_FAILURE(expect_same());
      m.InitBlock(b);
      d.InitBlock(b);
    }
  }
  EXPECT_GT(saw_full, 0);
  EXPECT_GT(saw_cleared_full, 0);
  EXPECT_GT(saw_removed_full, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemMapVsDenseFuzzTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// --- Bulk allocation oracle: AllocPages(n) vs n single-page Allocs ------------

// Zone::AllocPages must leave exactly what n repeated Alloc(0) calls leave:
// the same pfns in the same order, free lists, memmap and block counters.
// Two twin sets replay one random script (online, folio allocs, frees,
// isolate-then-undo, order-0 fragmentation); at each bulk step one set
// calls AllocPages and the other Alloc(0) in a loop, and the whole state is
// compared after every step.
class BulkVsRepeatedAllocTest
    : public testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(BulkVsRepeatedAllocTest, AllocPagesEqualsRepeatedSinglePageAlloc) {
  using mm_oracle::kBlocks;
  using mm_oracle::kZones;
  using mm_oracle::MmSet;
  const auto [seed, shuffled] = GetParam();
  uint64_t digest = mm_oracle::kFnvOffset;
  MmSet bulk(seed + 31, shuffled);
  MmSet single(seed + 31, shuffled);
  MmSet* const sets[] = {&bulk, &single};
  Rng rng(seed);
  std::vector<int16_t> block_zone(kBlocks);
  for (BlockIndex b = 0; b < kBlocks; ++b) {
    const auto z = static_cast<int16_t>(rng.UniformInt(0, kZones - 1));
    block_zone[b] = z;
    for (MmSet* s : sets) {
      s->memmap.InitBlock(b);
      s->zones[static_cast<size_t>(z)]->AddFreeRange(MemMap::BlockStart(b),
                                                     kPagesPerBlock);
      s->memmap.set_block_state(b, BlockState::kOnline);
    }
  }
  struct Held {
    Pfn head;
    int16_t zone;
  };
  std::vector<Held> held;
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  auto free_held = [&](size_t i) {
    for (MmSet* s : sets) {
      s->zones[static_cast<size_t>(held[i].zone)]->Free(held[i].head);
    }
    held[i] = held.back();
    held.pop_back();
  };
  uint32_t next_slot = 0;
  // Covered bulk sizes, each at least once per seed.
  bool saw_zero = false;
  bool saw_multi_chunk = false;
  bool saw_short = false;
  bool saw_fragments = false;

  for (int step = 0; step < 120; ++step) {
    const auto z = static_cast<int16_t>(rng.UniformInt(0, kZones - 1));
    const auto zi = static_cast<size_t>(z);
    switch (rng.UniformInt(0, 5)) {
      case 0: {  // Folio alloc at order 0, 9 or 10, identical on both sets.
        const uint8_t orders[] = {0, kThpOrder, kMaxPageOrder};
        const uint8_t order = orders[rng.UniformInt(0, 2)];
        const Pfn a = bulk.zones[zi]->Alloc(order, PageKind::kAnon, 1, 0);
        const Pfn b = single.zones[zi]->Alloc(order, PageKind::kAnon, 1, 0);
        ASSERT_EQ(a, b) << "step " << step;
        if (a != kInvalidPfn) {
          held.push_back({a, z});
        }
        break;
      }
      case 1: {  // Free a few held folios.
        for (int k = 0; k < 4 && !held.empty(); ++k) {
          free_held(pick(held.size()));
        }
        break;
      }
      case 2: {  // Isolate a block's free pages, then undo.
        const auto b = static_cast<BlockIndex>(rng.UniformInt(0, kBlocks - 1));
        const Pfn start = MemMap::BlockStart(b);
        Zone& bz = *bulk.zones[static_cast<size_t>(block_zone[b])];
        Zone& sz = *single.zones[static_cast<size_t>(block_zone[b])];
        ASSERT_EQ(bz.IsolateFreeRange(start, kPagesPerBlock),
                  sz.IsolateFreeRange(start, kPagesPerBlock));
        bz.UndoIsolation(start, kPagesPerBlock);
        sz.UndoIsolation(start, kPagesPerBlock);
        break;
      }
      case 3: {  // Order-0 fragments: take a run, give back every other page.
        const uint32_t n = static_cast<uint32_t>(rng.UniformInt(2, 64));
        for (uint32_t i = 0; i < n; ++i) {
          const Pfn a = bulk.zones[zi]->Alloc(0, PageKind::kAnon, 2, i);
          const Pfn b = single.zones[zi]->Alloc(0, PageKind::kAnon, 2, i);
          ASSERT_EQ(a, b) << "step " << step;
          if (a == kInvalidPfn) {
            break;
          }
          if (i % 2 == 0) {
            held.push_back({a, z});
          } else {
            bulk.zones[zi]->Free(a);
            single.zones[zi]->Free(b);
          }
        }
        break;
      }
      case 4:
      case 5: {  // The bulk step.
        const uint64_t free_before = bulk.zones[zi]->free_pages();
        uint32_t n = 0;
        switch (rng.UniformInt(0, 3)) {
          case 0:
            n = 0;
            break;
          case 1:
            n = static_cast<uint32_t>(rng.UniformInt(1, 40));
            break;
          case 2:  // Several chunks, across orders and blocks.
            n = static_cast<uint32_t>(rng.UniformInt(1500, 5000));
            break;
          default:  // More than the zone holds: must come back short.
            n = static_cast<uint32_t>(free_before + rng.UniformInt(1, 99));
            break;
        }
        saw_fragments = saw_fragments || (n > 0 && bulk.zones[zi]->free_chunks(0) > 0);
        std::vector<Pfn> got =
            mm_oracle::AllocPfns(*bulk.zones[zi], n, PageKind::kFile, 3, next_slot);
        const auto taken = static_cast<uint32_t>(got.size());
        std::vector<Pfn> want;
        for (uint32_t i = 0; i < n; ++i) {
          const Pfn pfn = single.zones[zi]->Alloc(0, PageKind::kFile, 3, next_slot + i);
          if (pfn == kInvalidPfn) {
            break;
          }
          want.push_back(pfn);
        }
        next_slot += n;
        ASSERT_EQ(taken, want.size()) << "step " << step;
        ASSERT_EQ(taken, std::min<uint64_t>(n, free_before)) << "step " << step;
        ASSERT_EQ(got, want) << "step " << step;
        saw_zero = saw_zero || n == 0;
        saw_multi_chunk = saw_multi_chunk || taken > (1u << kMaxPageOrder);
        saw_short = saw_short || taken < n;
        // Keep some pages; give the rest back in a random order, so a
        // drained zone refills and coalesces.
        std::vector<Pfn> order = got;
        rng.Shuffle(order.begin(), order.end());
        const size_t keep = taken < n ? 0 : order.size() / 4;
        for (size_t i = 0; i < order.size(); ++i) {
          if (i < keep) {
            held.push_back({order[i], z});
          } else {
            bulk.zones[zi]->Free(order[i]);
            single.zones[zi]->Free(order[i]);
          }
        }
        break;
      }
    }
    mm_oracle::ExpectSame(bulk, single, step, &digest);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
    for (BlockIndex b = 0; b < kBlocks; ++b) {
      ASSERT_EQ(bulk.memmap.BlockOccupied(b), single.memmap.BlockOccupied(b))
          << "step " << step << " block " << b;
    }
    ASSERT_EQ(bulk.memmap.split_blocks(), single.memmap.split_blocks())
        << "step " << step;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_multi_chunk);
  EXPECT_TRUE(saw_short);
  EXPECT_TRUE(saw_fragments);
  EXPECT_EQ(bulk.shuffle_rng.Next(), single.shuffle_rng.Next());
  static const uint64_t kDigests[][2] = {
      {0x4a93443fcb4b8333ull, 0xd2e7055ba47e6790ull},
      {0x2ee8b83e59fa7193ull, 0x87203667e1c42a6dull},
      {0x8e915b61bf26fd27ull, 0x282b998a75450763ull},
      {0x2baf5526e752a8adull, 0x3ea563822fcbbe7aull},
  };
  EXPECT_EQ(digest, kDigests[seed - 1][shuffled ? 1 : 0]);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BulkVsRepeatedAllocTest,
    testing::Combine(testing::Values(1u, 2u, 3u, 4u), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<uint64_t, bool>>& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_shuffled" : "_ascending");
    });

// --- Drain oracle: Zone::FreeAll vs per-folio Free ------------------------------

// Zone::FreeAll(heads, n) must leave exactly what Free(heads[i]) for
// i = 0..n-1 leaves, without the per-page work: the same const view of
// every pfn (each drained slot is one max-order record again), max-order links
// in the same order, per-order counts, occupancy and host backing, and
// the same allocations afterwards.  Twin sets replay one random script
// (online, Alloc at orders 0/9/10, AllocPages, Free, isolate then undo);
// then each zone's survivors are freed in a random pop order, one set
// folio by folio and the other in one FreeAll.
class DrainOracleTest : public testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(DrainOracleTest, FreeAllEqualsPerFolioFrees) {
  using mm_oracle::kBlocks;
  using mm_oracle::kZones;
  using mm_oracle::MmSet;
  const auto [seed, shuffled] = GetParam();
  uint64_t digest = mm_oracle::kFnvOffset;
  MmSet each(seed + 43, shuffled);
  MmSet all(seed + 43, shuffled);
  MmSet* const sets[] = {&each, &all};
  Rng rng(seed);
  std::vector<int16_t> block_zone(kBlocks, -1);
  struct Held {
    Pfn head;
    int16_t zone;
  };
  std::vector<Held> held;
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };

  for (int step = 0; step < 150; ++step) {
    const auto z = static_cast<int16_t>(rng.UniformInt(0, kZones - 1));
    const auto zi = static_cast<size_t>(z);
    switch (rng.UniformInt(0, 4)) {
      case 0: {  // Online a fresh block into a random zone.
        const auto b = static_cast<BlockIndex>(rng.UniformInt(0, kBlocks - 1));
        if (block_zone[b] < 0) {
          block_zone[b] = z;
          for (MmSet* s : sets) {
            s->memmap.InitBlock(b);
            s->zones[zi]->AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
            s->memmap.set_block_state(b, BlockState::kOnline);
          }
        }
        break;
      }
      case 1: {  // Folio alloc at order 0, 9 or 10; half get host backing.
        const uint8_t orders[] = {0, kThpOrder, kMaxPageOrder};
        const uint8_t order = orders[rng.UniformInt(0, 2)];
        const Pfn a = each.zones[zi]->Alloc(order, PageKind::kAnon, 1, 0);
        ASSERT_EQ(a, all.zones[zi]->Alloc(order, PageKind::kAnon, 1, 0))
            << "step " << step;
        if (a != kInvalidPfn) {
          held.push_back({a, z});
          if (rng.Chance(0.5)) {
            for (MmSet* s : sets) {
              s->memmap.SetHostPopulated(a, 1u << order);
            }
          }
        }
        break;
      }
      case 2: {  // Bulk single pages.
        const auto n = static_cast<uint32_t>(rng.UniformInt(1, 3000));
        const std::vector<Pfn> a =
            mm_oracle::AllocPfns(*each.zones[zi], n, PageKind::kFile, 3, 0);
        const std::vector<Pfn> b =
            mm_oracle::AllocPfns(*all.zones[zi], n, PageKind::kFile, 3, 0);
        ASSERT_EQ(a, b) << "step " << step;
        for (const Pfn pfn : a) {
          held.push_back({pfn, z});
        }
        break;
      }
      case 3: {  // Free a few held folios.
        for (int k = 0; k < 3 && !held.empty(); ++k) {
          const size_t i = pick(held.size());
          for (MmSet* s : sets) {
            s->zones[static_cast<size_t>(held[i].zone)]->Free(held[i].head);
          }
          held[i] = held.back();
          held.pop_back();
        }
        break;
      }
      case 4: {  // Isolate an online block's free pages, then undo.
        const auto b = static_cast<BlockIndex>(rng.UniformInt(0, kBlocks - 1));
        if (block_zone[b] >= 0) {
          const Pfn start = MemMap::BlockStart(b);
          const auto bz = static_cast<size_t>(block_zone[b]);
          ASSERT_EQ(each.zones[bz]->IsolateFreeRange(start, kPagesPerBlock),
                    all.zones[bz]->IsolateFreeRange(start, kPagesPerBlock));
          for (MmSet* s : sets) {
            s->zones[bz]->UndoIsolation(start, kPagesPerBlock);
          }
        }
        break;
      }
    }
  }
  mm_oracle::ExpectSame(each, all, -1, &digest);
  if (testing::Test::HasFatalFailure()) {
    return;
  }

  // Drain the zones in a random order, survivors in a random pop order.
  std::vector<int16_t> zone_order;
  for (int16_t z = 0; z < kZones; ++z) {
    zone_order.push_back(z);
  }
  rng.Shuffle(zone_order.begin(), zone_order.end());
  std::vector<BlockIndex> occupied;
  for (BlockIndex b = 0; b < kBlocks; ++b) {
    if (all.memmap.BlockOccupied(b) > 0) {
      occupied.push_back(b);
    }
  }
  for (const int16_t z : zone_order) {
    const auto zi = static_cast<size_t>(z);
    std::vector<Pfn> heads;
    for (const Held& h : held) {
      if (h.zone == z) {
        heads.push_back(h.head);
      }
    }
    rng.Shuffle(heads.begin(), heads.end());
    for (const Pfn head : heads) {
      each.zones[zi]->Free(head);
    }
    all.zones[zi]->FreeAll(heads.data(), heads.size());
    EXPECT_EQ(all.zones[zi]->allocated_pages(), 0u);
    mm_oracle::ExpectSame(each, all, 1000 + z, &digest);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
    for (BlockIndex b = 0; b < kBlocks; ++b) {
      ASSERT_EQ(each.memmap.BlockOccupied(b), all.memmap.BlockOccupied(b))
          << "block " << b;
      ASSERT_EQ(each.memmap.BlockPopulated(b), all.memmap.BlockPopulated(b))
          << "block " << b;
    }
  }
  // Drained either way, every slot is one extent and stores no record past
  // its start.
  EXPECT_FALSE(occupied.empty());
  EXPECT_EQ(all.memmap.storage_bytes(), 0u);
  EXPECT_EQ(each.memmap.storage_bytes(), 0u);
  EXPECT_GT(all.memmap.materialized_peak_blocks(), 0u);

  // Both sets hand out the same memory afterwards.
  for (int i = 0; i < 50; ++i) {
    const uint8_t orders[] = {0, kThpOrder, kMaxPageOrder};
    const uint8_t order = orders[rng.UniformInt(0, 2)];
    const auto zi = static_cast<size_t>(rng.UniformInt(0, kZones - 1));
    ASSERT_EQ(each.zones[zi]->Alloc(order, PageKind::kAnon, 1, 0),
              all.zones[zi]->Alloc(order, PageKind::kAnon, 1, 0))
        << "follow-up alloc " << i;
  }
  mm_oracle::ExpectSame(each, all, 2000, &digest);
  EXPECT_EQ(each.shuffle_rng.Next(), all.shuffle_rng.Next());
  static const uint64_t kDigests[][2] = {
      {0xfa015ce519d9b5c6ull, 0x672b7534f976d302ull},
      {0x81fb97b66642fc66ull, 0xbdb996d4d9a81824ull},
      {0x1324c36f2a1de017ull, 0x0452f2c282c14d17ull},
      {0x1b4779c8d44e0db9ull, 0xad28724fc897b2d5ull},
      {0x0cd38bb119348f1dull, 0xcc41e1b2c427829dull},
  };
  EXPECT_EQ(digest, kDigests[seed - 1][shuffled ? 1 : 0]);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DrainOracleTest,
    testing::Combine(testing::Values(1u, 2u, 3u, 4u, 5u), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<uint64_t, bool>>& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_shuffled" : "_ascending");
    });

// --- Migration oracle: run-batched MigrateOutOfRange vs per-folio moves ---------

// MigrateOutOfRange moves each run of order-0 pages (one kind and owner,
// consecutive owner slots) with one Zone::AllocPages.  It must leave
// exactly what the folio-at-a-time loop it replaced leaves
// (PerFolioMigrate below, a copy of that loop, on a twin whose page-cache
// runs were filled one Alloc(0) at a time, so it holds no run records).
// Twin sets fill zone 0's two source blocks with one random script:
// page-cache runs (AllocPages), runs with a slot gap (a page freed and
// refilled under another slot), order-0 anon pages of two owners, THPs,
// frees, and on some seeds a kernel page.  The target is zone 0 itself or
// zone 1, with some host-backed frames; on even seeds it has too little
// room, so it runs dry part-way through a run.  Then each source block is
// isolated and migrated, one set with each function, and the mm state
// (mm_oracle::ExpectSame: every page view, host bit, free list and
// per-order count), block occupancy, every MigrateOutcome field and the
// owners' move sequence must agree; again after the offline is retired
// or, on failure, undone.
namespace migration_oracle {

struct Move {
  PageKind kind;
  int32_t owner;
  uint32_t slot;
  Pfn to;
  bool operator==(const Move& o) const {
    return kind == o.kind && owner == o.owner && slot == o.slot && to == o.to;
  }
};

class MoveLog : public OwnerRegistry {
 public:
  void RelocateRun(PageKind kind, int32_t owner, uint32_t first_slot, uint8_t order,
                   PageRun to) override {
    for (uint32_t i = 0; i < to.pages >> order; ++i) {
      moves.push_back({kind, owner, first_slot + i, to.start + (i << order)});
    }
  }
  std::vector<Move> moves;
};

// The folio-at-a-time migration loop, one Zone::Alloc per folio.
MigrateOutcome PerFolioMigrate(MemMap& memmap, Zone& src_zone, Zone& target_zone, Pfn start,
                               uint64_t npages, const CostModel& cost, OwnerRegistry* owners) {
  MigrateOutcome outcome;
  const Pfn end = start + npages;
  Pfn pfn = start;
  while (pfn < end) {
    const Page p = memmap.record(pfn);
    if (p.state != PageState::kAllocated) {
      pfn = memmap.NextExtent(pfn);
      continue;
    }
    if (p.kind == PageKind::kKernel) {
      outcome.ok = false;
      return outcome;
    }
    const uint32_t folio_pages = 1u << p.order;
    const Pfn target = target_zone.Alloc(p.order, p.kind, p.owner(), p.owner_slot());
    if (target == kInvalidPfn) {
      outcome.ok = false;
      return outcome;
    }
    outcome.pages_newly_backed += memmap.SetHostPopulated(target, folio_pages);
    src_zone.FreeIntoIsolation(pfn, folio_pages);
    owners->RelocateRun(p.kind, p.owner(), p.owner_slot(), p.order,
                        {target, folio_pages});
    outcome.folios_moved += 1;
    outcome.pages_moved += folio_pages;
    outcome.cost += cost.MigrateFolio(folio_pages);
    pfn += folio_pages;
  }
  return outcome;
}

}  // namespace migration_oracle

class MigrateRunsVsPerFolioTest
    : public testing::TestWithParam<std::tuple<uint64_t, bool, bool>> {};

TEST_P(MigrateRunsVsPerFolioTest, RunsMoveExactlyAsPerFolioMigration) {
  using migration_oracle::MoveLog;
  using mm_oracle::kBlocks;
  using mm_oracle::MmSet;
  const auto [seed, separate_target, shuffled] = GetParam();
  const bool dry = seed % 2 == 0;
  const bool kernel_page = seed == 3 || seed == 5;
  const CostModel cost = CostModel::Default();
  // The twins are compared with each other, so the digest ExpectSame
  // folds is not pinned here.
  uint64_t digest = mm_oracle::kFnvOffset;
  MmSet runs(seed + 57, shuffled);
  MmSet folios(seed + 57, shuffled);
  MmSet* const sets[] = {&runs, &folios};
  Rng rng(seed);
  const size_t target_zone = separate_target ? 1 : 0;
  auto online = [&](BlockIndex b, size_t z) {
    for (MmSet* s : sets) {
      s->memmap.InitBlock(b);
      s->zones[z]->AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
      s->memmap.set_block_state(b, BlockState::kOnline);
    }
  };
  auto expect_same = [&](int step) {
    mm_oracle::ExpectSame(runs, folios, step, &digest);
    for (BlockIndex b = 0; b < kBlocks; ++b) {
      ASSERT_EQ(runs.memmap.BlockOccupied(b), folios.memmap.BlockOccupied(b))
          << "step " << step << " block " << b;
    }
  };

  // Fill the two source blocks to three quarters.
  online(0, 0);
  online(1, 0);
  struct Held {
    Pfn head;
    PageKind kind;
    int32_t owner;
  };
  std::vector<Held> held;
  uint32_t next_slot[3] = {};
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  auto alloc = [&](uint8_t order, PageKind kind, int32_t owner, int step) {
    const uint32_t slot = owner >= 0 ? next_slot[owner]++ : 0;
    const Pfn a = runs.zones[0]->Alloc(order, kind, owner, slot);
    EXPECT_EQ(a, folios.zones[0]->Alloc(order, kind, owner, slot)) << "step " << step;
    if (a != kInvalidPfn && kind != PageKind::kKernel) {
      held.push_back({a, kind, owner});
    }
  };
  auto free_held = [&](size_t i) {
    for (MmSet* s : sets) {
      s->zones[0]->Free(held[i].head);
    }
    held[i] = held.back();
    held.pop_back();
  };
  const uint64_t fill_to = 3 * uint64_t{kPagesPerBlock} / 2;
  for (int step = 0; step < 400 && runs.zones[0]->allocated_pages() < fill_to; ++step) {
    if (kernel_page && step == 10) {
      alloc(0, PageKind::kKernel, kNoOwner, step);
    }
    switch (rng.UniformInt(0, 8)) {
      case 0:
      case 1:
      case 2: {  // A page-cache fill of file 0 (owner slots run on).
        const auto n = static_cast<uint32_t>(rng.UniformInt(1, 900));
        const std::vector<Pfn> a =
            mm_oracle::AllocPfns(*runs.zones[0], n, PageKind::kFile, 0, next_slot[0]);
        std::vector<Pfn> b;
        for (uint32_t i = 0; i < n; ++i) {
          const Pfn pfn = folios.zones[0]->Alloc(0, PageKind::kFile, 0, next_slot[0] + i);
          if (pfn == kInvalidPfn) {
            break;
          }
          b.push_back(pfn);
        }
        ASSERT_EQ(a, b) << "step " << step;
        next_slot[0] += n;
        for (const Pfn pfn : a) {
          held.push_back({pfn, PageKind::kFile, 0});
        }
        break;
      }
      case 3: {  // A slot gap: free a file page and refill it under a new slot.
        for (int k = 0; k < 3 && !held.empty(); ++k) {
          const size_t i = pick(held.size());
          if (held[i].kind == PageKind::kFile) {
            free_held(i);
            alloc(0, PageKind::kFile, 0, step);
          }
        }
        break;
      }
      case 4:
      case 5: {  // Order-0 anon pages of owners 1 and 2, interleaved.
        const auto n = static_cast<int>(rng.UniformInt(1, 64));
        for (int i = 0; i < n; ++i) {
          alloc(0, PageKind::kAnon, static_cast<int32_t>(rng.UniformInt(1, 2)), step);
        }
        break;
      }
      case 6:  // A THP.
        alloc(kThpOrder, PageKind::kAnon, static_cast<int32_t>(rng.UniformInt(1, 2)), step);
        break;
      default:  // Free a few held folios.
        for (int k = 0; k < 8 && !held.empty(); ++k) {
          free_held(pick(held.size()));
        }
        break;
    }
    if (testing::Test::HasFailure()) {
      return;
    }
  }

  // The target's room: blocks 2..5, or on a dry seed just block 2, partly
  // filled (zone 1) or none beyond the source zone's own free pages
  // (zone 0).  Some of it is already host-backed.
  const uint64_t occupied0 = runs.memmap.BlockOccupied(0);
  for (BlockIndex b = 2; b < (dry ? 3u : kBlocks); ++b) {
    if (dry && !separate_target) {
      break;
    }
    online(b, target_zone);
    for (int k = 0; k < 4; ++k) {
      const Pfn at = MemMap::BlockStart(b) + static_cast<Pfn>(rng.UniformInt(0, 30000));
      const auto n = static_cast<uint32_t>(rng.UniformInt(1, 2000));
      for (MmSet* s : sets) {
        s->memmap.SetHostPopulated(at, n);
      }
    }
  }
  if (dry && separate_target) {
    const auto room = static_cast<uint32_t>(rng.UniformInt(
        static_cast<int64_t>(occupied0 / 4), static_cast<int64_t>(occupied0 * 3 / 4)));
    for (MmSet* s : sets) {
      ASSERT_EQ(
          mm_oracle::AllocPfns(*s->zones[1], kPagesPerBlock - room, PageKind::kAnon, 9, 0)
              .size(),
          kPagesPerBlock - room);
    }
  }
  expect_same(0);
  if (testing::Test::HasFailure()) {
    return;
  }

  // Offline each source block: isolate, migrate, then retire or undo.
  bool failed = false;
  bool dry_mid_run = false;
  for (BlockIndex b = 0; b < 2; ++b) {
    const Pfn start = MemMap::BlockStart(b);
    ASSERT_EQ(runs.zones[0]->IsolateFreeRange(start, kPagesPerBlock),
              folios.zones[0]->IsolateFreeRange(start, kPagesPerBlock));
    MoveLog runs_log;
    MoveLog folios_log;
    const MigrateOutcome a = MigrateOutOfRange(runs.memmap, *runs.zones[0],
                                               *runs.zones[target_zone], start, kPagesPerBlock,
                                               cost, &runs_log);
    const MigrateOutcome e = migration_oracle::PerFolioMigrate(
        folios.memmap, *folios.zones[0], *folios.zones[target_zone], start, kPagesPerBlock,
        cost, &folios_log);
    SCOPED_TRACE("block " + std::to_string(b));
    ASSERT_EQ(a.ok, e.ok);
    ASSERT_EQ(a.folios_moved, e.folios_moved);
    ASSERT_EQ(a.pages_moved, e.pages_moved);
    ASSERT_EQ(a.pages_newly_backed, e.pages_newly_backed);
    ASSERT_EQ(a.cost, e.cost);
    ASSERT_EQ(runs_log.moves.size(), folios_log.moves.size());
    for (size_t i = 0; i < runs_log.moves.size(); ++i) {
      ASSERT_TRUE(runs_log.moves[i] == folios_log.moves[i]) << "move " << i;
    }
    if (b == 0) {
      EXPECT_GT(a.pages_moved, 0u);
    }
    expect_same(static_cast<int>(10 * b + 1));
    if (testing::Test::HasFailure()) {
      return;
    }
    if (!a.ok) {
      failed = true;
      // Ran dry inside a run: the first page left behind continues the
      // run of the last page moved.
      Pfn pfn = start;
      while (runs.memmap.record(pfn).state != PageState::kAllocated) {
        pfn = runs.memmap.NextExtent(pfn);
      }
      const Page left = runs.memmap.page(pfn);
      if (!runs_log.moves.empty()) {
        const migration_oracle::Move& last = runs_log.moves.back();
        dry_mid_run = dry_mid_run || (left.order == 0 && left.kind == last.kind &&
                                      left.owner() == last.owner &&
                                      left.owner_slot() == last.slot + 1);
      }
      for (MmSet* s : sets) {
        s->zones[0]->UndoIsolation(start, kPagesPerBlock);
      }
    } else {
      for (MmSet* s : sets) {
        s->zones[0]->RetireRange(start, kPagesPerBlock);
        s->memmap.set_block_state(b, BlockState::kOffline);
      }
    }
    expect_same(static_cast<int>(10 * b + 2));
    if (testing::Test::HasFailure()) {
      return;
    }
  }
  EXPECT_EQ(failed, dry || kernel_page);
  if (dry && separate_target) {
    // Zone 1's room is the tail of a filled block, so order-0 pages use
    // it up; in zone 0 a THP may find no order-9 chunk first.
    EXPECT_TRUE(dry_mid_run);
  }
  EXPECT_EQ(runs.shuffle_rng.Next(), folios.shuffle_rng.Next());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MigrateRunsVsPerFolioTest,
    testing::Combine(testing::Values(1u, 2u, 3u, 4u, 5u), testing::Bool(), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<uint64_t, bool, bool>>& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_separate" : "_same") +
             (std::get<2>(param_info.param) ? "_shuffled" : "_ascending");
    });

// --- Range-free oracle: Zone::Free(start, pages) vs per-head frees ---------------

// Zone::Free(start, pages) cuts the runs at the range's edges and frees
// each aligned piece of the range as one chunk.  It must leave exactly what
// Free(head) on each head of the range in ascending order leaves, which is
// how the page cache used to drop a file, one page at a time.  Twin sets
// replay one random script in zones whose blocks interleave: page-cache
// runs (AllocPages), order-0 pages, THPs and max-order folios, and frees
// that leave free buddies on both sides of later ranges.  Every few steps
// a random allocated stretch of one zone — whole folios and run pages,
// often beginning or ending inside a run, sometimes across a block — is
// freed, on one set with one range free and on the other head by head.
// After every step mm_oracle::ExpectSame compares the FNV view digest
// of every page (a free head's view carries its list links, so every free
// list compares in walk order, max-order ones through the max links),
// free_pages, the per-order counts and CheckFreeLists; block occupancy
// must agree too, and the range free must write no more records.
class RangeFreeVsPerHeadFreeTest
    : public testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(RangeFreeVsPerHeadFreeTest, RangeFreeEqualsAscendingPerHeadFrees) {
  using mm_oracle::kBlocks;
  using mm_oracle::kZones;
  using mm_oracle::MmSet;
  const auto [seed, shuffled] = GetParam();
  uint64_t digest = mm_oracle::kFnvOffset;
  MmSet range(seed + 71, shuffled);
  MmSet heads(seed + 71, shuffled);
  MmSet* const sets[] = {&range, &heads};
  Rng rng(seed);
  // Blocks 0 and 1 are zone 0's first two; the rest interleave.
  for (BlockIndex b = 0; b < kBlocks; ++b) {
    const auto z = b < 2 ? size_t{0} : static_cast<size_t>(rng.UniformInt(0, kZones - 1));
    for (MmSet* s : sets) {
      s->memmap.InitBlock(b);
      s->zones[z]->AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
      s->memmap.set_block_state(b, BlockState::kOnline);
    }
  }
  std::vector<Pfn> held;  // Every allocated head; each page of a run is one.
  // Max-order ballast: in an ascending zone 0 it fills block 0 up to its
  // last slot, so the page-cache fill after it crosses into block 1.
  for (int i = 0; i < 31; ++i) {
    const Pfn a = range.zones[0]->Alloc(kMaxPageOrder, PageKind::kAnon, 1, 0);
    ASSERT_EQ(a, heads.zones[0]->Alloc(kMaxPageOrder, PageKind::kAnon, 1, 0));
    held.push_back(a);
  }
  uint32_t next_slot = 1536;
  const std::vector<Pfn> fill =
      mm_oracle::AllocPfns(*range.zones[0], next_slot, PageKind::kFile, 3, 0);
  ASSERT_EQ(fill,
            mm_oracle::AllocPfns(*heads.zones[0], next_slot, PageKind::kFile, 3, 0));
  held.insert(held.end(), fill.begin(), fill.end());
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  int ranges = 0;
  bool saw_cut_start = false;
  bool saw_cut_end = false;
  bool saw_cross_block = false;
  bool saw_folio = false;

  for (int step = 0; step < 200; ++step) {
    const auto zi = static_cast<size_t>(rng.UniformInt(0, kZones - 1));
    switch (rng.UniformInt(0, 5)) {
      case 0:
      case 1: {  // A page-cache fill.
        const auto n = static_cast<uint32_t>(rng.UniformInt(1, 1500));
        const std::vector<Pfn> a =
            mm_oracle::AllocPfns(*range.zones[zi], n, PageKind::kFile, 3, next_slot);
        ASSERT_EQ(a, mm_oracle::AllocPfns(*heads.zones[zi], n, PageKind::kFile, 3,
                                               next_slot))
            << "step " << step;
        next_slot += n;
        held.insert(held.end(), a.begin(), a.end());
        break;
      }
      case 2: {  // A folio at order 0, 9 or 10.
        const uint8_t orders[] = {0, 0, kThpOrder, kMaxPageOrder};
        const uint8_t order = orders[rng.UniformInt(0, 3)];
        const Pfn a = range.zones[zi]->Alloc(order, PageKind::kAnon, 1, 0);
        ASSERT_EQ(a, heads.zones[zi]->Alloc(order, PageKind::kAnon, 1, 0))
            << "step " << step;
        if (a != kInvalidPfn) {
          held.push_back(a);
        }
        break;
      }
      case 3: {  // Free a few heads: free buddies around later ranges.
        for (int k = 0; k < 6 && !held.empty(); ++k) {
          const size_t i = pick(held.size());
          const auto z = static_cast<size_t>(range.memmap.page(held[i]).zone_id);
          for (MmSet* s : sets) {
            s->zones[z]->Free(held[i]);
          }
          held[i] = held.back();
          held.pop_back();
        }
        break;
      }
      default: {  // The range free: a stretch of one zone's heads.
        if (held.empty()) {
          break;
        }
        const MemMap& m = range.memmap;
        Pfn start = held[pick(held.size())];
        auto limit = static_cast<Pfn>(rng.UniformInt(1, 2500));
        if (rng.Chance(0.3)) {
          // The last head below a block boundary, so the stretch may cross it.
          const auto b = static_cast<BlockIndex>(rng.UniformInt(1, kBlocks - 1));
          const Pfn boundary = MemMap::BlockStart(rng.Chance(0.5) ? 1 : b);
          auto below_boundary = [boundary](Pfn h) { return h < boundary ? h : 0; };
          const auto below =
              std::max_element(held.begin(), held.end(), [&](Pfn x, Pfn y) {
                return below_boundary(x) < below_boundary(y);
              });
          if (*below < boundary) {
            start = *below;
            limit += boundary - start;
          }
        }
        const int16_t zone = m.page(start).zone_id;
        std::vector<Pfn> range_heads;
        Pfn end = start;
        while (end < m.span_pages() && end - start < limit) {
          const Page v = m.page(end);
          if (v.state != PageState::kAllocated || v.zone_id != zone) {
            break;
          }
          range_heads.push_back(end);
          saw_folio = saw_folio || v.order > 0;
          end += 1u << v.order;
        }
        const Pfn last = m.ExtentStart(end - 1);
        saw_cut_start = saw_cut_start || m.ExtentStart(start) != start;
        saw_cut_end = saw_cut_end || last + (1u << m.record(last).order) > end;
        saw_cross_block =
            saw_cross_block || MemMap::BlockOf(start) != MemMap::BlockOf(end - 1);
        const uint64_t range_records = range.memmap.records_written();
        const uint64_t head_records = heads.memmap.records_written();
        range.zones[static_cast<size_t>(zone)]->Free(start, end - start);
        for (const Pfn head : range_heads) {
          heads.zones[static_cast<size_t>(zone)]->Free(head);
        }
        EXPECT_LE(range.memmap.records_written() - range_records,
                  heads.memmap.records_written() - head_records)
            << "step " << step;
        held.erase(std::remove_if(held.begin(), held.end(),
                                  [&](Pfn h) { return h >= start && h < end; }),
                   held.end());
        ++ranges;
        break;
      }
    }
    mm_oracle::ExpectSame(range, heads, step, &digest);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
    for (BlockIndex b = 0; b < kBlocks; ++b) {
      ASSERT_EQ(range.memmap.BlockOccupied(b), heads.memmap.BlockOccupied(b))
          << "step " << step << " block " << b;
    }
  }
  EXPECT_GE(ranges, 20);
  EXPECT_TRUE(saw_cut_start);
  EXPECT_TRUE(saw_cut_end);
  EXPECT_TRUE(saw_cross_block || shuffled);
  EXPECT_TRUE(saw_folio);
  EXPECT_EQ(range.shuffle_rng.Next(), heads.shuffle_rng.Next());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RangeFreeVsPerHeadFreeTest,
    testing::Combine(testing::Values(1u, 2u, 3u, 4u), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<uint64_t, bool>>& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_shuffled" : "_ascending");
    });

// --- Run-vs-dense page cache ------------------------------------------------------

// PageCache keeps each file as sorted, maximal extents; it must answer
// exactly as the dense per-page table it replaced
// (tests/oracles/dense_page_cache.h).  Both replay one random script over
// three files: InsertRun of part of an uncached span, at a pfn that often
// continues a neighbour so extents merge; RelocateRun of part of a cached
// span, often across extents, sometimes onto pfns that continue the left
// neighbour; span queries, bounded and not; and whole-file drops, whose
// extents must list the dense table's pages in page order.  After every
// step every Lookup, cached_pages and total_cached_pages must agree, and
// extent_count must equal the dense table's number of maximal runs.
namespace page_cache_fuzz {

// The span from idx (before end) cached as idx is, read page by page.
PageCache::Span DenseSpan(const DensePageCache& d, int32_t f, uint64_t idx,
                          uint64_t end) {
  const bool cached = d.Cached(f, idx);
  uint64_t n = 1;
  while (idx + n < end && d.Cached(f, idx + n) == cached) {
    ++n;
  }
  return {cached, n};
}

// Runs of cached pages that continue in both page index and pfn.
size_t DenseRuns(const DensePageCache& d, int32_t f) {
  size_t n = 0;
  for (uint64_t i = 0; i < d.FilePages(f); ++i) {
    const Pfn pfn = d.Lookup(f, i);
    const bool continues = i > 0 && d.Lookup(f, i - 1) != kInvalidPfn &&
                           d.Lookup(f, i - 1) + 1 == pfn;
    n += pfn != kInvalidPfn && !continues ? 1 : 0;
  }
  return n;
}

}  // namespace page_cache_fuzz

class RunVsDensePageCacheFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RunVsDensePageCacheFuzzTest, ExtentsAnswerAsTheDenseTable) {
  using page_cache_fuzz::DenseSpan;
  Rng rng(GetParam());
  PageCache runs;
  DensePageCache dense;
  constexpr int32_t kFiles = 3;
  for (int32_t f = 0; f < kFiles; ++f) {
    const uint64_t bytes = static_cast<uint64_t>(rng.UniformInt(1, 3000)) * kPageSize -
                           static_cast<uint64_t>(rng.UniformInt(0, kPageSize - 1));
    ASSERT_EQ(runs.RegisterFile("f", bytes), dense.RegisterFile("f", bytes));
    ASSERT_EQ(runs.FilePages(f), dense.FilePages(f));
  }
  auto random_in = [&rng](uint64_t lo, uint64_t hi) {
    return static_cast<uint64_t>(
        rng.UniformInt(static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
  };
  Pfn fresh = 1000;  // Pfns no page has used yet.
  int inserts = 0;
  int merges = 0;
  int relocates = 0;
  int multi_extent_relocates = 0;
  int drops = 0;

  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const auto f = static_cast<int32_t>(rng.UniformInt(0, kFiles - 1));
    const uint64_t pages = runs.FilePages(f);
    const uint64_t idx = random_in(0, pages - 1);
    const PageCache::Span span = runs.SpanAt(f, idx, pages);
    const PageCache::Span want = DenseSpan(dense, f, idx, pages);
    ASSERT_EQ(span.cached, want.cached);
    ASSERT_EQ(span.pages, want.pages);
    const uint64_t bound = random_in(idx + 1, pages);
    ASSERT_EQ(runs.SpanAt(f, idx, bound).cached, DenseSpan(dense, f, idx, bound).cached);
    ASSERT_EQ(runs.SpanAt(f, idx, bound).pages, DenseSpan(dense, f, idx, bound).pages);

    const size_t extents_before = runs.extent_count(f);
    const uint64_t at = idx + random_in(0, span.pages - 1);
    const auto n = static_cast<uint32_t>(random_in(1, idx + span.pages - at));
    const Pfn left = at > 0 ? dense.Lookup(f, at - 1) : kInvalidPfn;
    const Pfn right = at + n < pages ? dense.Lookup(f, at + n) : kInvalidPfn;
    Pfn pfn = fresh + static_cast<Pfn>(rng.UniformInt(0, 2));
    if (left != kInvalidPfn && rng.Chance(0.5)) {
      pfn = left + 1;  // Continues the left neighbour.
    } else if (right != kInvalidPfn && right >= n && rng.Chance(0.4)) {
      pfn = right - n;  // Runs into the right neighbour.
    }
    fresh = std::max(fresh, pfn + n) + 1;
    if (rng.UniformInt(0, 11) == 0) {
      const std::vector<PageCache::Extent> removed = runs.RemoveAll(f);
      uint64_t next_idx = 0;
      for (const PageCache::Extent& e : removed) {
        ASSERT_GT(e.pages, 0u);
        ASSERT_GE(e.page_idx, next_idx) << "extents out of page order";
        for (uint32_t k = 0; k < e.pages; ++k) {
          ASSERT_EQ(dense.Remove(f, e.page_idx + k), e.pfn + k)
              << "page " << e.page_idx + k;
        }
        next_idx = e.end_idx();
      }
      ++drops;
    } else if (!span.cached) {
      runs.InsertRun(f, at, pfn, n);
      for (uint32_t k = 0; k < n; ++k) {
        dense.Insert(f, at + k, pfn + k);
      }
      ++inserts;
      merges += runs.extent_count(f) <= extents_before ? 1 : 0;
    } else {
      for (uint32_t k = 1; k < n; ++k) {
        if (dense.Lookup(f, at + k) != dense.Lookup(f, at + k - 1) + 1) {
          ++multi_extent_relocates;
          break;
        }
      }
      runs.RelocateRun(f, at, pfn, n);
      for (uint32_t k = 0; k < n; ++k) {
        dense.Relocate(f, at + k, pfn + k);
      }
      ++relocates;
    }

    for (int32_t g = 0; g < kFiles; ++g) {
      for (uint64_t i = 0; i < runs.FilePages(g); ++i) {
        ASSERT_EQ(runs.Lookup(g, i), dense.Lookup(g, i)) << "file " << g << " page " << i;
      }
      ASSERT_EQ(runs.cached_pages(g), dense.cached_pages(g)) << "file " << g;
      ASSERT_EQ(runs.extent_count(g), page_cache_fuzz::DenseRuns(dense, g))
          << "file " << g;
    }
    ASSERT_EQ(runs.total_cached_pages(), dense.total_cached_pages());
  }
  EXPECT_GT(inserts, 50);
  EXPECT_GT(merges, 5);
  EXPECT_GT(relocates, 50);
  EXPECT_GT(multi_extent_relocates, 5);
  EXPECT_GT(drops, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunVsDensePageCacheFuzzTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// --- Balloon oracle: run-batched inflation vs the per-page driver ---------------

// BalloonDevice::Inflate takes pages a buddy chunk at a time, clears host
// backing a run at a time and books one counted host release per
// inflation; Deflate pops pfn runs.  It must leave exactly what the
// per-page driver it replaced leaves.  Twin guests replay one random
// script: one inflates and deflates through BalloonDevice, the other
// through PerPageBalloon below, a copy of the old loop with its
// per-report host release written out on the host books and the CPU
// accountant.  After every inflate and every deflate the mm state
// (mm_oracle::ExpectSame: every page view, host bit, free list and
// per-order count), the host and hypervisor books, every accountant
// thread's busy windows, every BalloonOutcome field and the held pages
// must agree.  Zone 1 holds one block and is inflated until it runs dry
// part-way through a buddy chunk and a report.
namespace balloon_oracle {

enum class Backing { kNone, kWholeBlocks, kAlternatingWords, kHalfBlock };

const char* BackingName(Backing backing) {
  switch (backing) {
    case Backing::kNone:
      return "unbacked";
    case Backing::kWholeBlocks:
      return "whole_blocks";
    case Backing::kAlternatingWords:
      return "alternating_words";
    case Backing::kHalfBlock:
      return "half_block";
  }
  return "?";
}

constexpr DurationNs kWindow = Msec(1);

std::string ThreadName(int16_t zone, const char* side) {
  return "balloon" + std::to_string(zone) + "/" + side;
}

struct Guest {
  Guest(const CostModel* cost, uint64_t shuffle_seed)
      : mm(shuffle_seed, /*shuffled=*/true), host(GiB(64)), cpu(kWindow), hv(&host, cost, &cpu) {
    vm = hv.RegisterVm("vm", 1);
  }
  mm_oracle::MmSet mm;
  HostMemory host;
  CpuAccountant cpu;
  Hypervisor hv;
  VmId vm = 0;
  // What the VM's hypervisor populated_bytes reads under the per-page
  // driver, which books its releases here instead of through hv.
  uint64_t vm_populated = 0;
};

// The per-page balloon: one Alloc, one held pfn and one host-bit clear per
// page, and one host release per report of balloon_batch_pages.
class PerPageBalloon {
 public:
  PerPageBalloon(Guest* g, const CostModel* cost, int16_t zone)
      : g_(g), cost_(cost), zone_(zone) {}

  BalloonOutcome Inflate(uint64_t bytes, TimeNs now) {
    BalloonOutcome out;
    const uint64_t want = BytesToPages(bytes);
    std::vector<Pfn> batch;
    auto report_batch = [&] {
      if (batch.empty()) {
        return;
      }
      uint64_t populated = 0;
      for (const Pfn pfn : batch) {
        populated += g_->mm.memmap.ClearHostPopulated(pfn, 1);
      }
      // Hypervisor::BalloonRelease(vm, populated, now) of one report.
      const DurationNs latency = cost_->balloon_exit_page * static_cast<int64_t>(populated);
      EXPECT_GE(g_->vm_populated, PagesToBytes(populated));
      g_->vm_populated -= PagesToBytes(populated);
      g_->host.Unpopulate(PagesToBytes(populated), now);
      g_->cpu.AddBusy("vmm/vm", now, latency);
      out.breakdown.vm_exits +=
          latency + cost_->balloon_exit_page * static_cast<int64_t>(batch.size() - populated);
      batch.clear();
    };
    while (out.pages < want) {
      const Pfn pfn = g_->mm.zones[static_cast<size_t>(zone_)]->Alloc(
          0, PageKind::kKernel, kNoOwner, static_cast<uint32_t>(out.pages));
      if (pfn == kInvalidPfn) {
        break;
      }
      held.push_back(pfn);
      ++out.pages;
      out.breakdown.rest += cost_->balloon_guest_page;
      batch.push_back(pfn);
      if (batch.size() >= cost_->balloon_batch_pages) {
        report_batch();
      }
    }
    report_batch();
    out.complete = out.pages >= want;
    if (out.breakdown.rest > 0) {
      g_->cpu.AddBusy(ThreadName(zone_, "guest"), now, out.breakdown.rest);
    }
    if (out.breakdown.vm_exits > 0) {
      g_->cpu.AddBusy(ThreadName(zone_, "host"), now, out.breakdown.vm_exits);
    }
    return out;
  }

  DurationNs Deflate(uint64_t bytes) {
    const uint64_t want = std::min<uint64_t>(BytesToPages(bytes), held.size());
    DurationNs latency = 0;
    for (uint64_t i = 0; i < want; ++i) {
      g_->mm.zones[static_cast<size_t>(zone_)]->Free(held.back());
      held.pop_back();
      latency += cost_->balloon_guest_page;
    }
    return latency;
  }

  std::vector<Pfn> held;

 private:
  Guest* g_;
  const CostModel* cost_;
  int16_t zone_;
};

// Backs block b per the pattern (pages it already backs stay as they are)
// and books the new backing as one nested fault.
void Back(Backing backing, BlockIndex b, Guest* g, TimeNs now) {
  const Pfn start = MemMap::BlockStart(b);
  MemMap& m = g->mm.memmap;
  uint64_t added = 0;
  switch (backing) {
    case Backing::kNone:
      break;
    case Backing::kWholeBlocks:
      added = m.SetHostPopulated(start, kPagesPerBlock);
      break;
    case Backing::kAlternatingWords:
      for (uint32_t w = 0; w < kPagesPerBlock / 64; w += 2) {
        added += m.SetHostPopulated(start + 64 * w, 64);
      }
      break;
    case Backing::kHalfBlock:
      added = m.SetHostPopulated(start, kPagesPerBlock / 2);
      break;
  }
  if (added > 0) {
    g->hv.NestedFaultPopulate(g->vm, 1, PagesToBytes(added), now);
    g->vm_populated += PagesToBytes(added);
  }
}

void ExpectSame(const Guest& dev, const Guest& ref, const std::vector<BalloonDevice>& devs,
                const std::vector<PerPageBalloon>& refs, int step) {
  uint64_t digest = mm_oracle::kFnvOffset;
  SCOPED_TRACE("balloon step " + std::to_string(step));
  mm_oracle::ExpectSame(dev.mm, ref.mm, step, &digest);
  ASSERT_FALSE(testing::Test::HasFatalFailure());
  EXPECT_EQ(dev.hv.stats(dev.vm).populated_bytes, ref.vm_populated);
  EXPECT_EQ(dev.host.populated(), ref.host.populated());
  EXPECT_EQ(dev.host.populated_peak(), ref.host.populated_peak());
  const auto& dp = dev.host.populated_series().points();
  const auto& rp = ref.host.populated_series().points();
  ASSERT_EQ(dp.size(), rp.size());
  for (size_t i = 0; i < dp.size(); ++i) {
    EXPECT_EQ(dp[i].t, rp[i].t) << "point " << i;
    EXPECT_EQ(dp[i].value, rp[i].value) << "point " << i;
  }
  ASSERT_EQ(dev.cpu.threads(), ref.cpu.threads());
  for (const std::string& thread : dev.cpu.threads()) {
    EXPECT_EQ(dev.cpu.TotalBusy(thread), ref.cpu.TotalBusy(thread)) << thread;
    EXPECT_EQ(dev.cpu.Series(thread), ref.cpu.Series(thread)) << thread;
  }
  for (size_t z = 0; z < devs.size(); ++z) {
    EXPECT_EQ(devs[z].held_pages(), refs[z].held.size()) << "zone " << z;
    EXPECT_EQ(devs[z].held_bytes(), PagesToBytes(refs[z].held.size())) << "zone " << z;
  }
}

void ExpectSameOutcome(const BalloonOutcome& a, const BalloonOutcome& b) {
  EXPECT_EQ(a.pages, b.pages);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.breakdown.zeroing, b.breakdown.zeroing);
  EXPECT_EQ(a.breakdown.migration, b.breakdown.migration);
  EXPECT_EQ(a.breakdown.vm_exits, b.breakdown.vm_exits);
  EXPECT_EQ(a.breakdown.rest, b.breakdown.rest);
}

}  // namespace balloon_oracle

class BalloonRunsVsPerPageTest
    : public testing::TestWithParam<
          std::tuple<uint64_t, uint32_t /*batch*/, balloon_oracle::Backing>> {};

TEST_P(BalloonRunsVsPerPageTest, InflateAndDeflateEqualThePerPageDriver) {
  using balloon_oracle::Backing;
  using balloon_oracle::Guest;
  using balloon_oracle::kWindow;
  using balloon_oracle::PerPageBalloon;
  using mm_oracle::kBlocks;
  using mm_oracle::kZones;
  const auto [seed, batch, backing] = GetParam();
  CostModel cost = CostModel::Default();
  cost.balloon_batch_pages = batch;
  Guest dev(&cost, seed + 59);
  Guest ref(&cost, seed + 59);
  Guest* const guests[] = {&dev, &ref};
  // Zone 1 gets the last block, zone 0 the rest.
  auto zone_of = [](BlockIndex b) { return static_cast<int16_t>(b + 1 == kBlocks ? 1 : 0); };
  for (BlockIndex b = 0; b < kBlocks; ++b) {
    for (Guest* g : guests) {
      g->mm.memmap.InitBlock(b);
      g->mm.zones[static_cast<size_t>(zone_of(b))]->AddFreeRange(MemMap::BlockStart(b),
                                                                 kPagesPerBlock);
      g->mm.memmap.set_block_state(b, BlockState::kOnline);
    }
  }
  std::vector<BalloonDevice> devs;
  std::vector<PerPageBalloon> refs;
  for (int16_t z = 0; z < kZones; ++z) {
    devs.emplace_back(&dev.mm.memmap, &cost, &dev.hv, dev.vm, &dev.cpu,
                      balloon_oracle::ThreadName(z, "guest"),
                      balloon_oracle::ThreadName(z, "host"));
    refs.emplace_back(&ref, &cost, z);
  }

  // Fragment the zones: folios at order 0 and 9, some freed again.
  Rng rng(seed);
  std::vector<std::pair<Pfn, int16_t>> held;
  for (int i = 0; i < 80; ++i) {
    const auto z = static_cast<int16_t>(rng.UniformInt(0, kZones - 1));
    const uint8_t order = rng.Chance(0.7) ? 0 : kThpOrder;
    const Pfn a = dev.mm.zones[static_cast<size_t>(z)]->Alloc(order, PageKind::kAnon, 1, 0);
    ASSERT_EQ(a, ref.mm.zones[static_cast<size_t>(z)]->Alloc(order, PageKind::kAnon, 1, 0));
    held.emplace_back(a, z);
    if (rng.Chance(0.4)) {
      const auto k =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
      for (Guest* g : guests) {
        g->mm.zones[static_cast<size_t>(held[k].second)]->Free(held[k].first);
      }
      held[k] = held.back();
      held.pop_back();
    }
  }

  int step = 0;
  for (int round = 0; round < 6; ++round) {
    // 1 ns before a window edge, so every charge spills into the next.
    const TimeNs now = (round + 1) * 7 * kWindow - 1;
    for (BlockIndex b = 0; b < kBlocks; ++b) {
      for (Guest* g : guests) {
        balloon_oracle::Back(backing, b, g, now);
      }
    }
    const bool last = round == 5;
    const int16_t z = last ? 1 : static_cast<int16_t>(rng.UniformInt(0, kZones - 1));
    Zone& dz = *dev.mm.zones[static_cast<size_t>(z)];
    Zone& rz = *ref.mm.zones[static_cast<size_t>(z)];
    uint64_t pages = static_cast<uint64_t>(rng.UniformInt(1, 6000));
    if (last) {
      // Run zone 1 dry, with its free pages not a whole number of reports.
      if (dz.free_pages() % 32 == 0) {
        ASSERT_EQ(dz.Alloc(0, PageKind::kAnon, 1, 0), rz.Alloc(0, PageKind::kAnon, 1, 0));
      }
      pages = dz.free_pages() + 777;
    }
    const BalloonOutcome a = devs[static_cast<size_t>(z)].Inflate(PagesToBytes(pages), &dz, now);
    const BalloonOutcome b = refs[static_cast<size_t>(z)].Inflate(PagesToBytes(pages), now);
    balloon_oracle::ExpectSameOutcome(a, b);
    if (last) {
      EXPECT_FALSE(a.complete);
      EXPECT_EQ(dz.free_pages(), 0u);
      EXPECT_NE(a.pages % 32, 0u) << "the last report is a partial one";
    }
    balloon_oracle::ExpectSame(dev, ref, devs, refs, step++);
    if (testing::Test::HasFailure()) {
      return;
    }
    // Deflate half of what this balloon holds (the most recent pages).
    const uint64_t half = PagesToBytes(refs[static_cast<size_t>(z)].held.size() / 2);
    EXPECT_EQ(devs[static_cast<size_t>(z)].Deflate(half, &dz),
              refs[static_cast<size_t>(z)].Deflate(half));
    balloon_oracle::ExpectSame(dev, ref, devs, refs, step++);
    if (testing::Test::HasFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsBatchesBacking, BalloonRunsVsPerPageTest,
    testing::Combine(testing::Values(1u, 2u, 3u), testing::Values(1u, 32u, 256u),
                     testing::Values(balloon_oracle::Backing::kNone,
                                     balloon_oracle::Backing::kWholeBlocks,
                                     balloon_oracle::Backing::kAlternatingWords,
                                     balloon_oracle::Backing::kHalfBlock)),
    [](const testing::TestParamInfo<
        std::tuple<uint64_t, uint32_t, balloon_oracle::Backing>>& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) + "_batch" +
             std::to_string(std::get<1>(param_info.param)) + "_" +
             balloon_oracle::BackingName(std::get<2>(param_info.param));
    });

// --- Event-queue fuzz: EventQueue vs the binary-heap oracle, op for op ----------

// The determinism contract — events fire in pure (timestamp, scheduling
// sequence) order, cancellations only remove their own event, the clock
// advances identically — must hold for ANY interleaving of ScheduleAt /
// ScheduleAfter / Cancel / AdvanceBy / RunUntil, including events that
// schedule and cancel other events from inside their handlers.  The
// reference model is tests/oracles/heap_event_queue.h: both queues replay
// one random op script and must produce identical cancel results, firing
// logs, clocks and pending counts at every checkpoint.  Ids are opaque
// handles, so they are only checked to be nonzero and all distinct.
class EventQueueVsHeapOracleFuzzTest : public testing::TestWithParam<uint64_t> {};

namespace event_queue_fuzz {

struct Op {
  enum Kind { kSchedule, kCancel, kAdvance, kRunUntil } kind;
  int64_t a = 0;  // kSchedule: delay ns (absolute-from-now); kCancel: id
                  // index; kAdvance/kRunUntil: duration ns.
  int tag = 0;    // kSchedule: handler tag.
};

struct Replay {
  std::vector<std::pair<int, TimeNs>> fired;
  std::vector<EventId> ids;
  std::vector<bool> cancel_results;
  std::vector<TimeNs> clocks;      // now() after every RunUntil.
  std::vector<size_t> pendings;    // pending() after every RunUntil.
};

template <typename Queue>
Replay Run(const std::vector<Op>& script) {
  Queue q;
  Replay r;
  // Handlers are pure functions of their tag, so both queues behave
  // identically as long as they fire in the same order.
  std::function<void(int)> on_fire = [&](int tag) {
    r.fired.push_back({tag, q.now()});
    if (tag % 7 == 3) {
      // Nested same-instant + near-future scheduling from a handler.
      const int child = tag + 1000000;
      q.ScheduleAfter((tag % 5) * Usec(300), [&on_fire, child] { on_fire(child); });
    }
    if (tag % 11 == 5 && !r.ids.empty()) {
      // Handler-driven cancellation of an arbitrary earlier id.
      r.cancel_results.push_back(
          q.Cancel(r.ids[static_cast<size_t>(tag) % r.ids.size()]));
    }
  };
  for (const Op& op : script) {
    switch (op.kind) {
      case Op::kSchedule: {
        const int tag = op.tag;
        r.ids.push_back(
            q.ScheduleAt(q.now() + op.a, [&on_fire, tag] { on_fire(tag); }));
        break;
      }
      case Op::kCancel:
        if (!r.ids.empty()) {
          r.cancel_results.push_back(
              q.Cancel(r.ids[static_cast<size_t>(op.a) % r.ids.size()]));
        }
        break;
      case Op::kAdvance:
        q.AdvanceBy(op.a);
        break;
      case Op::kRunUntil:
        q.RunUntil(q.now() + op.a);
        r.clocks.push_back(q.now());
        r.pendings.push_back(q.pending());
        break;
    }
  }
  q.RunAll();
  r.clocks.push_back(q.now());
  r.pendings.push_back(q.pending());
  return r;
}

}  // namespace event_queue_fuzz

TEST_P(EventQueueVsHeapOracleFuzzTest, MatchesHeapReferenceExactly) {
  using event_queue_fuzz::Op;
  const uint64_t seed = GetParam();
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
  std::vector<Op> script;
  int next_tag = 0;
  for (int i = 0; i < 600; ++i) {
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // Near-future.
        script.push_back({Op::kSchedule, Msec(rng.UniformInt(0, 2000)), next_tag++});
        break;
      }
      case 4: {  // Far-future: seconds to minutes out.
        script.push_back({Op::kSchedule, Sec(rng.UniformInt(3, 120)), next_tag++});
        break;
      }
      case 5: {  // Multi-hour: up to two days out.
        script.push_back({Op::kSchedule, Minutes(rng.UniformInt(30, 2880)), next_tag++});
        break;
      }
      case 6:  // Same-instant pileup: the FIFO contract under load.
        for (int j = 0; j < 4; ++j) {
          script.push_back({Op::kSchedule, Msec(500), next_tag++});
        }
        break;
      case 7:
        script.push_back({Op::kCancel, rng.UniformInt(0, 1 << 20), 0});
        break;
      case 8:  // AdvanceBy can jump the clock past scheduled events.
        script.push_back({Op::kAdvance, Msec(rng.UniformInt(0, 5000)), 0});
        break;
      case 9:
        script.push_back({Op::kRunUntil, Msec(rng.UniformInt(0, 30000)), 0});
        break;
    }
  }
  script.push_back({Op::kRunUntil, Minutes(3), 0});

  const event_queue_fuzz::Replay queue = event_queue_fuzz::Run<EventQueue>(script);
  const event_queue_fuzz::Replay heap = event_queue_fuzz::Run<HeapEventQueue>(script);

  ASSERT_EQ(queue.ids.size(), heap.ids.size());
  std::vector<EventId> ids = queue.ids;
  ASSERT_FALSE(ids.empty());
  std::sort(ids.begin(), ids.end());
  EXPECT_NE(ids.front(), kInvalidEventId);
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "an id was issued twice";
  EXPECT_EQ(queue.cancel_results, heap.cancel_results);
  EXPECT_EQ(queue.clocks, heap.clocks);
  EXPECT_EQ(queue.pendings, heap.pendings);
  ASSERT_EQ(queue.fired.size(), heap.fired.size());
  for (size_t i = 0; i < queue.fired.size(); ++i) {
    EXPECT_EQ(queue.fired[i], heap.fired[i]) << "divergence at event " << i;
  }
  // Sanity on the scenario itself: events fired and some were cancelled.
  EXPECT_GT(queue.fired.size(), 100u);
  EXPECT_FALSE(queue.cancel_results.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueVsHeapOracleFuzzTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// --- ScheduleEach vs per-call ScheduleAt ----------------------------------------

// EventQueue::ScheduleEach stores only a series' next call, yet must fire
// exactly as the n ScheduleAt calls it replaces, made at submission.  The
// heap oracle expands every series into those calls; the single queue and
// the sharded kernel's mailbox run the real primitive.  Scripts mix
// unsorted series with duplicate and already-past times, timers on a 1 ms
// grid that tie with the calls (scheduled before and after the series),
// zero-delay chains, series submitted mid-run from handlers, overlapping
// series, cancels and (single queue only) clock advances.
class ScheduleEachFuzzTest : public testing::TestWithParam<std::tuple<uint64_t, bool>> {};

namespace schedule_each_fuzz {

constexpr int kShards = 3;
// Queue label of the mailbox.  A single-queue kernel ignores labels, but
// handlers act on them the same way in every kernel.
constexpr int kMailbox = kShards;
constexpr int kChildBase = 1'000'000;   // Tags of chained children.
constexpr int kNestedBase = 2'000'000;  // Tags of series submitted by handlers.

struct Op {
  enum Kind { kTimer, kSeries, kCancel, kAdvance, kRunUntil };
  explicit Op(Kind k, int64_t arg = 0) : kind(k), a(arg) {}
  Kind kind;
  int queue = kMailbox;          // kTimer: the queue it goes to.
  int64_t a = 0;                 // kTimer: delay; kCancel: timer index;
                                 // kAdvance/kRunUntil: duration.
  std::vector<int64_t> offsets;  // kSeries: call times minus now (may be < 0).
  int tag = 0;                   // kTimer: tag; kSeries: tag of call 0.
};

struct Fired {
  int tag;
  int queue;
  TimeNs at;
  bool operator==(const Fired& o) const {
    return tag == o.tag && queue == o.queue && at == o.at;
  }
};

struct Replay {
  std::vector<Fired> fired;
  std::vector<bool> cancel_results;
  std::vector<TimeNs> clocks;  // now() after every RunUntil, and at the end.
};

// The oracle: a series is n ScheduleAt calls.
struct HeapKernel {
  HeapEventQueue q;
  HeapEventQueue& queue(int) { return q; }
  void Each(std::vector<TimeNs> whens, std::function<void(size_t)> fn) {
    for (size_t i = 0; i < whens.size(); ++i) {
      q.ScheduleAt(whens[i], [fn, i] { fn(i); });
    }
  }
  TimeNs now() const { return q.now(); }
  void AdvanceBy(DurationNs d) { q.AdvanceBy(d); }
  void RunUntil(TimeNs t) { q.RunUntil(t); }
  void RunAll() { q.RunAll(); }
};

struct SingleKernel {
  EventQueue q;
  EventQueue& queue(int) { return q; }
  void Each(std::vector<TimeNs> whens, std::function<void(size_t)> fn) {
    q.ScheduleEach(std::move(whens), std::move(fn));
  }
  TimeNs now() const { return q.now(); }
  void AdvanceBy(DurationNs d) { q.AdvanceBy(d); }
  void RunUntil(TimeNs t) { q.RunUntil(t); }
  void RunAll() { q.RunAll(); }
};

// Series go to the mailbox, as Cluster::SubmitTrace's do.
struct ShardedKernel {
  ShardedEventQueue s{kShards};
  EventQueue& queue(int i) { return i == kMailbox ? s.global() : s.shard(static_cast<size_t>(i)); }
  void Each(std::vector<TimeNs> whens, std::function<void(size_t)> fn) {
    s.global().ScheduleEach(std::move(whens), std::move(fn));
  }
  TimeNs now() const { return s.now(); }
  void AdvanceBy(DurationNs) { ADD_FAILURE() << "sharded scripts never advance"; }
  void RunUntil(TimeNs t) { s.RunUntil(t); }
  void RunAll() { s.RunAll(); }
};

template <typename Kernel>
Replay Run(const std::vector<Op>& script) {
  Kernel k;
  Replay r;
  std::vector<std::pair<int, EventId>> timers;  // (queue, id) of every timer.
  const auto cancel = [&](size_t index) {
    const auto& [q, id] = timers[index % timers.size()];
    r.cancel_results.push_back(k.queue(q).Cancel(id));
  };
  // Handlers are pure functions of (tag, queue).  Only mailbox handlers
  // reach other queues or submit series.
  std::function<void(int, int)> on_fire = [&](int tag, int q) {
    r.fired.push_back({tag, q, k.queue(q).now()});
    if (tag < kChildBase && tag % 4 == 1) {
      // A chained event at +0, +1 or +2 ms: ties with the 1 ms grid.
      const int child = tag + kChildBase;
      const int child_q = q == kMailbox ? tag % kShards : q;
      k.queue(child_q).ScheduleAfter(Msec(tag % 3),
                                     [&on_fire, child, child_q] { on_fire(child, child_q); });
    }
    if (q != kMailbox || tag >= kChildBase) {
      return;
    }
    if (tag % 7 == 2) {
      // Mid-run submission: two calls already in the past clamp to now.
      const int base = kNestedBase + tag * 8;
      const TimeNs now = k.now();
      k.Each({now + Msec(3), now - Msec(2), now, now + Msec(1), now - Msec(1)},
             [&on_fire, base](size_t i) { on_fire(base + static_cast<int>(i), kMailbox); });
    }
    if (tag % 11 == 4 && !timers.empty()) {
      cancel(static_cast<size_t>(tag));
    }
  };
  for (const Op& op : script) {
    switch (op.kind) {
      case Op::kTimer: {
        const int tag = op.tag;
        const int q = op.queue;
        timers.push_back({q, k.queue(q).ScheduleAt(k.now() + op.a,
                                                   [&on_fire, tag, q] { on_fire(tag, q); })});
        break;
      }
      case Op::kSeries: {
        std::vector<TimeNs> whens;
        for (const int64_t off : op.offsets) {
          whens.push_back(k.now() + off);
        }
        const int base = op.tag;
        k.Each(std::move(whens),
               [&on_fire, base](size_t i) { on_fire(base + static_cast<int>(i), kMailbox); });
        break;
      }
      case Op::kCancel:
        if (!timers.empty()) {
          cancel(static_cast<size_t>(op.a));
        }
        break;
      case Op::kAdvance:
        k.AdvanceBy(op.a);
        break;
      case Op::kRunUntil:
        k.RunUntil(k.now() + op.a);
        r.clocks.push_back(k.now());
        break;
    }
  }
  k.RunAll();
  r.clocks.push_back(k.now());
  return r;
}

}  // namespace schedule_each_fuzz

TEST_P(ScheduleEachFuzzTest, SeriesFireAsPerCallScheduleAt) {
  using schedule_each_fuzz::Op;
  const auto [seed, sharded] = GetParam();
  Rng rng(seed * 0x2545f4914f6cdd1dull + 11);
  std::vector<Op> script;
  int next_tag = 0;
  for (int i = 0; i < 300; ++i) {
    const int64_t kind = rng.UniformInt(0, 9);
    switch (kind) {
      case 0:
      case 1:
      case 2: {
        Op op(Op::kTimer, Msec(rng.UniformInt(0, 40)));
        op.queue = static_cast<int>(rng.UniformInt(0, schedule_each_fuzz::kMailbox));
        op.tag = next_tag++;
        script.push_back(op);
        break;
      }
      case 3:
      case 4: {
        // Unsorted, with duplicates and calls behind now; case 4 draws
        // from four times only, so most calls tie.
        Op op(Op::kSeries);
        const int64_t n = rng.UniformInt(1, 12);
        for (int64_t j = 0; j < n; ++j) {
          op.offsets.push_back(kind == 4 ? Msec(10 * rng.UniformInt(0, 3) - 5)
                                         : Msec(rng.UniformInt(-5, 40)));
        }
        op.tag = next_tag;
        next_tag += static_cast<int>(n);
        script.push_back(op);
        break;
      }
      case 5:
        script.push_back(Op(Op::kCancel, rng.UniformInt(0, 1 << 20)));
        break;
      case 6:
        script.push_back(Op(sharded ? Op::kRunUntil : Op::kAdvance, Msec(rng.UniformInt(0, 6))));
        break;
      case 7:
      case 8:
        script.push_back(Op(Op::kRunUntil, Msec(rng.UniformInt(0, 30))));
        break;
      case 9:  // Run only what is due now (zero-delay chains included).
        script.push_back(Op(Op::kRunUntil));
        break;
    }
  }

  const schedule_each_fuzz::Replay heap =
      schedule_each_fuzz::Run<schedule_each_fuzz::HeapKernel>(script);
  const schedule_each_fuzz::Replay got =
      sharded ? schedule_each_fuzz::Run<schedule_each_fuzz::ShardedKernel>(script)
              : schedule_each_fuzz::Run<schedule_each_fuzz::SingleKernel>(script);
  EXPECT_EQ(got.cancel_results, heap.cancel_results);
  EXPECT_EQ(got.clocks, heap.clocks);
  ASSERT_EQ(got.fired.size(), heap.fired.size());
  for (size_t i = 0; i < got.fired.size(); ++i) {
    ASSERT_TRUE(got.fired[i] == heap.fired[i])
        << "diverges at event " << i << ": tag " << got.fired[i].tag << " at "
        << got.fired[i].at << " vs tag " << heap.fired[i].tag << " at "
        << heap.fired[i].at;
  }
  // The script exercised what it is for.
  EXPECT_GT(heap.fired.size(), 200u);
  EXPECT_FALSE(heap.cancel_results.empty());
  EXPECT_TRUE(std::any_of(heap.fired.begin(), heap.fired.end(), [](const auto& f) {
    return f.tag >= schedule_each_fuzz::kNestedBase;
  }));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ScheduleEachFuzzTest,
    testing::Combine(testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<uint64_t, bool>>& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_sharded" : "_single");
    });

// --- Sharded merge vs the heap oracle -------------------------------------------

// ShardedEventQueue must fire every event in the single queue's global
// (when, seq) order on one shared clock.  The heap oracle runs each
// script on one queue; the sharded kernel spreads it over shards and the
// mailbox.  Scripts mix cross-queue scheduling from handlers (mailbox to
// shard, shard to mailbox, shard to shard), mailbox handlers scheduling
// onto a shard that is idle for seconds, handler cancels of ids held by
// other queues, mailbox ScheduleEach series, timers on a 1 ms grid that
// tie across queues, and RunUntil deadlines that fall between events.
// The firing log (tag, queue, clock) and the clock after every RunUntil
// must match exactly.
class ShardedMergeVsHeapOracleFuzzTest : public testing::TestWithParam<uint64_t> {};

namespace sharded_merge_fuzz {

constexpr int kShards = 4;
constexpr int kMailbox = kShards;
// Only mailbox handlers schedule onto this shard; scripts never do.
constexpr int kIdleShard = kShards - 1;
constexpr int kChildBase = 1'000'000;  // Tags of events scheduled by handlers.

struct Op {
  enum Kind { kTimer, kSeries, kCancel, kRunUntil } kind;
  int queue = kMailbox;          // kTimer: the queue it goes to.
  int64_t a = 0;                 // kTimer: delay; kCancel: timer index;
                                 // kRunUntil: duration.
  std::vector<int64_t> offsets;  // kSeries: call times minus now.
  int tag = 0;                   // kTimer: tag; kSeries: tag of call 0.
};

struct Fired {
  int tag;
  int queue;
  TimeNs at;
  bool operator==(const Fired& o) const {
    return tag == o.tag && queue == o.queue && at == o.at;
  }
};

struct Replay {
  std::vector<Fired> fired;
  std::vector<bool> cancel_results;
  std::vector<TimeNs> clocks;  // now() after every RunUntil, and at the end.
};

struct HeapKernel {
  HeapEventQueue q;
  HeapEventQueue& queue(int) { return q; }
  void Each(std::vector<TimeNs> whens, std::function<void(size_t)> fn) {
    for (size_t i = 0; i < whens.size(); ++i) {
      q.ScheduleAt(whens[i], [fn, i] { fn(i); });
    }
  }
  TimeNs now() const { return q.now(); }
  void RunUntil(TimeNs t) { q.RunUntil(t); }
  void RunAll() { q.RunAll(); }
};

struct ShardedKernel {
  ShardedEventQueue s{kShards};
  EventQueue& queue(int i) {
    return i == kMailbox ? s.global() : s.shard(static_cast<size_t>(i));
  }
  void Each(std::vector<TimeNs> whens, std::function<void(size_t)> fn) {
    s.global().ScheduleEach(std::move(whens), std::move(fn));
  }
  TimeNs now() const { return s.now(); }
  void RunUntil(TimeNs t) { s.RunUntil(t); }
  void RunAll() { s.RunAll(); }
};

template <typename Kernel>
Replay Run(const std::vector<Op>& script) {
  Kernel k;
  Replay r;
  std::vector<std::pair<int, EventId>> timers;  // (queue, id), handler-made ones too.
  // Cancels one of the last 16 timers, which are most likely still pending.
  const auto cancel = [&](size_t index) {
    const size_t back = index % std::min<size_t>(timers.size(), 16);
    const auto& [q, id] = timers[timers.size() - 1 - back];
    r.cancel_results.push_back(k.queue(q).Cancel(id));
  };
  // Handlers are pure functions of (tag, queue) and read the clock of the
  // queue they run on.
  std::function<void(int, int)> on_fire = [&](int tag, int q) {
    r.fired.push_back({tag, q, k.queue(q).now()});
    if (tag % 5 == 3 && !timers.empty()) {
      cancel(static_cast<size_t>(tag) * 7);  // Usually an id another queue holds.
    }
    if (tag >= kChildBase) {
      return;  // Children schedule nothing.
    }
    const auto schedule = [&](int to, DurationNs delay, int child) {
      timers.push_back({to, k.queue(to).ScheduleAfter(
                                delay, [&on_fire, child, to] { on_fire(child, to); })});
    };
    const int child = kChildBase + tag * 2;
    if (tag % 3 == 1) {
      // Mailbox to a shard, a shard to the mailbox or to the next shard,
      // at +0..2 ms: ties with the grid.
      const int to = q == kMailbox      ? tag % (kShards - 1)
                     : tag % 2 == 0     ? kMailbox
                                        : (q + 1) % (kShards - 1);
      schedule(to, Msec(tag % 3), child);
    }
    if (q == kMailbox && tag % 4 == 2) {
      // Onto the idle shard, at fleet time plus a few microseconds.
      schedule(kIdleShard, Usec(tag % 5), child + 1);
    }
  };
  for (const Op& op : script) {
    switch (op.kind) {
      case Op::kTimer: {
        const int tag = op.tag;
        const int q = op.queue;
        timers.push_back(
            {q, k.queue(q).ScheduleAt(k.now() + op.a,
                                      [&on_fire, tag, q] { on_fire(tag, q); })});
        break;
      }
      case Op::kSeries: {
        std::vector<TimeNs> whens;
        for (const int64_t off : op.offsets) {
          whens.push_back(k.now() + off);
        }
        const int base = op.tag;
        k.Each(std::move(whens), [&on_fire, base](size_t i) {
          on_fire(base + static_cast<int>(i), kMailbox);
        });
        break;
      }
      case Op::kCancel:
        if (!timers.empty()) {
          cancel(static_cast<size_t>(op.a));
        }
        break;
      case Op::kRunUntil:
        k.RunUntil(k.now() + op.a);
        r.clocks.push_back(k.now());
        break;
    }
  }
  k.RunAll();
  r.clocks.push_back(k.now());
  return r;
}

}  // namespace sharded_merge_fuzz

TEST_P(ShardedMergeVsHeapOracleFuzzTest, FiresInTheSingleQueueOrderOnOneClock) {
  using sharded_merge_fuzz::Op;
  const uint64_t seed = GetParam();
  Rng rng(seed * 0xd1b54a32d192ed03ull + 5);
  std::vector<Op> script;
  int next_tag = 0;
  for (int i = 0; i < 400; ++i) {
    Op op{};
    const int64_t kind = rng.UniformInt(0, 9);
    switch (kind) {
      case 0:
      case 1:
      case 2:  // On the 1 ms grid, so queues tie.
      case 3:  // Anywhere in the next few seconds.
        op.kind = Op::kTimer;
        op.queue = static_cast<int>(rng.UniformInt(0, sharded_merge_fuzz::kMailbox));
        if (op.queue == sharded_merge_fuzz::kIdleShard) {
          op.queue = sharded_merge_fuzz::kMailbox;
        }
        op.a = kind == 3 ? Usec(rng.UniformInt(0, 3'000'000))
                         : Msec(rng.UniformInt(0, 40));
        op.tag = next_tag++;
        break;
      case 4: {  // A mailbox series, unsorted, some calls in the past.
        op.kind = Op::kSeries;
        const int64_t n = rng.UniformInt(1, 8);
        for (int64_t j = 0; j < n; ++j) {
          op.offsets.push_back(Msec(rng.UniformInt(-3, 30)));
        }
        op.tag = next_tag;
        next_tag += static_cast<int>(n);
        break;
      }
      case 5:
        op.kind = Op::kCancel;
        op.a = rng.UniformInt(0, 1 << 20);
        break;
      case 6:  // A long gap: the idle shard stays idle for seconds.
        op.kind = Op::kRunUntil;
        op.a = Sec(rng.UniformInt(1, 4)) + 1;
        break;
      default:  // Deadlines between events: off the grid by odd nanoseconds.
        op.kind = Op::kRunUntil;
        op.a = rng.UniformInt(0, 2) == 0 ? 0 : Usec(rng.UniformInt(0, 30'000)) + 7;
        break;
    }
    script.push_back(op);
  }

  const sharded_merge_fuzz::Replay heap =
      sharded_merge_fuzz::Run<sharded_merge_fuzz::HeapKernel>(script);
  const sharded_merge_fuzz::Replay got =
      sharded_merge_fuzz::Run<sharded_merge_fuzz::ShardedKernel>(script);
  EXPECT_EQ(got.cancel_results, heap.cancel_results);
  EXPECT_EQ(got.clocks, heap.clocks);
  ASSERT_EQ(got.fired.size(), heap.fired.size());
  for (size_t i = 0; i < got.fired.size(); ++i) {
    ASSERT_TRUE(got.fired[i] == heap.fired[i])
        << "diverges at event " << i << ": tag " << got.fired[i].tag << " on queue "
        << got.fired[i].queue << " at " << got.fired[i].at << " vs tag "
        << heap.fired[i].tag << " on queue " << heap.fired[i].queue << " at "
        << heap.fired[i].at;
  }
  // The script exercised what it is for.
  EXPECT_GT(heap.fired.size(), 300u);
  EXPECT_GT(std::count(heap.cancel_results.begin(), heap.cancel_results.end(), true), 10);
  EXPECT_TRUE(std::any_of(heap.fired.begin(), heap.fired.end(), [](const auto& f) {
    return f.queue == sharded_merge_fuzz::kIdleShard;
  }));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedMergeVsHeapOracleFuzzTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// --- Cluster migration fuzz: drain/migrate/undrain sequences -------------------

// Fleet-wide memory conservation must survive ARBITRARY interleavings of
// drains, undrains and pressure migrations while a skewed trace runs
// (the churn script of tests/support/cluster_churn.h):
//   * per host and at every step, committed + free == capacity with
//     committed <= capacity (an unbalanced EvictReplica/AdoptReplica pair
//     would underflow or overflow the book) and populated <= committed;
//   * no replica is double-counted mid-flight: the live instances of a
//     function across the whole fleet never exceed its replica count
//     times the concurrency cap, even while transfers are in flight;
//   * when everything quiesces, every host is back at exactly its
//     boot-time commitment, nothing is in flight, and no instance leaks.
class ClusterMigrationFuzzTest
    : public testing::TestWithParam<std::tuple<ReclaimPolicy, uint64_t /*seed*/>> {};

TEST_P(ClusterMigrationFuzzTest, RandomDrainMigrateUndrainConservesFleetMemory) {
  const auto [reclaim, seed] = GetParam();
  using cluster_churn::kConcurrency;
  const ClusterConfig cfg = cluster_churn::Config(reclaim, seed);
  Cluster cluster(cfg);
  const FunctionSpec spec = TinySpec("fuzz");
  AddSkewedLoad(cluster, spec, seed);
  const std::vector<uint64_t> boot =
      PerReplica(cluster, FaasRuntime::BootCommitment(cfg.host, spec, kConcurrency));

  const auto check = [&](int step) {
    // Mid-flight transfers included.
    ASSERT_NO_FATAL_FAILURE(cluster_churn::AssertBooksHold(cluster, step));
    for (int fn = 0; fn < cluster_churn::kFunctions; ++fn) {
      size_t live = 0;
      for (const Replica& r : cluster.replicas(fn)) {
        live += cluster.host(r.host).agent(r.local_fn).live_instances();
      }
      ASSERT_LE(live, cluster.replicas(fn).size() * kConcurrency)
          << "replica double-counted at step " << step;
    }
  };
  ASSERT_NO_FATAL_FAILURE(
      cluster_churn::Churn(cluster, seed, {1099511628211ull, 17}, check));
  // HarvestVM slack would stay plugged at quiescence on non-drained
  // hosts; this fuzz sticks to the slackless drivers, so the book must
  // return to exactly boot.
  cluster_churn::ExpectQuiesced(cluster, boot);
  // Migration accounting closed out: everything captured was either
  // adopted somewhere or explicitly dropped.
  uint64_t captured = 0;
  uint64_t adopted = 0;
  for (const MigrationRecord& m : cluster.migrations()) {
    captured += m.captured;
    adopted += m.adopted;
  }
  EXPECT_EQ(adopted, cluster.migrated_instances());
  EXPECT_LE(adopted, captured);
}

INSTANTIATE_TEST_SUITE_P(
    DrainMigrate, ClusterMigrationFuzzTest,
    testing::Combine(testing::Values(ReclaimPolicy::kVirtioMem, ReclaimPolicy::kSqueezy),
                     testing::Values(1u, 2u, 3u, 4u)),
    [](const testing::TestParamInfo<std::tuple<ReclaimPolicy, uint64_t>>& param_info) {
      return std::string(ReclaimPolicyName(std::get<0>(param_info.param))) == "Squeezy"
                 ? "squeezy_s" + std::to_string(std::get<1>(param_info.param))
                 : "virtio_s" + std::to_string(std::get<1>(param_info.param));
    });

// --- Dep-cache fuzz: image residency invariants under drain/migrate churn -------

// Same drain/migrate/undrain storm, now with the cluster-wide shared
// dependency cache on.  Every function uses the SAME spec, so all four
// cluster functions intern to ONE image per host — the boot-dedup,
// sibling-adoption and eviction/re-charge paths all fire.  Invariants:
//   * book conservation per host at every step, including
//     populated <= committed (an image eviction that released commitment
//     without dropping its host backing would break this);
//   * refcount conservation: an image's refcount on a host equals the
//     memory-granted instances of every VM pinned to it, at every step;
//   * population implies residency;
//   * at quiescence the host book is exactly VM bases + plugged units
//     (none) + the registry's charged bytes — nothing leaked in either
//     direction across boot dedups, evictions and re-charges.
class DepCacheFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DepCacheFuzzTest, ResidencyRefcountsAndBooksConserved) {
  const uint64_t seed = GetParam();
  ClusterConfig cfg = cluster_churn::Config(ReclaimPolicy::kSqueezy, seed);
  cfg.shared_dep_cache = true;
  Cluster cluster(cfg);
  AddSkewedLoad(cluster, TinySpec("depfuzz"), seed);
  const std::vector<uint64_t> base_commit = PerReplica(cluster, cfg.host.vm_base_memory);
  const DepCache& cache = *cluster.dep_cache();

  const auto check = [&](int step) {
    ASSERT_NO_FATAL_FAILURE(cluster_churn::AssertBooksHold(cluster, step));
    for (size_t h = 0; h < cluster.host_count(); ++h) {
      const FaasRuntime& host = cluster.host(h);
      // Refcount conservation per image on this host: the image's refs
      // must equal the granted instances of every VM pinned to it.
      std::map<DepImageId, uint64_t> granted;
      for (size_t fn = 0; fn < host.function_count(); ++fn) {
        const DepImageId img = host.dep_image(static_cast<int>(fn));
        ASSERT_NE(img, kNoDepImage);
        granted[img] += host.agent(static_cast<int>(fn)).memory_granted_instances();
      }
      for (const auto& [img, want] : granted) {
        ASSERT_EQ(cache.RefCount(h, img), want) << "host " << h << " step " << step;
        if (cache.Populated(h, img)) {
          ASSERT_TRUE(cache.Resident(h, img)) << "host " << h << " step " << step;
        }
        if (want > 0) {
          ASSERT_TRUE(cache.Resident(h, img))
              << "granted instances on an unresident image, host " << h;
        }
      }
    }
  };
  ASSERT_NO_FATAL_FAILURE(
      cluster_churn::Churn(cluster, seed, {6364136223846793005ull, 29}, check));
  // Quiescence: every instance reaped, every unplug done — the book is
  // exactly the VM bases plus whatever image residencies survived.
  cluster_churn::ExpectQuiesced(cluster, base_commit);
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    for (size_t fn = 0; fn < cluster.host(h).function_count(); ++fn) {
      EXPECT_EQ(cache.RefCount(h, cluster.host(h).dep_image(static_cast<int>(fn))), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DepCacheFuzzTest, testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// --- Snapshot fuzz: record/evict/restore churn with both registries on -----------

// The DepCacheFuzzTest storm with the snapshot registry on too: every
// cold start after the first fully-warm idle restores from the shared
// slot, so Squeezy plugs full units while reserving only the recorded
// working set (the snapshot_unreserved shortfall pool).  Invariants:
//   * the host book never exceeds capacity and populated <= committed at
//     every step — a restore that discounted commitment without bounding
//     what it populates would break the second;
//   * recorded images describe the spec (heap == anon working set) unless
//     a stale recording is mid-re-record;
//   * at quiescence every discount has unwound through its unplug: the
//     book is exactly VM bases + the dep cache's charged bytes, same as
//     with snapshots off — the discount is a loan, not a leak.
class SnapshotFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotFuzzTest, RestoreDiscountsUnwindUnderDrainMigrateChurn) {
  const uint64_t seed = GetParam();
  ClusterConfig cfg = cluster_churn::Config(ReclaimPolicy::kSqueezy, seed);
  cfg.shared_dep_cache = true;
  cfg.shared_snapshots = true;
  Cluster cluster(cfg);
  const FunctionSpec spec = TinySpec("snapfuzz");
  AddSkewedLoad(cluster, spec, seed);
  const std::vector<uint64_t> base_commit = PerReplica(cluster, cfg.host.vm_base_memory);
  const SnapshotStore& store = *cluster.snapshot_store();

  const auto check = [&](int step) {
    ASSERT_NO_FATAL_FAILURE(cluster_churn::AssertBooksHold(cluster, step));
    for (size_t h = 0; h < cluster.host_count(); ++h) {
      const FaasRuntime& host = cluster.host(h);
      for (size_t fn = 0; fn < host.function_count(); ++fn) {
        const SnapshotId snap = host.snapshot_id(static_cast<int>(fn));
        ASSERT_NE(snap, kNoSnapshot) << "step " << step;
        if (store.Recorded(snap)) {
          ASSERT_EQ(store.Image(snap).heap_bytes, spec.anon_working_set)
              << "step " << step;
        }
      }
    }
  };
  ASSERT_NO_FATAL_FAILURE(
      cluster_churn::Churn(cluster, seed, {6364136223846793005ull, 31}, check));
  // All four cluster functions share one spec, so one snapshot slot; the
  // churn is long enough that it recorded and restored at least once.
  EXPECT_EQ(store.stats().functions, 1u);
  EXPECT_GE(store.stats().recordings, 1u);
  EXPECT_GT(store.stats().restores, 0u);
  EXPECT_GT(store.stats().prefetch_bytes, 0u);
  cluster_churn::ExpectQuiesced(cluster, base_commit);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzzTest, testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// --- Snapshot + migration compose fuzz: delta transfers under churn --------------

// Drain/migrate/undrain churn with BOTH registries on and a drain-heavy
// op mix, so snapshot-hit transfers (recorded portion skips the wire, the
// destination bulk-restores it) interleave with dep-cache hits, stale
// fallbacks and partial adoptions.  Invariants on top of SnapshotFuzzTest:
//   * migration restore accounting never outruns the migrations: every
//     bulk-restored instance is an adopted one, and the wire-saved bytes
//     never exceed the anonymous state the captures actually held —
//     recorded state is discounted once, never double-counted against the
//     dep cache's separate deps_bytes discount;
//   * the fleet books conserve at every step and at quiescence the host
//     book is exactly VM bases + the dep cache's charged images — a
//     migration restore that leaked its bulk-populated pages into the
//     commitment book would break the identity.
class SnapshotMigrationFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotMigrationFuzzTest, DeltaTransfersConserveBooksUnderChurn) {
  const uint64_t seed = GetParam();
  using cluster_churn::Op;
  ClusterConfig cfg = cluster_churn::Config(ReclaimPolicy::kSqueezy, seed);
  cfg.shared_dep_cache = true;
  cfg.shared_snapshots = true;
  cfg.host.keep_alive = Sec(45);
  Cluster cluster(cfg);
  const FunctionSpec spec = TinySpec("snapmigfuzz");
  AddSkewedLoad(cluster, spec, seed);
  const std::vector<uint64_t> base_commit = PerReplica(cluster, cfg.host.vm_base_memory);
  const SnapshotStore& store = *cluster.snapshot_store();

  // Drain-heavy: a drain is the snapshot-hit path's trigger.
  const cluster_churn::Script script{
      2862933555777941757ull, 17, /*steps=*/30, /*max_gap_s=*/16,
      {Op::kDrain, Op::kDrain, Op::kUndrain, Op::kMigratePressured}};
  const auto check = [&](int step) {
    ASSERT_NO_FATAL_FAILURE(cluster_churn::AssertBooksHold(cluster, step));
    // Migration restore accounting: every bulk-restored instance was an
    // adopted one, and the recorded bytes that skipped the wire never
    // exceed the anonymous state the captures held (each instance's
    // recorded share is bounded by its working set — counting it twice,
    // or counting deps_bytes as recorded, would overflow this bound).
    const SnapshotStats& s = store.stats();
    ASSERT_LE(s.migration_restores, cluster.migrated_instances()) << "step " << step;
    uint64_t captured_anon_cap = 0;
    for (const MigrationRecord& m : cluster.migrations()) {
      captured_anon_cap += static_cast<uint64_t>(m.captured) * spec.anon_working_set;
    }
    ASSERT_LE(s.migration_wire_saved_bytes, captured_anon_cap) << "step " << step;
    ASSERT_GE(s.migration_restores, s.migration_hits) << "step " << step;
  };
  ASSERT_NO_FATAL_FAILURE(cluster_churn::Churn(cluster, seed, script, check));
  // The churn migrated warm state, and at least one transfer shipped only
  // the delta (4 hosts share one recording slot, so destinations hold a
  // valid recording whenever the source's capture is fresh).
  EXPECT_GT(cluster.migrated_instances(), 0u);
  EXPECT_GT(store.stats().migration_hits, 0u);
  EXPECT_GT(store.stats().migration_wire_saved_bytes, 0u);
  // Quiescence: every keep-alive expired and every discount unwound — the
  // book is exactly VM bases + charged dep images, bit-for-bit the same
  // identity the snapshot-off and migration-off fuzzes lock.
  cluster_churn::ExpectQuiesced(cluster, base_commit);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotMigrationFuzzTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// --- Sharded kernel fuzz: per-host shards vs the single global queue ------------

// The sharded kernel's whole contract is "bit-identical to the single
// queue" (src/sim/sharded_event_queue.h).  One random churn script
// (cluster_churn::RunChurn in tests/support/cluster_churn.h) —
// drain/undrain/pressure-migrate while a skewed trace runs — is replayed
// under the single queue and under kSharded (per-host lanes of the one
// heap), with the shared registries both detached and attached.  Every
// replay must produce a byte-identical fleet digest: per-request firing
// logs, cold-start breakdowns, host books, migration records, the routing
// hash and the fleet summary.
class ShardedVsSingleQueueFuzzTest
    : public testing::TestWithParam<std::tuple<bool /*registries*/, uint64_t /*seed*/>> {};

TEST_P(ShardedVsSingleQueueFuzzTest, ShardedMatchesSingleQueue) {
  const auto [registries, seed] = GetParam();
  const std::string reference =
      cluster_churn::RunChurn(EventQueue::Impl::kSingleQueue, registries, seed);
  const std::string sharded =
      cluster_churn::RunChurn(EventQueue::Impl::kSharded, registries, seed);
  EXPECT_EQ(reference, sharded)
      << "sharded kernel diverged from the single queue (registries "
      << (registries ? "on" : "off") << ", seed " << seed << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ShardedVsSingleQueueFuzzTest,
    testing::Combine(testing::Bool(), testing::Values(1u, 2u, 3u)),
    [](const testing::TestParamInfo<std::tuple<bool, uint64_t>>& param_info) {
      return std::string(std::get<0>(param_info.param) ? "registries" : "plain") +
             "_s" + std::to_string(std::get<1>(param_info.param));
    });

// --- Indexed placement fuzz: production deciders vs the snapshot-scan oracle -----
//
// The placement index's whole contract is "bit-identical decisions to the
// full O(hosts) snapshot scan" (src/cluster/host_index.h).  The same churn
// script as the sharded fuzz (cluster_churn::RunChurn) — drains, undrains
// and pressure migrations interleaved with a skewed trace, i.e. every
// operation that mutates the index mid-run — is replayed op-for-op by the
// production deciders and by the scan oracle (tests/oracles/scan_placement.h)
// for every placement policy, with the shared registries both on (snapshot
// restores + dep-cache adoption change which hosts can admit) and off.
// The byte-identical fleet digest covers every placement consequence:
// per-request logs, routing hash, migration records, host books and the
// fleet summary.
class IndexedVsScanPlacementFuzzTest
    : public testing::TestWithParam<std::tuple<PlacementPolicy, bool /*registries*/>> {};

TEST_P(IndexedVsScanPlacementFuzzTest, IndexedMatchesScanThroughChurn) {
  const auto [policy, registries] = GetParam();
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const std::string scan = cluster_churn::RunChurn(
        EventQueue::Impl::kSingleQueue, registries, seed, &ScanDeciders, policy);
    const std::string indexed =
        cluster_churn::RunChurn(EventQueue::Impl::kSingleQueue, registries, seed,
                                &Cluster::IndexedDeciders, policy);
    EXPECT_EQ(scan, indexed)
        << "indexed placement diverged from the snapshot scan under "
        << PlacementPolicyName(policy) << " (registries "
        << (registries ? "on" : "off") << ", seed " << seed << ")";
  }
}

// The saturated leg: hosts sized so that most bin-pack decisions find no
// replica that admits — the empty-admission-set and hint path a saturated
// fleet lives on — under every reclaim driver that plugs on demand
// (Harvest's slack buffers and VirtioMem's spare and cancelled unplugs
// are admission inputs Squeezy never exercises).  The hint counter proves
// the leg still reaches that path.
TEST_P(IndexedVsScanPlacementFuzzTest, IndexedMatchesScanWhenSaturated) {
  const auto [policy, registries] = GetParam();
  // Without the dep cache four VMs boot into 1024 MiB of it, leaving room
  // for one 256 MiB plug unit.  Below one unit of headroom no scale-up
  // can ever be served, so no admission input would ever change.
  constexpr uint64_t kSaturatedCapacity = MiB(1280);
  cluster_churn::ChurnCounters leg;
  for (const ReclaimPolicy reclaim : {ReclaimPolicy::kSqueezy, ReclaimPolicy::kVirtioMem,
                                      ReclaimPolicy::kHarvestOpts}) {
    uint64_t hints = 0;
    for (const uint64_t seed : {1u, 2u, 3u}) {
      const std::string scan =
          cluster_churn::RunChurn(EventQueue::Impl::kSingleQueue, registries, seed,
                                  &ScanDeciders, policy, reclaim, kSaturatedCapacity);
      cluster_churn::ChurnCounters counters;
      const std::string indexed = cluster_churn::RunChurn(
          EventQueue::Impl::kSingleQueue, registries, seed, &Cluster::IndexedDeciders,
          policy, reclaim, kSaturatedCapacity, &counters);
      EXPECT_EQ(scan, indexed)
          << "indexed placement diverged from the snapshot scan under "
          << PlacementPolicyName(policy) << " / " << ReclaimPolicyName(reclaim)
          << " at saturation (registries " << (registries ? "on" : "off") << ", seed "
          << seed << ")";
      hints += counters.hints_fired;
      leg.decisions += counters.decisions;
      leg.hints_fired += counters.hints_fired;
    }
    if (policy == PlacementPolicy::kHintedBinPack) {
      EXPECT_GT(hints, 0u) << ReclaimPolicyName(reclaim) << " never fired a hint";
    }
  }
  if (policy == PlacementPolicy::kHintedBinPack) {
    // Every hint is a decision that found no admitting replica.
    EXPECT_GT(2 * leg.hints_fired, leg.decisions)
        << "only " << leg.hints_fired << " of " << leg.decisions
        << " decisions found no admitting replica";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Placements, IndexedVsScanPlacementFuzzTest,
    testing::Combine(testing::Values(PlacementPolicy::kRoundRobin,
                                     PlacementPolicy::kLeastCommitted,
                                     PlacementPolicy::kMemoryAwareBinPack,
                                     PlacementPolicy::kHintedBinPack),
                     testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<PlacementPolicy, bool>>& param_info) {
      return std::string(PlacementPolicyName(std::get<0>(param_info.param))) + "_" +
             (std::get<1>(param_info.param) ? "registries" : "plain");
    });

// A host whose boot commitments leave less than one plug unit of headroom
// can never serve a scale-up, so each one parks for good.  Neither the
// pressure tick nor a draining host's drain tick may keep re-arming for
// them: RunAll would only stop at its runaway guard (which aborts).  The
// churn script at 1152 MiB hosts — four VMs boot into 1024 MiB, plug unit
// 256 MiB, hosts drained at random — must drain.
TEST(PressureTickTest, UnservableScaleUpsLetRunAllDrain) {
  for (const ReclaimPolicy reclaim : {ReclaimPolicy::kSqueezy, ReclaimPolicy::kVirtioMem,
                                      ReclaimPolicy::kHarvestOpts}) {
    cluster_churn::ChurnCounters counters;
    cluster_churn::RunChurn(EventQueue::Impl::kSingleQueue, /*registries=*/false, 1,
                            &Cluster::IndexedDeciders, PlacementPolicy::kHintedBinPack,
                            reclaim, MiB(1152), &counters);
    EXPECT_GT(counters.parked_scaleups, 0u)
        << ReclaimPolicyName(reclaim) << ": no scale-up was left unservable";
  }
}

// --- Idle-order fuzz: the agent's ordered idle set vs the instance scans -----------
//
// Agent keeps its idle instances in (idle_since, id) order, and the three
// picks that used to scan every instance ever created read that order
// instead: EvictOldestIdle and FaasRuntime::MakeRoom take the oldest
// (ties to the lowest id, and across VMs to the lowest VM), DispatchQueue
// the newest (ties to the lowest id — the first entry of the last
// idle_since group, not the last entry).  Random bursts, evictions and
// MakeRoom passes on a host of identical deterministic functions make
// instances idle at the same nanosecond, and every pick is checked
// against tests/oracles/idle_scan.h right before it is taken.
class IdleOrderFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(IdleOrderFuzzTest, PicksMatchTheInstanceScans) {
  const uint64_t seed = GetParam();
  constexpr int kFunctions = 3;
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.host_capacity = GiB(64);
  cfg.keep_alive = Sec(20);
  cfg.seed = seed;
  FaasRuntime rt(cfg);
  // Equal work (TinySpec's exec_cv is 0): instances started together idle
  // together.
  FunctionSpec spec = TinySpec("idle_fuzz");
  spec.anon_working_set = MiB(32);
  spec.file_deps_bytes = MiB(16);
  spec.container_init_cpu = Msec(50);
  spec.function_init_cpu = Msec(50);
  for (int f = 0; f < kFunctions; ++f) {
    rt.AddFunction(spec, 6);
  }

  Rng rng(seed * 7919 + 17);
  TimeNs t = 0;
  int newest_picks = 0;
  int oldest_picks = 0;
  int make_room_picks = 0;
  int tied_picks = 0;  // Picks made while another idle instance shared the key.
  const auto tied = [](const Agent& agent, int32_t pick) {
    int same = 0;
    for (size_t i = 0; i < agent.instances_created(); ++i) {
      const auto id = static_cast<int32_t>(i);
      same += agent.instance_state(id) == InstanceState::kIdle &&
              agent.instance_idle_since(id) == agent.instance_idle_since(pick);
    }
    return same > 1;
  };
  for (int step = 0; step < 600; ++step) {
    switch (rng.UniformInt(0, 2)) {
      case 0:
        break;  // Same instant: the next op sees this op's idle set.
      case 1:
        t += Msec(rng.UniformInt(1, 400));
        break;
      case 2:
        t += Sec(rng.UniformInt(1, 8));
        break;
    }
    rt.RunUntil(t);
    const int fn = static_cast<int>(rng.UniformInt(0, kFunctions - 1));
    Agent& agent = rt.agent(fn);
    switch (rng.UniformInt(0, 3)) {
      case 0:
      case 1: {
        // A burst of arrivals: each takes the newest idle instance.
        const int64_t burst = rng.UniformInt(1, 4);
        for (int64_t i = 0; i < burst; ++i) {
          const int32_t want = ScanNewestIdle(agent);
          const bool had_tie = want >= 0 && tied(agent, want);
          agent.Submit();
          if (want >= 0) {
            ASSERT_NE(agent.instance_state(want), InstanceState::kIdle)
                << "dispatch skipped the newest idle instance " << want << " (seed "
                << seed << ", step " << step << ")";
            ++newest_picks;
            tied_picks += had_tie;
          }
        }
        break;
      }
      case 2: {
        const int32_t want = ScanOldestIdle(agent);
        const bool had_tie = want >= 0 && tied(agent, want);
        ASSERT_EQ(agent.EvictOldestIdle(), want >= 0);
        if (want >= 0) {
          ASSERT_EQ(agent.instance_state(want), InstanceState::kEvicted)
              << "eviction skipped the oldest idle instance " << want << " (seed "
              << seed << ", step " << step << ")";
          ++oldest_picks;
          tied_picks += had_tie;
        }
        break;
      }
      case 3: {
        // One MakeRoom step (a 1-byte ProactiveReclaim evicts exactly one
        // instance when any has idled for 2 s).
        const int vm = ScanMakeRoomVm(rt, t, Sec(2));
        const int32_t want = vm >= 0 ? ScanOldestIdle(rt.agent(vm)) : -1;
        const bool had_tie = want >= 0 && tied(rt.agent(vm), want);
        rt.ProactiveReclaim(1);
        if (want >= 0) {
          ASSERT_EQ(rt.agent(vm).instance_state(want), InstanceState::kEvicted)
              << "MakeRoom skipped VM " << vm << "'s instance " << want << " (seed "
              << seed << ", step " << step << ")";
          ++make_room_picks;
          tied_picks += had_tie;
        }
        break;
      }
    }
  }
  rt.RunAll();
  // The run must exercise every pick, and ties among them.
  EXPECT_GT(newest_picks, 0);
  EXPECT_GT(oldest_picks, 0);
  EXPECT_GT(make_room_picks, 0);
  EXPECT_GT(tied_picks, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdleOrderFuzzTest, testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace squeezy
