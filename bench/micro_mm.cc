// Micro-benchmarks (google-benchmark) for the hot paths of the MM
// substrate: buddy allocation, fault paths, isolation and migration.
// These gate the simulator's own performance, not the paper's results.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/core/squeezy.h"
#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/mm/memmap.h"
#include "src/mm/migration.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"

namespace squeezy {
namespace {

void BM_BuddyAllocFree(benchmark::State& state) {
  const uint8_t order = static_cast<uint8_t>(state.range(0));
  MemMap memmap(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &memmap);
  for (BlockIndex b = 0; b < 8; ++b) {
    memmap.InitBlock(b);
    zone.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
  }
  for (auto _ : state) {
    const Pfn pfn = zone.Alloc(order, PageKind::kAnon, 1, 0);
    benchmark::DoNotOptimize(pfn);
    zone.Free(pfn);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuddyAllocFree)->Arg(0)->Arg(4)->Arg(9)->Arg(10);

void BM_BuddyChurn(benchmark::State& state) {
  MemMap memmap(GiB(1));
  Rng rng(3);
  Zone zone(0, ZoneType::kMovable, "z", &memmap, &rng);
  for (BlockIndex b = 0; b < 8; ++b) {
    memmap.InitBlock(b);
    zone.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
  }
  std::vector<Pfn> live;
  Rng op_rng(4);
  for (auto _ : state) {
    if (live.empty() || op_rng.Chance(0.55)) {
      const Pfn pfn = zone.Alloc(static_cast<uint8_t>(op_rng.UniformInt(0, 9)),
                                 PageKind::kAnon, 1, 0);
      if (pfn != kInvalidPfn) {
        live.push_back(pfn);
      }
    } else {
      const size_t i =
          static_cast<size_t>(op_rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      zone.Free(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  for (const Pfn pfn : live) {
    zone.Free(pfn);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuddyChurn);

void BM_AnonFaultPath(benchmark::State& state) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(8);
  GuestKernel guest(cfg, &hv);
  guest.PlugMemory(GiB(8), 0);
  for (auto _ : state) {
    const Pid pid = guest.CreateProcess();
    guest.TouchAnon(pid, MiB(64), 0);
    guest.Exit(pid);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * MiB(64));
}
BENCHMARK(BM_AnonFaultPath);

void BM_IsolateUndo(benchmark::State& state) {
  MemMap memmap(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &memmap);
  memmap.InitBlock(0);
  zone.AddFreeRange(0, kPagesPerBlock);
  for (auto _ : state) {
    zone.IsolateFreeRange(0, kPagesPerBlock);
    zone.UndoIsolation(0, kPagesPerBlock);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IsolateUndo);

// One THP per cycle: Alloc(9) splits a max-order slot into two records,
// and FreeAll drains it, resetting the slot to one extent.
void BM_ThpAllocDrainCycle(benchmark::State& state) {
  MemMap memmap(kMemoryBlockBytes);
  Zone zone(0, ZoneType::kMovable, "z", &memmap);
  memmap.InitBlock(0);
  zone.AddFreeRange(0, kPagesPerBlock);
  for (auto _ : state) {
    const Pfn pfn = zone.Alloc(kThpOrder, PageKind::kAnon, 1, 0);
    zone.FreeAll(&pfn, 1);
    benchmark::DoNotOptimize(memmap.storage_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThpAllocDrainCycle);

void BM_MigrateBlock(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    MemMap memmap(GiB(1));
    Zone zone(0, ZoneType::kMovable, "z", &memmap);
    for (BlockIndex b = 0; b < 4; ++b) {
      memmap.InitBlock(b);
      zone.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
    }
    // Half-occupy block 0 with THP folios.
    for (int i = 0; i < 32; ++i) {
      zone.Alloc(kThpOrder, PageKind::kAnon, 1, static_cast<uint32_t>(i));
    }
    zone.IsolateFreeRange(0, kPagesPerBlock);
    state.ResumeTiming();
    const MigrateOutcome out =
        MigrateOutOfRange(memmap, zone, zone, 0, kPagesPerBlock, CostModel::Default(), nullptr);
    benchmark::DoNotOptimize(out.pages_moved);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MigrateBlock);

void BM_MigratePageCacheBlock(benchmark::State& state) {
  std::vector<PageRun> runs;
  for (auto _ : state) {
    state.PauseTiming();
    MemMap memmap(GiB(1));
    Zone zone(0, ZoneType::kMovable, "z", &memmap);
    for (BlockIndex b = 0; b < 4; ++b) {
      memmap.InitBlock(b);
      zone.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
    }
    // Half-occupy block 0 with one page-cache fill of order-0 pages.
    runs.clear();
    zone.AllocPages(kPagesPerBlock / 2, PageKind::kFile, 1, 0, &runs);
    zone.IsolateFreeRange(0, kPagesPerBlock);
    state.ResumeTiming();
    const MigrateOutcome out =
        MigrateOutOfRange(memmap, zone, zone, 0, kPagesPerBlock, CostModel::Default(), nullptr);
    benchmark::DoNotOptimize(out.pages_moved);
  }
  state.SetItemsProcessed(state.iterations() * (kPagesPerBlock / 2));
}
BENCHMARK(BM_MigratePageCacheBlock);

void BM_SqueezyUnplugPartition(benchmark::State& state) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  SqueezyConfig scfg;
  scfg.partition_bytes = MiB(768);
  scfg.nr_partitions = 2;
  scfg.shared_bytes = 0;
  cfg.hotplug_region = scfg.region_bytes();
  GuestKernel guest(cfg, &hv);
  SqueezyManager sqz(&guest, scfg);
  for (auto _ : state) {
    guest.PlugMemory(MiB(768), 0);
    const Pid pid = guest.CreateProcess();
    sqz.SqueezyEnable(pid);
    guest.TouchAnon(pid, MiB(512), 0);
    guest.Exit(pid);
    const UnplugOutcome out = guest.UnplugMemory(MiB(768), 0);
    benchmark::DoNotOptimize(out.bytes_unplugged);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * MiB(768));
}
BENCHMARK(BM_SqueezyUnplugPartition);

}  // namespace
}  // namespace squeezy

BENCHMARK_MAIN();
