// Cross-module integration tests: end-to-end lifecycle invariants,
// accounting reconciliation between guest/host books, multi-VM interplay
// and whole-experiment determinism.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/squeezy.h"
#include "src/faas/function.h"
#include "src/faas/runtime.h"
#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/trace/memhog.h"
#include "src/trace/trace_gen.h"

namespace squeezy {
namespace {

// --- Accounting reconciliation ----------------------------------------------

class AccountingTest : public testing::Test {
 protected:
  void SetUp() override {
    host_ = std::make_unique<HostMemory>(GiB(64));
    hv_ = std::make_unique<Hypervisor>(host_.get(), &cost_);
  }

  // Host populated bytes must equal the memmap's per-block backed counts.
  void ExpectPopulatedConsistent(GuestKernel& guest) {
    const MemMap& memmap = guest.memmap();
    uint64_t flagged = 0;
    for (BlockIndex b = 0; b < memmap.block_count(); ++b) {
      flagged += memmap.BlockPopulated(b);
    }
    EXPECT_EQ(PagesToBytes(flagged), hv_->stats(guest.vm_id()).populated_bytes);
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<HostMemory> host_;
  std::unique_ptr<Hypervisor> hv_;
};

TEST_F(AccountingTest, HostPopulationMatchesPageFlagsThroughLifecycle) {
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(2);
  cfg.seed = 3;
  GuestKernel guest(cfg, hv_.get());
  ExpectPopulatedConsistent(guest);

  guest.PlugMemory(GiB(1), 0);
  const Pid a = guest.CreateProcess();
  const Pid b = guest.CreateProcess();
  guest.TouchAnon(a, MiB(200), 0);
  const int32_t f = guest.CreateFile("deps", MiB(64));
  guest.TouchFile(b, f, MiB(64), 0);
  ExpectPopulatedConsistent(guest);

  guest.Exit(a);
  guest.UnplugMemory(MiB(512), 0);
  ExpectPopulatedConsistent(guest);

  guest.BalloonReclaim(MiB(64), 0);
  ExpectPopulatedConsistent(guest);
}

TEST_F(AccountingTest, MigrationPreservesPopulationBooks) {
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(1);
  cfg.seed = 5;
  GuestKernel guest(cfg, hv_.get());
  guest.PlugMemory(MiB(512), 0);
  const Pid a = guest.CreateProcess();
  const Pid b = guest.CreateProcess();
  for (int i = 0; i < 20; ++i) {
    guest.TouchAnon(a, MiB(8), 0);
    guest.TouchAnon(b, MiB(8), 0);
  }
  guest.Exit(a);
  const UnplugOutcome out = guest.UnplugMemory(MiB(256), 0);
  ASSERT_TRUE(out.complete);
  ASSERT_GT(out.pages_migrated, 0u);  // Interleaved: must migrate.
  ExpectPopulatedConsistent(guest);
}

TEST_F(AccountingTest, ZonePagesConservedAcrossPlugCycles) {
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(1);
  GuestKernel guest(cfg, hv_.get());
  for (int round = 0; round < 5; ++round) {
    guest.PlugMemory(MiB(512), 0);
    EXPECT_EQ(guest.movable_zone().managed_pages(), MiB(512) / kPageSize);
    EXPECT_TRUE(guest.movable_zone().CheckFreeLists());
    const UnplugOutcome out = guest.UnplugMemory(MiB(512), 0);
    ASSERT_TRUE(out.complete);
    EXPECT_EQ(guest.movable_zone().managed_pages(), 0u);
  }
}

// --- End-to-end Squeezy lifecycle invariants ---------------------------------

TEST(SqueezyLifecycleTest, HundredInstanceChurnNeverMigrates) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  SqueezyConfig scfg;
  scfg.partition_bytes = MiB(256);
  scfg.nr_partitions = 8;
  scfg.shared_bytes = MiB(128);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = scfg.region_bytes();
  cfg.seed = 17;
  GuestKernel guest(cfg, &hv);
  SqueezyManager sqz(&guest, scfg);
  const int32_t deps = guest.CreateFile("deps", MiB(100));

  Rng rng(99);
  std::vector<Pid> live;
  for (int step = 0; step < 100; ++step) {
    if (live.size() < 8 && (live.empty() || rng.Chance(0.6))) {
      guest.PlugMemory(scfg.partition_bytes, 0);
      const Pid pid = guest.CreateProcess();
      ASSERT_TRUE(sqz.SqueezyEnable(pid).has_value());
      guest.TouchFile(pid, deps, MiB(100), 0);
      const uint64_t bytes = static_cast<uint64_t>(rng.UniformInt(16, 200)) * MiB(1);
      ASSERT_FALSE(guest.TouchAnon(pid, bytes, 0).oom);
      live.push_back(pid);
    } else {
      const size_t idx =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      guest.Exit(live[idx]);
      live[idx] = live.back();
      live.pop_back();
      const UnplugOutcome out = guest.UnplugMemory(scfg.partition_bytes, 0);
      ASSERT_TRUE(out.complete);
      ASSERT_EQ(out.pages_migrated, 0u);  // The paper's core invariant.
    }
  }
  EXPECT_EQ(guest.hotplug().total_pages_migrated(), 0u);
  // Shared partition never reclaimed; file cache intact.
  EXPECT_EQ(guest.page_cache().cached_pages(deps), MiB(100) / kPageSize);
}

TEST(SqueezyLifecycleTest, PartitionIsolationHoldsUnderChurn) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  SqueezyConfig scfg;
  scfg.partition_bytes = MiB(256);
  scfg.nr_partitions = 6;
  scfg.shared_bytes = 0;
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = scfg.region_bytes();
  GuestKernel guest(cfg, &hv);
  SqueezyManager sqz(&guest, scfg);

  std::vector<Pid> pids;
  for (int i = 0; i < 6; ++i) {
    guest.PlugMemory(scfg.partition_bytes, 0);
    const Pid pid = guest.CreateProcess();
    ASSERT_TRUE(sqz.SqueezyEnable(pid).has_value());
    guest.TouchAnon(pid, MiB(100 + 20 * i), 0);
    pids.push_back(pid);
  }
  // Churn: free and re-touch to shuffle in-partition placement.
  for (int round = 0; round < 4; ++round) {
    for (const Pid pid : pids) {
      guest.FreeAnon(pid, MiB(40));
      guest.TouchAnon(pid, MiB(40), 0);
    }
  }
  // Isolation: every anon folio of pid i lives inside partition i's span.
  for (size_t i = 0; i < pids.size(); ++i) {
    const Partition& part = sqz.partition(static_cast<int32_t>(i));
    for (const FolioRef& folio : guest.process(pids[i]).folios()) {
      if (folio.head == kInvalidPfn) {
        continue;
      }
      const BlockIndex blk = MemMap::BlockOf(folio.head);
      ASSERT_GE(blk, part.first_block);
      ASSERT_LT(blk, part.first_block + part.nr_blocks);
    }
  }
}

// --- Runtime-level determinism and conservation ------------------------------

TEST(RuntimeIntegrationTest, FullTraceDeterministicAcrossReruns) {
  auto run = [] {
    RuntimeConfig cfg;
    cfg.policy = ReclaimPolicy::kSqueezy;
    cfg.host_capacity = GiB(24);
    cfg.keep_alive = Sec(30);
    cfg.seed = 5;
    FaasRuntime rt(cfg);
    const int a = rt.AddFunction(HtmlSpec(), 6);
    const int b = rt.AddFunction(BfsSpec(), 6);
    Rng rng(71);
    BurstyTraceConfig t1;
    t1.duration = Minutes(4);
    t1.function = a;
    BurstyTraceConfig t2 = t1;
    t2.function = b;
    rt.SubmitTrace(MergeTraces({GenerateBurstyTrace(t1, rng), GenerateBurstyTrace(t2, rng)}));
    rt.RunUntil(Minutes(6));
    // A composite fingerprint of the whole run.
    return std::tuple<DurationNs, uint64_t, uint64_t, uint64_t>(
        rt.agent(a).latencies().Sum() + rt.agent(b).latencies().Sum(),
        rt.agent(a).total_evictions() + rt.agent(b).total_evictions(),
        rt.host().populated_peak(), rt.guest(a).hotplug().blocks_removed());
  };
  EXPECT_EQ(run(), run());
}

TEST(RuntimeIntegrationTest, CommittedNeverExceedsCapacity) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.host_capacity = GiB(8);
  cfg.keep_alive = Sec(20);
  FaasRuntime rt(cfg);
  const int fn = rt.AddFunction(HtmlSpec(), 8);
  std::vector<Invocation> trace;
  for (int i = 0; i < 40; ++i) {
    trace.push_back({Sec(1) + Msec(200) * i, fn});
  }
  rt.SubmitTrace(trace);
  for (TimeNs t = 0; t < Minutes(3); t += Sec(1)) {
    rt.events().ScheduleAt(t, [&rt] {
      ASSERT_LE(rt.host().committed(), rt.host().capacity());
      ASSERT_LE(rt.host().populated(), rt.host().committed());
    });
  }
  rt.RunUntil(Minutes(3));
  EXPECT_GT(rt.agent(fn).requests().size(), 0u);
}

TEST(RuntimeIntegrationTest, AllPoliciesDrainSameTrace) {
  // Every policy must serve the identical trace completely; only timing
  // differs.
  const ReclaimPolicy policies[] = {ReclaimPolicy::kStatic, ReclaimPolicy::kVirtioMem,
                                    ReclaimPolicy::kSqueezy, ReclaimPolicy::kHarvestOpts};
  for (const ReclaimPolicy policy : policies) {
    RuntimeConfig cfg;
    cfg.policy = policy;
    cfg.host_capacity = GiB(32);
    cfg.keep_alive = Sec(30);
    FaasRuntime rt(cfg);
    const int fn = rt.AddFunction(CnnSpec(), 6);
    std::vector<Invocation> trace;
    for (int i = 0; i < 25; ++i) {
      trace.push_back({Sec(1) + Sec(2) * i, fn});
    }
    rt.SubmitTrace(trace);
    rt.RunUntil(Minutes(5));
    EXPECT_EQ(rt.agent(fn).requests().size(), 25u) << ReclaimPolicyName(policy);
    EXPECT_EQ(rt.pending_scaleups(), 0u) << ReclaimPolicyName(policy);
  }
}

TEST(RuntimeIntegrationTest, SqueezyNeverMigratesAcrossWholeWorkload) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.host_capacity = GiB(16);
  cfg.keep_alive = Sec(15);
  FaasRuntime rt(cfg);
  const int fn = rt.AddFunction(BfsSpec(), 6);
  Rng rng(13);
  BurstyTraceConfig tcfg;
  tcfg.duration = Minutes(4);
  tcfg.function = fn;
  rt.SubmitTrace(GenerateBurstyTrace(tcfg, rng));
  rt.RunUntil(Minutes(6));
  EXPECT_GT(rt.agent(fn).total_evictions(), 0u);
  EXPECT_EQ(rt.guest(fn).hotplug().total_pages_migrated(), 0u);
}

TEST(RuntimeIntegrationTest, VanillaAndSqueezyServeSameRequestCount) {
  auto count = [](ReclaimPolicy policy) {
    RuntimeConfig cfg;
    cfg.policy = policy;
    cfg.host_capacity = GiB(32);
    cfg.seed = 21;
    FaasRuntime rt(cfg);
    const int fn = rt.AddFunction(HtmlSpec(), 8);
    Rng rng(55);
    BurstyTraceConfig tcfg;
    tcfg.duration = Minutes(3);
    tcfg.function = fn;
    rt.SubmitTrace(GenerateBurstyTrace(tcfg, rng));
    rt.RunUntil(Minutes(6));
    return rt.agent(fn).requests().size();
  };
  EXPECT_EQ(count(ReclaimPolicy::kVirtioMem), count(ReclaimPolicy::kSqueezy));
}

}  // namespace
}  // namespace squeezy
