// Recorded-constants parity lock for the ReclaimDriver refactor.
//
// The numbers below were captured on the pre-refactor runtime (commit
// 3dd7427, where the four reclamation policies were `switch` branches in
// src/faas/runtime.cc).  Every scenario is a deterministic simulation, so
// the new driver-based runtime must reproduce them bit-identically: any
// divergence means the refactor changed policy behavior, not just its
// packaging.
//
// Three layers are locked:
//   * guest layer  — the fig05 unplug-latency breakdown per method
//     (balloon / vanilla virtio-mem / Squeezy), mean over 8 steps;
//   * host layer   — a single-host fig12-style churn run per policy
//     (admission, pending scale-ups, unplug failures, committed peak);
//   * fleet layer  — a 4-host cluster run per policy under memory-aware
//     bin-packing (routing hash locks every placement decision).
//
// Re-recording (only after an INTENTIONAL behavior change):
//   PARITY_DUMP=1 ./policy_parity_test
// prints the constants in source form.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/squeezy.h"
#include "src/faas/function.h"
#include "src/faas/runtime.h"
#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/trace/cluster_trace.h"
#include "src/trace/memhog.h"
#include "tests/support/cluster_churn.h"

namespace squeezy {
namespace {

bool DumpMode() { return std::getenv("PARITY_DUMP") != nullptr; }

// --- Guest layer (fig05 headline, scaled to 8 steps) -------------------------------

struct BreakdownGolden {
  int64_t zeroing = 0;
  int64_t migration = 0;
  int64_t vm_exits = 0;
  int64_t rest = 0;
};

constexpr int kSteps = 8;
constexpr uint64_t kReclaimBytes = MiB(512);

BreakdownGolden MeanOf(const UnplugBreakdown& sum) {
  BreakdownGolden g;
  g.zeroing = sum.zeroing / kSteps;
  g.migration = sum.migration / kSteps;
  g.vm_exits = sum.vm_exits / kSteps;
  g.rest = sum.rest / kSteps;
  return g;
}

// Mirrors bench/fig05_reclaim_latency.cc RunVanilla, 8 memhog steps.
BreakdownGolden RunVanillaGuest(bool balloon) {
  HostMemory host(GiB(96));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  GuestConfig cfg;
  cfg.name = balloon ? "balloon-vm" : "virtio-vm";
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = static_cast<uint64_t>(kSteps) * kReclaimBytes;
  cfg.seed = 1234 + kReclaimBytes / MiB(1);
  cfg.unplug_timeout = Minutes(5);
  GuestKernel guest(cfg, &hv);
  guest.PlugMemory(cfg.hotplug_region, 0);
  guest.movable_zone().ShuffleFreeLists(guest.rng());

  std::vector<std::unique_ptr<Memhog>> hogs;
  MemhogConfig mcfg;
  mcfg.bytes = kReclaimBytes - MiB(8);
  mcfg.churn_fraction = 0.2;
  mcfg.warmup_cycles = 3;
  for (int i = 0; i < kSteps; ++i) {
    hogs.push_back(std::make_unique<Memhog>(&guest, mcfg));
    EXPECT_TRUE(hogs.back()->Start(0));
  }
  UnplugBreakdown sum;
  for (int step = 0; step < kSteps; ++step) {
    hogs[static_cast<size_t>(step)]->Stop();
    if (balloon) {
      sum.Add(guest.BalloonReclaim(kReclaimBytes, 0).breakdown);
    } else {
      sum.Add(guest.UnplugMemory(kReclaimBytes, 0).breakdown);
    }
  }
  return MeanOf(sum);
}

// Mirrors bench/fig05_reclaim_latency.cc RunSqueezy, 8 partitions.
BreakdownGolden RunSqueezyGuest() {
  HostMemory host(GiB(96));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  SqueezyConfig scfg;
  scfg.partition_bytes = kReclaimBytes;
  scfg.nr_partitions = kSteps;
  scfg.shared_bytes = 0;
  GuestConfig cfg;
  cfg.name = "squeezy-vm";
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = scfg.region_bytes();
  cfg.seed = 99;
  GuestKernel guest(cfg, &hv);
  SqueezyManager sqz(&guest, scfg);

  std::vector<Pid> pids;
  for (int i = 0; i < kSteps; ++i) {
    guest.PlugMemory(kReclaimBytes, 0);
    const Pid pid = guest.CreateProcess();
    EXPECT_TRUE(sqz.SqueezyEnable(pid).has_value());
    guest.TouchAnon(pid, kReclaimBytes - MiB(8), 0);
    pids.push_back(pid);
  }
  UnplugBreakdown sum;
  for (int step = 0; step < kSteps; ++step) {
    guest.Exit(pids[static_cast<size_t>(step)]);
    const UnplugOutcome out = guest.UnplugMemory(kReclaimBytes, 0);
    EXPECT_EQ(out.pages_migrated, 0u);
    sum.Add(out.breakdown);
  }
  return MeanOf(sum);
}

void ExpectBreakdown(const BreakdownGolden& got, const BreakdownGolden& want,
                     const char* method) {
  if (DumpMode()) {
    std::cout << "  // " << method << "\n  {" << got.zeroing << ", " << got.migration
              << ", " << got.vm_exits << ", " << got.rest << "},\n";
    return;
  }
  EXPECT_EQ(got.zeroing, want.zeroing) << method;
  EXPECT_EQ(got.migration, want.migration) << method;
  EXPECT_EQ(got.vm_exits, want.vm_exits) << method;
  EXPECT_EQ(got.rest, want.rest) << method;
}

// --- Host + fleet layers ------------------------------------------------------------

// TinySpec with 20% execution-time jitter.
FunctionSpec ParitySpec(const char* name) {
  FunctionSpec s = TinySpec(name);
  s.exec_cv = 0.20;
  return s;
}

struct HostGolden {
  uint64_t completed = 0;
  int64_t latency_sum = 0;
  uint64_t pending_total = 0;
  uint64_t unplug_failures = 0;
  uint64_t evictions = 0;
  uint64_t committed_peak = 0;
  uint64_t committed_final = 0;
};

HostGolden RunHostScenario(ReclaimPolicy policy) {
  RuntimeConfig cfg;
  // Static must fit 3 fully-committed VMs at boot; dynamic policies get a
  // tight host so pending scale-ups / MakeRoom / timeouts are exercised.
  cfg.host_capacity = policy == ReclaimPolicy::kStatic ? GiB(6) : MiB(1280);
  cfg.policy = policy;
  cfg.keep_alive = Sec(30);
  cfg.seed = 42;
  cfg.vm_base_memory = MiB(128);
  // Tight enough that loaded vanilla unplugs time out (locks the
  // incomplete-unplug / spare_plugged path), loose enough for Squeezy.
  cfg.unplug_timeout = Msec(100);
  cfg.pressure_check_period = Msec(500);
  FaasRuntime rt(cfg);

  const int kFunctions = 3;
  for (int f = 0; f < kFunctions; ++f) {
    rt.AddFunction(ParitySpec("parity"), 6);
  }
  rt.SubmitTrace(GenerateClusterTrace(SkewedTrace(Minutes(4), kFunctions), 42));
  rt.RunUntil(Minutes(6));

  HostGolden g;
  for (int f = 0; f < kFunctions; ++f) {
    const Agent& a = rt.agent(f);
    g.completed += a.requests().size();
    for (const RequestRecord& r : a.requests()) {
      g.latency_sum += r.latency();
    }
    g.evictions += a.total_evictions();
  }
  g.pending_total = rt.total_pending_scaleups();
  g.unplug_failures = rt.total_unplug_failures();
  g.committed_peak = static_cast<uint64_t>(rt.host().committed_series().Max());
  g.committed_final = rt.committed();
  return g;
}

struct FleetGolden {
  uint64_t routing_hash = 0;
  uint64_t completed = 0;
  uint64_t pending_total = 0;
  uint64_t unplaced = 0;
  uint64_t committed_peak = 0;
};

FleetGolden RunFleetScenario(ReclaimPolicy policy) {
  ClusterConfig cfg = FleetConfig(PlacementPolicy::kMemoryAwareBinPack, MiB(2176));
  cfg.host.policy = policy;
  cfg.host.unplug_timeout = Msec(400);
  cfg.host.pressure_check_period = Msec(500);
  Cluster cluster(cfg);
  AddSkewedLoad(cluster, ParitySpec("fleet"), 42, 8, Minutes(4));
  cluster.RunUntil(Minutes(6));

  const FleetSummary s = cluster.Summarize(Minutes(6));
  FleetGolden g;
  g.routing_hash = cluster.routing_hash();
  g.completed = s.completed_requests;
  g.pending_total = s.pending_scaleups_total;
  g.unplaced = s.unplaced_invocations;
  g.committed_peak = s.committed_peak;
  return g;
}

void ExpectHost(const HostGolden& got, const HostGolden& want, const char* policy) {
  if (DumpMode()) {
    std::cout << "  // " << policy << "\n  {" << got.completed << "u, " << got.latency_sum
              << ", " << got.pending_total << "u, " << got.unplug_failures << "u, "
              << got.evictions << "u, " << got.committed_peak << "u, "
              << got.committed_final << "u},\n";
    return;
  }
  EXPECT_EQ(got.completed, want.completed) << policy;
  EXPECT_EQ(got.latency_sum, want.latency_sum) << policy;
  EXPECT_EQ(got.pending_total, want.pending_total) << policy;
  EXPECT_EQ(got.unplug_failures, want.unplug_failures) << policy;
  EXPECT_EQ(got.evictions, want.evictions) << policy;
  EXPECT_EQ(got.committed_peak, want.committed_peak) << policy;
  EXPECT_EQ(got.committed_final, want.committed_final) << policy;
}

void ExpectFleet(const FleetGolden& got, const FleetGolden& want, const char* policy) {
  if (DumpMode()) {
    std::cout << "  // " << policy << "\n  {" << got.routing_hash << "u, " << got.completed
              << "u, " << got.pending_total << "u, " << got.unplaced << "u, "
              << got.committed_peak << "u},\n";
    return;
  }
  EXPECT_EQ(got.routing_hash, want.routing_hash) << policy;
  EXPECT_EQ(got.completed, want.completed) << policy;
  EXPECT_EQ(got.pending_total, want.pending_total) << policy;
  EXPECT_EQ(got.unplaced, want.unplaced) << policy;
  EXPECT_EQ(got.committed_peak, want.committed_peak) << policy;
}

// --- Recorded constants (pre-refactor, commit 3dd7427) ------------------------------

// {zeroing, migration, vm_exits, rest} mean ns over 8 steps of 512 MiB.
const BreakdownGolden kBalloonGolden = {0, 0, 1074790400, 209715200};
const BreakdownGolden kVirtioGolden = {131072000, 243006400, 12000000, 21753600};
const BreakdownGolden kSqueezyGolden = {0, 0, 12000000, 21753600};

// {completed, latency_sum, pending, unplug_fail, evictions, peak, final}.
// Virtio and Harvest coincide here (the tight host keeps pending_ nonempty,
// so harvest slack buffers never accumulate); the fleet scenario below
// separates them by routing hash.
const HostGolden kHostGolden[4] = {
    {6338u, 669898478822, 0u, 0u, 31u, 5637144576u, 5637144576u},       // Static
    {6233u, 284153138250577, 17u, 2u, 7u, 1342177280u, 1207959552u},    // Virtio-mem
    {6338u, 256518381384741, 17u, 0u, 17u, 1342177280u, 1342177280u},   // Squeezy
    {6233u, 284153138250577, 17u, 2u, 7u, 1342177280u, 1207959552u},    // HarvestVM-opts
};

// {routing_hash, completed, pending, unplaced, peak}.  Static VMs do not
// fit the 2176 MiB hosts at boot, so every invocation is unplaced — that
// rejection stream is itself part of the locked behavior.
const FleetGolden kFleetGolden[4] = {
    {14695981039346656037u, 0u, 0u, 3127u, 0u},              // Static
    {8044875401778037024u, 3127u, 35u, 0u, 8589934592u},     // Virtio-mem
    {7528701497569249483u, 3127u, 34u, 0u, 8589934592u},     // Squeezy
    {726163197883999753u, 3127u, 34u, 0u, 8589934592u},      // HarvestVM-opts
};

constexpr ReclaimPolicy kAllPolicies[4] = {
    ReclaimPolicy::kStatic,
    ReclaimPolicy::kVirtioMem,
    ReclaimPolicy::kSqueezy,
    ReclaimPolicy::kHarvestOpts,
};

TEST(PolicyParityTest, Fig05GuestBreakdownsMatchPreRefactor) {
  if (DumpMode()) std::cout << "// fig05 guest breakdowns {zeroing, migration, vm_exits, rest}\n";
  ExpectBreakdown(RunVanillaGuest(/*balloon=*/true), kBalloonGolden, "Balloon");
  ExpectBreakdown(RunVanillaGuest(/*balloon=*/false), kVirtioGolden, "Virtio-mem");
  ExpectBreakdown(RunSqueezyGuest(), kSqueezyGolden, "Squeezy");
}

TEST(PolicyParityTest, SingleHostChurnMatchesPreRefactor) {
  if (DumpMode())
    std::cout << "// host {completed, latency_sum, pending, unplug_fail, evictions, "
                 "peak, final}\n";
  for (int i = 0; i < 4; ++i) {
    ExpectHost(RunHostScenario(kAllPolicies[i]), kHostGolden[i],
               ReclaimPolicyName(kAllPolicies[i]));
  }
}

TEST(PolicyParityTest, FleetBinPackRoutingMatchesPreRefactor) {
  if (DumpMode())
    std::cout << "// fleet {routing_hash, completed, pending, unplaced, peak}\n";
  for (int i = 0; i < 4; ++i) {
    ExpectFleet(RunFleetScenario(kAllPolicies[i]), kFleetGolden[i],
                ReclaimPolicyName(kAllPolicies[i]));
  }
}

}  // namespace
}  // namespace squeezy
