// Host drain + placement–reclaim co-design tests (the HostControl plane).
//
// Drain contract: once Cluster::DrainHost(h) fires mid-trace,
//   * no subsequent invocation routes to host h (any placement policy),
//   * h's idle instances are reaped and their memory unplugged per the
//     host's reclaim driver — so SqueezyDriver returns the committed book
//     to its boot-time level faster than VirtioMemDriver,
//   * fleet-wide host-memory accounting is conserved: after the run
//     drains, EVERY host (drained or not) sits exactly at its boot-time
//     commitment.
// Co-design contract (kHintedBinPack): when a burst outruns reclamation,
// the scheduler's ProactiveReclaim hints actually reach the donor hosts'
// drivers, and the whole decision stream stays deterministic.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/faas/function.h"
#include "src/policy/harvest_driver.h"
#include "src/trace/cluster_trace.h"
#include "tests/support/cluster_churn.h"

namespace squeezy {
namespace {

// The shared fleet on tight (2176 MiB) hosts, reaping a drained host's
// replicas, checking pressure every 500 ms.
ClusterConfig DrainConfig(PlacementPolicy placement, ReclaimPolicy reclaim) {
  ClusterConfig cfg = FleetConfig(placement, MiB(2176));
  cfg.host.policy = reclaim;
  cfg.host.pressure_check_period = Msec(500);
  return cfg;
}

TEST(ClusterDrainTest, DrainingHostStopsReceivingRoutes) {
  for (const PlacementPolicy placement :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kMemoryAwareBinPack,
        PlacementPolicy::kHintedBinPack}) {
    Cluster cluster(DrainConfig(placement, ReclaimPolicy::kSqueezy));
    AddSkewedLoad(cluster, TinySpec("drainroute"), 42);
    const size_t victim = DrainMostCommitted(cluster, Minutes(3));
    const uint64_t routed_at_drain = cluster.routed_to(victim);
    EXPECT_GT(routed_at_drain, 0u) << PlacementPolicyName(placement);
    cluster.RunUntil(Minutes(8));
    // Every post-drain invocation went elsewhere.
    EXPECT_EQ(cluster.routed_to(victim), routed_at_drain)
        << PlacementPolicyName(placement);
    EXPECT_TRUE(cluster.host(victim).draining());
    // The fleet kept serving: other hosts picked the load up.
    uint64_t routed_elsewhere = 0;
    for (size_t h = 0; h < cluster.host_count(); ++h) {
      if (h != victim) {
        routed_elsewhere += cluster.routed_to(h);
      }
    }
    EXPECT_GT(routed_elsewhere, routed_at_drain) << PlacementPolicyName(placement);
  }
}

// Reclamation speed IS maintenance speed: the drained host's committed
// book returns to its boot-time commitment faster under SqueezyDriver
// than under VirtioMemDriver (same trace, same drain instant).
TEST(ClusterDrainTest, SqueezyDrainsCommittedMemoryFasterThanVirtio) {
  auto reclaim_time = [](ReclaimPolicy reclaim) {
    ClusterConfig cfg = DrainConfig(PlacementPolicy::kMemoryAwareBinPack, reclaim);
    Cluster cluster(cfg);
    const FunctionSpec spec = TinySpec("drainspeed");
    AddSkewedLoad(cluster, spec, 42);
    const uint64_t boot_commit = 4 * FaasRuntime::BootCommitment(cfg.host, spec, 8);
    const TimeNs drain_at = Minutes(3);
    const size_t victim = DrainMostCommitted(cluster, drain_at);
    // The victim was carrying scale-ups beyond its boot commitment.
    EXPECT_GT(cluster.host(victim).committed(), boot_commit);
    cluster.RunUntil(Minutes(10));
    for (const StepSeries::Point& p :
         cluster.host(victim).host().committed_series().points()) {
      if (p.t >= drain_at && static_cast<uint64_t>(p.value) <= boot_commit) {
        return p.t - drain_at;
      }
    }
    ADD_FAILURE() << "drained host never returned to boot commitment under "
                  << ReclaimPolicyName(reclaim);
    return DurationNs{0};
  };
  const DurationNs squeezy = reclaim_time(ReclaimPolicy::kSqueezy);
  const DurationNs virtio = reclaim_time(ReclaimPolicy::kVirtioMem);
  EXPECT_LT(squeezy, virtio);
  EXPECT_GT(squeezy, 0);
}

// Fleet-wide conservation across a mid-trace drain: when everything
// quiesces, every host — drained or not — is back at exactly its
// boot-time commitment, with no live instances anywhere.
TEST(ClusterDrainTest, DrainConservesFleetHostMemoryAccounting) {
  for (const ReclaimPolicy reclaim :
       {ReclaimPolicy::kVirtioMem, ReclaimPolicy::kSqueezy,
        ReclaimPolicy::kHarvestOpts}) {
    ClusterConfig cfg = DrainConfig(PlacementPolicy::kMemoryAwareBinPack, reclaim);
    Cluster cluster(cfg);
    const FunctionSpec spec = TinySpec("drainbook");
    AddSkewedLoad(cluster, spec, 42);
    const std::vector<uint64_t> boot =
        PerReplica(cluster, FaasRuntime::BootCommitment(cfg.host, spec, 8));
    const size_t victim = DrainMostCommitted(cluster, Minutes(3));
    cluster.RunAll();  // Every keep-alive expiry, drain tick and unplug completes.
    for (size_t h = 0; h < cluster.host_count(); ++h) {
      // HarvestVM slack buffers legitimately stay plugged+committed at
      // quiescence (they drain only under low memory or a host drain);
      // account for them through the driver's introspection.
      uint64_t slack = 0;
      if (const auto* harvest =
              dynamic_cast<const HarvestDriver*>(&cluster.host(h).driver())) {
        for (size_t fn = 0; fn < cluster.host(h).function_count(); ++fn) {
          slack += static_cast<uint64_t>(harvest->buffer_units(static_cast<int>(fn))) *
                   (BytesToBlocks(spec.memory_limit) * kMemoryBlockBytes);
        }
      }
      EXPECT_EQ(cluster.host(h).committed(), boot[h] + slack)
          << ReclaimPolicyName(reclaim) << " host " << h
          << (h == victim ? " (drained)" : "");
      if (h == victim) {
        EXPECT_EQ(slack, 0u) << "drained host must not hold slack";
      }
      EXPECT_LE(cluster.host(h).host().populated(), cluster.host(h).committed());
      for (size_t fn = 0; fn < cluster.host(h).function_count(); ++fn) {
        EXPECT_EQ(cluster.host(h).agent(static_cast<int>(fn)).live_instances(), 0u);
      }
    }
  }
}

// Undrain restores the host to rotation: routes flow to it again.
TEST(ClusterDrainTest, UndrainRestoresRouting) {
  Cluster cluster(DrainConfig(PlacementPolicy::kRoundRobin, ReclaimPolicy::kSqueezy));
  AddSkewedLoad(cluster, TinySpec("undrain"), 42);
  const size_t victim = DrainMostCommitted(cluster, Minutes(2));
  cluster.RunUntil(Minutes(3));
  const uint64_t routed_while_drained = cluster.routed_to(victim);
  cluster.UndrainHost(victim);
  cluster.RunUntil(Minutes(8));
  EXPECT_FALSE(cluster.host(victim).draining());
  EXPECT_GT(cluster.routed_to(victim), routed_while_drained);
}

// kHintedBinPack's ProactiveReclaim hints reach donor hosts' drivers, and
// the hinted decision stream is deterministic under a fixed seed.
TEST(ClusterDrainTest, HintedBinPackFiresProactiveReclaimsDeterministically) {
  auto run = [](uint64_t seed) {
    ClusterConfig cfg =
        DrainConfig(PlacementPolicy::kHintedBinPack, ReclaimPolicy::kSqueezy);
    cfg.host.seed = seed;
    Cluster cluster(cfg);
    AddSkewedLoad(cluster, TinySpec("hinted"), seed);
    cluster.RunUntil(Minutes(8));
    uint64_t proactive = 0;
    for (size_t h = 0; h < cluster.host_count(); ++h) {
      proactive += cluster.host(h).total_proactive_reclaims();
    }
    return std::make_tuple(cluster.routing_hash(), cluster.scheduler().hints_fired(),
                           proactive, cluster.Summarize(Minutes(8)).completed_requests);
  };
  const auto a = run(42);
  EXPECT_EQ(a, run(42));
  // The tight fleet forced at least one hint, and every hint reached a
  // donor host's driver.
  EXPECT_GT(std::get<1>(a), 0u);
  EXPECT_EQ(std::get<1>(a), std::get<2>(a));
  EXPECT_GT(std::get<3>(a), 0u);
}

}  // namespace
}  // namespace squeezy
