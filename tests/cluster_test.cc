// Cluster subsystem tests: shared-clock wiring, placement determinism,
// host-memory conservation, and memory-aware routing beating memory-blind
// routing under skewed load.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/faas/function.h"
#include "src/trace/cluster_trace.h"
#include "tests/support/cluster_churn.h"
#include "tests/support/mirrored_host_index.h"

namespace squeezy {
namespace {

TEST(ClusterTest, ShardedKernelBuildsLanesWithRegistriesAttached) {
  // Every lane shares the one heap, so a shared registry's cross-host
  // handlers run in the single queue's order: a kSharded fleet with one
  // attached still gives each host its own lane and routes exactly as
  // the single queue does.
  for (const bool dep_cache : {false, true}) {
    ClusterConfig cfg = FleetConfig(PlacementPolicy::kRoundRobin, GiB(8));
    cfg.shared_dep_cache = dep_cache;
    cfg.shared_snapshots = !dep_cache;
    const auto routing_hash = [&](EventQueue::Impl impl) {
      cfg.queue_impl = impl;
      Cluster cluster(cfg);
      EXPECT_EQ(cluster.sharded() != nullptr, impl == EventQueue::Impl::kSharded);
      EXPECT_EQ(&cluster.host(3).events() != &cluster.events(),
                impl == EventQueue::Impl::kSharded);
      AddSkewedLoad(cluster, TinySpec("lanes"), /*seed=*/42);
      cluster.RunUntil(Minutes(8));
      return cluster.routing_hash();
    };
    EXPECT_EQ(routing_hash(EventQueue::Impl::kSharded),
              routing_hash(EventQueue::Impl::kSingleQueue))
        << (dep_cache ? "dep cache" : "snapshots");
  }
}

// The process's thread count from /proc/self/status (0 when unreadable).
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return 0;
}

// ClusterConfig::sim_threads is ignored: the sharded kernel runs every
// event on the calling thread, so a fleet asked for four threads
// starts none and routes exactly like one asked for one.
TEST(ClusterTest, ShardedFleetRunsOnTheCallingThreadAtAnySimThreads) {
  auto run = [](size_t sim_threads) {
    ClusterConfig cfg = FleetConfig(PlacementPolicy::kMemoryAwareBinPack, GiB(3));
    cfg.queue_impl = EventQueue::Impl::kSharded;
    cfg.sim_threads = sim_threads;
    Cluster cluster(cfg);
    EXPECT_NE(cluster.sharded(), nullptr);
    for (int f = 0; f < 4; ++f) {
      cluster.AddFunction(TinySpec("threads"), 6);
    }
    const std::vector<Invocation> trace = GenerateClusterTrace(SkewedTrace(), 42);
    cluster.SubmitTrace(trace);
    int threads_mid_run = 0;
    cluster.events().ScheduleAt(Minutes(3), [&] { threads_mid_run = ProcessThreads(); });
    cluster.RunUntil(Minutes(8));
    EXPECT_EQ(threads_mid_run, 1) << "sim_threads " << sim_threads;
    const uint64_t admitted = trace.size() - cluster.unplaced_invocations();
    return std::make_tuple(cluster.routing_hash(), cluster.processed_events(), admitted);
  };
  const auto one = run(1);
  EXPECT_GT(std::get<2>(one), 0u);
  EXPECT_EQ(run(4), one);
}

TEST(ClusterTest, PlacementPolicyNames) {
  EXPECT_STREQ(PlacementPolicyName(PlacementPolicy::kRoundRobin), "RoundRobin");
  EXPECT_STREQ(PlacementPolicyName(PlacementPolicy::kLeastCommitted), "LeastCommitted");
  EXPECT_STREQ(PlacementPolicyName(PlacementPolicy::kMemoryAwareBinPack), "MemBinPack");
}

TEST(ClusterTest, HostsShareOneVirtualClock) {
  Cluster cluster(FleetConfig(PlacementPolicy::kRoundRobin, GiB(8)));
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    EXPECT_EQ(&cluster.host(h).events(), &cluster.events());
  }
  const int fn = cluster.AddFunction(TinySpec("clock"), 4);
  cluster.SubmitTrace({{Sec(1), fn}, {Sec(2), fn}});
  cluster.RunUntil(Minutes(1));
  EXPECT_EQ(cluster.events().now(), Minutes(1));
  uint64_t completed = 0;
  for (const Replica& r : cluster.replicas(fn)) {
    completed += cluster.host(r.host).agent(r.local_fn).requests().size();
  }
  EXPECT_EQ(completed, 2u);
}

// Required test 1: placement determinism under a fixed seed.  The whole
// routing stream (and therefore every latency sample) must be a pure
// function of (config, seed); a different seed must diverge.
TEST(ClusterTest, PlacementDeterministicUnderFixedSeed) {
  auto run = [](uint64_t seed, PlacementPolicy placement) {
    ClusterConfig cfg = FleetConfig(placement, GiB(3));
    cfg.host.seed = seed;
    Cluster cluster(cfg);
    AddSkewedLoad(cluster, TinySpec("det"), seed, 6);
    cluster.RunUntil(Minutes(8));
    const FleetSummary s = cluster.Summarize(Minutes(8));
    return std::make_tuple(cluster.routing_hash(), s.completed_requests,
                           s.latency_p99, s.committed_gib_seconds);
  };
  for (const PlacementPolicy p :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastCommitted,
        PlacementPolicy::kMemoryAwareBinPack}) {
    EXPECT_EQ(run(7, p), run(7, p)) << PlacementPolicyName(p);
    EXPECT_NE(std::get<0>(run(7, p)), std::get<0>(run(8, p))) << PlacementPolicyName(p);
  }
}

// Required test 2: host-memory conservation across scale-up/down.  No host
// ever exceeds its capacity, and once the fleet quiesces (all instances
// evicted, all unplugs drained) every host's committed book returns
// exactly to its boot-time commitment.
TEST(ClusterTest, HostMemoryConservedAcrossScaleUpDown) {
  ClusterConfig cfg = FleetConfig(PlacementPolicy::kLeastCommitted, GiB(3));
  Cluster cluster(cfg);
  const FunctionSpec spec = TinySpec("conserve");
  for (int f = 0; f < 3; ++f) {
    cluster.AddFunction(spec, 6);
  }
  // Boot-time commitment per host: sum over the replicas placed there.
  const std::vector<uint64_t> boot =
      PerReplica(cluster, FaasRuntime::BootCommitment(cfg.host, spec, 6));
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    EXPECT_EQ(cluster.host(h).committed(), boot[h]) << "host " << h;
  }

  cluster.SubmitTrace(GenerateClusterTrace(SkewedTrace(Minutes(6), 3), 42));
  cluster.RunAll();  // Drain: every keep-alive expiry and unplug completes.

  for (size_t h = 0; h < cluster.host_count(); ++h) {
    const FaasRuntime& host = cluster.host(h);
    // Commitment never exceeded capacity at any point in the run.
    EXPECT_LE(host.host().committed_series().Max(),
              static_cast<double>(host.host_capacity()))
        << "host " << h;
    // Populated never exceeds committed at quiescence; commitments from
    // every scale-up were matched by scale-down releases.
    EXPECT_EQ(host.committed(), boot[h]) << "host " << h;
    EXPECT_LE(host.host().populated(), host.committed()) << "host " << h;
    for (size_t fn = 0; fn < host.function_count(); ++fn) {
      EXPECT_EQ(host.agent(static_cast<int>(fn)).live_instances(), 0u);
    }
  }
}

// Required test 3: memory-aware bin-packing beats round-robin on pending
// (memory-starved) scale-ups under a skewed trace.  Round-robin keeps
// routing flash crowds into hosts that are still reclaiming; the
// bin-packer only targets hosts that can admit immediately.
TEST(ClusterTest, BinPackBeatsRoundRobinOnPendingScaleups) {
  auto pending_total = [](PlacementPolicy placement) {
    // Tight fleet: each host fits boot plus only a few extra instances.
    ClusterConfig cfg = FleetConfig(placement, MiB(2176));
    Cluster cluster(cfg);
    AddSkewedLoad(cluster, TinySpec("skew"), 42);
    cluster.RunUntil(Minutes(8));
    return cluster.Summarize(Minutes(8)).pending_scaleups_total;
  };
  const uint64_t round_robin = pending_total(PlacementPolicy::kRoundRobin);
  const uint64_t bin_pack = pending_total(PlacementPolicy::kMemoryAwareBinPack);
  EXPECT_LT(bin_pack, round_robin);
}

// Round-robin registration must stay fair when host eligibility flaps.
// The old code rotated the cursor over the FILTERED candidate list, so a
// host dropping out (full or draining) shifted which hosts later cursor
// positions mapped to: with host 3 eligible only on even calls, the old
// rotation placed 10/4/10/0 across hosts 0-3 over 24 single-replica
// registrations — host 3 starved even when eligible, low-index hosts
// overloaded.  The cursor now advances in stable host-index space.
TEST(ClusterTest, RoundRobinPlacementFairUnderFlappingEligibility) {
  RuntimeConfig rc;
  rc.host_capacity = GiB(4);
  std::vector<std::unique_ptr<FaasRuntime>> hosts;
  std::vector<HostControl*> raw;
  for (int h = 0; h < 4; ++h) {
    hosts.push_back(std::make_unique<FaasRuntime>(rc));
    raw.push_back(hosts.back().get());
  }
  MirroredHostIndex mirror(raw);
  ClusterScheduler sched(PlacementPolicy::kRoundRobin, raw, mirror.index());
  std::vector<int> placed_on(4, 0);
  for (int i = 0; i < 24; ++i) {
    if (i % 2 == 1) {
      hosts[3]->Drain();  // Host 3 ineligible on odd calls.
    }
    const std::vector<size_t> placed = sched.PlaceFunction(MiB(1), MiB(1), 1);
    ASSERT_EQ(placed.size(), 1u);
    ++placed_on[placed[0]];
    hosts[3]->Undrain();
  }
  // Hosts 0-2 were always eligible, host 3 half the time: everybody gets
  // a fair share (the exact stable-cursor sequence gives 7/6/6/5).
  for (int h = 0; h < 4; ++h) {
    EXPECT_GE(placed_on[h], 5) << "host " << h;
    EXPECT_LE(placed_on[h], 7) << "host " << h;
  }
}

// Registration placement: the bin-packer fills busy hosts first, so with
// one replica per function and more functions than one host can hold, it
// still never over-commits a host at boot.
TEST(ClusterTest, SingleReplicaPlacementRespectsCapacity) {
  ClusterConfig cfg = FleetConfig(PlacementPolicy::kMemoryAwareBinPack, GiB(2));
  cfg.replicas_per_function = 1;
  Cluster cluster(cfg);
  for (int f = 0; f < 8; ++f) {
    const int fn = cluster.AddFunction(TinySpec("solo"), 4);
    ASSERT_EQ(cluster.replicas(fn).size(), 1u);
  }
  size_t used_hosts = 0;
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    EXPECT_LE(cluster.host(h).committed(), cluster.host(h).host_capacity());
    used_hosts += cluster.host(h).function_count() > 0 ? 1 : 0;
  }
  // 8 VMs x 384 MiB boot do not fit one 2 GiB host: placement spilled.
  EXPECT_GT(used_hosts, 1u);
}

}  // namespace
}  // namespace squeezy
