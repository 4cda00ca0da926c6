// Cross-host shared dependency cache (src/cluster/dep_cache.*).
//
// Four behaviors are locked:
//   * registry bookkeeping — intern/pin/refcount/evict conservation;
//   * boot dedup — deps_region charged once per host per image for
//     sharing drivers, while Static/VirtioMem stay BIT-IDENTICAL with
//     the cache attached (the policy_parity_test-style lock: the same
//     churn scenario with and without the registry must agree exactly);
//   * cold-start cold-IO skip — a host whose peer holds the image warm
//     fetches it at wire speed (and a sibling VM adopts it for free);
//   * migration wire skip — a destination holding the image receives
//     only the anonymous state, priced strictly cheaper than the PR 3
//     full-transfer baseline, and drain eviction flows the image's
//     commitment back through the driver.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/dep_cache.h"
#include "src/cluster/migration_planner.h"
#include "src/faas/function.h"
#include "src/faas/runtime.h"
#include "src/trace/cluster_trace.h"
#include "tests/support/cluster_churn.h"
#include "tests/support/mirrored_host_index.h"

namespace squeezy {
namespace {

uint64_t DepsRegion(const FunctionSpec& s) {
  return BytesToBlocks(s.file_deps_bytes) * kMemoryBlockBytes;
}

// --- Registry bookkeeping ------------------------------------------------------------

TEST(DepCacheRegistryTest, InternIsIdempotentPerKey) {
  DepCache cache(2);
  const DepImageId a = cache.Intern("fn-a/64", MiB(128));
  const DepImageId b = cache.Intern("fn-b/64", MiB(128));
  EXPECT_NE(a, b);
  EXPECT_EQ(cache.Intern("fn-a/64", MiB(128)), a);
  EXPECT_EQ(cache.image_count(), 2u);
  EXPECT_EQ(cache.region_bytes(a), MiB(128));
}

TEST(DepCacheRegistryTest, PinDedupEvictConservation) {
  DepCache cache(2);
  const DepImageId img = cache.Intern("fn/64", MiB(128));
  EXPECT_FALSE(cache.Resident(0, img));
  EXPECT_FALSE(cache.PinImage(0, img));  // First pin: the caller charges.
  EXPECT_TRUE(cache.Resident(0, img));
  EXPECT_TRUE(cache.PinImage(0, img));  // Joining pin: dedup hit.
  EXPECT_EQ(cache.stats().boot_dedup_hits, 1u);
  EXPECT_EQ(cache.stats().boot_bytes_saved, MiB(128));
  EXPECT_EQ(cache.charged_bytes(0), MiB(128));  // Once, not twice.
  EXPECT_EQ(cache.charged_bytes(1), 0u);

  cache.AddRef(0, img);
  EXPECT_EQ(cache.RefCount(0, img), 1u);
  cache.ReleaseRef(0, img);
  EXPECT_EQ(cache.RefCount(0, img), 0u);

  EXPECT_EQ(cache.EvictImage(0, img), MiB(128));
  EXPECT_FALSE(cache.Resident(0, img));
  EXPECT_EQ(cache.EvictImage(0, img), 0u);  // Second evict: nothing charged.
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.charged_bytes(0), 0u);
}

TEST(DepCacheRegistryTest, PopulationIsPerHost) {
  DepCache cache(3);
  const DepImageId img = cache.Intern("fn/64", MiB(128));
  cache.PinImage(0, img);
  cache.PinImage(1, img);
  EXPECT_FALSE(cache.PopulatedElsewhere(1, img));
  cache.MarkPopulated(0, img);
  EXPECT_TRUE(cache.Populated(0, img));
  EXPECT_FALSE(cache.Populated(1, img));
  EXPECT_TRUE(cache.PopulatedElsewhere(1, img));
  EXPECT_FALSE(cache.PopulatedElsewhere(0, img));  // Only host 0 holds it.
  // Eviction drops population with residency.
  EXPECT_EQ(cache.EvictImage(0, img), MiB(128));
  EXPECT_FALSE(cache.Populated(0, img));
  EXPECT_FALSE(cache.PopulatedElsewhere(1, img));
}

// --- Boot dedup (once per host per image) --------------------------------------------

TEST(DepCacheBootTest, SqueezyChargesDepsOncePerHostPerImage) {
  const FunctionSpec spec = TinySpec("dedup");
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.host_capacity = GiB(32);
  cfg.vm_base_memory = MiB(128);

  FaasRuntime plain(cfg);
  plain.AddFunction(spec, 4);
  plain.AddFunction(spec, 4);

  DepCache cache(1);
  FaasRuntime shared(cfg);
  shared.AttachDepRegistry(&cache, 0);
  shared.AddFunction(spec, 4);
  shared.AddFunction(spec, 4);

  // The second VM of the same image skips its deps share of the boot
  // commitment — exactly one region less than the per-VM baseline.
  EXPECT_EQ(shared.committed() + DepsRegion(spec), plain.committed());
  EXPECT_EQ(cache.stats().boot_dedup_hits, 1u);
  EXPECT_EQ(cache.charged_bytes(0), DepsRegion(spec));
  EXPECT_NE(shared.dep_image(0), kNoDepImage);
  EXPECT_EQ(shared.dep_image(0), shared.dep_image(1));

  // Distinct specs are distinct images: both charge.
  FunctionSpec other = TinySpec("other");
  shared.AddFunction(other, 4);
  EXPECT_EQ(cache.charged_bytes(0), 2 * DepsRegion(spec));
}

// --- Parity lock: non-sharing drivers are bit-identical with the cache attached ------

struct ChurnSummary {
  uint64_t completed = 0;
  int64_t latency_sum = 0;
  uint64_t pending_total = 0;
  uint64_t evictions = 0;
  uint64_t committed_peak = 0;
  uint64_t committed_final = 0;

  bool operator==(const ChurnSummary& o) const {
    return completed == o.completed && latency_sum == o.latency_sum &&
           pending_total == o.pending_total && evictions == o.evictions &&
           committed_peak == o.committed_peak && committed_final == o.committed_final;
  }
};

ChurnSummary RunChurn(ReclaimPolicy policy, DepImageRegistry* registry) {
  RuntimeConfig cfg;
  cfg.host_capacity = policy == ReclaimPolicy::kStatic ? GiB(6) : MiB(1280);
  cfg.policy = policy;
  cfg.keep_alive = Sec(30);
  cfg.seed = 42;
  cfg.vm_base_memory = MiB(128);
  cfg.unplug_timeout = Msec(100);
  cfg.pressure_check_period = Msec(500);
  FaasRuntime rt(cfg);
  if (registry != nullptr) {
    rt.AttachDepRegistry(registry, 0);
  }
  const int kFunctions = 3;
  for (int f = 0; f < kFunctions; ++f) {
    rt.AddFunction(TinySpec("parity"), 6);
  }
  rt.SubmitTrace(GenerateClusterTrace(SkewedTrace(Minutes(4), kFunctions), 42));
  rt.RunUntil(Minutes(6));

  ChurnSummary g;
  for (int f = 0; f < kFunctions; ++f) {
    const Agent& a = rt.agent(f);
    g.completed += a.requests().size();
    for (const RequestRecord& r : a.requests()) {
      g.latency_sum += r.latency();
    }
    g.evictions += a.total_evictions();
  }
  g.pending_total = rt.total_pending_scaleups();
  g.committed_peak = static_cast<uint64_t>(rt.host().committed_series().Max());
  g.committed_final = rt.committed();
  return g;
}

TEST(DepCacheParityTest, StaticAndVirtioMemBitIdenticalWithCacheAttached) {
  // Non-sharing drivers never register an image, so attaching the
  // registry must not perturb a single number — the whole churn run is
  // compared, not a summary statistic.
  for (const ReclaimPolicy policy :
       {ReclaimPolicy::kStatic, ReclaimPolicy::kVirtioMem, ReclaimPolicy::kHarvestOpts}) {
    DepCache cache(1);
    const ChurnSummary with = RunChurn(policy, &cache);
    const ChurnSummary without = RunChurn(policy, nullptr);
    EXPECT_TRUE(with == without) << ReclaimPolicyName(policy);
    EXPECT_EQ(cache.image_count(), 0u) << ReclaimPolicyName(policy);
    EXPECT_EQ(cache.stats().pins, 0u) << ReclaimPolicyName(policy);
  }
}

TEST(DepCacheParityTest, SqueezySharesAndStillCompletesTheChurn) {
  DepCache cache(1);
  const ChurnSummary with = RunChurn(ReclaimPolicy::kSqueezy, &cache);
  const ChurnSummary without = RunChurn(ReclaimPolicy::kSqueezy, nullptr);
  // Same image for the three VMs: two boot dedups, a full region freed.
  EXPECT_EQ(cache.stats().boot_dedup_hits, 2u);
  EXPECT_EQ(cache.stats().boot_bytes_saved, 2 * DepsRegion(TinySpec("parity")));
  // The freed commitment loosens the whole run: the shared host can only
  // sit at or below the per-VM book, and never loses work to it.  (More
  // headroom admits more instances, so pending/eviction churn may go
  // either way — only the book and the served work are ordered.)
  EXPECT_LE(with.committed_peak, without.committed_peak);
  EXPECT_LE(with.committed_final, without.committed_final);
  EXPECT_GE(with.completed, without.completed);
}

// --- Cold-start cold-IO skip ---------------------------------------------------------

// Two hosts, one function replicated on both.  Host 0 cold-starts from
// disk; once its image is warm, host 1's cold start fetches the bytes
// from host 0 at wire speed instead of paying cold backing-store IO.
TEST(DepCacheColdStartTest, PeerResidentImageSkipsColdIo) {
  auto run = [](bool with_cache) {
    ClusterConfig cfg;
    cfg.nr_hosts = 2;
    cfg.placement = PlacementPolicy::kRoundRobin;
    cfg.shared_dep_cache = with_cache;
    cfg.host.policy = ReclaimPolicy::kSqueezy;
    cfg.host.host_capacity = GiB(8);
    cfg.host.vm_base_memory = MiB(128);
    cfg.host.keep_alive = Minutes(5);
    cfg.host.seed = 7;
    auto cluster = std::make_unique<Cluster>(cfg);
    const int fn = cluster->AddFunction(TinySpec("coldio"), 4);
    const std::vector<Replica>& reps = cluster->replicas(fn);
    EXPECT_EQ(reps.size(), 2u);
    // Two invocations on host 0 (the second acquire observes the first
    // instance's fully-cached image and marks host 0 populated), then a
    // cold start on host 1.
    Cluster& c = *cluster;
    c.events().ScheduleAt(Sec(1), [&c, reps] { c.host(reps[0].host).agent(reps[0].local_fn).Submit(); });
    c.events().ScheduleAt(Sec(30), [&c, reps] { c.host(reps[0].host).agent(reps[0].local_fn).Submit(); });
    c.events().ScheduleAt(Sec(60), [&c, reps] { c.host(reps[1].host).agent(reps[1].local_fn).Submit(); });
    c.RunUntil(Minutes(2));
    return cluster;
  };

  const auto with = run(true);
  const auto without = run(false);

  const Cluster::DepIoTotals io_with = with->DepIo();
  const Cluster::DepIoTotals io_without = without->DepIo();
  // Host 0's first cold start still reads from disk; host 1's reads the
  // peer-resident image over the wire.
  EXPECT_GT(io_with.disk_read_bytes, 0u);
  EXPECT_GT(io_with.remote_read_bytes, 0u);
  EXPECT_EQ(io_without.remote_read_bytes, 0u);
  EXPECT_GT(io_without.disk_read_bytes, io_with.disk_read_bytes);
  // Every byte fetched remotely is a byte of cold IO avoided.
  EXPECT_EQ(io_with.cold_io_avoided(), io_with.remote_read_bytes);

  // Host 1's cold start is strictly faster: wire beats backing store.
  const std::vector<Replica>& rw = with->replicas(0);
  const std::vector<Replica>& ro = without->replicas(0);
  const auto& cold_with = with->host(rw[1].host).agent(rw[1].local_fn).cold_starts();
  const auto& cold_without = without->host(ro[1].host).agent(ro[1].local_fn).cold_starts();
  ASSERT_EQ(cold_with.size(), 1u);
  ASSERT_EQ(cold_without.size(), 1u);
  EXPECT_LT(cold_with[0].total(), cold_without[0].total());
}

// A second VM of the same image on the SAME host adopts the sibling's
// warm pages outright — no reads at all, disk or wire.
TEST(DepCacheColdStartTest, SiblingVmAdoptsHostResidentImage) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.host_capacity = GiB(16);
  cfg.vm_base_memory = MiB(128);
  cfg.keep_alive = Minutes(5);
  DepCache cache(1);
  FaasRuntime rt(cfg);
  rt.AttachDepRegistry(&cache, 0);
  const FunctionSpec spec = TinySpec("sibling");
  const int a = rt.AddFunction(spec, 4);
  const int b = rt.AddFunction(spec, 4);

  rt.events().ScheduleAt(Sec(1), [&rt, a] { rt.agent(a).Submit(); });
  rt.events().ScheduleAt(Sec(30), [&rt, a] { rt.agent(a).Submit(); });  // Marks populated.
  rt.events().ScheduleAt(Sec(60), [&rt, b] { rt.agent(b).Submit(); });
  rt.RunUntil(Minutes(2));

  const PageCache& pc = static_cast<const FaasRuntime&>(rt).guest(b).page_cache();
  const int32_t file = rt.agent(b).deps_file();
  EXPECT_GT(pc.adopted_bytes(file), 0u);
  EXPECT_EQ(pc.disk_read_bytes(file), 0u);  // The sibling already paid the IO.
  EXPECT_EQ(pc.remote_read_bytes(file), 0u);
}

// --- Migration wire skip -------------------------------------------------------------

TEST(DepCachePricingTest, DepHitPricesStrictlyCheaperThanFullTransfer) {
  RuntimeConfig cfg;
  FaasRuntime host(cfg);
  const std::vector<HostControl*> hosts = {&host};
  MirroredHostIndex mirror(hosts);
  MigrationPlanner planner(hosts, cfg.cost, mirror.index());

  ReplicaMigrationState full;
  full.warm_instances = 2;
  full.state_bytes = MiB(64);
  full.deps_bytes = MiB(128);
  full.busy_fraction = 0.5;
  ReplicaMigrationState hit = full;
  hit.deps_bytes = 0;

  const StateTransferCost c_full = planner.TransferCost(full);
  const StateTransferCost c_hit = planner.TransferCost(hit, /*dep_cache_hit=*/true);
  EXPECT_LT(c_hit.total(), c_full.total());
  EXPECT_LT(c_hit.bytes_sent, c_full.bytes_sent);
  EXPECT_GE(c_full.bytes_sent - c_hit.bytes_sent, MiB(128));  // Deps never resent either.
}

struct DrainOutcome {
  uint64_t bytes_sent = 0;
  TimeNs transfer_ns = 0;
  size_t migrations = 0;
  uint64_t wire_bytes_saved = 0;
};

DrainOutcome RunDrainMigration(bool with_cache) {
  ClusterConfig cfg;
  cfg.nr_hosts = 2;
  cfg.placement = PlacementPolicy::kMemoryAwareBinPack;
  cfg.migration = MigrationMode::kMigrateOnDrain;
  cfg.shared_dep_cache = with_cache;
  cfg.host.policy = ReclaimPolicy::kSqueezy;
  cfg.host.host_capacity = GiB(8);
  cfg.host.vm_base_memory = MiB(128);
  cfg.host.keep_alive = Minutes(5);
  cfg.host.seed = 11;
  Cluster cluster(cfg);
  const int fn = cluster.AddFunction(TinySpec("migrate"), 4);
  const std::vector<Replica> reps = cluster.replicas(fn);

  // Warm BOTH replicas (two instances on the source, one on the
  // destination so its image is populated), then drain the source.
  Cluster* c = &cluster;
  for (const TimeNs t : {Sec(1), Sec(20)}) {
    c->events().ScheduleAt(t, [c, reps] { c->host(reps[0].host).agent(reps[0].local_fn).Submit(); });
  }
  c->events().ScheduleAt(Sec(1), [c, reps] { c->host(reps[1].host).agent(reps[1].local_fn).Submit(); });
  cluster.RunUntil(Minutes(1));
  cluster.DrainHost(reps[0].host);
  cluster.RunUntil(Minutes(2));

  DrainOutcome out;
  out.migrations = cluster.migrations().size();
  for (const MigrationRecord& m : cluster.migrations()) {
    out.bytes_sent += m.bytes_sent;
    out.transfer_ns += m.done_at - m.started_at;
  }
  if (cluster.dep_cache() != nullptr) {
    out.wire_bytes_saved = cluster.dep_cache()->stats().wire_bytes_saved;
  }
  return out;
}

TEST(DepCacheMigrationTest, CacheOnWithNonSharingDriverMigratesAtFullPrice) {
  // shared_dep_cache with a driver that does not share: no image is ever
  // registered (fn_dep_image == kNoDepImage), so drain migration must run
  // the PR 3 full-price path instead of touching the registry.
  ClusterConfig cfg;
  cfg.nr_hosts = 2;
  cfg.placement = PlacementPolicy::kMemoryAwareBinPack;
  cfg.migration = MigrationMode::kMigrateOnDrain;
  cfg.shared_dep_cache = true;
  cfg.host.policy = ReclaimPolicy::kVirtioMem;
  cfg.host.host_capacity = GiB(8);
  cfg.host.vm_base_memory = MiB(128);
  cfg.host.keep_alive = Minutes(5);
  cfg.host.seed = 13;
  Cluster cluster(cfg);
  const int fn = cluster.AddFunction(TinySpec("nonsharing"), 4);
  const std::vector<Replica> reps = cluster.replicas(fn);
  EXPECT_EQ(cluster.host(reps[0].host).dep_image(reps[0].local_fn), kNoDepImage);

  Cluster* c = &cluster;
  c->events().ScheduleAt(Sec(1), [c, reps] { c->host(reps[0].host).agent(reps[0].local_fn).Submit(); });
  cluster.RunUntil(Minutes(1));
  cluster.DrainHost(reps[0].host);  // Crashed here before the kNoDepImage guard.
  cluster.RunUntil(Minutes(2));

  ASSERT_EQ(cluster.migrations().size(), 1u);
  EXPECT_EQ(cluster.dep_cache()->stats().wire_hits, 0u);
  // Full price: the image crossed the wire with the anonymous state.
  EXPECT_GE(cluster.migrations()[0].bytes_sent, TinySpec("nonsharing").file_deps_bytes);
}

TEST(DepCacheMigrationTest, DestinationResidentImageSkipsTheWire) {
  const DrainOutcome with = RunDrainMigration(true);
  const DrainOutcome without = RunDrainMigration(false);
  ASSERT_GT(with.migrations, 0u);
  ASSERT_EQ(with.migrations, without.migrations);
  // The image never crossed the wire on the hit, and the transfer is
  // strictly cheaper than the PR 3 full-transfer baseline.
  EXPECT_GT(with.wire_bytes_saved, 0u);
  EXPECT_LT(with.bytes_sent, without.bytes_sent);
  EXPECT_GE(without.bytes_sent - with.bytes_sent, with.wire_bytes_saved);
  EXPECT_LT(with.transfer_ns, without.transfer_ns);
}

// --- Eviction: drain flows the image commitment back ---------------------------------

TEST(DepCacheEvictionTest, DrainReleasesImageCommitmentThroughDriver) {
  ClusterConfig cfg;
  cfg.nr_hosts = 2;
  cfg.placement = PlacementPolicy::kRoundRobin;
  cfg.shared_dep_cache = true;
  cfg.host.policy = ReclaimPolicy::kSqueezy;
  cfg.host.host_capacity = GiB(8);
  cfg.host.vm_base_memory = MiB(128);
  cfg.host.keep_alive = Sec(30);
  cfg.host.seed = 5;
  Cluster cluster(cfg);
  const FunctionSpec spec = TinySpec("evict");
  const int fn = cluster.AddFunction(spec, 4);
  const std::vector<Replica> reps = cluster.replicas(fn);
  const size_t victim = reps[0].host;

  // Resident and charged at boot.
  EXPECT_EQ(cluster.host(victim).committed(), MiB(128) + DepsRegion(spec));
  Cluster* c = &cluster;
  c->events().ScheduleAt(Sec(1), [c, reps] { c->host(reps[0].host).agent(reps[0].local_fn).Submit(); });
  cluster.RunUntil(Sec(20));
  const DepImageId img = cluster.host(victim).dep_image(reps[0].local_fn);
  EXPECT_EQ(cluster.dep_cache()->RefCount(victim, img), 1u);

  cluster.DrainHost(victim);
  cluster.RunAll();  // Keep-alive expires, instances reap, image evicts.

  // Refcount conservation: every grant released, residency gone, and the
  // deps commitment flowed back through the driver — only base remains.
  EXPECT_EQ(cluster.dep_cache()->RefCount(victim, img), 0u);
  EXPECT_FALSE(cluster.dep_cache()->Resident(victim, img));
  EXPECT_EQ(cluster.dep_cache()->charged_bytes(victim), 0u);
  EXPECT_EQ(cluster.host(victim).committed(), MiB(128));
  EXPECT_GE(cluster.dep_cache()->stats().evictions, 1u);

  // Undrain: the next cold start re-charges the image before any
  // instance maps it (conserving the book in the other direction).
  cluster.UndrainHost(victim);
  c->events().ScheduleAt(cluster.events().now() + Sec(1),
                         [c, reps] { c->host(reps[0].host).agent(reps[0].local_fn).Submit(); });
  cluster.RunUntil(cluster.events().now() + Sec(20));
  EXPECT_TRUE(cluster.dep_cache()->Resident(victim, img));
  EXPECT_EQ(cluster.host(victim).committed(),
            MiB(128) + DepsRegion(spec) + BytesToBlocks(spec.memory_limit) * kMemoryBlockBytes);
}

}  // namespace
}  // namespace squeezy
