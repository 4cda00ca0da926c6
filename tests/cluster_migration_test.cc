// Live replica migration tests (MigrationPlanner + EvictReplica/
// AdoptReplica + the state-transfer CostModel).
//
// Migration contract (ClusterConfig::migration == kMigrateOnDrain):
//   * DrainHost moves the victim's warm replicas to planner-chosen
//     destination hosts instead of reaping them — post-drain invocations
//     hit warm instances, so the fleet pays FEWER cold starts than under
//     kReapOnDrain on the same trace;
//   * the donor's committed book still returns at its reclaim driver's
//     speed (Squeezy donors free memory faster than virtio-mem donors);
//   * destinations admit through the normal CanAdmit sizing — a
//     memory-tight destination adopts only what fits, never overcommits;
//   * the transfer is priced by CostModel::StateTransfer: pre-copy +
//     stop-and-copy proportional to the touched footprint and dirty rate.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/migration_planner.h"
#include "src/faas/function.h"
#include "src/trace/cluster_trace.h"
#include "tests/support/cluster_churn.h"
#include "tests/support/mirrored_host_index.h"

namespace squeezy {
namespace {

// Cold-start executions whose request arrived at or after `since`.
uint64_t ColdStartsSince(const Cluster& cluster, TimeNs since) {
  uint64_t cold = 0;
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    for (size_t fn = 0; fn < cluster.host(h).function_count(); ++fn) {
      for (const RequestRecord& r :
           cluster.host(h).agent(static_cast<int>(fn)).requests()) {
        cold += (r.cold && r.arrival >= since);
      }
    }
  }
  return cold;
}

// --- CostModel: the state-transfer price ------------------------------------------

TEST(StateTransferCostTest, CleanStateCollapsesToOneRound) {
  const CostModel cost = CostModel::Default();
  const StateTransferCost c = cost.StateTransfer(MiB(256), 0.0);
  EXPECT_EQ(c.rounds, 1u);
  EXPECT_EQ(c.bytes_sent, MiB(256));
  // Empty stop-and-copy: only the control round-trip pauses the replica.
  EXPECT_EQ(c.downtime, cost.migrate_round_fixed);
  EXPECT_GT(c.precopy, cost.NetBytes(MiB(256)));
}

TEST(StateTransferCostTest, DirtyStatePaysResendAndDowntime) {
  const CostModel cost = CostModel::Default();
  const StateTransferCost clean = cost.StateTransfer(MiB(256), 0.0);
  const StateTransferCost dirty = cost.StateTransfer(MiB(256), 0.25);
  EXPECT_GT(dirty.bytes_sent, clean.bytes_sent);
  EXPECT_GT(dirty.downtime, clean.downtime);
  EXPECT_EQ(dirty.rounds, cost.migrate_precopy_rounds);
  // Pre-copy shrinks the pause: downtime covers only the residual dirty
  // state, a fraction of one full round.
  EXPECT_LT(dirty.downtime, dirty.precopy);
}

TEST(StateTransferCostTest, CostScalesWithTouchedFootprintNotAFlatConstant) {
  const CostModel cost = CostModel::Default();
  DurationNs prev = 0;
  for (const uint64_t mib : {64u, 128u, 256u, 512u, 1024u}) {
    const StateTransferCost c = cost.StateTransfer(MiB(mib), 0.25);
    EXPECT_GT(c.total(), prev) << mib << " MiB";
    prev = c.total();
  }
  // The redirty fraction never diverges the series, even when callers pass
  // a nonsense dirty rate.
  const StateTransferCost capped = cost.StateTransfer(MiB(256), 5.0);
  EXPECT_LT(capped.total(), Sec(10));
}

// --- Drain migration: warm replicas land elsewhere --------------------------------

TEST(ClusterMigrationTest, DrainMigratesWarmReplicasToOtherHosts) {
  Cluster cluster(cluster_churn::Config(ReclaimPolicy::kSqueezy, 42));
  AddSkewedLoad(cluster, TinySpec("migrate"), 42);
  const size_t victim = DrainMostCommitted(cluster, Minutes(3));
  const uint64_t routed_at_drain = cluster.routed_to(victim);

  // Warm state moved: at least one transfer started, every adopted
  // instance landed on a non-draining destination.
  ASSERT_FALSE(cluster.migrations().empty());
  EXPECT_GT(cluster.migrated_instances(), 0u);
  for (const MigrationRecord& m : cluster.migrations()) {
    EXPECT_EQ(m.src_host, victim);
    EXPECT_NE(m.dst_host, victim);
    EXPECT_GT(m.adopted, 0u);
    EXPECT_LE(m.adopted, m.captured);
    EXPECT_GT(m.bytes_sent, 0u);
    EXPECT_GT(m.done_at, m.started_at);
  }

  cluster.RunUntil(Minutes(8));
  // The drained host got no further routes, transfers completed, and the
  // fleet kept serving.
  EXPECT_EQ(cluster.routed_to(victim), routed_at_drain);
  EXPECT_EQ(cluster.migrations_in_flight(), 0u);
  EXPECT_GT(cluster.Summarize(Minutes(8)).completed_requests, 0u);
}

// Reclamation speed IS maintenance speed, with migration too: the donor's
// committed book returns to boot level faster under Squeezy than under
// virtio-mem, because evicted replica state flows back through the active
// reclaim driver.
TEST(ClusterMigrationTest, DonorCommittedMemoryReturnsAtDriverSpeed) {
  auto reclaim_time = [](ReclaimPolicy reclaim) {
    ClusterConfig cfg = cluster_churn::Config(reclaim, 42);
    Cluster cluster(cfg);
    const FunctionSpec spec = TinySpec("migratespeed");
    AddSkewedLoad(cluster, spec, 42);
    const uint64_t boot_commit = 4 * FaasRuntime::BootCommitment(cfg.host, spec, 8);
    const TimeNs drain_at = Minutes(3);
    const size_t victim = DrainMostCommitted(cluster, drain_at);
    EXPECT_GT(cluster.host(victim).committed(), boot_commit);
    cluster.RunUntil(Minutes(10));
    for (const StepSeries::Point& p :
         cluster.host(victim).host().committed_series().points()) {
      if (p.t >= drain_at && static_cast<uint64_t>(p.value) <= boot_commit) {
        return p.t - drain_at;
      }
    }
    ADD_FAILURE() << "donor never returned to boot commitment under "
                  << ReclaimPolicyName(reclaim);
    return DurationNs{0};
  };
  const DurationNs squeezy = reclaim_time(ReclaimPolicy::kSqueezy);
  const DurationNs virtio = reclaim_time(ReclaimPolicy::kVirtioMem);
  EXPECT_LT(squeezy, virtio);
  EXPECT_GT(squeezy, 0);
}

// The headline: on the same trace and the same drain instant, migrating
// warm replicas beats reaping them on post-drain cold starts.
TEST(ClusterMigrationTest, FewerPostDrainColdStartsThanReapOnly) {
  auto run = [](MigrationMode mode, uint64_t* migrated) {
    ClusterConfig cfg = cluster_churn::Config(ReclaimPolicy::kSqueezy, 42);
    cfg.migration = mode;
    Cluster cluster(cfg);
    AddSkewedLoad(cluster, TinySpec("coldcount"), 42);
    const TimeNs drain_at = Minutes(3);
    DrainMostCommitted(cluster, drain_at);
    cluster.RunUntil(Minutes(8));
    if (migrated != nullptr) {
      *migrated = cluster.migrated_instances();
    }
    return ColdStartsSince(cluster, drain_at);
  };
  uint64_t migrated = 0;
  const uint64_t cold_migrate = run(MigrationMode::kMigrateOnDrain, &migrated);
  const uint64_t cold_reap = run(MigrationMode::kReapOnDrain, nullptr);
  EXPECT_GT(migrated, 0u);
  EXPECT_LT(cold_migrate, cold_reap);
}

// --- Destination admission: CanAdmit sizing is never bypassed ---------------------

TEST(ClusterMigrationTest, DestinationAdoptsOnlyWhatItsMemoryAdmits) {
  // Two hosts sharing one clock.  Host 0 warms up `kWarm` instances; host
  // 1's capacity leaves headroom for exactly `kFits` plug units beyond its
  // boot footprint, so adoption must stop there.
  constexpr uint32_t kWarm = 6;
  constexpr uint32_t kFits = 2;
  const FunctionSpec spec = TinySpec("tightdst");
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.vm_base_memory = MiB(128);
  cfg.keep_alive = Minutes(5);
  cfg.seed = 7;
  const uint64_t plug_unit = BytesToBlocks(spec.memory_limit) * kMemoryBlockBytes;
  const uint64_t boot = FaasRuntime::BootCommitment(cfg, spec, 8);

  EventQueue events;
  RuntimeConfig src_cfg = cfg;
  src_cfg.host_capacity = boot + 8 * plug_unit;
  FaasRuntime src(src_cfg, &events);
  RuntimeConfig dst_cfg = cfg;
  dst_cfg.host_capacity = boot + kFits * plug_unit;
  FaasRuntime dst(dst_cfg, &events);
  const int src_fn = src.AddFunction(spec, 8);
  const int dst_fn = dst.AddFunction(spec, 8);

  std::vector<Invocation> warmup;
  for (uint32_t i = 0; i < kWarm; ++i) {
    warmup.push_back({Msec(10) * i, src_fn});
  }
  src.SubmitTrace(warmup);
  events.RunUntil(Minutes(1));
  ASSERT_EQ(src.agent(src_fn).idle_instances(), kWarm);

  const ReplicaMigrationState state = src.EvictReplica(src_fn);
  EXPECT_EQ(state.warm_instances, kWarm);
  EXPECT_GT(state.state_bytes, 0u);
  EXPECT_EQ(state.deps_bytes, spec.file_deps_bytes);

  const size_t adopted = dst.AdoptReplica(dst_fn, state, events.now() + Sec(1));
  EXPECT_EQ(adopted, kFits);  // Admission stopped exactly at the headroom.
  EXPECT_LE(dst.committed(), dst.host_capacity());
  events.RunAll();
  // The adopted instances are live and warm at the destination; the rest
  // of the captured state was dropped, never overcommitted.
  EXPECT_LE(dst.committed(), dst.host_capacity());
  EXPECT_EQ(dst.total_adopted_instances(), kFits);
  // Keep-alive eventually reaps them; nothing leaks (RunAll above expired
  // the 5-minute keep-alive already).
  EXPECT_EQ(dst.agent(dst_fn).live_instances(), 0u);
}

TEST(ClusterMigrationTest, AdoptedInstancesServeWarmAfterTransferCompletes) {
  const FunctionSpec spec = TinySpec("warmserve");
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.vm_base_memory = MiB(128);
  cfg.host_capacity = GiB(8);
  cfg.keep_alive = Minutes(5);
  cfg.seed = 9;
  EventQueue events;
  FaasRuntime src(cfg, &events);
  FaasRuntime dst(cfg, &events);
  const int src_fn = src.AddFunction(spec, 8);
  const int dst_fn = dst.AddFunction(spec, 8);

  src.SubmitTrace({{Msec(0), src_fn}, {Msec(10), src_fn}});
  events.RunUntil(Minutes(1));
  const ReplicaMigrationState state = src.EvictReplica(src_fn);
  ASSERT_EQ(state.warm_instances, 2u);

  const TimeNs available_at = events.now() + Sec(3);
  ASSERT_EQ(dst.AdoptReplica(dst_fn, state, available_at), 2u);
  // Before the transfer completes the instances are not serveable.
  events.RunUntil(available_at - Sec(1));
  EXPECT_EQ(dst.agent(dst_fn).idle_instances(), 0u);
  events.RunUntil(available_at + Msec(1));
  EXPECT_EQ(dst.agent(dst_fn).idle_instances(), 2u);

  // A request now dispatches onto the adopted instance with NO cold start.
  const size_t cold_before = dst.agent(dst_fn).cold_starts().size();
  dst.agent(dst_fn).Submit();
  events.RunUntil(available_at + Minutes(1));
  ASSERT_EQ(dst.agent(dst_fn).requests().size(), 1u);
  EXPECT_FALSE(dst.agent(dst_fn).requests().back().cold);
  EXPECT_EQ(dst.agent(dst_fn).cold_starts().size(), cold_before);
}

// A draining destination refuses adoption outright.
TEST(ClusterMigrationTest, DrainingDestinationRefusesAdoption) {
  const FunctionSpec spec = TinySpec("refuse");
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.host_capacity = GiB(8);
  cfg.seed = 3;
  EventQueue events;
  FaasRuntime src(cfg, &events);
  FaasRuntime dst(cfg, &events);
  const int src_fn = src.AddFunction(spec, 8);
  const int dst_fn = dst.AddFunction(spec, 8);
  src.SubmitTrace({{Msec(0), src_fn}});
  events.RunUntil(Minutes(1));
  const ReplicaMigrationState state = src.EvictReplica(src_fn);
  ASSERT_EQ(state.warm_instances, 1u);
  dst.Drain();
  EXPECT_EQ(dst.AdoptReplica(dst_fn, state, events.now()), 0u);
}

// --- Pressure-triggered migration -------------------------------------------------

TEST(ClusterMigrationTest, PressureMigrationFreesDonorForStarvedScaleups) {
  // Host layout (2 hosts, every function on both): "idle" warms 4
  // instances on host 0 and goes quiet; "burst" then floods host 0 past
  // its capacity while host 1 sits at boot with 6 free plug units.  Load
  // is driven at the host agents directly so the asymmetry is exact.
  // MigratePressured must pick host 0 (the starved donor), move the idle
  // warm replicas to host 1, and thereby free the donor's commitment for
  // the burst scale-ups it is starving on.
  ClusterConfig cfg;
  cfg.nr_hosts = 2;
  cfg.placement = PlacementPolicy::kRoundRobin;
  cfg.migration = MigrationMode::kMigrateOnDrain;
  cfg.pressure_migrate_min_pending = 1;
  cfg.host.policy = ReclaimPolicy::kSqueezy;
  cfg.host.vm_base_memory = MiB(128);
  cfg.host.keep_alive = Minutes(10);  // The idle replicas stay warm.
  cfg.host.pressure_check_period = Msec(500);
  cfg.host.seed = 5;
  const FunctionSpec spec = TinySpec("pressure");
  const uint64_t plug_unit = BytesToBlocks(spec.memory_limit) * kMemoryBlockBytes;
  const uint64_t boot = FaasRuntime::BootCommitment(cfg.host, spec, 8);
  // Room for boot x2 (both functions) + 6 plug units per host.
  cfg.host.host_capacity = 2 * boot + 6 * plug_unit;

  Cluster cluster(cfg);
  const int idle_fn = cluster.AddFunction(spec, 8);
  const int burst_fn = cluster.AddFunction(spec, 8);
  ASSERT_EQ(cluster.replicas(idle_fn).size(), 2u);
  const int idle_local = cluster.replicas(idle_fn)[0].local_fn;
  const int burst_local = cluster.replicas(burst_fn)[0].local_fn;
  for (int i = 0; i < 4; ++i) {
    cluster.events().ScheduleAt(Sec(1) + Msec(20) * i,
                                [&cluster, idle_local] {
                                  cluster.host(0).agent(idle_local).Submit();
                                });
  }
  for (int i = 0; i < 8; ++i) {
    cluster.events().ScheduleAt(Sec(60) + Msec(5) * i,
                                [&cluster, burst_local] {
                                  cluster.host(0).agent(burst_local).Submit();
                                });
  }
  // Stop at pressure ONSET: the first starved scale-up has just parked
  // (and its MakeRoom evicted one idle instance), but the donor still
  // holds warm state — the window where migrating beats local eviction.
  cluster.RunUntil(Sec(60) + Msec(12));

  ASSERT_GE(cluster.host(0).agent(idle_local).idle_instances(), 1u);
  ASSERT_GE(cluster.host(0).pending_scaleups(), 1u)
      << "burst must starve scale-ups on the donor";
  ASSERT_EQ(cluster.host(1).committed(), 2 * boot);

  const size_t started = cluster.MigratePressured();
  EXPECT_GT(started, 0u);
  EXPECT_GT(cluster.migrated_instances(), 0u);
  ASSERT_FALSE(cluster.migrations().empty());
  EXPECT_EQ(cluster.migrations().front().src_host, 0u);
  EXPECT_EQ(cluster.migrations().front().dst_host, 1u);

  cluster.RunUntil(Minutes(5));
  // The starved scale-ups were eventually served: every invocation
  // completed, and no host overcommitted while doing so.
  uint64_t completed = 0;
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    EXPECT_LE(cluster.host(h).committed(), cluster.host(h).host_capacity());
    for (size_t fn = 0; fn < cluster.host(h).function_count(); ++fn) {
      completed += cluster.host(h).agent(static_cast<int>(fn)).requests().size();
    }
    EXPECT_EQ(cluster.host(h).pending_scaleups(), 0u);
  }
  EXPECT_EQ(completed, 12u);
  // The warm state survived on host 1 until its keep-alive expires.
  EXPECT_GE(cluster.host(1).agent(idle_local).idle_instances(),
            cluster.migrated_instances());
}

// --- AdoptableReplicas contract: the quote IS the adoption ------------------------

// Satellite regression (partial-adopt mispricing): the transfer is priced
// on AdoptableReplicas' quote, so an AdoptReplica immediately after (same
// books, no intervening event) must admit exactly that many — across
// every headroom from "nothing fits" to "everything fits".
TEST(ClusterMigrationTest, AdoptableQuoteMatchesImmediateAdoption) {
  constexpr uint32_t kWarm = 6;
  const FunctionSpec spec = TinySpec("quote");
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.vm_base_memory = MiB(128);
  cfg.keep_alive = Minutes(5);
  cfg.seed = 11;
  const uint64_t plug_unit = BytesToBlocks(spec.memory_limit) * kMemoryBlockBytes;
  const uint64_t boot = FaasRuntime::BootCommitment(cfg, spec, 8);

  for (uint32_t fits = 0; fits <= kWarm + 1; ++fits) {
    EventQueue events;
    RuntimeConfig src_cfg = cfg;
    src_cfg.host_capacity = boot + 8 * plug_unit;
    FaasRuntime src(src_cfg, &events);
    RuntimeConfig dst_cfg = cfg;
    dst_cfg.host_capacity = boot + fits * plug_unit;
    FaasRuntime dst(dst_cfg, &events);
    const int src_fn = src.AddFunction(spec, 8);
    const int dst_fn = dst.AddFunction(spec, 8);
    std::vector<Invocation> warmup;
    for (uint32_t i = 0; i < kWarm; ++i) {
      warmup.push_back({Msec(10) * i, src_fn});
    }
    src.SubmitTrace(warmup);
    events.RunUntil(Minutes(1));
    const ReplicaMigrationState state = src.EvictReplica(src_fn);
    ASSERT_EQ(state.warm_instances, kWarm);

    const size_t quoted = dst.AdoptableReplicas(dst_fn, state.warm_instances);
    const size_t adopted = dst.AdoptReplica(dst_fn, state, events.now() + Sec(1));
    EXPECT_EQ(quoted, adopted) << "headroom " << fits << " plug units";
    EXPECT_EQ(adopted, std::min<size_t>(fits, kWarm)) << "headroom " << fits;
  }
}

// --- DrainHost idempotence --------------------------------------------------------

// Satellite regression (drain-check race): the draining() check, the
// migration sweep, and Drain() now sit in one lock scope — a second
// DrainHost on an already-draining host is a no-op, never a second sweep.
TEST(ClusterMigrationTest, DrainHostIsIdempotent) {
  Cluster cluster(cluster_churn::Config(ReclaimPolicy::kSqueezy, 42));
  AddSkewedLoad(cluster, TinySpec("idem"), 42);
  const size_t victim = DrainMostCommitted(cluster, Minutes(3));
  ASSERT_TRUE(cluster.host(victim).draining());
  const size_t migrations_after_first = cluster.migrations().size();
  ASSERT_GT(migrations_after_first, 0u);
  cluster.DrainHost(victim);  // Second drain: no second migration sweep.
  EXPECT_EQ(cluster.migrations().size(), migrations_after_first);
  cluster.RunUntil(Minutes(8));
  EXPECT_EQ(cluster.migrations().size(), migrations_after_first);
  EXPECT_EQ(cluster.migrations_in_flight(), 0u);
}

// --- MigrationPlanner decision plane (mocked hosts) -------------------------------

// A scriptable HostControl: the planner judges hosts through the HostIndex
// rows the mock's state deltas feed and the narrow reads that default to
// Snapshot(), so the mock only has to stage a snapshot and report drains.
class MockHost : public HostControl {
 public:
  explicit MockHost(HostSnapshot snap) : snap_(snap) {}
  HostSnapshot Snapshot(int) const override { return snap_; }
  void AttachStateListener(HostStateListener* listener, size_t host_id) override {
    listener_ = listener;
    host_id_ = host_id;
    HostControl::AttachStateListener(listener, host_id);
  }
  uint64_t ProactiveReclaim(uint64_t) override { return 0; }
  void Drain() override { SetDraining(true); }
  void Undrain() override { SetDraining(false); }
  ReplicaMigrationState EvictReplica(int) override { return {}; }
  size_t AdoptableReplicas(int, size_t) const override { return 0; }
  size_t AdoptReplica(int, const ReplicaMigrationState&, TimeNs) override { return 0; }

 private:
  void SetDraining(bool draining) {
    snap_.draining = draining;
    if (listener_ != nullptr) {
      listener_->OnHostState(host_id_, snap_.committed, snap_.pending_scaleups, draining);
    }
  }

  HostSnapshot snap_;
  HostStateListener* listener_ = nullptr;
  size_t host_id_ = 0;
};

HostSnapshot PressureSnap(size_t pending, bool draining = false) {
  HostSnapshot s;
  s.capacity = GiB(4);
  s.committed = GiB(1);
  s.available = s.capacity - s.committed;
  s.pending_scaleups = pending;
  s.draining = draining;
  return s;
}

// Satellite regression (min_pending off-by-one): the old `worst =
// min_pending - 1` seed made 0 behave like 1, so an all-idle fleet
// returned -1 where the threshold-0 contract promises host 0.
TEST(MigrationPlannerTest, MostPressuredHostHonorsZeroThreshold) {
  std::vector<std::unique_ptr<MockHost>> owned;
  std::vector<HostControl*> hosts;
  for (const size_t pending : {0u, 0u, 0u}) {
    owned.push_back(std::make_unique<MockHost>(PressureSnap(pending)));
    hosts.push_back(owned.back().get());
  }
  MirroredHostIndex mirror(hosts);
  const MigrationPlanner planner(hosts, CostModel::Default(), mirror.index());
  // Threshold 0: every non-draining host qualifies; ties -> lowest index.
  EXPECT_EQ(planner.MostPressuredHost(0), 0);
  // Threshold 1: nobody is starved, so nobody qualifies.
  EXPECT_EQ(planner.MostPressuredHost(1), -1);
}

TEST(MigrationPlannerTest, MostPressuredHostPicksMaxAboveThreshold) {
  std::vector<std::unique_ptr<MockHost>> owned;
  std::vector<HostControl*> hosts;
  for (const size_t pending : {2u, 7u, 7u, 4u}) {
    owned.push_back(std::make_unique<MockHost>(PressureSnap(pending)));
    hosts.push_back(owned.back().get());
  }
  MirroredHostIndex mirror(hosts);
  const MigrationPlanner planner(hosts, CostModel::Default(), mirror.index());
  EXPECT_EQ(planner.MostPressuredHost(1), 1);  // Max pending, tie -> lowest.
  EXPECT_EQ(planner.MostPressuredHost(5), 1);
  EXPECT_EQ(planner.MostPressuredHost(8), -1);  // Nobody meets the bar.
  // A draining host never becomes the victim, even at max pressure.
  hosts[1]->Drain();
  EXPECT_EQ(planner.MostPressuredHost(1), 2);
}

// The snapshot dimension slots below the dep-cache one: fits-all first,
// then dep-populated, then snapshot-restorable, then most committed.
TEST(MigrationPlannerTest, RankDestinationsPrefersSnapshotRestorableHosts) {
  auto snap_with = [](bool dep, bool snap, uint64_t committed) {
    HostSnapshot s;
    s.capacity = GiB(8);
    s.committed = committed;
    s.available = s.capacity - committed;
    s.dep_image_populated = dep;
    s.snapshot_restorable = snap;
    return s;
  };
  std::vector<std::unique_ptr<MockHost>> owned;
  std::vector<HostControl*> hosts;
  owned.push_back(std::make_unique<MockHost>(PressureSnap(0)));  // src (host 0).
  owned.push_back(std::make_unique<MockHost>(snap_with(false, false, GiB(3))));
  owned.push_back(std::make_unique<MockHost>(snap_with(false, true, GiB(1))));
  owned.push_back(std::make_unique<MockHost>(snap_with(false, true, GiB(2))));
  owned.push_back(std::make_unique<MockHost>(snap_with(true, false, GiB(1))));
  for (auto& h : owned) {
    hosts.push_back(h.get());
  }
  MirroredHostIndex mirror(hosts);
  const MigrationPlanner planner(hosts, CostModel::Default(), mirror.index());
  std::vector<Replica> reps;
  for (size_t h = 0; h < hosts.size(); ++h) {
    reps.push_back(Replica{h, 0});
  }
  const std::vector<size_t> ranked =
      planner.RankDestinations(/*src_host=*/0, reps, MiB(256), 2);
  ASSERT_EQ(ranked.size(), 4u);
  // Dep-populated host 4 first (deps outweigh the snapshot), then the
  // snapshot-restorable pair by committed (host 3 over host 2), then the
  // plain host 1 despite being the most committed overall.
  EXPECT_EQ(reps[ranked[0]].host, 4u);
  EXPECT_EQ(reps[ranked[1]].host, 3u);
  EXPECT_EQ(reps[ranked[2]].host, 2u);
  EXPECT_EQ(reps[ranked[3]].host, 1u);
}

// --- Snapshot-hit migration transfer (end to end) ---------------------------------

// The tentpole: with the cluster snapshot store on and the destination
// holding a valid recording, a drain migration ships only the delta
// beyond the recording — the recorded portion skips the wire and the
// adopted instances bulk-restore it on arrival, then serve warm.
TEST(ClusterMigrationTest, SnapshotHitMigrationShipsOnlyTheDelta) {
  auto run = [](bool snapshots, uint64_t* wire_bytes) {
    ClusterConfig cfg = cluster_churn::Config(ReclaimPolicy::kSqueezy, 42);
    cfg.shared_snapshots = snapshots;
    Cluster cluster(cfg);
    AddSkewedLoad(cluster, TinySpec("snapmig"), 42);
    const TimeNs drain_at = Minutes(3);
    const size_t victim = DrainMostCommitted(cluster, drain_at);
    uint64_t migrated = cluster.migrated_instances();
    *wire_bytes = 0;
    for (const MigrationRecord& m : cluster.migrations()) {
      *wire_bytes += m.bytes_sent;
    }
    if (snapshots) {
      const SnapshotStats& s = cluster.snapshot_store()->stats();
      // At least one transfer hit a recording: the recorded bytes skipped
      // the wire, and exactly the adopted instances restore on arrival.
      EXPECT_GT(s.migration_hits, 0u);
      EXPECT_GT(s.migration_wire_saved_bytes, 0u);
      // Every restore belongs to an adopted instance (stale-tail captures
      // fall back to full transfers, so <= rather than ==).
      EXPECT_GT(s.migration_restores, 0u);
      EXPECT_LE(s.migration_restores, migrated);
      // Adopted instances still turn warm and serve after the transfer.
      cluster.RunUntil(Minutes(8));
      EXPECT_EQ(cluster.migrations_in_flight(), 0u);
      for (const MigrationRecord& m : cluster.migrations()) {
        EXPECT_NE(m.dst_host, victim);
        EXPECT_GT(m.adopted, 0u);
      }
      EXPECT_GT(cluster.Summarize(Minutes(8)).completed_requests, 0u);
    }
    return migrated;
  };
  uint64_t wire_full = 0;
  uint64_t wire_snap = 0;
  const uint64_t migrated_full = run(false, &wire_full);
  const uint64_t migrated_snap = run(true, &wire_snap);
  ASSERT_GT(migrated_full, 0u);
  ASSERT_GT(migrated_snap, 0u);
  // The snapshot-hit run puts strictly fewer bytes on the wire per
  // migrated instance — the recorded working set travels via the store.
  EXPECT_LT(static_cast<double>(wire_snap) / static_cast<double>(migrated_snap),
            static_cast<double>(wire_full) / static_cast<double>(migrated_full));
}

// Reap-only clusters never migrate, by construction.
TEST(ClusterMigrationTest, ReapOnlyModeNeverMigrates) {
  ClusterConfig cfg = cluster_churn::Config(ReclaimPolicy::kSqueezy, 42);
  cfg.migration = MigrationMode::kReapOnDrain;
  Cluster cluster(cfg);
  AddSkewedLoad(cluster, TinySpec("reaponly"), 42);
  DrainMostCommitted(cluster, Minutes(3));
  EXPECT_EQ(cluster.MigratePressured(), 0u);
  cluster.RunUntil(Minutes(8));
  EXPECT_TRUE(cluster.migrations().empty());
  EXPECT_EQ(cluster.migrated_instances(), 0u);
}

}  // namespace
}  // namespace squeezy
