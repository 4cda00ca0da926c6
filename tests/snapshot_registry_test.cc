// Per-function snapshot registry (src/snapshot/snapshot_store.*, REAP-style
// record/restore through src/faas/runtime.cc).
//
// Locked behaviors:
//   * store bookkeeping — intern dedup, record-once, invalidate/re-record
//     and the stale-tail threshold;
//   * restore-after-evict — a recorded function's next cold start skips
//     the serial container/function-init phases (container_init == 0) and
//     lands strictly faster than its first cold start;
//   * working-set-vs-full commitment per driver — only Squeezy reports
//     SnapshotRestoreSupported() and a RestoredCommitment below the plug
//     unit; Static/VirtioMem/Harvest keep full-unit commitment AND stay
//     bit-identical under the dep-cache-style parity churn with the
//     registry attached;
//   * book conservation — the commitment discount taken at restore time
//     unwinds exactly at unplug completion, with the DepCache attached;
//   * the fig11 regression lock — Snapshot+DepC first-start speedup
//     strictly beats the PR 4 N:1+DepC row (~1.16x).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/dep_cache.h"
#include "src/cluster/migration_planner.h"
#include "src/faas/function.h"
#include "src/faas/runtime.h"
#include "src/metrics/latency_recorder.h"
#include "src/policy/driver_factory.h"
#include "src/snapshot/snapshot_store.h"
#include "src/trace/cluster_trace.h"
#include "tests/support/cluster_churn.h"
#include "tests/support/mirrored_host_index.h"

namespace squeezy {
namespace {

uint64_t DepsRegion(const FunctionSpec& s) {
  return BytesToBlocks(s.file_deps_bytes) * kMemoryBlockBytes;
}

// --- Store bookkeeping ---------------------------------------------------------------

TEST(SnapshotStoreTest, InternDedupsAndRecordsOnce) {
  SnapshotStore store;
  const SnapshotId a = store.Intern("fn-a/64/96");
  const SnapshotId b = store.Intern("fn-b/64/96");
  EXPECT_NE(a, b);
  EXPECT_EQ(store.Intern("fn-a/64/96"), a);
  EXPECT_EQ(store.stats().functions, 2u);
  EXPECT_FALSE(store.Recorded(a));

  SnapshotImage img;
  img.heap_bytes = MiB(96);
  img.deps_pages = 64;
  img.working_set_pages = 64 + BytesToPages(MiB(96));
  EXPECT_TRUE(store.Record(a, img));
  EXPECT_TRUE(store.Recorded(a));
  EXPECT_EQ(store.Image(a).heap_bytes, MiB(96));
  // Record-once: a second recording is a no-op while the first is valid.
  SnapshotImage bigger = img;
  bigger.heap_bytes = MiB(200);
  EXPECT_FALSE(store.Record(a, bigger));
  EXPECT_EQ(store.Image(a).heap_bytes, MiB(96));
  EXPECT_EQ(store.stats().recordings, 1u);
  EXPECT_EQ(store.stats().re_recordings, 0u);

  // Invalidate reopens the slot; the next recording counts as a re-record.
  store.Invalidate(a);
  EXPECT_FALSE(store.Recorded(a));
  EXPECT_TRUE(store.Record(a, bigger));
  EXPECT_EQ(store.Image(a).heap_bytes, MiB(200));
  EXPECT_EQ(store.stats().invalidations, 1u);
  EXPECT_EQ(store.stats().re_recordings, 1u);
}

TEST(SnapshotStoreTest, TailAboveThresholdFractionInvalidates) {
  SnapshotStore store(SnapshotStoreConfig{/*stale_tail_fraction=*/0.25});
  const SnapshotId s = store.Intern("fn/64/96");
  SnapshotImage img;
  img.heap_bytes = MiB(100);
  EXPECT_TRUE(store.Record(s, img));
  // At the threshold exactly: still fresh (strict comparison).
  EXPECT_FALSE(store.NoteTail(s, MiB(25)));
  EXPECT_TRUE(store.Recorded(s));
  // Above it: stale, recording dropped.
  EXPECT_TRUE(store.NoteTail(s, MiB(25) + 1));
  EXPECT_FALSE(store.Recorded(s));
  EXPECT_EQ(store.stats().invalidations, 1u);
  EXPECT_EQ(store.stats().tail_bytes, MiB(50) + 1);
}

TEST(SnapshotStoreTest, RecordedHeapBytesSafeOnAnySlotState) {
  SnapshotStore store;
  const SnapshotId s = store.Intern("fn/64/96");
  // Unrecorded: 0, no assert (unlike Image(), which requires a recording).
  EXPECT_EQ(store.RecordedHeapBytes(s), 0u);
  SnapshotImage img;
  img.heap_bytes = MiB(96);
  ASSERT_TRUE(store.Record(s, img));
  EXPECT_EQ(store.RecordedHeapBytes(s), MiB(96));
  store.Invalidate(s);
  EXPECT_EQ(store.RecordedHeapBytes(s), 0u);
}

TEST(SnapshotStoreTest, RecordMigrationHitAccumulatesStats) {
  SnapshotStore store;
  store.RecordMigrationHit(MiB(192), 2);
  store.RecordMigrationHit(MiB(96), 1);
  EXPECT_EQ(store.stats().migration_hits, 2u);
  EXPECT_EQ(store.stats().migration_restores, 3u);
  EXPECT_EQ(store.stats().migration_wire_saved_bytes, MiB(288));
}

// --- Migration transfer pricing ------------------------------------------------------

// The planner only reads hosts through Snapshot(); TransferCost never
// touches them, so an inert stub satisfies the constructor.
class InertHost : public HostControl {
 public:
  HostSnapshot Snapshot(int) const override { return HostSnapshot{}; }
  uint64_t ProactiveReclaim(uint64_t) override { return 0; }
  void Drain() override {}
  void Undrain() override {}
  ReplicaMigrationState EvictReplica(int) override { return {}; }
  size_t AdoptableReplicas(int, size_t) const override { return 0; }
  size_t AdoptReplica(int, const ReplicaMigrationState&, TimeNs) override { return 0; }
};

// Locks the price ladder across the three transfer generations: the PR 3
// full transfer > the PR 4 dep-cache hit > this PR's snapshot + dep hit —
// on total time AND on wire bytes.  The snapshot hit prefetches the
// recorded portion at 0.85 ns/B in one pass instead of wiring it at
// ~1.04 ns/B per pre-copy round, so it wins whenever the recording
// outweighs the fixed restore setup.
TEST(SnapshotMigrationCostTest, SnapshotHitPricesBelowDepHitBelowFull) {
  InertHost host;
  const std::vector<HostControl*> hosts = {&host};
  MirroredHostIndex mirror(hosts);
  const MigrationPlanner planner(hosts, CostModel::Default(), mirror.index());

  ReplicaMigrationState full;
  full.warm_instances = 4;
  full.state_bytes = MiB(384);
  full.deps_bytes = MiB(64);
  full.busy_fraction = 0.25;
  const StateTransferCost full_cost = planner.TransferCost(full);

  // Dep-cache hit (PR 4 shape): the caller zeroes deps_bytes.
  ReplicaMigrationState dep = full;
  dep.deps_bytes = 0;
  const StateTransferCost dep_cost = planner.TransferCost(dep, /*dep_cache_hit=*/true);

  // Snapshot + dep hit (this PR's shape): the caller additionally moves
  // the recorded portion out of state_bytes — only the delta ships.
  ReplicaMigrationState snap = dep;
  snap.recorded_bytes = MiB(288);  // 3 of the 4 instances fully recorded.
  snap.state_bytes -= snap.recorded_bytes;
  const StateTransferCost snap_cost =
      planner.TransferCost(snap, /*dep_cache_hit=*/true, /*snapshot_hit=*/true);

  EXPECT_LT(dep_cost.total(), full_cost.total());
  EXPECT_LT(snap_cost.total(), dep_cost.total());
  EXPECT_LT(dep_cost.bytes_sent, full_cost.bytes_sent);
  EXPECT_LT(snap_cost.bytes_sent, dep_cost.bytes_sent);
  // The discounts are attach terms, not freebies: both hit prices carry
  // their fixed costs on top of the delta's wire time.
  const CostModel cost = CostModel::Default();
  const StateTransferCost delta_only = planner.TransferCost(snap);
  EXPECT_EQ(snap_cost.total(), delta_only.total() + cost.dep_cache_hit_fixed +
                                   cost.SnapshotAttach(snap.recorded_bytes));
  EXPECT_EQ(snap_cost.bytes_sent, delta_only.bytes_sent);
}

// --- Restore after evict -------------------------------------------------------------

TEST(SnapshotRestoreTest, RecordedFunctionRestoresAfterEvict) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.host_capacity = GiB(8);
  cfg.vm_base_memory = MiB(128);
  cfg.keep_alive = Sec(30);
  SnapshotStore store;
  FaasRuntime rt(cfg);
  rt.AttachSnapshotRegistry(&store);
  const FunctionSpec spec = TinySpec("restore", MiB(512));
  const int fn = rt.AddFunction(spec, 4);
  ASSERT_NE(rt.snapshot_id(fn), kNoSnapshot);

  // Cold start 1 records at first fully-warm idle; keep-alive evicts the
  // instance; cold start 2 (well past the eviction) restores.
  rt.events().ScheduleAt(Sec(1), [&rt, fn] { rt.agent(fn).Submit(); });
  rt.events().ScheduleAt(Minutes(2), [&rt, fn] { rt.agent(fn).Submit(); });
  rt.RunUntil(Minutes(4));

  EXPECT_EQ(store.stats().recordings, 1u);
  EXPECT_EQ(store.stats().restores, 1u);
  EXPECT_EQ(store.Image(rt.snapshot_id(fn)).heap_bytes, spec.anon_working_set);

  const std::vector<ColdStartBreakdown>& colds = rt.agent(fn).cold_starts();
  ASSERT_EQ(colds.size(), 2u);
  // The restore replaces the serial container/function-init phases with
  // one bulk prefetch (billed as function_init).
  EXPECT_GT(colds[0].container_init, 0);
  EXPECT_EQ(colds[1].container_init, 0);
  EXPECT_GT(colds[1].function_init, 0);
  EXPECT_LT(colds[1].total(), colds[0].total());
  // The restored pages were prefetched, not demand-faulted: the first
  // exec finds the whole working set warm, so no tail was reported.
  EXPECT_EQ(store.stats().tail_bytes, 0u);
  EXPECT_TRUE(store.Recorded(rt.snapshot_id(fn)));
}

// --- Working-set vs full commitment per driver (locked table) ------------------------

TEST(SnapshotCommitmentTest, OnlySqueezyExploitsWorkingSetSizedCommitment) {
  DriverSizing sizing;
  sizing.plug_unit = GiB(1);
  sizing.deps_region = MiB(256);
  sizing.max_concurrency = 8;
  const uint64_t working_set = MiB(300);

  for (const ReclaimPolicy rp : {ReclaimPolicy::kStatic, ReclaimPolicy::kVirtioMem,
                                 ReclaimPolicy::kHarvestOpts}) {
    RuntimeConfig cfg;
    cfg.policy = rp;
    const std::unique_ptr<ReclaimDriver> driver = MakeReclaimDriver(cfg);
    EXPECT_FALSE(driver->SnapshotRestoreSupported()) << ReclaimPolicyName(rp);
    EXPECT_EQ(driver->RestoredCommitment(sizing, working_set), sizing.plug_unit)
        << ReclaimPolicyName(rp);
  }

  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  const std::unique_ptr<ReclaimDriver> squeezy = MakeReclaimDriver(cfg);
  EXPECT_TRUE(squeezy->SnapshotRestoreSupported());
  // 300 MiB block-rounds to 3 x 128 MiB: well under the 1 GiB unit.
  EXPECT_EQ(squeezy->RestoredCommitment(sizing, working_set), MiB(384));
  // Never above the unit, never below one block.
  EXPECT_EQ(squeezy->RestoredCommitment(sizing, GiB(2)), sizing.plug_unit);
  EXPECT_EQ(squeezy->RestoredCommitment(sizing, 1), kMemoryBlockBytes);
}

TEST(SnapshotCommitmentTest, SqueezyReservesRestoredCommitmentAndUnwinds) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.host_capacity = GiB(8);
  cfg.vm_base_memory = MiB(128);
  cfg.keep_alive = Sec(30);
  SnapshotStore store;
  FaasRuntime rt(cfg);
  rt.AttachSnapshotRegistry(&store);
  const FunctionSpec spec = TinySpec("commit", MiB(512));
  const int fn = rt.AddFunction(spec, 4);
  const uint64_t boot = cfg.vm_base_memory + DepsRegion(spec);
  const uint64_t plug_unit = BytesToBlocks(spec.memory_limit) * kMemoryBlockBytes;
  EXPECT_EQ(rt.committed(), boot);

  // First (recording) cold start commits the FULL plug unit: no recording
  // existed when its memory was acquired.
  uint64_t committed_first = 0;
  rt.events().ScheduleAt(Sec(1), [&rt, fn] { rt.agent(fn).Submit(); });
  rt.events().ScheduleAt(Sec(10), [&] { committed_first = rt.committed(); });
  // Second (restored) cold start commits only the block-rounded working
  // set — MiB(96) rounds to one 128 MiB block.
  uint64_t committed_restored = 0;
  rt.events().ScheduleAt(Minutes(2), [&rt, fn] { rt.agent(fn).Submit(); });
  rt.events().ScheduleAt(Minutes(2) + Sec(10), [&] { committed_restored = rt.committed(); });
  rt.RunUntil(Minutes(5));

  EXPECT_EQ(committed_first, boot + plug_unit);
  EXPECT_EQ(committed_restored, boot + kMemoryBlockBytes);
  EXPECT_LT(committed_restored, committed_first);
  // Both evictions fully unwound — including the un-reserved shortfall of
  // the discounted plug — so the book is back at exactly boot.
  EXPECT_EQ(rt.agent(fn).live_instances(), 0u);
  EXPECT_EQ(rt.committed(), boot);
}

// --- Parity: non-supporting drivers bit-identical with the registry attached ---------

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

ChurnSummary RunChurn(ReclaimPolicy policy, SnapshotRegistry* registry,
                      DepImageRegistry* deps = nullptr) {
  RuntimeConfig cfg;
  cfg.host_capacity = policy == ReclaimPolicy::kStatic ? GiB(6) : MiB(1536);
  cfg.policy = policy;
  cfg.keep_alive = Sec(30);
  cfg.seed = 42;
  cfg.vm_base_memory = MiB(128);
  cfg.unplug_timeout = Msec(100);
  cfg.pressure_check_period = Msec(500);
  FaasRuntime rt(cfg);
  if (deps != nullptr) {
    rt.AttachDepRegistry(deps, 0);
  }
  if (registry != nullptr) {
    rt.AttachSnapshotRegistry(registry);
  }
  const int kFunctions = 3;
  const FunctionSpec spec = TinySpec("parity");
  for (int f = 0; f < kFunctions; ++f) {
    rt.AddFunction(spec, 6);
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

TEST(SnapshotParityTest, NonSupportingDriversBitIdenticalWithRegistryAttached) {
  // Drivers without SnapshotRestoreSupported() never intern a slot, so
  // attaching the registry must not perturb a single number of the run.
  for (const ReclaimPolicy policy :
       {ReclaimPolicy::kStatic, ReclaimPolicy::kVirtioMem, ReclaimPolicy::kHarvestOpts}) {
    SnapshotStore store;
    const ChurnSummary with = RunChurn(policy, &store);
    const ChurnSummary without = RunChurn(policy, nullptr);
    EXPECT_TRUE(with == without) << ReclaimPolicyName(policy);
    EXPECT_EQ(store.stats().functions, 0u) << ReclaimPolicyName(policy);
    EXPECT_EQ(store.stats().recordings, 0u) << ReclaimPolicyName(policy);
  }
}

TEST(SnapshotParityTest, SqueezyRestoresAndConservesBooksWithDepCache) {
  // Both registries attached: the three same-spec VMs share one dep image
  // AND one snapshot slot; restores fire across the churn, and at
  // quiescence the book is exactly bases + the dep cache's charge — every
  // restore-time commitment discount unwound at its unplug.
  SnapshotStore store;
  DepCache cache(1);
  const ChurnSummary with = RunChurn(ReclaimPolicy::kSqueezy, &store, &cache);
  EXPECT_EQ(store.stats().functions, 1u);  // Same spec: one shared slot.
  EXPECT_GE(store.stats().recordings, 1u);
  EXPECT_GT(store.stats().restores, 0u);
  EXPECT_GT(store.stats().prefetch_bytes, 0u);
  EXPECT_EQ(with.committed_final, 3 * MiB(128) + cache.charged_bytes(0));
  // Restored cold starts only speed the run up: the discounted book can
  // never lose completed work against the snapshot-less baseline.
  const ChurnSummary without = RunChurn(ReclaimPolicy::kSqueezy, nullptr, nullptr);
  EXPECT_GE(with.completed, without.completed);
}

// --- Stale recording: post-restore tail forces a re-record ---------------------------

TEST(SnapshotStaleTest, OversizedTailInvalidatesAndReRecords) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.host_capacity = GiB(8);
  cfg.vm_base_memory = MiB(128);
  cfg.keep_alive = Sec(30);
  SnapshotStore store;
  FaasRuntime rt(cfg);
  rt.AttachSnapshotRegistry(&store);
  const FunctionSpec spec = TinySpec("stale", MiB(512));
  const int fn = rt.AddFunction(spec, 4);
  const SnapshotId snap = rt.snapshot_id(fn);
  ASSERT_NE(snap, kNoSnapshot);

  // A stale recording: the function's resident set grew well past what
  // was recorded (8 MiB recorded vs a 96 MiB working set — the restored
  // start demand-faults an 88 MiB tail, >> 25% of the recording).
  SnapshotImage stale;
  stale.heap_bytes = MiB(8);
  stale.working_set_pages = BytesToPages(MiB(8));
  ASSERT_TRUE(store.Record(snap, stale));

  rt.events().ScheduleAt(Sec(1), [&rt, fn] { rt.agent(fn).Submit(); });
  rt.RunUntil(Minutes(1));

  // The restore happened, the tail blew the threshold, the recording was
  // invalidated, and the instance's fully-warm idle re-recorded the true
  // working set — so the next restore prefetches all of it.
  EXPECT_EQ(store.stats().restores, 1u);
  EXPECT_GE(store.stats().tail_bytes, MiB(88));
  EXPECT_EQ(store.stats().invalidations, 1u);
  EXPECT_EQ(store.stats().re_recordings, 1u);
  EXPECT_TRUE(store.Recorded(snap));
  EXPECT_EQ(store.Image(snap).heap_bytes, spec.anon_working_set);
}

// --- fig11 regression lock: Snapshot+DepC beats the PR 4 N:1+DepC row ----------------

// First cold start of a fresh Squeezy host, optionally with a peer-warm
// dependency cache and/or a pre-recorded snapshot (mirrors fig11's RunN1).
DurationNs FirstStart(const FunctionSpec& spec, bool dep, bool snap) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.host_capacity = GiB(128);
  cfg.keep_alive = Sec(30);
  SnapshotStore store;
  if (snap) {
    FaasRuntime recorder(cfg);
    recorder.AttachSnapshotRegistry(&store);
    const int rfn = recorder.AddFunction(spec, 4);
    recorder.events().ScheduleAt(Sec(1), [&recorder, rfn] { recorder.agent(rfn).Submit(); });
    recorder.RunUntil(Minutes(1));
  }
  DepCache cache(2);
  FaasRuntime rt(cfg);
  if (dep) {
    rt.AttachDepRegistry(&cache, 1);
  }
  if (snap) {
    rt.AttachSnapshotRegistry(&store);
  }
  const int fn = rt.AddFunction(spec, 4);
  if (dep) {
    cache.PinImage(0, rt.dep_image(fn));
    cache.MarkPopulated(0, rt.dep_image(fn));
  }
  rt.events().ScheduleAt(Sec(5), [&rt, fn] { rt.agent(fn).Submit(); });
  rt.RunUntil(Minutes(1));
  const std::vector<ColdStartBreakdown>& colds = rt.agent(fn).cold_starts();
  EXPECT_EQ(colds.size(), 1u);
  return colds.front().total();
}

TEST(SnapshotSpeedupLockTest, SnapshotPlusDepCacheBeatsDepCacheAlone) {
  std::vector<double> dep_speedups;
  std::vector<double> snap_dep_speedups;
  for (const FunctionSpec& spec : PaperFunctions()) {
    const double base = static_cast<double>(FirstStart(spec, false, false));
    dep_speedups.push_back(base / static_cast<double>(FirstStart(spec, true, false)));
    snap_dep_speedups.push_back(base /
                                static_cast<double>(FirstStart(spec, true, true)));
  }
  const double dep_geomean = Geomean(dep_speedups);
  const double snap_dep_geomean = Geomean(snap_dep_speedups);
  // The PR 4 dep-cache row landed ~1.16x; the snapshot row must strictly
  // beat it (bulk prefetch replaces the serial phases the dep cache can
  // only shave IO from).
  EXPECT_GT(dep_geomean, 1.0);
  EXPECT_GT(snap_dep_geomean, dep_geomean);
  EXPECT_GT(snap_dep_geomean, 1.16);
}

}  // namespace
}  // namespace squeezy
