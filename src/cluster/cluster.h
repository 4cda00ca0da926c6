// Multi-host FaaS cluster (tentpole subsystem).
//
// Owns K FaasRuntime hosts driven by one fleet event kernel — a single
// shared EventQueue, or per-host shards that fire in the identical order
// (ClusterConfig::queue_impl).  One virtual clock totally orders the
// whole fleet, so cluster runs are as bit-deterministic as single-host
// ones.  A ClusterScheduler routes
// function registration (replica VM placement) and every invocation
// (picked at arrival time from the HostIndex, which every host keeps
// current through state deltas) across the hosts; see
// src/cluster/scheduler.h for the policies.
//
// Layering: sim → mm/guest/hotplug → core → host/faas(+policy) → cluster.
// The scheduler sees hosts only through the HostControl plane
// (src/faas/host_control.h); the Cluster additionally owns the concrete
// FaasRuntime objects and exposes them for metrics/tests, so every
// single-host experiment keeps working unchanged.
//
// Maintenance: DrainHost(h) flips host h into draining — the scheduler
// stops routing to its replicas, and its live replicas are either reaped
// in place (kReapOnDrain, PR 2 behavior) or live-migrated to destination
// hosts picked by the MigrationPlanner (kMigrateOnDrain): warm state is
// captured and evicted on the source (commitment returns through the
// source's reclaim driver), priced by the CostModel's pre-copy transfer
// model, and re-created warm at the destination through the normal
// CanAdmit admission sizing.  UndrainHost reverses the drain.
#ifndef SQUEEZY_CLUSTER_CLUSTER_H_
#define SQUEEZY_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/dep_cache.h"
#include "src/cluster/host_index.h"
#include "src/cluster/migration_planner.h"
#include "src/cluster/scheduler.h"
#include "src/faas/runtime.h"
#include "src/snapshot/snapshot_store.h"
#include "src/metrics/fleet.h"
#include "src/sim/event_queue.h"
#include "src/sim/sharded_event_queue.h"
#include "src/trace/trace_gen.h"

namespace squeezy {

struct ClusterConfig {
  size_t nr_hosts = 4;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  // Template for every host's runtime.  Host h runs with
  // seed = TraceStreamSeed(host.seed, h) (trace_gen.h scheme), so hosts'
  // internal randomness is decorrelated yet reproducible from one seed.
  RuntimeConfig host;
  // Replica VMs per function; 0 = one replica on every host.
  size_t replicas_per_function = 0;
  // What happens to a draining/pressured host's warm replicas.
  MigrationMode migration = MigrationMode::kReapOnDrain;
  // MigratePressured: minimum pending scale-ups before a host is treated
  // as under sustained pressure.
  size_t pressure_migrate_min_pending = 4;
  // Cluster-wide shared dependency cache (src/cluster/dep_cache.h): deps
  // regions charged once per host per image for sharing drivers, cold
  // starts fetch peer-resident images at wire speed, and migrations to a
  // populated destination skip deps_bytes on the wire.  Off by default —
  // every existing experiment is bit-identical with it off.
  bool shared_dep_cache = false;
  // Cluster-wide snapshot registry (src/snapshot/snapshot_store.h): each
  // function's first fully-warm idle records its touched-page working set;
  // later cold starts restore it as one bulk prefetch, and drivers with
  // SnapshotRestoreSupported() (Squeezy) size host commitment from the
  // restored working set instead of the full plug unit.  Off by default —
  // every existing experiment is bit-identical with it off.
  bool shared_snapshots = false;
  // Event kernel for the fleet clock.  The single queue is the
  // default.  kSharded gives every host its own queue plus a cross-shard
  // mailbox, merged in (when, seq) order (src/sim/sharded_event_queue.h)
  // — but only for registry-free fleets: with shared_dep_cache or
  // shared_snapshots set, the Cluster builds the single queue instead and
  // sharded() stays null.  Both kernels fire events in identical order
  // (locked by tests and the property fuzz), so this knob never changes
  // results — only wall-clock speed.
  EventQueue::Impl queue_impl = EventQueue::Impl::kTimerWheel;
  // Ignored: every kernel runs on the calling thread.  The field stays
  // only because the benchmark driver (perfbench/squeezy_perfbench.cc)
  // still assigns it; it goes when that driver stops doing so.
  size_t sim_threads = 0;
  // Ignored: the HostIndex is the only placement path.  The field stays
  // only because the benchmark driver (perfbench/squeezy_perfbench.cc)
  // still assigns it; it goes when that driver stops doing so.
  PlacementImpl placement_impl = PlacementImpl::kIndexed;
};

class Cluster : private HostStateListener {
 public:
  // The placement and migration deciders over the fleet's hosts and
  // candidate index.
  struct Deciders {
    std::unique_ptr<ClusterScheduler> scheduler;
    std::unique_ptr<MigrationPlanner> planner;
  };
  using MakeDeciders = Deciders (*)(const ClusterConfig& config,
                                    const std::vector<HostControl*>& hosts,
                                    HostIndex& index);
  // The production ClusterScheduler and MigrationPlanner.
  static Deciders IndexedDeciders(const ClusterConfig& config,
                                  const std::vector<HostControl*>& hosts, HostIndex& index);

  // `make_deciders` is a test seam: the placement fuzz and the fig12
  // regression test pass the full-scan oracle
  // (tests/oracles/scan_placement.h) to replay production against it.
  explicit Cluster(const ClusterConfig& config,
                   MakeDeciders make_deciders = &IndexedDeciders);
  ~Cluster();

  // Registers `spec` on scheduler-chosen hosts; returns the cluster-level
  // function index used by SubmitTrace traces.  Under constrained memory
  // the function may get fewer replicas than configured — or none at all
  // (replicas(fn).empty()), in which case its invocations are rejected and
  // counted as unplaced.  That is the fleet-capacity lever: a reclaim
  // policy that hoards commitment (kStatic) loses registrable functions.
  int AddFunction(const FunctionSpec& spec, uint32_t max_concurrency);

  // Submits the merged fleet trace (Invocation::function is a cluster
  // function index) as one EventQueue::ScheduleEach series on the
  // fleet-level queue: one live event at a time, the next arrival.
  // Routing happens per invocation at its arrival time.
  void SubmitTrace(const std::vector<Invocation>& trace);

  // Under kSharded these merge the shards and the mailbox in (when, seq)
  // order.  The single queue just runs.
  void RunUntil(TimeNs t) {
    if (sharded_ != nullptr) {
      sharded_->RunUntil(t);
    } else {
      events_->RunUntil(t);
    }
  }
  void RunAll() {
    if (sharded_ != nullptr) {
      sharded_->RunAll();
    } else {
      events_->RunAll();
    }
  }

  // --- Accessors -----------------------------------------------------------------
  // The fleet-level queue: the single global queue, or — under kSharded —
  // the cross-shard mailbox (dispatch, churn, migration completions).
  // Fleet-sequential contexts (tests, benches, Cluster handlers) schedule
  // here; per-host machinery runs on host_queue(h).
  EventQueue& events() { return *events_; }
  // The queue host h's runtime and agents fire on: its shard under
  // kSharded, the global queue otherwise.
  EventQueue& host_queue(size_t h) {
    return sharded_ != nullptr ? sharded_->shard(h) : *events_;
  }
  // Null unless queue_impl == kSharded and no registry is attached.
  const ShardedEventQueue* sharded() const { return sharded_.get(); }
  // Events executed across the whole kernel (all shards + mailbox under
  // kSharded) — the bench throughput numerator.
  uint64_t processed_events() const {
    return sharded_ != nullptr ? sharded_->processed_events()
                               : events_->processed_events();
  }
  // Events stored and the peak live set, summed over the same queues
  // (EventQueue::scheduled_events() / peak_pending()).
  uint64_t scheduled_events() const {
    return sharded_ != nullptr ? sharded_->scheduled_events()
                               : events_->scheduled_events();
  }
  size_t peak_pending_events() const {
    return sharded_ != nullptr ? sharded_->peak_pending() : events_->peak_pending();
  }
  size_t host_count() const { return hosts_.size(); }
  FaasRuntime& host(size_t h) { return *hosts_[h]; }
  const FaasRuntime& host(size_t h) const { return *hosts_[h]; }
  ClusterScheduler& scheduler() { return *scheduler_; }
  // The placement candidate indexes the deciders read.
  const HostIndex& host_index() const { return *host_index_; }
  size_t function_count() const { return functions_.size(); }
  // Returns a reference into the function table; callers run at
  // quiescence (tests/benches between Run* calls).
  const std::vector<Replica>& replicas(int cluster_fn) const {
    return functions_[static_cast<size_t>(cluster_fn)];
  }

  // --- Maintenance (the HostControl plane, fleet-side) -----------------------------
  // Under kMigrateOnDrain, live-migrates the host's warm replicas to
  // planner-chosen destinations before flipping it into draining.
  void DrainHost(size_t h);
  void UndrainHost(size_t h) { hosts_[h]->Undrain(); }
  // One pressure-relief pass (kMigrateOnDrain only): if some host is
  // starving scale-ups (>= config.pressure_migrate_min_pending pending),
  // migrate its warm-but-idle replicas to hosts with headroom, freeing the
  // donor's commitment for the work it is actually serving.  Returns the
  // migrations started.
  size_t MigratePressured();

  // --- Shared dependency cache ------------------------------------------------------
  // Null unless ClusterConfig::shared_dep_cache.
  const DepCache* dep_cache() const { return dep_cache_.get(); }

  // --- Shared snapshot registry -----------------------------------------------------
  // Null unless ClusterConfig::shared_snapshots.  Recordings live in
  // content-addressed shared storage, so one slot serves every host.
  const SnapshotStore* snapshot_store() const { return snapshot_store_.get(); }
  // Aggregated deps-file read accounting across every replica VM: how the
  // fleet's dependency bytes were actually served.
  struct DepIoTotals {
    uint64_t disk_read_bytes = 0;    // Cold backing-store IO paid.
    uint64_t remote_read_bytes = 0;  // Fetched from a peer host's image.
    uint64_t adopted_bytes = 0;      // Mapped from a host-resident image.
    // Bytes that would have been cold IO without the cache.
    uint64_t cold_io_avoided() const { return remote_read_bytes + adopted_bytes; }
  };
  DepIoTotals DepIo() const;

  // --- Migration introspection ------------------------------------------------------
  MigrationPlanner& planner() { return *planner_; }
  // Reference into the migration log — same quiescence contract as
  // replicas().
  const std::vector<MigrationRecord>& migrations() const { return migrations_; }
  // Transfers started whose completion instant has not passed yet.
  uint64_t migrations_in_flight() const { return in_flight_migrations_; }
  // Warm instances that landed on (were admitted by) destination hosts.
  uint64_t migrated_instances() const { return migrated_instances_; }
  // Warm instances captured off donors but dropped (no destination fit or
  // the destination's admission ran out) — these cost future cold starts.
  uint64_t migration_reaped_instances() const { return migration_reaped_instances_; }

  // Invocations routed to host h so far.
  uint64_t routed_to(size_t h) const { return routed_[h]; }
  // Invocations rejected because their function has no replica anywhere.
  uint64_t unplaced_invocations() const { return unplaced_; }
  // Order-sensitive FNV-1a digest of every routing decision; equal hashes
  // across runs mean identical placement streams (determinism tests).
  uint64_t routing_hash() const { return routing_hash_; }

  // --- Fleet metrics ---------------------------------------------------------------
  // Pointwise sum of per-host committed-memory series.
  StepSeries FleetCommittedSeries() const;
  // Fleet rollup over [0, horizon] (latency percentiles merge every
  // replica's recorder; totals sum across hosts).
  FleetSummary Summarize(TimeNs horizon) const;

 private:
  // Event-handler entry point: routes one arrival of `cluster_fn`.
  void Dispatch(int cluster_fn);
  // Migrates every warm replica off host `src`; returns transfers started.
  size_t MigrateOff(size_t src);
  // HostStateListener: hosts push (committed, pending, draining) deltas
  // here at their mutation choke points; forwarded straight into the
  // HostIndex.
  void OnHostState(size_t host, uint64_t committed, size_t pending_scaleups,
                   bool draining) override {
    host_index_->Update(host, committed, pending_scaleups, draining);
  }
  void OnAdmitInputs(size_t host, int local_fn) override {
    host_index_->MarkAdmitDirty(host, local_fn);
  }

  const ClusterConfig config_;  // Immutable after construction.
  // Exactly one of the two kernels below is live: the per-host shard
  // array + mailbox (kSharded, no registries), or one global queue.
  // `events_` always points at the fleet-level queue (the mailbox when
  // sharded) so the scheduling sites read uniformly.
  std::unique_ptr<ShardedEventQueue> sharded_;
  std::unique_ptr<EventQueue> single_;
  EventQueue* events_;  // Never null; &sharded_->global() or single_.get().
  // The unique_ptr targets below are installed once in the constructor
  // and never reseated.
  std::unique_ptr<DepCache> dep_cache_;  // Null unless shared_dep_cache.
  std::unique_ptr<SnapshotStore> snapshot_store_;  // Null unless shared_snapshots.
  // Declared BEFORE hosts_: hosts notify the index through the listener,
  // so it must outlive them (members destroy in reverse order).
  std::unique_ptr<HostIndex> host_index_;
  std::vector<std::unique_ptr<FaasRuntime>> hosts_;
  std::unique_ptr<ClusterScheduler> scheduler_;
  std::unique_ptr<MigrationPlanner> planner_;

  // The routing/migration book.
  std::vector<std::vector<Replica>> functions_;
  // Destination sizing per function.
  std::vector<uint64_t> fn_plug_unit_;
  // Registry image per function.
  std::vector<DepImageId> fn_dep_image_;
  // Snapshot slot per function (kNoSnapshot without a registry).
  std::vector<SnapshotId> fn_snapshot_;
  std::vector<uint64_t> routed_;
  std::vector<MigrationRecord> migrations_;
  uint64_t in_flight_migrations_ = 0;
  uint64_t migrated_instances_ = 0;
  uint64_t migration_reaped_instances_ = 0;
  uint64_t unplaced_ = 0;
  // FNV-1a offset basis.
  uint64_t routing_hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace squeezy

#endif  // SQUEEZY_CLUSTER_CLUSTER_H_
