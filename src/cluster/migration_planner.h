// Live replica migration planning (the fleet's maintenance decision plane).
//
// When a host drains — or sits under sustained memory pressure — its warm
// replicas hold exactly the state the paper works to keep cheap: faulted
// working sets and hot dependency caches.  PR 2's drain path reaped them
// and paid cold starts elsewhere.  The MigrationPlanner instead selects
// victim replicas and destination hosts, judging every candidate from the
// HostIndex row plus the narrow residency reads HostControl offers, with
// the same bin-pack scoring the scheduler uses for placement (most committed host that still fits, ties
// to the lowest index), and prices the move with the CostModel's pre-copy
// state-transfer model: cost scales with the replica's touched footprint
// and its dirty rate (busy fraction at capture), not a flat constant.
//
// The planner only decides; the Cluster executes — EvictReplica on the
// source (commitment returns through the source's reclaim driver, so a
// Squeezy donor frees memory at Squeezy speed) and AdoptReplica on the
// destination (admission through the normal CanAdmit sizing).
#ifndef SQUEEZY_CLUSTER_MIGRATION_PLANNER_H_
#define SQUEEZY_CLUSTER_MIGRATION_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cluster/scheduler.h"
#include "src/faas/host_control.h"
#include "src/sim/cost_model.h"

namespace squeezy {

// One executed replica move, recorded by the Cluster for metrics/tests.
struct MigrationRecord {
  int cluster_fn = -1;
  size_t src_host = 0;
  size_t dst_host = 0;
  size_t captured = 0;        // Warm instances captured at the source.
  size_t adopted = 0;         // Instances the destination admitted.
  uint64_t bytes_sent = 0;    // Wire bytes incl. resent dirty state.
  DurationNs downtime = 0;    // Stop-and-copy pause.
  TimeNs started_at = 0;
  TimeNs done_at = 0;         // Instant the adopted instances turn warm.
};

class MigrationPlanner {
 public:
  // `hosts` and `index` must outlive the planner, and `index` must mirror
  // these hosts (same contract as ClusterScheduler).
  MigrationPlanner(std::vector<HostControl*> hosts, const CostModel& cost,
                   const HostIndex& index);
  virtual ~MigrationPlanner() = default;

  // Destination candidates for migrating `wanted` warm instances (of
  // `unit_bytes` each) off `src_host`: indices into `replicas` (the
  // function's replica set), best first.  Reuses the bin-pack scoring
  // over each candidate's Destination() view — non-draining hosts other
  // than the source with headroom for at least one unit; hosts that fit the
  // whole move before partial fits, then hosts holding the function's
  // dependency image warm (HostSnapshot::dep_image_populated — the move
  // skips deps_bytes on the wire there), then hosts able to restore the
  // function's snapshot recording (HostSnapshot::snapshot_restorable —
  // only the delta beyond the recording crosses the wire), most
  // committed first within each class, ties to the lowest host index.
  // The caller walks the
  // ranking and settles on the first host that actually adopts (a
  // well-placed candidate can still be concurrency-saturated —
  // AdoptableReplicas decides, not the snapshot).  With a snapshot
  // registry attached, AdoptableReplicas sizes each adopted unit from the
  // driver's RestoredCommitment, so a working-set-sized destination
  // admits more warm replicas than its raw plug-unit headroom suggests.
  std::vector<size_t> RankDestinations(size_t src_host,
                                       const std::vector<Replica>& replicas,
                                       uint64_t unit_bytes, size_t wanted) const;

  // The non-draining host with the most memory-starved scale-ups right
  // now (at least `min_pending` of them; min_pending == 0 admits any
  // non-draining host, most pending first); -1 when no host qualifies.
  // Ties go to the lowest host index.  The victim of pressure-triggered
  // migration: moving its warm-but-idle replicas elsewhere frees
  // commitment for the scale-ups it is starving on, without throwing the
  // warm state away.  Virtual only for the full-scan test oracle
  // (tests/oracles/scan_placement.h).
  virtual int MostPressuredHost(size_t min_pending) const;

  // Prices one state transfer: pre-copy + stop-and-copy over the touched
  // footprint, the per-round redirty fraction scaled by the replica's
  // busy fraction at capture.  On a dep-cache hit the caller has already
  // zeroed state.deps_bytes; the transfer additionally pays the fixed
  // image-attach cost (CostModel::dep_cache_hit_fixed) — strictly
  // cheaper than shipping the image whenever deps_bytes outweighs it.
  // On a snapshot hit the caller has already moved the recorded portion
  // out of state.state_bytes (only the delta pre-copies); the transfer
  // additionally pays CostModel::SnapshotAttach(state.recorded_bytes) —
  // the destination re-creating those bytes from the cluster store at
  // snapshot-prefetch speed, strictly cheaper than the wire whenever the
  // recording outweighs the fixed restore setup.
  StateTransferCost TransferCost(const ReplicaMigrationState& state,
                                 bool dep_cache_hit = false,
                                 bool snapshot_hit = false) const;

  uint64_t plans_considered() const { return plans_considered_; }

 protected:
  // The fields RankDestinations reads of replica `r`'s host: draining,
  // available and committed from the HostIndex row, the residency and
  // restore-channel fields live from the host.  Overridden only by the
  // full-scan test oracle, which reads one HostSnapshot instead.
  virtual HostSnapshot Destination(const Replica& r) const;

  const std::vector<HostControl*> hosts_;  // Pointer set fixed at construction.

 private:
  const CostModel cost_;                   // Immutable after construction.
  const HostIndex& index_;
  // The planner's only mutable state; the ranking itself is a pure
  // function of the snapshots it takes.
  mutable uint64_t plans_considered_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_CLUSTER_MIGRATION_PLANNER_H_
