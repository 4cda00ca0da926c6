// Cluster-level placement policies (the fleet's decision plane).
//
// Two decisions are routed through the scheduler:
//   * registration placement — which hosts get a replica VM when a
//     function is registered (Cluster::AddFunction);
//   * invocation routing — which replica serves an arriving request,
//     decided at arrival time against live host state.
//
// The scheduler sees hosts ONLY through HostControl (src/faas/
// host_control.h) and the HostIndex those hosts keep current
// (src/cluster/host_index.h): committed, draining and the per-function
// admission sets come from the index, the only live reads are CanAdmitNow
// probes of replicas marked since the function's last decision, and the
// co-design policies drive reclamation through HostControl.  The
// full-scan reference that judged every candidate from one HostSnapshot
// is a test oracle (tests/oracles/scan_placement.h).
//
// Policies:
//   kRoundRobin        — classic load spreading, memory-blind.
//   kLeastCommitted    — route to the replica whose host has the least
//                        committed memory (balances the admission book).
//   kMemoryAwareBinPack— first-fit-decreasing flavor: among replicas that
//                        can admit one more instance *right now* (warm
//                        instance, reusable plugged memory, or free
//                        commitment headroom), pick the MOST committed
//                        host.  Packing onto busy-but-admitting hosts
//                        keeps the tail of the fleet unloaded for spikes.
//                        The policy leans directly on reclamation speed:
//                        the faster unplug returns committed memory
//                        (Squeezy vs vanilla virtio-mem), the fresher the
//                        packing signal and the higher the achievable
//                        density — which is how rapid reclamation becomes
//                        a fleet-level capacity lever.
//   kHintedBinPack     — placement–reclaim co-design on top of the
//                        bin-packer: when NO replica can admit (a burst
//                        outran reclamation), the scheduler fires
//                        ProactiveReclaim(plug_unit) at the donor host it
//                        is about to overflow onto, so eviction + unplug
//                        start NOW instead of at the host's next pressure
//                        tick.  With a fast reclaim driver the donor's
//                        memory is back before the burst's tail arrives.
//
// Draining hosts (HostSnapshot::draining) receive no new replicas and no
// routes while any non-draining replica exists.
//
// Admission sizing: HostSnapshot::can_admit flows through the host's
// HasMemoryForFresh, which with a snapshot registry attached sizes a
// fresh plug from the driver's RestoredCommitment (working-set-sized for
// Squeezy) instead of the full plug unit — so the bin-packers see the
// extra density that snapshot restore buys without any scheduler change.
//
// Every decision is a deterministic function of (policy, host state,
// per-function round-robin cursor); ties break toward the lowest host
// index so cluster runs are bit-reproducible for a given seed.
#ifndef SQUEEZY_CLUSTER_SCHEDULER_H_
#define SQUEEZY_CLUSTER_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cluster/host_index.h"
#include "src/faas/host_control.h"

namespace squeezy {

// Kept only because the benchmark driver (perfbench/squeezy_perfbench.cc)
// still assigns ClusterConfig::placement_impl; the HostIndex is the only
// placement path.  Goes with that field.
enum class PlacementImpl : uint8_t {
  kIndexed,
};

enum class PlacementPolicy : uint8_t {
  kRoundRobin,
  kLeastCommitted,
  kMemoryAwareBinPack,
  kHintedBinPack,
};

const char* PlacementPolicyName(PlacementPolicy p);

// What happens to a draining (or pressured) host's live replicas:
//   kReapOnDrain    — evict them in place; their warm state is lost and
//                     re-routed invocations pay cold starts elsewhere.
//   kMigrateOnDrain — live-migrate warm replicas to destination hosts
//                     picked by the MigrationPlanner (bin-pack scoring
//                     over HostControl snapshots); the donor's commitment
//                     still drains at its reclaim driver's speed, but the
//                     warm state survives and post-drain invocations stay
//                     warm.  Also enables pressure-triggered migration
//                     (Cluster::MigratePressured).
enum class MigrationMode : uint8_t {
  kReapOnDrain,
  kMigrateOnDrain,
};

const char* MigrationModeName(MigrationMode m);

// One replica of a cluster function: the VM registered on hosts[host] as
// local function index local_fn.
struct Replica {
  size_t host = 0;
  int local_fn = -1;
};

class ClusterScheduler {
 public:
  // `hosts` and `index` must outlive the scheduler, and `index` must
  // mirror these hosts (they notify it through HostStateListener).
  ClusterScheduler(PlacementPolicy policy, std::vector<HostControl*> hosts,
                   HostIndex& index);
  virtual ~ClusterScheduler() = default;

  // Registration: picks up to `replicas` distinct hosts for a function
  // whose VM commits `boot_commit` bytes at boot and `plug_unit` bytes per
  // instance.  Hosts that cannot commit the boot footprint (or are
  // draining) are never chosen; the result may have fewer entries than
  // requested (or be empty when no host fits — the caller rejects the
  // function's invocations).  Calls must happen in cluster-function-index
  // order: the plug unit is recorded per function for routing hints.
  std::vector<size_t> PlaceFunction(uint64_t boot_commit, uint64_t plug_unit,
                                    size_t replicas);

  // Routing: picks the serving replica for one invocation of cluster
  // function `cluster_fn` arriving now.  `replicas` is non-empty and
  // registered with the index.  O(log replicas) plus one probe per
  // admission mark.
  const Replica& Route(int cluster_fn, const std::vector<Replica>& replicas);

  PlacementPolicy policy() const { return policy_; }
  uint64_t decisions() const { return decisions_; }
  // ProactiveReclaim hints fired at donor hosts (kHintedBinPack only).
  uint64_t hints_fired() const { return hints_fired_; }
  // CanAdmitNow evaluations the bin-pack decisions made (re-probes of
  // marked replicas).  Deterministic; the asserts-only cross-check walk
  // is not counted.
  uint64_t admit_probes() const { return admit_probes_; }

 protected:
  // The two deciders, overridden only by the full-scan test oracle
  // (tests/oracles/scan_placement.h).  Candidates: the non-draining hosts
  // with available >= boot_commit, ascending host index.  Pick: Route's
  // choice, after the decision is counted.
  virtual std::vector<HostIndex::Candidate> Candidates(uint64_t boot_commit) const;
  virtual const Replica& Pick(int cluster_fn, const std::vector<Replica>& replicas);
  // Per-function routing round-robin cursor.
  size_t& RouteCursor(int cluster_fn);
  // The bin-pack fallback when no replica admits: route to `donor` and,
  // under kHintedBinPack, fire ProactiveReclaim(plug unit) at its host.
  const Replica& Overflow(int cluster_fn, const std::vector<Replica>& replicas,
                          size_t donor);

  const std::vector<HostControl*> hosts_;  // Pointer set fixed at construction.

 private:
  // The least committed eligible replica; exact ties rotate per function
  // (see .cc) to avoid sticky-host herding.
  size_t LeastCommitted(int cluster_fn);

  const PlacementPolicy policy_;  // Immutable after construction.
  HostIndex& index_;
  // Registration round-robin cursor, in STABLE host-index space: it
  // names the next host to start from, never a position in the filtered
  // candidate list (which shifts whenever a host is full or draining and
  // skews placement toward low-index hosts).
  size_t place_cursor_ = 0;
  // Per-function routing round-robin.
  std::vector<size_t> route_cursor_;
  // Per-function plug unit (hint sizing).
  std::vector<uint64_t> fn_plug_unit_;
  uint64_t decisions_ = 0;
  uint64_t hints_fired_ = 0;
  uint64_t admit_probes_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_CLUSTER_SCHEDULER_H_
