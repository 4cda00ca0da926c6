// The narrow control-plane surface a cluster scheduler sees of one host.
//
// Placement–reclaim co-design happens through this interface: hosts push
// committed/pending/draining deltas and admission marks to the cluster's
// HostIndex (HostStateListener), the scheduler probes CanAdmitNow on the
// replicas those marks name, and it can drive reclamation on the data
// plane — ProactiveReclaim before routing a burst at a donor host,
// Drain/Undrain for maintenance, and the EvictReplica/AdoptReplica pair
// for live replica migration (src/cluster/migration_planner.h).
// FaasRuntime implements it; the cluster layer (src/cluster/) holds hosts
// only through HostControl*, so alternative host implementations (remote
// agents, mocks) slot in.
#ifndef SQUEEZY_FAAS_HOST_CONTROL_H_
#define SQUEEZY_FAAS_HOST_CONTROL_H_

#include <cstddef>
#include <cstdint>

#include "src/sim/time.h"

namespace squeezy {

// Warm state captured off a replica by EvictReplica — everything a
// migration needs to size the transfer and re-create the instances at the
// destination.  state_bytes is the anonymous state the live instances had
// actually touched (the committed footprint that must cross the wire) and
// deps_bytes the shared dependency/page-cache image transferred once per
// replica; busy_fraction at capture time is the dirty-rate proxy the
// CostModel scales its per-round redirty fraction by.
struct ReplicaMigrationState {
  size_t warm_instances = 0;
  uint64_t state_bytes = 0;
  uint64_t deps_bytes = 0;
  // Anonymous bytes reproducible from the cluster snapshot recording
  // (<= state_bytes at capture; 0 without an attached registry or a valid
  // recording).  On a snapshot-hit transfer the cluster moves this
  // portion OUT of state_bytes — only the delta beyond the recording
  // crosses the wire, and the destination bulk-restores recorded_bytes
  // from the store on arrival (GuestKernel::RestoreWorkingSet).
  uint64_t recorded_bytes = 0;
  double busy_fraction = 0;

  uint64_t transfer_bytes() const { return state_bytes + deps_bytes; }
};

// One consistent view of a host at a routing instant.
struct HostSnapshot {
  uint64_t committed = 0;   // Admission-control book (bin-packing quantity).
  uint64_t capacity = 0;
  uint64_t available = 0;   // capacity - committed.
  size_t pending_scaleups = 0;  // Memory-starved scale-ups right now (pressure).
  bool draining = false;
  // Whether one more invocation of the queried function can start without
  // waiting on reclamation.  Only meaningful when Snapshot() was passed a
  // local function index; false otherwise (and always false while
  // draining).
  bool can_admit = false;
  // Whether the queried function's dependency image is held warm by this
  // host in the cluster dep cache (a migration here skips deps_bytes on
  // the wire).  Only meaningful with a local function index and an
  // attached DepImageRegistry; false otherwise.
  bool dep_image_populated = false;
  // Whether the queried function has a valid cluster snapshot recording
  // this host can restore from (attached registry + restore-capable
  // driver + recorded) — a migration here ships only the delta beyond
  // the recording.  Only meaningful with a local function index; false
  // otherwise.
  bool snapshot_restorable = false;
  // Bulk working-set restores (cold-start prefetches and migration
  // landings) still occupying or queued on this host's single restore
  // channel.  Each host serializes concurrent RestoreWorkingSet bulk
  // prefetches, so a destination already restoring delays new arrivals —
  // the planner penalizes it (function-agnostic; 0 without a registry).
  size_t restores_in_flight = 0;
};

// Receives one delta per host-state change instead of polling snapshots.
// A host fires OnHostState synchronously after ANY change to its committed
// book, pending scale-up queue, or draining flag — the three quantities
// routing ranks on — carrying the new absolute values (deltas are
// idempotent and order-free to absorb).  It fires OnAdmitInputs after any
// change to the OTHER inputs of CanAdmitNow(local_fn): the VM's instance
// states, its reusable plugged memory (spare, cancellable unplugs, driver
// slack) and the host's dependency-image residency (local_fn -1: every
// VM on the host).  A committed or draining change is itself an
// admission input; OnHostState covers it.  Implementations must only
// touch state below the host (the placement HostIndex) and never call
// back into it.
class HostStateListener {
 public:
  virtual ~HostStateListener() = default;
  virtual void OnHostState(size_t host, uint64_t committed,
                           size_t pending_scaleups, bool draining) = 0;
  virtual void OnAdmitInputs(size_t host, int local_fn) = 0;
};

class HostControl {
 public:
  virtual ~HostControl() = default;

  // One consistent committed/pressure/admit read.  `local_fn` is the
  // host-local function index to admission-check, or -1 for a
  // function-agnostic snapshot.
  virtual HostSnapshot Snapshot(int local_fn) const = 0;
  HostSnapshot Snapshot() const { return Snapshot(-1); }

  // --- Narrow single-field reads (the incremental-index fast path) ----------
  // Each must equal the corresponding HostSnapshot field read at the same
  // instant; the defaults derive them from Snapshot() so alternative
  // HostControl implementations (mocks, remote agents) stay correct
  // without overriding.  FaasRuntime overrides them with direct O(1)
  // reads — placement asks only for the fields a decision still needs
  // live (admission probes, residency bits) after the HostIndex has
  // pre-narrowed the candidates.
  virtual bool CanAdmitNow(int local_fn) const {
    return Snapshot(local_fn).can_admit;
  }
  virtual bool DepImagePopulated(int local_fn) const {
    return Snapshot(local_fn).dep_image_populated;
  }
  virtual bool SnapshotRestorableFor(int local_fn) const {
    return Snapshot(local_fn).snapshot_restorable;
  }
  virtual size_t RestoresInFlight() const {
    return Snapshot(-1).restores_in_flight;
  }

  // Subscribes `listener` to this host's state deltas as `host_id` (one
  // listener per host; the host immediately fires one delta with its
  // current state so the listener starts exact).  The deciders read
  // committed/pending/draining only from the index this listener feeds,
  // so a host whose state changes later must override this and keep
  // notifying; the default fires the one delta and never again.
  virtual void AttachStateListener(HostStateListener* listener, size_t host_id) {
    if (listener != nullptr) {
      const HostSnapshot snap = Snapshot(-1);
      listener->OnHostState(host_id, snap.committed, snap.pending_scaleups,
                            snap.draining);
    }
  }

  // Hint: return >= `bytes` of committed memory soon (evict idle
  // instances, drop slack buffers).  Returns the bytes expected from the
  // reclamation triggered; 0 when nothing is reclaimable.
  virtual uint64_t ProactiveReclaim(uint64_t bytes) = 0;

  // Maintenance drain: the host stops admitting (Snapshot().draining,
  // can_admit == false) and reclaims aggressively until Undrain().
  virtual void Drain() = 0;
  virtual void Undrain() = 0;

  // --- Live replica migration (source / destination halves) ----------------
  // Source half: captures the warm (idle) state of local function
  // `local_fn` and evicts those instances, so the commitment they held
  // flows back through the host's active reclaim driver (Squeezy donors
  // free memory at Squeezy speed).  Busy instances are left to finish —
  // only idle state migrates.
  virtual ReplicaMigrationState EvictReplica(int local_fn) = 0;
  // How many of `wanted` warm instances of `local_fn` this host could
  // admit right now (concurrency headroom + memory, mirroring the
  // AdoptReplica loop).  A pure query: the planner sizes and prices the
  // transfer against the instances that will actually move, and skips
  // hosts that would adopt nothing.  CONTRACT: an AdoptReplica call
  // immediately after (same books, no intervening event) admits exactly
  // this many — the transfer priced on the query is the transfer that
  // ships (locked by cluster_migration_test.cc).
  virtual size_t AdoptableReplicas(int local_fn, size_t wanted) const = 0;
  // Destination half: re-creates up to `state.warm_instances` warm
  // instances of `local_fn`, each admitted through the host's normal
  // CanAdmit sizing (memory reserved and plugged NOW, like any scale-up).
  // The instances become serveable only at `available_at` — the instant
  // the state transfer completes.  Returns how many instances the host
  // actually admitted (fewer when memory or concurrency run out; the
  // remainder stays evicted and costs a future cold start).
  virtual size_t AdoptReplica(int local_fn, const ReplicaMigrationState& state,
                              TimeNs available_at) = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_FAAS_HOST_CONTROL_H_
