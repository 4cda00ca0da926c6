// Host-side FaaS runtime (OpenWhisk-style, paper §4.2/§6.2).
//
// Owns the host memory book, the hypervisor, one N:1 VM per function and
// its in-VM agent.  Orchestrates memory elasticity:
//   * scale-up: admission against host memory, plug, then instance start;
//     under memory pressure scale-ups wait for scale-downs to free memory
//     (paper §6.2.2);
//   * scale-down: keep-alive eviction triggers unplug per the configured
//     reclamation driver.
//
// Policy/mechanism split: the runtime is pure mechanism (commitment books,
// the per-VM virtio-mem worker queue, pending FIFO, idle reaping); WHAT
// happens on acquire/release/pressure is decided by a pluggable
// ReclaimDriver (src/policy/) resolved from RuntimeConfig::policy.
//
// Control plane: the runtime implements HostControl — a cluster scheduler
// reads one consistent Snapshot per decision and can drive
// ProactiveReclaim / Drain on this host (src/cluster/).
#ifndef SQUEEZY_FAAS_RUNTIME_H_
#define SQUEEZY_FAAS_RUNTIME_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/squeezy.h"
#include "src/faas/agent.h"
#include "src/faas/dep_registry.h"
#include "src/faas/function.h"
#include "src/faas/host_control.h"
#include "src/faas/runtime_config.h"
#include "src/faas/snapshot_registry.h"
#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/policy/reclaim_driver.h"
#include "src/sim/cost_model.h"
#include "src/sim/cpu_accountant.h"
#include "src/sim/event_queue.h"
#include "src/trace/trace_gen.h"

namespace squeezy {

class FaasRuntime : public HostControl, private ReclaimHost {
 public:
  // Standalone runtime: owns its own event queue.
  explicit FaasRuntime(const RuntimeConfig& config);
  // Cluster member: shares `events` with sibling hosts so one virtual
  // clock orders the whole fleet (src/cluster/).  `events` must outlive
  // the runtime.
  FaasRuntime(const RuntimeConfig& config, EventQueue* events);
  ~FaasRuntime() override;

  // Attaches the cluster's shared dependency-image registry (the host is
  // `host_id` in it).  Must precede every AddFunction call.  Only takes
  // effect for drivers with SharedDepsSupported(): their deps_region is
  // then charged once per host per image, cold starts fetch peer-resident
  // images at wire speed instead of cold IO, and evicted residencies flow
  // their commitment back through the driver.
  void AttachDepRegistry(DepImageRegistry* registry, size_t host_id);

  // Attaches the cluster's snapshot registry (REAP-style record-and-
  // prefetch).  Must precede every AddFunction call.  Only takes effect
  // for drivers with SnapshotRestoreSupported(): their functions record
  // the touched working set at first fully-warm idle, later cold starts
  // restore it as one bulk prefetch, and each restored instance is
  // committed at the driver's RestoredCommitment() instead of a full plug
  // unit.  Other drivers stay bit-identical with the registry attached.
  void AttachSnapshotRegistry(SnapshotRegistry* registry);

  // Registers one N:1 VM hosting `spec` with concurrency factor N.
  // Returns the function index used by SubmitTrace.
  int AddFunction(const FunctionSpec& spec, uint32_t max_concurrency);

  // Host memory AddFunction would commit at boot for this VM (base RAM
  // plus the boot-time plug).  Cluster placement admission-checks a host
  // against this before registering a replica there.
  static uint64_t BootCommitment(const RuntimeConfig& config, const FunctionSpec& spec,
                                 uint32_t max_concurrency);

  // Submits the merged trace (Invocation::function indexes functions in
  // AddFunction order) as one EventQueue::ScheduleEach series: one live
  // event at a time, the next arrival.
  void SubmitTrace(const std::vector<Invocation>& trace);

  void RunUntil(TimeNs t) { events_->RunUntil(t); }
  void RunAll() { events_->RunAll(); }

  // --- Accessors -----------------------------------------------------------------
  EventQueue& events() override { return *events_; }
  HostMemory& host() { return host_; }
  const HostMemory& host() const { return host_; }
  Hypervisor& hypervisor() { return *hv_; }
  CpuAccountant& cpu() { return cpu_; }
  size_t function_count() const { return vms_.size(); }
  Agent& agent(int fn) { return *vms_[static_cast<size_t>(fn)]->agent; }
  const Agent& agent(int fn) const { return *vms_[static_cast<size_t>(fn)]->agent; }
  GuestKernel& guest(int fn) override { return *vms_[static_cast<size_t>(fn)]->guest; }
  const GuestKernel& guest(int fn) const { return *vms_[static_cast<size_t>(fn)]->guest; }
  SqueezyManager* squeezy(int fn) { return vms_[static_cast<size_t>(fn)]->sqz.get(); }
  const FunctionSpec& spec(int fn) const { return vms_[static_cast<size_t>(fn)]->spec; }
  const RuntimeConfig& config() const { return config_; }
  const ReclaimDriver& driver() const { return *driver_; }
  // The registered dependency image of fn's VM (kNoDepImage without an
  // attached registry / sharing driver).
  DepImageId dep_image(int fn) const { return vms_[static_cast<size_t>(fn)]->dep_image; }
  // The registered snapshot slot of fn's VM (kNoSnapshot without an
  // attached registry / restore-capable driver).
  SnapshotId snapshot_id(int fn) const { return vms_[static_cast<size_t>(fn)]->snapshot; }

  // Reclamation throughput achieved by fn's VM so far (MiB/s); 0 if the VM
  // never unplugged (Fig 8).
  double ReclaimThroughputMiBps(int fn) const;
  // Pending (memory-starved) scale-up requests right now.
  size_t pending_scaleups() const { return pending_.size(); }
  // Scale-ups that ever had to wait for memory (cumulative; the fleet-level
  // starvation signal aggregated by src/metrics/fleet.*).
  uint64_t total_pending_scaleups() const { return pending_total_; }
  uint64_t total_unplug_failures() const { return unplug_incomplete_; }
  // ProactiveReclaim calls received from the control plane (co-design
  // observability: did the scheduler's hints actually fire?).
  uint64_t total_proactive_reclaims() const { return proactive_reclaims_; }

  // --- Cluster introspection hooks -------------------------------------------------
  // Memory signals a cluster scheduler places against (committed is the
  // admission-control book, so it is the bin-packing quantity).
  uint64_t committed() const { return host_.committed(); }
  uint64_t host_capacity() const { return host_.capacity(); }
  // Whether one more invocation of fn can start without waiting on
  // reclamation: a warm instance is free, reusable plugged memory exists
  // (queued-unplug cancellation / spare from partial unplugs / harvest
  // slack), or the host can commit a fresh plug unit right now.  Always
  // false while draining.
  bool CanAdmit(int fn) const;
  bool draining() const override { return draining_; }

  // --- HostControl (the cluster-facing control plane) ------------------------------
  using HostControl::Snapshot;
  HostSnapshot Snapshot(int local_fn) const override;
  // Narrow single-field reads: direct O(1) mirrors of the Snapshot fields
  // the indexed placement path still checks live per decision.
  bool CanAdmitNow(int local_fn) const override {
    return local_fn >= 0 && CanAdmit(local_fn);
  }
  bool DepImagePopulated(int local_fn) const override;
  bool SnapshotRestorableFor(int local_fn) const override;
  size_t RestoresInFlight() const override { return restores_in_flight(); }
  // Subscribes the cluster's state listener; fires one delta per change
  // of committed/pending/draining from then on (NotifyHostState at the
  // books' choke points plus the HostMemory commit observer).
  void AttachStateListener(HostStateListener* listener, size_t host_id) override;
  uint64_t ProactiveReclaim(uint64_t bytes) override;
  void Drain() override;
  void Undrain() override;
  // Migration source: captures fn's warm idle state and evicts those
  // instances, so their commitment flows back through the active reclaim
  // driver (a Squeezy donor frees memory at Squeezy speed).
  ReplicaMigrationState EvictReplica(int local_fn) override;
  // How many of `wanted` warm instances could be adopted right now:
  // concurrency headroom, then plug units payable from the driver's
  // reusable plugged pool plus free commitment (same books AdoptReplica
  // consumes, without mutating them).
  size_t AdoptableReplicas(int local_fn, size_t wanted) const override;
  // Migration destination: re-creates up to state.warm_instances warm
  // instances, each sized through the normal fresh-instance admission
  // check (no warm-reuse shortcut — adoption always needs new memory).
  // Returns the number actually admitted.
  size_t AdoptReplica(int local_fn, const ReplicaMigrationState& state,
                      TimeNs available_at) override;
  // Warm instances adopted from migrations so far (destination side).
  uint64_t total_adopted_instances() const { return adopted_instances_; }
  // Migration landing: the wire transfer delivered fn's dependency image
  // — materialize it into the VM's page cache (new host frames) and
  // record the population.  No-op when no registry/image is attached or
  // the residency was evicted while the transfer was in flight.
  void MaterializeImage(int local_fn);

 private:
  struct VmBundle {
    FunctionSpec spec;
    uint32_t max_concurrency = 0;
    uint64_t plug_unit = 0;    // Block-rounded memory limit.
    uint64_t deps_region = 0;  // Block-rounded dependency image size.
    DepImageId dep_image = kNoDepImage;  // Registry image (sharing drivers only).
    SnapshotId snapshot = kNoSnapshot;   // Snapshot slot (restore-capable drivers).
    // Plugged-but-unreserved bytes from snapshot-restored grants (each
    // fresh plug is one full unit, its reservation only the restored
    // commitment); unwound against unplug completions so the book never
    // over-releases.
    uint64_t snapshot_unreserved = 0;
    std::unique_ptr<GuestKernel> guest;
    std::unique_ptr<SqueezyManager> sqz;
    std::unique_ptr<Agent> agent;
    // The single virtio-mem worker processes unplug requests serially;
    // queued requests start when the previous one finishes.  A scale-up
    // arriving while unplugs are queued cancels one and reuses its memory
    // directly (the runtime coordinates plug and recycle events, §4.2).
    TimeNs unplug_busy_until = 0;
    uint32_t queued_unplugs = 0;
    uint32_t cancelled_unplugs = 0;
    // Memory left plugged by timed-out/partial unplugs: still committed,
    // reused by the next scale-up of this VM without a new reservation
    // (the paper's "forced to use the maximum memory available").
    uint64_t spare_plugged = 0;
  };

  struct PendingScaleUp {
    int fn;
    std::function<void(DurationNs)> ready;
  };

  VmBundle& vm(int fn) { return *vms_[static_cast<size_t>(fn)]; }

  // --- ReclaimHost: mechanism primitives lent to the driver ------------------------
  HostMemory& memory() override { return host_; }
  size_t vm_count() const override { return vms_.size(); }
  uint64_t plug_unit(int fn) const override {
    return vms_[static_cast<size_t>(fn)]->plug_unit;
  }
  uint64_t spare_plugged(int fn) const override {
    return vms_[static_cast<size_t>(fn)]->spare_plugged;
  }
  uint64_t FreshReserveBytes(int fn) const override;
  void NoteUnreservedPlug(int fn, uint64_t shortfall) override;
  uint64_t TakeSpare(int fn, uint64_t max_bytes) override;
  void AddSpare(int fn, uint64_t bytes) override;
  void NoteReusableChanged(int fn) override { NoteAdmitInputs(fn); }
  bool HasCancellableUnplug(int fn) const override;
  bool TryCancelQueuedUnplug(int fn) override;
  // Plugs `bytes` for fn and schedules `ready` at plug completion.
  // Pre-condition: the host reservation for `bytes` succeeded.
  void PlugAndGrant(int fn, uint64_t bytes,
                    std::function<void(DurationNs)> ready) override;
  // Unplugs one unit from fn's VM; releases the host reservation at
  // completion.
  void StartUnplug(int fn) override;
  void EnqueuePending(int fn, std::function<void(DurationNs)> ready) override;
  void ArmPressureTick() override;
  // Serves queued scale-ups that now fit (FIFO with skip).
  void TryServePending() override;
  bool PendingEmpty() const override { return pending_.empty(); }
  uint64_t PendingPlugBytes() const override;
  // Evicts globally-oldest idle instances expected to free >= `needed`
  // bytes.  Returns the bytes expected from the evictions triggered.
  uint64_t MakeRoom(uint64_t needed) override;
  size_t ReapAllIdle() override;

  // Whether a NEW instance of fn could secure its plug unit right now
  // (pre-plugged, reusable plugged memory, or free commitment headroom) —
  // CanAdmit minus the warm-reuse shortcut; the adoption admission check.
  bool HasMemoryForFresh(int fn) const;

  // --- Shared dependency images (attached registry only) ----------------------------
  // Instance memory front door: ensures fn's image residency is charged
  // (re-pinning an evicted image, or parking the scale-up until the
  // charge fits), counts image references at grant time, and adopts a
  // host-resident image straight into a cold VM's page cache.  Falls
  // through to the driver untouched when fn has no registered image.
  void AcquireInstanceMemory(int fn, std::function<void(DurationNs)> ready);
  void ReleaseInstanceMemory(int fn);
  // Commitment fn's image still needs on this host (deps_region when the
  // image is registered but not resident; 0 otherwise).
  uint64_t ImageChargeNeeded(int fn) const;
  // Re-establishes fn's image residency for a charge the caller has
  // already reserved on the host book.
  void ChargeImage(int fn, uint64_t image_bytes);
  // Grant-time tail: AddRef + sibling-cache adoption, then `ready`.
  void OnInstanceGranted(int fn, DurationNs vmm_latency,
                         const std::function<void(DurationNs)>& ready);
  void MarkImagePopulatedIfWarm(int fn);
  // Drops zero-reference image residencies while draining or starved;
  // their commitment flows back through the driver (OnImageEvict).
  void MaybeEvictImages();

  // --- Snapshot record/restore (attached registry only) -----------------------------
  // Records fn's snapshot at the first fully-warm idle after no valid
  // recording exists (first boot, or after a staleness invalidation).
  void MaybeRecordSnapshot(int fn);
  // Cold-start front door: bulk-prefetches the recorded working set into
  // the fresh process (deps portion zeroed when the dep cache holds the
  // image) and prices it with the cost model's snapshot terms.  Returns
  // restored == false when no valid recording exists.
  SnapshotRestorePlan TryRestoreSnapshot(int fn, Pid pid);
  // Staleness signal from a restored instance's first execution.
  void NoteRestoreTail(int fn, uint64_t tail_bytes);
  // One bulk-prefetch channel per host: concurrent RestoreWorkingSet
  // transfers (cold-start restores and migration landings) serialize.
  // Reserves the channel for `busy` time starting now; returns the
  // queueing delay before this transfer can begin (0 when free).
  DurationNs ReserveRestoreChannel(DurationNs busy);
  // Restores still occupying or queued on the channel right now (the
  // planner's destination-contention penalty signal).
  size_t restores_in_flight() const;

  // Periodic tick bodies, driven by the coalesced per-host repeating
  // timers below (one persistent closure each, re-armed in place).  The
  // return value is the timer contract: keep firing while work remains.
  bool PressureTick();
  // Whether a scale-up of fn can ever be served: its smallest possible
  // reservation fits beside every VM's boot floor.
  bool EverServable(int fn) const;
  // Drain loop: reap newly-idle instances until the host is empty.
  bool DrainTick();

  // Pushes the current (committed, pending, draining) triple to the
  // attached state listener.  Called at every choke point that mutates
  // one of the three books: the HostMemory commit observer, the
  // pending-queue push/erase, and Drain/Undrain.
  void NotifyHostState();
  // Tells the attached state listener that an admission input of local
  // function fn (-1: of every VM on this host) other than committed or
  // draining changed (HostStateListener::OnAdmitInputs).
  void NoteAdmitInputs(int fn);

  RuntimeConfig config_;
  CostModel cost_;
  std::unique_ptr<EventQueue> owned_events_;  // Null when the queue is injected.
  EventQueue* events_;
  CpuAccountant cpu_;
  HostMemory host_;
  std::unique_ptr<Hypervisor> hv_;
  std::unique_ptr<ReclaimDriver> driver_;
  DepImageRegistry* dep_registry_ = nullptr;  // Null outside a dep-cache cluster.
  size_t host_id_ = 0;                        // This host's index in the registry.
  SnapshotRegistry* snap_registry_ = nullptr;  // Null outside a snapshot cluster.
  std::vector<std::unique_ptr<VmBundle>> vms_;
  std::deque<PendingScaleUp> pending_;
  // Sum of the VMs' boot commitments that no reclamation returns (shared
  // dependency images excluded): committed never drops below it.
  uint64_t boot_floor_ = 0;
  uint64_t pending_total_ = 0;
  uint64_t unplug_incomplete_ = 0;
  uint64_t proactive_reclaims_ = 0;
  uint64_t adopted_instances_ = 0;
  // Restore-channel book: the instant the channel next frees, plus the
  // end instants of reserved transfers (pruned lazily) backing the
  // restores_in_flight count.
  TimeNs restore_busy_until_ = 0;
  std::vector<TimeNs> restore_ends_;
  bool draining_ = false;
  HostStateListener* state_listener_ = nullptr;  // Null outside a cluster.
  size_t listener_host_ = 0;  // This host's index at the listener.
  // Per-host periodic work, coalesced: each timer owns its closure once
  // and re-arms in place every pressure_check_period instead of
  // scheduling a fresh closure per tick per host (fleet-scale event
  // churn).
  RepeatingTimer pressure_timer_;
  RepeatingTimer drain_timer_;
};

}  // namespace squeezy

#endif  // SQUEEZY_FAAS_RUNTIME_H_
