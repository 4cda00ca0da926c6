// Pluggable reclamation-policy drivers (the policy/mechanism split).
//
// The paper's central claim is that reclamation speed is a *policy*
// choice; this layer makes the policy a first-class, swappable component.
// FaasRuntime owns the mechanism — host commitment books, the per-VM
// virtio-mem worker queue, pending scale-up FIFO, idle-instance reaping —
// and exposes it to drivers through the narrow ReclaimHost interface.
// A ReclaimDriver decides WHEN those mechanisms fire:
//   * admission sizing  — how big the VM's hot-pluggable region is and how
//     much host memory its boot commits (HotplugRegionBytes /
//     BootCommitment);
//   * scale-up          — Acquire: where an instance's memory comes from
//     (pre-plugged, recycled, freshly plugged, or waited for);
//   * scale-down        — Release: whether evicted memory is unplugged,
//     buffered as slack, or kept;
//   * pressure tick     — periodic background work (serving starved
//     scale-ups, proactive reclamation);
//   * control plane     — ProactiveReclaim / OnDrain, driven by the
//     cluster scheduler through HostControl (src/faas/host_control.h).
//
// Concrete drivers: StaticDriver, VirtioMemDriver, SqueezyDriver,
// HarvestDriver — resolved from RuntimeConfig::policy by MakeReclaimDriver
// (driver_factory.h).
#ifndef SQUEEZY_POLICY_RECLAIM_DRIVER_H_
#define SQUEEZY_POLICY_RECLAIM_DRIVER_H_

#include <cstdint>
#include <functional>

#include "src/faas/runtime_config.h"
#include "src/policy/policy.h"
#include "src/sim/time.h"

namespace squeezy {

class EventQueue;
class GuestKernel;
class HostMemory;

// Block-rounded per-VM quantities a driver sizes admission against.
struct DriverSizing {
  uint64_t plug_unit = 0;    // Per-instance memory limit, block-rounded.
  uint64_t deps_region = 0;  // Dependency page-cache bytes, block-rounded.
  uint32_t max_concurrency = 0;  // N of the N:1 VM.
};

// Mechanism primitives FaasRuntime lends to its driver.  Everything here
// is policy-free: the driver sequences these verbs, the runtime executes
// them (and keeps the books).
class ReclaimHost {
 public:
  virtual ~ReclaimHost() = default;

  // --- Ambient state ---------------------------------------------------------------
  virtual EventQueue& events() = 0;
  virtual HostMemory& memory() = 0;
  virtual GuestKernel& guest(int fn) = 0;
  virtual size_t vm_count() const = 0;
  virtual bool draining() const = 0;

  // --- Per-VM mechanism state (virtio-mem worker queue + leftovers) ---------------
  virtual uint64_t plug_unit(int fn) const = 0;
  // Memory left plugged (and committed) by timed-out/partial unplugs.
  virtual uint64_t spare_plugged(int fn) const = 0;
  // Consumes up to `max_bytes` of spare; returns the bytes taken.
  virtual uint64_t TakeSpare(int fn, uint64_t max_bytes) = 0;
  virtual void AddSpare(int fn, uint64_t bytes) = 0;
  // A driver calls this after changing plugged memory it reports through
  // ReusablePlugged beyond spare and cancellable unplugs (Harvest's
  // slack buffers): admission for fn may have changed.
  virtual void NoteReusableChanged(int fn) = 0;
  // True if an unplug for fn is queued behind the worker but not started
  // (its memory is still plugged and committed, so a scale-up can absorb
  // it directly).
  virtual bool HasCancellableUnplug(int fn) const = 0;
  // Absorbs one queued unplug if possible; true on success.
  virtual bool TryCancelQueuedUnplug(int fn) = 0;

  // --- Snapshot-restored commitment (cluster snapshot registry) --------------------
  // Bytes a FRESH plug-grant of fn must reserve on the host book: the full
  // plug unit normally, or the driver's RestoredCommitment() when a
  // recorded snapshot proves the instance touches less (the guest plug
  // itself stays one full unit — Squeezy partitions populate whole — the
  // runtime tracks the shortfall per VM and unwinds it as unplugs
  // complete).  Equal to plug_unit(fn) whenever no registry is attached.
  virtual uint64_t FreshReserveBytes(int fn) const = 0;
  // Records that a fresh plug of one full unit was backed by a reservation
  // `shortfall` bytes smaller (snapshot-restored commitment).
  virtual void NoteUnreservedPlug(int fn, uint64_t shortfall) = 0;

  // --- Mechanism verbs -------------------------------------------------------------
  // Plugs `bytes` into fn's VM and grants the waiting scale-up at plug
  // completion.  Pre-condition: the host reservation succeeded.
  virtual void PlugAndGrant(int fn, uint64_t bytes,
                            std::function<void(DurationNs)> ready) = 0;
  // Unplugs one plug unit from fn's VM (async; releases commitment at
  // completion and then retries pending scale-ups).
  virtual void StartUnplug(int fn) = 0;
  // Parks a memory-starved scale-up on the pending FIFO.
  virtual void EnqueuePending(int fn, std::function<void(DurationNs)> ready) = 0;
  // Arms the periodic pressure tick if it is not already armed.
  virtual void ArmPressureTick() = 0;
  // Serves queued scale-ups that now fit (FIFO with skip).
  virtual void TryServePending() = 0;
  virtual bool PendingEmpty() const = 0;
  // Sum of plug units over the pending FIFO (bytes the fleet is starved of).
  virtual uint64_t PendingPlugBytes() const = 0;
  // Evicts globally-oldest idle instances expected to free >= `needed`
  // bytes; returns the bytes expected from the evictions triggered.
  virtual uint64_t MakeRoom(uint64_t needed) = 0;
  // Evicts EVERY idle instance, regardless of idle age (drain path).
  // Returns the number of instances evicted.
  virtual size_t ReapAllIdle() = 0;
};

class ReclaimDriver {
 public:
  explicit ReclaimDriver(const RuntimeConfig& config) : config_(config) {}
  virtual ~ReclaimDriver() = default;

  ReclaimDriver(const ReclaimDriver&) = delete;
  ReclaimDriver& operator=(const ReclaimDriver&) = delete;

  virtual ReclaimPolicy policy() const = 0;
  const char* name() const { return ReclaimPolicyName(policy()); }

  // Attaches the driver to its runtime.  Sizing hooks work unbound (the
  // cluster admission-checks BootCommitment before any VM exists); all
  // lifecycle hooks require a bound host.
  void Bind(ReclaimHost* host) { host_ = host; }
  bool bound() const { return host_ != nullptr; }

  // --- Admission sizing ------------------------------------------------------------
  // Bytes of hot-pluggable guest region the VM's device must cover.
  virtual uint64_t HotplugRegionBytes(const DriverSizing& s) const = 0;
  // Host memory committed when the VM boots (base RAM + boot-time plug).
  virtual uint64_t BootCommitment(const DriverSizing& s) const = 0;
  // Whether the runtime should attach a SqueezyManager to each VM.
  virtual bool UsesSqueezy() const { return false; }

  // --- Shared dependency images (cluster dep cache) ---------------------------------
  // Whether the driver's deps region is a read-only payload shareable
  // across VMs and hosts.  When true AND a DepImageRegistry is attached
  // to the runtime, DriverSizing::deps_region is charged once per host
  // per image instead of once per VM.  Static/VirtioMem keep their
  // per-VM behavior (and stay bit-identical) by leaving this false.
  virtual bool SharedDepsSupported() const { return false; }
  // The registry pinned fn's image on this host: `already_resident` says
  // whether this VM joined an existing residency (its deps charge was
  // skipped) or established it (the charge is the caller's).  Default:
  // nothing to do.
  virtual void OnImageResident(int fn, uint64_t image_bytes, bool already_resident);
  // The registry released fn's image residency (host drain / zero refs
  // under pressure): return its commitment to the host book.  Default:
  // immediate release, then retry starved scale-ups — the shared region
  // is read-only and clean, so there is nothing to migrate or zero.
  virtual void OnImageEvict(int fn, uint64_t image_bytes);

  // --- REAP-style snapshot restore (cluster snapshot registry) ----------------------
  // Whether the driver can exploit a recorded working set: restored cold
  // starts bulk-prefetch the recording AND commit only RestoredCommitment
  // per instance.  Drivers that leave this false never record, never
  // restore, and stay bit-identical with a registry attached.
  virtual bool SnapshotRestoreSupported() const { return false; }
  // Host commitment one RESTORED instance needs.  The recording proves
  // the instance touches `working_set_bytes` of heap rather than its full
  // memory limit; a driver that can promise sub-unit commitment returns
  // the block-rounded working set, everyone else the full plug unit —
  // this is what the cluster's bin-packing admission sizes against.
  virtual uint64_t RestoredCommitment(const DriverSizing& s,
                                      uint64_t working_set_bytes) const;

  // --- Per-VM lifecycle ------------------------------------------------------------
  // Called once per VM right after guest construction, before the host
  // commitment is reserved; performs the driver's boot-time plug.
  virtual void OnVmBoot(int fn, uint64_t hotplug_region, uint64_t deps_region) = 0;
  // Instance scale-up: secure one plug unit of memory for fn, then invoke
  // `ready(vmm_latency)` — possibly much later under memory pressure.
  virtual void Acquire(int fn, std::function<void(DurationNs)> ready) = 0;
  // Instance evicted: decide what happens to its plug unit.
  virtual void Release(int fn) = 0;
  // An unplug timed out / completed partially, leaving `leftover` bytes
  // plugged and committed.  Default: bank them as spare for the next
  // scale-up of this VM.
  virtual void OnUnplugIncomplete(int fn, uint64_t leftover);
  // Plugged bytes fn could reuse for a scale-up without a new host
  // commitment (spare + cancellable unplugs + driver-specific slack).
  virtual uint64_t ReusablePlugged(int fn) const;
  // Static driver: memory is always there, admission never waits.
  virtual bool AlwaysAdmits() const { return false; }

  // --- Control plane ---------------------------------------------------------------
  // Periodic pressure tick: serve starved scale-ups, proactive work.
  virtual void PressureTick();
  // Cluster hint: try to return >= `bytes` of committed memory soon.
  // Returns the bytes expected from the reclamation triggered.
  virtual uint64_t ProactiveReclaim(uint64_t bytes);
  // Host drain: reclaim everything reclaimable now.
  virtual void OnDrain();

 protected:
  // The ~1 ms grant for memory that is already plugged (recycled unplug,
  // spare, slack buffer): no VMM plug work on the path.
  void GrantFast(std::function<void(DurationNs)> ready);

  const RuntimeConfig config_;
  ReclaimHost* host_ = nullptr;
};

}  // namespace squeezy

#endif  // SQUEEZY_POLICY_RECLAIM_DRIVER_H_
