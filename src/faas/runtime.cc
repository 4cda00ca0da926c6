#include "src/faas/runtime.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/policy/driver_factory.h"

namespace squeezy {
namespace {

DriverSizing SizingFor(const FunctionSpec& spec, uint32_t max_concurrency) {
  DriverSizing s;
  s.plug_unit = BytesToBlocks(spec.memory_limit) * kMemoryBlockBytes;
  s.deps_region = BytesToBlocks(spec.file_deps_bytes) * kMemoryBlockBytes;
  s.max_concurrency = max_concurrency;
  return s;
}

}  // namespace

FaasRuntime::FaasRuntime(const RuntimeConfig& config)
    : FaasRuntime(config, nullptr) {}

FaasRuntime::FaasRuntime(const RuntimeConfig& config, EventQueue* events)
    : config_(config),
      cost_(config.cost),
      owned_events_(events ? nullptr : std::make_unique<EventQueue>()),
      events_(events ? events : owned_events_.get()),
      cpu_(Sec(1)),
      host_(config.host_capacity),
      driver_(MakeReclaimDriver(config)),
      pressure_timer_(events_, config.pressure_check_period,
                      [this] { return PressureTick(); }),
      drain_timer_(events_, config.pressure_check_period,
                   [this] { return DrainTick(); }) {
  hv_ = std::make_unique<Hypervisor>(&host_, &cost_, &cpu_);
  driver_->Bind(this);
}

FaasRuntime::~FaasRuntime() = default;

uint64_t FaasRuntime::BootCommitment(const RuntimeConfig& config, const FunctionSpec& spec,
                                     uint32_t max_concurrency) {
  // A throwaway unbound driver: sizing hooks are pure functions of
  // (config, spec), usable before any runtime exists.  Placement checks
  // against the full (undeduped) commitment; a host joining an
  // already-resident image commits less at registration.
  return MakeReclaimDriver(config)->BootCommitment(SizingFor(spec, max_concurrency));
}

void FaasRuntime::AttachDepRegistry(DepImageRegistry* registry, size_t host_id) {
  assert(vms_.empty() && "attach the registry before any AddFunction");
  dep_registry_ = registry;
  host_id_ = host_id;
}

void FaasRuntime::AttachSnapshotRegistry(SnapshotRegistry* registry) {
  assert(vms_.empty() && "attach the registry before any AddFunction");
  snap_registry_ = registry;
}

int FaasRuntime::AddFunction(const FunctionSpec& spec, uint32_t max_concurrency) {
  const int fn = static_cast<int>(vms_.size());
  auto bundle = std::make_unique<VmBundle>();
  bundle->spec = spec;
  bundle->max_concurrency = max_concurrency;
  const DriverSizing sizing = SizingFor(spec, max_concurrency);
  bundle->plug_unit = sizing.plug_unit;

  GuestConfig gcfg;
  gcfg.name = spec.name;
  gcfg.vcpus = static_cast<uint32_t>(
      std::max(1.0, std::ceil(spec.vcpu_shares * static_cast<double>(max_concurrency))));
  gcfg.base_memory = config_.vm_base_memory;
  gcfg.seed = config_.seed * 977 + static_cast<uint64_t>(fn) * 131;
  gcfg.unplug_timeout = config_.unplug_timeout;
  gcfg.shuffle_allocator = true;
  gcfg.hotplug_region = driver_->HotplugRegionBytes(sizing);

  bundle->guest = std::make_unique<GuestKernel>(gcfg, hv_.get(), &cpu_);
  if (driver_->UsesSqueezy()) {
    SqueezyConfig scfg;
    scfg.partition_bytes = sizing.plug_unit;
    scfg.nr_partitions = max_concurrency;
    scfg.shared_bytes = sizing.deps_region;
    assert(scfg.region_bytes() == gcfg.hotplug_region);
    // Plugs the shared partition at boot.
    bundle->sqz = std::make_unique<SqueezyManager>(bundle->guest.get(), scfg);
  }
  bundle->deps_region = sizing.deps_region;
  vms_.push_back(std::move(bundle));

  // Host commitment at boot: base RAM plus the driver's boot-time plug
  // (everything for static VMs, shared partition / dependency cache for
  // the dynamic drivers).
  driver_->OnVmBoot(fn, gcfg.hotplug_region, sizing.deps_region);
  uint64_t boot_commit = driver_->BootCommitment(sizing);
  // The part no reclamation ever returns (a shared image's charge goes
  // once the image is unreferenced and evicted).
  uint64_t vm_floor = boot_commit;
  if (dep_registry_ != nullptr && driver_->SharedDepsSupported() && sizing.deps_region > 0) {
    vm_floor -= sizing.deps_region;
    // Cluster dep cache: the read-only dependency image is charged once
    // per host per image — a VM joining an already-resident image skips
    // its deps share of the boot commitment.
    const DepImageId img = dep_registry_->Intern(
        spec.name + "/" + std::to_string(spec.file_deps_bytes), sizing.deps_region);
    vm(fn).dep_image = img;
    const bool already = dep_registry_->PinImage(host_id_, img);
    NoteAdmitInputs(-1);
    driver_->OnImageResident(fn, sizing.deps_region, already);
    if (already) {
      assert(boot_commit >= sizing.deps_region);
      boot_commit -= sizing.deps_region;
    }
  }
  if (snap_registry_ != nullptr && driver_->SnapshotRestoreSupported()) {
    // Snapshot slots are cluster-global (content-addressed files on
    // shared storage): the first host to warm the function records, every
    // host restores.  Keyed by sizes too, so distinct workloads under one
    // name never share a recording.
    vm(fn).snapshot = snap_registry_->Intern(spec.name + "/" +
                                             std::to_string(spec.file_deps_bytes) + "/" +
                                             std::to_string(spec.anon_working_set));
  }
  boot_floor_ += vm_floor;
  const bool reserved = host_.TryReserve(boot_commit, 0);
  assert(reserved && "host must fit the boot-time footprint of every VM");
  (void)reserved;

  AgentConfig acfg;
  acfg.max_concurrency = max_concurrency;
  acfg.vcpus = gcfg.vcpus;
  acfg.keep_alive = config_.keep_alive;
  acfg.use_squeezy = driver_->UsesSqueezy();
  AgentCallbacks callbacks;
  callbacks.acquire_memory = [this, fn](std::function<void(DurationNs)> ready) {
    AcquireInstanceMemory(fn, std::move(ready));
  };
  callbacks.release_memory = [this, fn] { ReleaseInstanceMemory(fn); };
  callbacks.admit_inputs_changed = [this, fn] { NoteAdmitInputs(fn); };
  if (vm(fn).dep_image != kNoDepImage || vm(fn).snapshot != kNoSnapshot) {
    // Population signal: the first idle transition follows the cold
    // start that faulted the whole image in — peers can fetch it now.
    // The same transition is the snapshot recording point: a fully
    // warmed instance exists exactly when its working set is observable.
    callbacks.instance_idle = [this, fn] {
      if (vm(fn).dep_image != kNoDepImage) {
        MarkImagePopulatedIfWarm(fn);
      }
      MaybeRecordSnapshot(fn);
    };
  }
  if (vm(fn).snapshot != kNoSnapshot) {
    callbacks.try_restore = [this, fn](Pid pid) { return TryRestoreSnapshot(fn, pid); };
    callbacks.restore_tail = [this, fn](uint64_t tail) { NoteRestoreTail(fn, tail); };
    callbacks.restore_channel = [this](DurationNs busy) {
      return ReserveRestoreChannel(busy);
    };
  }
  VmBundle& b = vm(fn);
  b.agent = std::make_unique<Agent>(events_, b.guest.get(), b.sqz.get(), spec, acfg,
                                    std::move(callbacks), gcfg.seed ^ 0x5eedULL);
  if (b.dep_image != kNoDepImage) {
    // Cold misses on the deps file ask the live registry at fault time:
    // wire speed exactly while some peer holds the image warm, cold
    // backing-store IO otherwise — the answer can never go stale.
    b.guest->page_cache().SetBackingResolver(b.agent->deps_file(), [this, fn]() -> DurationNs {
      const VmBundle& v = *vms_[static_cast<size_t>(fn)];
      return dep_registry_->PopulatedElsewhere(host_id_, v.dep_image)
                 ? cost_.dep_fetch_byte_x1000
                 : -1;
    });
  }
  return fn;
}

void FaasRuntime::SubmitTrace(const std::vector<Invocation>& trace) {
  std::vector<TimeNs> whens;
  std::vector<int> fns;
  whens.reserve(trace.size());
  fns.reserve(trace.size());
  for (const Invocation& inv : trace) {
    assert(inv.function >= 0 && static_cast<size_t>(inv.function) < vms_.size());
    whens.push_back(inv.at);
    fns.push_back(inv.function);
  }
  events_->ScheduleEach(std::move(whens),
                        [this, fns = std::move(fns)](size_t i) { agent(fns[i]).Submit(); });
}

// --- Shared dependency images ------------------------------------------------------

uint64_t FaasRuntime::ImageChargeNeeded(int fn) const {
  const VmBundle& b = *vms_[static_cast<size_t>(fn)];
  if (dep_registry_ == nullptr || b.dep_image == kNoDepImage ||
      dep_registry_->Resident(host_id_, b.dep_image)) {
    return 0;
  }
  return b.deps_region;
}

void FaasRuntime::ChargeImage(int fn, uint64_t image_bytes) {
  dep_registry_->PinImage(host_id_, vm(fn).dep_image);
  NoteAdmitInputs(-1);
  driver_->OnImageResident(fn, image_bytes, false);
}

void FaasRuntime::AcquireInstanceMemory(int fn, std::function<void(DurationNs)> ready) {
  VmBundle& b = vm(fn);
  if (b.dep_image == kNoDepImage) {
    driver_->Acquire(fn, std::move(ready));
    return;
  }
  MarkImagePopulatedIfWarm(fn);
  // Grant-time tail: count the image reference and adopt a host-resident
  // copy into this VM's cold page cache.
  std::function<void(DurationNs)> wrapped =
      [this, fn, cb = std::move(ready)](DurationNs vmm_latency) {
        OnInstanceGranted(fn, vmm_latency, cb);
      };
  const uint64_t image_need = ImageChargeNeeded(fn);
  if (image_need > 0) {
    // The image was evicted; its commitment must be back on the book
    // before any instance can map it.
    if (host_.TryReserve(image_need, events_->now())) {
      ChargeImage(fn, image_need);
    } else {
      // Park the whole scale-up: TryServePending re-charges image + plug
      // unit together once reclamation frees room.
      EnqueuePending(fn, std::move(wrapped));
      MakeRoom(b.plug_unit + image_need);
      ArmPressureTick();
      return;
    }
  }
  driver_->Acquire(fn, std::move(wrapped));
}

void FaasRuntime::OnInstanceGranted(int fn, DurationNs vmm_latency,
                                    const std::function<void(DurationNs)>& ready) {
  VmBundle& b = vm(fn);
  assert(dep_registry_->Resident(host_id_, b.dep_image) &&
         "a referenced image cannot have been evicted");
  dep_registry_->AddRef(host_id_, b.dep_image);
  DurationNs adopt_latency = 0;
  const int32_t file = b.agent->deps_file();
  PageCache& pc = b.guest->page_cache();
  if (dep_registry_->Populated(host_id_, b.dep_image) &&
      pc.cached_pages(file) < pc.FilePages(file)) {
    // The host already holds the image warm (a sibling VM, or bytes a
    // migration shipped here): map it into this VM's page cache — no
    // backing read, no new host frames.
    adopt_latency = b.guest->AdoptFileCache(file, events_->now()).latency;
  }
  ready(vmm_latency + adopt_latency);
}

void FaasRuntime::ReleaseInstanceMemory(int fn) {
  VmBundle& b = vm(fn);
  if (b.dep_image == kNoDepImage) {
    driver_->Release(fn);
    return;
  }
  MarkImagePopulatedIfWarm(fn);
  dep_registry_->ReleaseRef(host_id_, b.dep_image);
  driver_->Release(fn);
  MaybeEvictImages();
}

void FaasRuntime::MaterializeImage(int local_fn) {
  VmBundle& b = vm(local_fn);
  if (dep_registry_ == nullptr || b.dep_image == kNoDepImage ||
      !dep_registry_->Resident(host_id_, b.dep_image)) {
    return;  // Evicted while the transfer was in flight: bytes dropped.
  }
  b.guest->AdoptFileCache(b.agent->deps_file(), events_->now(), /*populate_host=*/true);
  dep_registry_->MarkPopulated(host_id_, b.dep_image);
}

void FaasRuntime::MarkImagePopulatedIfWarm(int fn) {
  VmBundle& b = vm(fn);
  if (dep_registry_->Populated(host_id_, b.dep_image)) {
    return;
  }
  const int32_t file = b.agent->deps_file();
  const PageCache& pc = b.guest->page_cache();
  if (pc.cached_pages(file) == pc.FilePages(file)) {
    dep_registry_->MarkPopulated(host_id_, b.dep_image);
  }
}

void FaasRuntime::MaybeEvictImages() {
  if (dep_registry_ == nullptr) {
    return;
  }
  if (!draining_ && pending_.empty()) {
    return;  // Images are evicted under drain or memory pressure only.
  }
  for (size_t i = 0; i < vms_.size(); ++i) {
    const DepImageId img = vms_[i]->dep_image;
    if (img == kNoDepImage || !dep_registry_->Resident(host_id_, img) ||
        dep_registry_->RefCount(host_id_, img) != 0) {
      continue;
    }
    // An in-flight grant (spawn waiting on memory, parked scale-up,
    // adopted replica mid-transfer) will reference the image: keep it.
    bool grant_in_flight = false;
    for (const auto& b : vms_) {
      if (b->dep_image == img &&
          b->agent->live_instances() != b->agent->memory_granted_instances()) {
        grant_in_flight = true;
        break;
      }
    }
    if (grant_in_flight) {
      continue;
    }
    // Release the residency: every pinned VM drops its cached image pages
    // (guest pages freed, host backing madvised away), and the charged
    // commitment flows back through the active driver.
    const uint64_t charged = dep_registry_->EvictImage(host_id_, img);
    NoteAdmitInputs(-1);
    for (const auto& b : vms_) {
      if (b->dep_image == img) {
        b->guest->DropFileCache(b->agent->deps_file(), events_->now());
      }
    }
    driver_->OnImageEvict(static_cast<int>(i), charged);
  }
}

// --- Snapshot record/restore -------------------------------------------------------

void FaasRuntime::MaybeRecordSnapshot(int fn) {
  VmBundle& b = vm(fn);
  if (snap_registry_ == nullptr || b.snapshot == kNoSnapshot ||
      snap_registry_->Recorded(b.snapshot)) {
    return;
  }
  const uint64_t heap = b.agent->MaxWarmAnonBytes();
  if (heap == 0) {
    return;  // No fully warmed instance yet; nothing recordable.
  }
  const PageCache& pc = b.guest->page_cache();
  SnapshotImage img;
  img.deps_pages = pc.cached_pages(b.agent->deps_file());
  img.heap_bytes = heap;
  img.working_set_pages = img.deps_pages + BytesToPages(heap);
  snap_registry_->Record(b.snapshot, img);
}

SnapshotRestorePlan FaasRuntime::TryRestoreSnapshot(int fn, Pid pid) {
  SnapshotRestorePlan plan;
  VmBundle& b = vm(fn);
  if (snap_registry_ == nullptr || b.snapshot == kNoSnapshot ||
      !snap_registry_->Recorded(b.snapshot)) {
    return plan;  // Serial cold phases run.
  }
  const SnapshotImage img = snap_registry_->Image(b.snapshot);
  const RestoreOutcome out = b.guest->RestoreWorkingSet(
      pid, b.agent->deps_file(), img.deps_pages, img.heap_bytes, events_->now());
  if (out.oom) {
    plan.oom = true;
    return plan;
  }
  // The deps portion rides the snapshot prefetch only when nobody else
  // holds the image: a host-populated copy was already adopted at grant
  // time (out.file_bytes == 0 then), and a peer-resident one is served
  // through the dependency cache, not the snapshot file.
  uint64_t prefetch = out.file_bytes + out.anon_bytes;
  uint64_t deps_zeroed = 0;
  if (out.file_bytes > 0 && dep_registry_ != nullptr && b.dep_image != kNoDepImage &&
      (dep_registry_->Populated(host_id_, b.dep_image) ||
       dep_registry_->PopulatedElsewhere(host_id_, b.dep_image))) {
    deps_zeroed = out.file_bytes;
    prefetch -= deps_zeroed;
  }
  plan.restored = true;
  plan.heap_bytes = out.anon_bytes;
  // The prefetch + populate work occupies the host's single restore
  // channel; a restore landing while another is in flight queues behind
  // it, so concurrent bulk prefetches pay serialized (not overlapped)
  // transfer time.  With the channel free the delay is 0 and the latency
  // is exactly the pre-channel pricing.
  const DurationNs busy = cost_.SnapshotPrefetchBytes(prefetch) + out.nested;
  plan.latency = cost_.snapshot_restore_fixed + ReserveRestoreChannel(busy) + busy;
  snap_registry_->NoteRestore(b.snapshot, prefetch, deps_zeroed);
  return plan;
}

void FaasRuntime::NoteRestoreTail(int fn, uint64_t tail_bytes) {
  VmBundle& b = vm(fn);
  if (snap_registry_ == nullptr || b.snapshot == kNoSnapshot) {
    return;
  }
  // Above the threshold the registry invalidates; the next fully-warm
  // idle of this VM re-records the grown working set.
  snap_registry_->NoteTail(b.snapshot, tail_bytes);
}

DurationNs FaasRuntime::ReserveRestoreChannel(DurationNs busy) {
  const TimeNs now = events_->now();
  // Prune completed transfers so restores_in_flight stays a live count.
  restore_ends_.erase(std::remove_if(restore_ends_.begin(), restore_ends_.end(),
                                     [now](TimeNs end) { return end <= now; }),
                      restore_ends_.end());
  const TimeNs start = std::max(now, restore_busy_until_);
  restore_busy_until_ = start + busy;
  restore_ends_.push_back(restore_busy_until_);
  return start - now;
}

size_t FaasRuntime::restores_in_flight() const {
  const TimeNs now = events_->now();
  size_t live = 0;
  for (const TimeNs end : restore_ends_) {
    live += end > now ? 1 : 0;
  }
  return live;
}

// --- Mechanism primitives (ReclaimHost) --------------------------------------------

uint64_t FaasRuntime::FreshReserveBytes(int fn) const {
  const VmBundle& b = *vms_[static_cast<size_t>(fn)];
  if (snap_registry_ == nullptr || b.snapshot == kNoSnapshot ||
      !snap_registry_->Recorded(b.snapshot)) {
    return b.plug_unit;
  }
  DriverSizing s;
  s.plug_unit = b.plug_unit;
  s.deps_region = b.deps_region;
  s.max_concurrency = b.max_concurrency;
  const uint64_t heap = snap_registry_->Image(b.snapshot).heap_bytes;
  return std::min(b.plug_unit, driver_->RestoredCommitment(s, heap));
}

void FaasRuntime::NoteUnreservedPlug(int fn, uint64_t shortfall) {
  vm(fn).snapshot_unreserved += shortfall;
}

uint64_t FaasRuntime::TakeSpare(int fn, uint64_t max_bytes) {
  VmBundle& b = vm(fn);
  const uint64_t taken = std::min(b.spare_plugged, max_bytes);
  b.spare_plugged -= taken;
  NoteAdmitInputs(fn);
  return taken;
}

void FaasRuntime::AddSpare(int fn, uint64_t bytes) {
  vm(fn).spare_plugged += bytes;
  NoteAdmitInputs(fn);
}

bool FaasRuntime::HasCancellableUnplug(int fn) const {
  const VmBundle& b = *vms_[static_cast<size_t>(fn)];
  return b.queued_unplugs > b.cancelled_unplugs;
}

bool FaasRuntime::TryCancelQueuedUnplug(int fn) {
  if (!HasCancellableUnplug(fn)) {
    return false;
  }
  ++vm(fn).cancelled_unplugs;
  NoteAdmitInputs(fn);
  return true;
}

void FaasRuntime::PlugAndGrant(int fn, uint64_t bytes, std::function<void(DurationNs)> ready) {
  VmBundle& b = vm(fn);
  const PlugOutcome out = b.guest->PlugMemory(bytes, events_->now());
  assert(out.complete && "device region must be sized for max concurrency");
  events_->ScheduleAfter(out.latency,
                        [ready = std::move(ready), lat = out.latency] { ready(lat); });
}

void FaasRuntime::StartUnplug(int fn) {
  VmBundle& b = vm(fn);
  // One virtio-mem worker per VM: requests issued while a previous unplug
  // is still migrating/offlining queue up behind it.
  if (events_->now() < b.unplug_busy_until) {
    ++b.queued_unplugs;
    NoteAdmitInputs(fn);
    events_->ScheduleAt(b.unplug_busy_until, [this, fn] {
      VmBundle& vb = vm(fn);
      --vb.queued_unplugs;
      NoteAdmitInputs(fn);
      if (vb.cancelled_unplugs > 0) {
        --vb.cancelled_unplugs;  // A scale-up already reused this memory.
        return;
      }
      StartUnplug(fn);
    });
    return;
  }
  const UnplugOutcome out = b.guest->UnplugMemory(b.plug_unit, events_->now());
  if (!out.complete) {
    ++unplug_incomplete_;
    // Squeezy: an "incomplete" unplug means the drained partition was
    // already re-assigned through the waitqueue (reuse-without-replug);
    // vanilla drivers bank the leftover as spare.  The driver decides.
    driver_->OnUnplugIncomplete(fn, b.plug_unit - out.bytes_unplugged);
  }
  b.unplug_busy_until = events_->now() + out.latency();
  // The virtio-mem worker's guest-side CPU time (migrations, zeroing)
  // competes with running instances (Fig 9).
  b.agent->AddKernelInterference(out.breakdown.total() - out.breakdown.vm_exits);
  const uint64_t released = out.bytes_unplugged;
  events_->ScheduleAfter(out.latency(), [this, fn, released] {
    // A snapshot-restored plug reserved less than the unit it plugged
    // (working-set-sized commitment); the shortfall pool absorbs the
    // un-reserved part of the release so the books never go negative.
    VmBundle& vb = vm(fn);
    const uint64_t take = std::min(vb.snapshot_unreserved, released);
    vb.snapshot_unreserved -= take;
    if (released > take) {
      host_.ReleaseReservation(released - take, events_->now());
    }
    TryServePending();
  });
}

void FaasRuntime::EnqueuePending(int fn, std::function<void(DurationNs)> ready) {
  ++pending_total_;
  pending_.push_back(PendingScaleUp{fn, std::move(ready)});
  NotifyHostState();
}

void FaasRuntime::ArmPressureTick() { pressure_timer_.Start(); }

void FaasRuntime::TryServePending() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    VmBundle& b = vm(it->fn);
    // A scale-up whose dependency image lost its residency while parked
    // (or was parked for exactly that reason) must re-charge the image
    // together with its plug unit — one atomic reservation, no torn book.
    const uint64_t image_need = ImageChargeNeeded(it->fn);
    // Snapshot-recorded functions reserve their restored commitment
    // (working-set-sized), not the full plug unit — same discount the
    // fresh-plug path applies.
    const uint64_t unit_need = FreshReserveBytes(it->fn);
    if (host_.TryReserve(unit_need + image_need, events_->now())) {
      if (image_need > 0) {
        ChargeImage(it->fn, image_need);
      }
      if (unit_need < b.plug_unit) {
        NoteUnreservedPlug(it->fn, b.plug_unit - unit_need);
      }
      std::function<void(DurationNs)> ready = std::move(it->ready);
      const int fn = it->fn;
      it = pending_.erase(it);
      NotifyHostState();
      PlugAndGrant(fn, vm(fn).plug_unit, std::move(ready));
    } else {
      ++it;  // FIFO with skip: smaller requests behind may still fit.
    }
  }
}

uint64_t FaasRuntime::PendingPlugBytes() const {
  uint64_t needed = 0;
  for (const PendingScaleUp& p : pending_) {
    needed += vms_[static_cast<size_t>(p.fn)]->plug_unit;
  }
  return needed;
}

uint64_t FaasRuntime::MakeRoom(uint64_t needed) {
  uint64_t expected = 0;
  while (expected < needed) {
    // Globally oldest idle instance across all VMs.  Instances that only
    // just went idle are spared: reaping them would immediately force a
    // re-spawn of the same function (the premature-reclamation pathology
    // the paper observes for aggressive policies, §6.2.2).
    int best = -1;
    TimeNs best_since = 0;
    for (size_t i = 0; i < vms_.size(); ++i) {
      const TimeNs since = vms_[i]->agent->OldestIdleSince();
      if (since >= 0 && since + Sec(2) <= events_->now() &&
          (best < 0 || since < best_since)) {
        best = static_cast<int>(i);
        best_since = since;
      }
    }
    if (best < 0) {
      break;  // Nothing idle to reclaim; pending scale-ups must wait.
    }
    // Eviction triggers the agent's release callback -> driver Release ->
    // unplug (async commitment release).
    vm(best).agent->EvictOldestIdle();
    expected += vm(best).plug_unit;
  }
  return expected;
}

size_t FaasRuntime::ReapAllIdle() {
  size_t evicted = 0;
  for (auto& b : vms_) {
    while (b->agent->EvictOldestIdle()) {
      ++evicted;
    }
  }
  return evicted;
}

bool FaasRuntime::PressureTick() {
  // Zero-ref images are reclaimable under pressure even when the last
  // release predated it (the release-path check saw an empty FIFO);
  // freeing them first gives the driver's tick room to serve with.
  MaybeEvictImages();
  driver_->PressureTick();
  // Keep ticking while some parked scale-up can still be served.  One that
  // can never be stays parked, but re-arming for it would tick forever.
  return std::any_of(pending_.begin(), pending_.end(),
                     [this](const PendingScaleUp& p) { return EverServable(p.fn); });
}

bool FaasRuntime::EverServable(int fn) const {
  const VmBundle& b = *vms_[static_cast<size_t>(fn)];
  uint64_t least = b.plug_unit;
  if (b.snapshot != kNoSnapshot) {
    // A recording can shrink the reservation down to the driver's
    // restored commitment for an empty working set.
    least = std::min(least, driver_->RestoredCommitment(
                                SizingFor(b.spec, b.max_concurrency), 0));
  }
  return boot_floor_ + least <= host_.capacity();
}

bool FaasRuntime::HasMemoryForFresh(int fn) const {
  const VmBundle& b = *vms_[static_cast<size_t>(fn)];
  if (driver_->AlwaysAdmits()) {
    return true;  // Everything is pre-plugged.
  }
  // An evicted dependency image must be re-charged alongside the plug
  // unit; 0 whenever the registry/image machinery is not in play.
  const uint64_t image_need = ImageChargeNeeded(fn);
  // Plugged-but-uncommitted-elsewhere memory this VM can reuse instantly.
  const uint64_t reusable = driver_->ReusablePlugged(fn);
  if (reusable >= b.plug_unit && image_need == 0) {
    return true;
  }
  // A pure fresh plug (no reuse) for a snapshot-recorded function only
  // reserves its restored commitment; partial reuse keeps the full unit
  // (matching the acquire path, which discounts only when from_spare == 0).
  const uint64_t need = reusable > 0 ? b.plug_unit - std::min(reusable, b.plug_unit)
                                     : FreshReserveBytes(fn);
  return host_.available() >= need + image_need;
}

bool FaasRuntime::CanAdmit(int fn) const {
  if (draining_) {
    return false;  // A draining host takes no new work.
  }
  const VmBundle& b = *vms_[static_cast<size_t>(fn)];
  if (b.agent->idle_instances() > 0) {
    return true;  // Warm reuse: no new memory needed.
  }
  if (b.agent->live_instances() >= b.max_concurrency) {
    return false;  // The N:1 VM is saturated; the request would queue.
  }
  return HasMemoryForFresh(fn);
}

// --- HostControl -------------------------------------------------------------------

HostSnapshot FaasRuntime::Snapshot(int local_fn) const {
  HostSnapshot s;
  s.committed = host_.committed();
  s.capacity = host_.capacity();
  s.available = host_.available();
  s.pending_scaleups = pending_.size();
  s.draining = draining_;
  s.can_admit = local_fn >= 0 && CanAdmit(local_fn);
  s.restores_in_flight = restores_in_flight();
  if (local_fn >= 0 && dep_registry_ != nullptr) {
    const DepImageId img = vms_[static_cast<size_t>(local_fn)]->dep_image;
    s.dep_image_populated = img != kNoDepImage && dep_registry_->Populated(host_id_, img);
  }
  if (local_fn >= 0 && snap_registry_ != nullptr) {
    // b.snapshot is only interned when the reclaim driver supports
    // restores, so a valid id already implies restore capability here.
    const SnapshotId snap = vms_[static_cast<size_t>(local_fn)]->snapshot;
    s.snapshot_restorable = snap != kNoSnapshot && snap_registry_->Recorded(snap);
  }
  return s;
}

bool FaasRuntime::DepImagePopulated(int local_fn) const {
  if (local_fn < 0 || dep_registry_ == nullptr) {
    return false;
  }
  const DepImageId img = vms_[static_cast<size_t>(local_fn)]->dep_image;
  return img != kNoDepImage && dep_registry_->Populated(host_id_, img);
}

bool FaasRuntime::SnapshotRestorableFor(int local_fn) const {
  if (local_fn < 0 || snap_registry_ == nullptr) {
    return false;
  }
  const SnapshotId snap = vms_[static_cast<size_t>(local_fn)]->snapshot;
  return snap != kNoSnapshot && snap_registry_->Recorded(snap);
}

void FaasRuntime::AttachStateListener(HostStateListener* listener, size_t host_id) {
  state_listener_ = listener;
  listener_host_ = host_id;
  // Committed mutates ONLY inside HostMemory::TryReserve/
  // ReleaseReservation; its observer turns both into deltas.
  host_.set_commit_observer([this] { NotifyHostState(); });
  NotifyHostState();  // Seed the listener with the current state.
}

void FaasRuntime::NotifyHostState() {
  if (state_listener_ != nullptr) {
    state_listener_->OnHostState(listener_host_, host_.committed(), pending_.size(),
                                 draining_);
  }
}

void FaasRuntime::NoteAdmitInputs(int fn) {
  if (state_listener_ != nullptr) {
    state_listener_->OnAdmitInputs(listener_host_, fn);
  }
}

uint64_t FaasRuntime::ProactiveReclaim(uint64_t bytes) {
  ++proactive_reclaims_;
  return driver_->ProactiveReclaim(bytes);
}

void FaasRuntime::Drain() {
  if (draining_) {
    return;
  }
  draining_ = true;
  NotifyHostState();
  driver_->OnDrain();
  // Unreferenced dependency images go with the drain (instances still
  // finishing keep theirs referenced until the drain tick reaps them and
  // the release path re-checks).
  MaybeEvictImages();
  drain_timer_.Start();
}

void FaasRuntime::Undrain() {
  draining_ = false;
  NotifyHostState();
}

ReplicaMigrationState FaasRuntime::EvictReplica(int local_fn) {
  VmBundle& b = vm(local_fn);
  ReplicaMigrationState s;
  s.busy_fraction = b.max_concurrency > 0
                        ? static_cast<double>(b.agent->busy_instances()) /
                              static_cast<double>(b.max_concurrency)
                        : 0.0;
  const Agent::WarmCapture cap = b.agent->CaptureAndEvictIdle();
  s.warm_instances = cap.instances;
  s.state_bytes = cap.anon_bytes;
  // The shared dependency image crosses the wire once per replica, and
  // only when there is warm state worth moving at all.
  s.deps_bytes = cap.instances > 0 ? b.spec.file_deps_bytes : 0;
  // Recorded-vs-delta split: the cluster snapshot recording reproduces
  // the stable prefix of every FULLY-warm instance's working set (an
  // instance mid-first-lifetime has no recording-shaped state yet), so a
  // snapshot-hit transfer needs to ship only what lies beyond it.  Zero
  // without an attached registry / restore-capable driver / valid
  // recording — the capture is bit-identical to the pre-snapshot path.
  if (snap_registry_ != nullptr && b.snapshot != kNoSnapshot && cap.fully_warm > 0) {
    const uint64_t per_instance = std::min(
        snap_registry_->RecordedHeapBytes(b.snapshot), b.spec.anon_working_set);
    s.recorded_bytes =
        std::min(per_instance * static_cast<uint64_t>(cap.fully_warm), s.state_bytes);
  }
  return s;
}

size_t FaasRuntime::AdoptableReplicas(int local_fn, size_t wanted) const {
  if (draining_ || wanted == 0) {
    return 0;
  }
  const VmBundle& b = *vms_[static_cast<size_t>(local_fn)];
  const size_t live = b.agent->live_instances();
  if (live >= b.max_concurrency) {
    return 0;
  }
  const size_t cap = std::min<size_t>(wanted, b.max_concurrency - live);
  if (driver_->AlwaysAdmits()) {
    return cap;
  }
  // Walk the same books the adoption loop will consume: the driver's
  // reusable plugged pool first (spare, cancellable unplugs, slack
  // buffers), then free commitment for the remainder of each unit.  An
  // evicted dependency image is re-charged up front, before any unit.
  uint64_t reusable = driver_->ReusablePlugged(local_fn);
  uint64_t avail = host_.available();
  const uint64_t image_need = ImageChargeNeeded(local_fn);
  if (avail < image_need) {
    return 0;
  }
  avail -= image_need;
  size_t n = 0;
  while (n < cap) {
    const uint64_t from_reuse = std::min(reusable, b.plug_unit);
    // Mirror HasMemoryForFresh: a pure fresh plug for a snapshot-recorded
    // function reserves only its restored commitment.
    const uint64_t need =
        from_reuse > 0 ? b.plug_unit - from_reuse : FreshReserveBytes(local_fn);
    if (avail < need) {
      break;
    }
    reusable -= from_reuse;
    avail -= need;
    ++n;
  }
  return n;
}

size_t FaasRuntime::AdoptReplica(int local_fn, const ReplicaMigrationState& state,
                                 TimeNs available_at) {
  if (draining_ || state.warm_instances == 0) {
    return 0;
  }
  VmBundle& b = vm(local_fn);
  const uint64_t per_instance = state.state_bytes / state.warm_instances;
  // Snapshot-hit transfer: state_bytes holds only the shipped delta;
  // each instance additionally bulk-restores its share of the recorded
  // portion from the cluster store on arrival.  0 on a full transfer.
  const uint64_t per_recorded = state.recorded_bytes / state.warm_instances;
  size_t adopted = 0;
  // Each adoption is admission-checked like a fresh scale-up (the
  // warm-reuse shortcut does not apply: an adopted instance always needs
  // its own plug unit) and then acquires through the driver, which
  // reserves host commitment synchronously — so the loop condition stays
  // accurate as instances land.
  while (adopted < state.warm_instances &&
         b.agent->live_instances() < b.max_concurrency && HasMemoryForFresh(local_fn)) {
    b.agent->AdoptWarmInstance(per_instance, per_recorded, available_at);
    ++adopted;
  }
  adopted_instances_ += adopted;
  return adopted;
}

bool FaasRuntime::DrainTick() {
  if (!draining_) {
    return false;
  }
  // Busy instances finish their requests, go idle, and are reaped on the
  // next tick; keep ticking until the host is empty (or undrained), not
  // counting spawns parked on a scale-up that can never be served.
  ReapAllIdle();
  size_t live = 0;
  for (const auto& b : vms_) {
    live += b->agent->live_instances();
  }
  const auto stuck = std::count_if(pending_.begin(), pending_.end(),
                                   [this](const PendingScaleUp& p) { return !EverServable(p.fn); });
  return live > static_cast<size_t>(stuck);
}

double FaasRuntime::ReclaimThroughputMiBps(int fn) const {
  const VmBundle& b = *vms_[static_cast<size_t>(fn)];
  const DurationNs busy = b.guest->virtio_mem().total_unplug_time();
  if (busy <= 0) {
    return 0.0;
  }
  const double mib = static_cast<double>(b.guest->virtio_mem().total_unplugged_bytes()) /
                     static_cast<double>(MiB(1));
  return mib / ToSec(busy);
}

}  // namespace squeezy
