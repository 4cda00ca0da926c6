#include "src/faas/agent.h"

#include <algorithm>
#include <cassert>

namespace squeezy {

Agent::Agent(EventQueue* events, GuestKernel* guest, SqueezyManager* sqz, FunctionSpec spec,
             const AgentConfig& config, AgentCallbacks callbacks, uint64_t seed)
    : events_(events),
      guest_(guest),
      sqz_(sqz),
      spec_(std::move(spec)),
      config_(config),
      callbacks_(std::move(callbacks)),
      rng_(seed) {
  assert(events_ != nullptr && guest_ != nullptr);
  assert(!config_.use_squeezy || sqz_ != nullptr);
  deps_file_ = guest_->CreateFile(spec_.name + "-deps", spec_.file_deps_bytes);
}

// --- Processor-sharing scheduler ---------------------------------------------

double Agent::CurrentRate() const {
  if (instance_demand_ <= 0) {
    return 1.0;
  }
  // Kernel threads preempt instance work: they run at full priority, so
  // instances share what is left of the vCPUs.
  const double available =
      std::max(0.05, static_cast<double>(config_.vcpus) - kernel_threads_busy_);
  return std::min(1.0, available / instance_demand_);
}

void Agent::UpdateProgressAndCancel() {
  const double rate = CurrentRate();
  const TimeNs now = events_->now();
  for (auto& [id, item] : work_) {
    (void)id;
    item.remaining -= ToSec(now - item.last_update) * rate;
    if (item.remaining < 0) {
      item.remaining = 0;
    }
    item.last_update = now;
  }
  if (completion_ != kInvalidEventId) {
    events_->Cancel(completion_);
    completion_ = kInvalidEventId;
  }
}

std::pair<TimeNs, uint64_t> Agent::EarliestCompletion() const {
  assert(!work_.empty());
  const double rate = CurrentRate();
  std::pair<TimeNs, uint64_t> best{0, 0};
  for (const auto& [id, item] : work_) {
    const DurationNs eta = Sec(item.remaining / rate);
    const TimeNs when = item.last_update + std::max<DurationNs>(eta, 0);
    // Ids ascend, so a strict < keeps the lowest id among equal times.
    if (best.second == 0 || when < best.first) {
      best = {when, id};
    }
  }
  return best;
}

void Agent::RescheduleAll() {
  assert(completion_ == kInvalidEventId);
  if (work_.empty()) {
    return;
  }
  // Every item was just brought up to now, so each completion time is
  // now + its eta, as if each item had its own event.
  const auto [when, wid] = EarliestCompletion();
  completion_ = events_->ScheduleAt(when, [this, wid = wid] { CompleteWork(wid); });
}

uint64_t Agent::StartWork(double share, DurationNs work, std::function<void()> on_done) {
  UpdateProgressAndCancel();
  const uint64_t id = next_work_id_++;
  WorkItem item;
  item.share = share;
  item.remaining = ToSec(std::max<DurationNs>(work, 0));
  item.last_update = events_->now();
  item.on_done = std::move(on_done);
  work_.emplace(id, std::move(item));
  instance_demand_ += share;
  RescheduleAll();
  return id;
}

void Agent::CompleteWork(uint64_t id) {
  auto it = work_.find(id);
  assert(it != work_.end());
  // The rate has not changed since the batch was scheduled (a change
  // cancels it), so the batch is recomputed exactly: the firing item must
  // be its earliest.
  assert(EarliestCompletion().second == id);
  completion_ = kInvalidEventId;  // Our event just fired.
  UpdateProgressAndCancel();
  std::function<void()> on_done = std::move(it->second.on_done);
  instance_demand_ -= it->second.share;
  if (instance_demand_ < 1e-12) {
    instance_demand_ = 0;
  }
  work_.erase(it);
  RescheduleAll();
  on_done();
}

void Agent::AddKernelInterference(DurationNs duration) {
  if (duration <= 0) {
    return;
  }
  UpdateProgressAndCancel();
  ++kernel_threads_busy_;
  RescheduleAll();
  events_->ScheduleAfter(duration, [this] {
    UpdateProgressAndCancel();
    --kernel_threads_busy_;
    RescheduleAll();
  });
}

// --- Instance lifecycle -----------------------------------------------------------

size_t Agent::idle_instances() const { return CountIn(InstanceState::kIdle); }

size_t Agent::busy_instances() const { return CountIn(InstanceState::kBusy); }

size_t Agent::live_instances() const {
  return instances_.size() - CountIn(InstanceState::kEvicted);
}

size_t Agent::memory_granted_instances() const {
  return CountIn(InstanceState::kColdStart) + CountIn(InstanceState::kIdle) +
         CountIn(InstanceState::kBusy);
}

int32_t Agent::NewInstance() {
  const auto id = static_cast<int32_t>(instances_.size());
  instances_.push_back(std::make_unique<Instance>());
  instance(id).id = id;
  ++state_counts_[static_cast<size_t>(instance(id).state)];
  NoteAdmitInputs();
  instance_series_.Push(events_->now(), static_cast<double>(live_instances()));
  return id;
}

void Agent::SetState(Instance& inst, InstanceState state) {
  if (inst.state == InstanceState::kIdle) {
    idle_order_.erase({inst.idle_since, inst.id});
  }
  --state_counts_[static_cast<size_t>(inst.state)];
  ++state_counts_[static_cast<size_t>(state)];
  inst.state = state;
  assert(CountsMatchScan());
  NoteAdmitInputs();
  if (state == InstanceState::kEvicted) {
    instance_series_.Push(events_->now(), static_cast<double>(live_instances()));
  }
}

bool Agent::CountsMatchScan() const {
  std::array<size_t, kInstanceStates> scan{};
  for (const auto& inst : instances_) {
    ++scan[static_cast<size_t>(inst->state)];
  }
  return scan == state_counts_;
}

void Agent::Submit() {
  queue_.push_back(events_->now());
  DispatchQueue();
  MaybeSpawn();
}

void Agent::MaybeSpawn() {
  while (spawning_ < queue_.size() && live_instances() < config_.max_concurrency) {
    const int32_t id = NewInstance();
    ++spawning_;
    ++spawns_;
    // Ask the host runtime for memory (admission + plug); the reply may
    // arrive much later when host memory is scarce.
    callbacks_.acquire_memory(
        [this, id](DurationNs vmm_latency) { OnMemoryReady(id, vmm_latency); });
  }
}

void Agent::OnMemoryReady(int32_t instance_id, DurationNs vmm_latency) {
  Instance& inst = instance(instance_id);
  assert(inst.state == InstanceState::kWaitingMemory);
  inst.cold.vmm = vmm_latency;
  SetState(inst, InstanceState::kColdStart);
  inst.pid = guest_->CreateProcess();
  guest_->process(inst.pid).MapFile(deps_file_);
  if (config_.use_squeezy) {
    // The syscall interface: park on the waitqueue if the plug has not
    // populated a partition yet (§4.1).  The runtime couples plug events
    // with spawns, so in practice this fires immediately.
    sqz_->SqueezyEnableAsync(inst.pid, [this, instance_id](int32_t) {
      RunColdPhases(instance_id);
    });
  } else {
    RunColdPhases(instance_id);
  }
}

void Agent::RunColdPhases(int32_t instance_id) {
  Instance& inst = instance(instance_id);
  if (callbacks_.try_restore) {
    const SnapshotRestorePlan plan = callbacks_.try_restore(inst.pid);
    if (plan.oom) {
      SetState(inst, InstanceState::kEvicted);
      assert(spawning_ > 0);
      --spawning_;
      callbacks_.release_memory();
      MaybeSpawn();
      return;
    }
    if (plan.restored) {
      // Snapshot restore replaces the serial container/function-init
      // phases with one bulk prefetch; the first execution still runs
      // cold and demand-faults whatever the recording missed (the tail).
      inst.restored = true;
      inst.anon_touched = plan.heap_bytes;
      const TimeNs restore_start = events_->now();
      StartWork(1.0, plan.latency, [this, instance_id, restore_start] {
        Instance& i = instance(instance_id);
        i.cold.function_init = events_->now() - restore_start;
        assert(spawning_ > 0);
        --spawning_;
        BecomeIdle(instance_id);
      });
      return;
    }
  }
  const TimeNs container_start = events_->now();

  // Container init: sandbox setup + rootfs reads.  In the N:1 model the
  // rootfs is usually already in the shared guest page cache — that is
  // where the paper's 1.33x container-init speedup comes from.
  const uint64_t rootfs_bytes =
      static_cast<uint64_t>(static_cast<double>(spec_.file_deps_bytes) * spec_.rootfs_fraction);
  const TouchResult rootfs = guest_->TouchFile(inst.pid, deps_file_, rootfs_bytes, container_start);
  StartWork(1.0, spec_.container_init_cpu + rootfs.latency, [this, instance_id, container_start] {
    Instance& i = instance(instance_id);
    i.cold.container_init = events_->now() - container_start;

    // Function init: language runtime + model load + initial anon faults.
    const TimeNs init_start = events_->now();
    const TouchResult deps = guest_->TouchFile(i.pid, deps_file_, spec_.file_deps_bytes, init_start);
    const uint64_t init_anon = static_cast<uint64_t>(
        static_cast<double>(spec_.anon_working_set) * spec_.init_anon_fraction);
    const TouchResult anon = guest_->TouchAnon(i.pid, init_anon, init_start);
    if (anon.oom) {
      // The instance blew its partition / the VM: reap it.
      SetState(i, InstanceState::kEvicted);
      assert(spawning_ > 0);
      --spawning_;
      callbacks_.release_memory();
      MaybeSpawn();
      return;
    }
    i.anon_touched = anon.bytes;
    StartWork(1.0, spec_.function_init_cpu + deps.latency + anon.latency,
              [this, instance_id, init_start] {
                Instance& j = instance(instance_id);
                j.cold.function_init = events_->now() - init_start;
                assert(spawning_ > 0);
                --spawning_;
                BecomeIdle(instance_id);
              });
  });
}

void Agent::BecomeIdle(int32_t instance_id) {
  Instance& inst = instance(instance_id);
  SetState(inst, InstanceState::kIdle);
  inst.idle_since = events_->now();
  idle_order_.insert({inst.idle_since, inst.id});
  ScheduleKeepAlive(instance_id);
  // Going idle leaves the live count as it was: the series already holds it.
  assert(instance_series_.points().back().value == static_cast<double>(live_instances()));
  if (callbacks_.instance_idle) {
    callbacks_.instance_idle();
  }
  DispatchQueue();
}

void Agent::DispatchQueue() {
  while (!queue_.empty() && !idle_order_.empty()) {
    // Most recently idled instance first (warm caches); among instances
    // idled at the same instant, the lowest id.
    const TimeNs newest = idle_order_.rbegin()->first;
    const int32_t best = idle_order_.lower_bound({newest, 0})->second;
    const TimeNs arrival = queue_.front();
    queue_.pop_front();
    StartExec(best, arrival);
  }
}

void Agent::StartExec(int32_t instance_id, TimeNs arrival) {
  Instance& inst = instance(instance_id);
  assert(inst.state == InstanceState::kIdle);
  if (inst.keepalive_event != kInvalidEventId) {
    events_->Cancel(inst.keepalive_event);
    inst.keepalive_event = kInvalidEventId;
  }
  SetState(inst, InstanceState::kBusy);

  const TimeNs exec_start = events_->now();
  DurationNs work = static_cast<DurationNs>(
      rng_.LogNormal(static_cast<double>(spec_.exec_cpu_mean), spec_.exec_cv));
  const bool cold = !inst.first_exec_done;
  if (cold) {
    // First execution touches the rest of the anonymous working set (an
    // oversized stale recording can exceed it; nothing is left then).
    const uint64_t rest = spec_.anon_working_set > inst.anon_touched
                              ? spec_.anon_working_set - inst.anon_touched
                              : 0;
    const TouchResult anon = guest_->TouchAnon(inst.pid, rest, exec_start);
    if (anon.oom) {
      SetState(inst, InstanceState::kEvicted);
      callbacks_.release_memory();
      return;
    }
    work += anon.latency;
    if (inst.restored && callbacks_.restore_tail) {
      // Everything demand-faulted past the recording is staleness signal.
      callbacks_.restore_tail(anon.bytes);
    }
  }
  // Hot-path file pages re-read per request (cached: remap cost only).
  const uint64_t exec_file = static_cast<uint64_t>(
      static_cast<double>(spec_.file_deps_bytes) * spec_.exec_file_fraction);
  work += guest_->TouchFile(inst.pid, deps_file_, exec_file, exec_start).latency;

  StartWork(spec_.vcpu_shares, work, [this, instance_id, arrival, exec_start, cold] {
    Instance& i = instance(instance_id);
    requests_.Append(arrival, events_->now(), cold);
    if (cold) {
      i.first_exec_done = true;
      i.cold.first_exec = events_->now() - exec_start;
      cold_starts_.push_back(i.cold);
    }
    BecomeIdle(instance_id);
  });
}

void Agent::ScheduleKeepAlive(int32_t instance_id) {
  Instance& inst = instance(instance_id);
  inst.keepalive_event = events_->ScheduleAfter(config_.keep_alive, [this, instance_id] {
    Instance& i = instance(instance_id);
    i.keepalive_event = kInvalidEventId;
    if (i.state == InstanceState::kIdle) {
      Evict(instance_id);
    }
  });
}

void Agent::Evict(int32_t instance_id) {
  Instance& inst = instance(instance_id);
  assert(inst.state == InstanceState::kIdle);
  if (inst.keepalive_event != kInvalidEventId) {
    events_->Cancel(inst.keepalive_event);
    inst.keepalive_event = kInvalidEventId;
  }
  guest_->Exit(inst.pid);
  SetState(inst, InstanceState::kEvicted);
  ++evictions_;
  callbacks_.release_memory();
}

Agent::WarmCapture Agent::CaptureAndEvictIdle() {
  WarmCapture cap;
  for (const auto& [since, id] : idle_order_) {
    (void)since;
    const Instance* inst = instances_[static_cast<size_t>(id)].get();
    ++cap.instances;
    // A fully-warmed instance's transferable state is its whole working
    // set; one still in its first lifetime has only touched the init part.
    if (inst->first_exec_done) {
      ++cap.fully_warm;
      cap.anon_bytes += spec_.anon_working_set;
    } else {
      cap.anon_bytes += inst->anon_touched;
    }
  }
  while (EvictOldestIdle()) {
  }
  return cap;
}

void Agent::AdoptWarmInstance(uint64_t anon_bytes, uint64_t recorded_bytes,
                              TimeNs available_at) {
  const int32_t id = NewInstance();
  ++spawns_;
  callbacks_.acquire_memory(
      [this, id, anon_bytes, recorded_bytes, available_at](DurationNs vmm_latency) {
        Instance& inst = instance(id);
        assert(inst.state == InstanceState::kWaitingMemory);
        inst.cold.vmm = vmm_latency;
        SetState(inst, InstanceState::kColdStart);  // Transient: restoring state.
        inst.pid = guest_->CreateProcess();
        guest_->process(inst.pid).MapFile(deps_file_);
        if (config_.use_squeezy) {
          sqz_->SqueezyEnableAsync(
              inst.pid,
              [this, id, anon_bytes, recorded_bytes, available_at](int32_t) {
                RestoreWarmState(id, anon_bytes, recorded_bytes, available_at);
              });
        } else {
          RestoreWarmState(id, anon_bytes, recorded_bytes, available_at);
        }
      });
}

void Agent::RestoreWarmState(int32_t instance_id, uint64_t anon_bytes,
                             uint64_t recorded_bytes, TimeNs available_at) {
  Instance& inst = instance(instance_id);
  // Snapshot-hit arrival: the recorded portion never crossed the wire —
  // bulk-restore it from the cluster snapshot store (one nested populate,
  // no per-page demand faults).  Zero outside the snapshot path, keeping
  // the plain migration landing bit-identical.
  uint64_t restored_bytes = 0;
  DurationNs restore_latency = 0;
  if (recorded_bytes > 0) {
    const RestoreOutcome rest = guest_->RestoreWorkingSet(
        inst.pid, deps_file_, /*file_pages=*/0, recorded_bytes, events_->now());
    if (rest.oom) {
      SetState(inst, InstanceState::kEvicted);
      callbacks_.release_memory();
      return;
    }
    restored_bytes = rest.anon_bytes;
    restore_latency = rest.nested;
    // The bulk populate rides the host's single restore channel: when
    // several snapshot-hit migrations land in the same window, each waits
    // out the transfers queued ahead of it.
    if (callbacks_.restore_channel) {
      restore_latency += callbacks_.restore_channel(rest.nested);
    }
  }
  // Fault the transferred anonymous state back in; dependency pages come
  // through the shared guest page cache as for any instance.
  const TouchResult anon = guest_->TouchAnon(inst.pid, anon_bytes, events_->now());
  if (anon.oom) {
    SetState(inst, InstanceState::kEvicted);
    callbacks_.release_memory();
    return;
  }
  inst.anon_touched = restored_bytes + anon.bytes;
  inst.first_exec_done = true;  // Warm: the next request is NOT a cold start.
  const TimeNs ready =
      std::max(events_->now() + restore_latency + anon.latency, available_at);
  events_->ScheduleAt(ready, [this, instance_id] { BecomeIdle(instance_id); });
}

uint64_t Agent::MaxWarmAnonBytes() const {
  // A fully warmed instance has touched its whole working set (same
  // convention as CaptureAndEvictIdle); one mid-first-lifetime has not
  // finished faulting and is not a recordable state.
  for (const auto& inst : instances_) {
    if (inst->state != InstanceState::kEvicted && inst->first_exec_done) {
      return spec_.anon_working_set;
    }
  }
  return 0;
}

bool Agent::EvictOldestIdle() {
  if (idle_order_.empty()) {
    return false;
  }
  Evict(idle_order_.begin()->second);
  return true;
}

}  // namespace squeezy
