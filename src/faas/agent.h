// The in-VM dispatcher ("Agent", paper §4.2/§6.2).
//
// Receives invocations for one function, reuses idle instances
// (keep-alive), spawns new instances on demand (cold start), evicts idle
// ones when the keep-alive window expires, and shares the VM's vCPUs
// among running work using a processor-sharing model.  Kernel threads
// (the virtio-mem worker migrating pages during unplug) register their
// demand here, which is how unplug interference reaches request latency
// (paper Fig 9).
#ifndef SQUEEZY_FAAS_AGENT_H_
#define SQUEEZY_FAAS_AGENT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/core/squeezy.h"
#include "src/faas/function.h"
#include "src/guest/guest_kernel.h"
#include "src/metrics/latency_recorder.h"
#include "src/metrics/time_series.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace squeezy {

struct ColdStartBreakdown {
  DurationNs vmm = 0;             // Plug latency (N:1) or microVM boot (1:1).
  DurationNs container_init = 0;  // Sandbox setup (wall, incl. contention).
  DurationNs function_init = 0;   // Runtime/model init.
  DurationNs first_exec = 0;      // First request execution.

  DurationNs total() const { return vmm + container_init + function_init + first_exec; }
};

struct RequestRecord {
  TimeNs arrival = 0;
  TimeNs done = 0;
  bool cold = false;

  DurationNs latency() const { return done - arrival; }
};

// An agent's completed requests, in completion order, stored as columns:
// the arrival time, a cold bit, and the latency sample the agent's
// LatencyRecorder already holds (16 B and a bit per request).  Entry i
// is samples()[i] of that recorder, so `done` is arrival + latency.
// Reads yield RequestRecord by value.
class RequestLog {
 public:
  class Iterator {
   public:
    Iterator(const RequestLog* log, size_t i) : log_(log), i_(i) {}
    RequestRecord operator*() const { return (*log_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return i_ != o.i_; }

   private:
    const RequestLog* log_;
    size_t i_;
  };

  void Append(TimeNs arrival, TimeNs done, bool cold) {
    arrivals_.push_back(arrival);
    cold_.push_back(cold);
    latencies_.Record(done - arrival);
  }

  size_t size() const { return arrivals_.size(); }
  RequestRecord operator[](size_t i) const {
    RequestRecord r;
    r.arrival = arrivals_[i];
    r.done = arrivals_[i] + latencies_.samples()[i];
    r.cold = cold_[i];
    return r;
  }
  RequestRecord back() const { return (*this)[size() - 1]; }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

  const LatencyRecorder& latencies() const { return latencies_; }

 private:
  std::vector<TimeNs> arrivals_;
  std::vector<bool> cold_;
  LatencyRecorder latencies_;  // The latency column.
};

enum class InstanceState : uint8_t {
  kWaitingMemory,  // Scale-up admitted, waiting for plug/boot.
  kColdStart,      // Running container/function init.
  kIdle,
  kBusy,
  kEvicted,
};

struct AgentConfig {
  uint32_t max_concurrency = 8;       // N of the N:1 VM.
  uint32_t vcpus = 8;
  DurationNs keep_alive = Minutes(2); // Paper §6.2: 2-minute window.
  bool use_squeezy = false;           // Assign instances to Squeezy partitions.
};

// The runtime's answer to a snapshot-restore attempt at cold-start time.
struct SnapshotRestorePlan {
  bool restored = false;     // A recording existed and was bulk-prefetched.
  bool oom = false;          // Restore allocation failed; process OOM-killed.
  DurationNs latency = 0;    // Fixed + prefetch + bulk-populate time.
  uint64_t heap_bytes = 0;   // Anonymous bytes the restore already touched.
};

// Runtime-side hooks: memory acquisition/release crosses the VM boundary.
struct AgentCallbacks {
  // Secure memory for one new instance (admission + plug).  Must invoke
  // `ready(vmm_latency)` once the memory is available — possibly much
  // later under host memory pressure.
  std::function<void(std::function<void(DurationNs)> ready)> acquire_memory;
  // An instance was evicted and its process exited; reclaim its memory.
  std::function<void()> release_memory;
  // Optional: an instance went idle (cold start or request just
  // finished).  The runtime uses it to observe that the VM's dependency
  // image is now fully faulted (cluster dep-cache population signal) and
  // to record the function's snapshot at first fully-warm idle.
  std::function<void()> instance_idle;
  // Optional (snapshot registry attached): attempt a REAP-style restore
  // for the cold-starting process — the runtime maps the recorded working
  // set and returns the bulk-prefetch latency, replacing the serial
  // container/function-init phases.  restored == false falls back to them.
  std::function<SnapshotRestorePlan(Pid)> try_restore;
  // Optional: a restored instance finished its first execution having
  // demand-faulted `tail_bytes` outside the recording (the staleness
  // signal the registry's re-record policy consumes).
  std::function<void(uint64_t tail_bytes)> restore_tail;
  // Optional: reserve the host's single restore-prefetch channel for
  // `busy` time starting now; returns the queueing delay before this
  // transfer can begin (0 when the channel is free).  Concurrent
  // RestoreWorkingSet bulk prefetches on one host — migration landings
  // and cold-start restores — serialize through it.
  std::function<DurationNs(DurationNs busy)> restore_channel;
  // Optional: an instance was created or changed state, so the idle and
  // live counts that host admission reads may have moved (the cluster
  // placement index re-checks this VM before its next decision).
  std::function<void()> admit_inputs_changed;
};

class Agent {
 public:
  Agent(EventQueue* events, GuestKernel* guest, SqueezyManager* sqz, FunctionSpec spec,
        const AgentConfig& config, AgentCallbacks callbacks, uint64_t seed);

  // One invocation arriving now.
  void Submit();

  // Registers kernel-thread CPU demand (e.g. the virtio-mem worker doing
  // unplug migrations) for `duration` starting now: running requests slow
  // down proportionally.
  void AddKernelInterference(DurationNs duration);

  // Evicts the longest-idle instance immediately (proactive reclamation /
  // memory pressure).  Returns false if no instance is idle.
  bool EvictOldestIdle();

  // --- Live migration (replica state capture / restore) ---------------------------
  // Warm state of every idle instance: how many there are and the
  // anonymous bytes they had touched (fully-warmed instances count their
  // whole working set).  fully_warm counts the instances past their first
  // execution — the ones whose state a cluster snapshot recording covers,
  // which is what the snapshot-hit migration path sizes its recorded
  // portion from.
  struct WarmCapture {
    size_t instances = 0;
    size_t fully_warm = 0;
    uint64_t anon_bytes = 0;
  };
  // Captures the warm state and evicts those instances in one step
  // (migration source path); each eviction releases memory through the
  // normal release callback, so the commitment flows back at the host's
  // reclaim-driver speed.  Busy instances are untouched.
  WarmCapture CaptureAndEvictIdle();
  // Re-creates one warm instance from migrated state (destination path):
  // memory is acquired through the normal admission path, `anon_bytes` of
  // transferred state are faulted back in, and the instance goes idle
  // with its first execution already done — no cold-start phases — no
  // earlier than `available_at` (the state-transfer completion instant).
  // On a snapshot-hit transfer `recorded_bytes` of the state did NOT
  // cross the wire: they are bulk-restored from the cluster snapshot
  // store (GuestKernel::RestoreWorkingSet — one nested populate) while
  // `anon_bytes` holds only the shipped delta; 0 keeps the pre-snapshot
  // demand-fault path bit-identical.
  void AdoptWarmInstance(uint64_t anon_bytes, uint64_t recorded_bytes,
                         TimeNs available_at);

  // Idle-since time of the longest-idle instance, or -1 if none is idle.
  // O(1): the first entry of the idle order.
  TimeNs OldestIdleSince() const {
    return idle_order_.empty() ? -1 : idle_order_.begin()->first;
  }

  // --- Introspection ------------------------------------------------------------
  size_t idle_instances() const;
  size_t busy_instances() const;
  size_t live_instances() const;  // idle + busy + starting.
  // Instances whose memory grant landed (cold-starting, idle or busy) —
  // the population the dep-cache image refcount tracks; excludes spawns
  // still waiting on memory.
  size_t memory_granted_instances() const;
  size_t queued_requests() const { return queue_.size(); }
  const FunctionSpec& spec() const { return spec_; }
  const AgentConfig& config() const { return config_; }
  // The shared dependency file backing this VM's page-cache image.
  int32_t deps_file() const { return deps_file_; }
  // Largest anonymous footprint among fully warmed instances (first exec
  // done), or 0 when none is — what a snapshot recording captures as the
  // function's heap working set.
  uint64_t MaxWarmAnonBytes() const;

  // --- Metrics --------------------------------------------------------------------
  // Every completed request, in completion order; latencies() is its
  // latency column.
  const RequestLog& requests() const { return requests_; }
  const LatencyRecorder& latencies() const { return requests_.latencies(); }
  const std::vector<ColdStartBreakdown>& cold_starts() const { return cold_starts_; }
  // Every instance ever created, evicted ones included (ids 0..n-1), and
  // the two fields the idle picks rank on — for oracles that re-derive
  // those picks by scanning.
  size_t instances_created() const { return instances_.size(); }
  InstanceState instance_state(int32_t id) const {
    return instances_[static_cast<size_t>(id)]->state;
  }
  TimeNs instance_idle_since(int32_t id) const {
    return instances_[static_cast<size_t>(id)]->idle_since;
  }
  // Live instances over time: one point per instance created (spawn or
  // adoption) and per eviction, the only changes to live_instances().
  const StepSeries& instance_series() const { return instance_series_; }
  uint64_t total_evictions() const { return evictions_; }
  uint64_t total_spawns() const { return spawns_; }

 private:
  struct Instance {
    int32_t id = -1;
    InstanceState state = InstanceState::kWaitingMemory;
    Pid pid = kNoPid;
    TimeNs idle_since = 0;
    EventId keepalive_event = kInvalidEventId;
    ColdStartBreakdown cold;
    bool first_exec_done = false;
    bool restored = false;  // Cold start served from a snapshot recording.
    uint64_t anon_touched = 0;
  };

  // One running piece of instance work.  It has no event of its own: the
  // agent keeps one completion event, for the item that finishes first.
  struct WorkItem {
    double share = 1.0;    // vCPU demand while running.
    double remaining = 0;  // Seconds of wall-work left at rate 1.
    TimeNs last_update = 0;
    std::function<void()> on_done;
  };

  // --- Scheduler -----------------------------------------------------------------
  // Current progress rate for instance work: min(1, cpus_left / demand).
  double CurrentRate() const;
  // Applies the current rate to every item's remaining work and cancels
  // the pending completion event (call before any demand change).
  void UpdateProgressAndCancel();
  // Schedules the completion of the item with the smallest (eta, work id)
  // under the current rate.  Every rate change cancels the whole batch,
  // so that item is the only one whose completion could ever fire.
  void RescheduleAll();
  // (completion time, work id) of the item that finishes first under the
  // current rate, measured from each item's last update; work_ non-empty.
  std::pair<TimeNs, uint64_t> EarliestCompletion() const;
  uint64_t StartWork(double share, DurationNs work, std::function<void()> on_done);
  void CompleteWork(uint64_t id);

  // --- Lifecycle -----------------------------------------------------------------
  void MaybeSpawn();
  void OnMemoryReady(int32_t instance_id, DurationNs vmm_latency);
  void RunColdPhases(int32_t instance_id);
  void BecomeIdle(int32_t instance_id);
  void DispatchQueue();
  void StartExec(int32_t instance_id, TimeNs arrival);
  void ScheduleKeepAlive(int32_t instance_id);
  void Evict(int32_t instance_id);
  void RestoreWarmState(int32_t instance_id, uint64_t anon_bytes,
                        uint64_t recorded_bytes, TimeNs available_at);

  Instance& instance(int32_t id) { return *instances_[static_cast<size_t>(id)]; }
  // Appends a new instance (in kWaitingMemory), pushes the live count to
  // instance_series_ and returns its id.
  int32_t NewInstance();
  // Every instance state change goes through here, so the per-state counts
  // stay O(1) to read even though instances_ never shrinks.  Leaving
  // kIdle drops the instance from the idle order; entering it does not
  // add it (BecomeIdle does, once idle_since is set).  Entering kEvicted
  // pushes the live count to instance_series_.
  void SetState(Instance& inst, InstanceState state);
  void NoteAdmitInputs() {
    if (callbacks_.admit_inputs_changed) {
      callbacks_.admit_inputs_changed();
    }
  }
  size_t CountIn(InstanceState state) const {
    return state_counts_[static_cast<size_t>(state)];
  }
  // Debug cross-check: the counts equal a scan of every instance.
  bool CountsMatchScan() const;

  EventQueue* events_;
  GuestKernel* guest_;
  SqueezyManager* sqz_;  // Null for vanilla / static VMs.
  FunctionSpec spec_;
  AgentConfig config_;
  AgentCallbacks callbacks_;
  Rng rng_;
  int32_t deps_file_ = -1;

  std::vector<std::unique_ptr<Instance>> instances_;
  static constexpr size_t kInstanceStates =
      static_cast<size_t>(InstanceState::kEvicted) + 1;
  std::array<size_t, kInstanceStates> state_counts_{};  // Instances per state.
  // (idle_since, id) of every idle instance.  begin() is the eviction
  // pick (oldest, ties to the lowest id); the first entry of the last
  // idle_since group is the dispatch pick (newest, ties to the lowest id).
  std::set<std::pair<TimeNs, int32_t>> idle_order_;
  std::deque<TimeNs> queue_;  // Arrival times of waiting requests.
  size_t spawning_ = 0;

  // Processor-sharing state.
  std::map<uint64_t, WorkItem> work_;
  uint64_t next_work_id_ = 1;
  // The one pending completion event (kInvalidEventId when none).
  EventId completion_ = kInvalidEventId;
  double instance_demand_ = 0;  // Sum of shares of running work items.
  int kernel_threads_busy_ = 0;

  // Metrics.
  RequestLog requests_;
  std::vector<ColdStartBreakdown> cold_starts_;
  StepSeries instance_series_;
  uint64_t evictions_ = 0;
  uint64_t spawns_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_FAAS_AGENT_H_
