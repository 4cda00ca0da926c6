// The guest OS kernel facade.
//
// Owns the memory map, zones, allocator fault paths, page cache, process
// table and the hot(un)plug devices of one VM.  Implements the *vanilla*
// Linux policies (ZONE_MOVABLE onlining, occupancy-ranked unplug with
// migration); the Squeezy extension (src/core) overrides them through the
// VirtioMemHooks indirection and the process-lifecycle observer.
#ifndef SQUEEZY_GUEST_GUEST_KERNEL_H_
#define SQUEEZY_GUEST_GUEST_KERNEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/guest/process.h"
#include "src/host/hypervisor.h"
#include "src/hotplug/balloon.h"
#include "src/hotplug/hotplug.h"
#include "src/hotplug/virtio_mem.h"
#include "src/mm/memmap.h"
#include "src/mm/migration.h"
#include "src/mm/page_cache.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"
#include "src/sim/cpu_accountant.h"
#include "src/sim/rng.h"

namespace squeezy {

// Squeezy (or any other MM extension) observes process lifecycle events
// to maintain partition refcounts (paper §4.1: fork handling).
class ProcessLifecycleObserver {
 public:
  virtual ~ProcessLifecycleObserver() = default;
  virtual void OnFork(Process& parent, Process& child) = 0;
  virtual void OnExit(Process& proc) = 0;
};

// Vanilla unplug candidate ordering.  Linux virtio-mem walks the device
// region by address (highest block first); ranking by occupancy is a
// hypothetical smarter baseline kept for the ablation study.
enum class UnplugSelection : uint8_t {
  kAddressDescending,  // Linux behaviour (default).
  kEmptiestFirst,      // Fewest occupied pages first.
};

struct GuestConfig {
  std::string name = "vm";
  uint32_t vcpus = 1;
  // Boot RAM: kernel + unmovable allocations (ZONE_NORMAL).
  uint64_t base_memory = MiB(512);
  // virtio-mem device region size (hot-pluggable span above base memory).
  uint64_t hotplug_region = GiB(8);
  UnplugSelection unplug_selection = UnplugSelection::kAddressDescending;
  // Virtual time at which the VM boots (microVMs boot mid-simulation).
  TimeNs boot_time = 0;
  // Emulate steady-state allocator scatter (see Zone).  The paper's Fig 6
  // attributes vanilla unplug jitter to exactly this randomness.
  bool shuffle_allocator = true;
  uint64_t seed = 1;
  DurationNs unplug_timeout = Sec(5);
};

struct TouchResult {
  uint64_t bytes = 0;        // Bytes actually faulted in.
  DurationNs latency = 0;    // Guest fault time + nested-fault (EPT) time.
  DurationNs nested = 0;     // Portion spent in nested page faults.
  bool oom = false;          // Allocation failed; process was OOM-killed.
};

// Result of a snapshot working-set restore (RestoreWorkingSet).
struct RestoreOutcome {
  uint64_t file_bytes = 0;  // Dependency-file bytes mapped from the snapshot.
  uint64_t anon_bytes = 0;  // Anonymous heap bytes restored to the process.
  DurationNs nested = 0;    // One bulk EPT populate for the whole span.
  bool oom = false;         // Allocation failed; process was OOM-killed.
};

class GuestKernel : public OwnerRegistry, public VirtioMemHooks {
 public:
  GuestKernel(const GuestConfig& config, Hypervisor* hv, CpuAccountant* cpu = nullptr);
  ~GuestKernel() override;

  // --- Topology --------------------------------------------------------------
  MemMap& memmap() { return *memmap_; }
  const MemMap& memmap() const { return *memmap_; }
  Zone& normal_zone() { return *normal_zone_; }
  Zone& movable_zone() { return *movable_zone_; }
  // Creates an extra zone (Squeezy partitions).  The kernel owns it.
  Zone* CreateZone(ZoneType type, const std::string& name);
  HotplugManager& hotplug() { return *hotplug_; }
  VirtioMemDevice& virtio_mem() { return *virtio_; }
  BalloonDevice& balloon() { return *balloon_; }
  PageCache& page_cache() { return page_cache_; }
  const PageCache& page_cache() const { return page_cache_; }
  Hypervisor& hypervisor() { return *hv_; }
  VmId vm_id() const { return vm_; }
  const GuestConfig& config() const { return config_; }
  const CostModel& cost() const { return hv_->cost(); }
  Rng& rng() { return rng_; }

  // First block index of the hot-pluggable device region.
  BlockIndex hotplug_first_block() const { return hotplug_first_block_; }
  uint32_t hotplug_nr_blocks() const { return hotplug_nr_blocks_; }

  // Replaces the hot(un)plug policy (installed by SqueezyManager).
  void SetVirtioHooks(VirtioMemHooks* hooks) { override_hooks_ = hooks; }
  void SetLifecycleObserver(ProcessLifecycleObserver* obs) { lifecycle_ = obs; }

  // --- Processes ---------------------------------------------------------------
  Pid CreateProcess();
  Pid Fork(Pid parent);
  Process& process(Pid pid) { return *processes_[static_cast<size_t>(pid)]; }
  bool Alive(Pid pid) const;
  // Terminates the process, freeing all its anonymous memory.
  void Exit(Pid pid);
  size_t live_process_count() const { return live_processes_; }

  // --- Fault paths ---------------------------------------------------------------
  // Demand-faults `bytes` of anonymous memory (THP folios when possible).
  // On allocation failure the process is OOM-killed (result.oom).
  TouchResult TouchAnon(Pid pid, uint64_t bytes, TimeNs now);
  // Reads `bytes` from the head of `file_id`: page-cache hits are remapped
  // cheaply, misses pay the file's backing read (cold backing-store IO,
  // or the page cache's per-file override — e.g. a peer-host fetch when
  // the cluster dependency cache holds the image warm) + allocation.
  // File pages are shared across processes.
  TouchResult TouchFile(Pid pid, int32_t file_id, uint64_t bytes, TimeNs now);

  // --- Snapshot restore (cluster snapshot registry) ---------------------------
  // Maps a recorded working set populated in one step (REAP-style restore):
  // the first `file_pages` of `file_id` enter the page cache and
  // `anon_bytes` of heap are committed to the process, with NO per-page
  // fault or backing-read charges — the caller prices the whole prefetch
  // once via the cost model's snapshot terms — and ONE bulk EPT populate
  // (single extent) backs every new page on the host.  Pages already
  // cached are skipped; anything beyond the recording demand-faults
  // normally afterwards (the tail).  On allocation failure the process is
  // OOM-killed, like any fault path.
  RestoreOutcome RestoreWorkingSet(Pid pid, int32_t file_id, uint64_t file_pages,
                                   uint64_t anon_bytes, TimeNs now);

  // --- Shared dependency image adoption/eviction (cluster dep cache) ---------
  // Maps `file_id`'s not-yet-cached pages straight out of a host-held
  // copy of the image: guest pages are allocated and inserted into the
  // page cache at fault cost with no backing read.  `populate_host`
  // distinguishes the two sources — false when a sibling VM's frames
  // already back the image (sharing, no new host memory), true when the
  // bytes just arrived from another host (a migration landed them; they
  // need frames of their own).  Returns the bytes adopted; stops early
  // (partial adoption) if the file zone fills.
  TouchResult AdoptFileCache(int32_t file_id, TimeNs now, bool populate_host = false);
  // Drops every cached page of `file_id` (the registry evicted the
  // image): page-cache entries are removed, their guest pages freed, and
  // their host backing released in one madvise span.  The next touch
  // faults the file back in cold.  Returns the bytes dropped.
  uint64_t DropFileCache(int32_t file_id, TimeNs now);
  // Frees up to `bytes` of the process's anonymous memory (LIFO).
  uint64_t FreeAnon(Pid pid, uint64_t bytes);

  int32_t CreateFile(const std::string& name, uint64_t size_bytes);

  // Zone used for anonymous faults of `proc` (partition override or
  // movable, with normal fallback handled inside the fault path).
  Zone* AnonZoneFor(const Process& proc);
  // Zone used for file (page-cache) faults; Squeezy points this at the
  // shared partition.
  void SetFileZone(Zone* zone) { file_zone_ = zone; }
  Zone* file_zone() { return file_zone_; }

  // --- Memory elasticity ----------------------------------------------------------
  PlugOutcome PlugMemory(uint64_t bytes, TimeNs now);
  UnplugOutcome UnplugMemory(uint64_t bytes, TimeNs now);
  BalloonOutcome BalloonReclaim(uint64_t bytes, TimeNs now);

  // Marks every present frame host-populated (models a long-running,
  // warmed-up VM whose memory the host already backs — the §6.2.1 static
  // over-provisioned baseline).
  void WarmAllHostBacking(TimeNs now);

  // --- Accounting -------------------------------------------------------------------
  // Total allocated bytes across all zones (the guest's view in Fig 1).
  uint64_t allocated_bytes() const;
  // Total bytes the guest currently has online (normal + movable + extra).
  uint64_t online_bytes() const;

  // --- OwnerRegistry ------------------------------------------------------------------
  void RelocateRun(PageKind kind, int32_t owner, uint32_t first_slot, uint8_t order,
                   PageRun to) override;

  // --- VirtioMemHooks (vanilla policy; delegates when overridden) ----------------------
  std::vector<BlockIndex> SelectPlugBlocks(uint64_t max_blocks) override;
  Zone* OnlineTargetZone(BlockIndex b) override;
  void OnBlockOnline(BlockIndex b) override;
  std::vector<BlockIndex> SelectUnplugBlocks(uint64_t max_blocks) override;
  OfflineOptions OfflineOptionsFor(BlockIndex b) override;
  Zone* BlockZone(BlockIndex b) override;
  Zone* MigrationTarget(BlockIndex b) override;
  void OnBlockUnplugged(BlockIndex b) override;

 private:
  // Allocates and commits the next anonymous folio of `proc`: order
  // min(kThpOrder, log2 remaining), stepping down under fragmentation,
  // from the process's anon zone and then (vanilla processes only)
  // ZONE_NORMAL.  Returns its head with *order set, or kInvalidPfn once
  // order 0 fails too.
  Pfn AllocAnonFolio(Process& proc, uint64_t remaining, uint8_t* order);
  // Backs [head, head+pages) with host memory where missing; returns the
  // nested-fault latency (one exit per host-THP granule).
  DurationNs PopulateHostBacking(Pfn head, uint32_t pages, TimeNs now);
  // The guest half of PopulateHostBacking: flags the host-THP granules over
  // [head, head+pages) as backed and returns how many were newly backed
  // (one exit each); `new_pages` grows by the frames they add.
  uint64_t MarkHostBacking(Pfn head, uint32_t pages, uint64_t* new_pages);
  // MarkHostBacking over every run in `runs`.
  uint64_t MarkHostBacking(const std::vector<PageRun>& runs, uint64_t* new_pages);
  // Books `faults` first-touch nested faults adding `pages` host frames at
  // `now` in one hypervisor call and adds their latency to `result`.
  void ChargeNestedFaults(uint64_t faults, uint64_t pages, TimeNs now,
                          TouchResult* result);

  // Page-cache fills take runs of consecutive misses, at most this many
  // pages per bulk allocation.
  static constexpr uint32_t kFillBatch = 1024;
  // Allocates page-cache pages for the n uncached pages [idx, idx + n) of
  // `file_id`, from the file zone and then, with `normal_fallback`, from
  // ZONE_NORMAL, and inserts them into the page cache one run at a time.
  // `runs` is replaced by their runs, in page order.  Returns how many
  // were filled: fewer than n only when the zones ran dry.
  uint32_t FillFileRun(int32_t file_id, uint64_t idx, uint32_t n, bool normal_fallback,
                       std::vector<PageRun>* runs);
  // Walks pages [0, pages) of `file_id` one span at a time: each span of n
  // cached pages goes to on_cached(n), and each run of misses is filled
  // kFillBatch pages at a time (FillFileRun), each fill then going to
  // on_fill(got, runs).  Returns false after the first short fill (the
  // zones ran dry), true once every page is cached.
  template <typename OnCached, typename OnFill>
  bool FillFile(int32_t file_id, uint64_t pages, bool normal_fallback,
                OnCached&& on_cached, OnFill&& on_fill);
  // The zone that owns allocated page `pfn`, found in O(1) from its block.
  Zone& ZoneOf(Pfn pfn) const;
  void OomKill(Pid pid);

  GuestConfig config_;
  Hypervisor* hv_;
  CpuAccountant* cpu_;
  VmId vm_;
  Rng rng_;

  std::unique_ptr<MemMap> memmap_;
  std::vector<std::unique_ptr<Zone>> zones_;
  Zone* normal_zone_ = nullptr;
  Zone* movable_zone_ = nullptr;
  Zone* file_zone_ = nullptr;

  std::unique_ptr<HotplugManager> hotplug_;
  std::unique_ptr<VirtioMemDevice> virtio_;
  std::unique_ptr<BalloonDevice> balloon_;
  PageCache page_cache_;

  BlockIndex hotplug_first_block_ = 0;
  uint32_t hotplug_nr_blocks_ = 0;

  std::vector<std::unique_ptr<Process>> processes_;
  size_t live_processes_ = 0;

  VirtioMemHooks* override_hooks_ = nullptr;
  ProcessLifecycleObserver* lifecycle_ = nullptr;
};

}  // namespace squeezy

#endif  // SQUEEZY_GUEST_GUEST_KERNEL_H_
