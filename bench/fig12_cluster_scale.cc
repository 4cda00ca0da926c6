// Fig 12 (beyond-paper): fleet-level capacity under memory-constrained
// multi-host operation — the 4 reclamation drivers (src/policy/) crossed
// with the 4 cluster placement policies (src/cluster/), including the
// placement–reclaim co-design policy kHintedBinPack, plus a host-drain
// scenario driven through the HostControl plane — crossed reap-vs-migrate
// (MigrationPlanner live-migrates the victim's warm replicas, trading a
// state transfer priced by CostModel::StateTransfer for the cold starts
// the reap-only drain pays).
//
// Setup: K hosts, the paper's four functions replicated cluster-wide, a
// Zipf-skewed Azure-style churn trace (src/trace/cluster_trace.*), and
// per-host capacity restricted to a fraction of the abundant-memory peak.
// Under that restriction:
//   * kStatic VMs (over-provisioned, fully committed at boot) stop
//     fitting: functions lose replicas or become unplaceable, so their
//     invocations are rejected — reclamation speed IS fleet capacity;
//   * dynamic policies all register everything, but slow unplug keeps
//     committed memory high long after load passes, so the bin-packing
//     signal goes stale and scale-ups starve (pending) behind reclaim;
//   * Squeezy's sub-second unplug keeps the committed book fresh, which
//     both admits every invocation and lets kMemoryAwareBinPack pack the
//     fleet densely (fewest pending scale-ups at the lowest p99).
//
// Expected outcome printed by the table: Squeezy + MemBinPack admits >=
// as many invocations as every other reclaim x placement combination,
// with fleet p99 close to the unconstrained baseline.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fig12_config.h"
#include "src/cluster/cluster.h"
#include "src/faas/function.h"
#include "src/metrics/csv.h"
#include "src/metrics/table.h"
#include "src/policy/driver_factory.h"
#include "src/trace/cluster_trace.h"

namespace squeezy {
namespace {

// Shared with tests/fig12_regression_test.cc (which locks this sweep's
// recorded headline constants) — all knobs live in bench/fig12_config.h.
using fig12::kConcurrency;
using fig12::kDuration;
using fig12::kHorizon;
using fig12::kHosts;
using fig12::kSeed;
using fig12::TraceConfig;

struct ComboResult {
  ReclaimPolicy reclaim;
  PlacementPolicy placement;
  uint64_t admitted = 0;      // Invocations that reached a host (not rejected).
  uint64_t events = 0;        // Events the sim kernel executed for this run.
  uint64_t scheduled = 0;     // Events it stored (EventQueue::scheduled_events).
  uint64_t peak_pending = 0;  // Its peak live set, summed over its queues.
  uint64_t routing_hash = 0;  // Order-sensitive digest of every routing decision.
  double setup_sec = 0;       // Cluster build + trace gen + SubmitTrace.
  double wall_sec = 0;        // Wall-clock spent inside RunUntil only.
  std::vector<uint64_t> shard_events;  // Per-shard counts (kSharded runs).
  uint64_t head_updates = 0;  // Merge-heap re-sifts (kSharded runs).
  // Placement-path instrumentation (deterministic: identical under either
  // queue kernel, so all BENCH-safe).
  uint64_t decisions = 0;          // Routing decisions the scheduler took.
  uint64_t admit_probes = 0;       // Admission evaluations those decisions made.
  uint64_t index_updates = 0;      // Host deltas the HostIndex absorbed.
  size_t index_max_replicas = 0;   // Widest per-function candidate tree.
  uint64_t memmap_peak_bytes = 0;  // Sum of per-VM record-storage peaks.
  FleetSummary fleet;

  // Depth of the widest per-function ordered index — the comparisons one
  // indexed placement decision costs, vs a full O(hosts) snapshot scan.
  uint64_t index_depth() const {
    uint64_t depth = 0;
    for (size_t n = index_max_replicas; n > 0; n >>= 1) {
      ++depth;
    }
    return depth;
  }

  double events_per_sec() const {
    return wall_sec > 0 ? static_cast<double>(events) / wall_sec : 0.0;
  }
  // min/max balance across shards, in percent (100 = perfectly even).
  double shard_balance_pct() const {
    uint64_t lo = UINT64_MAX, hi = 0;
    for (const uint64_t e : shard_events) {
      lo = std::min(lo, e);
      hi = std::max(hi, e);
    }
    return hi > 0 ? 100.0 * static_cast<double>(lo) / static_cast<double>(hi) : 0.0;
  }
};

// Optional knobs beyond the sweep's (reclaim, placement, capacity, hosts)
// axes: the event kernel and the sharded scale-out rows.
struct ComboOpts {
  EventQueue::Impl impl = EventQueue::Impl::kTimerWheel;
  const ClusterTraceConfig* trace = nullptr;  // nullptr = fig12::TraceConfig().
  TimeNs horizon = kHorizon;
  // Shard-sweep sizing (see fig12_config.h): nullptr/0 = the paper
  // functions at the sweep's concurrency and default VM base.
  const std::vector<FunctionSpec>* functions = nullptr;
  uint32_t concurrency = kConcurrency;
  uint64_t vm_base = 0;
};

ComboResult RunCombo(ReclaimPolicy reclaim, PlacementPolicy placement,
                     uint64_t host_capacity, size_t hosts, uint64_t* trace_size,
                     uint64_t* hints_fired = nullptr, const ComboOpts& opts = {}) {
  WallTimer wall;
  ClusterConfig cfg = fig12::SweepConfig(reclaim, placement, host_capacity, hosts);
  cfg.queue_impl = opts.impl;
  if (opts.vm_base > 0) {
    cfg.host.vm_base_memory = opts.vm_base;
  }
  Cluster cluster(cfg);

  const std::vector<FunctionSpec> fns =
      opts.functions != nullptr ? *opts.functions : PaperFunctions();
  for (const FunctionSpec& spec : fns) {
    cluster.AddFunction(spec, opts.concurrency);
  }
  const std::vector<Invocation> trace = GenerateClusterTrace(
      opts.trace != nullptr ? *opts.trace : TraceConfig(), kSeed);
  if (trace_size != nullptr) {
    *trace_size = trace.size();
  }
  cluster.SubmitTrace(trace);

  ComboResult r;
  r.setup_sec = wall.Lap();  // Events/sec below excludes all of the above.
  cluster.RunUntil(opts.horizon);
  r.wall_sec = wall.Lap();

  r.reclaim = reclaim;
  r.placement = placement;
  r.events = cluster.processed_events();
  r.scheduled = cluster.scheduled_events();
  r.peak_pending = cluster.peak_pending_events();
  r.routing_hash = cluster.routing_hash();
  if (cluster.sharded() != nullptr) {
    r.shard_events = cluster.sharded()->ShardProcessed();
    r.head_updates = cluster.sharded()->head_updates();
  }
  r.fleet = cluster.Summarize(opts.horizon);
  r.admitted = trace.size() - r.fleet.unplaced_invocations;
  r.decisions = cluster.scheduler().decisions();
  r.admit_probes = cluster.scheduler().admit_probes();
  const HostIndexStats index_stats = cluster.host_index().stats();
  r.index_updates = index_stats.updates;
  r.index_max_replicas = index_stats.max_fn_replicas;
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    for (size_t fn = 0; fn < cluster.host(h).function_count(); ++fn) {
      r.memmap_peak_bytes =
          r.memmap_peak_bytes +
          cluster.host(h).guest(static_cast<int>(fn)).memmap().materialized_peak_bytes();
    }
  }
  if (hints_fired != nullptr) {
    *hints_fired = cluster.scheduler().hints_fired();
  }
  return r;
}

// Process-wide peak RSS in MiB (ru_maxrss is KiB on Linux).  Monotonic
// over the process lifetime and wall-clock-adjacent, so TIMING-only.
double PeakRssMib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Host-drain scenario (HostControl plane): drain the most-committed host
// mid-trace and report how long its committed book takes to return to the
// boot-time commitment — reclamation speed IS maintenance speed — crossed
// with what happens to the victim's warm replicas: reaped in place
// (kReapOnDrain) or live-migrated to planner-chosen hosts
// (kMigrateOnDrain), where the migrated warm state spares the fleet
// post-drain cold starts.
struct DrainResult {
  size_t drained_host = 0;
  uint64_t routed_before = 0;   // Routes to the host up to the drain.
  uint64_t routed_after = 0;    // Routes to it after (should be ~0 extra).
  double reclaim_seconds = -1;  // Drain -> committed back at boot commit.
  uint64_t cold_after = 0;      // Fleet cold starts arriving post-drain.
  uint64_t migrated = 0;        // Warm instances adopted by destinations.
  uint64_t reaped = 0;          // Warm instances captured but dropped.
  // Shared dependency cache (dep_cache runs only).
  uint64_t wire_bytes_saved = 0;    // deps_bytes that skipped the wire.
  uint64_t wire_hits = 0;           // Migrations that hit the cache.
  uint64_t cold_io_avoided = 0;     // Deps bytes served without disk IO.
  uint64_t dep_disk_bytes = 0;      // Deps bytes that still paid disk IO.
  // Snapshot registry (shared_snapshots runs only): post-drain cold
  // starts restore the recorded working set instead of re-running the
  // serial cold phases the reap threw the fleet back onto.
  uint64_t snap_restores = 0;        // Cold starts served from a snapshot.
  uint64_t snap_prefetch_bytes = 0;  // Bytes bulk-prefetched across them.
  double snap_tail_rate_pct = 0;     // Post-restore demand-fault tail.
  // Snapshot-hit migration transfers (shared_snapshots runs only): the
  // recorded portion of migrated state never crosses the wire — the
  // destination bulk-restores it from the cluster store on arrival.
  uint64_t snap_mig_wire_saved = 0;  // Recorded bytes that skipped the wire.
  uint64_t snap_mig_restores = 0;    // Adopted instances bulk-restored.
  uint64_t mig_wire_bytes = 0;       // Total migration wire bytes this run.
};

DrainResult RunDrain(ReclaimPolicy reclaim, MigrationMode mode, uint64_t host_capacity,
                     bool dep_cache = false, bool snapshots = false) {
  ClusterConfig cfg =
      fig12::SweepConfig(reclaim, PlacementPolicy::kHintedBinPack, host_capacity);
  cfg.migration = mode;
  cfg.shared_dep_cache = dep_cache;
  cfg.shared_snapshots = snapshots;
  cfg.host.unplug_timeout = Sec(5);
  Cluster cluster(cfg);
  uint64_t boot_commit = 0;
  for (const FunctionSpec& spec : PaperFunctions()) {
    cluster.AddFunction(spec, kConcurrency);
    boot_commit += FaasRuntime::BootCommitment(cfg.host, spec, kConcurrency);
  }
  cluster.SubmitTrace(GenerateClusterTrace(TraceConfig(), kSeed));

  const TimeNs drain_at = kDuration / 2;
  cluster.RunUntil(drain_at);
  size_t victim = 0;
  for (size_t h = 1; h < cluster.host_count(); ++h) {
    if (cluster.host(h).committed() > cluster.host(victim).committed()) {
      victim = h;
    }
  }
  DrainResult r;
  r.drained_host = victim;
  r.routed_before = cluster.routed_to(victim);
  cluster.DrainHost(victim);
  cluster.RunUntil(kHorizon);
  r.routed_after = cluster.routed_to(victim) - r.routed_before;
  r.migrated = cluster.migrated_instances();
  r.reaped = cluster.migration_reaped_instances();
  // Cold-start executions whose request arrived after the drain: the cost
  // of the warm state the drain threw away (or saved, under migration).
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    for (size_t fn = 0; fn < cluster.host(h).function_count(); ++fn) {
      for (const RequestRecord& rec :
           cluster.host(h).agent(static_cast<int>(fn)).requests()) {
        r.cold_after += (rec.cold && rec.arrival >= drain_at);
      }
    }
  }
  // First instant after the drain where the host's committed book was back
  // at its boot-time commitment (every replica lives on every host here).
  // (Under the dep cache a drained host can dip BELOW boot: evicted image
  // residencies return their commitment too.)
  for (const StepSeries::Point& p :
       cluster.host(victim).host().committed_series().points()) {
    if (p.t >= drain_at && static_cast<uint64_t>(p.value) <= boot_commit) {
      r.reclaim_seconds = ToSec(p.t - drain_at);
      break;
    }
  }
  if (cluster.dep_cache() != nullptr) {
    r.wire_bytes_saved = cluster.dep_cache()->stats().wire_bytes_saved;
    r.wire_hits = cluster.dep_cache()->stats().wire_hits;
    const Cluster::DepIoTotals io = cluster.DepIo();
    r.cold_io_avoided = io.cold_io_avoided();
    r.dep_disk_bytes = io.disk_read_bytes;
  }
  if (cluster.snapshot_store() != nullptr) {
    const SnapshotStats& s = cluster.snapshot_store()->stats();
    r.snap_restores = s.restores;
    r.snap_prefetch_bytes = s.prefetch_bytes;
    r.snap_tail_rate_pct = s.tail_fault_rate_pct();
    r.snap_mig_wire_saved = s.migration_wire_saved_bytes;
    r.snap_mig_restores = s.migration_restores;
  }
  for (const MigrationRecord& m : cluster.migrations()) {
    r.mig_wire_bytes += m.bytes_sent;
  }
  return r;
}

}  // namespace
}  // namespace squeezy

int main() {
  using namespace squeezy;
  PrintBanner("Fig 12 (cluster scale-out, beyond the paper)",
              "under restricted per-host memory, Squeezy + memory-aware bin-packing "
              "admits >= as many invocations as every other reclaim x placement combo, "
              "with the fewest memory-starved scale-ups");

  // Abundant-memory baseline fixes the restricted capacity: the fleet
  // committed peak of dynamic Squeezy with memory to spare.
  uint64_t trace_size = 0;
  const ComboResult abundant = RunCombo(ReclaimPolicy::kSqueezy,
                                        PlacementPolicy::kRoundRobin, GiB(512),
                                        kHosts, &trace_size);
  const uint64_t abundant_peak_per_host = abundant.fleet.committed_peak / kHosts;
  const uint64_t cap = static_cast<uint64_t>(fig12::kCapacityFraction *
                                             static_cast<double>(abundant_peak_per_host));
  std::cout << "Hosts: " << kHosts << ", trace: " << trace_size
            << " invocations over " << TablePrinter::Num(ToSec(kDuration) / 60.0, 0)
            << " min\nAbundant fleet committed peak: "
            << TablePrinter::Num(static_cast<double>(abundant.fleet.committed_peak) /
                                 static_cast<double>(GiB(1)))
            << " GiB -> restricted per-host capacity: "
            << TablePrinter::Num(static_cast<double>(cap) / static_cast<double>(GiB(1)))
            << " GiB\n\n";

  const ReclaimPolicy reclaims[] = {ReclaimPolicy::kStatic, ReclaimPolicy::kVirtioMem,
                                    ReclaimPolicy::kHarvestOpts, ReclaimPolicy::kSqueezy};
  const PlacementPolicy placements[] = {PlacementPolicy::kRoundRobin,
                                        PlacementPolicy::kLeastCommitted,
                                        PlacementPolicy::kMemoryAwareBinPack,
                                        PlacementPolicy::kHintedBinPack};

  TablePrinter table({"Reclaim", "Placement", "Admitted", "Completed", "P50(ms)",
                      "P99(ms)", "PeakGiB", "GiB*s", "PendingUps", "UnplugFail",
                      "Hints"});
  CsvWriter csv("bench_results/fig12_cluster_scale.csv",
                {"reclaim", "placement", "admitted", "completed", "p50_ms", "p99_ms",
                 "peak_gib", "gib_s", "pending_scaleups", "unplug_failures", "hints"});
  // BENCH json holds deterministic metrics only (CI byte-diffs it across
  // two runs); everything wall-clock-derived goes into the TIMING sibling
  // the determinism diff never reads.
  BenchJson json("fig12_cluster_scale");
  BenchJson timing("fig12_cluster_scale", "TIMING");
  json.SetColumns({"reclaim", "placement", "admitted", "completed", "p50_ms", "p99_ms",
                   "peak_gib", "gib_s", "pending_scaleups", "unplug_failures", "hints"});

  uint64_t best_other = 0;
  uint64_t squeezy_binpack_admitted = 0;
  uint64_t squeezy_hinted_admitted = 0;
  uint64_t squeezy_binpack_pending = 0;
  uint64_t squeezy_hinted_pending = 0;
  for (const ReclaimPolicy rp : reclaims) {
    for (const PlacementPolicy pp : placements) {
      uint64_t hints = 0;
      const ComboResult r = RunCombo(rp, pp, cap, kHosts, nullptr, &hints);
      const double peak_gib = static_cast<double>(r.fleet.committed_peak) /
                              static_cast<double>(GiB(1));
      table.AddRow({ReclaimPolicyName(rp), PlacementPolicyName(pp),
                    TablePrinter::Int(static_cast<int64_t>(r.admitted)),
                    TablePrinter::Int(static_cast<int64_t>(r.fleet.completed_requests)),
                    TablePrinter::Num(ToMsec(r.fleet.latency_p50), 0),
                    TablePrinter::Num(ToMsec(r.fleet.latency_p99), 0),
                    TablePrinter::Num(peak_gib),
                    TablePrinter::Num(r.fleet.committed_gib_seconds, 0),
                    TablePrinter::Int(static_cast<int64_t>(r.fleet.pending_scaleups_total)),
                    TablePrinter::Int(static_cast<int64_t>(r.fleet.unplug_failures)),
                    TablePrinter::Int(static_cast<int64_t>(hints))});
      const std::vector<std::string> row = {
          ReclaimPolicyName(rp), PlacementPolicyName(pp), std::to_string(r.admitted),
          std::to_string(r.fleet.completed_requests),
          TablePrinter::Num(ToMsec(r.fleet.latency_p50), 1),
          TablePrinter::Num(ToMsec(r.fleet.latency_p99), 1), TablePrinter::Num(peak_gib),
          TablePrinter::Num(r.fleet.committed_gib_seconds, 1),
          std::to_string(r.fleet.pending_scaleups_total),
          std::to_string(r.fleet.unplug_failures), std::to_string(hints)};
      csv.AddRow(row);
      json.AddRow(row);
      if (rp == ReclaimPolicy::kSqueezy && pp == PlacementPolicy::kMemoryAwareBinPack) {
        squeezy_binpack_admitted = r.admitted;
        squeezy_binpack_pending = r.fleet.pending_scaleups_total;
      } else if (rp == ReclaimPolicy::kSqueezy && pp == PlacementPolicy::kHintedBinPack) {
        squeezy_hinted_admitted = r.admitted;
        squeezy_hinted_pending = r.fleet.pending_scaleups_total;
      } else {
        best_other = std::max(best_other, r.admitted);
      }
    }
    table.AddRule();
  }
  table.Print(std::cout);

  const bool binpack_pass = squeezy_binpack_admitted >= best_other;
  const bool hinted_pass = squeezy_hinted_admitted >= squeezy_binpack_admitted;
  std::cout << "\nCheck: Squeezy+MemBinPack admitted " << squeezy_binpack_admitted
            << " vs best other combination " << best_other << " -> "
            << (binpack_pass ? "PASS (>=)" : "FAIL") << "\n"
            << "Check: Squeezy+HintedBinPack admitted " << squeezy_hinted_admitted
            << " vs Squeezy+MemBinPack " << squeezy_binpack_admitted << " -> "
            << (hinted_pass ? "PASS (>=)" : "FAIL") << "  (pending scale-ups "
            << squeezy_hinted_pending << " vs " << squeezy_binpack_pending << ")\n";

  // Host drain through the HostControl plane: the drained host stops
  // receiving routes and its committed memory comes back at the driver's
  // reclamation speed — and under kMigrateOnDrain the victim's warm
  // replicas are live-migrated to planner-chosen hosts instead of reaped,
  // so the fleet pays fewer post-drain cold starts.
  std::cout << "\nHost drain at t=4min (most-committed host, HintedBinPack), "
               "reap vs migrate vs migrate+dep-cache vs migrate+snapshots:\n";
  TablePrinter drain_table({"Reclaim", "Mode", "Host", "RoutedBefore", "RoutedAfter",
                            "ReclaimSec", "ColdAfter", "Migrated", "Reaped",
                            "WireSavedMiB", "SnapWireSavedMiB", "ColdIOSavedMiB",
                            "Restores", "PrefetchMiB"});
  bool drain_pass = true;
  bool dep_pass = true;
  bool snap_pass = true;
  bool snap_wire_pass = true;
  double snap_tail_rate_pct = 0;
  uint64_t wire_dep_only = 0;   // Migration wire bytes, dep cache alone.
  uint64_t wire_with_snap = 0;  // Migration wire bytes, dep cache + snapshots.
  const double mib = static_cast<double>(MiB(1));
  for (const ReclaimPolicy rp : {ReclaimPolicy::kVirtioMem, ReclaimPolicy::kSqueezy}) {
    uint64_t cold_reap = 0;
    uint64_t cold_migrate = 0;
    // Reap, migrate, and (for the sharing driver) migrate with the
    // cluster dependency cache on: migrations to populated destinations
    // skip deps_bytes on the wire and cold starts fetch peer-resident
    // images instead of paying backing-store IO.  The last Squeezy run
    // adds the snapshot registry: post-drain cold starts restore the
    // recorded working set (one bulk prefetch) instead of re-running the
    // serial phases the reap threw away — restore vs reap, measured.
    struct ModeRun {
      MigrationMode mode;
      bool dep_cache;
      bool snapshots;
    };
    std::vector<ModeRun> runs = {{MigrationMode::kReapOnDrain, false, false},
                                 {MigrationMode::kMigrateOnDrain, false, false}};
    if (rp == ReclaimPolicy::kSqueezy) {
      runs.push_back({MigrationMode::kMigrateOnDrain, true, false});
      runs.push_back({MigrationMode::kMigrateOnDrain, true, true});
    }
    for (const ModeRun& run : runs) {
      const DrainResult d = RunDrain(rp, run.mode, cap, run.dep_cache, run.snapshots);
      const std::string mode_name = std::string(MigrationModeName(run.mode)) +
                                    (run.dep_cache ? "+DepC" : "") +
                                    (run.snapshots ? "+Snap" : "");
      drain_table.AddRow({ReclaimPolicyName(rp), mode_name,
                          TablePrinter::Int(static_cast<int64_t>(d.drained_host)),
                          TablePrinter::Int(static_cast<int64_t>(d.routed_before)),
                          TablePrinter::Int(static_cast<int64_t>(d.routed_after)),
                          TablePrinter::Num(d.reclaim_seconds),
                          TablePrinter::Int(static_cast<int64_t>(d.cold_after)),
                          TablePrinter::Int(static_cast<int64_t>(d.migrated)),
                          TablePrinter::Int(static_cast<int64_t>(d.reaped)),
                          TablePrinter::Num(static_cast<double>(d.wire_bytes_saved) / mib, 0),
                          TablePrinter::Num(
                              static_cast<double>(d.snap_mig_wire_saved) / mib, 0),
                          TablePrinter::Num(static_cast<double>(d.cold_io_avoided) / mib, 0),
                          TablePrinter::Int(static_cast<int64_t>(d.snap_restores)),
                          TablePrinter::Num(static_cast<double>(d.snap_prefetch_bytes) / mib,
                                            0)});
      const std::string tag = std::string(ReclaimPolicyName(rp)) + "_" +
                              MigrationModeName(run.mode) +
                              (run.dep_cache ? "_DepCache" : "") +
                              (run.snapshots ? "_Snapshots" : "");
      if (d.reclaim_seconds >= 0) {
        json.Metric("drain_reclaim_sec_" + tag, d.reclaim_seconds);
      } else {
        json.Text("drain_reclaim_sec_" + tag, "never (window ended first)");
      }
      json.Metric("drain_cold_after_" + tag, d.cold_after);
      json.Metric("drain_migrated_" + tag, d.migrated);
      if (run.snapshots) {
        // The snapshot headline: every post-drain cold start on the
        // surviving hosts restores from the registry, and the demand-fault
        // tail stays small (recordings are fresh).
        json.Metric("snapshot_restores", d.snap_restores);
        json.Metric("snapshot_prefetch_bytes", d.snap_prefetch_bytes);
        json.Metric("snapshot_tail_fault_rate_pct", d.snap_tail_rate_pct);
        // Snapshot-hit migration transfer: the recorded portion of the
        // drained host's warm state never crossed the wire — destinations
        // bulk-restored it from the cluster store on arrival.
        json.Metric("snapshot_migration_wire_saved_bytes", d.snap_mig_wire_saved);
        json.Metric("snapshot_migration_restores", d.snap_mig_restores);
        json.Metric("migration_wire_bytes_" + tag, d.mig_wire_bytes);
        snap_tail_rate_pct = d.snap_tail_rate_pct;
        wire_with_snap = d.mig_wire_bytes;
        snap_pass = d.snap_restores > 0 && d.snap_prefetch_bytes > 0 &&
                    d.snap_mig_wire_saved > 0 && d.snap_mig_restores > 0;
      } else if (run.dep_cache) {
        // The dep-cache headline: bytes that never crossed the wire and
        // dependency bytes served without cold IO, plus the hit rate of
        // dependency reads against the fleet-wide cache.
        json.Metric("dep_wire_bytes_saved", d.wire_bytes_saved);
        json.Metric("dep_wire_hits", d.wire_hits);
        json.Metric("dep_cold_io_avoided_bytes", d.cold_io_avoided);
        const uint64_t dep_reads = d.cold_io_avoided + d.dep_disk_bytes;
        json.Metric("dep_read_hit_rate_pct",
                    dep_reads > 0 ? 100.0 * static_cast<double>(d.cold_io_avoided) /
                                        static_cast<double>(dep_reads)
                                  : 0.0);
        json.Metric("migration_wire_bytes_" + tag, d.mig_wire_bytes);
        wire_dep_only = d.mig_wire_bytes;
        dep_pass = d.wire_bytes_saved > 0 && d.cold_io_avoided > 0;
      } else if (run.mode == MigrationMode::kReapOnDrain) {
        cold_reap = d.cold_after;
      } else {
        cold_migrate = d.cold_after;
      }
    }
    json.Metric(std::string("drain_cold_starts_avoided_") + ReclaimPolicyName(rp),
                cold_reap > cold_migrate ? cold_reap - cold_migrate : 0);
    drain_pass = drain_pass && cold_migrate < cold_reap;
    drain_table.AddRule();
  }
  drain_table.Print(std::cout);
  // The snapshot-hit transfer headline: with the registry on, migrations
  // off the drained host ship only the delta beyond the recording, so the
  // +Snap run puts strictly fewer bytes on the wire than dep-cache-only.
  snap_wire_pass = wire_with_snap < wire_dep_only;
  std::cout << "Check: migrate-on-drain pays fewer post-drain cold starts than "
               "reap-on-drain -> "
            << (drain_pass ? "PASS" : "FAIL") << "\n"
            << "Check: dep cache saves wire bytes AND cold IO on the Squeezy drain -> "
            << (dep_pass ? "PASS" : "FAIL") << "\n"
            << "Check: snapshot registry serves post-drain cold starts by restore -> "
            << (snap_pass ? "PASS" : "FAIL") << " (tail fault rate "
            << TablePrinter::Num(snap_tail_rate_pct) << "%)\n"
            << "Check: snapshot-hit migration ships fewer wire bytes than "
               "dep-cache-only -> "
            << (snap_wire_pass ? "PASS" : "FAIL") << " ("
            << TablePrinter::Num(static_cast<double>(wire_with_snap) / mib, 0)
            << " MiB vs "
            << TablePrinter::Num(static_cast<double>(wire_dep_only) / mib, 0)
            << " MiB)\n";
  json.Text("drain_migrate_check", drain_pass ? "PASS" : "FAIL");
  json.Text("dep_cache_check", dep_pass ? "PASS" : "FAIL");
  json.Text("snapshot_restore_check", snap_pass ? "PASS" : "FAIL");
  json.Text("snapshot_migration_wire_check", snap_wire_pass ? "PASS" : "FAIL");

  // Which reclaim drivers exploit working-set-sized commitment after a
  // snapshot restore (RestoredCommitment < plug unit)?  Squeezy can: its
  // restored instances live inside plug-unit-confined partitions, so the
  // recorded working set bounds what the host must back.  The vanilla
  // drivers keep full-unit commitment — locked by snapshot_registry_test.
  std::cout << "\nDriver commitment for a restored instance (plug unit "
            << TablePrinter::Num(static_cast<double>(GiB(1)) / mib, 0) << " MiB, "
            << "recorded working set " << TablePrinter::Num(300.0, 0) << " MiB):\n";
  TablePrinter commit_table({"Reclaim", "RestoreExploited", "CommitMiB"});
  for (const ReclaimPolicy rp : reclaims) {
    RuntimeConfig dcfg;
    dcfg.policy = rp;
    const std::unique_ptr<ReclaimDriver> driver = MakeReclaimDriver(dcfg);
    DriverSizing sizing;
    sizing.plug_unit = GiB(1);
    sizing.deps_region = MiB(256);
    sizing.max_concurrency = kConcurrency;
    const uint64_t commit = driver->RestoredCommitment(sizing, MiB(300));
    commit_table.AddRow({ReclaimPolicyName(rp),
                         driver->SnapshotRestoreSupported() ? "yes" : "no",
                         TablePrinter::Num(static_cast<double>(commit) / mib, 0)});
    json.Metric(std::string("restored_commitment_mib_") + ReclaimPolicyName(rp),
                static_cast<double>(commit) / mib);
  }
  commit_table.Print(std::cout);

  json.Metric("trace_invocations", trace_size);
  json.Metric("restricted_host_capacity_gib",
              static_cast<double>(cap) / static_cast<double>(GiB(1)));
  json.Metric("squeezy_binpack_admitted", squeezy_binpack_admitted);
  json.Metric("squeezy_hinted_admitted", squeezy_hinted_admitted);
  json.Metric("squeezy_binpack_pending", squeezy_binpack_pending);
  json.Metric("squeezy_hinted_pending", squeezy_hinted_pending);
  json.Metric("best_other_admitted", best_other);
  json.Text("binpack_check", binpack_pass ? "PASS" : "FAIL");
  json.Text("hinted_check", hinted_pass ? "PASS" : "FAIL");

  // Scale-out: does the memory-aware packer keep its edge as the fleet
  // grows?  (Same per-host capacity; the trace stays fixed, so bigger
  // fleets are progressively less constrained.)  Each row also reports
  // the sim kernel's whole-run events/sec on the single queue.
  std::cout << "\nScale-out (Squeezy): pending scale-ups by host count\n";
  TablePrinter scale({"Hosts", "RoundRobin", "MemBinPack", "HintedBinPack", "Events",
                      "Ev/s"});
  for (const size_t hosts : fig12::kScaleHostCounts) {
    const ComboResult rr = RunCombo(ReclaimPolicy::kSqueezy,
                                    PlacementPolicy::kRoundRobin, cap, hosts, nullptr);
    const ComboResult bp = RunCombo(ReclaimPolicy::kSqueezy,
                                    PlacementPolicy::kMemoryAwareBinPack, cap, hosts,
                                    nullptr);
    const ComboResult hb = RunCombo(ReclaimPolicy::kSqueezy,
                                    PlacementPolicy::kHintedBinPack, cap, hosts,
                                    nullptr);
    scale.AddRow({TablePrinter::Int(static_cast<int64_t>(hosts)),
                  TablePrinter::Int(static_cast<int64_t>(rr.fleet.pending_scaleups_total)),
                  TablePrinter::Int(static_cast<int64_t>(bp.fleet.pending_scaleups_total)),
                  TablePrinter::Int(static_cast<int64_t>(hb.fleet.pending_scaleups_total)),
                  TablePrinter::Int(static_cast<int64_t>(hb.events)),
                  TablePrinter::Num(hb.events_per_sec(), 0)});
    const std::string tag = std::to_string(hosts) + "h";
    json.Metric("scale_pending_hinted_" + tag, hb.fleet.pending_scaleups_total);
    json.Metric("sim_events_" + tag, hb.events);
    // Event-kernel work behind those events: how many it stored and its
    // peak live set (deterministic -> BENCH).
    json.Metric("sim_scheduled_events_" + tag, hb.scheduled);
    json.Metric("sim_peak_pending_" + tag, hb.peak_pending);
    timing.Metric("sim_events_per_sec_" + tag, hb.events_per_sec());
  }
  scale.Print(std::cout);

  // Sharded-kernel scale-out: per-host shards merged in (when, seq)
  // order carry the fleet to 256/512/1024 hosts (load scaled with the
  // fleet).  The identity gate at kShardIdentityHosts replays the same
  // run on the single queue and requires bit-identical results.
  std::cout << "\nSharded kernel scale-out (Squeezy + HintedBinPack, paper-sized "
               "functions, load scaled with hosts):\n";
  TablePrinter shard_scale({"Hosts", "Admitted", "PendingUps", "Events", "Decisions",
                            "IdxDepth", "Probes/dec", "MemMapMiB", "Balance%", "Ev/s"});
  bool sharded_identical = true;
  const std::vector<FunctionSpec> shard_fns = fig12::ShardFunctions();
  for (const size_t hosts : fig12::kShardScaleHostCounts) {
    const ClusterTraceConfig shard_trace = fig12::ShardTraceConfig(hosts);
    ComboOpts shard_opts;
    shard_opts.impl = EventQueue::Impl::kSharded;
    shard_opts.trace = &shard_trace;
    shard_opts.horizon = fig12::kShardHorizon;
    shard_opts.functions = &shard_fns;
    shard_opts.concurrency = fig12::kShardConcurrency;
    shard_opts.vm_base = fig12::kShardVmBase;
    const ComboResult sh = RunCombo(ReclaimPolicy::kSqueezy,
                                    PlacementPolicy::kHintedBinPack,
                                    fig12::kShardHostCapacity, hosts,
                                    nullptr, nullptr, shard_opts);
    shard_scale.AddRow(
        {TablePrinter::Int(static_cast<int64_t>(hosts)),
         TablePrinter::Int(static_cast<int64_t>(sh.admitted)),
         TablePrinter::Int(static_cast<int64_t>(sh.fleet.pending_scaleups_total)),
         TablePrinter::Int(static_cast<int64_t>(sh.events)),
         TablePrinter::Int(static_cast<int64_t>(sh.decisions)),
         TablePrinter::Int(static_cast<int64_t>(sh.index_depth())),
         TablePrinter::Num(sh.decisions > 0 ? static_cast<double>(sh.admit_probes) /
                                                  static_cast<double>(sh.decisions)
                                            : 0.0),
         TablePrinter::Num(static_cast<double>(sh.memmap_peak_bytes) /
                           static_cast<double>(MiB(1))),
         TablePrinter::Num(sh.shard_balance_pct()),
         TablePrinter::Num(sh.events_per_sec(), 0)});
    const std::string tag = std::to_string(hosts) + "h";
    json.Metric("shard_admitted_" + tag, sh.admitted);
    json.Metric("shard_pending_" + tag, sh.fleet.pending_scaleups_total);
    json.Metric("shard_events_" + tag, sh.events);
    json.Metric("shard_scheduled_events_" + tag, sh.scheduled);
    // Sum of the per-shard and mailbox peaks.
    json.Metric("shard_peak_pending_" + tag, sh.peak_pending);
    json.Metric("shard_balance_pct_" + tag, sh.shard_balance_pct());
    // Merge work behind those events: re-sifts of the heap of queue heads.
    json.Metric("shard_head_updates_" + tag, sh.head_updates);
    // Placement-path instrumentation: how many routing decisions the row
    // took, how many host deltas the index absorbed maintaining its
    // trees, and the depth an indexed decision walks instead of scanning
    // `hosts` snapshots.  All deterministic -> BENCH.
    json.Metric("shard_route_decisions_" + tag, sh.decisions);
    // CanAdmitNow evaluations behind those decisions (re-probes of marked
    // replicas): the per-decision routing cost that index depth alone
    // does not show.  Deterministic -> BENCH.
    json.Metric("shard_route_probes_" + tag, sh.admit_probes);
    json.Metric("shard_index_updates_" + tag, sh.index_updates);
    json.Metric("shard_index_depth_" + tag, sh.index_depth());
    // MemMap footprint: the sum over every VM in the fleet of its peak
    // bytes of records stored past slot starts (the flat page array made
    // this hosts x guest span — the per-host figure is what lets
    // paper-sized functions run at 1024 hosts).  Deterministic -> BENCH.
    const double memmap_peak_mib =
        static_cast<double>(sh.memmap_peak_bytes) / static_cast<double>(MiB(1));
    json.Metric("shard_memmap_peak_mib_" + tag, memmap_peak_mib);
    json.Metric("shard_memmap_peak_per_host_mib_" + tag,
                memmap_peak_mib / static_cast<double>(hosts));
    timing.Metric("shard_events_per_sec_" + tag, sh.events_per_sec());
    timing.Metric("shard_setup_sec_" + tag, sh.setup_sec);
    timing.Metric("shard_run_sec_" + tag, sh.wall_sec);
    timing.Metric("process_peak_rss_mib_" + tag, PeakRssMib());

    if (hosts == fig12::kShardIdentityHosts) {
      // Per-shard event counts for the gate point (deterministic, so
      // they belong in BENCH; one compact line, not 256 metrics).
      std::string per_shard;
      for (const uint64_t e : sh.shard_events) {
        per_shard += (per_shard.empty() ? "" : ",") + std::to_string(e);
      }
      json.Text("shard_per_shard_events_" + tag, per_shard);

      // Bit-identity gate: same config and seed on the single queue
      // must reproduce the sharded run exactly.
      ComboOpts ref_opts = shard_opts;
      ref_opts.impl = EventQueue::Impl::kTimerWheel;
      const ComboResult ref = RunCombo(ReclaimPolicy::kSqueezy,
                                       PlacementPolicy::kHintedBinPack,
                                       fig12::kShardHostCapacity, hosts,
                                       nullptr, nullptr, ref_opts);
      sharded_identical =
          ref.admitted == sh.admitted && ref.events == sh.events &&
          ref.routing_hash == sh.routing_hash &&
          ref.fleet.pending_scaleups_total == sh.fleet.pending_scaleups_total &&
          ref.fleet.completed_requests == sh.fleet.completed_requests &&
          ref.fleet.committed_peak == sh.fleet.committed_peak;
      std::cout << "Check: sharded kernel bit-identical to the single queue at "
                << hosts << " hosts -> " << (sharded_identical ? "PASS" : "FAIL")
                << "\n";
      timing.Metric("shard_ref_single_queue_run_sec_" + tag, ref.wall_sec);
    }
  }
  shard_scale.Print(std::cout);
  json.Text("sharded_identical_results_check", sharded_identical ? "PASS" : "FAIL");

  const std::string json_path = json.Write();
  const std::string timing_path = timing.Write();
  std::cout << "CSV: bench_results/fig12_cluster_scale.csv\nJSON: " << json_path
            << "\nTiming: " << timing_path << "\n";
  return binpack_pass && hinted_pass && drain_pass && dep_pass && snap_pass &&
                 snap_wire_pass && sharded_identical
             ? 0
             : 1;
}
