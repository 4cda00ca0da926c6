// The fig12 cluster-scale experiment configuration, shared between
// bench/fig12_cluster_scale.cc and tests/fig12_regression_test.cc.
//
// The regression test locks recorded constants (pending scale-ups,
// admitted invocations) captured from the bench; both MUST run the exact
// same configuration or the lock silently guards a stale setup.  Any
// knob the two share lives here — edit it once and both move together.
#ifndef SQUEEZY_BENCH_FIG12_CONFIG_H_
#define SQUEEZY_BENCH_FIG12_CONFIG_H_

#include <cstdint>

#include "src/cluster/cluster.h"
#include "src/faas/function.h"
#include "src/trace/cluster_trace.h"

namespace squeezy {
namespace fig12 {

inline constexpr size_t kHosts = 4;
inline constexpr uint32_t kConcurrency = 8;
inline constexpr TimeNs kDuration = Minutes(8);
inline constexpr TimeNs kHorizon = Minutes(10);  // Drain window after the trace.
inline constexpr uint64_t kSeed = 2026;
// Restricted per-host capacity = this fraction of the abundant-memory
// fleet committed peak per host.
inline constexpr double kCapacityFraction = 0.62;
// Scale-out sweep host counts.
inline constexpr size_t kScaleHostCounts[] = {4, 8, 16, 32, 64};
// Sharded-kernel scale-out: host counts beyond the single-queue sweep,
// load scaled linearly with hosts the WHOLE way (rate = base * hosts /
// kHosts).  The former cap at the identity point existed because
// placement was an O(hosts) snapshot scan per dispatch — scaling load
// and hosts together made the sweep O(hosts^2) wall-clock; the indexed
// placement path (src/cluster/host_index.*) decides from ordered trees, so
// the rows now measure a genuinely growing fleet serving genuinely
// growing traffic.  Arrivals are quantized to 1 ms — still a pure
// function of (config, seed), so both queue kernels fire the identical
// sequence.
inline constexpr size_t kShardScaleHostCounts[] = {256, 512, 1024};
inline constexpr size_t kShardIdentityHosts = 256;  // Sharded-vs-single gate.
inline constexpr TimeNs kShardArrivalQuantum = Msec(1);
// The sharded rows run the PAPER-sized functions: the MemMap stores
// records only at extent starts, and a slot that is one extent stores
// just its start record, so sim RSS goes as the fleet's split slots, not
// hosts x guest span
// (the flat per-page array needed >200 GiB at 1024 hosts — the reason
// this sweep used to shrink functions to 64 MiB).
inline constexpr TimeNs kShardDuration = Minutes(2);
inline constexpr TimeNs kShardHorizon = Minutes(3);
inline constexpr uint32_t kShardConcurrency = 2;
inline constexpr uint64_t kShardVmBase = MiB(128);
inline constexpr uint64_t kShardHostCapacity = GiB(4);

inline ClusterTraceConfig TraceConfig() {
  ClusterTraceConfig t;
  t.duration = kDuration;
  t.nr_functions = static_cast<int32_t>(PaperFunctions().size());
  t.total_base_rate_per_sec = 3.0;
  t.zipf_s = 1.1;
  t.bursty_fraction = 0.5;
  t.burst_multiplier = 25.0;
  t.mean_burst_len = Sec(25);
  t.mean_gap = Sec(70);
  return t;
}

// Trace for the sharded-kernel scale-out rows: same shape as the base
// sweep, shorter, rate scaled linearly with the fleet (no cap — see
// kShardScaleHostCounts above), arrivals quantized.
inline ClusterTraceConfig ShardTraceConfig(size_t hosts) {
  ClusterTraceConfig t = TraceConfig();
  t.duration = kShardDuration;
  t.total_base_rate_per_sec *= static_cast<double>(hosts) / static_cast<double>(kHosts);
  t.arrival_quantum = kShardArrivalQuantum;
  return t;
}

// The sharded rows run the paper's four functions at full size (the
// extent MemMap keeps per-host sim RSS bounded by touched blocks).
inline std::vector<FunctionSpec> ShardFunctions() { return PaperFunctions(); }

// The sweep's cluster configuration (RunCombo).  The drain scenario
// overrides unplug_timeout and migration mode on top of this.
inline ClusterConfig SweepConfig(ReclaimPolicy reclaim, PlacementPolicy placement,
                                 uint64_t host_capacity, size_t hosts = kHosts) {
  ClusterConfig cfg;
  cfg.nr_hosts = hosts;
  cfg.placement = placement;
  cfg.host.policy = reclaim;
  cfg.host.host_capacity = host_capacity;
  cfg.host.keep_alive = Sec(45);
  cfg.host.unplug_timeout = Sec(1);
  cfg.host.pressure_check_period = Msec(500);
  cfg.host.seed = kSeed;
  return cfg;
}

}  // namespace fig12
}  // namespace squeezy

#endif  // SQUEEZY_BENCH_FIG12_CONFIG_H_
