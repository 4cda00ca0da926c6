// The fleet every cluster test builds, and the seeded churn script the
// cluster fuzzes run on it.
//
// TinySpec, SkewedTrace and FleetConfig are the function, the trace and
// the 4-host fleet of the cluster tests; cluster_churn::Config is that
// fleet migrating on drain, as the churn fuzzes run it.  Churn drives one
// seeded script over a populated fleet: each step runs a random gap of
// the trace, applies a random op from a 4-entry table to a random host,
// and calls the suite's invariant hook; after the last step it runs the
// fleet to quiescence and calls the hook once more.  RunChurn is one
// whole churn reduced to a byte-comparable digest, for suites that
// replay one script two ways (two event kernels, indexed vs scan
// placement).
#ifndef SQUEEZY_TESTS_SUPPORT_CLUSTER_CHURN_H_
#define SQUEEZY_TESTS_SUPPORT_CLUSTER_CHURN_H_

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ios>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/faas/function.h"
#include "src/sim/rng.h"
#include "src/trace/cluster_trace.h"

namespace squeezy {

// A small deterministic function: 96 MiB of anonymous working set over
// 64 MiB of dependencies, 200 ms of init and exactly 100 ms per request.
inline FunctionSpec TinySpec(std::string name, uint64_t memory_limit = MiB(256)) {
  FunctionSpec s;
  s.name = std::move(name);
  s.vcpu_shares = 1.0;
  s.memory_limit = memory_limit;
  s.anon_working_set = MiB(96);
  s.file_deps_bytes = MiB(64);
  s.container_init_cpu = Msec(80);
  s.function_init_cpu = Msec(120);
  s.exec_cpu_mean = Msec(100);
  s.exec_cv = 0.0;
  return s;
}

// Zipf-skewed load at 2 req/s in total, half the functions bursty (30x
// bursts of ~20 s, ~60 s apart).
inline ClusterTraceConfig SkewedTrace(TimeNs duration = Minutes(6),
                                      int32_t nr_functions = 4) {
  ClusterTraceConfig t;
  t.duration = duration;
  t.nr_functions = nr_functions;
  t.total_base_rate_per_sec = 2.0;
  t.zipf_s = 1.2;
  t.bursty_fraction = 0.5;
  t.burst_multiplier = 30.0;
  t.mean_burst_len = Sec(20);
  t.mean_gap = Sec(60);
  return t;
}

// Four Squeezy hosts of `capacity` with 128 MiB VM bases, a 30 s
// keep-alive and seed 42.
inline ClusterConfig FleetConfig(PlacementPolicy placement, uint64_t capacity) {
  ClusterConfig cfg;
  cfg.nr_hosts = 4;
  cfg.placement = placement;
  cfg.host.policy = ReclaimPolicy::kSqueezy;
  cfg.host.host_capacity = capacity;
  cfg.host.vm_base_memory = MiB(128);
  cfg.host.keep_alive = Sec(30);
  cfg.host.seed = 42;
  return cfg;
}

// Registers `nr_functions` copies of `spec` and submits SkewedTrace for
// them, drawn from `seed`.
inline void AddSkewedLoad(Cluster& cluster, const FunctionSpec& spec, uint64_t seed,
                          uint32_t max_concurrency = 8, TimeNs duration = Minutes(6),
                          int32_t nr_functions = 4) {
  for (int32_t f = 0; f < nr_functions; ++f) {
    cluster.AddFunction(spec, max_concurrency);
  }
  cluster.SubmitTrace(GenerateClusterTrace(SkewedTrace(duration, nr_functions), seed));
}

// Per host, `bytes` for every replica placed on it (a boot-time book).
inline std::vector<uint64_t> PerReplica(const Cluster& cluster, uint64_t bytes) {
  std::vector<uint64_t> book(cluster.host_count(), 0);
  for (size_t fn = 0; fn < cluster.function_count(); ++fn) {
    for (const Replica& r : cluster.replicas(static_cast<int>(fn))) {
      book[r.host] += bytes;
    }
  }
  return book;
}

// Runs to `drain_at` and drains the most-committed host (the lowest index
// on a tie); returns that host.
inline size_t DrainMostCommitted(Cluster& cluster, TimeNs drain_at) {
  cluster.RunUntil(drain_at);
  size_t victim = 0;
  for (size_t h = 1; h < cluster.host_count(); ++h) {
    if (cluster.host(h).committed() > cluster.host(victim).committed()) {
      victim = h;
    }
  }
  cluster.DrainHost(victim);
  return victim;
}

namespace cluster_churn {

// Every churn fleet runs four functions of one spec, 8-way concurrent.
constexpr int kFunctions = 4;
constexpr uint32_t kConcurrency = 8;
// The step Churn passes its hook once the fleet has quiesced.
constexpr int kQuiesced = 999;

// The churn fleet: FleetConfig's hosts at 2560 MiB under MemBinPack,
// reclaiming with `reclaim`, checking pressure every 500 ms, migrating
// warm replicas off a draining host, and pressure-migrating off any host
// with a pending scale-up.
inline ClusterConfig Config(ReclaimPolicy reclaim, uint64_t seed) {
  ClusterConfig cfg = FleetConfig(PlacementPolicy::kMemoryAwareBinPack, MiB(2560));
  cfg.migration = MigrationMode::kMigrateOnDrain;
  cfg.pressure_migrate_min_pending = 1;
  cfg.host.policy = reclaim;
  cfg.host.pressure_check_period = Msec(500);
  cfg.host.seed = seed;
  return cfg;
}

enum class Op { kDrain, kUndrain, kMigratePressured, kRun };

// One seeded churn script.  Its RNG starts at seed * rng_mul + rng_add;
// each step runs 2..max_gap_s seconds of trace, then applies ops[0..3]
// (drawn uniformly) to a uniformly drawn host.
struct Script {
  uint64_t rng_mul = 0;
  uint64_t rng_add = 0;
  int steps = 30;
  int64_t max_gap_s = 20;
  std::array<Op, 4> ops = {Op::kDrain, Op::kUndrain, Op::kMigratePressured, Op::kRun};
};

// Runs `script` over `cluster` (populated, its trace submitted), then
// RunAll.  `check` runs after every step with the step's index and after
// RunAll with kQuiesced; the first fatal failure ends the churn, so a
// caller wraps it in ASSERT_NO_FATAL_FAILURE to stop there too.
inline void Churn(Cluster& cluster, uint64_t seed, const Script& script,
                  const std::function<void(int step)>& check = nullptr) {
  Rng rng(seed * script.rng_mul + script.rng_add);
  TimeNs t = 0;
  for (int step = 0; step < script.steps; ++step) {
    t += Sec(rng.UniformInt(2, script.max_gap_s));
    cluster.RunUntil(t);
    const int64_t last_host = static_cast<int64_t>(cluster.host_count()) - 1;
    const size_t h = static_cast<size_t>(rng.UniformInt(0, last_host));
    switch (script.ops[static_cast<size_t>(rng.UniformInt(0, 3))]) {
      case Op::kDrain:
        cluster.DrainHost(h);  // Migrates warm replicas off, then drains.
        break;
      case Op::kUndrain:
        cluster.UndrainHost(h);
        break;
      case Op::kMigratePressured:
        cluster.MigratePressured();
        break;
      case Op::kRun:
        break;  // Let the trace run.
    }
    if (check) {
      check(step);
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  // Quiesce: keep-alives expire, transfers land, every unplug completes.
  cluster.RunAll();
  if (check) {
    check(kQuiesced);
  }
}

// Every host's book within its capacity and mirrored by the host's free
// memory, and every host's population within its book.
inline void AssertBooksHold(const Cluster& cluster, int step) {
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    const FaasRuntime& host = cluster.host(h);
    ASSERT_LE(host.committed(), host.host_capacity())
        << "host " << h << ", step " << step;
    ASSERT_EQ(host.host_capacity() - host.committed(), host.host().available())
        << "host " << h << ", step " << step;
    ASSERT_LE(host.host().populated(), host.committed())
        << "host " << h << ", step " << step;
  }
}

// At quiescence: nothing is in flight, host h's book is exactly base[h]
// plus the dep images the shared cache (if any) still charges it, its
// population stays within the book, and no instance is live anywhere.
inline void ExpectQuiesced(const Cluster& cluster, const std::vector<uint64_t>& base) {
  EXPECT_EQ(cluster.migrations_in_flight(), 0u);
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    const FaasRuntime& host = cluster.host(h);
    const uint64_t images =
        cluster.dep_cache() != nullptr ? cluster.dep_cache()->charged_bytes(h) : 0;
    EXPECT_EQ(host.committed(), base[h] + images) << "host " << h;
    EXPECT_LE(host.host().populated(), host.committed()) << "host " << h;
    for (size_t fn = 0; fn < host.function_count(); ++fn) {
      EXPECT_EQ(host.agent(static_cast<int>(fn)).live_instances(), 0u) << "host " << h;
    }
  }
}

// Byte-comparable dump of everything observable about a finished run.
// Doubles print as hexfloat so equal digests mean bit-equal values.
inline std::string FleetDigest(Cluster& cluster, TimeNs horizon) {
  std::ostringstream os;
  os << std::hexfloat;
  os << "hash " << cluster.routing_hash() << " unplaced "
     << cluster.unplaced_invocations() << " migrated "
     << cluster.migrated_instances() << " reaped "
     << cluster.migration_reaped_instances() << " inflight "
     << cluster.migrations_in_flight() << "\n";
  for (const MigrationRecord& m : cluster.migrations()) {
    os << "mig " << m.cluster_fn << " " << m.src_host << ">" << m.dst_host << " cap "
       << m.captured << " ad " << m.adopted << " bytes " << m.bytes_sent << " down "
       << m.downtime << " t " << m.started_at << ".." << m.done_at << "\n";
  }
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    const FaasRuntime& host = cluster.host(h);
    os << "host " << h << " committed " << host.committed() << " populated "
       << host.host().populated() << " routed " << cluster.routed_to(h) << " pending "
       << host.total_pending_scaleups() << "\n";
    for (size_t fn = 0; fn < host.function_count(); ++fn) {
      const Agent& agent = host.agent(static_cast<int>(fn));
      os << " fn " << fn << " spawns " << agent.total_spawns() << " evict "
         << agent.total_evictions() << " live " << agent.live_instances() << "\n";
      for (const RequestRecord& r : agent.requests()) {
        os << "  req " << r.arrival << " " << r.done << " " << r.cold << "\n";
      }
      for (const ColdStartBreakdown& c : agent.cold_starts()) {
        os << "  cold " << c.vmm << " " << c.container_init << " " << c.function_init
           << " " << c.first_exec << "\n";
      }
    }
  }
  const FleetSummary s = cluster.Summarize(horizon);
  os << "sum req " << s.completed_requests << " cold " << s.cold_starts << " evict "
     << s.evictions << " pend " << s.pending_scaleups_total << " unplug "
     << s.unplug_failures << " p50 " << s.latency_p50 << " p99 " << s.latency_p99
     << " mean " << s.latency_mean << " peak " << s.committed_peak << " gibs "
     << s.committed_gib_seconds << "\n";
  return os.str();
}

// Scheduler counters of one churn run (not part of the digest).
struct ChurnCounters {
  uint64_t decisions = 0;
  uint64_t hints_fired = 0;
  size_t parked_scaleups = 0;  // Still pending once RunAll returns.
};

// One full churn run on a 4-minute trace — 24 steps of up to 15 s, the
// default op table — digested at 6 minutes.  Every input is a pure
// function of the arguments, and the digest must depend neither on the
// kernel impl nor on whether the production deciders or the scan oracle
// decide.  `registries` attaches both the dep cache and the snapshot store.
inline std::string RunChurn(EventQueue::Impl impl, bool registries, uint64_t seed,
                            Cluster::MakeDeciders deciders = &Cluster::IndexedDeciders,
                            PlacementPolicy policy = PlacementPolicy::kMemoryAwareBinPack,
                            ReclaimPolicy reclaim = ReclaimPolicy::kSqueezy,
                            uint64_t host_capacity = MiB(2560),
                            ChurnCounters* counters = nullptr) {
  ClusterConfig cfg = Config(reclaim, seed);
  cfg.placement = policy;
  cfg.shared_dep_cache = registries;
  cfg.shared_snapshots = registries;
  cfg.queue_impl = impl;
  cfg.host.host_capacity = host_capacity;
  Cluster cluster(cfg, deciders);
  AddSkewedLoad(cluster, TinySpec("shard_fuzz"), seed, kConcurrency, Minutes(4));
  Churn(cluster, seed, {1099511628211ull, 29, /*steps=*/24, /*max_gap_s=*/15});
  if (counters != nullptr) {
    counters->decisions = cluster.scheduler().decisions();
    counters->hints_fired = cluster.scheduler().hints_fired();
    for (size_t h = 0; h < cluster.host_count(); ++h) {
      counters->parked_scaleups += cluster.host(h).pending_scaleups();
    }
  }
  return FleetDigest(cluster, Minutes(6));
}

}  // namespace cluster_churn
}  // namespace squeezy

#endif  // SQUEEZY_TESTS_SUPPORT_CLUSTER_CHURN_H_
