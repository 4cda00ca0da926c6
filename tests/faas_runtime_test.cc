// Integration tests for the FaaS runtime: policies, admission under
// memory pressure, plug/unplug orchestration, end-to-end traces.
#include <gtest/gtest.h>

#include <memory>

#include "src/faas/function.h"
#include "src/faas/microvm.h"
#include "src/faas/runtime.h"
#include "src/trace/trace_gen.h"
#include "tests/support/cluster_churn.h"

namespace squeezy {
namespace {

TEST(FaasRuntimeTest, PolicyNames) {
  EXPECT_STREQ(ReclaimPolicyName(ReclaimPolicy::kStatic), "Static");
  EXPECT_STREQ(ReclaimPolicyName(ReclaimPolicy::kVirtioMem), "Virtio-mem");
  EXPECT_STREQ(ReclaimPolicyName(ReclaimPolicy::kSqueezy), "Squeezy");
  EXPECT_STREQ(ReclaimPolicyName(ReclaimPolicy::kHarvestOpts), "HarvestVM-opts");
}

TEST(FaasRuntimeTest, SqueezyEndToEndScaleUpDown) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.host_capacity = GiB(32);
  cfg.keep_alive = Sec(30);
  FaasRuntime rt(cfg);
  const int fn = rt.AddFunction(TinySpec("s"), 4);

  // Burst of 3 -> 3 instances; after keep-alive everything is reclaimed.
  rt.SubmitTrace({{Sec(1), fn}, {Sec(1), fn}, {Sec(1), fn}});
  rt.RunUntil(Sec(20));
  EXPECT_EQ(rt.agent(fn).requests().size(), 3u);
  EXPECT_EQ(rt.agent(fn).live_instances(), 3u);
  const uint64_t committed_peak = rt.host().committed();

  rt.RunUntil(Minutes(3));
  EXPECT_EQ(rt.agent(fn).live_instances(), 0u);
  // All three instances' commitments were released by unplug.
  EXPECT_LT(rt.host().committed(), committed_peak);
  EXPECT_EQ(rt.squeezy(fn)->stats().partitions_reclaimed, 3u);
  // Squeezy invariant: zero migrations on the whole run.
  EXPECT_EQ(rt.guest(fn).hotplug().total_pages_migrated(), 0u);
}

TEST(FaasRuntimeTest, VirtioPolicyMigratesOnReclaim) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kVirtioMem;
  cfg.host_capacity = GiB(32);
  cfg.keep_alive = Sec(30);
  FaasRuntime rt(cfg);
  const int fn = rt.AddFunction(TinySpec("v"), 4);
  // Enough parallel instances that their footprints interleave.
  rt.SubmitTrace({{Sec(1), fn}, {Sec(1), fn}, {Sec(1), fn}, {Sec(1), fn}});
  rt.RunUntil(Minutes(5));
  EXPECT_EQ(rt.agent(fn).live_instances(), 0u);
  // Vanilla unplug had to migrate pages (interleaved survivors/page cache).
  EXPECT_GT(rt.guest(fn).hotplug().total_pages_migrated(), 0u);
}

TEST(FaasRuntimeTest, StaticPolicyNeverUnplugs) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kStatic;
  cfg.host_capacity = GiB(32);
  cfg.keep_alive = Sec(30);
  FaasRuntime rt(cfg);
  const int fn = rt.AddFunction(TinySpec("st"), 4);
  const uint64_t committed_boot = rt.host().committed();
  rt.SubmitTrace({{Sec(1), fn}, {Sec(1), fn}});
  rt.RunUntil(Minutes(3));
  EXPECT_EQ(rt.agent(fn).requests().size(), 2u);
  // Commitment never moved: the idle-memory pathology of Fig 1.
  EXPECT_EQ(rt.host().committed(), committed_boot);
  EXPECT_EQ(rt.guest(fn).virtio_mem().total_unplugged_bytes(), 0u);
}

TEST(FaasRuntimeTest, StaticColdStartHasNoVmmDelayAndNoNestedFaults) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kStatic;
  cfg.host_capacity = GiB(32);
  FaasRuntime rt(cfg);
  const int fn = rt.AddFunction(TinySpec("st"), 2);
  rt.SubmitTrace({{Sec(1), fn}});
  rt.RunUntil(Minutes(1));
  ASSERT_EQ(rt.agent(fn).cold_starts().size(), 1u);
  EXPECT_EQ(rt.agent(fn).cold_starts()[0].vmm, 0);

  // Squeezy twin: plug delay + first-touch nested faults make the cold
  // start slower (paper §6.2.1: 3-35% + 35-45 ms plug).
  RuntimeConfig cfg2 = cfg;
  cfg2.policy = ReclaimPolicy::kSqueezy;
  FaasRuntime rt2(cfg2);
  const int fn2 = rt2.AddFunction(TinySpec("sq"), 2);
  rt2.SubmitTrace({{Sec(1), fn2}});
  rt2.RunUntil(Minutes(1));
  ASSERT_EQ(rt2.agent(fn2).cold_starts().size(), 1u);
  const ColdStartBreakdown& dynamic = rt2.agent(fn2).cold_starts()[0];
  const ColdStartBreakdown& fixed = rt.agent(fn).cold_starts()[0];
  EXPECT_GE(dynamic.vmm, Msec(25));
  EXPECT_GT(dynamic.total(), fixed.total());
  // But the penalty is bounded (paper: 3-35%).
  EXPECT_LT(static_cast<double>(dynamic.total()),
            1.5 * static_cast<double>(fixed.total()));
}

TEST(FaasRuntimeTest, PendingScaleUpsServedAfterReclaim) {
  // Host fits boot + ~1 instance; the 2nd instance must wait until the
  // 1st is evicted and unplugged.
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.keep_alive = Sec(20);
  FunctionSpec spec = TinySpec("tight");
  // Boot commit: base 512 + shared 64 MiB; 1 unit = 256 MiB.
  cfg.host_capacity = MiB(512) + MiB(64) + MiB(256) + kMemoryBlockBytes + MiB(256);
  FaasRuntime rt(cfg);
  const int fn = rt.AddFunction(spec, 4);

  // One warm-up request, then a burst of four concurrent ones: the host
  // only fits two additional instances, so the rest become pending and are
  // served once pressure-evicted instances release their memory.
  rt.SubmitTrace(
      {{Sec(1), fn}, {Sec(2), fn}, {Sec(2), fn}, {Sec(2), fn}, {Sec(2), fn}});
  rt.RunUntil(Sec(2) + Msec(500));
  EXPECT_GE(rt.pending_scaleups(), 1u);
  rt.RunUntil(Minutes(4));
  EXPECT_EQ(rt.pending_scaleups(), 0u);
  EXPECT_EQ(rt.agent(fn).requests().size(), 5u);
}

TEST(FaasRuntimeTest, MemoryPressureEvictsIdleInstancesEarly) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.keep_alive = Minutes(10);  // Idle instances would linger...
  FunctionSpec spec = TinySpec("p");
  cfg.host_capacity = MiB(512) + MiB(64) + MiB(512) + MiB(128);
  FaasRuntime rt(cfg);
  const int fn = rt.AddFunction(spec, 4);
  // Two sequential requests -> up to 2 idle instances (2 x 256 MiB fits).
  rt.SubmitTrace({{Sec(1), fn}, {Sec(2), fn}, {Minutes(1), fn}, {Minutes(1), fn},
                  {Minutes(1), fn}});
  rt.RunUntil(Minutes(5));
  // All requests served: pressure eviction freed room despite keep-alive.
  EXPECT_EQ(rt.agent(fn).requests().size(), 5u);
  EXPECT_GT(rt.agent(fn).total_evictions(), 0u);
}

TEST(FaasRuntimeTest, HarvestBufferMakesSecondColdStartFast) {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kHarvestOpts;
  cfg.host_capacity = GiB(32);
  cfg.keep_alive = Sec(10);
  cfg.harvest_buffer_units = 1;
  FaasRuntime rt(cfg);
  const int fn = rt.AddFunction(TinySpec("h"), 4);
  // First instance: cold plug.  After eviction its memory goes to the
  // buffer.  Second cold start consumes the buffer: near-zero VMM delay.
  rt.SubmitTrace({{Sec(1), fn}, {Minutes(2), fn}});
  rt.RunUntil(Minutes(4));
  ASSERT_EQ(rt.agent(fn).cold_starts().size(), 2u);
  EXPECT_GE(rt.agent(fn).cold_starts()[0].vmm, Msec(25));
  EXPECT_LE(rt.agent(fn).cold_starts()[1].vmm, Msec(2));
}

TEST(FaasRuntimeTest, ReclaimThroughputSqueezyBeatsVanilla) {
  auto run = [](ReclaimPolicy policy) {
    RuntimeConfig cfg;
    cfg.policy = policy;
    cfg.host_capacity = GiB(64);
    cfg.keep_alive = Sec(20);
    FaasRuntime rt(cfg);
    const int fn = rt.AddFunction(TinySpec("tp"), 8);
    std::vector<Invocation> trace;
    for (int i = 0; i < 8; ++i) {
      trace.push_back({Sec(1), fn});
    }
    rt.SubmitTrace(trace);
    rt.RunUntil(Minutes(5));
    return rt.ReclaimThroughputMiBps(fn);
  };
  const double vanilla = run(ReclaimPolicy::kVirtioMem);
  const double squeezy = run(ReclaimPolicy::kSqueezy);
  ASSERT_GT(vanilla, 0.0);
  ASSERT_GT(squeezy, 0.0);
  EXPECT_GT(squeezy / vanilla, 3.0);  // Paper Fig 8: ~7x geomean.
}

TEST(FaasRuntimeTest, BurstyTraceEndToEndDeterministic) {
  auto run = [](uint64_t seed) {
    RuntimeConfig cfg;
    cfg.policy = ReclaimPolicy::kSqueezy;
    cfg.host_capacity = GiB(64);
    cfg.seed = seed;
    FaasRuntime rt(cfg);
    const int fn = rt.AddFunction(TinySpec("d"), 8);
    Rng rng(seed);
    BurstyTraceConfig tcfg;
    tcfg.duration = Minutes(5);
    tcfg.function = fn;
    rt.SubmitTrace(GenerateBurstyTrace(tcfg, rng));
    rt.RunUntil(Minutes(8));
    return rt.agent(fn).latencies().Sum();
  };
  EXPECT_EQ(run(7), run(7));  // Bit-identical reruns.
  EXPECT_NE(run(7), run(8));  // Seeds matter.
}

TEST(MicroVmPoolTest, ColdBootThenWarmReuse) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  CpuAccountant cpu(Sec(1));
  Hypervisor hv(&host, &cost, &cpu);
  EventQueue events;
  MicroVmPoolConfig mcfg;
  mcfg.keep_alive = Sec(30);
  MicroVmPool pool(&events, &hv, &host, TinySpec("uvm"), mcfg);

  pool.Submit();
  events.RunUntil(Sec(20));
  EXPECT_EQ(pool.vm_count(), 1u);
  EXPECT_EQ(pool.boots(), 1u);
  const auto colds = pool.ColdStarts();
  ASSERT_EQ(colds.size(), 1u);
  EXPECT_EQ(colds[0].vmm, cost.microvm_boot);

  pool.Submit();  // Warm reuse: same VM, no boot.
  events.RunUntil(Sec(25));
  EXPECT_EQ(pool.boots(), 1u);
  EXPECT_EQ(pool.Latencies().count(), 2u);

  // Keep-alive expiry shuts the VM down and releases everything.
  events.RunUntil(Minutes(3));
  EXPECT_EQ(pool.live_vms(), 0u);
  EXPECT_EQ(pool.shutdowns(), 1u);
  EXPECT_EQ(host.populated(), 0u);
  EXPECT_EQ(host.committed(), 0u);
}

TEST(MicroVmPoolTest, ParallelRequestsBootParallelVms) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  EventQueue events;
  MicroVmPool pool(&events, &hv, &host, TinySpec("uvm"), MicroVmPoolConfig{});
  pool.Submit();
  pool.Submit();
  pool.Submit();
  events.RunUntil(Minutes(1));
  EXPECT_EQ(pool.vm_count(), 3u);
  EXPECT_EQ(pool.Latencies().count(), 3u);
}

TEST(MicroVmPoolTest, FootprintExceedsSharedModel) {
  // 1:1 footprint includes guest OS + deps + anon; the N:1 marginal cost
  // is roughly the anon working set (paper Fig 11b: 2.53x average).
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  EventQueue events;
  const FunctionSpec spec = TinySpec("fp");
  MicroVmPool pool(&events, &hv, &host, spec, MicroVmPoolConfig{});
  pool.Submit();
  events.RunUntil(Minutes(1));
  const uint64_t footprint = pool.InstanceFootprint(0);
  EXPECT_GT(footprint, spec.anon_working_set + spec.file_deps_bytes);
  EXPECT_GT(static_cast<double>(footprint),
            1.8 * static_cast<double>(spec.anon_working_set));
}

}  // namespace
}  // namespace squeezy
