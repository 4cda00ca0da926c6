// FaaS autoscaling scenario: an OpenWhisk-style runtime serves a bursty
// trace on one Squeezy-resized N:1 VM, scaling instances (and the VM's
// memory) up and down with the load.
//
// Build & run:  ./build/examples/faas_autoscale
#include <cstdio>

#include "src/faas/function.h"
#include "src/faas/runtime.h"
#include "src/trace/trace_gen.h"

using namespace squeezy;

int main() {
  RuntimeConfig cfg;
  cfg.policy = ReclaimPolicy::kSqueezy;
  cfg.host_capacity = GiB(64);
  cfg.keep_alive = Sec(60);
  FaasRuntime runtime(cfg);

  // Deploy the paper's CNN function with concurrency factor N=12.
  const int fn = runtime.AddFunction(CnnSpec(), /*max_concurrency=*/12);

  // Five minutes of bursty load.
  Rng rng(7);
  BurstyTraceConfig tcfg;
  tcfg.duration = Minutes(5);
  tcfg.base_rate_per_sec = 0.3;
  tcfg.burst_rate_per_sec = 8.0;
  tcfg.mean_burst_len = Sec(20);
  tcfg.mean_gap = Sec(50);
  tcfg.function = fn;
  const auto trace = GenerateBurstyTrace(tcfg, rng);
  runtime.SubmitTrace(trace);
  std::printf("Submitted %zu invocations over 5 minutes (bursty)\n", trace.size());

  // Sample the elastic state every 15 seconds while the trace runs.
  std::printf("%6s %10s %12s %14s %12s\n", "t(s)", "instances", "plugged(MiB)",
              "committed(MiB)", "queued");
  for (TimeNs t = 0; t <= Minutes(7); t += Sec(15)) {
    runtime.events().ScheduleAt(t, [&runtime, fn, t] {
      std::printf("%6lld %10zu %12llu %14llu %12zu\n", (long long)(t / kSecond),
                  runtime.agent(fn).live_instances(),
                  (unsigned long long)(runtime.guest(fn).virtio_mem().plugged_bytes() / MiB(1)),
                  (unsigned long long)(runtime.host().committed() / MiB(1)),
                  runtime.agent(fn).queued_requests());
    });
  }
  runtime.RunUntil(Minutes(7));

  const LatencyRecorder& lat = runtime.agent(fn).latencies();
  std::printf("\nServed %zu requests: P50 %s, P99 %s\n", lat.count(),
              FormatDuration(lat.Percentile(50)).c_str(),
              FormatDuration(lat.Percentile(99)).c_str());
  std::printf("Spawns: %llu, evictions: %llu, partitions reclaimed: %llu\n",
              (unsigned long long)runtime.agent(fn).total_spawns(),
              (unsigned long long)runtime.agent(fn).total_evictions(),
              (unsigned long long)runtime.squeezy(fn)->stats().partitions_reclaimed);
  std::printf("Reclaim throughput: %.0f MiB/s; pages migrated on reclaim: %llu (must be 0)\n",
              runtime.ReclaimThroughputMiBps(fn),
              (unsigned long long)runtime.guest(fn).hotplug().total_pages_migrated());
  return 0;
}
