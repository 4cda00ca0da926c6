// Fig 10: end-to-end execution when host memory is limited to ~70% of the
// abundant-memory peak.  Scale-ups must reuse memory released by
// scale-downs, so reclamation speed gates tail latency.
//
// Left pane: normalized P99 latency per function per method (paper:
// virtio-mem 3.15x, HarvestVM-opts 1.36x, Squeezy ~1.1x on average).
// Right pane: memory-utilization timelines and the GiB*s footprint
// (paper: Squeezy cuts the footprint by ~45%/42.5% vs HarvestVM-opts /
// virtio-mem).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/faas/function.h"
#include "src/faas/runtime.h"
#include "src/metrics/csv.h"
#include "src/metrics/latency_recorder.h"
#include "src/metrics/table.h"
#include "src/trace/trace_gen.h"

namespace squeezy {
namespace {

constexpr TimeNs kDuration = Minutes(20);
constexpr uint32_t kConcurrency = 12;

// Phase-offset bursty load: each function's bursts land while the others
// idle, so under restricted memory every spike must actively reclaim the
// memory of other functions' idle instances (the paper's §6.2.2 setup,
// emulating Fig 2's spawn/reclaim churn at small scale).
std::vector<Invocation> PhaseOffsetTrace(int fn, size_t nr_functions, Rng& rng) {
  std::vector<Invocation> out;
  const DurationNs period = Sec(200);
  const DurationNs burst_len = Sec(30);
  const DurationNs offset = Sec(200 / static_cast<int64_t>(nr_functions)) * fn;
  for (TimeNs t = 0; t < kDuration - Minutes(2); t += Sec(1)) {
    const TimeNs phase = (t + period - offset) % period;
    const double rate = phase < burst_len ? 6.0 : 0.15;
    const int64_t n = rng.Poisson(rate);
    for (int64_t i = 0; i < n; ++i) {
      out.push_back({t + static_cast<DurationNs>(rng.Uniform(0, 1e9)), fn});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Invocation& a, const Invocation& b) { return a.at < b.at; });
  return out;
}

struct RunResult {
  std::vector<DurationNs> p99;       // Per function.
  double gib_seconds = 0;            // Committed-memory integral.
  uint64_t peak_committed = 0;
  std::vector<double> util_timeline; // Committed bytes sampled per 5 s.
  uint64_t unplug_failures = 0;
};

RunResult RunOnce(ReclaimPolicy policy, uint64_t capacity, uint64_t seed) {
  RuntimeConfig cfg;
  cfg.policy = policy;
  cfg.host_capacity = capacity;
  cfg.keep_alive = Sec(45);
  cfg.seed = seed;
  // FaaS-grade latency bound on reclamation: requests that virtio-mem
  // cannot finish in time complete partially (paper: "reclamation
  // timeouts lead virtio-mem to reclaim less memory than targeted").
  cfg.unplug_timeout = Sec(1);
  cfg.pressure_check_period = Msec(500);
  FaasRuntime rt(cfg);

  const std::vector<FunctionSpec> specs = PaperFunctions();
  std::vector<std::vector<Invocation>> traces;
  Rng rng(2024 + seed);  // Same seeds across policies: identical workloads.
  for (size_t i = 0; i < specs.size(); ++i) {
    const int fn = rt.AddFunction(specs[i], kConcurrency);
    traces.push_back(PhaseOffsetTrace(fn, specs.size(), rng));
  }
  rt.SubmitTrace(MergeTraces(std::move(traces)));
  rt.RunUntil(kDuration);

  RunResult result;
  for (size_t i = 0; i < specs.size(); ++i) {
    const LatencyRecorder& lat = rt.agent(static_cast<int>(i)).latencies();
    result.p99.push_back(lat.empty() ? 0 : lat.Percentile(99));
  }
  const StepSeries& committed = rt.host().committed_series();
  result.gib_seconds = committed.IntegralSec(0, kDuration) / static_cast<double>(GiB(1));
  result.peak_committed = static_cast<uint64_t>(committed.Max());
  for (TimeNs t = 0; t <= kDuration; t += Sec(5)) {
    result.util_timeline.push_back(committed.At(t));
  }
  result.unplug_failures = rt.total_unplug_failures();
  return result;
}

// Five seeds, per-function P99 averaged; memory stats from the first.
RunResult Run(ReclaimPolicy policy, uint64_t capacity) {
  RunResult agg = RunOnce(policy, capacity, 11);
  const uint64_t extra_seeds[] = {29, 47, 83, 131};
  for (const uint64_t seed : extra_seeds) {
    const RunResult r = RunOnce(policy, capacity, seed);
    for (size_t i = 0; i < agg.p99.size(); ++i) {
      agg.p99[i] += r.p99[i];
    }
    agg.unplug_failures += r.unplug_failures;
  }
  for (DurationNs& p : agg.p99) {
    p /= 5;
  }
  return agg;
}

}  // namespace
}  // namespace squeezy

int main() {
  using namespace squeezy;
  PrintBanner("Fig 10",
              "with host memory capped at ~70% of the abundant peak: virtio-mem P99 ~3.15x, "
              "HarvestVM-opts ~1.36x, Squeezy ~1.1x; Squeezy's GiB*s footprint ~45%/42.5% "
              "below HarvestVM-opts / virtio-mem");

  // Abundant baseline (dynamic Squeezy resizing, memory never scarce).
  const RunResult abundant = Run(ReclaimPolicy::kSqueezy, GiB(512));
  const uint64_t cap = static_cast<uint64_t>(0.55 * static_cast<double>(abundant.peak_committed));
  std::cout << "Abundant-memory peak: "
            << TablePrinter::Num(static_cast<double>(abundant.peak_committed) /
                                 static_cast<double>(GiB(1)))
            << " GiB -> restricted capacity: "
            << TablePrinter::Num(static_cast<double>(cap) / static_cast<double>(GiB(1)))
            << " GiB\n\n";

  const RunResult virtio = Run(ReclaimPolicy::kVirtioMem, cap);
  const RunResult harvest = Run(ReclaimPolicy::kHarvestOpts, cap);
  const RunResult squeezy = Run(ReclaimPolicy::kSqueezy, cap);

  const std::vector<FunctionSpec> specs = PaperFunctions();
  TablePrinter table({"Function", "Abundant P99(ms)", "Virtio-mem", "HarvestVM-opts", "Squeezy"});
  CsvWriter csv("bench_results/fig10_p99.csv",
                {"function", "abundant_ms", "virtio_norm", "harvest_norm", "squeezy_norm"});
  BenchJson json("fig10_limited_memory");
  json.SetColumns({"function", "abundant_ms", "virtio_norm", "harvest_norm", "squeezy_norm"});
  std::vector<double> virtio_norms;
  std::vector<double> harvest_norms;
  std::vector<double> squeezy_norms;
  for (size_t i = 0; i < specs.size(); ++i) {
    const double base = static_cast<double>(abundant.p99[i]);
    const double nv = static_cast<double>(virtio.p99[i]) / base;
    const double nh = static_cast<double>(harvest.p99[i]) / base;
    const double ns = static_cast<double>(squeezy.p99[i]) / base;
    virtio_norms.push_back(nv);
    harvest_norms.push_back(nh);
    squeezy_norms.push_back(ns);
    table.AddRow({specs[i].name, TablePrinter::Num(ToMsec(abundant.p99[i]), 0), Ratio(nv),
                  Ratio(nh), Ratio(ns)});
    const std::vector<std::string> row = {
        specs[i].name, TablePrinter::Num(ToMsec(abundant.p99[i]), 1),
        TablePrinter::Num(nv), TablePrinter::Num(nh), TablePrinter::Num(ns)};
    csv.AddRow(row);
    json.AddRow(row);
  }
  table.AddRule();
  table.AddRow({"Geomean", "1.00x", Ratio(Geomean(virtio_norms)), Ratio(Geomean(harvest_norms)),
                Ratio(Geomean(squeezy_norms))});
  table.Print(std::cout);
  std::cout << "(paper geomeans: virtio-mem 3.15x, HarvestVM-opts 1.36x, Squeezy ~1.1x)\n\n";

  TablePrinter mem({"Method", "GiB*s", "vs Squeezy"});
  mem.AddRow({"Virtio-mem", TablePrinter::Num(virtio.gib_seconds, 0),
              Pct(1.0 - squeezy.gib_seconds / virtio.gib_seconds) + " saved"});
  mem.AddRow({"HarvestVM-opts", TablePrinter::Num(harvest.gib_seconds, 0),
              Pct(1.0 - squeezy.gib_seconds / harvest.gib_seconds) + " saved"});
  mem.AddRow({"Squeezy", TablePrinter::Num(squeezy.gib_seconds, 0), "-"});
  mem.Print(std::cout);
  std::cout << "(paper: Squeezy saves 45% vs HarvestVM-opts, 42.5% vs virtio-mem)\n"
            << "Virtio-mem unplug timeouts/partials during the run: " << virtio.unplug_failures
            << "\n\n";

  CsvWriter tl("bench_results/fig10_memory_timeline.csv",
               {"second", "virtio_gib", "harvest_gib", "squeezy_gib", "abundant_gib"});
  for (size_t i = 0; i < squeezy.util_timeline.size(); ++i) {
    const double gib = static_cast<double>(GiB(1));
    tl.AddRow({std::to_string(i * 5),
               TablePrinter::Num(virtio.util_timeline[i] / gib),
               TablePrinter::Num(harvest.util_timeline[i] / gib),
               TablePrinter::Num(squeezy.util_timeline[i] / gib),
               TablePrinter::Num(abundant.util_timeline[i] / gib)});
  }
  json.Metric("virtio_p99_geomean", Geomean(virtio_norms));
  json.Metric("harvest_p99_geomean", Geomean(harvest_norms));
  json.Metric("squeezy_p99_geomean", Geomean(squeezy_norms));
  json.Metric("squeezy_gib_s", squeezy.gib_seconds);
  json.Metric("gib_s_saved_vs_virtio_pct",
              virtio.gib_seconds > 0
                  ? 100.0 * (1.0 - squeezy.gib_seconds / virtio.gib_seconds)
                  : 0.0);
  json.Metric("gib_s_saved_vs_harvest_pct",
              harvest.gib_seconds > 0
                  ? 100.0 * (1.0 - squeezy.gib_seconds / harvest.gib_seconds)
                  : 0.0);
  json.Metric("virtio_unplug_failures", virtio.unplug_failures);
  const std::string json_path = json.Write();
  std::cout << "CSV: bench_results/fig10_p99.csv, bench_results/fig10_memory_timeline.csv\n"
            << "JSON: " << json_path << "\n";
  return 0;
}
