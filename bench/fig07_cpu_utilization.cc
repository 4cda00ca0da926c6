// Fig 7: CPU utilization of the kernel threads serving downsizing
// requests, in the guest (left pane) and in the host/VMM (right pane),
// while 512 MiB of guest memory is repeatedly reclaimed (and re-plugged)
// over a 200-second window.
//
// Expected: the balloon's *host* thread spikes while serving per-page
// exits; vanilla virtio-mem's *guest* thread burns a vCPU migrating
// pages; Squeezy needs negligible CPU on either side.
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/squeezy.h"
#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/metrics/csv.h"
#include "src/metrics/table.h"
#include "src/sim/event_queue.h"
#include "src/trace/memhog.h"

namespace squeezy {
namespace {

constexpr uint64_t kReclaim = MiB(512);
constexpr TimeNs kExperiment = Sec(200);
constexpr DurationNs kCycle = Sec(10);

struct Series {
  std::vector<double> guest;
  std::vector<double> host;
};

// Pads/truncates a utilization series to the experiment length
// (500 ms windows) and drops the boot-time setup spike.
constexpr size_t kWarmupWindows = 10;  // First 5 s: VM setup, not steady state.
std::vector<double> FitSeries(std::vector<double> s) {
  s.resize(static_cast<size_t>(kExperiment / Msec(500)), 0.0);
  for (size_t i = 0; i < kWarmupWindows && i < s.size(); ++i) {
    s[i] = 0.0;
  }
  return s;
}

Series RunBalloon() {
  HostMemory host(GiB(32));
  CostModel cost = CostModel::Default();
  CpuAccountant cpu(Msec(500));
  Hypervisor hv(&host, &cost, &cpu);
  GuestConfig cfg;
  cfg.name = "vm";
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(8);
  cfg.seed = 7;
  GuestKernel guest(cfg, &hv, &cpu);
  guest.PlugMemory(GiB(8), 0);
  guest.movable_zone().ShuffleFreeLists(guest.rng());
  Memhog hog(&guest, MemhogConfig{GiB(4), 0.25, 3});
  hog.Start(0);

  EventQueue events;
  for (TimeNs t = Sec(5); t < kExperiment; t += kCycle) {
    events.ScheduleAt(t, [&guest, &events] {
      guest.BalloonReclaim(kReclaim, events.now());
    });
    events.ScheduleAt(t + kCycle / 2, [&guest, &events] {
      guest.balloon().Deflate(kReclaim, &guest.movable_zone());
      (void)events;
    });
  }
  events.RunUntil(kExperiment);
  return Series{FitSeries(cpu.Series("vm/balloon-guest")), FitSeries(cpu.Series("vm/balloon-host"))};
}

Series RunVirtio() {
  HostMemory host(GiB(32));
  CostModel cost = CostModel::Default();
  CpuAccountant cpu(Msec(500));
  Hypervisor hv(&host, &cost, &cpu);
  GuestConfig cfg;
  cfg.name = "vm";
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(8);
  cfg.seed = 8;
  cfg.unplug_timeout = Sec(30);
  GuestKernel guest(cfg, &hv, &cpu);
  guest.PlugMemory(GiB(8), 0);
  guest.movable_zone().ShuffleFreeLists(guest.rng());
  Memhog hog(&guest, MemhogConfig{static_cast<uint64_t>(6.5 * GiB(1)), 0.25, 3});
  hog.Start(0);

  EventQueue events;
  for (TimeNs t = Sec(5); t < kExperiment; t += kCycle) {
    events.ScheduleAt(t, [&guest, &events] { guest.UnplugMemory(kReclaim, events.now()); });
    events.ScheduleAt(t + kCycle / 2,
                      [&guest, &events] { guest.PlugMemory(kReclaim, events.now()); });
  }
  events.RunUntil(kExperiment);
  return Series{FitSeries(cpu.Series("vm/virtio_mem-guest")),
                FitSeries(cpu.Series("vm/virtio_mem-host"))};
}

Series RunSqueezy() {
  HostMemory host(GiB(32));
  CostModel cost = CostModel::Default();
  CpuAccountant cpu(Msec(500));
  Hypervisor hv(&host, &cost, &cpu);

  SqueezyConfig scfg;
  scfg.partition_bytes = kReclaim;
  scfg.nr_partitions = 16;
  scfg.shared_bytes = 0;
  GuestConfig cfg;
  cfg.name = "vm";
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = scfg.region_bytes();
  cfg.seed = 9;
  GuestKernel guest(cfg, &hv, &cpu);
  SqueezyManager sqz(&guest, scfg);

  // Half the partitions host live tenants (load); one cycles plug/unplug.
  for (int i = 0; i < 8; ++i) {
    guest.PlugMemory(kReclaim, 0);
    const Pid pid = guest.CreateProcess();
    sqz.SqueezyEnable(pid);
    guest.TouchAnon(pid, kReclaim - MiB(16), 0);
  }

  EventQueue events;
  for (TimeNs t = Sec(5); t < kExperiment; t += kCycle) {
    events.ScheduleAt(t, [&guest, &sqz, &events] {
      // Spawn + retire one tenant, then reclaim its partition.
      guest.PlugMemory(kReclaim, events.now());
      const Pid pid = guest.CreateProcess();
      sqz.SqueezyEnable(pid);
      guest.TouchAnon(pid, kReclaim - MiB(16), events.now());
      guest.Exit(pid);
      guest.UnplugMemory(kReclaim, events.now());
    });
  }
  events.RunUntil(kExperiment);
  return Series{FitSeries(cpu.Series("vm/virtio_mem-guest")),
                FitSeries(cpu.Series("vm/virtio_mem-host"))};
}

double MaxOf(const std::vector<double>& v) {
  double best = 0;
  for (const double x : v) {
    best = std::max(best, x);
  }
  return best;
}

double MeanOf(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

}  // namespace
}  // namespace squeezy

int main() {
  using namespace squeezy;
  PrintBanner("Fig 7",
              "balloon: host-side CPU spikes; virtio-mem: guest kernel thread burns a vCPU "
              "migrating pages; Squeezy: negligible CPU on both sides");

  const Series balloon = RunBalloon();
  const Series virtio = RunVirtio();
  const Series squeezy = RunSqueezy();

  CsvWriter csv("bench_results/fig07_cpu_utilization.csv",
                {"half_second", "balloon_guest", "balloon_host", "virtio_guest", "virtio_host",
                 "squeezy_guest", "squeezy_host"});
  BenchJson json("fig07_cpu_utilization");
  json.SetColumns({"half_second", "balloon_guest", "balloon_host", "virtio_guest",
                   "virtio_host", "squeezy_guest", "squeezy_host"});
  for (size_t s = 0; s < balloon.guest.size(); ++s) {
    const std::vector<std::string> row = {
        std::to_string(s), TablePrinter::Num(balloon.guest[s], 1),
        TablePrinter::Num(balloon.host[s], 1), TablePrinter::Num(virtio.guest[s], 1),
        TablePrinter::Num(virtio.host[s], 1), TablePrinter::Num(squeezy.guest[s], 1),
        TablePrinter::Num(squeezy.host[s], 1)};
    csv.AddRow(row);
    json.AddRow(row);
  }

  TablePrinter table({"Method", "Guest mean%", "Guest peak%", "Host mean%", "Host peak%"});
  table.AddRow({"Balloon", TablePrinter::Num(MeanOf(balloon.guest), 1),
                TablePrinter::Num(MaxOf(balloon.guest), 1), TablePrinter::Num(MeanOf(balloon.host), 1),
                TablePrinter::Num(MaxOf(balloon.host), 1)});
  table.AddRow({"Virtio-mem", TablePrinter::Num(MeanOf(virtio.guest), 1),
                TablePrinter::Num(MaxOf(virtio.guest), 1), TablePrinter::Num(MeanOf(virtio.host), 1),
                TablePrinter::Num(MaxOf(virtio.host), 1)});
  table.AddRow({"Squeezy", TablePrinter::Num(MeanOf(squeezy.guest), 1),
                TablePrinter::Num(MaxOf(squeezy.guest), 1),
                TablePrinter::Num(MeanOf(squeezy.host), 1),
                TablePrinter::Num(MaxOf(squeezy.host), 1)});
  table.Print(std::cout);
  json.Metric("balloon_host_peak_pct", MaxOf(balloon.host));
  json.Metric("virtio_guest_peak_pct", MaxOf(virtio.guest));
  json.Metric("virtio_guest_mean_pct", MeanOf(virtio.guest));
  json.Metric("squeezy_guest_peak_pct", MaxOf(squeezy.guest));
  json.Metric("squeezy_host_peak_pct", MaxOf(squeezy.host));
  const std::string json_path = json.Write();
  std::cout << "\nPer-second timelines: bench_results/fig07_cpu_utilization.csv\nJSON: "
            << json_path << "\n";
  return 0;
}
