// Unit tests for host memory accounting and the hypervisor model.
#include <gtest/gtest.h>

#include <vector>

#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/sim/cost_model.h"
#include "src/sim/cpu_accountant.h"

namespace squeezy {
namespace {

TEST(HostMemoryTest, ReserveWithinCapacity) {
  HostMemory host(GiB(4));
  EXPECT_TRUE(host.TryReserve(GiB(3), 0));
  EXPECT_EQ(host.committed(), GiB(3));
  EXPECT_EQ(host.available(), GiB(1));
  EXPECT_FALSE(host.TryReserve(GiB(2), 0));  // Would exceed capacity.
  EXPECT_EQ(host.committed(), GiB(3));       // Unchanged on failure.
  EXPECT_TRUE(host.TryReserve(GiB(1), 0));   // Exact fit.
  EXPECT_EQ(host.available(), 0u);
}

TEST(HostMemoryTest, ReleaseReservation) {
  HostMemory host(GiB(4));
  ASSERT_TRUE(host.TryReserve(GiB(2), 0));
  host.ReleaseReservation(GiB(1), Sec(1));
  EXPECT_EQ(host.committed(), GiB(1));
}

TEST(HostMemoryTest, PopulationTracksPeak) {
  HostMemory host(GiB(4));
  host.Populate(GiB(1), 0);
  host.Populate(GiB(2), Sec(1));
  EXPECT_EQ(host.populated(), GiB(3));
  host.Unpopulate(GiB(2), Sec(2));
  EXPECT_EQ(host.populated(), GiB(1));
  EXPECT_EQ(host.populated_peak(), GiB(3));
}

TEST(HostMemoryTest, SeriesRecordTimestamps) {
  HostMemory host(GiB(4));
  host.Populate(MiB(100), Sec(1));
  host.Populate(MiB(100), Sec(2));
  host.Unpopulate(MiB(50), Sec(3));
  const StepSeries& s = host.populated_series();
  EXPECT_DOUBLE_EQ(s.At(Sec(1)), static_cast<double>(MiB(100)));
  EXPECT_DOUBLE_EQ(s.At(Sec(2)), static_cast<double>(MiB(200)));
  EXPECT_DOUBLE_EQ(s.At(Sec(4)), static_cast<double>(MiB(150)));
}

class HypervisorTest : public testing::Test {
 protected:
  HostMemory host_{GiB(8)};
  CostModel cost_ = CostModel::Default();
  CpuAccountant cpu_{Sec(1)};
  Hypervisor hv_{&host_, &cost_, &cpu_};
};

TEST_F(HypervisorTest, RegisterVmAssignsIds) {
  const VmId a = hv_.RegisterVm("vm-a", 2);
  const VmId b = hv_.RegisterVm("vm-b", 4);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(hv_.stats(a).name, "vm-a");
  EXPECT_EQ(hv_.stats(b).vcpus, 4u);
}

TEST_F(HypervisorTest, NestedFaultPopulates) {
  const VmId vm = hv_.RegisterVm("vm", 1);
  const DurationNs lat = hv_.NestedFaultPopulate(vm, 3, MiB(6), 0);
  EXPECT_EQ(lat, 3 * cost_.nested_fault_exit);
  EXPECT_EQ(hv_.stats(vm).nested_faults, 3u);
  EXPECT_EQ(hv_.stats(vm).populated_bytes, MiB(6));
  EXPECT_EQ(host_.populated(), MiB(6));
}

TEST_F(HypervisorTest, AckUnplugReleasesBacking) {
  const VmId vm = hv_.RegisterVm("vm", 1);
  hv_.NestedFaultPopulate(vm, 64, kMemoryBlockBytes, 0);
  const DurationNs lat = hv_.AckUnplugBlock(vm, kMemoryBlockBytes, Sec(1));
  EXPECT_EQ(lat, cost_.block_unplug_exit);
  EXPECT_EQ(hv_.stats(vm).populated_bytes, 0u);
  EXPECT_EQ(host_.populated(), 0u);
}

TEST_F(HypervisorTest, BalloonReleaseAccountsPages) {
  const VmId vm = hv_.RegisterVm("vm", 1);
  hv_.NestedFaultPopulate(vm, 1, PagesToBytes(100), 0);
  // One report of 100 populated pages.
  std::vector<uint64_t> reports(101);
  reports[100] = 1;
  const DurationNs lat = hv_.BalloonRelease(vm, reports, 0);
  EXPECT_EQ(lat, 100 * cost_.balloon_exit_page);
  EXPECT_EQ(host_.populated(), 0u);
  EXPECT_EQ(hv_.stats(vm).populated_bytes, 0u);
}

TEST_F(HypervisorTest, CountedBalloonReleaseEqualsOneReleasePerReport) {
  // Reports released {0, 3, 3, 2} populated pages; one counted release
  // must book what four single-report releases book, 1 ns before a CPU
  // window edge so every charge spills into the next window.
  const TimeNs now = Sec(1) - 1;
  std::vector<uint64_t> all(4);
  all[0] = 1;
  all[2] = 1;
  all[3] = 2;
  HostMemory host(GiB(1));
  CpuAccountant cpu;
  Hypervisor hv(&host, &cost_, &cpu);
  const VmId vm = hv.RegisterVm("vm", 1);
  hv.NestedFaultPopulate(vm, 1, PagesToBytes(10), 0);
  const DurationNs lat = hv.BalloonRelease(vm, all, now);

  HostMemory ref_host(GiB(1));
  CpuAccountant ref_cpu;
  Hypervisor ref_hv(&ref_host, &cost_, &ref_cpu);
  const VmId ref_vm = ref_hv.RegisterVm("vm", 1);
  ref_hv.NestedFaultPopulate(ref_vm, 1, PagesToBytes(10), 0);
  DurationNs ref_lat = 0;
  for (const size_t k : {size_t{0}, size_t{3}, size_t{3}, size_t{2}}) {
    std::vector<uint64_t> one(k + 1);
    one[k] = 1;
    ref_lat += ref_hv.BalloonRelease(ref_vm, one, now);
  }
  EXPECT_EQ(lat, 8 * cost_.balloon_exit_page);
  EXPECT_EQ(lat, ref_lat);
  EXPECT_EQ(host.populated(), PagesToBytes(2));
  EXPECT_EQ(host.populated(), ref_host.populated());
  ASSERT_EQ(host.populated_series().points().size(),
            ref_host.populated_series().points().size());
  for (size_t i = 0; i < host.populated_series().points().size(); ++i) {
    EXPECT_EQ(host.populated_series().points()[i].t, ref_host.populated_series().points()[i].t);
    EXPECT_EQ(host.populated_series().points()[i].value,
              ref_host.populated_series().points()[i].value);
  }
  EXPECT_EQ(hv.stats(vm).populated_bytes, ref_hv.stats(ref_vm).populated_bytes);
  EXPECT_EQ(cpu.threads(), ref_cpu.threads());
  EXPECT_EQ(cpu.Series("vmm/vm"), ref_cpu.Series("vmm/vm"));
  EXPECT_EQ(cpu.TotalBusy("vmm/vm"), ref_cpu.TotalBusy("vmm/vm"));
  // No report: no host call at all.
  const size_t points = host.populated_series().points().size();
  EXPECT_EQ(hv.BalloonRelease(vm, std::vector<uint64_t>(4), Sec(5)), 0);
  EXPECT_EQ(host.populated_series().points().size(), points);
}

TEST_F(HypervisorTest, ReleaseAllPopulatedOnTeardown) {
  const VmId vm = hv_.RegisterVm("vm", 1);
  hv_.NestedFaultPopulate(vm, 10, MiB(20), 0);
  hv_.ReleaseAllPopulated(vm, Sec(2));
  EXPECT_EQ(hv_.stats(vm).populated_bytes, 0u);
  EXPECT_EQ(host_.populated(), 0u);
}

TEST_F(HypervisorTest, HostThreadCpuCharged) {
  const VmId vm = hv_.RegisterVm("vm-x", 1);
  hv_.NestedFaultPopulate(vm, 1000, MiB(2), 0);
  EXPECT_GT(cpu_.TotalBusy("vmm/vm-x"), 0);
}

}  // namespace
}  // namespace squeezy
