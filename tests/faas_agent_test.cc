// Unit/integration tests for the in-VM agent: dispatch, cold starts,
// keep-alive, the processor-sharing scheduler, and kernel interference.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "src/faas/agent.h"
#include "src/faas/function.h"
#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"

namespace squeezy {
namespace {

// A test function profile small enough to reason about analytically.
FunctionSpec TinySpec() {
  FunctionSpec s;
  s.name = "tiny";
  s.vcpu_shares = 1.0;
  s.memory_limit = MiB(256);
  s.anon_working_set = MiB(64);
  s.file_deps_bytes = MiB(32);
  s.container_init_cpu = Msec(100);
  s.function_init_cpu = Msec(200);
  s.exec_cpu_mean = Msec(100);
  s.exec_cv = 0.0;  // Deterministic exec (lognormal with cv=0 is the mean).
  s.rootfs_fraction = 0.5;
  s.init_anon_fraction = 0.5;
  s.exec_file_fraction = 0.0;
  return s;
}

class AgentTest : public testing::Test {
 protected:
  void SetUp() override {
    host_ = std::make_unique<HostMemory>(GiB(64));
    hv_ = std::make_unique<Hypervisor>(host_.get(), &cost_);
    GuestConfig gcfg;
    gcfg.name = "agent-vm";
    gcfg.vcpus = 4;
    gcfg.base_memory = MiB(512);
    gcfg.hotplug_region = GiB(4);
    gcfg.shuffle_allocator = false;
    guest_ = std::make_unique<GuestKernel>(gcfg, hv_.get());
    guest_->PlugMemory(GiB(4), 0);  // Memory statically available.
  }

  std::unique_ptr<Agent> MakeAgent(AgentConfig acfg, DurationNs grant_delay = 0) {
    AgentCallbacks cbs;
    cbs.acquire_memory = [this, grant_delay](std::function<void(DurationNs)> ready) {
      ++acquires_;
      events_.ScheduleAfter(grant_delay,
                            [ready = std::move(ready), grant_delay] { ready(grant_delay); });
    };
    cbs.release_memory = [this] { ++releases_; };
    cbs.instance_idle = [this] {
      if (on_idle_) {
        on_idle_();
      }
    };
    return std::make_unique<Agent>(&events_, guest_.get(), nullptr, TinySpec(), acfg,
                                   std::move(cbs), 42);
  }

  CostModel cost_ = CostModel::Default();
  EventQueue events_;
  std::unique_ptr<HostMemory> host_;
  std::unique_ptr<Hypervisor> hv_;
  std::unique_ptr<GuestKernel> guest_;
  int acquires_ = 0;
  int releases_ = 0;
  std::function<void()> on_idle_;  // Runs whenever an instance goes idle.
};

TEST_F(AgentTest, ColdStartThenWarmReuse) {
  AgentConfig acfg;
  acfg.max_concurrency = 4;
  acfg.vcpus = 4;
  acfg.keep_alive = Minutes(2);
  auto agent = MakeAgent(acfg);

  agent->Submit();
  events_.RunUntil(Minutes(1));
  ASSERT_EQ(agent->requests().size(), 1u);
  EXPECT_TRUE(agent->requests()[0].cold);
  EXPECT_EQ(agent->cold_starts().size(), 1u);
  EXPECT_EQ(acquires_, 1);
  EXPECT_EQ(agent->idle_instances(), 1u);

  // A second request inside keep-alive reuses the warm instance.
  agent->Submit();
  events_.RunUntil(Minutes(2));
  ASSERT_EQ(agent->requests().size(), 2u);
  EXPECT_FALSE(agent->requests()[1].cold);
  EXPECT_EQ(acquires_, 1);  // No new instance.
  // Warm latency ~ exec only; cold latency includes init phases.
  EXPECT_LT(agent->requests()[1].latency(), agent->requests()[0].latency() / 2);
}

TEST_F(AgentTest, ColdStartBreakdownPhasesPresent) {
  AgentConfig acfg;
  acfg.max_concurrency = 1;
  acfg.vcpus = 1;
  auto agent = MakeAgent(acfg, /*grant_delay=*/Msec(40));
  agent->Submit();
  events_.RunUntil(Minutes(1));
  ASSERT_EQ(agent->cold_starts().size(), 1u);
  const ColdStartBreakdown& cs = agent->cold_starts()[0];
  EXPECT_EQ(cs.vmm, Msec(40));
  EXPECT_GE(cs.container_init, Msec(100));   // CPU + rootfs IO.
  EXPECT_GE(cs.function_init, Msec(200));    // CPU + deps IO + anon faults.
  EXPECT_GE(cs.first_exec, Msec(100));
  EXPECT_EQ(cs.total(), cs.vmm + cs.container_init + cs.function_init + cs.first_exec);
}

TEST_F(AgentTest, KeepAliveEvictsIdleInstance) {
  AgentConfig acfg;
  acfg.max_concurrency = 2;
  acfg.vcpus = 2;
  acfg.keep_alive = Minutes(2);
  auto agent = MakeAgent(acfg);
  agent->Submit();
  events_.RunUntil(Minutes(1));
  EXPECT_EQ(agent->idle_instances(), 1u);
  events_.RunUntil(Minutes(4));
  EXPECT_EQ(agent->idle_instances(), 0u);
  EXPECT_EQ(agent->live_instances(), 0u);
  EXPECT_EQ(agent->total_evictions(), 1u);
  EXPECT_EQ(releases_, 1);
  // Its guest process exited and its memory was freed.
  EXPECT_EQ(guest_->live_process_count(), 0u);
}

TEST_F(AgentTest, ReuseResetsKeepAlive) {
  AgentConfig acfg;
  acfg.max_concurrency = 1;
  acfg.vcpus = 1;
  acfg.keep_alive = Minutes(2);
  auto agent = MakeAgent(acfg);
  agent->Submit();
  events_.RunUntil(Sec(100));  // Instance idle well before 2 min.
  agent->Submit();             // Re-used at t=100s.
  events_.RunUntil(Sec(215));  // Original keep-alive (from ~t=6s) passed...
  EXPECT_EQ(agent->live_instances(), 1u);  // ...but the reuse reset it.
  events_.RunUntil(Sec(300));
  EXPECT_EQ(agent->live_instances(), 0u);
}

TEST_F(AgentTest, BurstSpawnsUpToConcurrencyLimit) {
  AgentConfig acfg;
  acfg.max_concurrency = 3;
  acfg.vcpus = 3;
  auto agent = MakeAgent(acfg);
  for (int i = 0; i < 8; ++i) {
    agent->Submit();
  }
  EXPECT_EQ(agent->live_instances(), 3u);  // Cap respected.
  EXPECT_EQ(acquires_, 3);
  events_.RunUntil(Minutes(1));
  EXPECT_EQ(agent->requests().size(), 8u);  // Queue drained by the 3.
  EXPECT_EQ(agent->total_spawns(), 3u);
}

TEST_F(AgentTest, ContentionStretchesExecution) {
  // 1 vCPU, 2 concurrent requests => each runs at half speed.
  AgentConfig acfg;
  acfg.max_concurrency = 2;
  acfg.vcpus = 1;
  auto agent = MakeAgent(acfg);
  agent->Submit();
  events_.RunUntil(Minutes(1));
  agent->Submit();  // Warm single request: baseline.
  events_.RunUntil(Minutes(2));
  const DurationNs solo = agent->requests()[1].latency();

  agent->Submit();
  agent->Submit();  // Two warm-ish requests (second needs a cold start).
  events_.RunUntil(Minutes(4));
  ASSERT_EQ(agent->requests().size(), 4u);
  // The two overlapping requests ran slower than the solo one.
  EXPECT_GT(agent->requests()[2].latency(), solo);
}

TEST_F(AgentTest, KernelInterferenceSlowsRequests) {
  AgentConfig acfg;
  acfg.max_concurrency = 1;
  acfg.vcpus = 1;
  auto agent = MakeAgent(acfg);
  agent->Submit();
  events_.RunUntil(Minutes(1));
  agent->Submit();  // Baseline warm exec.
  events_.RunUntil(Minutes(2));
  const DurationNs baseline = agent->requests()[1].latency();

  // A kernel thread (virtio-mem migration worker) hogs the vCPU while the
  // next request runs: with 1 vCPU the request crawls at the 5% floor
  // until the interference ends (paper Fig 9's mechanism).
  agent->Submit();
  agent->AddKernelInterference(Msec(400));
  events_.RunUntil(Minutes(3));
  const DurationNs interfered = agent->requests()[2].latency();
  EXPECT_GT(interfered, baseline + Msec(300));
}

TEST_F(AgentTest, EvictOldestIdlePicksOldest) {
  AgentConfig acfg;
  acfg.max_concurrency = 2;
  acfg.vcpus = 2;
  auto agent = MakeAgent(acfg);
  agent->Submit();
  agent->Submit();
  events_.RunUntil(Minutes(1));
  ASSERT_EQ(agent->idle_instances(), 2u);
  const TimeNs oldest = agent->OldestIdleSince();
  ASSERT_GE(oldest, 0);
  EXPECT_TRUE(agent->EvictOldestIdle());
  EXPECT_EQ(agent->idle_instances(), 1u);
  // The remaining instance idled later.
  EXPECT_GT(agent->OldestIdleSince(), oldest - 1);
  EXPECT_TRUE(agent->EvictOldestIdle());
  EXPECT_FALSE(agent->EvictOldestIdle());
}

TEST_F(AgentTest, InstanceSeriesTracksScaleUpAndDown) {
  AgentConfig acfg;
  acfg.max_concurrency = 4;
  acfg.vcpus = 4;
  acfg.keep_alive = Sec(30);
  auto agent = MakeAgent(acfg);
  for (int i = 0; i < 4; ++i) {
    agent->Submit();
  }
  events_.RunUntil(Minutes(5));
  EXPECT_DOUBLE_EQ(agent->instance_series().Max(), 4.0);
  EXPECT_DOUBLE_EQ(agent->instance_series().At(Minutes(5)), 0.0);
}

TEST_F(AgentTest, InstanceSeriesHasOnePointPerSpawnOrEviction) {
  AgentConfig acfg;
  acfg.max_concurrency = 2;
  acfg.vcpus = 2;
  acfg.keep_alive = Minutes(2);
  auto agent = MakeAgent(acfg);
  // 200 requests a second apart: one instance serves them all warm.
  constexpr int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    events_.ScheduleAt(Sec(i), [&agent] { agent->Submit(); });
  }
  events_.RunUntil(Minutes(10));
  EXPECT_EQ(agent->latencies().count(), static_cast<size_t>(kRequests));
  EXPECT_EQ(agent->total_spawns(), 1u);
  EXPECT_EQ(agent->total_evictions(), 1u);
  const StepSeries& series = agent->instance_series();
  EXPECT_LE(series.size(), agent->total_spawns() + agent->total_evictions());
  EXPECT_DOUBLE_EQ(series.Max(), 1.0);
  EXPECT_DOUBLE_EQ(series.At(Sec(kRequests / 2)), 1.0);
  EXPECT_DOUBLE_EQ(series.At(Minutes(10)), 0.0);
}

TEST_F(AgentTest, MemoryStarvedRequestsWaitForGrant) {
  AgentConfig acfg;
  acfg.max_concurrency = 1;
  acfg.vcpus = 1;
  // The grant arrives after 10 s (host memory pressure).
  auto agent = MakeAgent(acfg, /*grant_delay=*/Sec(10));
  agent->Submit();
  events_.RunUntil(Sec(5));
  EXPECT_EQ(agent->requests().size(), 0u);
  EXPECT_EQ(agent->queued_requests(), 1u);
  events_.RunUntil(Minutes(1));
  ASSERT_EQ(agent->requests().size(), 1u);
  // Latency includes the 10 s wait.
  EXPECT_GT(agent->requests()[0].latency(), Sec(10));
}

// Ids of the agent's instances in `state`, lowest first.
std::vector<int32_t> InstancesIn(const Agent& agent, InstanceState state) {
  std::vector<int32_t> ids;
  for (size_t id = 0; id < agent.instances_created(); ++id) {
    if (agent.instance_state(static_cast<int32_t>(id)) == state) {
      ids.push_back(static_cast<int32_t>(id));
    }
  }
  return ids;
}

TEST_F(AgentTest, EqualEtaItemsCompleteInStartOrder) {
  // Three warm requests of equal work start at one instant on 3 vCPUs, so
  // all three finish at one instant.  They complete in the order they
  // started, and the agent holds one completion event for all of them.
  AgentConfig acfg;
  acfg.max_concurrency = 3;
  acfg.vcpus = 3;
  auto agent = MakeAgent(acfg);
  for (int round = 0; round < 2; ++round) {  // Two rounds warm every instance.
    for (int i = 0; i < 3; ++i) {
      agent->Submit();
    }
    events_.RunUntil(Minutes(1 + round));
  }
  ASSERT_EQ(agent->idle_instances(), 3u);
  std::vector<int32_t> started;
  for (int i = 0; i < 3; ++i) {
    agent->Submit();
    for (const int32_t id : InstancesIn(*agent, InstanceState::kBusy)) {
      if (std::find(started.begin(), started.end(), id) == started.end()) {
        started.push_back(id);
      }
    }
  }
  ASSERT_EQ(started.size(), 3u);
  EXPECT_EQ(events_.pending(), 1u);  // One completion, no keep-alives.
  std::vector<int32_t> finished;
  on_idle_ = [&] {
    for (const int32_t id : InstancesIn(*agent, InstanceState::kIdle)) {
      if (std::find(finished.begin(), finished.end(), id) == finished.end()) {
        finished.push_back(id);
      }
    }
  };
  events_.RunUntil(Minutes(3));
  EXPECT_EQ(finished, started);
  const std::vector<RequestRecord>& reqs = agent->requests();
  ASSERT_EQ(reqs.size(), 9u);
  for (size_t i = 6; i < 9; ++i) {
    EXPECT_FALSE(reqs[i].cold);
    EXPECT_EQ(reqs[i].done, reqs[6].done);
  }
}

TEST_F(AgentTest, CompletionBeatsATiedEventScheduledAfterItsBatch) {
  // The pending completion keeps the sequence number it drew when its
  // batch was scheduled: an unrelated event scheduled later for the same
  // instant runs after it.
  AgentConfig acfg;
  acfg.max_concurrency = 2;
  acfg.vcpus = 2;
  auto agent = MakeAgent(acfg);
  for (int round = 0; round < 2; ++round) {
    agent->Submit();
    agent->Submit();
    events_.RunUntil(Minutes(1 + round));
  }
  ASSERT_EQ(agent->idle_instances(), 2u);
  const size_t before = agent->requests().size();
  agent->Submit();
  events_.RunUntil(Minutes(2) + Msec(30));
  agent->Submit();  // Batch: the first request (70 ms left) and this one.
  TimeNs when = 0;
  ASSERT_TRUE(events_.PeekNext(&when));
  EXPECT_EQ(events_.pending(), 1u);
  size_t done_at_tie = 0;
  events_.ScheduleAt(when, [&] { done_at_tie = agent->requests().size(); });
  events_.RunUntil(Minutes(3));
  EXPECT_EQ(done_at_tie, before + 1);  // The first request was done; the second was not.
  ASSERT_EQ(agent->requests().size(), before + 2);
  EXPECT_EQ(agent->requests()[before].done, when);
}

}  // namespace
}  // namespace squeezy
