// Unit tests for trace generation, churn analysis, and memhog.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/trace/churn.h"
#include "src/trace/memhog.h"
#include "src/trace/trace_gen.h"

namespace squeezy {
namespace {

TEST(TraceGenTest, SortedAndWithinDuration) {
  Rng rng(1);
  BurstyTraceConfig cfg;
  cfg.duration = Minutes(5);
  const auto trace = GenerateBurstyTrace(cfg, rng);
  ASSERT_FALSE(trace.empty());
  for (size_t i = 1; i < trace.size(); ++i) {
    ASSERT_GE(trace[i].at, trace[i - 1].at);
  }
  EXPECT_LT(trace.back().at, cfg.duration);
  EXPECT_GE(trace.front().at, 0);
}

TEST(TraceGenTest, DeterministicForSeed) {
  BurstyTraceConfig cfg;
  Rng a(5);
  Rng b(5);
  const auto ta = GenerateBurstyTrace(cfg, a);
  const auto tb = GenerateBurstyTrace(cfg, b);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i].at, tb[i].at);
  }
}

TEST(TraceGenTest, BurstsRaiseArrivalDensity) {
  Rng rng(2);
  BurstyTraceConfig cfg;
  cfg.duration = Minutes(30);
  cfg.base_rate_per_sec = 0.2;
  cfg.burst_rate_per_sec = 20.0;
  const auto trace = GenerateBurstyTrace(cfg, rng);
  // Count arrivals per 10-second bin; bursty traces must show both very
  // quiet and very hot bins.
  std::map<int64_t, int> bins;
  for (const Invocation& inv : trace) {
    bins[inv.at / Sec(10)]++;
  }
  int hot = 0;
  for (const auto& [bin, count] : bins) {
    (void)bin;
    if (count > 50) {
      ++hot;
    }
  }
  EXPECT_GT(hot, 0) << "expected at least one burst-dense bin";
  // Quiet bins exist too (bins absent from the map count as quiet).
  EXPECT_LT(bins.size(), static_cast<size_t>(cfg.duration / Sec(10)));
}

TEST(TraceGenTest, FunctionTagPropagates) {
  Rng rng(3);
  BurstyTraceConfig cfg;
  cfg.function = 7;
  const auto trace = GenerateBurstyTrace(cfg, rng);
  for (const Invocation& inv : trace) {
    ASSERT_EQ(inv.function, 7);
  }
}

TEST(TraceGenTest, MergeInterleavesSorted) {
  std::vector<Invocation> a = {{Sec(1), 0}, {Sec(3), 0}};
  std::vector<Invocation> b = {{Sec(2), 1}, {Sec(4), 1}};
  const auto merged = MergeTraces({a, b});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].function, 0);
  EXPECT_EQ(merged[1].function, 1);
  EXPECT_EQ(merged[2].function, 0);
  EXPECT_EQ(merged[3].function, 1);
}

// The k-way merge equals a stable sort of the streams' concatenation by
// time: ties go to the lower stream, then keep each stream's order.
TEST(TraceGenTest, MergeMatchesStableSortWithTies) {
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<Invocation>> streams(
        static_cast<size_t>(rng.UniformInt(1, 12)));
    for (size_t s = 0; s < streams.size(); ++s) {
      const int64_t n = rng.UniformInt(0, 200);
      TimeNs t = 0;
      for (int64_t i = 0; i < n; ++i) {
        t += rng.UniformInt(0, 3);  // Coarse steps: many equal timestamps.
        // The function tag records (stream, position) to check the order.
        streams[s].push_back(Invocation{t, static_cast<int32_t>(s * 1000 + i)});
      }
    }
    std::vector<Invocation> reference;
    for (const auto& st : streams) {
      reference.insert(reference.end(), st.begin(), st.end());
    }
    const auto by_time = [](const Invocation& a, const Invocation& b) {
      return a.at < b.at;
    };
    std::stable_sort(reference.begin(), reference.end(), by_time);
    const std::vector<Invocation> merged = MergeTraces(streams);
    ASSERT_EQ(merged.size(), reference.size()) << "round " << round;
    for (size_t i = 0; i < merged.size(); ++i) {
      ASSERT_EQ(merged[i].at, reference[i].at) << "round " << round << ", entry " << i;
      ASSERT_EQ(merged[i].function, reference[i].function)
          << "round " << round << ", entry " << i;
    }
  }
}

// --- Churn -----------------------------------------------------------------

TEST(ChurnTest, SingleRequestCreatesThenEvicts) {
  ChurnConfig cfg;
  cfg.keep_alive = Minutes(5);
  cfg.exec_time = Sec(1);
  const auto minutes = AnalyzeChurn({{Sec(30), 0}}, cfg);
  ASSERT_GE(minutes.size(), 6u);
  EXPECT_EQ(minutes[0].creations, 1u);
  EXPECT_EQ(minutes[0].evictions, 0u);
  // Eviction lands one keep-alive after completion: minute 5.
  EXPECT_EQ(minutes[5].evictions, 1u);
  EXPECT_EQ(minutes[5].alive, 0u);
}

TEST(ChurnTest, ReuseWithinKeepAliveAvoidsCreation) {
  ChurnConfig cfg;
  cfg.keep_alive = Minutes(5);
  cfg.exec_time = Sec(1);
  // Second request arrives while the first instance idles.
  const auto minutes = AnalyzeChurn({{Sec(10), 0}, {Minutes(2), 0}}, cfg);
  uint64_t total_creations = 0;
  for (const auto& m : minutes) {
    total_creations += m.creations;
  }
  EXPECT_EQ(total_creations, 1u);
}

TEST(ChurnTest, ConcurrentRequestsForceParallelInstances) {
  ChurnConfig cfg;
  cfg.exec_time = Sec(10);
  // Three near-simultaneous requests: all need their own instance.
  const auto minutes = AnalyzeChurn({{Sec(1), 0}, {Sec(2), 0}, {Sec(3), 0}}, cfg);
  EXPECT_EQ(minutes[0].creations, 3u);
}

TEST(ChurnTest, BurstyTraceProducesChurn) {
  Rng rng(4);
  BurstyTraceConfig tcfg;
  tcfg.duration = Minutes(20);
  tcfg.burst_rate_per_sec = 30.0;
  const auto trace = GenerateBurstyTrace(tcfg, rng);
  ChurnConfig cfg;
  cfg.keep_alive = Minutes(5);
  cfg.exec_time = Sec(2);
  const auto minutes = AnalyzeChurn(trace, cfg);
  uint64_t creations = 0;
  uint64_t evictions = 0;
  for (const auto& m : minutes) {
    creations += m.creations;
    evictions += m.evictions;
  }
  EXPECT_GT(creations, 10u);
  EXPECT_EQ(creations, evictions);  // Everything eventually evicts.
}

// --- Memhog -----------------------------------------------------------------

class MemhogTest : public testing::Test {
 protected:
  void SetUp() override {
    host_ = std::make_unique<HostMemory>(GiB(16));
    hv_ = std::make_unique<Hypervisor>(host_.get(), &cost_);
    GuestConfig cfg;
    cfg.base_memory = MiB(512);
    cfg.hotplug_region = GiB(2);
    cfg.seed = 11;
    guest_ = std::make_unique<GuestKernel>(cfg, hv_.get());
    guest_->PlugMemory(GiB(2), 0);
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<HostMemory> host_;
  std::unique_ptr<Hypervisor> hv_;
  std::unique_ptr<GuestKernel> guest_;
};

TEST_F(MemhogTest, StartReachesResidentTarget) {
  MemhogConfig cfg;
  cfg.bytes = MiB(256);
  Memhog hog(guest_.get(), cfg);
  ASSERT_TRUE(hog.Start(0));
  EXPECT_TRUE(hog.running());
  EXPECT_EQ(hog.resident_bytes(), MiB(256));
}

TEST_F(MemhogTest, ChurnKeepsResidentStable) {
  MemhogConfig cfg;
  cfg.bytes = MiB(128);
  Memhog hog(guest_.get(), cfg);
  ASSERT_TRUE(hog.Start(0));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(hog.Churn(0));
    EXPECT_EQ(hog.resident_bytes(), MiB(128));
  }
}

TEST_F(MemhogTest, ChurnScattersFootprintAcrossBlocks) {
  MemhogConfig cfg;
  cfg.bytes = MiB(256);
  cfg.warmup_cycles = 8;
  Memhog hog(guest_.get(), cfg);
  ASSERT_TRUE(hog.Start(0));
  std::set<BlockIndex> blocks;
  for (const FolioRef& f : guest_->process(hog.pid()).folios()) {
    if (f.head != kInvalidPfn) {
      blocks.insert(MemMap::BlockOf(f.head));
    }
  }
  // 256 MiB fits in 2 blocks; churn + shuffle must spread it wider.
  EXPECT_GT(blocks.size(), 2u);
}

TEST_F(MemhogTest, StopReleasesEverything) {
  MemhogConfig cfg;
  cfg.bytes = MiB(64);
  Memhog hog(guest_.get(), cfg);
  ASSERT_TRUE(hog.Start(0));
  const uint64_t allocated = guest_->movable_zone().allocated_pages();
  EXPECT_GT(allocated, 0u);
  hog.Stop();
  EXPECT_FALSE(hog.running());
  EXPECT_EQ(guest_->movable_zone().allocated_pages(), 0u);
}

TEST_F(MemhogTest, OomWhenTargetExceedsMemory) {
  MemhogConfig cfg;
  cfg.bytes = GiB(4);  // VM only has ~2.5 GiB.
  Memhog hog(guest_.get(), cfg);
  EXPECT_FALSE(hog.Start(0));
  EXPECT_FALSE(hog.running());
}

}  // namespace
}  // namespace squeezy
