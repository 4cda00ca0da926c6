// Recorded-constants lock for the fig12 cluster headline (PR 2/PR 3).
//
// The co-design result the ROADMAP advertises — kHintedBinPack drops the
// 4-host fig12 sweep's memory-starved scale-ups from 156 (plain
// MemBinPack) to 121 under Squeezy — is a deterministic function of
// (bench config, seed).  The constants below were captured from
// bench/fig12_cluster_scale.cc at the PR 2 tree; this test replays the
// bench configuration — shared verbatim through bench/fig12_config.h, so
// the two cannot drift apart — and any divergence fails here first and
// must be re-recorded as an INTENTIONAL behavior change.
//
// Re-recording: PARITY_DUMP=1 ./fig12_regression_test prints the
// constants in source form.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>

#include "bench/fig12_config.h"
#include "src/cluster/cluster.h"
#include "src/faas/function.h"
#include "src/trace/cluster_trace.h"
#include "tests/oracles/scan_placement.h"

namespace squeezy {
namespace {

// Recorded on the PR 2 tree (fig12 4-host sweep, restricted capacity).
constexpr uint64_t kGoldenTraceInvocations = 7297;
constexpr uint64_t kGoldenHintedAdmitted = 7297;
constexpr uint64_t kGoldenHintedPending = 121;
constexpr uint64_t kGoldenBinPackPending = 156;

struct SweepPoint {
  uint64_t trace_size = 0;
  uint64_t admitted = 0;
  uint64_t routing_hash = 0;
  FleetSummary fleet;
};

SweepPoint RunCombo(PlacementPolicy placement, uint64_t host_capacity,
                    Cluster::MakeDeciders deciders = &Cluster::IndexedDeciders) {
  const ClusterConfig cfg =
      fig12::SweepConfig(ReclaimPolicy::kSqueezy, placement, host_capacity);
  Cluster cluster(cfg, deciders);
  for (const FunctionSpec& spec : PaperFunctions()) {
    cluster.AddFunction(spec, fig12::kConcurrency);
  }
  const std::vector<Invocation> trace =
      GenerateClusterTrace(fig12::TraceConfig(), fig12::kSeed);
  cluster.SubmitTrace(trace);
  cluster.RunUntil(fig12::kHorizon);
  SweepPoint p;
  p.trace_size = trace.size();
  p.routing_hash = cluster.routing_hash();
  p.fleet = cluster.Summarize(fig12::kHorizon);
  p.admitted = trace.size() - p.fleet.unplaced_invocations;
  return p;
}

TEST(Fig12RegressionTest, HintedBinPackHeadlineIsLocked) {
  // The restricted capacity derives from the abundant-memory committed
  // peak, exactly as the bench computes it.
  const SweepPoint abundant = RunCombo(PlacementPolicy::kRoundRobin, GiB(512));
  const uint64_t cap = static_cast<uint64_t>(
      fig12::kCapacityFraction *
      static_cast<double>(abundant.fleet.committed_peak / fig12::kHosts));

  const SweepPoint binpack = RunCombo(PlacementPolicy::kMemoryAwareBinPack, cap);
  const SweepPoint hinted = RunCombo(PlacementPolicy::kHintedBinPack, cap);

  if (std::getenv("PARITY_DUMP") != nullptr) {
    std::cout << "constexpr uint64_t kGoldenTraceInvocations = " << abundant.trace_size
              << ";\nconstexpr uint64_t kGoldenHintedAdmitted = " << hinted.admitted
              << ";\nconstexpr uint64_t kGoldenHintedPending = "
              << hinted.fleet.pending_scaleups_total
              << ";\nconstexpr uint64_t kGoldenBinPackPending = "
              << binpack.fleet.pending_scaleups_total << ";\n";
  }

  EXPECT_EQ(abundant.trace_size, kGoldenTraceInvocations);
  EXPECT_EQ(hinted.admitted, kGoldenHintedAdmitted);
  EXPECT_EQ(hinted.fleet.pending_scaleups_total, kGoldenHintedPending);
  EXPECT_EQ(binpack.fleet.pending_scaleups_total, kGoldenBinPackPending);
  // The co-design relation itself, independent of the exact constants:
  // hints must never make starvation worse than the plain bin-packer.
  EXPECT_LE(hinted.fleet.pending_scaleups_total, binpack.fleet.pending_scaleups_total);
  EXPECT_EQ(hinted.fleet.unplug_failures, 0u);  // Squeezy never times out here.
}

TEST(Fig12RegressionTest, ScanOracleReproducesTheGoldenConstants) {
  // The golden headline must hold under the production deciders AND the
  // snapshot-scan oracle (tests/oracles/scan_placement.h).  The index's
  // exactness contract (src/cluster/host_index.h) says the recorded
  // constants are a property of the *decisions*, never of the
  // implementation that computes them.
  const SweepPoint abundant = RunCombo(PlacementPolicy::kRoundRobin, GiB(512));
  const uint64_t cap = static_cast<uint64_t>(
      fig12::kCapacityFraction *
      static_cast<double>(abundant.fleet.committed_peak / fig12::kHosts));

  const SweepPoint scan = RunCombo(PlacementPolicy::kHintedBinPack, cap, &ScanDeciders);
  const SweepPoint indexed =
      RunCombo(PlacementPolicy::kHintedBinPack, cap, &Cluster::IndexedDeciders);

  EXPECT_EQ(scan.admitted, kGoldenHintedAdmitted);
  EXPECT_EQ(scan.fleet.pending_scaleups_total, kGoldenHintedPending);
  EXPECT_EQ(indexed.admitted, kGoldenHintedAdmitted);
  EXPECT_EQ(indexed.fleet.pending_scaleups_total, kGoldenHintedPending);
  // Bit-identical all the way down: the order-sensitive routing digest
  // and the fleet book, not just the headline counters.
  EXPECT_EQ(scan.routing_hash, indexed.routing_hash);
  EXPECT_EQ(scan.fleet.completed_requests, indexed.fleet.completed_requests);
  EXPECT_EQ(scan.fleet.committed_peak, indexed.fleet.committed_peak);
}

}  // namespace
}  // namespace squeezy
