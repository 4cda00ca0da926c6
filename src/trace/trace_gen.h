// Synthetic invocation trace generation.
//
// The paper drives its FaaS experiments with bursty traces from the Azure
// Functions 2021 collection.  Those traces are not redistributable here,
// so this generator produces seeded synthetic streams with the same
// observable structure: a low Poisson base rate punctuated by heavy
// bursts (flash crowds), which is what exercises scale-up/scale-down.
#ifndef SQUEEZY_TRACE_TRACE_GEN_H_
#define SQUEEZY_TRACE_TRACE_GEN_H_

#include <cstdint>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace squeezy {

struct Invocation {
  TimeNs at = 0;
  int32_t function = 0;  // Caller-defined function index.
};

struct BurstyTraceConfig {
  DurationNs duration = Minutes(10);
  double base_rate_per_sec = 0.5;   // Poisson arrivals between bursts.
  double burst_rate_per_sec = 12.0; // Arrival rate inside a burst.
  DurationNs mean_burst_len = Sec(20);
  DurationNs mean_gap = Sec(60);    // Mean quiet gap between bursts.
  int32_t function = 0;
};

// --- Seeding scheme ---------------------------------------------------------
// Per-function trace streams are seeded as
//
//     stream_seed = splitmix64(base_seed ^ kGolden * (function + 1))
//
// where base_seed is RuntimeConfig::seed and kGolden is the SplitMix64
// increment (0x9e3779b97f4a7c15).  Each stream owns a private Rng, so a
// function's trace is bit-identical for a given (seed, function) pair no
// matter how many other functions or hosts drew randomness before it was
// generated.  That is what makes cluster traces reproducible: host count
// and generation order cannot perturb any stream.  The legacy shared-Rng
// overload below does NOT have this property (stream i depends on how much
// randomness streams 0..i-1 consumed); new code should pass a seed.
uint64_t TraceStreamSeed(uint64_t base_seed, int32_t function);

// One function's bursty arrival stream, sorted by time, from a private
// Rng(TraceStreamSeed(base_seed, config.function)).
std::vector<Invocation> GenerateBurstyTrace(const BurstyTraceConfig& config,
                                            uint64_t base_seed);

// Legacy shared-Rng variant (single-function experiments; order-dependent
// when one Rng feeds several streams).
std::vector<Invocation> GenerateBurstyTrace(const BurstyTraceConfig& config, Rng& rng);

// Merges per-function streams, each sorted by time, into one sorted
// stream; equal times keep stream order (lower index first), then each
// stream's own order.
std::vector<Invocation> MergeTraces(std::vector<std::vector<Invocation>> traces);

}  // namespace squeezy

#endif  // SQUEEZY_TRACE_TRACE_GEN_H_
