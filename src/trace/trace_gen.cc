#include "src/trace/trace_gen.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <utility>

namespace squeezy {

uint64_t TraceStreamSeed(uint64_t base_seed, int32_t function) {
  // SplitMix64 finalizer over base_seed xor a per-function offset (see the
  // header for why this must not depend on generation order).
  uint64_t z = base_seed ^ (0x9e3779b97f4a7c15ULL *
                            (static_cast<uint64_t>(function) + 1));
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Invocation> GenerateBurstyTrace(const BurstyTraceConfig& config,
                                            uint64_t base_seed) {
  Rng rng(TraceStreamSeed(base_seed, config.function));
  return GenerateBurstyTrace(config, rng);
}

std::vector<Invocation> GenerateBurstyTrace(const BurstyTraceConfig& config, Rng& rng) {
  std::vector<Invocation> out;
  TimeNs t = 0;
  bool in_burst = false;
  TimeNs phase_end = 0;

  // Alternate quiet/burst phases; arrivals are Poisson within each phase.
  while (t < config.duration) {
    if (t >= phase_end) {
      in_burst = !in_burst;
      const DurationNs mean = in_burst ? config.mean_burst_len : config.mean_gap;
      phase_end = t + static_cast<DurationNs>(rng.Exponential(static_cast<double>(mean)));
      continue;
    }
    const double rate = in_burst ? config.burst_rate_per_sec : config.base_rate_per_sec;
    if (rate <= 0.0) {
      t = phase_end;
      continue;
    }
    const DurationNs gap = static_cast<DurationNs>(rng.Exponential(1.0 / rate) * kSecond);
    t += std::max<DurationNs>(gap, 1);
    if (t < config.duration && t < phase_end) {
      out.push_back(Invocation{t, config.function});
    } else if (t >= phase_end) {
      continue;  // Phase flipped; re-evaluate rate.
    }
  }
  return out;
}

std::vector<Invocation> MergeTraces(std::vector<std::vector<Invocation>> traces) {
  // k-way merge through a min-heap of (next arrival, stream) heads: ties
  // go to the lower stream index, which is the order a stable sort of
  // the streams' concatenation by time gives.
  using Head = std::pair<TimeNs, size_t>;
  std::vector<Head> heads;
  std::vector<size_t> next(traces.size(), 0);
  size_t total = 0;
  for (size_t s = 0; s < traces.size(); ++s) {
    const std::vector<Invocation>& t = traces[s];
    for (size_t i = 1; i < t.size(); ++i) {
      assert(t[i - 1].at <= t[i].at && "MergeTraces takes streams sorted by time");
    }
    total += t.size();
    if (!t.empty()) {
      heads.emplace_back(t.front().at, s);
    }
  }
  const std::greater<Head> later;
  std::make_heap(heads.begin(), heads.end(), later);
  std::vector<Invocation> merged;
  merged.reserve(total);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    const size_t s = heads.back().second;
    merged.push_back(traces[s][next[s]++]);
    if (next[s] < traces[s].size()) {
      heads.back().first = traces[s][next[s]].at;
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
    }
  }
  return merged;
}

}  // namespace squeezy
