// Unit tests for metrics: latency percentiles, step series, tables, CSV.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/metrics/csv.h"
#include "src/metrics/fleet.h"
#include "src/metrics/latency_recorder.h"
#include "src/metrics/table.h"
#include "src/metrics/time_series.h"
#include "src/sim/time.h"

namespace squeezy {
namespace {

// --- LatencyRecorder ----------------------------------------------------------

TEST(LatencyRecorderTest, BasicStats) {
  LatencyRecorder r;
  for (int i = 1; i <= 100; ++i) {
    r.Record(Msec(i));
  }
  EXPECT_EQ(r.count(), 100u);
  EXPECT_EQ(r.Min(), Msec(1));
  EXPECT_EQ(r.Max(), Msec(100));
  EXPECT_EQ(r.Mean(), Msec(50.5));
  EXPECT_EQ(r.Percentile(50), Msec(50));
  EXPECT_EQ(r.Percentile(99), Msec(99));
  EXPECT_EQ(r.Percentile(100), Msec(100));
}

TEST(LatencyRecorderTest, PercentileSingleSample) {
  LatencyRecorder r;
  r.Record(Msec(42));
  EXPECT_EQ(r.Percentile(1), Msec(42));
  EXPECT_EQ(r.Percentile(50), Msec(42));
  EXPECT_EQ(r.Percentile(99), Msec(42));
}

TEST(LatencyRecorderTest, UnsortedInputSortsLazily) {
  LatencyRecorder r;
  r.Record(Msec(30));
  r.Record(Msec(10));
  r.Record(Msec(20));
  EXPECT_EQ(r.Percentile(50), Msec(20));
  r.Record(Msec(5));  // Invalidates the cached copy.
  EXPECT_EQ(r.Min(), Msec(5));
}

// Nearest rank by selection equals nearest rank over a full sort, also
// after more samples arrive between queries.
TEST(LatencyRecorderTest, PercentileMatchesSortedReference) {
  LatencyRecorder r;
  std::vector<DurationNs> all;
  uint64_t x = 0x9e3779b97f4a7c15ull;  // Deterministic LCG stream.
  auto record = [&](int n) {
    for (int i = 0; i < n; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const auto sample = static_cast<DurationNs>((x >> 33) % 500);  // Many ties.
      r.Record(sample);
      all.push_back(sample);
    }
  };
  auto expect_reference = [&]() {
    std::vector<DurationNs> sorted = all;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.1, 50.0, 99.0, 99.9, 100.0}) {
      const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * sorted.size()));
      EXPECT_EQ(r.Percentile(p), sorted[rank == 0 ? 0 : rank - 1])
          << "p " << p << ", " << sorted.size() << " samples";
    }
    EXPECT_EQ(r.Min(), sorted.front());
    EXPECT_EQ(r.Max(), sorted.back());
  };
  record(1);
  expect_reference();
  record(999);
  expect_reference();
  record(4321);
  expect_reference();
  expect_reference();  // Again on the reordered copy.
}

// samples() is the recorded sequence after any percentile query: an
// agent's request log reads its latency column from it by index.
TEST(LatencyRecorderTest, PercentileKeepsRecordOrder) {
  LatencyRecorder r;
  std::vector<DurationNs> recorded;
  uint64_t x = 0x2545f4914f6cdd1dull;  // Deterministic LCG stream.
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto sample = static_cast<DurationNs>((x >> 33) % 300);
    r.Record(sample);
    recorded.push_back(sample);
    if (i % 500 == 499) {
      r.Percentile(50);
      r.Percentile(99);
      r.Percentile(100);
      ASSERT_EQ(r.samples(), recorded) << "after " << recorded.size() << " samples";
    }
  }
  r.Min();
  r.Max();
  r.Mean();
  EXPECT_EQ(r.samples(), recorded);
}

TEST(LatencyRecorderTest, ClearResets) {
  LatencyRecorder r;
  r.Record(1);
  r.Clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.Sum(), 0);
}

TEST(LatencyRecorderTest, GeomeanOfRatios) {
  EXPECT_NEAR(Geomean({2.0, 8.0}), 4.0, 1e-9);
  EXPECT_NEAR(Geomean({1.0, 1.0, 1.0}), 1.0, 1e-9);
  EXPECT_NEAR(Geomean({10.0}), 10.0, 1e-9);
}

// --- StepSeries -----------------------------------------------------------------

TEST(StepSeriesTest, AtReturnsLatestValue) {
  StepSeries s;
  EXPECT_DOUBLE_EQ(s.At(Sec(1)), 0.0);
  s.Push(Sec(1), 10.0);
  s.Push(Sec(3), 20.0);
  EXPECT_DOUBLE_EQ(s.At(0), 0.0);
  EXPECT_DOUBLE_EQ(s.At(Sec(1)), 10.0);
  EXPECT_DOUBLE_EQ(s.At(Sec(2)), 10.0);
  EXPECT_DOUBLE_EQ(s.At(Sec(3)), 20.0);
  EXPECT_DOUBLE_EQ(s.At(Sec(100)), 20.0);
}

TEST(StepSeriesTest, SameInstantSupersedes) {
  StepSeries s;
  s.Push(Sec(1), 10.0);
  s.Push(Sec(1), 15.0);
  EXPECT_DOUBLE_EQ(s.At(Sec(1)), 15.0);
  EXPECT_EQ(s.size(), 1u);
}

TEST(StepSeriesTest, IntegralPiecewise) {
  StepSeries s;
  s.Push(0, 1.0);
  s.Push(Sec(10), 3.0);
  // [0,10): 1.0 * 10 + [10,20): 3.0 * 10 = 40.
  EXPECT_DOUBLE_EQ(s.IntegralSec(0, Sec(20)), 40.0);
  // Sub-range [5, 15): 1*5 + 3*5 = 20.
  EXPECT_DOUBLE_EQ(s.IntegralSec(Sec(5), Sec(15)), 20.0);
  // Range before first point integrates zero.
  StepSeries t;
  t.Push(Sec(10), 5.0);
  EXPECT_DOUBLE_EQ(t.IntegralSec(0, Sec(10)), 0.0);
  EXPECT_DOUBLE_EQ(t.IntegralSec(0, Sec(12)), 10.0);
}

TEST(StepSeriesTest, MaxOverSeries) {
  StepSeries s;
  s.Push(0, 1.0);
  s.Push(Sec(1), 7.0);
  s.Push(Sec(2), 3.0);
  EXPECT_DOUBLE_EQ(s.Max(), 7.0);
}

TEST(StepSeriesTest, ResampleFixedStep) {
  StepSeries s;
  s.Push(0, 1.0);
  s.Push(Sec(2), 2.0);
  const std::vector<double> r = s.Resample(0, Sec(4), Sec(1));
  ASSERT_EQ(r.size(), 5u);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
  EXPECT_DOUBLE_EQ(r[4], 2.0);
}

// --- Fleet aggregation --------------------------------------------------------------

// Brute-force reference for SumSeries: the pre-merge definition (every
// input stamp is a step point; the value is the part-order sum of At(t)).
// The k-way merge must be BIT-identical to this, not just close.
StepSeries SumSeriesReference(const std::vector<const StepSeries*>& parts) {
  std::vector<TimeNs> stamps;
  for (const StepSeries* part : parts) {
    for (const StepSeries::Point& p : part->points()) {
      stamps.push_back(p.t);
    }
  }
  std::sort(stamps.begin(), stamps.end());
  stamps.erase(std::unique(stamps.begin(), stamps.end()), stamps.end());
  StepSeries sum;
  for (const TimeNs t : stamps) {
    double v = 0.0;
    for (const StepSeries* part : parts) {
      v += part->At(t);
    }
    sum.Push(t, v);
  }
  return sum;
}

void ExpectBitIdentical(const StepSeries& got, const StepSeries& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.points()[i].t, want.points()[i].t) << "point " << i;
    // EQ, not NEAR: the merge adds part values in part order, exactly
    // like the reference, so even the floating-point bits must agree.
    EXPECT_EQ(got.points()[i].value, want.points()[i].value) << "point " << i;
  }
}

TEST(SumSeriesTest, PointwiseSumStepsAtEveryInputStamp) {
  StepSeries a;
  a.Push(0, 1.0);
  a.Push(Sec(10), 3.0);
  StepSeries b;
  b.Push(Sec(5), 2.0);
  b.Push(Sec(10), 4.0);  // Shared stamp with a.
  b.Push(Sec(20), 0.5);
  const StepSeries sum = SumSeries({&a, &b});
  ASSERT_EQ(sum.size(), 4u);
  EXPECT_DOUBLE_EQ(sum.At(0), 1.0);
  EXPECT_DOUBLE_EQ(sum.At(Sec(5)), 3.0);
  EXPECT_DOUBLE_EQ(sum.At(Sec(10)), 7.0);
  EXPECT_DOUBLE_EQ(sum.At(Sec(20)), 3.5);
  ExpectBitIdentical(sum, SumSeriesReference({&a, &b}));
}

TEST(SumSeriesTest, EmptyAndSinglePartEdges) {
  EXPECT_TRUE(SumSeries({}).empty());
  StepSeries a;
  EXPECT_TRUE(SumSeries({&a}).empty());
  a.Push(Sec(1), 2.5);
  const StepSeries sum = SumSeries({&a});
  ASSERT_EQ(sum.size(), 1u);
  EXPECT_DOUBLE_EQ(sum.At(Sec(1)), 2.5);
}

TEST(SumSeriesTest, ManyPartsBitIdenticalToReference) {
  // 64 "hosts" with irregular, partially overlapping stamps and values
  // chosen to make float addition order matter if it ever changed.
  std::vector<StepSeries> parts(64);
  uint64_t x = 0x243f6a8885a308d3ull;  // Deterministic LCG-ish stream.
  for (size_t p = 0; p < parts.size(); ++p) {
    TimeNs t = 0;
    const int points = 20 + static_cast<int>(p % 13);
    for (int i = 0; i < points; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      t += Msec(1 + static_cast<int64_t>(x % 977));
      const double v = static_cast<double>((x >> 16) % 1000000) / 3.0;
      parts[p].Push(t, v);
    }
  }
  std::vector<const StepSeries*> ptrs;
  for (const StepSeries& s : parts) {
    ptrs.push_back(&s);
  }
  ExpectBitIdentical(SumSeries(ptrs), SumSeriesReference(ptrs));
}

TEST(MergeLatenciesTest, MergesAllSamplesAcrossParts) {
  LatencyRecorder a;
  LatencyRecorder b;
  LatencyRecorder empty;
  for (int i = 1; i <= 50; ++i) {
    a.Record(Msec(i));
    b.Record(Msec(50 + i));
  }
  const LatencyRecorder merged = MergeLatencies({&a, &empty, &b});
  EXPECT_EQ(merged.count(), 100u);
  EXPECT_EQ(merged.Min(), Msec(1));
  EXPECT_EQ(merged.Max(), Msec(100));
  EXPECT_EQ(merged.Percentile(50), Msec(50));
}

// --- TablePrinter -----------------------------------------------------------------

TEST(TablePrinterTest, AlignsAndPrintsAllCells) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1.00"});
  t.AddRule();
  t.AddRow({"beta", "23.50"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("23.50"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
}

TEST(TablePrinterTest, NumberFormatters) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::Int(-42), "-42");
}

// --- CsvWriter ---------------------------------------------------------------------

TEST(CsvWriterTest, WritesHeaderAndRowsWithQuoting) {
  const std::string path = testing::TempDir() + "/squeezy_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    ASSERT_TRUE(w.ok());
    w.AddRow({"1", "plain"});
    w.AddRow({"2", "has,comma"});
    w.AddRow({"3", "has\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,plain");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "3,\"has\"\"quote\"");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, CreatesParentDirectories) {
  const std::string path = testing::TempDir() + "/squeezy_csv_dir/sub/test.csv";
  CsvWriter w(path, {"x"});
  EXPECT_TRUE(w.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace squeezy
