// Unit tests of the benchmark's own statistics and schedule code
// (src/stats.h). Plain checks, no framework: exits non-zero on the first
// failed expectation.
//
//   cmake --build .bench_build/perfbench --target perfbench_stats_test
//   .bench_build/perfbench/perfbench_stats_test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cc:%d: expectation failed: %s\n", line,
                 what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

void TestPercentile() {
  using perfbench::Percentile;
  // 1..100: nearest rank p50 = 50, p99 = 99 with one sample beyond.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const auto p50 = Percentile(v, 50.0);
  EXPECT(Near(p50.value, 50.0));
  EXPECT(p50.samples == 100);
  EXPECT(p50.beyond == 50);
  const auto p99 = Percentile(v, 99.0);
  EXPECT(Near(p99.value, 99.0));
  EXPECT(p99.beyond == 1);
  EXPECT(Near(Percentile(v, 100.0).value, 100.0));
  EXPECT(Percentile(v, 100.0).beyond == 0);
  // 2000 samples leave 20 beyond p99, enough to report it.
  std::vector<double> big;
  for (int i = 1; i <= 2000; ++i) big.push_back(i);
  EXPECT(Percentile(big, 99.0).beyond == 20);
  EXPECT(Near(Percentile(big, 99.0).value, 1980.0));
  // Ties: samples beyond count strictly greater values only.
  const auto tied = Percentile({1, 2, 2, 2, 3}, 50.0);
  EXPECT(Near(tied.value, 2.0));
  EXPECT(tied.beyond == 1);
  // Edge cases: one sample, empty input.
  EXPECT(Near(Percentile({7.5}, 99.0).value, 7.5));
  EXPECT(Percentile({}, 50.0).samples == 0);
  EXPECT(Near(Percentile({}, 50.0).value, 0.0));
}

void TestMedianMean() {
  using perfbench::Median;
  EXPECT(Near(Median({3, 1, 2}), 2.0));
  EXPECT(Near(Median({4, 1, 3, 2}), 2.5));
  EXPECT(Near(Median({}), 0.0));
  EXPECT(Near(Median({0.8127}), 0.8127));
  EXPECT(Near(perfbench::Mean({1, 2, 3, 4}), 2.5));
}

void TestSchedule() {
  using perfbench::Arrival;
  using perfbench::OpenLoopSchedule;
  perfbench::ScheduleOptions o;
  o.queries_per_second = 100.0;
  o.duration_us = 60'000'000;
  o.burst_size = 4;
  o.burst_gap_mean_us = 3000.0;
  o.footprints = 512;
  const std::vector<Arrival> a = OpenLoopSchedule(5, o);
  const std::vector<Arrival> b = OpenLoopSchedule(5, o);
  const std::vector<Arrival> c = OpenLoopSchedule(6, o);
  // Same seed, same schedule; another seed, another schedule.
  EXPECT(a.size() == b.size());
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_us == b[i].due_us && a[i].footprint == b[i].footprint;
  }
  EXPECT(same);
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_us != c[i].due_us;
  }
  EXPECT(differs);
  // Sorted, inside the window, footprints in range.
  bool sorted = true, in_window = true, in_range = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].due_us < a[i - 1].due_us) sorted = false;
    if (a[i].due_us < 0 || a[i].due_us >= o.duration_us) in_window = false;
    if (a[i].footprint >= o.footprints) in_range = false;
  }
  EXPECT(sorted);
  EXPECT(in_window);
  EXPECT(in_range);
  // The offered rate holds on average: 6000 expected over 60 s (Poisson
  // bursts of four: standard deviation ~155 arrivals).
  EXPECT(a.size() > 5200 && a.size() < 6800);
  // Bursts: every footprint id is due in groups, so far fewer distinct
  // footprints than arrivals are used in any one second.
  std::set<uint32_t> first_second;
  size_t arrivals_first_second = 0;
  for (const Arrival& x : a) {
    if (x.due_us >= 1'000'000) break;
    first_second.insert(x.footprint);
    ++arrivals_first_second;
  }
  EXPECT(first_second.size() < arrivals_first_second);
  // Degenerate options give an empty schedule instead of looping.
  perfbench::ScheduleOptions none = o;
  none.queries_per_second = 0.0;
  EXPECT(OpenLoopSchedule(1, none).empty());
}

void TestSplitMix() {
  perfbench::SplitMix r(42);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = r.Unit();
    EXPECT(u >= 0.0 && u < 1.0);
    sum += r.Exponential(2.0);
  }
  EXPECT(std::fabs(sum / 100000.0 - 2.0) < 0.05);
}

}  // namespace

int main() {
  TestPercentile();
  TestMedianMean();
  TestSchedule();
  TestSplitMix();
  if (failures == 0) std::printf("perfbench_stats_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
