// Small, dependency-free statistics and load-schedule helpers of the
// benchmark: nearest-rank percentiles with their sample counts, medians,
// and the seeded open-loop arrival schedule. Kept header-only and free of
// PayLess types so tests/stats_test.cc can check them in isolation.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile together with the evidence behind it: how many samples the
/// distribution had and how many lie strictly above the reported value. A
/// tail figure is only meaningful with at least ten samples beyond it.
struct PercentileValue {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

/// Nearest-rank percentile (p in (0, 100]) of `samples`; the smallest value
/// such that at least p% of the samples are <= it. Empty input gives 0.
inline PercentileValue Percentile(std::vector<double> samples, double p) {
  PercentileValue out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  index = std::min(index, samples.size() - 1);
  out.value = samples[index];
  out.beyond = static_cast<size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), out.value));
  return out;
}

/// Median (mean of the two middle values for an even count). Empty gives 0.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// splitmix64: a tiny portable generator, so a seed yields the same
/// schedule with every standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n must be positive.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Exponential with the given mean.
  double Exponential(double mean) { return -mean * std::log1p(-Unit()); }

 private:
  uint64_t state_;
};

/// One open-loop arrival: when the query is due (microseconds after the
/// window opens) and which footprint it reads.
struct Arrival {
  int64_t due_us = 0;
  uint32_t footprint = 0;
};

struct ScheduleOptions {
  double queries_per_second = 100.0;  // offered rate, bursts included
  int64_t duration_us = 10'000'000;   // last due time is below this
  uint32_t burst_size = 4;            // queries per footprint burst
  double burst_gap_mean_us = 3000.0;  // mean gap inside one burst
  uint32_t footprints = 512;          // footprint ids are drawn below this
};

/// Seeded open-loop schedule: bursts start as a Poisson process at rate
/// queries_per_second / burst_size; each burst is `burst_size` arrivals for
/// one uniformly drawn footprint, separated by exponential gaps. The result
/// is sorted by due time (bursts may interleave) and depends on nothing but
/// `seed` and `options`.
inline std::vector<Arrival> OpenLoopSchedule(uint64_t seed,
                                             const ScheduleOptions& options) {
  std::vector<Arrival> out;
  if (options.queries_per_second <= 0.0 || options.burst_size == 0 ||
      options.footprints == 0) {
    return out;
  }
  SplitMix rng(seed);
  const double burst_interval_us =
      1e6 * options.burst_size / options.queries_per_second;
  double burst_start = rng.Exponential(burst_interval_us);
  while (burst_start < static_cast<double>(options.duration_us)) {
    const auto footprint = static_cast<uint32_t>(rng.Below(options.footprints));
    double due = burst_start;
    for (uint32_t i = 0; i < options.burst_size; ++i) {
      if (i > 0) due += rng.Exponential(options.burst_gap_mean_us);
      if (due >= static_cast<double>(options.duration_us)) break;
      out.push_back(Arrival{static_cast<int64_t>(due), footprint});
    }
    burst_start += rng.Exponential(burst_interval_us);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due_us < b.due_us;
                   });
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
