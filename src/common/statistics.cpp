#include "common/statistics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace mlpm {

double PercentileOfSorted(std::span<const double> sorted, double p) {
  Expects(!sorted.empty(), "Percentile of empty sample set");
  Expects(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double Percentile(std::span<const double> values, double p) {
  std::vector<double> copy(values.begin(), values.end());
  return PercentilesInPlace(copy, {&p, 1}).front();
}

std::vector<double> Percentiles(std::span<const double> values,
                                std::span<const double> ps) {
  Expects(!values.empty(), "Percentiles of empty sample set");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) out.push_back(PercentileOfSorted(sorted, p));
  return out;
}

std::vector<double> PercentilesInPlace(std::span<double> values,
                                       std::span<const double> ps) {
  Expects(!values.empty(), "Percentiles of empty sample set");
  const std::size_t n = values.size();
  // PercentileOfSorted reads ranks lo and lo + 1 of each percentile.
  const auto low_rank = [n](double p) {
    Expects(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
    return static_cast<std::size_t>(p / 100.0 * static_cast<double>(n - 1));
  };
  std::vector<std::size_t> ranks;
  for (double p : ps) {
    const std::size_t lo = low_rank(p);
    ranks.push_back(lo);
    if (lo + 1 < n) ranks.push_back(lo + 1);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  // Fix the ranks in ascending order: once rank k is in place, every value
  // before it is <= it and every value after it is >= it, so the next rank
  // only needs selecting among the values after k.
  auto from = values.begin();
  for (std::size_t k : ranks) {
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(k);
    std::nth_element(from, nth, values.end());
    from = nth + 1;
  }
  // The formula of PercentileOfSorted on the same two values, so the
  // result is bit-identical.
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) out.push_back(PercentileOfSorted(values, p));
  return out;
}

SampleStats Summarize(std::span<const double> values) {
  Expects(!values.empty(), "Summarize of empty sample set");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());

  SampleStats s;
  s.count = sorted.size();
  s.min = sorted.front();
  s.max = sorted.back();
  double sum = 0.0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(s.count);
  double var = 0.0;
  for (double v : sorted) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(s.count));

  s.p50 = PercentileOfSorted(sorted, 50.0);
  s.p90 = PercentileOfSorted(sorted, 90.0);
  s.p97 = PercentileOfSorted(sorted, 97.0);
  s.p99 = PercentileOfSorted(sorted, 99.0);
  return s;
}

double GeometricMean(std::span<const double> values) {
  Expects(!values.empty(), "GeometricMean of empty sample set");
  double log_sum = 0.0;
  for (double v : values) {
    Expects(v > 0.0, "GeometricMean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace mlpm
