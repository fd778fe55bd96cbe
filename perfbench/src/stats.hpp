// Order statistics used by every reported timing.
//
// Quantiles follow Python's `statistics.quantiles(..., method="exclusive")`
// (the (n+1)-position rule with linear interpolation and the same clamping),
// so a quartile printed here and one recomputed from the same samples in
// Python agree. The tail rule picks the highest rung of a fixed ladder that
// still has at least ten samples beyond it, so a "tail" is never a single
// outlier.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// Quantile q in (0, 1) of `sorted` (ascending, at least one element).
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  if (n == 1) return sorted[0];
  // Position h on the 1-based (n+1) scale; j is clamped to [1, n-1] as in
  // Python, which extrapolates linearly outside the sample range.
  const double h = q * static_cast<double>(n + 1);
  std::size_t j = static_cast<std::size_t>(h);
  j = std::clamp<std::size_t>(j, 1, n - 1);
  const double delta = h - static_cast<double>(j);
  return sorted[j - 1] + delta * (sorted[j] - sorted[j - 1]);
}

// Tail ladder, in per-mille so the ">= 10 beyond" test is exact integer
// arithmetic.
inline constexpr std::uint32_t kTailLadderPermille[] = {500, 750, 900,
                                                        950, 990, 999};

// Highest ladder rung q (per-mille) with n * (1 - q) >= 10; nullopt when
// even the median has fewer than ten samples beyond it (n < 20).
inline std::optional<std::uint32_t> tail_rung_permille(std::size_t n) {
  std::optional<std::uint32_t> best;
  for (std::uint32_t q : kTailLadderPermille) {
    if (static_cast<std::uint64_t>(n) * (1000 - q) >= 10 * 1000) best = q;
  }
  return best;
}

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  std::optional<std::uint32_t> tail_permille;  // rung of `tail`, if any
  double tail = 0.0;
};

inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.median = quantile_sorted(values, 0.5);
  s.p25 = quantile_sorted(values, 0.25);
  s.p75 = quantile_sorted(values, 0.75);
  s.tail_permille = tail_rung_permille(s.n);
  if (s.tail_permille) {
    s.tail = quantile_sorted(values, *s.tail_permille / 1000.0);
  }
  return s;
}

}  // namespace perfbench
