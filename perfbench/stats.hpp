// Order statistics for the benchmark's timings.
//
// A percentile is reported only when at least kMinTail samples lie beyond
// it: a p99 over 300 samples is decided by three of them and would read as
// noise, so the helper refuses instead of guessing.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank q-quantile (q in (0, 1)): the ceil(q*n)-th smallest sample.
/// Returns nullopt when fewer than kMinTail samples rank above it.
[[nodiscard]] inline std::optional<double> percentile(
    std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("percentile: q outside (0, 1)");
  }
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinTail) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Like percentile(), but a refusal is an error the run cannot report
/// around.
[[nodiscard]] inline double require_percentile(std::vector<double> samples,
                                               double q, const char* what) {
  const std::size_t n = samples.size();
  const std::optional<double> value = percentile(std::move(samples), q);
  if (!value) {
    throw std::runtime_error(std::string(what) + ": " + std::to_string(n) +
                             " samples leave fewer than " +
                             std::to_string(kMinTail) +
                             " beyond the requested percentile");
  }
  return *value;
}

/// Median (mean of the two middle samples for even counts); 0 when empty.
[[nodiscard]] inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Splits `samples` (in time order) into consecutive windows of `window`
/// samples, the shorter remainder joining the last full window, and
/// returns the median of the windows' q-quantiles.  A tail percentile of
/// one long pooled run is set by its worst few seconds; the median over
/// windows reads the typical window.  Throws when a window is too thin
/// for the quantile.
[[nodiscard]] inline double windowed_percentile(
    const std::vector<double>& samples, double q, std::size_t window,
    const char* what) {
  const std::size_t windows = std::max<std::size_t>(
      samples.size() / std::max<std::size_t>(window, 1), 1);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() +
                       static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows
                         ? samples.end()
                         : begin + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(
        require_percentile(std::vector<double>(begin, end), q, what));
  }
  return median(std::move(per_window));
}

/// One timed block of consecutive closed-loop steps.
struct TimedBlock {
  std::size_t seq = 0;  ///< position in the run, across instances
  double wall_s = 0.0;
  std::vector<double> step_us;

  [[nodiscard]] double per_step_s() const {
    return wall_s / static_cast<double>(std::max<std::size_t>(
                        step_us.size(), 1));
  }
};

/// Sorts `blocks` fastest first (by wall time per step) and returns how
/// many of them ran within `tolerance` of the reference block, the one at
/// the 10th percentile of speed.
inline std::size_t sort_and_count_fast(std::vector<TimedBlock>& blocks,
                                       double tolerance) {
  std::stable_sort(blocks.begin(), blocks.end(),
                   [](const TimedBlock& a, const TimedBlock& b) {
                     return a.per_step_s() < b.per_step_s();
                   });
  if (blocks.empty()) return 0;
  const double limit = tolerance * blocks[blocks.size() / 10].per_step_s();
  std::size_t fast = 0;
  while (fast < blocks.size() && blocks[fast].per_step_s() <= limit) ++fast;
  return fast;
}

}  // namespace perfbench
