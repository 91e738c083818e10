#include "queueing/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace phoenix::queueing {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Clear() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::second_moment() const {
  return variance() + mean() * mean();
}

WindowedStats::WindowedStats(std::size_t window) : window_(window) {
  PHOENIX_CHECK_MSG(window > 0, "window must be positive");
}

void WindowedStats::Add(double x) {
  if (ring_.empty()) ring_.resize(window_);
  const double old = ring_[next_];
  ring_[next_] = x;
  if (++next_ == window_) next_ = 0;
  // The new sample joins both sums before the evicted one leaves them.
  sum_ += x;
  sum_sq_ += x * x;
  if (count_ == window_) {
    sum_ -= old;
    sum_sq_ -= old * old;
  } else {
    ++count_;
  }
}

void WindowedStats::Clear() {
  next_ = 0;
  count_ = 0;
  sum_ = 0.0;
  sum_sq_ = 0.0;
}

double WindowedStats::mean() const {
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(count_);
}

double WindowedStats::second_moment() const {
  if (count_ == 0) return 0.0;
  // Guard against tiny negative values from float cancellation.
  return std::max(0.0, sum_sq_ / static_cast<double>(count_));
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  PHOENIX_CHECK_MSG(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
}

void Ewma::Add(double x) {
  if (!seeded_) {
    value_ = x;
    seeded_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

}  // namespace phoenix::queueing
