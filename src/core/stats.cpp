#include "core/stats.h"

#include <algorithm>
#include <cmath>

#include "core/binio.h"

namespace bismark {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_ + other.n_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) * static_cast<double>(other.n_) / n;
  mean_ = (mean_ * static_cast<double>(n_) + other.mean_ * static_cast<double>(other.n_)) / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ += other.n_;
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double QuantileSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  q = std::clamp(q, 0.0, 1.0);
  const double h = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Quantile(std::span<const double> values, double q) {
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  return QuantileSorted(copy, q);
}

double Median(std::span<const double> values) { return Quantile(values, 0.5); }

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double Sum(std::span<const double> values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

double Correlation(std::span<const double> x, std::span<const double> y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  const double mx = Mean(x.subspan(0, n));
  const double my = Mean(y.subspan(0, n));
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

QuantileSketch::QuantileSketch(double eps) : eps_(std::clamp(eps, 1e-6, 0.5)) {}

void QuantileSketch::add(double v) {
  pending_.push_back(v);
  ++n_;
  // Amortize insertion and compression: every 1/(2 eps) adds keeps the
  // invariant g + delta <= 2 eps n while touching the array O(1) amortized.
  if (++since_compress_ >= static_cast<std::size_t>(1.0 / (2.0 * eps_))) {
    settle(/*compress=*/true);
    since_compress_ = 0;
  }
}

void QuantileSketch::settle(bool compress) {
  if (pending_.empty()) return;
  // Ascending, equal values newest first (as lower_bound inserts leave
  // them). Equal doubles have equal bits unless they are zeros of both
  // signs, so without -0.0 and NaN the order of ties cannot show and an
  // in-place sort is exact; with them, a stable sort keeps arrival order.
  const bool exotic = std::any_of(pending_.begin(), pending_.end(), [](double v) {
    return std::isnan(v) || (v == 0.0 && std::signbit(v));
  });
  if (exotic) {
    std::reverse(pending_.begin(), pending_.end());
    std::stable_sort(pending_.begin(), pending_.end());
  } else {
    std::sort(pending_.begin(), pending_.end());
  }

  // The merged list, one tuple at a time: the old tuples below the next
  // buffered value, then that value. Interior insert: the successor may
  // carry mass folded up from values below v, so the new tuple inherits
  // that rank uncertainty. Extremes (new min/max) are exact, which keeps
  // min()/max() precise.
  const std::size_t old_size = tuples_.size();
  const std::size_t total = old_size + pending_.size();
  std::size_t i = 0;
  std::size_t j = 0;
  const auto next = [&]() -> Tuple {
    if (j < pending_.size() && (i == old_size || !(tuples_[i].v < pending_[j]))) {
      const bool interior = i > 0 && i < old_size;
      return Tuple{pending_[j++], 1, interior ? tuples_[i].g + tuples_[i].delta - 1 : 0};
    }
    return tuples_[i++];
  };

  scratch_.reserve(total);
  if (!compress || total < 3) {
    for (std::size_t k = 0; k < total; ++k) scratch_.push_back(next());
  } else {
    // Compress on the way: fold each tuple into its successor when the
    // combined slack fits; the first and last tuples are kept so min/max
    // stay exact.
    const auto cap = static_cast<std::uint64_t>(2.0 * eps_ * static_cast<double>(n_));
    scratch_.push_back(next());
    Tuple succ = next();
    std::uint64_t carry = 0;
    for (std::size_t k = 1; k < total; ++k) {
      Tuple t = succ;
      t.g += carry;
      carry = 0;
      if (k + 1 < total) {
        succ = next();
        if (t.g + succ.g + succ.delta < cap) {
          carry = t.g;  // fold this tuple into its successor
          continue;
        }
      }
      scratch_.push_back(t);
    }
  }
  tuples_.swap(scratch_);
  scratch_.clear();
  pending_.clear();
}

QuantileSketch QuantileSketch::settled() const {
  QuantileSketch copy = *this;
  copy.settle(/*compress=*/false);
  return copy;
}

double QuantileSketch::quantile(double q) const {
  if (!pending_.empty()) return settled().quantile(q);
  if (tuples_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return tuples_.front().v;  // extremes are kept exact
  if (q == 1.0) return tuples_.back().v;
  // Canonical GK query: target 1-based rank r; return the value of the last
  // tuple whose maximum possible rank still fits under r + eps*n. Together
  // with the g + delta <= 2*eps*n invariant this bounds rank error by eps*n.
  const double target = 1.0 + q * static_cast<double>(n_ - 1);
  const double limit = target + eps_ * static_cast<double>(n_);
  std::uint64_t r_min = tuples_.front().g;
  for (std::size_t i = 1; i < tuples_.size(); ++i) {
    if (static_cast<double>(r_min + tuples_[i].g + tuples_[i].delta) > limit) {
      return tuples_[i - 1].v;
    }
    r_min += tuples_[i].g;
  }
  return tuples_.back().v;
}

std::string QuantileSketch::Serialize() const {
  if (!pending_.empty()) return settled().Serialize();
  BinWriter w;
  w.raw("GKS1", 4);
  w.f64(eps_);
  w.u64(n_);
  w.u64(since_compress_);
  w.u64(tuples_.size());
  for (const Tuple& t : tuples_) {
    w.f64(t.v);
    w.u64(t.g);
    w.u64(t.delta);
  }
  return w.buffer();
}

bool QuantileSketch::Deserialize(const std::string& blob, QuantileSketch* out) {
  BinReader r(blob.data(), blob.size());
  if (r.raw(4) != "GKS1") return false;
  QuantileSketch sketch;
  sketch.eps_ = r.f64();
  const std::uint64_t n = r.u64();
  const std::uint64_t since = r.u64();
  const std::uint64_t count = r.u64();
  if (r.failed()) return false;
  if (!(sketch.eps_ >= 1e-6 && sketch.eps_ <= 0.5)) return false;  // rejects NaN too
  if (count > blob.size() / 24 + 1) return false;
  sketch.n_ = static_cast<std::size_t>(n);
  sketch.since_compress_ = static_cast<std::size_t>(since);
  sketch.tuples_.reserve(static_cast<std::size_t>(count));
  std::uint64_t mass = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Tuple t{};
    t.v = r.f64();
    t.g = r.u64();
    t.delta = r.u64();
    if (r.failed()) return false;
    if (t.g == 0 || std::isnan(t.v)) return false;
    if (!sketch.tuples_.empty() && t.v < sketch.tuples_.back().v) return false;
    mass += t.g;
    sketch.tuples_.push_back(t);
  }
  if (!r.at_end() || mass != n) return false;  // trailing bytes / rank-mass mismatch
  *out = std::move(sketch);
  return true;
}

double QuantileSketch::min() const {
  if (!pending_.empty()) return settled().min();
  return tuples_.empty() ? 0.0 : tuples_.front().v;
}

double QuantileSketch::max() const {
  if (!pending_.empty()) return settled().max();
  return tuples_.empty() ? 0.0 : tuples_.back().v;
}

void Sample::ensure_sorted() const {
  if (dirty_) {
    std::sort(values_.begin(), values_.end());
    dirty_ = false;
  }
}

double Sample::quantile(double q) const {
  ensure_sorted();
  return QuantileSorted(values_, q);
}

double Sample::mean() const { return Mean(values_); }

double Sample::min() const {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.front();
}

double Sample::max() const {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.back();
}

}  // namespace bismark
