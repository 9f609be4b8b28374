// Summary statistics used throughout the analysis layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bismark {

/// Streaming mean / variance / min / max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
  double sum_{0.0};
};

/// Quantile of a sample by linear interpolation between order statistics
/// (the common "R-7" definition). q in [0, 1]. Copies and sorts.
[[nodiscard]] double Quantile(std::span<const double> values, double q);

/// Quantile of an already-sorted sample (no copy).
[[nodiscard]] double QuantileSorted(std::span<const double> sorted, double q);

[[nodiscard]] double Median(std::span<const double> values);
[[nodiscard]] double Mean(std::span<const double> values);
[[nodiscard]] double Sum(std::span<const double> values);

/// Pearson correlation coefficient; 0 if either side is constant.
[[nodiscard]] double Correlation(std::span<const double> x, std::span<const double> y);

/// Greenwald–Khanna streaming quantile sketch.
///
/// Holds O((1/eps) * log(eps * n)) tuples instead of the full sample and
/// answers any quantile query with rank error at most eps * n: the value
/// returned for quantile q is an element whose true rank r satisfies
/// |r - q * n| <= eps * n. This is what lets `analyze` compute the paper's
/// distribution figures from a fleet-scale record stream without the full
/// dataset resident (DESIGN §11). There is deliberately no merge: folding
/// GK sketches sums their eps, so each sketch is fed one stream in order
/// and its bound never grows (analysis/fleet.h).
///
/// add() only buffers: every 1/(2 eps) adds — the compress cadence — the
/// buffer is sorted and merge-inserted into the tuple list in one linear
/// pass, then compressed. A buffered value inherits the g + delta of its
/// first pre-batch successor, which is exactly what one-at-a-time inserts
/// pass along a run of fresh tuples, so the tuples, every answer and every
/// Serialize blob are the same as without the buffer. The insert and the
/// compress are one pass into a scratch tuple array that is then swapped
/// in, so a sketch past its first few batches adds without allocating (a
/// batch holding NaN or -0.0 takes a stable sort, which may allocate). Const
/// members never touch the buffer (they read a settled copy while adds are
/// pending), so concurrent const queries on one sketch are safe.
class QuantileSketch {
 public:
  explicit QuantileSketch(double eps = 0.005);

  void add(double v);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double eps() const { return eps_; }
  /// Tuples currently held, a buffered add counting as the one tuple it
  /// becomes (memory footprint; grows ~ (1/eps) log(eps n)).
  [[nodiscard]] std::size_t tuples() const { return tuples_.size() + pending_.size(); }

  /// Value at quantile q in [0, 1], within eps * n rank error.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Self-contained little-endian blob of the full sketch state; a
  /// deserialized sketch answers every query — and absorbs every future
  /// add — exactly like the original. Used by checkpoint/resume
  /// (DESIGN §12).
  [[nodiscard]] std::string Serialize() const;
  /// Rebuild from Serialize() output. Fails closed: returns false on any
  /// malformed blob (bad length, unsorted tuples, mass/count mismatch)
  /// leaving *out untouched.
  static bool Deserialize(const std::string& blob, QuantileSketch* out);

 private:
  /// One GK tuple: value v covers ranks [r_min, r_min + delta], where
  /// r_min is the sum of g over this and all preceding tuples.
  struct Tuple {
    double v;
    std::uint64_t g;
    std::uint64_t delta;
  };
  /// Merge-insert the buffered adds into the tuple list in one pass,
  /// compressing on the way when `compress` is set.
  void settle(bool compress);
  /// This sketch with its buffered adds inserted; const members query it.
  [[nodiscard]] QuantileSketch settled() const;

  double eps_;
  std::size_t n_{0};
  std::size_t since_compress_{0};
  std::vector<Tuple> tuples_;    // sorted by v
  std::vector<double> pending_;  // adds not yet inserted, in arrival order
  std::vector<Tuple> scratch_;   // settle's output buffer, swapped in; empty between calls
};

/// Convenience: collect values, then answer quantile queries repeatedly.
class Sample {
 public:
  void add(double v) { values_.push_back(v); dirty_ = true; }
  void reserve(std::size_t n) { values_.reserve(n); }

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  mutable std::vector<double> values_;
  mutable bool dirty_{true};
  void ensure_sorted() const;
};

}  // namespace bismark
