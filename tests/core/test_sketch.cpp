// Property tests for the streaming quantile estimators: the GK sketch's
// rank-error guarantee against exact order statistics, batched inserts that
// match one-at-a-time inserts bit for bit, and checkpoint blobs that
// round-trip and fail closed.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/stats.h"

namespace bismark {
namespace {

// The GK guarantee: quantile(q) returns a stream element whose true rank r
// satisfies |r - q*n| <= eps*n. With duplicates the returned value owns a
// rank *range*; the guarantee holds if any rank in that range qualifies.
void ExpectWithinRankError(const QuantileSketch& sketch, std::vector<double> data,
                           double eps_budget) {
  std::sort(data.begin(), data.end());
  const double n = static_cast<double>(data.size());
  const double slack = eps_budget * n + 1.0;  // +1: rank discretisation
  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = sketch.quantile(q);
    const auto lo = std::lower_bound(data.begin(), data.end(), v);
    const auto hi = std::upper_bound(data.begin(), data.end(), v);
    ASSERT_NE(lo, hi) << "quantile(" << q << ") returned " << v
                      << ", which is not a stream element";
    // 1-based rank range occupied by v in the sorted sample.
    const double r_lo = static_cast<double>(lo - data.begin()) + 1.0;
    const double r_hi = static_cast<double>(hi - data.begin());
    const double target = q * n;
    const double dist = target < r_lo ? r_lo - target : (target > r_hi ? target - r_hi : 0.0);
    EXPECT_LE(dist, slack) << "quantile(" << q << ") = " << v << " has rank ["
                           << r_lo << ", " << r_hi << "], target " << target;
  }
}

TEST(QuantileSketch, UniformStreamWithinRankError) {
  Rng rng(7001);
  QuantileSketch sketch(0.005);
  std::vector<double> data;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.uniform(0.0, 1000.0);
    data.push_back(v);
    sketch.add(v);
  }
  EXPECT_EQ(sketch.count(), data.size());
  ExpectWithinRankError(sketch, data, sketch.eps());
}

TEST(QuantileSketch, HeavyTailedStreamWithinRankError) {
  Rng rng(7002);
  QuantileSketch sketch(0.005);
  std::vector<double> data;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.pareto(1.0, 1.2);  // flow-size-like tail
    data.push_back(v);
    sketch.add(v);
  }
  ExpectWithinRankError(sketch, data, sketch.eps());
}

TEST(QuantileSketch, SortedAndReversedStreams) {
  for (const bool reversed : {false, true}) {
    QuantileSketch sketch(0.01);
    std::vector<double> data;
    for (int i = 0; i < 20000; ++i) {
      const double v = reversed ? 20000.0 - i : static_cast<double>(i);
      data.push_back(v);
      sketch.add(v);
    }
    ExpectWithinRankError(sketch, data, sketch.eps());
  }
}

TEST(QuantileSketch, ManyDuplicates) {
  Rng rng(7003);
  QuantileSketch sketch(0.01);
  std::vector<double> data;
  for (int i = 0; i < 30000; ++i) {
    // Device-count-like integers: a handful of distinct values.
    const double v = std::floor(rng.uniform(0.0, 8.0));
    data.push_back(v);
    sketch.add(v);
  }
  ExpectWithinRankError(sketch, data, sketch.eps());
}

TEST(QuantileSketch, SketchStaysSublinear) {
  Rng rng(7004);
  QuantileSketch sketch(0.005);
  for (int i = 0; i < 200000; ++i) sketch.add(rng.uniform(0.0, 1.0));
  // O((1/eps) log(eps n)) tuples: generous ceiling far below the stream.
  EXPECT_LT(sketch.tuples(), 4000u);
  EXPECT_EQ(sketch.count(), 200000u);
}

TEST(QuantileSketch, MinMaxExact) {
  QuantileSketch sketch(0.01);
  Rng rng(7006);
  double lo = 1e300, hi = -1e300;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.normal(50.0, 20.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    sketch.add(v);
  }
  EXPECT_DOUBLE_EQ(sketch.min(), lo);
  EXPECT_DOUBLE_EQ(sketch.max(), hi);
}

TEST(QuantileSketch, SerializeRoundTripAnswersIdentically) {
  Rng rng(7010);
  QuantileSketch sketch(0.01);
  for (int i = 0; i < 20000; ++i) sketch.add(rng.lognormal(2.0, 1.5));

  QuantileSketch loaded;
  ASSERT_TRUE(QuantileSketch::Deserialize(sketch.Serialize(), &loaded));
  EXPECT_EQ(loaded.count(), sketch.count());
  EXPECT_DOUBLE_EQ(loaded.eps(), sketch.eps());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(loaded.quantile(q), sketch.quantile(q)) << q;
  }

  // A resumed sketch must keep absorbing adds exactly like the original
  // (checkpoint/resume continues streaming into restored sketches).
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.uniform(0.0, 100.0);
    sketch.add(v);
    loaded.add(v);
  }
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(loaded.quantile(q), sketch.quantile(q)) << q;
  }

  QuantileSketch empty(0.005);
  QuantileSketch empty_loaded;
  ASSERT_TRUE(QuantileSketch::Deserialize(empty.Serialize(), &empty_loaded));
  EXPECT_TRUE(empty_loaded.empty());
}

TEST(QuantileSketch, DeserializeFailsClosedOnDamage) {
  QuantileSketch sketch(0.01);
  for (int i = 0; i < 1000; ++i) sketch.add(static_cast<double>(i));
  const std::string blob = sketch.Serialize();

  QuantileSketch out(0.5);
  EXPECT_FALSE(QuantileSketch::Deserialize("", &out));
  EXPECT_FALSE(QuantileSketch::Deserialize(blob.substr(0, blob.size() / 2), &out));
  EXPECT_FALSE(QuantileSketch::Deserialize(blob + "x", &out));
  std::string bent = blob;
  bent[0] = static_cast<char>(bent[0] ^ 0x7);  // magic
  EXPECT_FALSE(QuantileSketch::Deserialize(bent, &out));
  // A failed load leaves *out untouched.
  EXPECT_DOUBLE_EQ(out.eps(), 0.5);
  EXPECT_TRUE(out.empty());
}

/// One-at-a-time GK inserts (insert each add at its lower bound, compress
/// every 1/(2 eps) adds), emitting the GKS1 blob layout. The sketch buffers
/// adds and inserts them in batches; its blobs must equal this reference's.
class SequentialGk {
 public:
  explicit SequentialGk(double eps) : eps_(eps) {}

  void add(double v) {
    auto it = std::lower_bound(tuples_.begin(), tuples_.end(), v,
                               [](const Tuple& t, double x) { return t.v < x; });
    Tuple fresh{v, 1, 0};
    if (it != tuples_.begin() && it != tuples_.end()) fresh.delta = it->g + it->delta - 1;
    tuples_.insert(it, fresh);
    ++n_;
    if (++since_ >= static_cast<std::uint64_t>(1.0 / (2.0 * eps_))) {
      compress();
      since_ = 0;
    }
  }

  [[nodiscard]] std::string blob() const {
    std::string out("GKS1", 4);
    put(out, eps_);
    put(out, n_);
    put(out, since_);
    put(out, static_cast<std::uint64_t>(tuples_.size()));
    for (const Tuple& t : tuples_) {
      put(out, t.v);
      put(out, t.g);
      put(out, t.delta);
    }
    return out;
  }

 private:
  struct Tuple {
    double v;
    std::uint64_t g;
    std::uint64_t delta;
  };

  template <typename V>
  static void put(std::string& out, V v) {
    char b[8];
    std::memcpy(b, &v, 8);  // little-endian hosts, like the codec
    out.append(b, 8);
  }

  void compress() {
    if (tuples_.size() < 3) return;
    const auto cap = static_cast<std::uint64_t>(2.0 * eps_ * static_cast<double>(n_));
    std::vector<Tuple> out{tuples_.front()};
    std::uint64_t carry = 0;
    for (std::size_t i = 1; i < tuples_.size(); ++i) {
      Tuple t = tuples_[i];
      t.g += carry;
      carry = 0;
      if (i + 1 != tuples_.size() && t.g + tuples_[i + 1].g + tuples_[i + 1].delta < cap) {
        carry = t.g;
      } else {
        out.push_back(t);
      }
    }
    tuples_ = std::move(out);
  }

  double eps_;
  std::uint64_t n_{0};
  std::uint64_t since_{0};
  std::vector<Tuple> tuples_;
};

/// The stream shapes the fleet summary feeds: sorted, reverse-sorted,
/// all-equal, small integers (visible_aps is 0..40) and a continuous tail.
std::vector<std::vector<double>> BatchShapes() {
  Rng rng(7020);
  std::vector<std::vector<double>> shapes(5);
  for (int i = 0; i < 30000; ++i) {
    shapes[0].push_back(static_cast<double>(i));
    shapes[1].push_back(30000.0 - i);
    shapes[2].push_back(3.0);
    shapes[3].push_back(std::floor(rng.uniform(0.0, 41.0)));
    shapes[4].push_back(rng.pareto(1.0, 1.2));
  }
  return shapes;
}

TEST(QuantileSketch, BatchedInsertsMatchOneAtATimeInserts) {
  for (const auto& data : BatchShapes()) {
    QuantileSketch sketch(0.005);
    SequentialGk reference(0.005);
    for (std::size_t i = 0; i < data.size(); ++i) {
      sketch.add(data[i]);
      reference.add(data[i]);
      // Sample whole and partial batches (1/(2 eps) = 100 adds).
      if (i % 997 == 0 || i + 1 == data.size()) {
        ASSERT_EQ(sketch.Serialize(), reference.blob()) << "after " << i + 1 << " adds";
      }
    }
  }
}

TEST(QuantileSketch, BatchedStreamsWithinRankError) {
  for (const auto& data : BatchShapes()) {
    QuantileSketch sketch(0.005);
    for (const double v : data) sketch.add(v);
    EXPECT_EQ(sketch.count(), data.size());
    ExpectWithinRankError(sketch, data, sketch.eps());
  }
}

TEST(QuantileSketch, RoundTripWithPendingAddsContinuesIdentically) {
  for (const auto& data : BatchShapes()) {
    QuantileSketch sketch(0.01);
    // 12345 adds: 45 of them are still buffered (1/(2 eps) = 50).
    for (std::size_t i = 0; i < 12345; ++i) sketch.add(data[i]);
    QuantileSketch loaded;
    ASSERT_TRUE(QuantileSketch::Deserialize(sketch.Serialize(), &loaded));
    EXPECT_EQ(loaded.count(), sketch.count());
    EXPECT_EQ(loaded.tuples(), sketch.tuples());
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_DOUBLE_EQ(loaded.quantile(q), sketch.quantile(q)) << q;
    }
    for (std::size_t i = 12345; i < data.size(); ++i) {
      sketch.add(data[i]);
      loaded.add(data[i]);
    }
    EXPECT_EQ(loaded.Serialize(), sketch.Serialize());
  }
}

TEST(QuantileSketch, ConstQueriesWithPendingAddsDoNotMutate) {
  QuantileSketch sketch(0.005);
  for (int i = 0; i < 1050; ++i) sketch.add(static_cast<double>((i * 37) % 1000));
  const std::string before = sketch.Serialize();
  const double p90 = sketch.quantile(0.9);
  // Concurrent const readers of a sketch with buffered adds.
  std::vector<std::thread> readers;
  std::vector<double> seen(4);
  std::vector<double> lows(4);
  for (std::size_t t = 0; t < seen.size(); ++t) {
    readers.emplace_back([&sketch, &seen, &lows, t] {
      for (int i = 0; i < 200; ++i) {
        seen[t] = sketch.quantile(0.9);
        lows[t] = sketch.min();
      }
    });
  }
  for (auto& r : readers) r.join();
  for (const double v : seen) EXPECT_DOUBLE_EQ(v, p90);
  for (const double v : lows) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_EQ(sketch.Serialize(), before);
}

}  // namespace
}  // namespace bismark
