// The batch pipe: every sink sees every batch in order at any worker count
// (sinks outnumbering workers included), the producer stays within the
// ring's depth of the slowest sink, and the first error of a sink or the
// producer reaches the caller without a hang.
#include "core/pipe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_pool.h"

namespace bismark {
namespace {

/// Ring bytes that give `items` items per batch for BatchPipe<int>.
constexpr std::size_t RingFor(std::size_t items) {
  return items * BatchPipe<int>::kDepth * sizeof(int);
}

std::unique_ptr<BatchPipe<int>> CountingPipe(int n, std::size_t batch,
                                             std::vector<BatchPipe<int>::Sink> sinks) {
  return std::make_unique<BatchPipe<int>>(
      RingFor(batch),
      [n](BatchPipe<int>& pipe) {
        for (int i = 0; i < n; ++i) pipe.push(i);
      },
      std::move(sinks));
}

TEST(BatchPipe, EverySinkSeesEveryBatchInOrder) {
  constexpr int kItems = 10007;  // the last batch is partial
  constexpr std::size_t kBatch = 64;
  for (const int workers : {1, 2, 4}) {
    for (const std::size_t sink_count : {1u, 3u, 7u}) {
      std::vector<std::vector<int>> seen(sink_count);
      std::vector<std::vector<std::size_t>> batches(sink_count);
      std::vector<BatchPipe<int>::Sink> sinks;
      for (std::size_t s = 0; s < sink_count; ++s) {
        sinks.push_back([&seen, &batches, s](std::span<const int> batch) {
          batches[s].push_back(batch.size());
          seen[s].insert(seen[s].end(), batch.begin(), batch.end());
        });
      }
      std::vector<std::unique_ptr<Pipe>> pipes;
      pipes.push_back(CountingPipe(kItems, kBatch, std::move(sinks)));
      ThreadPool pool(workers);
      RunPipes(pool, pipes);

      std::vector<int> want(kItems);
      std::iota(want.begin(), want.end(), 0);
      std::vector<std::size_t> want_batches(kItems / kBatch, kBatch);
      want_batches.push_back(kItems % kBatch);
      for (std::size_t s = 0; s < sink_count; ++s) {
        EXPECT_EQ(seen[s], want) << "workers " << workers << " sink " << s;
        EXPECT_EQ(batches[s], want_batches) << "workers " << workers << " sink " << s;
      }
    }
  }
}

TEST(BatchPipe, SeveralPipesInOneRound) {
  // More pipes and sinks than workers: every pipe still completes.
  constexpr int kPipes = 5;
  for (const int workers : {1, 2, 4}) {
    std::vector<std::vector<long>> sums(kPipes, std::vector<long>(3, 0));
    std::vector<std::unique_ptr<Pipe>> pipes;
    for (int p = 0; p < kPipes; ++p) {
      std::vector<BatchPipe<int>::Sink> sinks;
      for (std::size_t s = 0; s < 3; ++s) {
        sinks.push_back([&sums, p, s](std::span<const int> batch) {
          for (const int v : batch) sums[p][s] += v;
        });
      }
      pipes.push_back(CountingPipe(1000 * (p + 1), 16, std::move(sinks)));
    }
    ThreadPool pool(workers);
    RunPipes(pool, pipes);
    for (int p = 0; p < kPipes; ++p) {
      const long n = 1000L * (p + 1);
      for (const long sum : sums[p]) EXPECT_EQ(sum, n * (n - 1) / 2) << "pipe " << p;
    }
  }
}

TEST(BatchPipe, ProducerStaysWithinRingDepthOfSlowestSink) {
  constexpr std::size_t kBatch = 8;
  constexpr int kItems = 40 * static_cast<int>(kBatch);
  for (const int workers : {1, 2, 4}) {
    std::vector<std::atomic<std::size_t>> consumed(3);
    std::atomic<std::size_t> worst_lead{0};
    std::vector<BatchPipe<int>::Sink> sinks;
    for (std::size_t s = 0; s < consumed.size(); ++s) {
      sinks.push_back([&consumed, s](std::span<const int>) {
        // Sink 2 is slow, so the producer keeps hitting the full ring.
        if (s == 2) std::this_thread::sleep_for(std::chrono::microseconds(300));
        consumed[s].fetch_add(1);
      });
    }
    std::vector<std::unique_ptr<Pipe>> pipes;
    pipes.push_back(std::make_unique<BatchPipe<int>>(
        RingFor(kBatch),
        [&](BatchPipe<int>& pipe) {
          for (int i = 0; i < kItems; ++i) {
            pipe.push(i);
            if (i % static_cast<int>(kBatch) != 0) continue;
            // Batch i / kBatch is being filled: it and every batch some
            // sink has not finished must fit in the ring.
            std::size_t slowest = consumed[0].load();
            for (const auto& c : consumed) slowest = std::min(slowest, c.load());
            const std::size_t lead = i / kBatch + 1 - slowest;
            std::size_t prev = worst_lead.load();
            while (lead > prev && !worst_lead.compare_exchange_weak(prev, lead)) {
            }
          }
        },
        std::move(sinks)));
    ThreadPool pool(workers);
    RunPipes(pool, pipes);
    EXPECT_LE(worst_lead.load(), BatchPipe<int>::kDepth) << "workers " << workers;
    EXPECT_GE(worst_lead.load(), 2u) << "workers " << workers;  // it did run ahead
    for (const auto& c : consumed) EXPECT_EQ(c.load(), static_cast<std::size_t>(kItems) / kBatch);
  }
}

TEST(BatchPipe, SinkExceptionReachesTheCaller) {
  for (const int workers : {1, 2, 4}) {
    std::atomic<int> other_batches{0};
    std::vector<BatchPipe<int>::Sink> sinks;
    sinks.push_back([&other_batches](std::span<const int>) { other_batches.fetch_add(1); });
    sinks.push_back([](std::span<const int> batch) {
      if (batch.front() >= 5 * 16) throw std::runtime_error("sink failed");
    });
    std::vector<std::unique_ptr<Pipe>> pipes;
    pipes.push_back(CountingPipe(1000000, 16, std::move(sinks)));
    ThreadPool pool(workers);
    try {
      RunPipes(pool, pipes);
      FAIL() << "expected the sink's exception, workers " << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "sink failed");
    }
    // The producer stopped within a ring of the failure, not at the end.
    EXPECT_LT(other_batches.load(), 5 + 2 * static_cast<int>(BatchPipe<int>::kDepth));
  }
}

TEST(BatchPipe, ProducerExceptionReachesTheCaller) {
  for (const int workers : {1, 2, 4}) {
    std::atomic<int> items{0};
    std::vector<BatchPipe<int>::Sink> sinks(
        3, [&items](std::span<const int> batch) { items.fetch_add(static_cast<int>(batch.size())); });
    std::vector<std::unique_ptr<Pipe>> pipes;
    pipes.push_back(std::make_unique<BatchPipe<int>>(
        RingFor(16),
        [](BatchPipe<int>& pipe) {
          for (int i = 0; i < 100; ++i) pipe.push(i);
          throw std::runtime_error("producer failed");
        },
        std::move(sinks)));
    // A healthy pipe in the same round finishes or is skipped; either way
    // the round ends with the first error.
    pipes.push_back(CountingPipe(500, 16, {[](std::span<const int>) {}}));
    ThreadPool pool(workers);
    EXPECT_THROW(RunPipes(pool, pipes), std::runtime_error) << "workers " << workers;
  }
}

}  // namespace
}  // namespace bismark
