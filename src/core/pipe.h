// A bounded batch pipe: one producer streams items to several sinks, and
// every sink sees every batch, in production order.
//
// The fleet finalize passes have this shape: one canonical-order stream per
// kind (a spill merge or a column scan) feeds several independent
// accumulators — two quantile sketches for wifi_scan, a stripe encoder for
// the snapshot. The producer copies items into fixed-size batches that sit
// in a ring of `depth` slots; a slot is reused only once every sink has
// consumed the batch in it, so the producer never runs more than `depth`
// batches ahead of the slowest sink.
//
// Nothing here starts a thread. A pipe is `tasks()` ordinary ThreadPool
// tasks (RunPipes deals them): task 0 produces, task 1 + i runs sink i as
// batches arrive. A sink's batches may run on any thread that holds that
// sink's lock, so:
//   * a producer that finds the ring full runs the lagging sink itself,
//     unless another thread is already running it;
//   * the producer finishes every sink before its task returns, so the
//     ring is freed as soon as production ends;
//   * with one worker the same code runs every sink inline.
// RunPipes deals each pipe's producer before its sinks, so a sink task only
// ever waits for a producer that is already running, and a running producer
// never waits on anything but a batch in progress: no deadlock.
//
// The first exception of a producer or a sink stops the pipe: waiting sink
// tasks return, the producer stops at its next batch, and the producer's
// task rethrows the error (so ThreadPool::parallel_for reports it).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace bismark {

class ThreadPool;

/// The untyped half of a pipe: batch counters, one lock per sink and the
/// first error. BatchPipe<Item> adds the ring and the typed callbacks.
class Pipe {
 public:
  virtual ~Pipe();
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  /// 1 producer task + one task per sink.
  [[nodiscard]] std::size_t tasks() const { return 1 + sink_count_; }
  /// Task 0 produces the stream and finishes every sink; task 1 + i runs
  /// sink i's batches as they are published until the stream ends.
  void run_task(std::size_t task);

 protected:
  Pipe(std::size_t depth, std::size_t sinks);

  /// Producer side: the ring slot the next batch may fill. Blocks (or runs
  /// the lagging sink) until every sink has consumed the batch that last
  /// used it; rethrows the pipe's error if it has failed.
  std::size_t claim_slot();
  /// Producer side: hand the claimed slot, holding `items` items, to every
  /// sink.
  void publish(std::size_t items);

 private:
  /// Allocate the ring, run the producer, publish its last partial batch.
  virtual void produce() = 0;
  /// Run one sink on the `items` items of ring slot `slot`.
  virtual void consume(std::size_t sink, std::size_t slot, std::size_t items) = 0;
  /// Free the ring (every sink has consumed every batch).
  virtual void release_ring() = 0;

  void producer_task();
  void sink_task(std::size_t sink);
  /// Run sink's next published batch under its lock; false if none (or the
  /// pipe has failed).
  bool step(std::size_t sink);
  bool step_locked(std::size_t sink);
  void fail(std::exception_ptr error);

  const std::size_t depth_;
  const std::size_t sink_count_;
  std::unique_ptr<std::mutex[]> sink_mu_;  // held while a sink's batch runs

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  std::uint64_t published_{0};
  std::vector<std::uint64_t> consumed_;  // batches each sink has finished
  std::vector<std::size_t> items_;       // item count of each slot's batch
  bool closed_{false};
  std::exception_ptr error_;
};

/// A pipe of `Item`s. The ring holds `depth` batches and takes about
/// `ring_bytes` (sizeof(Item) per slot item; heap payloads of the items
/// come on top). Items are copy-assigned into slots that were
/// default-constructed once, so string fields reuse their capacity.
template <typename Item>
class BatchPipe final : public Pipe {
 public:
  using Sink = std::function<void(std::span<const Item>)>;
  using Producer = std::function<void(BatchPipe&)>;

  static constexpr std::size_t kDepth = 8;

  BatchPipe(std::size_t ring_bytes, Producer producer, std::vector<Sink> sinks)
      : Pipe(kDepth, sinks.size()),
        batch_items_(std::max<std::size_t>(1, ring_bytes / (kDepth * sizeof(Item)))),
        producer_(std::move(producer)),
        sinks_(std::move(sinks)) {}

  /// Producer side: append one item to the current batch.
  void push(const Item& item) {
    if (fill_ == 0) slot_ = claim_slot();
    ring_[slot_ * batch_items_ + fill_] = item;
    if (++fill_ == batch_items_) {
      publish(fill_);
      fill_ = 0;
    }
  }

 private:
  void produce() override {
    ring_.resize(kDepth * batch_items_);
    producer_(*this);
    if (fill_ > 0) {
      publish(fill_);
      fill_ = 0;
    }
  }

  void consume(std::size_t sink, std::size_t slot, std::size_t items) override {
    sinks_[sink](std::span<const Item>(ring_.data() + slot * batch_items_, items));
  }

  void release_ring() override { std::vector<Item>().swap(ring_); }

  const std::size_t batch_items_;
  Producer producer_;
  std::vector<Sink> sinks_;
  std::vector<Item> ring_;  // kDepth slots of batch_items_ items
  std::size_t slot_{0};     // producer: the slot being filled
  std::size_t fill_{0};     // producer: items in it so far
};

/// Run every task of `pipes` on `pool` in one round, each pipe's producer
/// dealt before its sinks. Rethrows the first error of any pipe.
void RunPipes(ThreadPool& pool, const std::vector<std::unique_ptr<Pipe>>& pipes);

}  // namespace bismark
