#include "core/pipe.h"

#include "core/thread_pool.h"

namespace bismark {

Pipe::Pipe(std::size_t depth, std::size_t sinks)
    : depth_(depth),
      sink_count_(sinks),
      sink_mu_(std::make_unique<std::mutex[]>(sinks)),
      consumed_(sinks, 0),
      items_(depth, 0) {}

Pipe::~Pipe() = default;

void Pipe::run_task(std::size_t task) {
  if (task == 0) {
    producer_task();
  } else {
    sink_task(task - 1);
  }
}

void Pipe::fail(std::exception_ptr error) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::move(error);
  }
  cv_.notify_all();
}

void Pipe::producer_task() {
  try {
    produce();
  } catch (...) {
    fail(std::current_exception());
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  // Finish every sink here: once this task returns no batch is left, so
  // the ring can go and a sink task dealt later finds nothing to do.
  for (std::size_t sink = 0; sink < sink_count_; ++sink) {
    while (step(sink)) {
    }
  }
  release_ring();
  const std::lock_guard<std::mutex> lock(mu_);
  if (error_) std::rethrow_exception(error_);
}

void Pipe::sink_task(std::size_t sink) {
  while (true) {
    while (step(sink)) {
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return error_ || closed_ || consumed_[sink] < published_; });
    if (error_ || (closed_ && consumed_[sink] == published_)) return;
  }
}

bool Pipe::step(std::size_t sink) {
  const std::lock_guard<std::mutex> sink_lock(sink_mu_[sink]);
  return step_locked(sink);
}

bool Pipe::step_locked(std::size_t sink) {
  std::uint64_t batch = 0;
  std::size_t items = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (error_ || consumed_[sink] == published_) return false;
    batch = consumed_[sink];
    items = items_[batch % depth_];
  }
  try {
    consume(sink, static_cast<std::size_t>(batch % depth_), items);
  } catch (...) {
    fail(std::current_exception());
    return false;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    consumed_[sink] = batch + 1;
  }
  cv_.notify_all();
  return true;
}

std::size_t Pipe::claim_slot() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (error_) std::rethrow_exception(error_);
    // The slot is free once every sink has consumed the batch `depth_`
    // before this one, the last that used it.
    std::size_t lagging = sink_count_;
    for (std::size_t sink = 0; sink < sink_count_; ++sink) {
      if (consumed_[sink] + depth_ <= published_) {
        lagging = sink;
        break;
      }
    }
    if (lagging == sink_count_) return static_cast<std::size_t>(published_ % depth_);
    lock.unlock();
    std::unique_lock<std::mutex> sink_lock(sink_mu_[lagging], std::try_to_lock);
    if (sink_lock.owns_lock()) {
      // Nobody is running the lagging sink: run its next batch here.
      step_locked(lagging);
      sink_lock.unlock();
      lock.lock();
    } else {
      // Another thread is running it; its next consume frees the slot.
      lock.lock();
      cv_.wait(lock, [&] { return error_ || consumed_[lagging] + depth_ > published_; });
    }
  }
}

void Pipe::publish(std::size_t items) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    items_[published_ % depth_] = items;
    ++published_;
  }
  cv_.notify_all();
}

void RunPipes(ThreadPool& pool, const std::vector<std::unique_ptr<Pipe>>& pipes) {
  std::vector<std::pair<Pipe*, std::size_t>> tasks;
  for (const auto& pipe : pipes) {
    for (std::size_t t = 0; t < pipe->tasks(); ++t) tasks.emplace_back(pipe.get(), t);
  }
  pool.parallel_for(tasks.size(), [&tasks](std::size_t i, int) {
    tasks[i].first->run_task(tasks[i].second);
  });
}

}  // namespace bismark
