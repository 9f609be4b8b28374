// The finalize passes' shape: one pipe per kind (core/pipe.h) whose
// producer streams the kind's rows out of a repository in canonical order —
// a spill merge, a column scan or the resident vector — into sinks that
// each see every row, in that order, on whichever thread runs them. The
// fleet summary and the snapshot writer are both built on it.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "collect/repository.h"
#include "core/pipe.h"
#include "core/thread_pool.h"

namespace bismark::collect {

class KindPipes {
 public:
  explicit KindPipes(const DataRepository& repo) : repo_(repo) {}

  /// Stream kind T into `sinks`.
  template <typename T>
  void add(std::vector<typename BatchPipe<T>::Sink> sinks) {
    const DataRepository& repo = repo_;
    auto produce = [&repo](BatchPipe<T>& pipe) {
      repo.for_each_row<T>([&pipe](const T& row) { pipe.push(row); });
    };
    pipes_.push_back({repo.row_count<T>(), std::make_unique<BatchPipe<T>>(
                                               ring_bytes(), produce, std::move(sinks))});
  }

  /// Run every pipe on a pool of `workers` threads (no more than there are
  /// tasks), largest kind first: it bounds the wall time and must not
  /// start last. Rethrows the first error of any pipe.
  void run(std::size_t workers) {
    std::stable_sort(pipes_.begin(), pipes_.end(),
                     [](const Entry& a, const Entry& b) { return a.rows > b.rows; });
    std::vector<std::unique_ptr<Pipe>> pipes;
    std::size_t tasks = 0;
    for (Entry& e : pipes_) {
      tasks += e.pipe->tasks();
      pipes.push_back(std::move(e.pipe));
    }
    pipes_.clear();
    ThreadPool pool(static_cast<int>(std::min(workers, tasks)));
    RunPipes(pool, pipes);
  }

 private:
  /// A ring's bytes: the spill budget's share (SpillConfig::pipe_ring_bytes),
  /// or a fixed 512 KiB for the resident and column-backed stores, which
  /// have no budget.
  [[nodiscard]] std::size_t ring_bytes() const {
    return repo_.spilling() ? repo_.spill()->config().pipe_ring_bytes() : 512 * 1024;
  }

  struct Entry {
    std::size_t rows;
    std::unique_ptr<Pipe> pipe;
  };
  const DataRepository& repo_;
  std::vector<Entry> pipes_;
};

}  // namespace bismark::collect
