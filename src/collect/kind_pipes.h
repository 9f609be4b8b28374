// The finalize passes' shape: one pipe per kind (core/pipe.h) whose
// producer streams the kind's rows out of a repository in canonical order
// into sinks that each see every row, in that order, on whichever thread
// runs them. The fleet summary and the snapshot writer are both built on
// it.
//
// Compaction (DESIGN §11, §12): the first run over a spilled repository is
// its compaction pass, and it merges every kind exactly once. Each kind's
// producer is the spill merge (ForEachSpilledRow), and every kind with
// rows, added by the caller or not, gets one more sink: its stripe encoder
// (KindColumnWriter), which writes the kind's column file into the spill
// directory. The caller's sinks (the fleet summary's accumulators) ride on
// the same pipes. After the pipes the pass
//   1. writes the meta (each file is fsynced and renamed into place),
//   2. fsyncs the directory, so the entries are durable,
//   3. appends the manifest's compacted record and fsyncs it, then unlinks
//      every segment and scratch log (SpillDir::commit_compaction),
//   4. attaches the columns: the repository now reads like a snapshot.
// Every later pass, export and for_each_row scans those columns; a
// for_each_row on a spilled repository that no pass compacted yet runs the
// compaction pass itself, with no other sink. Sinks must not read the
// repository they are fed from.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "collect/column_writer.h"
#include "collect/repository.h"
#include "core/pipe.h"

namespace bismark::collect {

/// The compaction pass's own state: the repository's compaction lock, and
/// the kind table its stripe encoders fill.
class SpillCompaction {
 public:
  /// Take `repo`'s compaction lock. Null (lock released) unless `repo` is
  /// spilled and not compacted yet.
  static std::unique_ptr<SpillCompaction> Begin(const DataRepository& repo);

  /// Kind T's stripe encoder, writing <spill dir>/<kind>.bsmkcol.
  template <typename T>
  typename BatchPipe<T>::Sink encoder() {
    auto writer = std::make_shared<KindColumnWriter<T>>(
        repo_.spill()->config().dir, kinds_[kRecordIndexOf<T>], repo_.row_count<T>());
    return [writer](std::span<const T> batch) { writer->add(batch); };
  }

  /// Steps 1-4 above, once every pipe has run. Throws on any failure; the
  /// segments then stay and the next read compacts again.
  void commit();

 private:
  SpillCompaction(const DataRepository& repo, std::unique_lock<std::mutex> lock)
      : repo_(repo), lock_(std::move(lock)) {}

  const DataRepository& repo_;
  std::unique_lock<std::mutex> lock_;
  std::array<ColumnKindMeta, kRecordKinds> kinds_;
};

class KindPipes {
 public:
  explicit KindPipes(const DataRepository& repo) : repo_(repo) {}

  /// Stream kind T into `sinks`.
  template <typename T>
  void add(std::vector<typename BatchPipe<T>::Sink> sinks) {
    makers_[kRecordIndexOf<T>] = [this, sinks = std::move(sinks)](
                                     SpillCompaction* compaction) mutable {
      return make_pipe<T>(std::move(sinks), compaction);
    };
  }

  /// Run every pipe on a pool of `workers` threads (no more than there are
  /// tasks), largest kind first: it bounds the wall time and must not
  /// start last. Over a spilled repository not yet compacted this is the
  /// compaction pass. Rethrows the first error of any pipe.
  void run(std::size_t workers);

 private:
  template <typename T>
  std::unique_ptr<Pipe> make_pipe(std::vector<typename BatchPipe<T>::Sink> sinks,
                                  SpillCompaction* compaction) {
    typename BatchPipe<T>::Producer produce;
    if (compaction != nullptr) {
      if (repo_.row_count<T>() > 0) sinks.push_back(compaction->template encoder<T>());
      SpillDir* spill = repo_.spill();
      produce = [spill](BatchPipe<T>& pipe) {
        ForEachSpilledRow<T>(*spill, [&pipe](const T& row) { pipe.push(row); });
      };
    } else {
      const DataRepository& repo = repo_;
      produce = [&repo](BatchPipe<T>& pipe) {
        repo.for_each_row<T>([&pipe](const T& row) { pipe.push(row); });
      };
    }
    return std::make_unique<BatchPipe<T>>(ring_bytes(), std::move(produce), std::move(sinks));
  }

  /// A ring's bytes: the spill budget's share (SpillConfig::pipe_ring_bytes),
  /// or a fixed 512 KiB for the resident and column-backed stores, which
  /// have no budget.
  [[nodiscard]] std::size_t ring_bytes() const {
    return repo_.spilling() ? repo_.spill()->config().pipe_ring_bytes() : 512 * 1024;
  }

  const DataRepository& repo_;
  std::array<std::function<std::unique_ptr<Pipe>(SpillCompaction*)>, kRecordKinds> makers_;
};

}  // namespace bismark::collect
