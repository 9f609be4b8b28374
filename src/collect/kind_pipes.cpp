#include "collect/kind_pipes.h"

#include <stdexcept>

#include "collect/manifest.h"
#include "core/thread_pool.h"

namespace bismark::collect {

std::unique_ptr<SpillCompaction> SpillCompaction::Begin(const DataRepository& repo) {
  if (!repo.spilling()) return nullptr;
  std::unique_lock<std::mutex> lock(repo.compact_mu_);
  if (repo.columns_ != nullptr) return nullptr;
  return std::unique_ptr<SpillCompaction>(new SpillCompaction(repo, std::move(lock)));
}

void SpillCompaction::commit() {
  SpillDir& spill = *repo_.spill();
  const std::string& dir = spill.config().dir;
  CheckEveryRowWritten(kinds_);
  ManifestCompaction compaction;
  for (std::size_t kind = 0; kind < kRecordKinds; ++kind) compaction.rows[kind] = kinds_[kind].rows;
  WriteColumnMeta(dir, repo_, kinds_);
  std::string error;
  if (!core::Io::Active().sync_dir(dir, &error)) throw std::runtime_error("snapshot: " + error);
  spill.commit_compaction(compaction);
  std::shared_ptr<const ColumnSnapshot> columns = ColumnSnapshot::Open(dir, &error);
  if (columns == nullptr) throw std::runtime_error(error);
  repo_.columns_ = std::move(columns);
}

void KindPipes::run(std::size_t workers) {
  const std::unique_ptr<SpillCompaction> compaction = SpillCompaction::Begin(repo_);
  struct Entry {
    std::size_t rows;
    std::unique_ptr<Pipe> pipe;
  };
  std::vector<Entry> entries;
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    auto& make = makers_[kRecordIndexOf<T>];
    if (!make && compaction != nullptr && repo_.row_count<T>() > 0) add<T>({});
    if (make) entries.push_back({repo_.row_count<T>(), make(compaction.get())});
    make = nullptr;
  });
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.rows > b.rows; });
  std::vector<std::unique_ptr<Pipe>> pipes;
  std::size_t tasks = 0;
  for (Entry& e : entries) {
    tasks += e.pipe->tasks();
    pipes.push_back(std::move(e.pipe));
  }
  ThreadPool pool(static_cast<int>(std::min(workers, tasks)));
  RunPipes(pool, pipes);
  if (compaction != nullptr) compaction->commit();
}

}  // namespace bismark::collect
