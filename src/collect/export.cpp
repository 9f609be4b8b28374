#include "collect/export.h"

#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <vector>

#include "core/csv.h"
#include "core/thread_pool.h"

namespace bismark::collect {

namespace {
/// The release view, generated from Schema<T>::Release() — byte-identical
/// to the original per-dataset exporters.
template <typename T>
std::size_t WriteReleaseCsv(const DataRepository& repo, std::ostream& out) {
  CsvWriter csv(out);
  const auto& cols = Schema<T>::Release();
  std::vector<std::string> cells;
  cells.reserve(cols.size());
  for (const auto& c : cols) cells.emplace_back(c.name);
  csv.write_row(cells);
  repo.for_each_row<T>([&](const T& r) {
    cells.clear();
    for (const auto& c : cols) cells.push_back(c.encode(r));
    csv.write_row(cells);
  });
  return csv.rows_written() - 1;
}
}  // namespace

std::size_t ExportHeartbeats(const DataRepository& repo, std::ostream& out) {
  return WriteReleaseCsv<HeartbeatRun>(repo, out);
}
std::size_t ExportUptime(const DataRepository& repo, std::ostream& out) {
  return WriteReleaseCsv<UptimeRecord>(repo, out);
}
std::size_t ExportCapacity(const DataRepository& repo, std::ostream& out) {
  return WriteReleaseCsv<CapacityRecord>(repo, out);
}
std::size_t ExportDevices(const DataRepository& repo, std::ostream& out) {
  return WriteReleaseCsv<DeviceCountRecord>(repo, out);
}
std::size_t ExportWifi(const DataRepository& repo, std::ostream& out) {
  return WriteReleaseCsv<WifiScanRecord>(repo, out);
}
std::size_t ExportTrafficFlows(const DataRepository& repo, std::ostream& out) {
  return WriteReleaseCsv<TrafficFlowRecord>(repo, out);
}

namespace {
/// Run one file-writing task per kind on `workers` threads and sum the row
/// counts in fixed slot order. Each kind owns its output file, so the bytes
/// on disk are identical at any worker count; parallel_for rethrows the
/// first exception, preserving the throw-on-open-failure contract.
std::size_t RunExportTasks(std::vector<std::function<std::size_t()>>& tasks,
                           std::size_t workers) {
  std::array<std::size_t, kRecordKinds> counts{};
  ThreadPool pool(static_cast<int>(workers));
  pool.parallel_for(tasks.size(),
                    [&](std::size_t i, int) { counts[i] = tasks[i](); });
  std::size_t total = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) total += counts[i];
  return total;
}
}  // namespace

std::size_t ExportPublicDatasets(const DataRepository& repo, const std::string& directory,
                                 std::size_t workers) {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  std::vector<std::function<std::size_t()>> tasks;
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    if constexpr (Schema<T>::kHasRelease && Schema<T>::kPublicRelease) {
      tasks.emplace_back([&repo, &directory]() -> std::size_t {
        std::ofstream out(fs::path(directory) / Schema<T>::kCsvFile);
        if (!out) {
          throw std::runtime_error(std::string("cannot open ") + Schema<T>::kCsvFile +
                                   " for writing");
        }
        return WriteReleaseCsv<T>(repo, out);
      });
    }
  });
  return RunExportTasks(tasks, workers);
}

template <typename T>
std::size_t ExportDatasetCsv(const DataRepository& repo, std::ostream& out) {
  CsvWriter csv(out);
  std::vector<std::string> cells;
  std::apply([&cells](const auto&... field) { (cells.emplace_back(field.name), ...); },
             Schema<T>::Fields());
  csv.write_row(cells);
  repo.for_each_row<T>([&](const T& r) {
    cells.clear();
    std::apply(
        [&cells, &r](const auto&... field) {
          (cells.push_back(CsvEncode(r.*(field.member))), ...);
        },
        Schema<T>::Fields());
    csv.write_row(cells);
  });
  return csv.rows_written() - 1;
}

// One instantiation per registered record kind.
template std::size_t ExportDatasetCsv<HeartbeatRun>(const DataRepository&, std::ostream&);
template std::size_t ExportDatasetCsv<UptimeRecord>(const DataRepository&, std::ostream&);
template std::size_t ExportDatasetCsv<CapacityRecord>(const DataRepository&, std::ostream&);
template std::size_t ExportDatasetCsv<DeviceCountRecord>(const DataRepository&, std::ostream&);
template std::size_t ExportDatasetCsv<WifiScanRecord>(const DataRepository&, std::ostream&);
template std::size_t ExportDatasetCsv<TrafficFlowRecord>(const DataRepository&, std::ostream&);
template std::size_t ExportDatasetCsv<ThroughputMinute>(const DataRepository&, std::ostream&);
template std::size_t ExportDatasetCsv<DnsLogRecord>(const DataRepository&, std::ostream&);
template std::size_t ExportDatasetCsv<DeviceTrafficRecord>(const DataRepository&,
                                                           std::ostream&);
template std::size_t ExportDatasetCsv<CgnEventRecord>(const DataRepository&, std::ostream&);

std::size_t ExportAllDatasets(const DataRepository& repo, const std::string& directory,
                              std::size_t workers) {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  std::vector<std::function<std::size_t()>> tasks;
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    tasks.emplace_back([&repo, &directory]() -> std::size_t {
      std::ofstream out(fs::path(directory) / Schema<T>::kCsvFile);
      if (!out) {
        throw std::runtime_error(std::string("cannot open ") + Schema<T>::kCsvFile +
                                 " for writing");
      }
      return ExportDatasetCsv<T>(repo, out);
    });
  });
  return RunExportTasks(tasks, workers);
}

}  // namespace bismark::collect
