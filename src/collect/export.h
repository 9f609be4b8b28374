// CSV export generated from the schema layer.
//
// Two views exist per data set:
//
//  * The *release* view (Schema<T>::Release()) — the historical public CSV
//    formats, byte-identical to the original hand-written exporters. The
//    paper releases everything except the Traffic data set (Section 3.2):
//    Heartbeats, Uptime, Capacity, Devices and WiFi go out; Traffic stays
//    private. `ExportPublicDatasets` enforces exactly that split;
//    `ExportTrafficFlows` exists for consented internal use and only ever
//    writes the anonymised forms.
//
//  * The *full-fidelity* view (Schema<T>::Fields()) — every field with
//    lossless codecs, for all ten data sets. `ExportAllDatasets` +
//    `ImportAllDatasets` reproduce a repository exactly (tested), which is
//    what archival hand-off between studies uses when the columnar
//    snapshot (collect/column_snapshot.h) is not wanted.
#pragma once

#include <ostream>
#include <string>

#include "collect/repository.h"

namespace bismark::collect {

/// Write one data set's release view as CSV to a stream. Returns rows
/// written (excluding the header).
std::size_t ExportHeartbeats(const DataRepository& repo, std::ostream& out);
std::size_t ExportUptime(const DataRepository& repo, std::ostream& out);
std::size_t ExportCapacity(const DataRepository& repo, std::ostream& out);
std::size_t ExportDevices(const DataRepository& repo, std::ostream& out);
std::size_t ExportWifi(const DataRepository& repo, std::ostream& out);
/// Anonymised traffic flows — PII-bearing, not part of the public release.
std::size_t ExportTrafficFlows(const DataRepository& repo, std::ostream& out);

/// Write the five public data sets into `directory` (created if needed) as
/// heartbeats.csv, uptime.csv, capacity.csv, devices.csv, wifi.csv.
/// Returns total rows written; throws std::runtime_error on I/O failure.
/// `workers` > 1 exports kinds in parallel (each kind owns its file, and a
/// spilled repository reduces one kind into scratch at a time under the
/// merge lock, so the per-file bytes are identical at any worker count).
std::size_t ExportPublicDatasets(const DataRepository& repo, const std::string& directory,
                                 std::size_t workers = 1);

/// Schema-generated full-fidelity export of one data set: every field, in
/// Schema<T>::Fields() order, with exact codecs. Returns rows written.
template <typename T>
std::size_t ExportDatasetCsv(const DataRepository& repo, std::ostream& out);

/// Full-fidelity export of all registered data sets into `directory`
/// (created if needed), one Schema<T>::kCsvFile per kind. Returns total
/// rows written; throws std::runtime_error on I/O failure. `workers` > 1
/// exports kinds in parallel with byte-identical per-file output.
std::size_t ExportAllDatasets(const DataRepository& repo, const std::string& directory,
                              std::size_t workers = 1);

}  // namespace bismark::collect
