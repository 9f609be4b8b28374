// Streaming fleet analysis: the Figures 3-20 headline distributions,
// computed from one pass over each record stream with Greenwald-Khanna
// quantile sketches (core/stats.h) instead of resident row vectors.
//
// This is the analysis path that works at fleet scale: the repository may
// be spill-backed (collect/spill.h) or column-backed (collect/
// column_snapshot.h), in which case `for_each_row` streams segment or
// column files and nothing here ever holds a full data set. Per-home
// scalar accumulators are the only O(homes) state (a few dozen bytes per
// home); every distribution is an eps-bounded sketch.
//
// Each data set is one pipe (collect/kind_pipes.h, core/pipe.h): its
// producer streams the kind in canonical order — the spill merge, a
// column scan or the resident rows — and each accumulator is a sink of
// its own that sees every row in that order, so the kind's merge and its
// sketches run on separate cores (wifi_scan: a merge and two sketches)
// while every sketch is still the one a serial scan builds.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "collect/repository.h"
#include "core/stats.h"

namespace bismark::analysis {

/// Capacity distribution of one country's homes (the §4.2 regional
/// breakdown at fleet scale, where per-home medians no longer fit in RAM:
/// every ShaperProbe sample lands in its country's sketch instead).
struct CountryCapacity {
  /// Registered homes carrying this country code (roster count, present
  /// even when none of them ran a capacity probe).
  std::size_t homes{0};
  QuantileSketch down_mbps;
  QuantileSketch up_mbps;
};

/// Headline distributions of a deployment, each a streaming quantile
/// sketch (rank error <= eps, default 0.5 %).
struct FleetSummary {
  std::size_t homes{0};
  std::uint64_t rows{0};

  // --- Per-home samples (one value per contributing home) ---
  /// Fraction of the heartbeat window the home was reachable (Figs 3-4).
  QuantileSketch availability_fraction;
  /// Heartbeat-run boundaries per day, the downtime-rate proxy (Fig. 4).
  QuantileSketch downtimes_per_day;
  /// Distinct devices ever seen in the Devices window (Figs 7, 10).
  QuantileSketch unique_devices;

  // --- Per-row samples ---
  /// ShaperProbe capacity, one sample per probe (Figs 5, 11).
  QuantileSketch capacity_down_mbps;
  QuantileSketch capacity_up_mbps;
  /// Visible neighbour APs per WiFi scan (Fig. 9).
  QuantileSketch visible_aps;
  /// Associated clients per scan (Fig. 13's instantaneous view).
  QuantileSketch associated_clients;
  /// Downstream throughput per busy minute, Mbit/s (Figs 14-15).
  QuantileSketch throughput_down_mbps;
  /// Flow sizes, kilobytes (Figs 17-20's volume distributions).
  QuantileSketch flow_kbytes;

  /// Per-country capacity distributions, keyed by HomeInfo::country_code.
  std::map<std::string, CountryCapacity> capacity_by_country;
};

/// One streaming pass per data set over `repo` (resident, spilled or
/// column-backed). The six pipes run on a pool of `workers` threads,
/// largest kind first; every sink sees its kind's rows in canonical order,
/// so every sketch is the one a serial scan builds: the result is
/// bit-identical at any `workers` and across the three backends, and every
/// distribution stays within eps * n rank error. Throws if a stream fails
/// (e.g. a corrupt spill section).
[[nodiscard]] FleetSummary SummarizeFleet(const collect::DataRepository& repo,
                                          std::size_t workers);

/// As above, on the spill's own `workers` when `repo` is spilled, else on
/// the calling thread.
[[nodiscard]] FleetSummary SummarizeFleet(const collect::DataRepository& repo);

/// Render the summary as a fixed-width quantile table (p10/p50/p90/p99).
void WriteFleetSummary(const FleetSummary& summary, std::ostream& out);

/// Serialise every sketch (QuantileSketch::Serialize) plus the scalar
/// counts into one blob. A finished fleet run checkpoints this into the
/// spill manifest so a --resume of the completed run reloads the summary
/// instead of re-streaming every segment (DESIGN §12).
[[nodiscard]] std::string SerializeFleetSummary(const FleetSummary& summary);

/// Rebuild a summary from SerializeFleetSummary output. Fails closed:
/// returns false (with *error if non-null) on any malformed or truncated
/// blob — the caller recomputes rather than trusting damaged sketches.
bool DeserializeFleetSummary(const std::string& blob, FleetSummary* out,
                             std::string* error = nullptr);

}  // namespace bismark::analysis
