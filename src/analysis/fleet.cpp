#include "analysis/fleet.h"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "core/binio.h"
#include "core/thread_pool.h"

namespace bismark::analysis {

namespace {

/// Per-home scalar state for the per-home distributions. Indexed by home
/// id, which the deployment mints densely from the roster index.
struct HomeAgg {
  double covered_ms{0.0};
  std::uint32_t heartbeat_runs{0};
  int max_unique_devices{-1};
};

/// country_code pointers indexed by dense home id (nullptr for gaps).
std::vector<const std::string*> CountryByHomeId(const collect::DataRepository& repo,
                                                int max_id) {
  std::vector<const std::string*> country(static_cast<std::size_t>(max_id + 1), nullptr);
  for (const collect::HomeInfo& info : repo.homes()) {
    if (info.id.value >= 0 && info.id.value <= max_id) {
      country[static_cast<std::size_t>(info.id.value)] = &info.country_code;
    }
  }
  return country;
}

/// Pre-seed the per-country table with roster counts so a country shows up
/// (with empty sketches) even when none of its homes ran a probe.
void SeedCountries(const collect::DataRepository& repo, FleetSummary* out) {
  for (const collect::HomeInfo& info : repo.homes()) {
    ++out->capacity_by_country[info.country_code].homes;
  }
}

}  // namespace

FleetSummary SummarizeFleet(const collect::DataRepository& repo) {
  return SummarizeFleet(repo, repo.spilling() ? repo.spill()->config().workers : 1);
}

FleetSummary SummarizeFleet(const collect::DataRepository& repo, std::size_t workers) {
  FleetSummary out;
  out.homes = repo.homes().size();
  out.rows = repo.total_rows();

  int max_id = -1;
  for (const collect::HomeInfo& info : repo.homes()) {
    max_id = std::max(max_id, info.id.value);
  }
  // Heartbeat and device passes run concurrently, so each owns its slots.
  std::vector<HomeAgg> hb_agg(static_cast<std::size_t>(max_id + 1));
  std::vector<HomeAgg> dev_agg(hb_agg.size());
  const auto slot = [max_id](std::vector<HomeAgg>& agg, collect::HomeId id) -> HomeAgg* {
    if (id.value < 0 || id.value > max_id) return nullptr;
    return &agg[static_cast<std::size_t>(id.value)];
  };
  const auto country = CountryByHomeId(repo, max_id);
  SeedCountries(repo, &out);

  // One pass per data set. Each pass owns the sketches and slots it writes
  // and feeds them its kind's rows in canonical order on whichever thread
  // runs it, so the summary is identical at any worker count and to the
  // resident repository's.
  struct Pass {
    std::size_t rows;
    std::function<void()> run;
  };
  std::vector<Pass> passes;
  passes.push_back({repo.row_count<collect::HeartbeatRun>(), [&] {
    repo.for_each_row<collect::HeartbeatRun>([&](const collect::HeartbeatRun& run) {
      if (HomeAgg* a = slot(hb_agg, run.home)) {
        a->covered_ms += static_cast<double>((run.end - run.start).ms);
        ++a->heartbeat_runs;
      }
    });
  }});
  passes.push_back({repo.row_count<collect::DeviceCountRecord>(), [&] {
    repo.for_each_row<collect::DeviceCountRecord>([&](const collect::DeviceCountRecord& rec) {
      if (HomeAgg* a = slot(dev_agg, rec.home)) {
        a->max_unique_devices = std::max(a->max_unique_devices, rec.unique_total);
      }
    });
  }});
  passes.push_back({repo.row_count<collect::CapacityRecord>(), [&] {
    repo.for_each_row<collect::CapacityRecord>([&](const collect::CapacityRecord& rec) {
      out.capacity_down_mbps.add(rec.downstream.mbps());
      out.capacity_up_mbps.add(rec.upstream.mbps());
      if (rec.home.value >= 0 && rec.home.value <= max_id) {
        if (const std::string* code = country[static_cast<std::size_t>(rec.home.value)]) {
          CountryCapacity& cc = out.capacity_by_country[*code];
          cc.down_mbps.add(rec.downstream.mbps());
          cc.up_mbps.add(rec.upstream.mbps());
        }
      }
    });
  }});
  passes.push_back({repo.row_count<collect::WifiScanRecord>(), [&] {
    repo.for_each_row<collect::WifiScanRecord>([&](const collect::WifiScanRecord& rec) {
      out.visible_aps.add(static_cast<double>(rec.visible_aps));
      out.associated_clients.add(static_cast<double>(rec.associated_clients));
    });
  }});
  passes.push_back({repo.row_count<collect::ThroughputMinute>(), [&] {
    repo.for_each_row<collect::ThroughputMinute>([&](const collect::ThroughputMinute& rec) {
      out.throughput_down_mbps.add(rec.peak_down_bps / 1e6);
    });
  }});
  passes.push_back({repo.row_count<collect::TrafficFlowRecord>(), [&] {
    repo.for_each_row<collect::TrafficFlowRecord>([&](const collect::TrafficFlowRecord& rec) {
      out.flow_kbytes.add(rec.total_bytes().kb());
    });
  }});

  // The passes run side by side, largest kind first: it bounds the wall
  // time and must not start last.
  std::stable_sort(passes.begin(), passes.end(),
                   [](const Pass& a, const Pass& b) { return a.rows > b.rows; });
  ThreadPool pool(static_cast<int>(std::min(workers, passes.size())));
  pool.parallel_for(passes.size(), [&passes](std::size_t i, int) { passes[i].run(); });

  const Interval hb = repo.windows().heartbeats;
  const double window_ms = static_cast<double>((hb.end - hb.start).ms);
  const double window_days = window_ms / (24.0 * 3600.0 * 1000.0);
  for (const collect::HomeInfo& info : repo.homes()) {
    const HomeAgg& a = hb_agg[static_cast<std::size_t>(info.id.value)];
    if (info.reports_uptime && window_ms > 0.0) {
      out.availability_fraction.add(std::min(1.0, a.covered_ms / window_ms));
      if (a.heartbeat_runs > 0 && window_days > 0.0) {
        out.downtimes_per_day.add(static_cast<double>(a.heartbeat_runs - 1) / window_days);
      }
    }
    const int devices = dev_agg[static_cast<std::size_t>(info.id.value)].max_unique_devices;
    if (info.reports_devices && devices >= 0) {
      out.unique_devices.add(static_cast<double>(devices));
    }
  }
  return out;
}

void WriteFleetSummary(const FleetSummary& summary, std::ostream& out) {
  out << "Fleet summary: " << summary.homes << " homes, " << summary.rows
      << " rows (streaming sketches, eps "
      << summary.availability_fraction.eps() << ")\n";
  out << "  " << std::left << std::setw(26) << "distribution" << std::right
      << std::setw(9) << "samples";
  for (const char* col : {"p10", "p50", "p90", "p99", "max"}) {
    out << ' ' << std::setw(10) << col;
  }
  out << '\n';
  const auto row = [&out](const char* name, const QuantileSketch& s) {
    out << "  " << std::left << std::setw(26) << name << std::right
        << std::setw(9) << s.count() << std::fixed << std::setprecision(2);
    if (s.empty()) {
      for (int i = 0; i < 5; ++i) out << ' ' << std::setw(10) << "-";
    } else {
      for (const double v : {s.quantile(0.10), s.quantile(0.50), s.quantile(0.90),
                             s.quantile(0.99), s.max()}) {
        out << ' ' << std::setw(10) << v;
      }
    }
    out.unsetf(std::ios::fixed);
    out << std::setprecision(6) << '\n';
  };
  row("availability fraction", summary.availability_fraction);
  row("downtimes / day", summary.downtimes_per_day);
  row("unique devices", summary.unique_devices);
  row("capacity down (Mbps)", summary.capacity_down_mbps);
  row("capacity up (Mbps)", summary.capacity_up_mbps);
  row("visible APs / scan", summary.visible_aps);
  row("assoc clients / scan", summary.associated_clients);
  row("peak minute down (Mbps)", summary.throughput_down_mbps);
  row("flow size (KB)", summary.flow_kbytes);

  if (!summary.capacity_by_country.empty()) {
    out << "  capacity by country:\n";
    out << "  " << std::left << std::setw(8) << "code" << std::right << std::setw(8)
        << "homes" << std::setw(9) << "probes";
    for (const char* col : {"down p50", "down p90", "up p50", "up p90"}) {
      out << ' ' << std::setw(10) << col;
    }
    out << '\n';
    for (const auto& [code, cc] : summary.capacity_by_country) {
      out << "  " << std::left << std::setw(8) << code << std::right << std::setw(8)
          << cc.homes << std::setw(9) << cc.down_mbps.count() << std::fixed
          << std::setprecision(2);
      if (cc.down_mbps.empty()) {
        for (int i = 0; i < 4; ++i) out << ' ' << std::setw(10) << "-";
      } else {
        for (const double v :
             {cc.down_mbps.quantile(0.50), cc.down_mbps.quantile(0.90),
              cc.up_mbps.quantile(0.50), cc.up_mbps.quantile(0.90)}) {
          out << ' ' << std::setw(10) << v;
        }
      }
      out.unsetf(std::ios::fixed);
      out << std::setprecision(6) << '\n';
    }
  }
}

namespace {

// v2 appends the per-country capacity table. A v1 blob (an older
// checkpoint) fails closed, so the caller recomputes a summary that has it.
constexpr char kSummaryMagic[4] = {'F', 'L', 'S', '2'};

/// The nine sketches in one fixed order, shared by both codec directions so
/// they cannot drift.
template <typename S, typename Fn>
void ForEachSketch(S& summary, Fn&& fn) {
  fn(summary.availability_fraction);
  fn(summary.downtimes_per_day);
  fn(summary.unique_devices);
  fn(summary.capacity_down_mbps);
  fn(summary.capacity_up_mbps);
  fn(summary.visible_aps);
  fn(summary.associated_clients);
  fn(summary.throughput_down_mbps);
  fn(summary.flow_kbytes);
}

}  // namespace

std::string SerializeFleetSummary(const FleetSummary& summary) {
  BinWriter w;
  w.raw(kSummaryMagic, sizeof(kSummaryMagic));
  w.u64(static_cast<std::uint64_t>(summary.homes));
  w.u64(summary.rows);
  ForEachSketch(summary, [&w](const QuantileSketch& s) { w.str(s.Serialize()); });
  w.u32(static_cast<std::uint32_t>(summary.capacity_by_country.size()));
  for (const auto& [code, cc] : summary.capacity_by_country) {
    w.str(code);
    w.u64(static_cast<std::uint64_t>(cc.homes));
    w.str(cc.down_mbps.Serialize());
    w.str(cc.up_mbps.Serialize());
  }
  return w.buffer();
}

bool DeserializeFleetSummary(const std::string& blob, FleetSummary* out,
                             std::string* error) {
  const auto fail = [error](const std::string& reason) {
    if (error) *error = "fleet summary: " + reason;
    return false;
  };
  BinReader r(blob.data(), blob.size());
  if (r.raw(sizeof(kSummaryMagic)) != std::string_view(kSummaryMagic, sizeof(kSummaryMagic))) {
    return fail("bad magic");
  }
  FleetSummary summary;
  summary.homes = static_cast<std::size_t>(r.u64());
  summary.rows = r.u64();
  bool ok = true;
  ForEachSketch(summary, [&](QuantileSketch& s) {
    if (!ok || r.failed()) {
      ok = false;
      return;
    }
    ok = QuantileSketch::Deserialize(r.str(), &s);
  });
  if (!ok || r.failed()) return fail("malformed sketch blob");
  const std::uint32_t countries = r.u32();
  if (r.failed()) return fail("malformed country table");
  for (std::uint32_t i = 0; i < countries && ok; ++i) {
    std::string code = r.str();
    CountryCapacity cc;
    cc.homes = static_cast<std::size_t>(r.u64());
    ok = !r.failed() && QuantileSketch::Deserialize(r.str(), &cc.down_mbps) &&
         QuantileSketch::Deserialize(r.str(), &cc.up_mbps);
    if (ok) summary.capacity_by_country.emplace(std::move(code), std::move(cc));
  }
  if (!ok || r.failed()) return fail("malformed country table");
  if (!r.at_end()) return fail("trailing bytes");
  *out = std::move(summary);
  return true;
}

}  // namespace bismark::analysis
