// Spill round-trip: a repository routed through spill-to-disk segment
// files must reproduce the in-RAM canonical row order and export bytes
// exactly — including SortKey ties, multi-section merges from a tiny flush
// threshold, commits arriving in arbitrary shard order, and merge plans
// that need zero, one or several reduce levels. The first read compacts
// the segments into columns; every later read scans those.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/fleet.h"
#include "collect/column_snapshot.h"
#include "collect/export.h"
#include "collect/manifest.h"
#include "collect/repository.h"
#include "core/io.h"
#include "core/rng.h"
#include "core/stats.h"

namespace bismark::collect {
namespace {

constexpr int kHomes = 24;
constexpr int kShardSize = 4;
constexpr int kShards = kHomes / kShardSize;

std::filesystem::path FreshSpillDir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("bsmk-test-spill-") + tag + "-" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

/// Deterministic synthetic rows for one home, fed to whichever sink the
/// caller stages through. Includes same-timestamp ties within the home
/// (resolved by append order) and across homes (resolved by home id).
void EmitHome(RecordSink& sink, const DatasetWindows& w, int home_idx) {
  const HomeId home{home_idx};
  Rng rng(900 + static_cast<std::uint64_t>(home_idx));

  TimePoint t = w.heartbeats.start;
  for (int run = 0; run < 6; ++run) {
    const TimePoint end = t + Hours(4 + (home_idx + run) % 5);
    sink.add_heartbeat_run(HeartbeatRun{home, t, end});
    t = end + Hours(1 + run % 3);
  }
  for (int i = 0; i < 20; ++i) {
    CapacityRecord cap;
    cap.home = home;
    // Same timestamp for every home: a cross-home SortKey tie.
    cap.measured = w.capacity.start + Hours(6 * i);
    cap.downstream = BitRate{rng.uniform(1e6, 1e8)};
    cap.upstream = BitRate{rng.uniform(1e5, 1e7)};
    sink.add_capacity(cap);
  }
  for (int i = 0; i < 50; ++i) {
    DeviceCountRecord dev;
    dev.home = home;
    dev.sampled = w.devices.start + Hours(i * 5);
    dev.wired = home_idx % 3;
    dev.wireless_24 = i % 4;
    dev.unique_total = 2 + i / 10;
    sink.add_device_count(dev);
  }
  for (int i = 0; i < 40; ++i) {
    WifiScanRecord scan;
    scan.home = home;
    scan.scanned = w.wifi.start + Hours(i * 2);
    scan.band = i % 2 ? wireless::Band::k5GHz : wireless::Band::k2_4GHz;
    scan.channel = 1 + i % 11;
    scan.visible_aps = static_cast<int>(rng.uniform(0.0, 20.0));
    sink.add_wifi_scan(scan);
  }
  for (int i = 0; i < 30; ++i) {
    TrafficFlowRecord flow;
    flow.home = home;
    flow.flow = net::FlowId{static_cast<std::uint64_t>(home_idx) * 1000 + i};
    // Two flows per timestamp: a within-home tie, ordered by append.
    flow.first_packet = w.traffic.start + Hours(i / 2);
    flow.last_packet = flow.first_packet + Minutes(5);
    flow.dst_port = static_cast<std::uint16_t>(443 + i % 3);
    flow.device_mac = net::MacAddress::FromParts(0x001122, static_cast<std::uint32_t>(i));
    flow.bytes_up = B(static_cast<std::int64_t>(rng.uniform(1e3, 1e6)));
    flow.bytes_down = B(static_cast<std::int64_t>(rng.uniform(1e4, 1e7)));
    flow.domain = i % 4 ? "example.com" : "anon-deadbeef";
    flow.domain_anonymized = i % 4 == 0;
    sink.add_flow(flow);
  }
  for (int i = 0; i < 60; ++i) {
    ThroughputMinute tm;
    tm.home = home;
    tm.minute_start = w.traffic.start + Minutes(i);
    tm.bytes_down = B(1000 * (i + home_idx));
    tm.peak_down_bps = rng.uniform(0.0, 1e7);
    sink.add_throughput_minute(tm);
  }
  UptimeRecord up;
  up.home = home;
  up.reported = w.uptime.start + Hours(12 + home_idx % 7);
  up.uptime = Hours(100 + home_idx);
  sink.add_uptime(up);
}

void RegisterHomes(DataRepository& repo) {
  for (int h = 0; h < kHomes; ++h) {
    HomeInfo info;
    info.id = HomeId{h};
    info.country_code = "US";
    info.reports_uptime = true;
    info.reports_devices = true;
    repo.register_home(info);
  }
}

/// The reference: all rows staged in RAM, batches committed in shard order.
std::unique_ptr<DataRepository> BuildInRam(const DatasetWindows& w) {
  auto repo = std::make_unique<DataRepository>(w);
  RegisterHomes(*repo);
  for (int shard = 0; shard < kShards; ++shard) {
    IngestBatch batch = repo->make_batch();
    for (int h = shard * kShardSize; h < (shard + 1) * kShardSize; ++h) {
      EmitHome(batch, w, h);
    }
    repo->commit(std::move(batch));
  }
  repo->finalize_deterministic_order();
  return repo;
}

/// Stage one shard's homes through the spill and commit them.
void CommitShard(DataRepository& repo, const DatasetWindows& w, int shard) {
  IngestBatch batch = repo.make_batch();
  batch.attach_spill(repo.spill(), static_cast<std::uint32_t>(shard),
                     static_cast<std::size_t>(shard) % repo.spill()->config().workers);
  for (int h = shard * kShardSize; h < (shard + 1) * kShardSize; ++h) {
    EmitHome(batch, w, h);
  }
  repo.commit(std::move(batch));
}

/// The spilled twin: a tiny budget forces many mid-shard flushes (so every
/// kind gets several sections per shard), and commits land in *reverse*
/// shard order to prove the merge re-derives the canonical order. Shards
/// [0, skip_shards) are left out for the caller to commit later.
std::unique_ptr<DataRepository> BuildSpilled(const DatasetWindows& w,
                                             const std::filesystem::path& dir,
                                             std::size_t merge_fan_in = 256,
                                             std::size_t workers = 2, int skip_shards = 0) {
  auto repo = std::make_unique<DataRepository>(w);
  RegisterHomes(*repo);
  SpillConfig cfg;
  cfg.dir = dir.string();
  cfg.budget_bytes = 16 << 10;  // threshold clamps to the 4 KiB floor
  cfg.workers = workers;
  cfg.merge_fan_in = merge_fan_in;
  repo->enable_spill(cfg);
  for (int shard = kShards - 1; shard >= skip_shards; --shard) CommitShard(*repo, w, shard);
  repo->finalize_deterministic_order();
  return repo;
}

template <typename T>
void ExpectSameRows(const DataRepository& ram, const DataRepository& spilled) {
  std::vector<T> got;
  spilled.for_each_row<T>([&](const T& row) { got.push_back(row); });
  EXPECT_EQ(got, ram.rows<T>());
  EXPECT_EQ(spilled.row_count<T>(), ram.rows<T>().size());
}

void ExpectEveryKindMatches(const DataRepository& ram, const DataRepository& spilled) {
  ExpectSameRows<HeartbeatRun>(ram, spilled);
  ExpectSameRows<UptimeRecord>(ram, spilled);
  ExpectSameRows<CapacityRecord>(ram, spilled);
  ExpectSameRows<DeviceCountRecord>(ram, spilled);
  ExpectSameRows<WifiScanRecord>(ram, spilled);
  ExpectSameRows<TrafficFlowRecord>(ram, spilled);
  ExpectSameRows<ThroughputMinute>(ram, spilled);
  EXPECT_EQ(spilled.total_rows(), ram.total_rows());
}

TEST(SpillRoundTrip, CanonicalOrderMatchesInRam) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshSpillDir("order");
  const auto ram = BuildInRam(w);
  const auto spilled = BuildSpilled(w, dir);

  ASSERT_TRUE(spilled->spilling());
  ASSERT_FALSE(ram->spilling());
  // The tiny threshold must actually have fragmented the data.
  EXPECT_GT(spilled->spill()->sections_written(), static_cast<std::uint64_t>(kShards));

  ExpectEveryKindMatches(*ram, *spilled);

  std::filesystem::remove_all(dir);
}

TEST(SpillRoundTrip, ExportBytesIdentical) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshSpillDir("export");
  const auto ram = BuildInRam(w);
  const auto spilled = BuildSpilled(w, dir);

  const auto export_all = [](const DataRepository& repo) {
    std::ostringstream out;
    ExportHeartbeats(repo, out);
    ExportUptime(repo, out);
    ExportCapacity(repo, out);
    ExportDevices(repo, out);
    ExportWifi(repo, out);
    ExportTrafficFlows(repo, out);
    return out.str();
  };
  const std::string a = export_all(*ram);
  const std::string b = export_all(*spilled);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  std::filesystem::remove_all(dir);
}

TEST(SpillRoundTrip, RepeatedStreamingReadsAreStable) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshSpillDir("reread");
  const auto spilled = BuildSpilled(w, dir);

  // The first for_each_row compacts the segments into columns; a second
  // pass, over those columns, must see the identical sequence (reads are
  // logically const).
  std::vector<WifiScanRecord> first, second;
  spilled->for_each_row<WifiScanRecord>([&](const WifiScanRecord& r) { first.push_back(r); });
  spilled->for_each_row<WifiScanRecord>([&](const WifiScanRecord& r) { second.push_back(r); });
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), spilled->row_count<WifiScanRecord>());

  std::filesystem::remove_all(dir);
}

/// Stream every kind once; returns the total row count.
std::uint64_t ReadAllKinds(const DataRepository& repo) {
  std::uint64_t rows = 0;
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    repo.for_each_row<T>([&rows](const T&) { ++rows; });
  });
  return rows;
}

/// Segment bytes of one kind, frames included.
std::uint64_t KindSegmentBytes(const SpillDir& spill, std::size_t kind) {
  std::uint64_t bytes = 0;
  for (const SectionRef& ref : spill.sections_of_kind(kind)) {
    bytes += ref.bytes + kFrameHeaderBytes + kFrameFooterBytes;
  }
  return bytes;
}

// The merge plan at fan-ins that force zero, one and several reduce levels.
class SpillMergePlan : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpillMergePlan, EveryKindMatchesInRamOrder) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshSpillDir("plan-order");
  const auto ram = BuildInRam(w);
  ExpectEveryKindMatches(*ram, *BuildSpilled(w, dir, GetParam()));
  std::filesystem::remove_all(dir);
}

TEST_P(SpillMergePlan, ReducesEachKindOnce) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshSpillDir("plan-once");
  const auto spilled = BuildSpilled(w, dir, GetParam());
  constexpr std::size_t kWifi = kRecordIndexOf<WifiScanRecord>;
  const SegmentLog& scratch = spilled->spill()->scratch_log(kWifi);
  const bool reduces = spilled->spill()->sections_of_kind(kWifi).size() > GetParam();

  // The first read compacts: every kind is merged once, into columns.
  const std::uint64_t rows = ReadAllKinds(*spilled);
  EXPECT_EQ(rows, spilled->total_rows());
  const std::uint64_t after_first = scratch.bytes_written();
  if (reduces) {
    EXPECT_GT(after_first, 0u);  // the reduce ran
  }
  // Later reads scan the columns: no scratch byte, no merge pass.
  EXPECT_EQ(ReadAllKinds(*spilled), rows);
  EXPECT_EQ(scratch.bytes_written(), after_first);
  EXPECT_EQ(ReadAllKinds(*spilled), rows);
  EXPECT_EQ(scratch.bytes_written(), after_first);
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    EXPECT_EQ(spilled->spill()->merge_passes(kRecordIndexOf<T>),
              spilled->row_count<T>() > 0 ? 1u : 0u)
        << Schema<T>::kKindName;
  });

  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(FanIn, SpillMergePlan, ::testing::Values(2, 3, 7, 256));

TEST(SpillMergeLevels, OneExtraLevelStaysWithinTheKindsBytes) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshSpillDir("plan-excess");
  constexpr std::size_t kFanIn = 7;
  const auto spilled = BuildSpilled(w, dir, kFanIn);
  constexpr std::size_t kWifi = kRecordIndexOf<WifiScanRecord>;
  const std::size_t sections = spilled->spill()->sections_of_kind(kWifi).size();
  // One extra level: more sections than one merge opens, few enough that
  // a single reduce level reaches the fan-in.
  ASSERT_GT(sections, kFanIn);
  ASSERT_LE(sections, kFanIn * kFanIn);
  // Taken before the read: compaction unlinks the segments.
  const std::uint64_t segment_bytes = KindSegmentBytes(*spilled->spill(), kWifi);

  std::uint64_t rows = 0;
  spilled->for_each_row<WifiScanRecord>([&rows](const WifiScanRecord&) { ++rows; });
  EXPECT_EQ(rows, spilled->row_count<WifiScanRecord>());
  const std::uint64_t scratch = spilled->spill()->scratch_log(kWifi).bytes_written();
  EXPECT_GT(scratch, 0u);
  EXPECT_LE(scratch, segment_bytes);

  std::filesystem::remove_all(dir);
}

TEST(SpillMergeLevels, OneExtraLevelRewritesOnlyTheExcess) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  constexpr std::size_t kWifi = kRecordIndexOf<WifiScanRecord>;
  // A fan-in one short of the kind's section count: the one reduce level
  // must merge just the first two streams of the canonical order.
  std::size_t sections = 0;
  {
    const auto dir = FreshSpillDir("plan-count");
    sections = BuildSpilled(w, dir)->spill()->sections_of_kind(kWifi).size();
    std::filesystem::remove_all(dir);
  }
  ASSERT_GT(sections, 2u);
  const auto dir = FreshSpillDir("plan-excess2");
  const auto spilled = BuildSpilled(w, dir, sections - 1);
  std::vector<SectionRef> refs = spilled->spill()->sections_of_kind(kWifi);
  ASSERT_EQ(refs.size(), sections);
  std::sort(refs.begin(), refs.end(), [](const SectionRef& a, const SectionRef& b) {
    return a.shard != b.shard ? a.shard < b.shard : a.run < b.run;
  });

  std::uint64_t rows = 0;
  spilled->for_each_row<WifiScanRecord>([&rows](const WifiScanRecord&) { ++rows; });
  EXPECT_EQ(rows, spilled->row_count<WifiScanRecord>());
  EXPECT_EQ(spilled->spill()->scratch_log(kWifi).bytes_written(),
            refs[0].bytes + refs[1].bytes + kFrameHeaderBytes + kFrameFooterBytes);

  std::filesystem::remove_all(dir);
}

// Concurrent first reads: the parallel export's kinds all ask for the
// columns at once; one compacts, the others wait, and every kind is
// merged once.
TEST(SpillCompaction, ParallelExportCompactsOnce) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshSpillDir("parallel-export");
  const auto ram = BuildInRam(w);
  const auto spilled = BuildSpilled(w, dir, 3, 4);
  const auto want = dir.string() + "-want";
  const auto got = dir.string() + "-got";
  EXPECT_EQ(ExportAllDatasets(*spilled, got, 4), ExportAllDatasets(*ram, want, 1));
  for (const auto& entry : std::filesystem::directory_iterator(want)) {
    std::ifstream a(entry.path(), std::ios::binary);
    std::ifstream b(got + "/" + entry.path().filename().string(), std::ios::binary);
    std::ostringstream want_bytes, got_bytes;
    want_bytes << a.rdbuf();
    got_bytes << b.rdbuf();
    EXPECT_EQ(got_bytes.str(), want_bytes.str()) << entry.path().filename();
  }
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    EXPECT_EQ(spilled->spill()->merge_passes(kRecordIndexOf<T>),
              spilled->row_count<T>() > 0 ? 1u : 0u)
        << Schema<T>::kKindName;
  });
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(want);
  std::filesystem::remove_all(got);
}

// The directory fsync comes before the compacted record: if it fails, the
// compaction fails, the manifest holds no record, the segments stay, and
// the next read compacts again.
TEST(SpillCompaction, DirectorySyncFailureLeavesTheSegments) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  // Count the compaction's ops on the spill dir; its last three are the
  // directory fsync and the record's write and fsync.
  const auto dry = FreshSpillDir("dirsync-dry");
  core::IoFaultPlan plan;
  plan.kind = core::IoFaultPlan::Kind::kFsyncFail;
  plan.at_op = std::numeric_limits<std::uint64_t>::max();
  plan.path_substr = "bsmk-test-spill-dirsync-";
  {
    const auto counted = BuildSpilled(w, dry);
    core::InstallIoFaultPlan(plan);
    ASSERT_NO_THROW((void)counted->columns());
    plan.at_op = core::CurrentIoFaultStats().ops - 2;
    core::ClearIoFaults();
  }
  std::filesystem::remove_all(dry);

  const auto dir = FreshSpillDir("dirsync-fail");
  const auto spilled = BuildSpilled(w, dir);
  core::InstallIoFaultPlan(plan);
  EXPECT_THROW((void)spilled->columns(), std::runtime_error);
  const std::uint64_t fired = core::CurrentIoFaultStats().faults_fired;
  core::ClearIoFaults();
  EXPECT_EQ(fired, 1u);
  EXPECT_FALSE(spilled->column_backed());
  SpillRecovery rec;
  std::string error;
  ASSERT_TRUE(RecoverSpillDir(dir.string(), &rec, &error)) << error;
  EXPECT_FALSE(rec.compacted);
  EXPECT_TRUE(std::filesystem::exists(dir / "seg-g0-w0.bsmkseg"));

  const auto ram = BuildInRam(w);
  ExpectEveryKindMatches(*ram, *spilled);
  EXPECT_TRUE(spilled->column_backed());
  std::filesystem::remove_all(dir);
}

// The first read compacts: every committed row is in the columns and the
// segments are gone, so a section arriving after it is refused.
TEST(SpillCompaction, SectionsAfterTheFirstReadAreRefused) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshSpillDir("late-section");
  const auto spilled = BuildSpilled(w, dir, 256, 2, /*skip_shards=*/1);
  std::uint64_t rows = 0;
  spilled->for_each_row<WifiScanRecord>([&rows](const WifiScanRecord&) { ++rows; });
  EXPECT_EQ(rows, spilled->row_count<WifiScanRecord>());
  EXPECT_TRUE(spilled->column_backed());
  EXPECT_THROW(CommitShard(*spilled, w, 0), std::runtime_error);
  std::filesystem::remove_all(dir);
}

/// The p10/p50/p90/p99 of `sketch` lie within eps * n ranks of the exact
/// order statistics of `exact`.
void ExpectWithinEps(const QuantileSketch& sketch, std::vector<double> exact,
                     const char* name) {
  ASSERT_EQ(sketch.count(), exact.size()) << name;
  std::sort(exact.begin(), exact.end());
  const double n = static_cast<double>(exact.size());
  for (const double q : {0.10, 0.50, 0.90, 0.99}) {
    const double v = sketch.quantile(q);
    const auto lo = std::lower_bound(exact.begin(), exact.end(), v);
    const auto hi = std::upper_bound(exact.begin(), exact.end(), v);
    ASSERT_NE(lo, hi) << name << " p" << q * 100 << " is not a sample";
    const double r_lo = static_cast<double>(lo - exact.begin()) + 1.0;
    const double r_hi = static_cast<double>(hi - exact.begin());
    const double target = q * n;
    const double dist = target < r_lo ? r_lo - target : (target > r_hi ? target - r_hi : 0.0);
    EXPECT_LE(dist, sketch.eps() * n + 1.0) << name << " p" << q * 100;
  }
}

TEST(SpillFleetSummary, SameAtAnyWorkerCountAndAsResident) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto ram = BuildInRam(w);
  const std::string resident = analysis::SerializeFleetSummary(analysis::SummarizeFleet(*ram));
  for (const std::size_t workers : {1, 2, 4}) {
    const auto dir = FreshSpillDir(("summary-w" + std::to_string(workers)).c_str());
    const auto spilled = BuildSpilled(w, dir, 7, workers);
    const analysis::FleetSummary summary = analysis::SummarizeFleet(*spilled);
    EXPECT_EQ(summary.rows, ram->total_rows());
    EXPECT_EQ(analysis::SerializeFleetSummary(summary), resident) << "workers " << workers;
    std::filesystem::remove_all(dir);
  }
}

TEST(SpillFleetSummary, PercentilesWithinEpsOfExactOrderStatistics) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshSpillDir("summary-oracle");
  const auto ram = BuildInRam(w);
  const analysis::FleetSummary summary = analysis::SummarizeFleet(*BuildSpilled(w, dir, 3));

  std::vector<double> down, up, aps, clients, peak, flow_kb;
  for (const CapacityRecord& r : ram->rows<CapacityRecord>()) {
    down.push_back(r.downstream.mbps());
    up.push_back(r.upstream.mbps());
  }
  for (const WifiScanRecord& r : ram->rows<WifiScanRecord>()) {
    aps.push_back(static_cast<double>(r.visible_aps));
    clients.push_back(static_cast<double>(r.associated_clients));
  }
  for (const ThroughputMinute& r : ram->rows<ThroughputMinute>()) {
    peak.push_back(r.peak_down_bps / 1e6);
  }
  for (const TrafficFlowRecord& r : ram->rows<TrafficFlowRecord>()) {
    flow_kb.push_back(r.total_bytes().kb());
  }
  ExpectWithinEps(summary.capacity_down_mbps, down, "capacity down");
  ExpectWithinEps(summary.capacity_up_mbps, up, "capacity up");
  ExpectWithinEps(summary.visible_aps, aps, "visible APs");
  ExpectWithinEps(summary.associated_clients, clients, "associated clients");
  ExpectWithinEps(summary.throughput_down_mbps, peak, "peak minute down");
  ExpectWithinEps(summary.flow_kbytes, flow_kb, "flow size");

  std::filesystem::remove_all(dir);
}

// Rows that share one SortKey across many (shard, run) sections: the merge
// must fall back to canonical stream order on every tie, as the resident
// stable sort does. (wifi_scan rows of a home's two bands share one key.)
class SpillMergeTies : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

/// Section i of k is run i % 2 of shard i / 2 and holds 1 + i % 3 rows,
/// every row with the same (scanned, home) key and tagged (section, row).
void StageTiedShard(IngestBatch& batch, const DatasetWindows& w, std::size_t k,
                    std::size_t shard, bool flush_each_run) {
  for (std::size_t i = 2 * shard; i < std::min(k, 2 * shard + 2); ++i) {
    for (std::size_t row = 0; row < 1 + i % 3; ++row) {
      WifiScanRecord scan;
      scan.home = HomeId{0};
      scan.scanned = w.wifi.start + Hours(1);
      scan.channel = static_cast<int>(i);
      scan.visible_aps = static_cast<int>(row);
      batch.add_wifi_scan(scan);
    }
    if (flush_each_run) batch.flush_spill();
  }
}

TEST_P(SpillMergeTies, MergedOrderEqualsResidentOrder) {
  const auto [fan_in, k] = GetParam();
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const std::size_t shards = (k + 1) / 2;

  DataRepository ram(w);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    IngestBatch batch = ram.make_batch();
    StageTiedShard(batch, w, k, shard, false);
    ram.commit(std::move(batch));
  }
  ram.finalize_deterministic_order();

  const auto dir = FreshSpillDir("ties");
  DataRepository spilled(w);
  SpillConfig cfg;
  cfg.dir = dir.string();
  cfg.budget_bytes = 64 << 20;  // no automatic flush: one section per run
  cfg.workers = 1;
  cfg.merge_fan_in = fan_in;
  spilled.enable_spill(cfg);
  for (std::size_t shard = shards; shard-- > 0;) {  // commits in reverse order
    IngestBatch batch = spilled.make_batch();
    batch.attach_spill(spilled.spill(), static_cast<std::uint32_t>(shard), 0);
    StageTiedShard(batch, w, k, shard, true);
    spilled.commit(std::move(batch));
  }
  spilled.finalize_deterministic_order();
  ASSERT_EQ(spilled.spill()->sections_of_kind(kRecordIndexOf<WifiScanRecord>).size(), k);

  ExpectSameRows<WifiScanRecord>(ram, spilled);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(FanInBySections, SpillMergeTies,
                         ::testing::Combine(::testing::Values(2, 3, 256),
                                            ::testing::Values(1, 2, 3, 5, 256, 257)));

// One flipped body byte fails both finalize passes closed, at one worker
// (every sink inline) and at four, and neither hangs.
TEST(SpillFinalizeCorruption, SummaryThrowsAndSnapshotFails) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  for (const std::size_t workers : {1, 4}) {
    const auto dir = FreshSpillDir(("finalize-flip-w" + std::to_string(workers)).c_str());
    const auto spilled = BuildSpilled(w, dir, 256, workers);
    const std::vector<SectionRef> refs =
        spilled->spill()->sections_of_kind(kRecordIndexOf<WifiScanRecord>);
    ASSERT_FALSE(refs.empty());
    const SectionRef& victim = refs[refs.size() / 2];
    {
      std::fstream seg(spilled->spill()->file_path(victim.file),
                       std::ios::binary | std::ios::in | std::ios::out);
      const auto at = static_cast<std::streamoff>(victim.offset + victim.bytes / 2);
      seg.seekg(at);
      char byte = 0;
      seg.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x10);
      seg.seekp(at);
      seg.write(&byte, 1);
    }
    EXPECT_THROW((void)analysis::SummarizeFleet(*spilled), std::runtime_error)
        << "workers " << workers;
    std::string error;
    EXPECT_FALSE(SaveColumnSnapshot(*spilled, (dir / "snap").string(), &error, workers));
    EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace bismark::collect
