// Fleet-mode deployment invariants: the --homes roster apportionment, the
// bounded-memory spill path's byte-identity with the in-RAM path,
// worker-count independence of the spilled exports, and the finalize
// sequence merging each spilled kind once into columns that a snapshot
// links without ever seeing them change.
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/fleet.h"
#include "collect/column_snapshot.h"
#include "collect/export.h"
#include "collect/manifest.h"
#include "core/io.h"
#include "home/deployment.h"

namespace bismark::home {
namespace {

DeploymentOptions BaseOptions() {
  DeploymentOptions options;
  options.seed = 4242;
  options.windows = collect::DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 1);
  return options;
}

std::string ExportAllToString(const collect::DataRepository& repo) {
  std::ostringstream out;
  collect::ExportHeartbeats(repo, out);
  collect::ExportUptime(repo, out);
  collect::ExportCapacity(repo, out);
  collect::ExportDevices(repo, out);
  collect::ExportWifi(repo, out);
  collect::ExportTrafficFlows(repo, out);
  return out.str();
}

std::filesystem::path FreshSpillDir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("bsmk-test-fleet-") + tag + "-" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(FleetRoster, Homes126ReproducesDefaultRoster) {
  auto by_scale = BaseOptions();
  const auto a = Deployment::RunStudy(by_scale);

  auto by_homes = BaseOptions();
  by_homes.homes = 126;
  const auto b = Deployment::RunStudy(by_homes);

  // The largest-remainder apportionment at N=126 must reproduce the
  // default Table 1 roster bit-for-bit: same homes, same records.
  EXPECT_EQ(b->roster_size(), 126u);
  EXPECT_EQ(a->repository().homes().size(), b->repository().homes().size());
  EXPECT_EQ(ExportAllToString(a->repository()), ExportAllToString(b->repository()));
}

TEST(FleetRoster, ApportionmentTracksCountryMix) {
  auto options = BaseOptions();
  options.homes = 1260;  // 10x: every country's share scales exactly
  options.run_traffic = false;
  const auto study = Deployment::RunStudy(options);
  EXPECT_EQ(study->roster_size(), 1260u);

  auto reference = BaseOptions();
  reference.run_traffic = false;
  const auto base = Deployment::RunStudy(reference);

  // Count homes per country in both rosters.
  std::map<std::string, int> big, small;
  for (const auto& h : study->repository().homes()) big[h.country_code]++;
  for (const auto& h : base->repository().homes()) small[h.country_code]++;
  ASSERT_EQ(big.size(), small.size());
  for (const auto& [cc, n] : small) {
    EXPECT_EQ(big[cc], 10 * n) << "country " << cc;
  }
}

TEST(FleetMode, SpilledExportsMatchInRam) {
  auto in_ram = BaseOptions();
  in_ram.homes = 48;
  const auto a = Deployment::RunStudy(in_ram);
  const std::string golden = ExportAllToString(a->repository());
  ASSERT_FALSE(golden.empty());

  for (const int workers : {1, 3}) {
    auto fleet = BaseOptions();
    fleet.homes = 48;
    fleet.memory_budget_bytes = 1 << 20;  // tiny: forces mid-shard flushes
    fleet.workers = workers;
    const auto dir = FreshSpillDir(workers == 1 ? "w1" : "w3");
    fleet.spill_dir = dir.string();
    const auto b = Deployment::RunStudy(fleet);

    EXPECT_TRUE(b->repository().spilling());
    EXPECT_EQ(ExportAllToString(b->repository()), golden) << "workers=" << workers;
    // Fleet homes register from worker threads; the canonical order and
    // metadata must match the in-RAM registration exactly.
    ASSERT_EQ(b->repository().homes().size(), a->repository().homes().size());
    for (std::size_t i = 0; i < a->repository().homes().size(); ++i) {
      EXPECT_EQ(b->repository().homes()[i], a->repository().homes()[i]) << "home " << i;
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(FleetMode, ChurnAndConsentSurviveTheSpillPath) {
  auto options = BaseOptions();
  options.homes = 48;
  options.memory_budget_bytes = 1 << 20;
  const auto dir = FreshSpillDir("consent");
  options.spill_dir = dir.string();
  const auto study = Deployment::RunStudy(options);

  int consented = 0;
  for (const auto& h : study->repository().homes()) consented += h.consented_traffic;
  // Traffic consent is pinned to the first 25 US homes regardless of N.
  EXPECT_GT(consented, 0);
  EXPECT_LE(consented, 25);
  std::filesystem::remove_all(dir);
}

DeploymentOptions SpilledStudy(const std::filesystem::path& dir) {
  auto options = BaseOptions();
  options.homes = 48;
  options.memory_budget_bytes = 1 << 20;
  options.workers = 2;
  options.spill_dir = dir.string();
  return options;
}

/// Every file under `dir`, name -> bytes.
std::map<std::string, std::string> ReadTree(const std::filesystem::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    out[entry.path().filename().string()] = bytes.str();
  }
  return out;
}

ino_t Inode(const std::filesystem::path& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

// The finalize sequence of `run --snapshot-out --export-full`: the summary
// pass compacts, and nothing after it merges a kind again.
TEST(FleetFinalize, EachSpilledKindIsMergedOnce) {
  const auto dir = FreshSpillDir("once");
  const auto study = Deployment::RunStudy(SpilledStudy(dir));
  const collect::DataRepository& repo = study->repository();

  const analysis::FleetSummary summary = analysis::SummarizeFleet(repo);
  study->save_fleet_summary_checkpoint(analysis::SerializeFleetSummary(summary));
  std::string error;
  ASSERT_TRUE(collect::SaveColumnSnapshot(repo, (dir / "snap").string(), &error, 2)) << error;
  const std::size_t exported = collect::ExportAllDatasets(repo, (dir / "csv").string(), 2);
  EXPECT_EQ(exported, repo.total_rows());

  const obs::MetricsSnapshot metrics = study->metrics();
  std::size_t kinds = 0;
  for (std::size_t kind = 0; kind < collect::kRecordKinds; ++kind) {
    if (repo.spill()->rows_of_kind(kind) == 0) continue;
    ++kinds;
    EXPECT_EQ(repo.spill()->merge_passes(kind), 1u) << collect::RecordKindName(kind);
    EXPECT_EQ(metrics.counter_or("bismark_spill_merge_passes_total{kind=\"" +
                                 std::string(collect::RecordKindName(kind)) + "\"}"),
              1u)
        << collect::RecordKindName(kind);
  }
  EXPECT_GE(kinds, 5u);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".bsmkseg") << entry.path();
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  EXPECT_TRUE(collect::IsColumnSnapshotDir(dir.string()));
  std::filesystem::remove_all(dir);
}

// SaveColumnSnapshot of a compacted run hard-links its column files. Neither
// a resume of the finished spill dir nor a fresh run into it (another seed:
// other bytes) may change the snapshot; where links fail, a copy does.
TEST(FleetFinalize, LinkedSnapshotSurvivesResumeAndAFreshRun) {
  const auto dir = FreshSpillDir("linked");
  const auto snap = dir.string() + "-snap";
  std::filesystem::remove_all(snap);
  std::map<std::string, std::string> saved;
  {
    const auto study = Deployment::RunStudy(SpilledStudy(dir));
    (void)analysis::SummarizeFleet(study->repository());
    std::string error;
    ASSERT_TRUE(collect::SaveColumnSnapshot(study->repository(), snap, &error, 2)) << error;
    saved = ReadTree(snap);
    EXPECT_EQ(Inode(snap + "/wifi_scan.bsmkcol"), Inode(dir / "wifi_scan.bsmkcol"));
  }
  ASSERT_GT(saved.count("wifi_scan.bsmkcol"), 0u);
  {
    auto options = SpilledStudy(dir);
    options.resume = true;
    const auto resumed = Deployment::RunStudy(options);
    ASSERT_NE(resumed->recovery(), nullptr);
    EXPECT_TRUE(resumed->recovery()->compacted);
    (void)analysis::SummarizeFleet(resumed->repository());
    EXPECT_EQ(resumed->repository().spill()->merge_passes(
                  collect::kRecordIndexOf<collect::WifiScanRecord>),
              0u);
  }
  EXPECT_EQ(ReadTree(snap), saved);
  {
    auto options = SpilledStudy(dir);
    options.seed = 777;
    const auto fresh = Deployment::RunStudy(options);
    (void)analysis::SummarizeFleet(fresh->repository());
    EXPECT_NE(Inode(snap + "/wifi_scan.bsmkcol"), Inode(dir / "wifi_scan.bsmkcol"));

    // A filesystem without hard links: the snapshot is copied instead.
    const auto copied = dir.string() + "-copy";
    std::filesystem::remove_all(copied);
    core::IoFaultPlan plan;
    plan.kind = core::IoFaultPlan::Kind::kLinkFail;
    plan.at_op = 1;
    plan.path_substr = ".bsmkcol";
    core::InstallIoFaultPlan(plan);
    std::string error;
    const bool ok = collect::SaveColumnSnapshot(fresh->repository(), copied, &error, 2);
    const std::uint64_t fired = core::CurrentIoFaultStats().faults_fired;
    core::ClearIoFaults();
    ASSERT_TRUE(ok) << error;
    EXPECT_GT(fired, 0u);
    EXPECT_NE(Inode(copied + "/wifi_scan.bsmkcol"), Inode(dir / "wifi_scan.bsmkcol"));
    const auto source = ReadTree(dir);
    for (const auto& [name, bytes] : ReadTree(copied)) {
      EXPECT_EQ(bytes, source.at(name)) << name;
    }
    std::filesystem::remove_all(copied);
  }
  EXPECT_EQ(ReadTree(snap), saved);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(snap);
}

}  // namespace
}  // namespace bismark::home
