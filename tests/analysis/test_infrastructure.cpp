#include <gtest/gtest.h>

#include "analysis/infrastructure.h"

namespace bismark::analysis {
namespace {

using collect::DeviceCountRecord;
using collect::HomeId;

const TimePoint t0 = MakeTime({2013, 3, 6});

class InfrastructureTest : public ::testing::Test {
 protected:
  InfrastructureTest() : repo_(collect::DatasetWindows::Paper()) {}

  void RegisterHome(int id, bool developed, bool always_wired = false,
                    bool always_wireless = false) {
    repo_.register_home(collect::HomeInfo{.id = HomeId{id},
                                          .country_code = developed ? "US" : "IN",
                                          .developed = developed,
                                          .reports_devices = true,
                                          .has_always_wired = always_wired,
                                          .has_always_wireless = always_wireless});
  }

  void AddCensus(int id, int wired, int w24, int w5, int unique_total, int unique24,
                 int unique5, int samples = 10) {
    for (int i = 0; i < samples; ++i) {
      DeviceCountRecord rec;
      rec.home = HomeId{id};
      rec.sampled = t0 + Hours(i);
      rec.wired = wired;
      rec.wireless_24 = w24;
      rec.wireless_5 = w5;
      rec.unique_total = unique_total;
      rec.unique_24 = unique24;
      rec.unique_5 = unique5;
      repo_.add_device_count(rec);
    }
  }

  collect::DataRepository repo_;
};

TEST_F(InfrastructureTest, UniqueDevicesCdfUsesMaxPerHome) {
  RegisterHome(1, true);
  AddCensus(1, 1, 2, 1, 5, 4, 1, 5);
  // Later samples see more devices; the CDF must use the final count.
  DeviceCountRecord rec;
  rec.home = HomeId{1};
  rec.sampled = t0 + Hours(20);
  rec.unique_total = 8;
  repo_.add_device_count(rec);
  const auto cdf = UniqueDevicesCdf(repo_);
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf.median(), 8.0);
  EXPECT_DOUBLE_EQ(MeanUniqueDevices(repo_), 8.0);
}

TEST_F(InfrastructureTest, ConnectedDevicesByRegion) {
  RegisterHome(1, true);
  RegisterHome(2, false);
  AddCensus(1, 2, 3, 1, 8, 5, 2);
  AddCensus(2, 0, 2, 0, 4, 3, 0);
  const auto dev = ConnectedDevices(repo_, true);
  const auto dvg = ConnectedDevices(repo_, false);
  EXPECT_DOUBLE_EQ(dev.wired.mean, 2.0);
  EXPECT_DOUBLE_EQ(dev.wireless.mean, 4.0);
  EXPECT_DOUBLE_EQ(dvg.wired.mean, 0.0);
  EXPECT_DOUBLE_EQ(dvg.wireless.mean, 2.0);
  EXPECT_EQ(dev.wired.homes, 1);
}

TEST_F(InfrastructureTest, ConnectedWirelessByBand) {
  RegisterHome(1, true);
  AddCensus(1, 0, 4, 1, 7, 5, 2);
  const auto bands = ConnectedWireless(repo_, true);
  EXPECT_DOUBLE_EQ(bands.band24.mean, 4.0);
  EXPECT_DOUBLE_EQ(bands.band5.mean, 1.0);
}

TEST_F(InfrastructureTest, UniqueDevicesPerBandCdfs) {
  RegisterHome(1, true);
  RegisterHome(2, true);
  AddCensus(1, 0, 3, 1, 6, 5, 2);
  AddCensus(2, 0, 2, 0, 4, 3, 0);
  const auto cdfs = UniqueDevicesPerBand(repo_);
  EXPECT_EQ(cdfs.band24.size(), 2u);
  EXPECT_DOUBLE_EQ(cdfs.band24.median(), 4.0);
  EXPECT_DOUBLE_EQ(cdfs.band5.median(), 1.0);
}

TEST_F(InfrastructureTest, NeighborApsMedianPerHome) {
  RegisterHome(1, true);
  RegisterHome(2, false);
  for (int i = 0; i < 9; ++i) {
    collect::WifiScanRecord scan;
    scan.home = HomeId{1};
    scan.scanned = repo_.windows().wifi.start + Hours(i);
    scan.band = wireless::Band::k2_4GHz;
    scan.visible_aps = 18 + (i % 3);  // median 19
    repo_.add_wifi_scan(scan);
    scan.home = HomeId{2};
    scan.visible_aps = 2;
    repo_.add_wifi_scan(scan);
    // 5 GHz scans must not leak into the 2.4 GHz analysis.
    scan.home = HomeId{1};
    scan.band = wireless::Band::k5GHz;
    scan.visible_aps = 0;
    repo_.add_wifi_scan(scan);
  }
  const auto cdfs = NeighborAps(repo_);
  ASSERT_EQ(cdfs.developed.size(), 1u);
  ASSERT_EQ(cdfs.developing.size(), 1u);
  EXPECT_DOUBLE_EQ(cdfs.developed.median(), 19.0);
  EXPECT_DOUBLE_EQ(cdfs.developing.median(), 2.0);
  const auto cdfs5 = NeighborAps5(repo_);
  EXPECT_DOUBLE_EQ(cdfs5.developed.median(), 0.0);
}

TEST_F(InfrastructureTest, AlwaysConnectedTableCountsFlags) {
  RegisterHome(1, true, true, false);
  RegisterHome(2, true, true, true);
  RegisterHome(3, true, false, false);
  RegisterHome(4, false, false, true);
  RegisterHome(5, false, false, false);
  const auto table = AlwaysConnected(repo_);
  EXPECT_EQ(table.developed.total_homes, 3);
  EXPECT_EQ(table.developed.with_wired, 2);
  EXPECT_EQ(table.developed.with_wireless, 1);
  EXPECT_EQ(table.developing.total_homes, 2);
  EXPECT_EQ(table.developing.with_wired, 0);
  EXPECT_EQ(table.developing.with_wireless, 1);
  EXPECT_NEAR(table.developed.wired_fraction(), 2.0 / 3.0, 1e-9);
}

TEST_F(InfrastructureTest, AlwaysConnectedSkipsNonReportingHomes) {
  collect::HomeInfo info;
  info.id = HomeId{9};
  info.developed = true;
  info.reports_devices = false;  // not in the Devices sub-population
  info.has_always_wired = true;
  repo_.register_home(info);
  const auto table = AlwaysConnected(repo_);
  EXPECT_EQ(table.developed.total_homes, 0);
}

TEST_F(InfrastructureTest, AllPortsUsedFraction) {
  RegisterHome(1, true);
  RegisterHome(2, true);
  AddCensus(1, 4, 1, 0, 6, 2, 0);  // all four ports in use
  AddCensus(2, 1, 3, 1, 6, 4, 1);
  EXPECT_DOUBLE_EQ(AllPortsUsedFraction(repo_, true), 0.5);
  EXPECT_DOUBLE_EQ(AllPortsUsedFraction(repo_, false), 0.0);
}

TEST_F(InfrastructureTest, EmptyRepositorySafe) {
  EXPECT_TRUE(UniqueDevicesCdf(repo_).empty());
  EXPECT_DOUBLE_EQ(MeanUniqueDevices(repo_), 0.0);
  const auto table = AlwaysConnected(repo_);
  EXPECT_EQ(table.developed.total_homes, 0);
  EXPECT_DOUBLE_EQ(table.developed.wired_fraction(), 0.0);
}

}  // namespace
}  // namespace bismark::analysis
