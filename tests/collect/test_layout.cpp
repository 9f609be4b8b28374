// Byte pins for every on-disk record layout. For each of the ten record
// kinds one row with every field off its default (strings holding a comma,
// a quote and a NUL) is encoded through each format, and the bytes are
// checked against constants recorded before the field codec and the
// section frame were shared between the formats:
//
//   * the EncodeRow bytes (length + CRC32C) — the row layout of spill
//     sections;
//   * the CRC32C of every file SaveColumnSnapshot writes for a resident
//     repository holding that row and two homes — the BSMKSNAP v3 meta
//     (windows, home roster, section table) and the kind's column file;
//   * the 16-byte header and 24-byte footer SegmentLog::append frames a
//     one-row section with.
//
// The row must also come back operator== through DecodeRow, the columnar
// snapshot and the full-fidelity CSV export/import.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "collect/binio.h"
#include "collect/column_snapshot.h"
#include "collect/export.h"
#include "collect/import.h"
#include "collect/repository.h"
#include "collect/spill.h"
#include "core/crc32c.h"

namespace bismark::collect {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kT0 = 1'350'000'000'123;  // 2012-10-12, odd ms on purpose
constexpr std::int64_t kDay = 86'400'000;

/// A distinct, non-default interval per data set, each containing
/// [kT0, kT0 + 1 day).
DatasetWindows PinWindows() {
  DatasetWindows w;
  w.heartbeats = {TimePoint{kT0 - 3 * kDay + 1}, TimePoint{kT0 + 4 * kDay + 2}};
  w.uptime = {TimePoint{kT0 - 2 * kDay + 3}, TimePoint{kT0 + 3 * kDay + 4}};
  w.capacity = {TimePoint{kT0 - kDay + 5}, TimePoint{kT0 + 2 * kDay + 6}};
  w.devices = {TimePoint{kT0 - 4 * kDay + 7}, TimePoint{kT0 + 5 * kDay + 8}};
  w.wifi = {TimePoint{kT0 - 5 * kDay + 9}, TimePoint{kT0 + 6 * kDay + 10}};
  w.traffic = {TimePoint{kT0 - 6 * kDay + 11}, TimePoint{kT0 + 7 * kDay + 12}};
  return w;
}

std::vector<HomeInfo> PinHomes() {
  HomeInfo a;
  a.id = HomeId{41};
  a.country_code = "U,\"S";
  a.developed = false;
  a.utc_offset = Duration{-18'000'000};
  a.reports_uptime = true;
  a.reports_devices = true;
  a.reports_wifi = true;
  a.consented_traffic = true;
  a.has_always_wired = true;
  a.has_always_wireless = true;
  a.true_down_mbps = 19.993;
  a.true_up_mbps = 4.111;
  a.power_mode = 2;
  HomeInfo b;
  b.id = HomeId{-7};
  b.country_code = std::string("Z\0A", 3);
  b.utc_offset = Duration{19'800'000};
  b.reports_wifi = true;
  b.true_down_mbps = 0.1;
  b.true_up_mbps = -0.0;
  b.power_mode = -1;
  return {b, a};  // id order, as finalize_deterministic_order() leaves it
}

const std::string kHostile = std::string("a,\"b\"\0c.example", 15);
const net::MacAddress kMac({0x02, 0x1b, 0xfe, 0x80, 0x7f, 0xa5});

HeartbeatRun Make(std::type_identity<HeartbeatRun>) {
  return HeartbeatRun{HomeId{41}, TimePoint{kT0 + 60'000}, TimePoint{kT0 + 3'660'000}};
}
UptimeRecord Make(std::type_identity<UptimeRecord>) {
  return UptimeRecord{HomeId{41}, TimePoint{kT0 + 1}, Duration{123'456'789}};
}
CapacityRecord Make(std::type_identity<CapacityRecord>) {
  return CapacityRecord{HomeId{41}, TimePoint{kT0 + 2}, BitRate{19'993'123.25},
                        BitRate{4'111'000.0625}};
}
DeviceCountRecord Make(std::type_identity<DeviceCountRecord>) {
  DeviceCountRecord r;
  r.home = HomeId{41};
  r.sampled = TimePoint{kT0 + 3};
  r.wired = 2;
  r.wireless_24 = 5;
  r.wireless_5 = 3;
  r.unique_total = 17;
  r.unique_24 = 9;
  r.unique_5 = 6;
  return r;
}
WifiScanRecord Make(std::type_identity<WifiScanRecord>) {
  WifiScanRecord r;
  r.home = HomeId{41};
  r.scanned = TimePoint{kT0 + 4};
  r.band = wireless::Band::k5GHz;
  r.channel = 36;
  r.visible_aps = 23;
  r.associated_clients = 4;
  return r;
}
TrafficFlowRecord Make(std::type_identity<TrafficFlowRecord>) {
  TrafficFlowRecord r;
  r.home = HomeId{41};
  r.flow = net::FlowId{0xfedcba9876543210ull};
  r.first_packet = TimePoint{kT0 + 5};
  r.last_packet = TimePoint{kT0 + 65'005};
  r.protocol = net::Protocol::kUdp;
  r.dst_port = 51'443;
  r.device_mac = kMac;
  r.bytes_up = Bytes{1'234'567};
  r.bytes_down = Bytes{-9};
  r.packets_up = 1'111;
  r.packets_down = 0x1'0000'0001ull;
  r.domain = kHostile;
  r.domain_anonymized = true;
  return r;
}
ThroughputMinute Make(std::type_identity<ThroughputMinute>) {
  ThroughputMinute r;
  r.home = HomeId{41};
  r.minute_start = TimePoint{kT0 + 6};
  r.bytes_up = Bytes{987'654};
  r.bytes_down = Bytes{12'345'678'901};
  r.peak_up_bps = 1.0 / 3.0;
  r.peak_down_bps = 1.5e6;
  return r;
}
DnsLogRecord Make(std::type_identity<DnsLogRecord>) {
  DnsLogRecord r;
  r.home = HomeId{41};
  r.when = TimePoint{kT0 + 7};
  r.device_mac = kMac;
  r.query = kHostile;
  r.anonymized = true;
  r.a_records = 3;
  r.cname_records = 2;
  return r;
}
DeviceTrafficRecord Make(std::type_identity<DeviceTrafficRecord>) {
  DeviceTrafficRecord r;
  r.home = HomeId{41};
  r.device_mac = kMac;
  r.vendor = net::VendorClass::kSamsung;
  r.bytes_total = Bytes{777'777'777'777};
  r.flows = 42;
  return r;
}
CgnEventRecord Make(std::type_identity<CgnEventRecord>) {
  CgnEventRecord r;
  r.home = HomeId{41};
  r.when = TimePoint{kT0 + 8};
  r.cgn_id = 3;
  r.port_block = 10'240;
  r.port_block_size = 512;
  r.port_blocks_allocated = 2;
  r.ports_peak = 731;
  r.port_capacity = 1'024;
  r.translations_out = 90'001;
  r.translations_in = 88'002;
  r.exhaustion_drops = 5;
  r.inbound_drops = 6;
  return r;
}

/// Bytes recorded for one kind's row.
struct Pin {
  std::size_t row_bytes;
  std::uint32_t row_crc;
  // snapshot.bsmkmeta ends in the CRC32C of everything before it, so the
  // CRC32C of the whole file is the same residue for any content: pin the
  // size and the CRC32C of the bytes before that trailer instead.
  std::size_t meta_bytes;
  std::uint32_t meta_crc;
  std::size_t column_bytes;    // <kind>.bsmkcol
  std::uint32_t column_crc;
  const char* section_header;  // hex of the 16-byte spill section header
  const char* section_footer;  // hex of the 24-byte spill section footer
};

// Indexed by record kind (variant order).
constexpr std::array<Pin, kRecordKinds> kPins{{
    {20, 0x8c1eb561, 1522, 0x0a9b7375, 160, 0x4ef9bcc4,
     "42534732000000000700000003000000",
     "0100000000000000180000000000000010ec6cd3454e4432"},  // heartbeat_run
    {20, 0x4936685d, 1515, 0x2715103f, 160, 0xf615eb69,
     "42534732010000000700000003000000",
     "010000000000000018000000000000002c314416454e4432"},  // uptime
    {28, 0x9539acfa, 1541, 0x3f67d6ef, 208, 0x5c51aee1,
     "42534732020000000700000003000000",
     "010000000000000020000000000000001f797922454e4432"},  // capacity
    {36, 0x23ec260f, 1641, 0xc5ab5866, 400, 0xa386a581,
     "42534732030000000700000003000000",
     "01000000000000002800000000000000549e333e454e4432"},  // device_count
    {25, 0xece38cc6, 1590, 0x51cbefb4, 304, 0x5340a8ed,
     "42534732040000000700000003000000",
     "01000000000000001d00000000000000ab7676a1454e4432"},  // wifi_scan
    {89, 0x43d91443, 1761, 0x82bdd443, 656, 0xde661a97,
     "42534732050000000700000003000000",
     "01000000000000005d0000000000000024aa66fd454e4432"},  // traffic_flow
    {44, 0xc8588b81, 1591, 0xa162e8e5, 304, 0x94d7f93a,
     "42534732060000000700000003000000",
     "01000000000000003000000000000000c72b0492454e4432"},  // throughput
    {46, 0xb895bb36, 1608, 0x598b57dc, 368, 0xba9e5bcb,
     "42534732070000000700000003000000",
     "010000000000000032000000000000009959134a454e4432"},  // dns
    {30, 0x89f05f51, 1571, 0x631cb049, 256, 0x19b42e0e,
     "42534732080000000700000003000000",
     "01000000000000002200000000000000502c4cb4454e4432"},  // device_traffic
    {88, 0x8213081e, 1734, 0xaadac224, 592, 0xb3e59a1d,
     "42534732090000000700000003000000",
     "01000000000000005c0000000000000088fe6823454e4432"},  // cgn_event
}};

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<std::uint8_t>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string Slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

class LayoutPin : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("bismark_layout_test-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  template <typename T>
  void CheckKind() {
    SCOPED_TRACE(Schema<T>::kKindName);
    constexpr std::size_t kKind = kRecordIndexOf<T>;
    const Pin& pin = kPins[kKind];
    const T row = Make(std::type_identity<T>{});
    const std::string kind = Schema<T>::kKindName;

    // Row layout, and DecodeRow back to the same row.
    BinWriter w;
    EncodeRow(w, row);
    const std::string& bytes = w.buffer();
    const std::uint32_t row_crc = core::Crc32c(bytes.data(), bytes.size());
    EXPECT_EQ(bytes.size(), pin.row_bytes);
    EXPECT_EQ(row_crc, pin.row_crc);
    T decoded{};
    BinReader r(bytes.data(), bytes.size());
    DecodeRow(r, decoded);
    EXPECT_FALSE(r.failed());
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(decoded, row);

    // Spill section frame around a one-row body (u32 length + row).
    const fs::path seg = dir_ / (kind + ".bsmkseg");
    BinWriter body;
    body.u32(static_cast<std::uint32_t>(bytes.size()));
    body.raw(bytes.data(), bytes.size());
    BinWriter spill_row;
    AppendSpillRow(spill_row, row);
    EXPECT_EQ(spill_row.buffer(), body.buffer());
    SectionRef ref;
    {
      SegmentLog log(seg.string(), 0);
      ref = log.append(static_cast<std::uint32_t>(kKind), 7, 3, 1, body.buffer());
      log.flush();
      EXPECT_EQ(ref.bytes, body.size());
    }
    const std::string section = Slurp(seg);
    ASSERT_EQ(section.size(), 16 + body.size() + 24);
    const std::string header = Hex(section.substr(0, 16));
    const std::string footer = Hex(section.substr(16 + body.size()));
    EXPECT_EQ(section.substr(16, body.size()), body.buffer());
    EXPECT_EQ(header, pin.section_header);
    EXPECT_EQ(footer, pin.section_footer);
    std::string why;
    EXPECT_TRUE(VerifySection(seg.string(), ref, &why)) << why;

    // Columnar snapshot of a resident repository: the row plus two homes.
    DataRepository repo(PinWindows());
    for (const HomeInfo& home : PinHomes()) repo.register_home(home);
    repo.add(row);
    repo.finalize_deterministic_order();
    ASSERT_EQ(repo.row_count<T>(), 1u);
    const fs::path snap = dir_ / (kind + ".snap");
    std::string error;
    ASSERT_TRUE(SaveColumnSnapshot(repo, snap.string(), &error)) << error;
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(snap)) {
      files.push_back(entry.path().filename().string());
    }
    std::sort(files.begin(), files.end());
    std::vector<std::string> want_files{kind + kColumnFileSuffix, kColumnMetaFile};
    std::sort(want_files.begin(), want_files.end());
    EXPECT_EQ(files, want_files);
    const std::string meta = Slurp(snap / kColumnMetaFile);
    ASSERT_GT(meta.size(), 4u);
    const std::uint32_t meta_crc = core::Crc32c(meta.data(), meta.size() - 4);
    const std::string column = Slurp(snap / (kind + kColumnFileSuffix));
    const std::uint32_t column_crc = core::Crc32c(column.data(), column.size());
    EXPECT_EQ(meta.size(), pin.meta_bytes);
    EXPECT_EQ(meta_crc, pin.meta_crc);
    EXPECT_EQ(column.size(), pin.column_bytes);
    EXPECT_EQ(column_crc, pin.column_crc);

    auto reopened = OpenColumnSnapshot(snap.string(), &error);
    ASSERT_NE(reopened, nullptr) << error;
    EXPECT_EQ(reopened->homes(), PinHomes());
    std::vector<T> back;
    reopened->for_each_row<T>([&back](const T& v) { back.push_back(v); });
    EXPECT_EQ(back, std::vector<T>{row});

    // Full-fidelity CSV export/import.
    std::stringstream csv;
    EXPECT_EQ(ExportDatasetCsv<T>(repo, csv), 1u);
    DataRepository imported(PinWindows());
    ImportReport report;
    EXPECT_EQ(ImportDatasetCsv<T>(imported, csv, report), 1u);
    EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
    EXPECT_EQ(imported.rows<T>(), std::vector<T>{row});

  }

  fs::path dir_;
};

TEST_F(LayoutPin, EveryKindKeepsItsBytes) {
  ForEachRecordType([this](auto tag) { CheckKind<typename decltype(tag)::type>(); });
}

}  // namespace
}  // namespace bismark::collect
