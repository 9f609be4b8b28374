// Figure 8: average number of devices connected to the access point at any
// time, wired vs wireless, developed vs developing (with stddev bars).
#include "analysis/infrastructure.h"
#include "common.h"

using namespace bismark;

int main() {
  const auto& repo = bench::SharedStudy().repository();
  const auto dev = analysis::ConnectedDevices(repo, true);
  const auto dvg = analysis::ConnectedDevices(repo, false);

  PrintBanner("Figure 8: Average connected devices by medium and region");

  TextTable table({"region", "medium", "mean connected", "stddev", "homes"});
  table.add_row({"developed", "wired", TextTable::Num(dev.wired.mean),
                 TextTable::Num(dev.wired.stddev), TextTable::Int(dev.wired.homes)});
  table.add_row({"developed", "wireless", TextTable::Num(dev.wireless.mean),
                 TextTable::Num(dev.wireless.stddev), TextTable::Int(dev.wireless.homes)});
  table.add_row({"developing", "wired", TextTable::Num(dvg.wired.mean),
                 TextTable::Num(dvg.wired.stddev), TextTable::Int(dvg.wired.homes)});
  table.add_row({"developing", "wireless", TextTable::Num(dvg.wireless.mean),
                 TextTable::Num(dvg.wireless.stddev), TextTable::Int(dvg.wireless.homes)});
  table.print();

  bench::PrintComparison("more wireless than wired (both regions)", "yes",
                         (dev.wireless.mean > dev.wired.mean &&
                          dvg.wireless.mean > dvg.wired.mean)
                             ? "yes"
                             : "NO");
  std::string more_devices = "+";
  more_devices += TextTable::Num(
      (dev.wired.mean + dev.wireless.mean) - (dvg.wired.mean + dvg.wireless.mean), 2);
  bench::PrintComparison("developed has ~1 more device connected", "~+1", more_devices);
  bench::PrintComparison("avg wired ports used < 1 (both regions)", "yes",
                         (dev.wired.mean < 1.5 && dvg.wired.mean < 1.0) ? "yes" : "NO");
  return 0;
}
