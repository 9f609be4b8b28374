#include "common.h"

#include <cstdio>
#include <memory>
#include <string_view>

namespace bismark::bench {

const home::Deployment& SharedStudy() {
  static const std::unique_ptr<home::Deployment> study = [] {
    home::DeploymentOptions options;
    options.seed = kStudySeed;
    options.windows = collect::DatasetWindows::Paper();
    // Fig. 2's reality: short-lived participants beyond the 126-home core;
    // the analyses' 25-day filter must earn its keep.
    options.churn_homes = 30;
    std::fprintf(stderr, "[bench] simulating the full study (126 homes, Table 2 windows)...\n");
    auto deployment = home::Deployment::RunStudy(options);
    std::fprintf(stderr, "[bench] study complete\n");
    return deployment;
  }();
  return *study;
}

const std::vector<analysis::HomeAvailability>& SharedAvailability() {
  static const std::vector<analysis::HomeAvailability> homes =
      analysis::AnalyzeAvailability(SharedStudy().repository(), {Minutes(10), 25.0});
  return homes;
}

void PrintCdfRows(TextTable& table, const std::string& label, const Cdf& cdf,
                  bool log_scale_hint) {
  (void)log_scale_hint;
  static constexpr double kPercentiles[] = {0.10, 0.25, 0.50, 0.75, 0.90, 0.95};
  for (double p : kPercentiles) {
    std::string name = "p";
    name += TextTable::Num(p * 100, 0);
    table.add_row({label, name, TextTable::Num(cdf.quantile(p), 3)});
  }
}

void PrintComparison(const std::string& metric, const std::string& paper,
                     const std::string& measured) {
  std::printf("  %-58s paper: %-14s measured: %s\n", metric.c_str(), paper.c_str(),
              measured.c_str());
}

std::string TakeJsonFlag(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < *argc) {
      path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = std::string(arg.substr(7));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

}  // namespace bismark::bench
