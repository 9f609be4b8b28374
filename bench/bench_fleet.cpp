// Fleet-scale bench: stream N-home deployments through a bounded memory
// budget and certify three things per N: ingest rate (records/sec), the
// memory cost per home (peak RSS, measured on a forked child so each N
// gets its own high-water mark), and the spill footprint on disk. Also
// re-runs the paper-scale 126-home study *in fleet mode* and checks its
// export fingerprint against the golden in-RAM hash — the spilled path
// must be byte-identical to the resident one.
//
// Reproduce locally with:
//   build/bench/bench_fleet                             # N = 1k/10k/100k
//   build/bench/bench_fleet --homes 1000,10000 --json BENCH_fleet.json
//   build/bench/bench_fleet --gate-bytes-per-home 65536 --gate-records-per-sec 100000
//   build/bench/bench_fleet --checksum-overhead-homes 1000 --gate-checksum-overhead-pct 5
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "collect/export.h"
#include "core/args.h"
#include "core/table.h"
#include "core/thread_pool.h"
#include "home/deployment.h"
#include "obs/json.h"

using namespace bismark;

namespace {

/// The in-RAM export hash for seed 20131023 / 126 homes / Compressed
/// 4-week windows (the bench_parallel_scaling golden). The fleet-mode
/// spill path must reproduce it bit-for-bit.
constexpr std::size_t kGoldenExportHash = 0xf82316df7b15d09bULL;

struct FleetPoint {
  int homes{0};
  std::uint64_t rows{0};
  double wall_s{0.0};
  double records_per_sec{0.0};
  long peak_rss_bytes{0};
  double rss_bytes_per_home{0.0};
  long disk_bytes{0};
  double disk_bytes_per_home{0.0};
};

home::DeploymentOptions FleetOptions(int homes, int weeks, int workers, int budget_mb,
                                     const std::string& spill_dir,
                                     bool verify_checksums = true) {
  home::DeploymentOptions options;
  options.seed = 20131023;
  options.windows = collect::DatasetWindows::Compressed(MakeTime({2012, 10, 1}), weeks);
  options.homes = homes;
  options.workers = workers;
  options.memory_budget_bytes = static_cast<std::size_t>(budget_mb) << 20;
  options.spill_dir = spill_dir;
  options.spill_verify_checksums = verify_checksums;
  return options;
}

std::size_t ExportFingerprint(const collect::DataRepository& repo) {
  std::ostringstream out;
  collect::ExportHeartbeats(repo, out);
  collect::ExportUptime(repo, out);
  collect::ExportCapacity(repo, out);
  collect::ExportDevices(repo, out);
  collect::ExportWifi(repo, out);
  collect::ExportTrafficFlows(repo, out);
  return std::hash<std::string>{}(out.str());
}

long DirBytes(const std::filesystem::path& dir) {
  std::error_code ec;
  long total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += static_cast<long>(entry.file_size(ec));
  }
  return total;
}

/// Run `body` in a forked child, parse the single result line it writes to
/// the pipe, and return the child's peak RSS in bytes via wait4. Forking
/// per measurement is what makes peak RSS meaningful per configuration —
/// ru_maxrss of a single process is a monotone high-water mark.
bool RunInChild(const std::function<void(int fd)>& body, std::string* result_line,
                long* peak_rss_bytes) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    body(fds[1]);
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string buf;
  char chunk[256];
  ssize_t n = 0;
  while ((n = read(fds[0], chunk, sizeof(chunk))) > 0) buf.append(chunk, static_cast<std::size_t>(n));
  close(fds[0]);
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("wait4");
    return false;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "error: child exited abnormally (status %d)\n", status);
    return false;
  }
  *result_line = buf;
  *peak_rss_bytes = usage.ru_maxrss * 1024L;  // Linux reports KiB
  return true;
}

/// Peak RSS of a child that loads the binary and does nothing: the fixed
/// per-process overhead subtracted before computing bytes/home.
long BaselineRss() {
  std::string line;
  long rss = 0;
  if (!RunInChild([](int fd) { dprintf(fd, "ok\n"); }, &line, &rss)) return 0;
  return rss;
}

bool BenchOne(int homes, int weeks, int workers, int budget_mb, long baseline_rss,
              FleetPoint* out) {
  const auto spill =
      std::filesystem::temp_directory_path() /
      ("bsmk-fleet-" + std::to_string(homes) + "-" + std::to_string(getpid()));
  std::filesystem::remove_all(spill);

  std::string line;
  long rss = 0;
  const bool ok = RunInChild(
      [&](int fd) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto study = home::Deployment::RunStudy(
            FleetOptions(homes, weeks, workers, budget_mb, spill.string()));
        const auto t1 = std::chrono::steady_clock::now();
        dprintf(fd, "rows=%llu wall_s=%.6f\n",
                static_cast<unsigned long long>(study->repository().total_rows()),
                std::chrono::duration<double>(t1 - t0).count());
      },
      &line, &rss);
  if (!ok) return false;

  unsigned long long rows = 0;
  double wall_s = 0.0;
  if (std::sscanf(line.c_str(), "rows=%llu wall_s=%lf", &rows, &wall_s) != 2) {
    std::fprintf(stderr, "error: bad child result line: %s\n", line.c_str());
    return false;
  }
  out->homes = homes;
  out->rows = rows;
  out->wall_s = wall_s;
  out->records_per_sec = wall_s > 0.0 ? static_cast<double>(rows) / wall_s : 0.0;
  out->peak_rss_bytes = rss;
  out->rss_bytes_per_home =
      static_cast<double>(std::max(0L, rss - baseline_rss)) / homes;
  out->disk_bytes = DirBytes(spill);
  out->disk_bytes_per_home = static_cast<double>(out->disk_bytes) / homes;
  std::filesystem::remove_all(spill);
  return true;
}

struct ChecksumOverhead {
  int homes{0};
  std::uint64_t rows{0};
  double wall_on_s{0.0};
  double wall_off_s{0.0};
  double rps_on{0.0};
  double rps_off{0.0};
  double overhead_pct{0.0};
};

/// Run the same study + full export with CRC verification on vs off on the
/// merge read path and report the throughput cost of verification.
/// The export's first read compacts the run, merging every spilled section
/// once, so the child streams all rows to make the verify path the thing
/// being measured. Each mode
/// takes the best of three runs: the CRC cost is deterministic compute,
/// while single-sample wall times on a shared runner carry several percent
/// of scheduler noise — min-of-K isolates the former.
bool MeasureChecksumOverhead(int homes, int weeks, int workers, int budget_mb,
                             ChecksumOverhead* out) {
  const auto one = [&](bool verify, std::uint64_t* rows, double* wall_s) {
    const auto spill = std::filesystem::temp_directory_path() /
                       ("bsmk-fleet-crc-" + std::string(verify ? "on" : "off") + "-" +
                        std::to_string(getpid()));
    std::filesystem::remove_all(spill);
    std::string line;
    long rss = 0;
    const bool ok = RunInChild(
        [&](int fd) {
          const auto t0 = std::chrono::steady_clock::now();
          const auto study = home::Deployment::RunStudy(
              FleetOptions(homes, weeks, workers, budget_mb, spill.string(), verify));
          const std::size_t hash = ExportFingerprint(study->repository());
          const auto t1 = std::chrono::steady_clock::now();
          dprintf(fd, "rows=%llu wall_s=%.6f hash=%016zx\n",
                  static_cast<unsigned long long>(study->repository().total_rows()),
                  std::chrono::duration<double>(t1 - t0).count(), hash);
        },
        &line, &rss);
    std::filesystem::remove_all(spill);
    if (!ok) return false;
    unsigned long long r = 0;
    if (std::sscanf(line.c_str(), "rows=%llu wall_s=%lf", &r, wall_s) != 2) {
      std::fprintf(stderr, "error: bad checksum-overhead result line: %s\n", line.c_str());
      return false;
    }
    *rows = r;
    return true;
  };
  out->homes = homes;
  std::uint64_t rows_off = 0;
  out->wall_on_s = 0.0;
  out->wall_off_s = 0.0;
  constexpr int kRepeats = 3;
  for (int i = 0; i < kRepeats; ++i) {
    double on_s = 0.0;
    double off_s = 0.0;
    if (!one(true, &out->rows, &on_s)) return false;
    if (!one(false, &rows_off, &off_s)) return false;
    if (out->wall_on_s == 0.0 || on_s < out->wall_on_s) out->wall_on_s = on_s;
    if (out->wall_off_s == 0.0 || off_s < out->wall_off_s) out->wall_off_s = off_s;
  }
  if (rows_off != out->rows) {
    std::fprintf(stderr, "error: checksum on/off runs disagree on row count\n");
    return false;
  }
  out->rps_on = out->wall_on_s > 0.0 ? static_cast<double>(out->rows) / out->wall_on_s : 0.0;
  out->rps_off =
      out->wall_off_s > 0.0 ? static_cast<double>(out->rows) / out->wall_off_s : 0.0;
  out->overhead_pct = out->wall_off_s > 0.0
                          ? 100.0 * (out->wall_on_s - out->wall_off_s) / out->wall_off_s
                          : 0.0;
  return true;
}

/// Paper-scale determinism anchor: 126 homes through the spill path must
/// export the same bytes as the in-RAM golden. Returns true on match.
bool CheckGolden(int workers, std::size_t* hash_out) {
  const auto spill = std::filesystem::temp_directory_path() /
                     ("bsmk-fleet-golden-" + std::to_string(getpid()));
  std::filesystem::remove_all(spill);
  std::string line;
  long rss = 0;
  const bool ok = RunInChild(
      [&](int fd) {
        const auto study = home::Deployment::RunStudy(
            FleetOptions(126, 4, workers, 8, spill.string()));
        dprintf(fd, "hash=%016zx\n", ExportFingerprint(study->repository()));
      },
      &line, &rss);
  std::filesystem::remove_all(spill);
  if (!ok) return false;
  std::size_t hash = 0;
  if (std::sscanf(line.c_str(), "hash=%zx", &hash) != 1) {
    std::fprintf(stderr, "error: bad golden result line: %s\n", line.c_str());
    return false;
  }
  *hash_out = hash;
  return hash == kGoldenExportHash;
}

std::vector<int> ParseHomesList(const std::string& spec) {
  std::vector<int> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const int n = std::atoi(item.c_str());
    if (n > 0) out.push_back(n);
  }
  return out;
}

int WriteJson(const std::string& path, const std::vector<FleetPoint>& points, int weeks,
              int workers, int budget_mb, long baseline_rss, std::size_t golden_hash,
              bool golden_ok, const ChecksumOverhead* crc) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  obs::JsonWriter json(file);
  json.begin_object();
  json.kv("schema", "bismark-bench/v1");
  json.kv("bench", "fleet");
  json.kv("hardware_threads", ThreadPool::HardwareWorkers());
  json.kv("weeks", weeks);
  json.kv("workers", workers);
  // Same convention as bench_parallel_scaling: a run asking for more
  // workers than the machine has threads measures contention, not scaling,
  // and consumers must not read its timings as throughput claims.
  json.kv("oversubscribed", workers > ThreadPool::HardwareWorkers());
  json.kv("budget_mb", budget_mb);
  json.kv("baseline_rss_bytes", baseline_rss);
  char hash[20];
  std::snprintf(hash, sizeof(hash), "%016zx", golden_hash);
  json.key("golden");
  json.begin_object();
  json.kv("homes", 126);
  json.kv("export_hash", hash);
  json.kv("matches_golden", golden_ok);
  json.end_object();
  if (crc != nullptr) {
    json.key("checksum_overhead");
    json.begin_object();
    json.kv("homes", crc->homes);
    json.kv("rows", static_cast<std::int64_t>(crc->rows));
    json.kv("wall_verify_on_s", crc->wall_on_s);
    json.kv("wall_verify_off_s", crc->wall_off_s);
    json.kv("records_per_sec_verify_on", crc->rps_on);
    json.kv("records_per_sec_verify_off", crc->rps_off);
    json.kv("overhead_pct", crc->overhead_pct);
    json.end_object();
  }
  json.key("results");
  json.begin_array();
  for (const auto& p : points) {
    json.begin_object();
    json.kv("homes", p.homes);
    json.kv("rows", static_cast<std::int64_t>(p.rows));
    json.kv("wall_s", p.wall_s);
    json.kv("records_per_sec", p.records_per_sec);
    json.kv("peak_rss_bytes", static_cast<std::int64_t>(p.peak_rss_bytes));
    json.kv("rss_bytes_per_home", p.rss_bytes_per_home);
    json.kv("disk_bytes", static_cast<std::int64_t>(p.disk_bytes));
    json.kv("disk_bytes_per_home", p.disk_bytes_per_home);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::printf("wrote %zu results to %s\n", points.size(), path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_fleet: bounded-memory fleet scale-out (records/sec, bytes/home)");
  args.add_option("homes", "comma-separated roster sizes to sweep", "1000,10000,100000");
  args.add_option("weeks", "compressed heartbeat window length per run", "1");
  args.add_option("workers", "worker threads per run (0 = all cores)", "0");
  args.add_option("budget-mb", "record-staging memory budget per run (MiB)", "64");
  args.add_option("json", "also write the results as JSON to this file");
  args.add_option("gate-bytes-per-home",
                  "fail (exit 5) if any row's RSS bytes/home (above baseline) "
                  "exceeds this (0 = no gate)", "0");
  args.add_option("gate-records-per-sec",
                  "fail (exit 6) if any row ingests slower than this (0 = no gate)",
                  "0");
  args.add_option("checksum-overhead-homes",
                  "roster size for the CRC-verify on/off comparison (0 = skip)", "1000");
  args.add_option("gate-checksum-overhead-pct",
                  "fail (exit 7) if CRC verification slows the run by more than this "
                  "percentage (0 = no gate)", "0");
  args.add_flag("skip-golden", "skip the 126-home export-hash determinism anchor");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return 2;
  }
  const auto homes_list = ParseHomesList(*args.get("homes"));
  if (homes_list.empty()) {
    std::fprintf(stderr, "error: --homes needs a comma-separated list of positive ints\n");
    return 2;
  }
  const int weeks = static_cast<int>(args.get_int("weeks", 1));
  const int workers = static_cast<int>(args.get_int("workers", 0));
  const int budget_mb = static_cast<int>(args.get_int("budget-mb", 64));

  if (workers > ThreadPool::HardwareWorkers()) {
    std::printf("note: %d workers on %d hardware threads — timings measure "
                "oversubscription, not scaling (rows are marked in the JSON)\n",
                workers, ThreadPool::HardwareWorkers());
  }

  const long baseline_rss = BaselineRss();
  std::printf("baseline process RSS: %.1f MiB; budget %d MiB, %d-week windows\n",
              baseline_rss / 1048576.0, budget_mb, weeks);

  std::size_t golden_hash = 0;
  bool golden_ok = true;
  if (!args.has("skip-golden")) {
    golden_ok = CheckGolden(workers, &golden_hash);
    std::printf("126-home fleet export hash: %016zx (%s golden %016zx)\n", golden_hash,
                golden_ok ? "matches" : "MISMATCHES", kGoldenExportHash);
  }

  std::vector<FleetPoint> points;
  TextTable table({"homes", "rows", "wall_s", "records/s", "rss_mb", "rss_b/home",
                   "disk_b/home"});
  for (const int n : homes_list) {
    FleetPoint p;
    if (!BenchOne(n, weeks, workers, budget_mb, baseline_rss, &p)) return 1;
    table.add_row({TextTable::Int(n), TextTable::Int(static_cast<long long>(p.rows)),
                   TextTable::Num(p.wall_s, 2), TextTable::Num(p.records_per_sec, 0),
                   TextTable::Num(p.peak_rss_bytes / 1048576.0, 1),
                   TextTable::Num(p.rss_bytes_per_home, 0),
                   TextTable::Num(p.disk_bytes_per_home, 0)});
    points.push_back(p);
  }
  table.print();

  const int crc_homes = static_cast<int>(args.get_int("checksum-overhead-homes", 1000));
  ChecksumOverhead crc;
  bool have_crc = false;
  if (crc_homes > 0) {
    if (!MeasureChecksumOverhead(crc_homes, weeks, workers, budget_mb, &crc)) return 1;
    have_crc = true;
    std::printf(
        "checksum overhead (%d homes, run + full export): verify-on %.0f records/s, "
        "verify-off %.0f records/s, overhead %.1f%%\n",
        crc.homes, crc.rps_on, crc.rps_off, crc.overhead_pct);
  }

  if (const auto path = args.get("json")) {
    if (const int rc = WriteJson(*path, points, weeks, workers, budget_mb, baseline_rss,
                                 golden_hash, golden_ok, have_crc ? &crc : nullptr)) {
      return rc;
    }
  }

  if (!golden_ok) {
    std::fprintf(stderr,
                 "FAIL: fleet-mode 126-home export hash diverged from the in-RAM "
                 "golden — the spill path is not byte-identical\n");
    return 4;
  }
  if (const double gate = args.get_double("gate-bytes-per-home", 0.0); gate > 0.0) {
    for (const auto& p : points) {
      if (p.rss_bytes_per_home > gate) {
        std::fprintf(stderr, "gate-bytes-per-home: %d homes used %.0f bytes/home, gate is %.0f\n",
                     p.homes, p.rss_bytes_per_home, gate);
        return 5;
      }
    }
    std::printf("gate-bytes-per-home: all rows within %.0f bytes/home\n", gate);
  }
  if (const double gate = args.get_double("gate-records-per-sec", 0.0); gate > 0.0) {
    for (const auto& p : points) {
      if (p.records_per_sec < gate) {
        std::fprintf(stderr, "gate-records-per-sec: %d homes ingested %.0f records/s, floor is %.0f\n",
                     p.homes, p.records_per_sec, gate);
        return 6;
      }
    }
    std::printf("gate-records-per-sec: all rows above %.0f records/s\n", gate);
  }
  if (const double gate = args.get_double("gate-checksum-overhead-pct", 0.0);
      gate > 0.0 && have_crc) {
    if (crc.overhead_pct > gate) {
      std::fprintf(stderr,
                   "gate-checksum-overhead-pct: CRC verification cost %.1f%%, gate is "
                   "%.1f%%\n",
                   crc.overhead_pct, gate);
      return 7;
    }
    std::printf("gate-checksum-overhead-pct: %.1f%% within the %.1f%% gate\n",
                crc.overhead_pct, gate);
  }
  return 0;
}
