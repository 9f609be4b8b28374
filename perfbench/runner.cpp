// Benchmark runner for the study pipeline.
//
// One process runs one workload as a closed loop: a single client starts
// one operation, waits for it, then starts the next, until --seconds have
// passed. Every operation runs in a fresh forked child, so its peak RSS is
// its own (ru_maxrss is a process-lifetime high-water mark). The runner
// only calls the program's public functions; layers are timed from the
// outside, around those calls, plus the counters the program exports
// (Deployment::telemetry(), Deployment::metrics(), CurrentIoReadStats()).
//
// Output is line-oriented on stdout, one JSON object per line behind a tag:
//   provenance {...}   build and machine facts
//   setup {...}        one per set-up repetition
//   op {...}           one per operation (timings, counters, checks, spans)
// perfbench/run.py turns these lines into the benchmark's result.
//
//   perfbench_runner --workload paper|fleet --seed N --seconds S
//                    --trace 0|1 --scratch DIR [--size full|smoke]
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/fleet.h"
#include "collect/column_snapshot.h"
#include "collect/export.h"
#include "core/io.h"
#include "core/thread_pool.h"
#include "home/deployment.h"

using namespace bismark;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Hash of the six public kinds for seed 20131023 / 126 homes / 4 compressed
/// weeks (the bench_parallel_scaling and bench_fleet golden).
constexpr std::size_t kGoldenExportHash = 0xf82316df7b15d09bULL;
constexpr std::uint64_t kGoldenSeed = 20131023;
/// Worker threads for every parallel call (the benchmark box has 4).
constexpr int kWorkers = 4;
/// Set-up repetitions; setup_s is their median.
constexpr int kSetups = 5;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t DirBytes(const fs::path& dir) {
  std::error_code ec;
  std::uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::string Escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// A one-line JSON object built field by field. Doubles keep all 17
/// significant digits: the result must carry every digit as measured.
class JsonLine {
 public:
  JsonLine& num(std::string_view k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  JsonLine& num(std::string_view k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  JsonLine& str(std::string_view k, std::string_view v) {
    return raw(k, "\"" + Escape(v) + "\"");
  }
  JsonLine& boolean(std::string_view k, bool v) { return raw(k, v ? "true" : "false"); }
  JsonLine& raw(std::string_view k, std::string_view json) {
    body_ += body_.empty() ? "" : ",";
    body_ += "\"" + Escape(k) + "\":";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- Tracing -----------------------------------------------------------

/// Spans recorded around the runner's calls into each layer. Kept in memory
/// for the operation and written out with its result. When off, open() and
/// close() do nothing, which is the untraced run the end-to-end numbers
/// come from.
class Tracer {
 public:
  Tracer(bool on, int op_id) : on_(on), op_id_(op_id), t0_(Clock::now()) {}

  int open(const char* name) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, Since(t0_), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = Since(t0_);
    stack_.pop_back();
  }
  /// A child span whose duration the program measured itself (the run's
  /// own phase telemetry), placed to end `end_offset_s` before its parent.
  void add_child(int parent, const char* name, double duration_s, double end_offset_s) {
    if (parent < 0) return;
    const double end = spans_[static_cast<std::size_t>(parent)].end_s - end_offset_s;
    spans_.push_back({name, end - duration_s, end, parent});
  }

  [[nodiscard]] std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += i == 0 ? "" : ",";
      out += JsonLine()
                 .num("id", static_cast<std::uint64_t>(i))
                 .str("name", s.name)
                 .num("start_s", s.start_s)
                 .num("end_s", s.end_s)
                 .raw("parent", std::to_string(s.parent))
                 .num("op", static_cast<std::uint64_t>(op_id_))
                 .done();
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    int parent;
  };
  bool on_;
  int op_id_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// --- Workload configuration ---------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed{kGoldenSeed};
  double seconds{10.0};
  bool trace{false};
  bool smoke{false};
  int warmup_homes{0};  // > 0: this is a set-up warm-up at that roster size
  fs::path scratch;
};

int Homes(const Config& c) {
  if (c.warmup_homes > 0) return c.warmup_homes;
  if (c.workload == "paper") return 126;
  return c.smoke ? 126 : 10000;  // fleet
}

int Weeks(const Config& c) {
  if (c.workload == "fleet") return 1;
  return c.smoke && c.workload == "paper" ? 1 : 4;
}

/// Deployment seed of operation (or set-up) `i`. One deployment's cost
/// depends strongly on its seed — at 126 homes the slowest of a handful of
/// seeds takes twice as long as the fastest — so a run spreads its
/// operations over many deployments and reports their median. Operation 0
/// uses --seed itself, which keeps the golden check at the default seed.
std::uint64_t OpSeed(std::uint64_t seed, int i) {
  if (i == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i);  // splitmix64
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

home::DeploymentOptions StudyOptions(const Config& c, const fs::path& spill_dir) {
  home::DeploymentOptions options;
  options.seed = c.seed;
  options.windows = collect::DatasetWindows::Compressed(MakeTime({2012, 10, 1}), Weeks(c));
  options.homes = Homes(c);
  options.workers = kWorkers;
  if (c.workload != "paper") {
    options.memory_budget_bytes = std::size_t{64} << 20;
    options.spill_dir = spill_dir.string();
  }
  return options;
}

// --- Per-operation result ------------------------------------------------

/// What one operation reports back to the parent over the pipe.
struct OpResult {
  JsonLine fields;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  [[nodiscard]] std::string json() {
    std::string list = "[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      list += (i == 0 ? "\"" : ",\"") + Escape(failures[i]) + "\"";
    }
    fields.raw("failures", list + "]");
    return fields.done();
  }
};

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

/// Deployment::run() is the finest split the program offers today: report
/// its own phase telemetry as child spans and its counters as fields.
void RecordRun(const home::Deployment& study, Tracer& tracer, int run_span, OpResult& r) {
  const home::RunTelemetry& tel = study.telemetry();
  tracer.add_child(run_span, "home.run.commit", tel.wall_commit_s, 0.0);
  tracer.add_child(run_span, "home.run.sharded", tel.wall_sharded_run_s, tel.wall_commit_s);

  double busy = 0.0;
  double busy_max = 0.0;
  for (const ThreadPool::WorkerStats& w : tel.pool) {
    busy += w.busy_s;
    busy_max = std::max(busy_max, w.busy_s);
  }
  const double busy_mean = tel.pool.empty() ? 0.0 : busy / static_cast<double>(tel.pool.size());
  const obs::MetricsSnapshot& m = study.metrics();
  r.fields.num("run_sharded_s", tel.wall_sharded_run_s)
      .num("run_commit_s", tel.wall_commit_s)
      .num("pool_busy_s", busy)
      .num("pool_imbalance", busy_mean > 0.0 ? busy_max / busy_mean : 0.0)
      .num("sim_events", m.counter_or("bismark_engine_events_executed_total"))
      .num("sim_callbacks_heap", m.counter_or("bismark_engine_callbacks_heap_total"))
      .num("upload_attempts", m.counter_or("bismark_upload_attempts_total"))
      .num("upload_retries", m.counter_or("bismark_upload_retries_total"))
      .num("ingest_records", m.counter_or("bismark_ingest_records_committed_total"));

  const home::UploadStats& up = study.upload_stats();
  r.check(up.records_spooled == up.records_delivered + up.records_dropped + up.records_stranded,
          "upload conservation: spooled != delivered + dropped + stranded");
}

// --- Exact-quantile oracle ----------------------------------------------

/// A fleet summary under test, with the name the oracle reports it by.
struct NamedSummary {
  const char* name;
  const analysis::FleetSummary* summary;
};

/// Worst normalised rank error of the summaries' p10/p50/p90/p99 over the
/// per-row distributions, against exact order statistics read from the
/// column-backed repository `exact`. The sketch answers quantile q with
/// the element of 0-based rank q*(n-1); a returned value's true ranks are
/// [lower_bound, upper_bound) in the sorted column.
double WorstRankError(std::initializer_list<NamedSummary> summaries,
                      const collect::DataRepository& exact, std::string* worst) {
  using analysis::FleetSummary;
  struct Dist {
    const char* name;
    QuantileSketch FleetSummary::*sketch;
    std::vector<double> values;
  };
  Dist cap_down{"capacity_down_mbps", &FleetSummary::capacity_down_mbps, {}};
  Dist cap_up{"capacity_up_mbps", &FleetSummary::capacity_up_mbps, {}};
  Dist visible{"visible_aps", &FleetSummary::visible_aps, {}};
  Dist assoc{"associated_clients", &FleetSummary::associated_clients, {}};
  Dist tput{"throughput_down_mbps", &FleetSummary::throughput_down_mbps, {}};
  Dist flow_kb{"flow_kbytes", &FleetSummary::flow_kbytes, {}};
  exact.for_each_row<collect::CapacityRecord>([&](const collect::CapacityRecord& rec) {
    cap_down.values.push_back(rec.downstream.mbps());
    cap_up.values.push_back(rec.upstream.mbps());
  });
  exact.for_each_row<collect::WifiScanRecord>([&](const collect::WifiScanRecord& rec) {
    visible.values.push_back(static_cast<double>(rec.visible_aps));
    assoc.values.push_back(static_cast<double>(rec.associated_clients));
  });
  exact.for_each_row<collect::ThroughputMinute>([&](const collect::ThroughputMinute& rec) {
    tput.values.push_back(rec.peak_down_bps / 1e6);
  });
  exact.for_each_row<collect::TrafficFlowRecord>([&](const collect::TrafficFlowRecord& rec) {
    flow_kb.values.push_back(rec.total_bytes().kb());
  });

  double worst_err = 0.0;
  for (Dist* d : {&cap_down, &cap_up, &visible, &assoc, &tput, &flow_kb}) {
    std::vector<double>& values = d->values;
    if (values.empty()) continue;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    for (const NamedSummary& s : summaries) {
      for (const double q : {0.10, 0.50, 0.90, 0.99}) {
        const double v = (s.summary->*(d->sketch)).quantile(q);
        const double target = q * (n - 1.0);
        const auto lo = std::lower_bound(values.begin(), values.end(), v) - values.begin();
        const auto hi = std::upper_bound(values.begin(), values.end(), v) - values.begin() - 1;
        const double err = std::max({0.0, static_cast<double>(lo) - target,
                                     target - static_cast<double>(hi)}) / n;
        if (worst->empty() || err > worst_err) {
          worst_err = err;
          *worst = std::string(s.name) + ":" + d->name + "@p" +
                   std::to_string(static_cast<int>(q * 100));
        }
      }
    }
  }
  return worst_err;
}

// --- Operations -----------------------------------------------------------

/// paper: RunStudy on the default roster, then full-fidelity CSV export.
void PaperOp(const Config& c, const fs::path& dir, Tracer& tracer, OpResult& r) {
  const fs::path export_dir = dir / "export";
  const auto t0 = Clock::now();
  std::unique_ptr<home::Deployment> study;
  std::size_t exported = 0;
  int run_span = -1;
  {
    ScopedSpan op(tracer, "op");
    {
      ScopedSpan s(tracer, "home.build");
      study = std::make_unique<home::Deployment>(StudyOptions(c, {}));
      study->build();
    }
    {
      ScopedSpan s(tracer, "home.run");
      run_span = s.id();
      study->run();
    }
    {
      ScopedSpan s(tracer, "collect.export");
      exported = collect::ExportAllDatasets(study->repository(), export_dir.string(),
                                            static_cast<std::size_t>(kWorkers));
    }
  }
  const double wall = Since(t0);
  const double rss = PeakRssMb();

  const std::size_t rows = study->repository().total_rows();
  const std::uint64_t export_bytes = DirBytes(export_dir);
  RecordRun(*study, tracer, run_span, r);
  r.fields.num("wall_s", wall)
      .num("rss_mb", rss)
      .num("rows", static_cast<std::uint64_t>(rows))
      .num("homes", static_cast<std::uint64_t>(study->roster_size()))
      .num("disk_bytes", export_bytes)
      .num("export_bytes", export_bytes);
  r.check(exported == rows, "exported rows != total_rows()");

  // The golden is known for one configuration only; hashing costs about a
  // quarter of an operation, so other seeds skip it.
  if (c.seed == kGoldenSeed && !c.smoke) {
    char hash[20];
    const std::size_t fingerprint = ExportFingerprint(study->repository());
    std::snprintf(hash, sizeof(hash), "%016zx", fingerprint);
    r.fields.str("export_hash", hash);
    r.check(fingerprint == kGoldenExportHash, "export hash != golden f82316df7b15d09b");
  }
}

/// fleet: what `bismark_study run --memory-budget-mb 64 --snapshot-out`
/// does — run, streaming summary over the spill repository, summary
/// checkpoint, column snapshot.
void FleetOp(const Config& c, const fs::path& dir, bool oracle, Tracer& tracer, OpResult& r) {
  const fs::path spill = dir / "spill";
  const fs::path snap = dir / "snapshot";
  const auto t0 = Clock::now();
  std::unique_ptr<home::Deployment> study;
  analysis::FleetSummary summary;
  int run_span = -1;
  double rss_run = 0, rss_summary = 0;
  std::uint64_t spill_run = 0, spill_summary = 0;
  bool saved = false;
  std::string error;
  // Sampling the spill directory between stages is part of the benchmark,
  // not the program: it is excluded from the stage spans but not from wall.
  {
    ScopedSpan op(tracer, "op");
    {
      ScopedSpan s(tracer, "home.build");
      study = std::make_unique<home::Deployment>(StudyOptions(c, spill));
      study->build();
    }
    {
      ScopedSpan s(tracer, "home.run");
      run_span = s.id();
      study->run();
    }
    rss_run = PeakRssMb();
    spill_run = DirBytes(spill);
    {
      ScopedSpan s(tracer, "analysis.summarize_fleet_spill");
      summary = analysis::SummarizeFleet(study->repository());
    }
    rss_summary = PeakRssMb();
    spill_summary = DirBytes(spill);
    {
      ScopedSpan s(tracer, "home.summary_checkpoint");
      study->save_fleet_summary_checkpoint(analysis::SerializeFleetSummary(summary));
    }
    {
      ScopedSpan s(tracer, "collect.snapshot_save");
      saved = collect::SaveColumnSnapshot(study->repository(), snap.string(), &error,
                                          static_cast<std::size_t>(kWorkers));
    }
  }
  const double wall = Since(t0);
  const double rss_snapshot = PeakRssMb();
  const std::uint64_t spill_final = DirBytes(spill);
  const std::uint64_t snapshot_bytes = DirBytes(snap);
  const std::uint64_t spill_peak = std::max({spill_run, spill_summary, spill_final});

  const std::size_t rows = study->repository().total_rows();
  RecordRun(*study, tracer, run_span, r);
  r.fields.num("wall_s", wall)
      .num("rss_mb", rss_snapshot)
      .num("rss_after_run_mb", rss_run)
      .num("rss_after_summary_mb", rss_summary)
      .num("rss_after_snapshot_mb", rss_snapshot)
      .num("rows", static_cast<std::uint64_t>(rows))
      .num("homes", static_cast<std::uint64_t>(study->roster_size()))
      .num("spill_bytes_after_run", spill_run)
      .num("merge_scratch_bytes", spill_peak - spill_run)
      .num("snapshot_bytes", snapshot_bytes)
      .num("disk_bytes", spill_peak + snapshot_bytes);
  r.check(saved, "SaveColumnSnapshot failed: " + error);
  r.check(summary.rows == rows, "fleet summary rows != total_rows()");
  if (!saved) return;

  // Reading the snapshot back is the read side of collect (mmap through
  // core's MappedFile) and of analysis: reopen it, then build the parallel
  // per-stripe fleet summary that `analyze` and `report` print. Both run
  // after the operation's wall time, each in a span of its own, and both
  // check that the snapshot round-trips.
  std::string open_error;
  std::unique_ptr<collect::DataRepository> columns;
  analysis::FleetSummary column_summary;
  core::ResetIoReadStats();
  {
    ScopedSpan s(tracer, "collect.snapshot_open");
    columns = collect::OpenColumnSnapshot(snap.string(), &open_error);
  }
  r.check(columns != nullptr, "cannot reopen snapshot: " + open_error);
  if (columns == nullptr) return;
  {
    ScopedSpan s(tracer, "analysis.summarize_fleet_cols");
    column_summary = analysis::SummarizeFleet(*columns, static_cast<std::size_t>(kWorkers));
  }
  const core::IoReadStats io = core::CurrentIoReadStats();
  r.fields.num("io_files_opened", io.files_opened).num("io_bytes_mapped", io.bytes_mapped);
  r.check(columns->total_rows() == rows, "snapshot rows != run rows");
  r.check(column_summary.rows == rows, "column fleet summary rows != run rows");
  if (oracle) {
    // The serial spill-path summary and the per-stripe column summary,
    // where the error of merging stripe sketches shows.
    std::string worst;
    const double err = WorstRankError({{"spill", &summary}, {"columns", &column_summary}},
                                      *columns, &worst);
    r.fields.num("rank_err", err).str("rank_err_at", worst);
  }
}

// --- Process plumbing -----------------------------------------------------

/// Run `body` in a forked child; it writes one line to the pipe. Returns the
/// line (empty if the child died) and whether the child exited 0.
bool RunInChild(const std::function<std::string()>& body, std::string* line) {
  std::fflush(stdout);
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string out;
    try {
      out = body();
    } catch (const std::exception& e) {
      out = JsonLine().str("exception", e.what()).done();
      code = 3;
    } catch (...) {
      out = JsonLine().str("exception", "unknown").done();
      code = 3;
    }
    out += '\n';
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = write(fds[1], out.data() + off, out.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string buf;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], chunk, sizeof(chunk))) > 0) buf.append(chunk, static_cast<std::size_t>(n));
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  while (!buf.empty() && (buf.back() == '\n' || buf.back() == '\r')) buf.pop_back();
  *line = buf;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

void PrintProvenance(const Config& c) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("provenance %s\n",
              JsonLine()
                  .str("compiler", std::string(PERFBENCH_CXX_ID) + " " + PERFBENCH_CXX_VERSION)
                  .str("build_type", PERFBENCH_BUILD_TYPE)
                  .str("cxx_flags", PERFBENCH_CXX_FLAGS)
                  .boolean("optimized", optimized)
                  .boolean("sanitizer", SanitizerBuild())
                  .boolean("bismark_obs", BISMARK_OBS_ENABLED != 0)
                  .str("cpu_model", CpuModel())
                  .num("hardware_threads",
                       static_cast<std::uint64_t>(ThreadPool::HardwareWorkers()))
                  .num("workers", static_cast<std::uint64_t>(kWorkers))
                  .num("seed", c.seed)
                  .str("workload", c.workload)
                  .num("homes", static_cast<std::uint64_t>(Homes(c)))
                  .num("weeks", static_cast<std::uint64_t>(Weeks(c)))
                  .str("size", c.smoke ? "smoke" : "full")
                  .done()
                  .c_str());
}

bool ParseArgs(int argc, char** argv, Config* c) {
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        c->workload = val;
      } else if (key == "--seed") {
        c->seed = std::stoull(val);
      } else if (key == "--seconds") {
        c->seconds = std::stod(val);
      } else if (key == "--trace") {
        c->trace = std::stoi(val) != 0;
      } else if (key == "--size") {
        if (val != "full" && val != "smoke") return false;
        c->smoke = val == "smoke";
      } else if (key == "--scratch") {
        c->scratch = val;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return argc % 2 == 1 && !c->scratch.empty() && c->seconds > 0 &&
         (c->workload == "paper" || c->workload == "fleet");
}

/// One operation in a forked child, on deployment seed OpSeed(seed, index).
/// Prints its `op` line, which records a child that crashed or threw as
/// child_ok = false.
void RunOp(const Config& c, int index, bool traced) {
  Config op = c;
  op.seed = OpSeed(c.seed, index);
  // The rank-error oracle is deterministic in the seed, so the first
  // operation's is the run's.
  const bool oracle = index == 0 && c.workload == "fleet";
  const fs::path dir = c.scratch / ("op-" + std::to_string(index));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string line;
  const auto t0 = Clock::now();
  const bool ok = RunInChild(
      [&] {
        Tracer tracer(traced, index);
        OpResult r;
        r.fields.num("seed", op.seed);
        if (c.workload == "paper") {
          PaperOp(op, dir, tracer, r);
        } else {
          FleetOp(op, dir, oracle, tracer, r);
        }
        r.fields.raw("spans", tracer.json());
        return r.json();
      },
      &line);
  const double child_s = Since(t0);
  // Scratch output (spill, snapshot, export: ~1 GB per fleet operation)
  // never outlives its operation.
  fs::remove_all(dir);
  if (line.empty() || line.front() != '{') line = "{}";
  std::printf("op %s\n", JsonLine()
                             .num("index", static_cast<std::uint64_t>(index))
                             .boolean("traced", traced)
                             .boolean("child_ok", ok)
                             .num("child_s", child_s)
                             .raw("result", line)
                             .done()
                             .c_str());
}

/// Set-up: one warm-up operation whose result is discarded
/// (page cache, binary, allocator). A full fleet operation is too long to
/// repeat, so its warm-up makes the same calls on 1,000 homes.
bool WarmUp(const Config& c, int index) {
  Config warm = c;
  warm.seed = OpSeed(c.seed, index);
  if (c.workload == "fleet") warm.warmup_homes = c.smoke ? 126 : 1000;
  const fs::path dir = c.scratch / "warmup";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string line;
  const bool ok = RunInChild(
      [&] {
        Tracer tracer(false, -1);
        OpResult r;
        if (c.workload == "paper") {
          PaperOp(warm, dir, tracer, r);
        } else {
          FleetOp(warm, dir, false, tracer, r);
        }
        if (!r.failures.empty()) throw std::runtime_error(r.failures.front());
        return std::string("{}");
      },
      &line);
  fs::remove_all(dir);
  if (!ok) std::fprintf(stderr, "perfbench: warm-up failed: %s\n", line.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Config c;
  if (!ParseArgs(argc, argv, &c)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload paper|fleet --seed N --seconds S "
                 "--trace 0|1 --scratch DIR [--size full|smoke]\n");
    return 2;
  }
  fs::create_directories(c.scratch);
  PrintProvenance(c);

  // Set-up, repeated so its median is steady, each time on the seed of the
  // operation with the same index.
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    const bool ok = WarmUp(c, i);
    std::printf("setup %s\n", JsonLine()
                                  .num("index", static_cast<std::uint64_t>(i))
                                  .boolean("ok", ok)
                                  .num("s", Since(t0))
                                  .done()
                                  .c_str());
    if (!ok) {
      fs::remove_all(c.scratch);
      return 1;
    }
  }

  // Closed loop: one operation at a time until the time is up. A traced run
  // alternates traced and untraced operations so it can state its own
  // overhead; it needs at least one of each. The next operation starts only
  // if it should end nearer to --seconds than stopping now would, so a run
  // of 12-second fleet operations overshoots --seconds by at most half an
  // operation.
  const auto t_loop = Clock::now();
  const int min_ops = c.trace ? 2 : 1;
  double last_op_s = 0.0;
  for (int i = 0; i < min_ops || Since(t_loop) + last_op_s / 2 < c.seconds; ++i) {
    const auto t_op = Clock::now();
    RunOp(c, i, c.trace && i % 2 == 0);
    last_op_s = Since(t_op);
  }
  fs::remove_all(c.scratch);
  return 0;
}
