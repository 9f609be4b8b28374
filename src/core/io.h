// Injectable write-side I/O seam (DESIGN §12).
//
// Every durable byte the fleet substrate writes — segment sections, the
// spill manifest, snapshots — goes through `Io::Active()`, and so do the
// directory fsyncs that make new entries durable and the hard links that
// put compacted column files into a snapshot. In production that is a thin
// wrapper over open/write/fsync/link/close; under test a fault plan wraps
// it to inject the failures a real fleet hits: ENOSPC, torn (short)
// writes, fsync failure, a filesystem without hard links, and kill -9
// mid-write. The seam exists so those failures exercise the *real* commit
// protocol and recovery code, not mocks of them.
//
// Fault plans can be installed programmatically (InstallIoFaultPlan) or via
// the environment, which is how the CI chaos job drives an unmodified
// binary:
//
//   BISMARK_IO_FAULT="kill@writes=40:path=.bsmkseg"  bismark_study run ...
//
// Spec grammar: KIND@TRIGGER[:path=SUBSTR]
//   KIND    = enospc | shortwrite | fsyncfail | linkfail | kill
//   TRIGGER = writes=N (fire on the Nth matching write/fsync/link op,
//                       1-based; a directory fsync is an fsync op)
//           | bytes=N  (fire on the op that crosses N cumulative bytes)
//   SUBSTR  = only paths containing SUBSTR are faulted (default: all)
//
// enospc, fsyncfail and linkfail are sticky — once triggered, every later
// matching op fails, like a genuinely full or broken disk, or a filesystem
// that cannot hard-link (link ops match on the new name). shortwrite fires once: it
// writes half the requested bytes and *reports success*, the torn write a
// crash between write() and durability produces; readers must catch it by
// CRC, never by return code. kill writes half the bytes and _Exit(137)s the
// process — the kill -9 the chaos matrix resumes from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bismark::core {

struct IoFaultPlan {
  enum class Kind : std::uint8_t { kNone, kEnospc, kShortWrite, kFsyncFail, kLinkFail, kKill };
  Kind kind{Kind::kNone};
  /// Fire on the Nth matching write/fsync op (1-based). 0 = not call-triggered.
  std::uint64_t at_op{0};
  /// Fire on the op that crosses N cumulative matching bytes. 0 = not
  /// byte-triggered.
  std::uint64_t at_bytes{0};
  /// Only fault paths containing this substring; empty matches every path.
  std::string path_substr;
};

/// Parse the BISMARK_IO_FAULT grammar above. On failure returns false and
/// sets *error to a one-line diagnostic.
bool ParseIoFaultSpec(const std::string& spec, IoFaultPlan* plan, std::string* error);

/// Write-side I/O. All calls report failure via return value + *error (a
/// "<path>: <strerror>" style message); none throw.
class Io {
 public:
  virtual ~Io() = default;

  /// Open `path` for writing; returns an fd or -1. `append` seeks to the
  /// end instead of truncating.
  virtual int open_write(const std::string& path, bool append, std::string* error);
  /// Write all `n` bytes (retrying genuine short writes / EINTR).
  virtual bool write(int fd, const std::string& path, const char* data, std::size_t n,
                     std::string* error);
  virtual bool sync(int fd, const std::string& path, std::string* error);
  virtual void close(int fd);
  /// fsync the directory `dir`, so the entries created, renamed or removed
  /// in it survive a power loss. One sync() op on `dir`.
  bool sync_dir(const std::string& dir, std::string* error);
  /// Hard-link `from` to the new name `to`.
  virtual bool link(const std::string& from, const std::string& to, std::string* error);

  /// The active implementation: the real one, or a fault wrapper when a
  /// plan is installed.
  static Io& Active();
};

/// Route Io::Active() through a fault wrapper. Replaces any earlier plan.
void InstallIoFaultPlan(const IoFaultPlan& plan);
/// Restore the real Io and reset fault counters.
void ClearIoFaults();
/// Install a plan from $BISMARK_IO_FAULT if set. Returns false (with
/// *error) on a malformed spec; true otherwise (including "unset").
bool InstallIoFaultPlanFromEnv(std::string* error);

/// Counters maintained by the fault wrapper (all zero when none installed).
struct IoFaultStats {
  std::uint64_t ops{0};
  std::uint64_t bytes{0};
  std::uint64_t faults_fired{0};
};
[[nodiscard]] IoFaultStats CurrentIoFaultStats();

/// Buffered, error-latching file writer over Io::Active(). Replaces the
/// unchecked std::ofstream on every durable write path: the first failure
/// latches `error()` and every later call no-ops returning false, so a full
/// disk surfaces as one clear diagnostic instead of silent truncation.
class CheckedFile {
 public:
  static constexpr std::size_t kBufferBytes = 256 * 1024;

  CheckedFile() = default;
  ~CheckedFile();
  CheckedFile(const CheckedFile&) = delete;
  CheckedFile& operator=(const CheckedFile&) = delete;

  bool open(const std::string& path, bool append = false);
  bool write(const void* data, std::size_t n);
  bool write(const std::string& s) { return write(s.data(), s.size()); }
  /// Push the buffer to the OS (data survives process death, not power loss).
  bool flush();
  /// flush + fsync: data is durable.
  bool sync();
  bool close();

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Bytes accepted by write() — what the file should hold after flush().
  [[nodiscard]] std::uint64_t bytes_accepted() const { return accepted_; }

 private:
  std::string path_;
  std::string buf_;
  std::string error_;
  std::uint64_t accepted_{0};
  int fd_{-1};
};

// --- Read-side seam ---------------------------------------------------------
//
// The columnar snapshot (DESIGN §14) promises that a single-figure query
// touches only the kind segments the figure needs. That promise is only
// testable if reads are observable, so every MappedFile open records its
// path and byte count here — the I/O-seam read counter the selectivity
// tests assert against.

/// Counters over every MappedFile opened since the last reset.
struct IoReadStats {
  std::uint64_t files_opened{0};
  std::uint64_t bytes_mapped{0};
};
[[nodiscard]] IoReadStats CurrentIoReadStats();
/// Paths opened by MappedFile since the last ResetIoReadStats(), in open
/// order (duplicates preserved).
[[nodiscard]] std::vector<std::string> IoReadPaths();
void ResetIoReadStats();

/// Force MappedFile onto its buffered-read fallback so both code paths are
/// testable on any platform. Affects subsequent open() calls only.
void ForceBufferedReadsForTest(bool on);

/// Read-only whole-file view: mmap(2) when the kernel grants it, falling
/// back to one buffered read into heap memory (empty files, filesystems
/// without mmap support, or the test override above). Either way data() /
/// size() expose the same contiguous bytes, so the columnar reader never
/// needs to know which path it got.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Map (or read) all of `path`. On failure returns false with a
  /// "<path>: <op> failed: <why>" message in *error.
  bool open(const std::string& path, std::string* error);
  void close();

  [[nodiscard]] bool is_open() const { return open_; }
  [[nodiscard]] const char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// True when the bytes come from a live mapping (false: heap fallback).
  [[nodiscard]] bool mmapped() const { return mmapped_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string fallback_;
  const char* data_{nullptr};
  std::size_t size_{0};
  bool mmapped_{false};
  bool open_{false};
};

}  // namespace bismark::core
