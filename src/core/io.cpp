#include "core/io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

namespace bismark::core {

namespace {

std::string Errno(const std::string& path, const char* op, int err) {
  return path + ": " + op + " failed: " + std::strerror(err);
}

class RealIo final : public Io {};

// --- fault wrapper ----------------------------------------------------------

struct FaultState {
  IoFaultPlan plan;
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> fired{0};
  std::atomic<bool> sticky_tripped{false};
  std::atomic<bool> shortwrite_spent{false};
};

FaultState& State() {
  static FaultState state;
  return state;
}

class FaultyIo final : public Io {
 public:
  bool write(int fd, const std::string& path, const char* data, std::size_t n,
             std::string* error) override {
    FaultState& s = State();
    if (!Matches(path)) return Io::write(fd, path, data, n, error);
    const std::uint64_t op = s.ops.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t total = s.bytes.fetch_add(n, std::memory_order_relaxed) + n;
    switch (s.plan.kind) {
      case IoFaultPlan::Kind::kEnospc:
        if (Armed(op, total)) {
          s.fired.fetch_add(1, std::memory_order_relaxed);
          if (error != nullptr) {
            *error = path + ": write failed: No space left on device (injected ENOSPC)";
          }
          return false;
        }
        break;
      case IoFaultPlan::Kind::kShortWrite:
        if (Armed(op, total) && !s.shortwrite_spent.exchange(true)) {
          s.fired.fetch_add(1, std::memory_order_relaxed);
          // A torn write: half the bytes land, success is reported. Only
          // checksums can catch this — exactly what the corruption suite
          // asserts.
          return Io::write(fd, path, data, n / 2, error);
        }
        break;
      case IoFaultPlan::Kind::kKill:
        if (Armed(op, total)) {
          std::string ignored;
          Io::write(fd, path, data, n / 2, &ignored);
          std::_Exit(137);  // kill -9: no flush, no destructors
        }
        break;
      case IoFaultPlan::Kind::kFsyncFail:
      case IoFaultPlan::Kind::kLinkFail:
      case IoFaultPlan::Kind::kNone:
        break;
    }
    return Io::write(fd, path, data, n, error);
  }

  bool sync(int fd, const std::string& path, std::string* error) override {
    FaultState& s = State();
    if (!Matches(path)) return Io::sync(fd, path, error);
    const std::uint64_t op = s.ops.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t total = s.bytes.load(std::memory_order_relaxed);
    if (s.plan.kind == IoFaultPlan::Kind::kFsyncFail && Armed(op, total)) {
      s.fired.fetch_add(1, std::memory_order_relaxed);
      if (error != nullptr) *error = Errno(path, "fsync (injected)", EIO);
      return false;
    }
    if (s.plan.kind == IoFaultPlan::Kind::kKill && Armed(op, total)) std::_Exit(137);
    return Io::sync(fd, path, error);
  }

  bool link(const std::string& from, const std::string& to, std::string* error) override {
    FaultState& s = State();
    if (!Matches(to)) return Io::link(from, to, error);
    const std::uint64_t op = s.ops.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t total = s.bytes.load(std::memory_order_relaxed);
    if (s.plan.kind == IoFaultPlan::Kind::kLinkFail && Armed(op, total)) {
      s.fired.fetch_add(1, std::memory_order_relaxed);
      if (error != nullptr) *error = Errno(to, "link (injected)", EXDEV);
      return false;
    }
    if (s.plan.kind == IoFaultPlan::Kind::kKill && Armed(op, total)) std::_Exit(137);
    return Io::link(from, to, error);
  }

 private:
  static bool Matches(const std::string& path) {
    const IoFaultPlan& plan = State().plan;
    return plan.path_substr.empty() || path.find(plan.path_substr) != std::string::npos;
  }

  /// Trigger check; sticky kinds stay armed once tripped.
  static bool Armed(std::uint64_t op, std::uint64_t total_bytes) {
    FaultState& s = State();
    if (s.sticky_tripped.load(std::memory_order_relaxed)) return true;
    const bool hit = (s.plan.at_op != 0 && op >= s.plan.at_op) ||
                     (s.plan.at_bytes != 0 && total_bytes >= s.plan.at_bytes);
    if (hit && (s.plan.kind == IoFaultPlan::Kind::kEnospc ||
                s.plan.kind == IoFaultPlan::Kind::kFsyncFail ||
                s.plan.kind == IoFaultPlan::Kind::kLinkFail)) {
      s.sticky_tripped.store(true, std::memory_order_relaxed);
    }
    return hit;
  }
};

std::atomic<Io*> g_active{nullptr};

Io& Real() {
  static RealIo real;
  return real;
}

}  // namespace

// --- Io ---------------------------------------------------------------------

int Io::open_write(const std::string& path, bool append, std::string* error) {
  const int flags = O_WRONLY | O_CREAT | O_CLOEXEC | (append ? O_APPEND : O_TRUNC);
  int fd = -1;
  do {
    fd = ::open(path.c_str(), flags, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0 && error != nullptr) *error = Errno(path, "open", errno);
  return fd;
}

bool Io::write(int fd, const std::string& path, const char* data, std::size_t n,
               std::string* error) {
  while (n > 0) {
    const ssize_t wrote = ::write(fd, data, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno(path, "write", errno);
      return false;
    }
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
  return true;
}

bool Io::sync(int fd, const std::string& path, std::string* error) {
  int rc = 0;
  do {
    rc = ::fsync(fd);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    if (error != nullptr) *error = Errno(path, "fsync", errno);
    return false;
  }
  return true;
}

void Io::close(int fd) {
  if (fd >= 0) ::close(fd);
}

bool Io::sync_dir(const std::string& dir, std::string* error) {
  int fd = -1;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (error != nullptr) *error = Errno(dir, "open", errno);
    return false;
  }
  const bool ok = sync(fd, dir, error);
  ::close(fd);
  return ok;
}

bool Io::link(const std::string& from, const std::string& to, std::string* error) {
  if (::link(from.c_str(), to.c_str()) != 0) {
    if (error != nullptr) *error = Errno(to, "link", errno);
    return false;
  }
  return true;
}

Io& Io::Active() {
  Io* io = g_active.load(std::memory_order_acquire);
  return io != nullptr ? *io : Real();
}

// --- fault installation -----------------------------------------------------

void InstallIoFaultPlan(const IoFaultPlan& plan) {
  static FaultyIo faulty;
  FaultState& s = State();
  g_active.store(nullptr, std::memory_order_release);
  s.plan = plan;
  s.ops.store(0);
  s.bytes.store(0);
  s.fired.store(0);
  s.sticky_tripped.store(false);
  s.shortwrite_spent.store(false);
  if (plan.kind != IoFaultPlan::Kind::kNone) {
    g_active.store(&faulty, std::memory_order_release);
  }
}

void ClearIoFaults() { InstallIoFaultPlan(IoFaultPlan{}); }

IoFaultStats CurrentIoFaultStats() {
  const FaultState& s = State();
  IoFaultStats out;
  out.ops = s.ops.load(std::memory_order_relaxed);
  out.bytes = s.bytes.load(std::memory_order_relaxed);
  out.faults_fired = s.fired.load(std::memory_order_relaxed);
  return out;
}

bool ParseIoFaultSpec(const std::string& spec, IoFaultPlan* plan, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "bad I/O fault spec \"" + spec + "\": " + why +
               " (expected KIND@writes=N|bytes=N[:path=SUBSTR], KIND one of "
               "enospc|shortwrite|fsyncfail|linkfail|kill)";
    }
    return false;
  };
  const std::size_t at = spec.find('@');
  if (at == std::string::npos) return fail("missing '@'");
  const std::string kind = spec.substr(0, at);
  IoFaultPlan out;
  if (kind == "enospc") {
    out.kind = IoFaultPlan::Kind::kEnospc;
  } else if (kind == "shortwrite") {
    out.kind = IoFaultPlan::Kind::kShortWrite;
  } else if (kind == "fsyncfail") {
    out.kind = IoFaultPlan::Kind::kFsyncFail;
  } else if (kind == "linkfail") {
    out.kind = IoFaultPlan::Kind::kLinkFail;
  } else if (kind == "kill") {
    out.kind = IoFaultPlan::Kind::kKill;
  } else {
    return fail("unknown fault kind \"" + kind + "\"");
  }
  std::string trigger = spec.substr(at + 1);
  const std::size_t colon = trigger.find(':');
  if (colon != std::string::npos) {
    const std::string tail = trigger.substr(colon + 1);
    if (tail.rfind("path=", 0) != 0) return fail("expected :path=SUBSTR after trigger");
    out.path_substr = tail.substr(5);
    trigger = trigger.substr(0, colon);
  }
  const std::size_t eq = trigger.find('=');
  if (eq == std::string::npos) return fail("missing trigger value");
  const std::string key = trigger.substr(0, eq);
  const std::string value = trigger.substr(eq + 1);
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || end == nullptr || *end != '\0' || errno != 0 || n == 0) {
    return fail("trigger value must be a positive integer");
  }
  if (key == "writes") {
    out.at_op = n;
  } else if (key == "bytes") {
    out.at_bytes = n;
  } else {
    return fail("unknown trigger \"" + key + "\"");
  }
  *plan = out;
  return true;
}

bool InstallIoFaultPlanFromEnv(std::string* error) {
  const char* spec = std::getenv("BISMARK_IO_FAULT");
  if (spec == nullptr || *spec == '\0') return true;
  IoFaultPlan plan;
  if (!ParseIoFaultSpec(spec, &plan, error)) return false;
  InstallIoFaultPlan(plan);
  return true;
}

// --- CheckedFile ------------------------------------------------------------

CheckedFile::~CheckedFile() {
  // Last-resort close; errors here are lost, which is why every durable
  // path calls close() (or sync()) explicitly and checks it.
  if (fd_ >= 0) {
    flush();
    Io::Active().close(fd_);
    fd_ = -1;
  }
}

bool CheckedFile::open(const std::string& path, bool append) {
  if (fd_ >= 0) close();
  path_ = path;
  error_.clear();
  accepted_ = 0;
  buf_.clear();
  buf_.reserve(kBufferBytes);
  fd_ = Io::Active().open_write(path, append, &error_);
  return fd_ >= 0;
}

bool CheckedFile::write(const void* data, std::size_t n) {
  if (!error_.empty()) return false;
  if (fd_ < 0) {
    error_ = path_.empty() ? std::string("write to unopened file") : path_ + ": not open";
    return false;
  }
  buf_.append(static_cast<const char*>(data), n);
  accepted_ += n;
  if (buf_.size() >= kBufferBytes) return flush();
  return true;
}

bool CheckedFile::flush() {
  if (!error_.empty()) return false;
  if (fd_ < 0 || buf_.empty()) return error_.empty();
  const bool ok = Io::Active().write(fd_, path_, buf_.data(), buf_.size(), &error_);
  buf_.clear();
  return ok;
}

bool CheckedFile::sync() {
  if (!flush()) return false;
  return Io::Active().sync(fd_, path_, &error_);
}

bool CheckedFile::close() {
  if (fd_ < 0) return error_.empty();
  flush();
  Io::Active().close(fd_);
  fd_ = -1;
  return error_.empty();
}

// --- read-side seam ---------------------------------------------------------

namespace {

struct ReadState {
  std::mutex mu;
  std::vector<std::string> paths;
  std::atomic<std::uint64_t> files{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<bool> force_buffered{false};
};

ReadState& Reads() {
  static ReadState state;
  return state;
}

void RecordRead(const std::string& path, std::size_t bytes) {
  ReadState& s = Reads();
  s.files.fetch_add(1, std::memory_order_relaxed);
  s.bytes.fetch_add(bytes, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(s.mu);
  s.paths.push_back(path);
}

}  // namespace

IoReadStats CurrentIoReadStats() {
  const ReadState& s = Reads();
  IoReadStats out;
  out.files_opened = s.files.load(std::memory_order_relaxed);
  out.bytes_mapped = s.bytes.load(std::memory_order_relaxed);
  return out;
}

std::vector<std::string> IoReadPaths() {
  ReadState& s = Reads();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.paths;
}

void ResetIoReadStats() {
  ReadState& s = Reads();
  std::lock_guard<std::mutex> lock(s.mu);
  s.paths.clear();
  s.files.store(0, std::memory_order_relaxed);
  s.bytes.store(0, std::memory_order_relaxed);
}

void ForceBufferedReadsForTest(bool on) {
  Reads().force_buffered.store(on, std::memory_order_relaxed);
}

MappedFile::~MappedFile() { close(); }

bool MappedFile::open(const std::string& path, std::string* error) {
  close();
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (error != nullptr) *error = Errno(path, "open", errno);
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    if (error != nullptr) *error = Errno(path, "fstat", errno);
    ::close(fd);
    return false;
  }
  path_ = path;
  size_ = static_cast<std::size_t>(st.st_size);
  // Empty files have nothing to map; mmap would fail with EINVAL anyway.
  if (size_ > 0 && !Reads().force_buffered.load(std::memory_order_relaxed)) {
    void* mapped = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapped != MAP_FAILED) {
      data_ = static_cast<const char*>(mapped);
      mmapped_ = true;
    }
  }
  if (!mmapped_ && size_ > 0) {
    fallback_.resize(size_);
    std::size_t got = 0;
    while (got < size_) {
      const ssize_t n = ::read(fd, fallback_.data() + got, size_ - got);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (error != nullptr) *error = Errno(path, "read", errno);
        ::close(fd);
        fallback_.clear();
        size_ = 0;
        return false;
      }
      if (n == 0) break;  // truncated under us: expose the shorter view
      got += static_cast<std::size_t>(n);
    }
    size_ = got;
    data_ = fallback_.data();
  }
  ::close(fd);
  open_ = true;
  RecordRead(path_, size_);
  return true;
}

void MappedFile::close() {
  if (mmapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
  fallback_.clear();
  fallback_.shrink_to_fit();
  data_ = nullptr;
  size_ = 0;
  mmapped_ = false;
  open_ = false;
  path_.clear();
}

}  // namespace bismark::core
