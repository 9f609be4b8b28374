#include "collect/spill.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "collect/manifest.h"
#include "core/crc32c.h"

namespace bismark::collect {

namespace {

/// The frame a section's table entry (its manifest record) describes.
Frame FrameOf(const SectionRef& ref) {
  return Frame{kSectionMagic, {ref.kind, ref.shard, ref.run}, ref.rows, ref.bytes, ref.crc,
               kSectionEndMagic};
}

std::string SectionLabel(const std::string& path, const SectionRef& ref) {
  std::ostringstream os;
  os << "section kind=" << ref.kind << " shard=" << ref.shard << " run=" << ref.run
     << " file=" << path << " offset=" << ref.offset << " bytes=" << ref.bytes;
  return os.str();
}

}  // namespace

// --- SegmentLog -------------------------------------------------------------

SegmentLog::SegmentLog(std::string path, std::uint32_t index)
    : path_(std::move(path)), index_(index) {}

void SegmentLog::ensure_open() {
  if (out_.is_open()) return;
  if (!out_.open(path_)) {
    throw std::runtime_error("spill: cannot open segment file: " + out_.error());
  }
}

void SegmentLog::check(bool ok, const char* op) {
  if (!ok) {
    throw std::runtime_error(std::string("spill: ") + op + " failed: " +
                             (out_.error().empty() ? path_ : out_.error()));
  }
}

SectionRef SegmentLog::append(std::uint32_t kind, std::uint32_t shard, std::uint32_t run,
                              std::uint64_t rows, const std::string& body) {
  begin_section(kind, shard, run);
  write(body.data(), body.size());
  return end_section(rows);
}

void SegmentLog::begin_section(std::uint32_t kind, std::uint32_t shard, std::uint32_t run) {
  ensure_open();
  const auto header =
      FrameHeader(Frame{kSectionMagic, {kind, shard, run}, 0, 0, 0, kSectionEndMagic});
  check(out_.write(header.data(), header.size()), "section header write");
  offset_ += header.size();
  section_start_ = offset_;
  section_kind_ = kind;
  section_shard_ = shard;
  section_run_ = run;
  section_crc_ = 0;
}

void SegmentLog::write(const char* data, std::size_t n) {
  section_crc_ = core::Crc32c(data, n, section_crc_);
  check(out_.write(data, n), "write");
  offset_ += n;
}

SectionRef SegmentLog::end_section(std::uint64_t rows) {
  SectionRef ref;
  ref.file = index_;
  ref.offset = section_start_;
  ref.bytes = offset_ - section_start_;
  ref.rows = rows;
  ref.shard = section_shard_;
  ref.run = section_run_;
  ref.kind = section_kind_;
  ref.crc = section_crc_;
  const auto footer = FrameFooter(FrameOf(ref));
  check(out_.write(footer.data(), footer.size()), "section footer write");
  offset_ += footer.size();
  // Push the section to the OS before the caller commits it to the
  // manifest: a manifest record must never reference bytes that a crash of
  // this process could still lose.
  check(out_.flush(), "flush");
  return ref;
}

void SegmentLog::flush() {
  if (out_.is_open()) check(out_.flush(), "flush");
}

void SegmentLog::sync() {
  if (out_.is_open()) check(out_.sync(), "fsync");
}

void SegmentLog::close() {
  if (out_.is_open()) check(out_.close(), "close");
}

// --- SpillDir ---------------------------------------------------------------

namespace {

/// Unlink every file an earlier run can have left in `dir`: its manifest,
/// segments, column files, meta and half-written temporaries. Unlinking,
/// not truncating, leaves a snapshot's hard links to earlier column files
/// untouched.
void RemoveEarlierRun(const std::string& dir) {
  namespace fs = std::filesystem;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".bsmkman" || ext == ".bsmkseg" || ext == ".bsmkcol" || ext == ".bsmkmeta" ||
        ext == ".tmp") {
      fs::remove(entry.path());
    }
  }
}

}  // namespace

SpillDir::SpillDir(SpillConfig config) : config_(std::move(config)) {
  std::filesystem::create_directories(config_.dir);
  RemoveEarlierRun(config_.dir);
  open_generation_logs();
  manifest_ = std::make_unique<ManifestWriter>();
  manifest_->open(config_.dir + "/manifest.bsmkman", /*fresh=*/true);
  for (std::uint32_t i = 0; i < file_names_.size(); ++i) manifest_->file(i, file_names_[i]);
}

SpillDir::SpillDir(SpillConfig config, const SpillRecovery& recovered)
    : config_(std::move(config)), generation_(recovered.config.generation + 1) {
  std::filesystem::create_directories(config_.dir);
  file_names_ = recovered.files;
  sections_ = recovered.sections;
  for (std::size_t kind = 0; kind < kRecordKinds; ++kind) {
    for (const SectionRef& ref : sections_[kind]) rows_[kind] += ref.rows;
  }
  if (recovered.compacted) {
    compacted_ = true;
    rows_ = recovered.compaction.rows;
  }
  const std::uint32_t first_new = static_cast<std::uint32_t>(file_names_.size());
  open_generation_logs();
  manifest_ = std::make_unique<ManifestWriter>();
  manifest_->open(config_.dir + "/manifest.bsmkman", /*fresh=*/false);
  for (std::uint32_t i = first_new; i < file_names_.size(); ++i) {
    manifest_->file(i, file_names_[i]);
  }
}

SpillDir::~SpillDir() = default;

void SpillDir::open_generation_logs() {
  const std::size_t workers = config_.workers ? config_.workers : 1;
  const std::uint32_t base = static_cast<std::uint32_t>(file_names_.size());
  const std::string gen = "seg-g" + std::to_string(generation_) + "-";
  const auto add_log = [&](const std::string& name) {
    file_names_.push_back(gen + name + ".bsmkseg");
    logs_.push_back(std::make_unique<SegmentLog>(
        config_.dir + "/" + file_names_.back(), base + static_cast<std::uint32_t>(logs_.size())));
  };
  logs_.reserve(workers + kRecordKinds);
  for (std::size_t i = 0; i < workers; ++i) add_log("w" + std::to_string(i));
  for (std::size_t kind = 0; kind < kRecordKinds; ++kind) {
    add_log("merge-" + std::string(RecordKindName(kind)));
  }
}

SegmentLog& SpillDir::log_for_worker(std::size_t worker) {
  return *logs_[worker < logs_.size() - kRecordKinds ? worker : 0];
}

std::string SpillDir::file_path(std::uint32_t file_index) const {
  return config_.dir + "/" + file_names_[file_index];
}

void SpillDir::register_section(std::size_t kind, SectionRef ref) {
  ref.kind = static_cast<std::uint32_t>(kind);
  std::lock_guard<std::mutex> lock(mu_);
  if (compacted_) throw std::runtime_error("spill: section added after compaction");
  rows_[kind] += ref.rows;
  sections_[kind].push_back(ref);
  manifest_->section(ref);
}

void SpillDir::write_run_config(const ManifestConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  manifest_->config(cfg);
  manifest_->sync();
}

void SpillDir::record_shard_done(std::uint32_t shard, const std::vector<HomeInfo>& homes) {
  std::lock_guard<std::mutex> lock(mu_);
  manifest_->shard_done(shard, homes);
}

void SpillDir::write_checkpoint(const ManifestCheckpoint& ckpt) {
  std::lock_guard<std::mutex> lock(mu_);
  // fd-level fsync of every log: safe against the owning worker writing
  // concurrently (its buffered in-flight section is not manifested and
  // needs no durability yet; everything manifested was flushed to the OS
  // at end_section).
  for (const auto& log : logs_) {
    const int fd = log->fd();
    if (fd < 0) continue;
    std::string error;
    if (!core::Io::Active().sync(fd, log->path(), &error)) {
      throw std::runtime_error("spill: checkpoint fsync failed: " + error);
    }
  }
  manifest_->checkpoint(ckpt);
  manifest_->sync();
}

void SpillDir::commit_compaction(const ManifestCompaction& compaction) {
  std::lock_guard<std::mutex> lock(mu_);
  manifest_->compacted(compaction);
  manifest_->sync();
  // The record is durable: the columns hold every row, and a crash from
  // here on resumes from them (recovery unlinks whatever is left below).
  compacted_ = true;
  for (const auto& log : logs_) log->close();
  for (const std::string& name : file_names_) {
    std::error_code ec;
    std::filesystem::remove(config_.dir + "/" + name, ec);
    if (ec) throw std::runtime_error("spill: cannot unlink " + name + ": " + ec.message());
  }
  for (auto& kind_sections : sections_) std::vector<SectionRef>().swap(kind_sections);
}

std::uint64_t SpillDir::total_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto n : rows_) total += n;
  return total;
}

std::vector<SectionRef> SpillDir::sections_of_kind(std::size_t kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sections_[kind];
}

std::uint64_t SpillDir::sections_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& v : sections_) total += v.size();
  return total;
}

void SpillDir::flush_all() {
  for (const auto& log : logs_) log->flush();
}

std::uint64_t SpillDir::bytes_spilled() const {
  std::uint64_t total = 0;
  for (const auto& log : logs_) total += log->bytes_written();
  return total;
}

// --- section cursor ---------------------------------------------------------

namespace {

/// A section that could not be opened or failed a frame, CRC or row
/// framing check. what() is the "spill: corrupt <section>: <reason>"
/// diagnostic; detail() is the same without the prefix.
class CorruptSection : public std::runtime_error {
 public:
  explicit CorruptSection(const std::string& detail)
      : std::runtime_error("spill: corrupt " + detail), detail_(detail) {}
  [[nodiscard]] const std::string& detail() const { return detail_; }

 private:
  std::string detail_;
};

/// Sequential reader over one section: a read-ahead buffer of
/// `buffer_bytes` refilled from the segment file, so a merge holds
/// O(fan_in × buffer) memory no matter how large the sections are. Checks
/// the frame header on open against the section's SectionRef, and the body
/// CRC32C + footer at exhaustion — every merge pass re-checks every byte it
/// reads. next_row() frames rows; drain() reads the body unframed.
class SectionCursor {
 public:
  SectionCursor(std::string path, const SectionRef& ref, bool verify, std::size_t buffer_bytes)
      : path_(std::move(path)), ref_(ref), verify_(verify), buffer_bytes_(buffer_bytes) {
    // Unbuffered stream: the cursor's own buffer is the only read-ahead.
    in_.rdbuf()->pubsetbuf(nullptr, 0);
    in_.open(path_, std::ios::binary);
    if (!in_) fail("cannot open segment file");
    if (verify_) {
      if (ref.offset < kFrameHeaderBytes) fail("header offset underflow");
      char header[kFrameHeaderBytes];
      in_.seekg(static_cast<std::streamoff>(ref.offset - kFrameHeaderBytes));
      in_.read(header, sizeof header);
      if (static_cast<std::size_t>(in_.gcount()) != sizeof header) fail("short header read");
      std::string why;
      if (!CheckFrameHeader(header, FrameOf(ref), &why)) fail(why);
    } else {
      in_.seekg(static_cast<std::streamoff>(ref.offset));
    }
    remaining_file_ = ref.bytes;
    buf_.reserve(buffer_bytes_);
  }

  /// Frame the next row; returns an empty view at section end (after the
  /// one-time CRC + footer verification).
  [[nodiscard]] std::pair<const char*, std::size_t> next_row() {
    if (rows_read_ == ref_.rows) {
      finish();
      return {nullptr, 0};
    }
    ensure(4);
    const std::uint32_t len = LoadLe<std::uint32_t>(buf_.data() + pos_);
    pos_ += 4;
    ensure(len);
    const char* row = buf_.data() + pos_;
    pos_ += len;
    ++rows_read_;
    return {row, len};
  }

  /// Read the rest of the body without framing rows, then check the CRC
  /// and the footer. Recovery verifies sections this way.
  void drain() {
    while (remaining_file_ > 0) {
      pos_ = buf_.size();  // nothing buffered is needed again
      ensure(1);
    }
    check_tail();
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw CorruptSection(SectionLabel(path_, ref_) + ": " + why);
  }

  void finish() {
    if (finished_) return;
    finished_ = true;
    if (!verify_) return;
    // Every body byte must be accounted for by the rows we decoded.
    if (remaining_file_ != 0 || pos_ != buf_.size()) {
      fail("body length does not match row framing");
    }
    check_tail();
  }

  void check_tail() {
    const Frame want = FrameOf(ref_);
    std::string why;
    if (!CheckFrameCrc(crc_, want, &why)) fail(why);
    char footer[kFrameFooterBytes];
    in_.read(footer, sizeof footer);
    if (static_cast<std::size_t>(in_.gcount()) != sizeof footer) fail("truncated footer");
    if (!CheckFrameFooter(footer, want, &why)) fail(why);
  }

  void ensure(std::size_t n) {
    if (buf_.size() - pos_ >= n) return;
    buf_.erase(0, pos_);
    pos_ = 0;
    const std::size_t have = buf_.size();
    // Refill to the buffer size, or past it for an oversized row.
    std::size_t read_more = std::max(buffer_bytes_, n) - have;
    if (read_more > remaining_file_) read_more = static_cast<std::size_t>(remaining_file_);
    buf_.resize(have + read_more);
    in_.read(buf_.data() + have, static_cast<std::streamsize>(read_more));
    if (static_cast<std::size_t>(in_.gcount()) != read_more) {
      fail("short read (file truncated mid-section)");
    }
    if (verify_) crc_ = core::Crc32c(buf_.data() + have, read_more, crc_);
    remaining_file_ -= read_more;
    if (buf_.size() < n) fail("row frame extends past the section body");
  }

  std::string path_;
  SectionRef ref_;
  bool verify_;
  std::size_t buffer_bytes_;
  std::ifstream in_;
  std::string buf_;
  std::size_t pos_{0};
  std::uint64_t rows_read_{0};
  std::uint64_t remaining_file_{0};  // section bytes not yet buffered
  std::uint32_t crc_{0};
  bool finished_{false};
};

/// Canonical order of section *streams*: ties between rows with equal sort
/// keys resolve by the shard-plan index, then by flush sequence.
bool StreamOrder(const SectionRef& a, const SectionRef& b) {
  if (a.shard != b.shard) return a.shard < b.shard;
  return a.run < b.run;
}

/// Merge a run of sections (already in canonical stream order) into `emit`,
/// called once per row in merged order.
///
/// A loser tree over the k cursors: tree[0] holds the current winner and
/// tree[1..k) the loser of each internal match (leaf i is node k + i of
/// an implicit binary tree, so any k works). Each cursor decodes its head
/// row and SortKey in place into its own slot; an exhausted cursor loses
/// every match. Ties on the key go to the lower stream position, so the
/// merge order is the canonical (SortKey, shard, run) order. A step emits
/// the winner's row by reference, refills that slot from its cursor and
/// replays only the winner's path to the root: log2(k) comparisons, and no
/// row is copied or moved.
template <typename T, typename Emit>
void MergeGroup(SpillDir& dir, const std::vector<SectionRef>& sections, std::size_t begin,
                std::size_t end, Emit&& emit) {
  struct Slot {
    std::unique_ptr<SectionCursor> cursor;
    T row{};
    decltype(Schema<T>::SortKey(std::declval<const T&>())) key{};
    bool live{false};
  };
  const std::size_t k = end - begin;
  if (k == 0) return;
  const bool verify = dir.config().verify_checksums;
  const std::size_t buffer_bytes = dir.config().cursor_buffer_bytes();
  std::vector<Slot> slots(k);
  const auto advance = [&slots](std::size_t i) {
    Slot& slot = slots[i];
    auto [data, len] = slot.cursor->next_row();
    slot.live = data != nullptr;
    if (!slot.live) return;
    BinReader r(data, len);
    DecodeRow(r, slot.row);
    if (r.failed() || !r.at_end()) throw std::runtime_error("spill: corrupt row");
    slot.key = Schema<T>::SortKey(slot.row);
  };
  // Does the head of stream a come before the head of stream b?
  const auto beats = [&slots](std::size_t a, std::size_t b) {
    const Slot& x = slots[a];
    const Slot& y = slots[b];
    if (!x.live || !y.live) return x.live;
    if (x.key < y.key) return true;
    if (y.key < x.key) return false;
    return a < b;
  };

  for (std::size_t i = 0; i < k; ++i) {
    const SectionRef& ref = sections[begin + i];
    slots[i].cursor = std::make_unique<SectionCursor>(dir.file_path(ref.file), ref, verify,
                                                      buffer_bytes);
    advance(i);
  }
  // Build bottom-up: winner[n] is the winner of node n's subtree.
  std::vector<std::size_t> tree(k);
  {
    std::vector<std::size_t> winner(2 * k);
    for (std::size_t i = 0; i < k; ++i) winner[k + i] = i;
    for (std::size_t n = k - 1; n > 0; --n) {
      const std::size_t a = winner[2 * n];
      const std::size_t b = winner[2 * n + 1];
      const bool a_wins = beats(a, b);
      winner[n] = a_wins ? a : b;
      tree[n] = a_wins ? b : a;
    }
    tree[0] = k > 1 ? winner[1] : 0;
  }
  while (slots[tree[0]].live) {
    std::size_t w = tree[0];
    emit(slots[w].row);
    advance(w);
    for (std::size_t n = (k + w) / 2; n > 0; n /= 2) {
      if (beats(tree[n], w)) std::swap(tree[n], w);
    }
    tree[0] = w;
  }
}

/// Merge streams[begin, end) into one new scratch section.
template <typename T>
SectionRef MergeIntoScratch(SpillDir& dir, const std::vector<SectionRef>& streams,
                            std::size_t begin, std::size_t end, std::uint32_t group,
                            std::uint32_t level) {
  SegmentLog& scratch = dir.scratch_log(kRecordIndexOf<T>);
  scratch.begin_section(static_cast<std::uint32_t>(kRecordIndexOf<T>), group, level);
  std::uint64_t rows = 0;
  BinWriter chunk;
  const auto spool = [&](const T& row) {
    AppendSpillRow(chunk, row);
    ++rows;
    if (chunk.size() >= 1 << 20) {
      scratch.write(chunk.buffer().data(), chunk.size());
      chunk.clear();
    }
  };
  MergeGroup<T>(dir, streams, begin, end, spool);
  if (chunk.size() != 0) scratch.write(chunk.buffer().data(), chunk.size());
  return scratch.end_section(rows);
}

/// The merge plan: reduce `streams` (canonical stream order) until at most
/// `fan_in` remain. A level with n streams must reach fan_in^k streams, the
/// most that k - 1 further levels of full groups plus the final merge can
/// finish, for the smallest such k. It merges only the excess n - fan_in^k:
/// contiguous groups of the prefix, each group of g streams removing g - 1,
/// so every row is rewritten at most once per level and the untouched
/// suffix keeps its place. Each output replaces its group at the group's
/// position, so ties keep their canonical order at the next level.
template <typename T>
std::vector<SectionRef> ReduceToFanIn(SpillDir& dir, std::vector<SectionRef> streams,
                                      std::size_t fan_in) {
  for (std::uint32_t level = 0; streams.size() > fan_in; ++level) {
    std::size_t target = fan_in;
    while (target * fan_in < streams.size()) target *= fan_in;
    std::size_t excess = streams.size() - target;
    std::vector<SectionRef> next;
    next.reserve(target);
    std::size_t begin = 0;
    while (excess > 0) {
      const std::size_t group = std::min(fan_in, excess + 1);
      next.push_back(MergeIntoScratch<T>(dir, streams, begin, begin + group,
                                         static_cast<std::uint32_t>(next.size()), level));
      begin += group;
      excess -= group - 1;
    }
    next.insert(next.end(), streams.begin() + static_cast<std::ptrdiff_t>(begin),
                streams.end());
    streams = std::move(next);
  }
  return streams;
}

}  // namespace

bool VerifySection(const std::string& path, const SectionRef& ref, std::string* why) {
  try {
    SectionCursor(path, ref, /*verify=*/true, /*buffer_bytes=*/1 << 20).drain();
    return true;
  } catch (const CorruptSection& e) {
    *why = e.detail();
    return false;
  }
}

// --- hierarchical merge -----------------------------------------------------

template <typename T>
void ForEachSpilledRow(SpillDir& dir, const std::function<void(const T&)>& fn) {
  constexpr std::size_t kKind = kRecordIndexOf<T>;
  std::vector<SectionRef> streams = dir.sections_of_kind(kKind);
  if (streams.empty()) return;
  dir.count_merge_pass(kKind);
  const std::size_t fan_in = dir.config().merge_fan_in < 2 ? 2 : dir.config().merge_fan_in;

  // Every registered section was flushed to the OS before it was
  // registered (SegmentLog::end_section), and committed bytes never move,
  // so merges read them through private cursors while other kinds stream
  // concurrently; a kind with more sections than one merge opens first
  // reduces the excess into its own scratch log.
  std::sort(streams.begin(), streams.end(), StreamOrder);
  if (streams.size() > fan_in) streams = ReduceToFanIn<T>(dir, std::move(streams), fan_in);
  MergeGroup<T>(dir, streams, 0, streams.size(), fn);
}

// One instantiation per registered record kind.
#define BISMARK_SPILL_INSTANTIATE(T) \
  template void ForEachSpilledRow<T>(SpillDir&, const std::function<void(const T&)>&);
BISMARK_SPILL_INSTANTIATE(HeartbeatRun)
BISMARK_SPILL_INSTANTIATE(UptimeRecord)
BISMARK_SPILL_INSTANTIATE(CapacityRecord)
BISMARK_SPILL_INSTANTIATE(DeviceCountRecord)
BISMARK_SPILL_INSTANTIATE(WifiScanRecord)
BISMARK_SPILL_INSTANTIATE(TrafficFlowRecord)
BISMARK_SPILL_INSTANTIATE(ThroughputMinute)
BISMARK_SPILL_INSTANTIATE(DnsLogRecord)
BISMARK_SPILL_INSTANTIATE(DeviceTrafficRecord)
BISMARK_SPILL_INSTANTIATE(CgnEventRecord)
#undef BISMARK_SPILL_INSTANTIATE

}  // namespace bismark::collect
