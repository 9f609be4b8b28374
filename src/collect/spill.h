// Spill-to-disk segment layer: bounded-memory record storage at fleet scale.
//
// At 100k+ homes the all-in-RAM RecordStore needs tens of gigabytes, so a
// budgeted run streams records to disk instead. Each worker owns one
// append-only segment file; an IngestBatch that crosses its memory budget
// stable-sorts what it holds (per kind, by Schema<T>::SortKey) and appends
// it as one *section* — a sorted run tagged (shard, run sequence). Readers
// never load a data set whole: ForEachSpilledRow k-way-merges the sections
// back into the exact canonical order the in-RAM path produces.
//
// Why the merge is byte-exact (DESIGN §11): the in-RAM repository order is
// a stable sort of rows committed in shard-plan order, i.e. ties resolve by
// (shard index, append position). Flush chronology partitions each shard's
// appends into runs with strictly increasing positions, so merging sorted
// runs with the comparator (SortKey, shard, run) — streaming within a run —
// reproduces that order exactly. No per-row position is stored on disk.
//
// Scale: a 100k-home run makes ~25k shards, so a kind can have tens of
// thousands of sections, and a merge opens at most `merge_fan_in` of them.
// Only the excess is reduced (DESIGN §11): each level merges just enough
// contiguous groups of the canonical stream order's prefix into scratch
// sections that what remains fits the next level, and the last level is
// one `merge_fan_in`-way merge. No row is rewritten twice in a level. At
// 10k homes one extra level suffices and rewrites only the excess: 76 of
// 331 wifi_scan sections, not the whole kind.
//
// Reduce once: the SpillDir keeps each kind's reduced stream list, keyed
// by the section count it was planned from. Later passes (summary, export,
// snapshot) go straight to the final merge; a changed count — more
// sections registered, or a resumed directory — re-plans. Scratch
// sections carry the same CRC frames as worker sections and are re-verified
// on every read.
//
// The merge itself is a loser tree over the open cursors: each cursor
// decodes its head row and SortKey in place into its own slot, a step
// replays one leaf-to-root path (log2 k comparisons), and ties go to the
// lower canonical stream position. No row is copied per step.
//
// Memory: a quarter of the budget is for streaming kinds back. Up to
// `workers` kinds stream at once (the finalize passes run one pipe per
// kind, core/pipe.h), and each gets an equal share: an eighth of it is the
// ring of the kind's pipe (SpillConfig::pipe_ring_bytes), the rest is the
// read-ahead of at most `merge_fan_in` cursors
// (SpillConfig::cursor_buffer_bytes).
//
// Durability (segment format v2, DESIGN §12): every section wears the
// collect/frame.h frame — "BSG2" header tagged (kind, shard, run), body,
// footer with rows, body bytes, CRC32C and "END2" — and the SpillDir keeps
// a write-ahead manifest (collect/manifest.h) whose records commit sections
// only after their bytes reached the OS. All writes go through the
// injectable core::Io seam. One cursor reads sections back: it re-verifies
// the frame and CRC on every merge pass and fails closed on any mismatch,
// and recovery's VerifySection is that same cursor draining the body.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "collect/binio.h"
#include "collect/frame.h"
#include "core/io.h"

namespace bismark::collect {

struct HomeInfo;
class ManifestWriter;
struct ManifestConfig;
struct ManifestCheckpoint;
struct SpillRecovery;

struct SpillConfig {
  /// Directory for segment files; created on demand. The caller owns the
  /// directory's lifetime — segment files are scratch, not an archive.
  std::string dir;
  /// Total record-staging budget across all workers. 0 disables spill.
  std::size_t budget_bytes{0};
  std::size_t workers{1};
  /// Max sections opened concurrently by one merge level.
  std::size_t merge_fan_in{256};
  /// Verify section CRCs on read. Only the checksum-overhead bench turns
  /// this off; every production path keeps it on.
  bool verify_checksums{true};

  /// Per-batch flush threshold: half the per-worker share, so one staging
  /// batch plus one in-flight flush stay inside the worker's slice.
  [[nodiscard]] std::size_t flush_threshold() const {
    const std::size_t per_worker = budget_bytes / (2 * (workers ? workers : 1));
    return per_worker > 4096 ? per_worker : 4096;
  }

  /// A quarter of the budget is for streaming kinds back: `workers` kinds
  /// may stream at once (the parallel summary, export and snapshot
  /// passes), and each gets an equal share for its merge cursors and the
  /// ring of its finalize pipe (core/pipe.h).
  [[nodiscard]] std::size_t stream_share_bytes() const {
    return budget_bytes / (4 * (workers ? workers : 1));
  }
  /// Ring of one finalize pipe: an eighth of the kind's share, clamped to
  /// [64 KiB, 1 MiB].
  [[nodiscard]] std::size_t pipe_ring_bytes() const {
    return std::clamp<std::size_t>(stream_share_bytes() / 8, 64 * 1024, 1024 * 1024);
  }
  /// Read-ahead of one merge cursor: the rest of the kind's share over at
  /// most `merge_fan_in` cursors, clamped to [4 KiB, 64 KiB].
  [[nodiscard]] std::size_t cursor_buffer_bytes() const {
    const std::size_t share = stream_share_bytes();
    const std::size_t cursors = merge_fan_in ? merge_fan_in : 1;
    return std::clamp<std::size_t>((share - std::min(share, pipe_ring_bytes())) / cursors,
                                   4096, 64 * 1024);
  }
};

/// One sorted run of rows of a single kind inside a segment file.
struct SectionRef {
  std::uint32_t file{0};    ///< index into the SpillDir's file table
  std::uint64_t offset{0};  ///< byte offset of the first row (past the header)
  std::uint64_t bytes{0};   ///< body bytes (frame excluded)
  std::uint64_t rows{0};
  std::uint32_t shard{0};  ///< shard-plan index: the canonical tie order
  std::uint32_t run{0};    ///< flush sequence within (shard, kind)
  std::uint32_t kind{0};   ///< record-kind index (variant order)
  std::uint32_t crc{0};    ///< CRC32C of the body bytes
};

/// An append-only segment file. Owned exclusively by one worker while its
/// shard task runs (or by the merge scratch path, serialised by SpillDir).
/// Section bodies are AppendSpillRow payloads (u32 length + EncodeRow) so
/// cursors can frame rows without schema-dependent sizes. Every write goes
/// through the checked core::Io seam; any I/O failure throws with the path
/// and errno — a full disk aborts the run, it does not truncate it
/// silently.
class SegmentLog {
 public:
  SegmentLog(std::string path, std::uint32_t index);

  /// One-shot append of a fully-encoded section body.
  SectionRef append(std::uint32_t kind, std::uint32_t shard, std::uint32_t run,
                    std::uint64_t rows, const std::string& body);

  /// Streaming append for merge intermediates (bodies can exceed RAM).
  void begin_section(std::uint32_t kind, std::uint32_t shard, std::uint32_t run);
  void write(const char* data, std::size_t n);
  /// Writes the footer and flushes the section to the OS, so a manifest
  /// record appended after this provably references durable-on-crash bytes.
  SectionRef end_section(std::uint64_t rows);

  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return offset_; }
  [[nodiscard]] int fd() const { return out_.fd(); }

  /// Push buffered writes to the OS so cursors can read what was appended.
  void flush();
  /// flush + fsync: checkpoint durability.
  void sync();

 private:
  void ensure_open();
  void check(bool ok, const char* op);

  std::string path_;
  std::uint32_t index_;
  std::uint64_t offset_{0};
  std::uint64_t section_start_{0};  // body start of the in-flight section
  std::uint32_t section_kind_{0};
  std::uint32_t section_shard_{0};
  std::uint32_t section_run_{0};
  std::uint32_t section_crc_{0};
  core::CheckedFile out_;  // opened lazily on first append
};

/// Shared spill state: the segment directory, one log per worker plus a
/// scratch log for merge intermediates, the per-kind section tables, and
/// the write-ahead manifest. A resumed run layers a new *generation* of
/// segment files over the recovered ones; the file table spans both.
class SpillDir {
 public:
  explicit SpillDir(SpillConfig config);
  /// Resume construction: adopt a recovered directory's file table and
  /// committed sections, open generation `recovered.config.generation + 1`
  /// logs alongside them, and append to the (already truncated) manifest.
  SpillDir(SpillConfig config, const SpillRecovery& recovered);
  ~SpillDir();

  [[nodiscard]] const SpillConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t generation() const { return generation_; }

  /// The worker's exclusive segment log (no locking: one worker, one log).
  SegmentLog& log_for_worker(std::size_t worker);
  /// The merge-scratch log. Callers must hold merge_mutex().
  SegmentLog& scratch_log() { return *logs_.back(); }
  /// Absolute path of a file-table entry (any generation).
  [[nodiscard]] std::string file_path(std::uint32_t file_index) const;

  /// Record a flushed section (thread-safe; workers flush concurrently).
  /// Appends the manifest record that commits the section.
  void register_section(std::size_t kind, SectionRef ref);

  /// Write the run-configuration record (once per generation, before any
  /// shard runs). fsynced: a resumable directory always has its config.
  void write_run_config(const ManifestConfig& cfg);
  /// Commit a completed shard: its homes become recoverable and every
  /// section it registered becomes eligible for resume.
  void record_shard_done(std::uint32_t shard, const std::vector<HomeInfo>& homes);
  /// Durability barrier: fsync every segment log and the manifest, then
  /// append the checkpoint record.
  void write_checkpoint(const ManifestCheckpoint& ckpt);

  [[nodiscard]] std::uint64_t rows_of_kind(std::size_t kind) const { return rows_[kind]; }
  [[nodiscard]] std::uint64_t total_rows() const;
  /// Copy of the kind's section table (callers sort it for merging).
  [[nodiscard]] std::vector<SectionRef> sections_of_kind(std::size_t kind) const;

  [[nodiscard]] std::uint64_t sections_written() const;
  [[nodiscard]] std::uint64_t bytes_spilled() const;

  /// Serialises merge passes (they share the scratch log).
  [[nodiscard]] std::mutex& merge_mutex() { return merge_mu_; }

  /// Reduce-once cache: the streams a kind's final merge reads, and the
  /// section count they were planned from. A different count means the
  /// plan is stale. Callers must hold merge_mutex().
  struct ReducedStreams {
    std::size_t sections{0};
    std::vector<SectionRef> streams;
  };
  [[nodiscard]] ReducedStreams& reduced_streams(std::size_t kind) { return reduced_[kind]; }

  /// Flush every log's buffered writes so cursors see all appended rows.
  void flush_all();

 private:
  void open_generation_logs();

  SpillConfig config_;
  std::uint32_t generation_{0};
  std::vector<std::string> file_names_;            // file table, all generations
  std::vector<std::unique_ptr<SegmentLog>> logs_;  // this generation: workers, then scratch
  std::unique_ptr<ManifestWriter> manifest_;
  std::array<std::vector<SectionRef>, kRecordKinds> sections_;
  std::array<std::uint64_t, kRecordKinds> rows_{};
  std::array<ReducedStreams, kRecordKinds> reduced_;  // guarded by merge_mu_
  mutable std::mutex mu_;
  std::mutex merge_mu_;
};

/// Stream every row of kind T in canonical repository order — exactly the
/// sequence `rows<T>()` holds after `finalize_deterministic_order()` on the
/// in-RAM path. Bounded memory: at most `merge_fan_in` open sections per
/// merge, each with a cursor_buffer_bytes() read-ahead. The first pass over
/// a kind with more sections reduces its excess into scratch once; later
/// passes reuse that. Throws with a precise diagnostic if any section
/// fails its CRC or framing check.
template <typename T>
void ForEachSpilledRow(SpillDir& dir, const std::function<void(const T&)>& fn);

/// Check one committed section against the bytes on disk: header, body
/// CRC32C and footer, read through the cursor every merge pass uses (the
/// body is not decoded into rows). Returns false with *why set to
/// "<section>: <reason>" for the first mismatch.
bool VerifySection(const std::string& path, const SectionRef& ref, std::string* why);

}  // namespace bismark::collect
