// BSMKSNAP v3: the columnar snapshot, the one on-disk format of a data set
// (DESIGN §14). A snapshot is a *directory* with one meta file plus one
// column file per non-empty kind, so `analyze` maps only the kinds a
// figure needs and scans them without a decode pass:
//
//   <dir>/snapshot.bsmkmeta      magic/version/windows/homes + the full
//                                per-kind section table, then a CRC32C
//                                of every preceding byte
//   <dir>/<kind>.bsmkcol         one file per kind with rows, e.g.
//                                capacity.bsmkcol — stripes of per-field
//                                column sections
//
// Column file layout (all integers little-endian):
//
//   file header   u32 magic "BCL3" | u32 kind index | u32 field count
//                 | u32 reserved                                16 bytes
//   per stripe (up to kStripeRows rows), per field in schema order:
//     header      u32 magic "CSC3" | u32 field | u32 stripe
//                 | u32 encoding (fixed width, 0 = string)      16 bytes
//     body        fixed: rows × FieldCodec values (little-endian)
//                 string: rows × u32 cumulative end offsets, then blob
//     footer      u64 rows | u64 body bytes | u32 CRC32C of body
//                 | u32 end magic "END3"                        24 bytes
//     padding     zero bytes to the next 8-byte boundary
//
// Header and footer are the spill segments' section frame
// (collect/frame.h), written and checked by the same code, so the
// crash-safety story carries over: the reader verifies every frame and CRC
// of a kind file against the meta table the first time that kind is
// touched, and fails closed on any mismatch. The meta file's windows and
// home roster use the same codecs as the spill manifest (FieldCodec of
// DatasetWindows, EncodeHome).
// Readers get the bytes through core::MappedFile — mmap when the kernel
// grants it, a buffered read otherwise — and every open is recorded in the
// core::IoReadStats counters, which is how tests prove a single-figure
// query touched only its own kind segments.
//
// The writer streams through DataRepository::for_each_row, so it works
// from the in-RAM store, a spill directory (bounded by one stripe of
// buffered columns — fleet mode under --memory-budget-mb), or another
// snapshot. Each kind is one pipe (collect/kind_pipes.h) on
// bismark::ThreadPool: the kind's merge or scan is the producer and its
// stripe encoder the sink, so the two run on separate cores, and kinds run
// side by side, largest first (each kind owns its file, so bytes are
// identical at any worker count).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "collect/column_view.h"
#include "collect/repository.h"
#include "core/io.h"

namespace bismark::collect {

inline constexpr char kSnapshotMagic[8] = {'B', 'S', 'M', 'K', 'S', 'N', 'A', 'P'};
/// The only version read or written; the meta reader refuses any other.
inline constexpr std::uint32_t kColumnSnapshotVersion = 3;
inline constexpr char kColumnMetaFile[] = "snapshot.bsmkmeta";
inline constexpr char kColumnFileSuffix[] = ".bsmkcol";
inline constexpr std::uint32_t kColumnFileMagic = 0x334C4342;  // "BCL3"
inline constexpr std::size_t kColumnFileHeaderBytes = 16;
/// Stripe bounds: a stripe closes at this many rows or this much buffered
/// column data, whichever comes first — the writer's only O(data) state.
inline constexpr std::uint64_t kColumnStripeRows = 64 * 1024;
inline constexpr std::size_t kColumnStripeBytes = 64 * 1024 * 1024;

/// One column section's place in its kind file (meta-table entry).
struct ColumnSectionMeta {
  std::uint64_t body_offset{0};  // from file start, past the 16-byte header
  std::uint64_t body_bytes{0};
  std::uint32_t crc{0};
  std::uint32_t encoding{0};  // fixed width in bytes; 0 = string offsets+blob
};

struct ColumnStripeMeta {
  std::uint64_t rows{0};
  std::vector<ColumnSectionMeta> sections;  // one per field, schema order
};

struct ColumnKindMeta {
  std::string file;  // empty when the kind has no rows (no file written)
  std::uint64_t rows{0};
  std::vector<ColumnStripeMeta> stripes;
};

/// Write `repo` as a v3 snapshot directory (created if missing; existing
/// snapshot files are overwritten). Kind files are written by one pipe per
/// kind on `workers` threads. Returns false with *error on any I/O or encoding
/// failure — partial output may remain, but the meta file is written last
/// and fsynced, so a directory with a valid meta is complete.
bool SaveColumnSnapshot(const DataRepository& repo, const std::string& dir,
                        std::string* error, std::size_t workers = 1);

/// True when `path` names a directory holding a v3 meta file.
[[nodiscard]] bool IsColumnSnapshotDir(const std::string& path);

/// An opened v3 snapshot. The meta file is read and CRC-verified eagerly;
/// kind files are mapped and verified lazily, on the first read touching
/// that kind — the laziness *is* the product guarantee (a figure's query
/// maps only its own kinds) so it is not an optimisation to remove.
/// Thread-safe for concurrent reads; lazy opens are mutex-serialised.
class ColumnSnapshot {
 public:
  /// Parse + checksum <dir>/snapshot.bsmkmeta. nullptr + *error on failure
  /// (bad magic/version/CRC, schema drift, malformed section table).
  static std::shared_ptr<const ColumnSnapshot> Open(const std::string& dir,
                                                    std::string* error);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const DatasetWindows& windows() const { return windows_; }
  [[nodiscard]] const std::vector<HomeInfo>& homes() const { return homes_; }

  [[nodiscard]] std::uint64_t rows_of_kind(std::size_t kind) const {
    return kinds_[kind].meta.rows;
  }
  [[nodiscard]] std::uint64_t total_rows() const { return total_rows_; }
  [[nodiscard]] std::size_t stripes_of_kind(std::size_t kind) const {
    return kinds_[kind].meta.stripes.size();
  }

  /// Map + frame/CRC-verify kind's column file. First call per kind does
  /// the work; later calls are a fence check. Throws std::runtime_error
  /// ("snapshot: corrupt ...") on any mismatch with the meta table.
  void ensure_kind_open(std::size_t kind) const;

  /// Zero-copy view of one stripe of kind T (maps the kind file on first
  /// use). The view borrows the mapping: valid while this object lives.
  template <typename T>
  [[nodiscard]] TableView<T> stripe(std::size_t stripe_index) const {
    constexpr std::size_t kKind = kRecordIndexOf<T>;
    ensure_kind_open(kKind);
    const KindState& ks = kinds_[kKind];
    const ColumnStripeMeta& sm = ks.meta.stripes[stripe_index];
    std::array<const char*, TableView<T>::kNumFields> bodies{};
    for (std::size_t f = 0; f < bodies.size(); ++f) {
      bodies[f] = ks.map.data() + sm.sections[f].body_offset;
    }
    return TableView<T>(bodies, sm.rows);
  }

  /// Stream one stripe's rows in canonical order (rows materialised).
  template <typename T>
  void for_each_row_in_stripe(std::size_t stripe_index,
                              const std::function<void(const T&)>& fn) const {
    const TableView<T> view = stripe<T>(stripe_index);
    T row{};
    for (std::uint64_t i = 0; i < view.rows(); ++i) {
      view.row(i, &row);
      fn(row);
    }
  }

  /// Stream every row of kind T. Zero-row kinds touch no file at all.
  template <typename T>
  void for_each_row(const std::function<void(const T&)>& fn) const {
    constexpr std::size_t kKind = kRecordIndexOf<T>;
    if (kinds_[kKind].meta.rows == 0) return;
    for (std::size_t s = 0; s < stripes_of_kind(kKind); ++s) {
      for_each_row_in_stripe<T>(s, fn);
    }
  }

 private:
  ColumnSnapshot() = default;

  struct KindState {
    ColumnKindMeta meta;
    mutable core::MappedFile map;
    mutable std::atomic<bool> opened{false};
  };

  std::string dir_;
  DatasetWindows windows_;
  std::vector<HomeInfo> homes_;
  std::uint64_t total_rows_{0};
  std::array<KindState, kRecordKinds> kinds_;
  mutable std::mutex open_mu_;
};

/// Open a v3 snapshot as a column-backed DataRepository: windows and homes
/// registered, every for_each_row routed through the columnar reader.
std::unique_ptr<DataRepository> OpenColumnSnapshot(const std::string& dir,
                                                   std::string* error);

}  // namespace bismark::collect
