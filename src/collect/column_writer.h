// The v3 column file writer (DESIGN §14): one kind's stripe encoder, the
// sink that both the compaction pass (collect/kind_pipes.h) and
// SaveColumnSnapshot hang on the kind's pipe, plus the meta writer they
// share. Layout and framing are documented in collect/column_snapshot.h.
//
// No file is ever rewritten in place: a kind file or meta is written under
// "<name>.tmp", fsynced and renamed over its final name, so a snapshot
// that hard-links an earlier file keeps its bytes.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>

#include "collect/column_snapshot.h"
#include "collect/frame.h"
#include "core/crc32c.h"
#include "core/io.h"

namespace bismark::collect {

inline constexpr char kTempSuffix[] = ".tmp";

/// The frame of field `field`'s section in stripe `stripe`, as the meta
/// table describes it.
inline Frame ColumnFrameOf(const ColumnSectionMeta& sec, std::size_t field, std::size_t stripe,
                           std::uint64_t rows) {
  return Frame{kColumnSectionMagic,
               {static_cast<std::uint32_t>(field), static_cast<std::uint32_t>(stripe),
                sec.encoding},
               rows,
               sec.body_bytes,
               sec.crc,
               kColumnSectionEndMagic};
}

/// Open `path`.tmp for writing. A leftover temporary is unlinked first:
/// an interrupted link may have left it sharing another file's bytes.
bool OpenTempFile(core::CheckedFile& file, const std::string& path);
/// Rename `path`.tmp over `path` (the last step of every column file and
/// meta write). Throws std::runtime_error on failure.
void CommitTempFile(const std::string& path);

/// Throws unless every kind's stripes hold the rows it counted: a stream
/// that ended early leaves its writer unfinished.
void CheckEveryRowWritten(const std::array<ColumnKindMeta, kRecordKinds>& kinds);

/// Write <dir>/snapshot.bsmkmeta for `repo`'s windows and homes and the
/// kind table `kinds`, through a fsynced temporary renamed into place.
/// The caller fsyncs `dir` afterwards. Throws std::runtime_error.
void WriteColumnMeta(const std::string& dir, const DataRepository& repo,
                     const std::array<ColumnKindMeta, kRecordKinds>& kinds);

/// One stripe's worth of buffered columns for kind T. `primary` holds the
/// raw fixed-width values (or the u32 cumulative end offsets for string
/// fields, whose payloads accumulate in `blob`). This is the writer's only
/// O(data) state, bounded by the stripe limits.
template <typename T>
struct StripeBuilder {
  static constexpr std::size_t kNumFields = TableView<T>::kNumFields;

  std::array<std::string, kNumFields> primary;
  std::array<std::string, kNumFields> blob;
  std::uint64_t rows{0};
  std::size_t bytes{0};

  /// Size every fixed-width column (and string offset column) for a
  /// stripe of `stripe_rows` rows up front: the buffers are cleared, not
  /// freed, between stripes, so they are allocated once per kind.
  void reserve(std::uint64_t stripe_rows) {
    const auto encodings = ColumnEncodings<T>();
    for (std::size_t f = 0; f < kNumFields; ++f) {
      primary[f].reserve(stripe_rows * (encodings[f] == 0 ? 4 : encodings[f]));
    }
  }

  void add(const T& row) {
    std::size_t f = 0;
    std::apply([&](const auto&... field) { (add_field(f++, row.*(field.member)), ...); },
               Schema<T>::Fields());
    ++rows;
  }

  template <typename V>
  void add_field(std::size_t f, const V& v) {
    if constexpr (std::is_same_v<V, std::string>) {
      blob[f].append(v);
      AppendLe(primary[f], static_cast<std::uint32_t>(blob[f].size()));
      bytes += v.size() + 4;
    } else {
      FieldCodec<V>::Store(primary[f], v);
      bytes += FieldCodec<V>::kWidth;
    }
  }

  /// Frame and append every buffered column as one stripe of sections,
  /// then reset. `offset` tracks the file write position.
  ColumnStripeMeta flush_to(core::CheckedFile& file, std::uint64_t& offset,
                            std::size_t stripe_index) {
    ColumnStripeMeta sm;
    sm.rows = rows;
    const auto encodings = ColumnEncodings<T>();
    for (std::size_t f = 0; f < kNumFields; ++f) {
      ColumnSectionMeta sec;
      sec.body_offset = offset + kFrameHeaderBytes;
      sec.body_bytes = primary[f].size() + blob[f].size();
      sec.encoding = encodings[f];
      sec.crc = core::Crc32c(blob[f].data(), blob[f].size(),
                             core::Crc32c(primary[f].data(), primary[f].size()));
      const Frame frame = ColumnFrameOf(sec, f, stripe_index, rows);
      const auto header = FrameHeader(frame);
      const auto footer = FrameFooter(frame);
      file.write(header.data(), header.size());
      file.write(primary[f]);
      file.write(blob[f]);
      file.write(footer.data(), footer.size());
      offset = sec.body_offset + sec.body_bytes + footer.size();

      const std::size_t pad = (8 - (offset % 8)) % 8;
      if (pad != 0) {
        static const char kZeros[8] = {};
        file.write(kZeros, pad);
        offset += pad;
      }
      primary[f].clear();
      blob[f].clear();
      sm.sections.push_back(sec);
    }
    rows = 0;
    bytes = 0;
    if (!file.ok()) throw std::runtime_error("snapshot: " + file.error());
    return sm;
  }
};

/// Writes kind T's `rows` rows, batch by batch, into <dir>/<kind>.bsmkcol:
/// the stripe encoder sink on the kind's pipe. The first batch opens the
/// file and sizes the stripe buffers (so a kind waiting for its turn holds
/// none); the batch that brings the last row also writes the last stripe,
/// fsyncs the temporary, renames it into place and frees the buffers.
/// Throws std::runtime_error on any I/O failure or when the stream holds
/// more rows than counted.
template <typename T>
class KindColumnWriter {
 public:
  KindColumnWriter(const std::string& dir, ColumnKindMeta& meta, std::uint64_t rows)
      : meta_(meta) {
    meta_ = ColumnKindMeta{};
    meta_.rows = rows;
    meta_.file = std::string(Schema<T>::kKindName) + kColumnFileSuffix;
    path_ = dir + "/" + meta_.file;
  }

  void add(std::span<const T> rows) {
    if (seen_ + rows.size() > meta_.rows) {
      throw std::runtime_error("snapshot: " + std::string(Schema<T>::kKindName) +
                               ": more rows streamed than counted");
    }
    if (seen_ == 0) open();
    for (const T& row : rows) {
      builder_->add(row);
      if (builder_->rows >= kColumnStripeRows || builder_->bytes >= kColumnStripeBytes) {
        meta_.stripes.push_back(builder_->flush_to(file_, offset_, meta_.stripes.size()));
      }
    }
    seen_ += rows.size();
    if (seen_ < meta_.rows) return;
    if (builder_->rows > 0) {
      meta_.stripes.push_back(builder_->flush_to(file_, offset_, meta_.stripes.size()));
    }
    builder_.reset();
    if (!file_.sync() || !file_.close()) fail();
    CommitTempFile(path_);
  }

 private:
  void open() {
    if (!OpenTempFile(file_, path_)) fail();
    std::string header;
    AppendLe(header, kColumnFileMagic);
    AppendLe(header, static_cast<std::uint32_t>(kRecordIndexOf<T>));
    AppendLe(header, static_cast<std::uint32_t>(TableView<T>::kNumFields));
    AppendLe(header, std::uint32_t{0});
    file_.write(header);
    offset_ = header.size();
    builder_ = std::make_unique<StripeBuilder<T>>();
    builder_->reserve(std::min(meta_.rows, kColumnStripeRows));
  }

  [[noreturn]] void fail() const { throw std::runtime_error("snapshot: " + file_.error()); }

  ColumnKindMeta& meta_;
  std::string path_;
  core::CheckedFile file_;
  std::uint64_t offset_{0};
  std::uint64_t seen_{0};
  std::unique_ptr<StripeBuilder<T>> builder_;
};

}  // namespace bismark::collect
