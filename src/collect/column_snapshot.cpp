#include "collect/column_snapshot.h"

#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "collect/binio.h"
#include "collect/frame.h"
#include "collect/kind_pipes.h"
#include "core/crc32c.h"

namespace bismark::collect {

namespace {

[[noreturn]] void Throw(const std::string& why) { throw std::runtime_error("snapshot: " + why); }

/// The frame of field `field`'s section in stripe `stripe`, as the meta
/// table describes it.
Frame FrameOf(const ColumnSectionMeta& sec, std::size_t field, std::size_t stripe,
              std::uint64_t rows) {
  return Frame{kColumnSectionMagic,
               {static_cast<std::uint32_t>(field), static_cast<std::uint32_t>(stripe),
                sec.encoding},
               rows,
               sec.body_bytes,
               sec.crc,
               kColumnSectionEndMagic};
}

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
      const Frame frame = FrameOf(sec, f, stripe_index, rows);
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
    if (!file.ok()) Throw(file.error());
    return sm;
  }
};

/// Writes kind T's `rows` rows, batch by batch, into <dir>/<kind>.bsmkcol:
/// the snapshot writer's sink on the kind's pipe. The batch that brings the
/// last row also writes the last stripe, syncs and closes the file and
/// frees the stripe buffers. Throws std::runtime_error on any I/O failure
/// or when the stream holds more rows than the repository counted.
template <typename T>
class KindColumnWriter {
 public:
  KindColumnWriter(const std::string& dir, ColumnKindMeta& meta, std::uint64_t rows)
      : meta_(meta) {
    meta_.rows = rows;
    meta_.file = std::string(Schema<T>::kKindName) + kColumnFileSuffix;
    if (!file_.open(dir + "/" + meta_.file)) Throw(file_.error());
    std::string header;
    AppendLe(header, kColumnFileMagic);
    AppendLe(header, static_cast<std::uint32_t>(kRecordIndexOf<T>));
    AppendLe(header, static_cast<std::uint32_t>(TableView<T>::kNumFields));
    AppendLe(header, std::uint32_t{0});
    file_.write(header);
    offset_ = header.size();
  }

  void add(std::span<const T> rows) {
    if (seen_ + rows.size() > meta_.rows) {
      Throw(std::string(Schema<T>::kKindName) + ": more rows streamed than counted");
    }
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
    if (!file_.sync() || !file_.close()) Throw(file_.error());
  }

 private:
  ColumnKindMeta& meta_;
  core::CheckedFile file_;
  std::uint64_t offset_{0};
  std::uint64_t seen_{0};
  std::unique_ptr<StripeBuilder<T>> builder_ = std::make_unique<StripeBuilder<T>>();
};

}  // namespace

bool SaveColumnSnapshot(const DataRepository& repo, const std::string& dir,
                        std::string* error, std::size_t workers) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why.rfind("snapshot: ", 0) == 0 ? why : "snapshot: " + why;
    return false;
  };
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return fail("cannot create " + dir + ": " + ec.message());

  // One pipe per non-empty kind: the kind's merge or scan streams into its
  // stripe encoder, which owns the kind's file, so output bytes are
  // identical at any worker count.
  std::array<ColumnKindMeta, kRecordKinds> kinds;
  try {
    KindPipes pipes(repo);
    ForEachRecordType([&](auto tag) {
      using T = typename decltype(tag)::type;
      const std::uint64_t rows = repo.row_count<T>();
      if (rows == 0) return;
      auto writer = std::make_shared<KindColumnWriter<T>>(dir, kinds[kRecordIndexOf<T>], rows);
      pipes.add<T>({[writer](std::span<const T> batch) { writer->add(batch); }});
    });
    pipes.run(workers);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  for (const ColumnKindMeta& km : kinds) {
    std::uint64_t written = 0;
    for (const ColumnStripeMeta& sm : km.stripes) written += sm.rows;
    if (written != km.rows) return fail(km.file + ": fewer rows streamed than counted");
  }

  BinWriter w;
  w.raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.u32(kColumnSnapshotVersion);
  w.value(repo.windows());
  w.u32(static_cast<std::uint32_t>(repo.homes().size()));
  for (const HomeInfo& home : repo.homes()) EncodeHome(w, home);
  w.u32(static_cast<std::uint32_t>(kRecordKinds));
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    w.str(Schema<T>::kKindName);
    constexpr std::uint32_t kFields = std::tuple_size_v<decltype(Schema<T>::Fields())>;
    w.u32(kFields);
    std::apply([&w](const auto&... field) { (w.str(field.name), ...); }, Schema<T>::Fields());
    const ColumnKindMeta& km = kinds[kRecordIndexOf<T>];
    w.u64(km.rows);
    w.str(km.file);
    w.u32(static_cast<std::uint32_t>(km.stripes.size()));
    for (const ColumnStripeMeta& sm : km.stripes) {
      w.u64(sm.rows);
      for (const ColumnSectionMeta& sec : sm.sections) {
        w.u64(sec.body_offset);
        w.u64(sec.body_bytes);
        w.u32(sec.crc);
        w.u32(sec.encoding);
      }
    }
  });
  const std::uint32_t crc = core::Crc32c(w.buffer().data(), w.buffer().size());

  // Meta last, fsynced: a directory with a valid meta file is complete.
  core::CheckedFile file;
  if (!file.open(dir + "/" + kColumnMetaFile)) return fail(file.error());
  file.write(w.buffer());
  std::string trailer;
  AppendLe(trailer, crc);
  file.write(trailer);
  if (!file.sync() || !file.close()) return fail(file.error());
  return true;
}

bool IsColumnSnapshotDir(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_directory(path, ec) &&
         std::filesystem::is_regular_file(path + "/" + kColumnMetaFile, ec);
}

std::shared_ptr<const ColumnSnapshot> ColumnSnapshot::Open(const std::string& dir,
                                                           std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = "snapshot: " + why;
    return std::shared_ptr<const ColumnSnapshot>();
  };

  core::MappedFile meta;
  std::string io_error;
  if (!meta.open(dir + "/" + kColumnMetaFile, &io_error)) return fail(io_error);
  const char* data = meta.data();
  const std::size_t size = meta.size();

  if (size < sizeof(kSnapshotMagic) ||
      std::memcmp(data, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return fail("bad magic");
  }
  constexpr std::size_t kHeaderBytes = sizeof(kSnapshotMagic) + sizeof(std::uint32_t);
  if (size < kHeaderBytes + sizeof(std::uint32_t)) return fail("truncated meta file");
  const std::uint32_t version = LoadLe<std::uint32_t>(data + sizeof(kSnapshotMagic));
  if (version != kColumnSnapshotVersion) {
    return fail("unsupported version " + std::to_string(version) + " (want " +
                std::to_string(kColumnSnapshotVersion) + ")");
  }
  const std::size_t body_bytes = size - sizeof(std::uint32_t);
  const std::uint32_t stored_crc = LoadLe<std::uint32_t>(data + body_bytes);
  if (stored_crc != core::Crc32c(data, body_bytes)) {
    return fail("meta CRC32C mismatch (snapshot corrupted or truncated)");
  }

  std::shared_ptr<ColumnSnapshot> snap(new ColumnSnapshot());
  snap->dir_ = dir;

  BinReader r(data, body_bytes);
  (void)r.raw(kHeaderBytes);  // magic + version, checked above
  r.value(snap->windows_);
  const std::uint32_t home_count = r.u32();
  for (std::uint32_t i = 0; i < home_count && !r.failed(); ++i) {
    snap->homes_.push_back(DecodeHome(r));
  }

  const std::uint32_t kind_count = r.u32();
  if (r.failed() || kind_count != kRecordKinds) {
    return fail("kind count mismatch: snapshot has " + std::to_string(kind_count) +
                ", build has " + std::to_string(kRecordKinds));
  }

  bool ok = true;
  std::string why;
  const auto bad = [&ok, &why](const std::string& reason) {
    if (ok) {
      ok = false;
      why = reason;
    }
  };
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    if (!ok || r.failed()) return;
    const std::string kind = r.str();
    if (kind != Schema<T>::kKindName) {
      bad("kind name mismatch: snapshot has '" + kind + "', build has '" +
          Schema<T>::kKindName + "'");
      return;
    }
    constexpr std::uint32_t kFields = std::tuple_size_v<decltype(Schema<T>::Fields())>;
    if (r.u32() != kFields) {
      bad(std::string("field count mismatch for ") + Schema<T>::kKindName);
      return;
    }
    std::apply(
        [&](const auto&... field) {
          const auto check = [&](const char* want) {
            if (!ok) return;
            if (r.str() != want) {
              bad(std::string("field name mismatch for ") + Schema<T>::kKindName);
            }
          };
          (check(field.name), ...);
        },
        Schema<T>::Fields());
    if (!ok) return;

    KindState& ks = snap->kinds_[kRecordIndexOf<T>];
    ks.meta.rows = r.u64();
    ks.meta.file = r.str();
    const std::uint32_t stripe_count = r.u32();
    const auto encodings = ColumnEncodings<T>();
    std::uint64_t rows_seen = 0;
    for (std::uint32_t s = 0; s < stripe_count && !r.failed() && ok; ++s) {
      ColumnStripeMeta sm;
      sm.rows = r.u64();
      rows_seen += sm.rows;
      for (std::uint32_t f = 0; f < kFields && !r.failed(); ++f) {
        ColumnSectionMeta sec;
        sec.body_offset = r.u64();
        sec.body_bytes = r.u64();
        sec.crc = r.u32();
        sec.encoding = r.u32();
        if (sec.encoding != encodings[f]) {
          bad(std::string("column encoding mismatch for ") + Schema<T>::kKindName);
          break;
        }
        const std::uint64_t want = sec.encoding == 0
                                       ? 4 * sm.rows  // offsets; blob length is free
                                       : sm.rows * sec.encoding;
        if (sec.encoding != 0 ? sec.body_bytes != want : sec.body_bytes < want) {
          bad(std::string("column size mismatch for ") + Schema<T>::kKindName);
          break;
        }
        sm.sections.push_back(sec);
      }
      ks.meta.stripes.push_back(std::move(sm));
    }
    if (ok && rows_seen != ks.meta.rows) {
      bad(std::string("stripe row total mismatch for ") + Schema<T>::kKindName);
    }
    if (ok && ks.meta.rows > 0 && ks.meta.file.empty()) {
      bad(std::string("missing column file name for ") + Schema<T>::kKindName);
    }
    snap->total_rows_ += ks.meta.rows;
  });

  if (!ok) return fail(why);
  if (r.failed()) return fail("truncated meta file");
  if (!r.at_end()) return fail("trailing bytes in meta file");
  return snap;
}

void ColumnSnapshot::ensure_kind_open(std::size_t kind) const {
  const KindState& ks = kinds_[kind];
  if (ks.opened.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(open_mu_);
  if (ks.opened.load(std::memory_order_relaxed)) return;

  const std::string path = dir_ + "/" + ks.meta.file;
  const auto corrupt = [&path](std::size_t stripe, std::size_t field, const std::string& why) {
    Throw("corrupt " + path + " stripe " + std::to_string(stripe) + " field " +
          std::to_string(field) + ": " + why);
  };

  std::string io_error;
  if (!ks.map.open(path, &io_error)) Throw(io_error);
  const char* data = ks.map.data();
  const std::size_t size = ks.map.size();

  if (size < kColumnFileHeaderBytes) Throw("corrupt " + path + ": truncated file header");
  if (LoadLe<std::uint32_t>(data) != kColumnFileMagic) {
    Throw("corrupt " + path + ": bad file magic");
  }
  if (LoadLe<std::uint32_t>(data + 4) != kind) Throw("corrupt " + path + ": kind index mismatch");
  const std::uint64_t field_count = LoadLe<std::uint32_t>(data + 8);

  std::uint64_t end = kColumnFileHeaderBytes;
  std::string why;
  for (std::size_t s = 0; s < ks.meta.stripes.size(); ++s) {
    const ColumnStripeMeta& sm = ks.meta.stripes[s];
    if (sm.sections.size() != field_count) corrupt(s, 0, "field count mismatch");
    for (std::size_t f = 0; f < sm.sections.size(); ++f) {
      const ColumnSectionMeta& sec = sm.sections[f];
      if (sec.body_offset < kColumnFileHeaderBytes + kFrameHeaderBytes ||
          sec.body_offset + sec.body_bytes + kFrameFooterBytes > size) {
        corrupt(s, f, "section out of bounds (truncated file?)");
      }
      const Frame want = FrameOf(sec, f, s, sm.rows);
      const char* body = data + sec.body_offset;
      if (!CheckFrameHeader(body - kFrameHeaderBytes, want, &why) ||
          !CheckFrameFooter(body + sec.body_bytes, want, &why) ||
          !CheckFrameCrc(core::Crc32c(body, sec.body_bytes), want, &why)) {
        corrupt(s, f, why);
      }
      if (sec.encoding == 0 && sm.rows > 0) {
        // String section: the final cumulative offset must equal the blob
        // length, or views would run off the mapped bytes.
        const std::uint64_t blob_bytes = sec.body_bytes - 4 * sm.rows;
        const std::uint64_t last = LoadLe<std::uint32_t>(body + 4 * (sm.rows - 1));
        if (last != blob_bytes) corrupt(s, f, "string offsets inconsistent with blob");
      }
      std::uint64_t section_end = sec.body_offset + sec.body_bytes + kFrameFooterBytes;
      section_end += (8 - (section_end % 8)) % 8;
      if (section_end > end) end = section_end;
    }
  }
  if (end != size) Throw("corrupt " + path + ": trailing bytes past last section");

  ks.opened.store(true, std::memory_order_release);
}

std::unique_ptr<DataRepository> OpenColumnSnapshot(const std::string& dir,
                                                   std::string* error) {
  std::shared_ptr<const ColumnSnapshot> snap = ColumnSnapshot::Open(dir, error);
  if (snap == nullptr) return nullptr;
  auto repo = std::make_unique<DataRepository>(snap->windows());
  for (const HomeInfo& home : snap->homes()) repo->register_home(home);
  repo->attach_columns(std::move(snap));
  return repo;
}

// --- repository streaming seam ----------------------------------------------

template <typename T>
void ForEachColumnRow(const ColumnSnapshot& snap, const std::function<void(const T&)>& fn) {
  snap.for_each_row<T>(fn);
}

std::size_t ColumnRowCount(const ColumnSnapshot& snap, std::size_t kind) {
  return static_cast<std::size_t>(snap.rows_of_kind(kind));
}

std::size_t ColumnTotalRows(const ColumnSnapshot& snap) {
  return static_cast<std::size_t>(snap.total_rows());
}

#define BISMARK_COLUMN_INSTANTIATE(T) \
  template void ForEachColumnRow<T>(const ColumnSnapshot&, const std::function<void(const T&)>&);

BISMARK_COLUMN_INSTANTIATE(HeartbeatRun)
BISMARK_COLUMN_INSTANTIATE(UptimeRecord)
BISMARK_COLUMN_INSTANTIATE(CapacityRecord)
BISMARK_COLUMN_INSTANTIATE(DeviceCountRecord)
BISMARK_COLUMN_INSTANTIATE(WifiScanRecord)
BISMARK_COLUMN_INSTANTIATE(TrafficFlowRecord)
BISMARK_COLUMN_INSTANTIATE(ThroughputMinute)
BISMARK_COLUMN_INSTANTIATE(DnsLogRecord)
BISMARK_COLUMN_INSTANTIATE(DeviceTrafficRecord)
BISMARK_COLUMN_INSTANTIATE(CgnEventRecord)

#undef BISMARK_COLUMN_INSTANTIATE

}  // namespace bismark::collect
