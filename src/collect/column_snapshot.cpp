#include "collect/column_snapshot.h"

#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "collect/binio.h"
#include "collect/column_writer.h"
#include "collect/frame.h"
#include "collect/kind_pipes.h"
#include "core/crc32c.h"

namespace bismark::collect {

namespace {

[[noreturn]] void Throw(const std::string& why) { throw std::runtime_error("snapshot: " + why); }

/// Put `from`'s bytes at `to` without writing them again: a hard link when
/// the filesystem grants one, else a fsynced copy. Either way through a
/// temporary renamed into place.
void LinkOrCopy(const std::string& from, const std::string& to) {
  const std::string tmp = to + kTempSuffix;
  std::filesystem::remove(tmp);
  std::string error;
  if (!core::Io::Active().link(from, tmp, &error)) {
    core::MappedFile in;
    if (!in.open(from, &error)) Throw(error);
    core::CheckedFile out;
    if (!OpenTempFile(out, to) || !out.write(in.data(), in.size()) || !out.sync() ||
        !out.close()) {
      Throw(out.error());
    }
  }
  CommitTempFile(to);
}

}  // namespace

bool OpenTempFile(core::CheckedFile& file, const std::string& path) {
  const std::string tmp = path + kTempSuffix;
  std::error_code ec;
  std::filesystem::remove(tmp, ec);
  return file.open(tmp);
}

void CommitTempFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(path + kTempSuffix, path, ec);
  if (ec) Throw("cannot rename " + path + kTempSuffix + ": " + ec.message());
}

void CheckEveryRowWritten(const std::array<ColumnKindMeta, kRecordKinds>& kinds) {
  for (const ColumnKindMeta& km : kinds) {
    std::uint64_t written = 0;
    for (const ColumnStripeMeta& sm : km.stripes) written += sm.rows;
    if (written != km.rows) Throw(km.file + ": fewer rows streamed than counted");
  }
}

void WriteColumnMeta(const std::string& dir, const DataRepository& repo,
                     const std::array<ColumnKindMeta, kRecordKinds>& kinds) {
  const std::string path = dir + "/" + kColumnMetaFile;
  core::CheckedFile file;
  if (!OpenTempFile(file, path)) Throw(file.error());
  // Streamed in 64 KiB pieces with a running CRC: the home roster alone
  // is megabytes at fleet scale.
  BinWriter w;
  std::uint32_t crc = 0;
  const auto drain = [&](std::size_t above) {
    if (w.size() < above) return;
    crc = core::Crc32c(w.buffer().data(), w.size(), crc);
    file.write(w.buffer());
    w.clear();
  };
  w.raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.u32(kColumnSnapshotVersion);
  w.value(repo.windows());
  w.u32(static_cast<std::uint32_t>(repo.homes().size()));
  for (const HomeInfo& home : repo.homes()) {
    EncodeHome(w, home);
    drain(64 * 1024);
  }
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
      drain(64 * 1024);
    }
  });
  drain(0);
  w.u32(crc);
  if (!file.write(w.buffer()) || !file.sync() || !file.close()) Throw(file.error());
  CommitTempFile(path);
}

bool SaveColumnSnapshot(const DataRepository& repo, const std::string& dir,
                        std::string* error, std::size_t workers) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  try {
    if (ec) Throw("cannot create " + dir + ": " + ec.message());
    std::array<ColumnKindMeta, kRecordKinds> kinds;
    // Column-backed (a spilled repository compacts here if no read has):
    // the kind files exist, so link them. Resident: one pipe per non-empty
    // kind streams into its stripe encoder, which owns the kind's file, so
    // output bytes are identical at any worker count.
    const ColumnSnapshot* columns = repo.columns();
    const bool in_place = columns != nullptr && fs::equivalent(columns->dir(), dir);
    std::string io_error;
    if (!in_place) {
      // Meta last, so a directory with a valid meta is complete: the old
      // meta goes (durably) before any kind file is replaced.
      fs::remove(dir + "/" + kColumnMetaFile);
      if (!core::Io::Active().sync_dir(dir, &io_error)) Throw(io_error);
    }
    if (columns != nullptr) {
      for (std::size_t kind = 0; kind < kRecordKinds; ++kind) {
        kinds[kind] = columns->kind_meta(kind);
        const std::string& file = kinds[kind].file;
        if (!file.empty() && !in_place) LinkOrCopy(columns->dir() + "/" + file, dir + "/" + file);
      }
    } else {
      KindPipes pipes(repo);
      ForEachRecordType([&](auto tag) {
        using T = typename decltype(tag)::type;
        const std::uint64_t rows = repo.row_count<T>();
        if (rows == 0) return;
        auto writer = std::make_shared<KindColumnWriter<T>>(dir, kinds[kRecordIndexOf<T>], rows);
        pipes.add<T>({[writer](std::span<const T> batch) { writer->add(batch); }});
      });
      pipes.run(workers);
      CheckEveryRowWritten(kinds);
    }
    WriteColumnMeta(dir, repo, kinds);
    if (!core::Io::Active().sync_dir(dir, &io_error)) Throw(io_error);
  } catch (const std::exception& e) {
    const std::string why = e.what();
    if (error != nullptr) *error = why.rfind("snapshot: ", 0) == 0 ? why : "snapshot: " + why;
    return false;
  }
  return true;
}

bool IsColumnSnapshotDir(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_directory(path, ec) &&
         std::filesystem::is_regular_file(path + "/" + kColumnMetaFile, ec);
}

std::shared_ptr<const ColumnSnapshot> ColumnSnapshot::Open(const std::string& dir,
                                                           std::string* error,
                                                           std::vector<HomeInfo>* homes) {
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
    HomeInfo home = DecodeHome(r);
    if (homes != nullptr) homes->push_back(std::move(home));
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
      const Frame want = ColumnFrameOf(sec, f, s, sm.rows);
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
  std::vector<HomeInfo> homes;
  std::shared_ptr<const ColumnSnapshot> snap = ColumnSnapshot::Open(dir, error, &homes);
  if (snap == nullptr) return nullptr;
  auto repo = std::make_unique<DataRepository>(snap->windows());
  for (HomeInfo& home : homes) repo->register_home(std::move(home));
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
