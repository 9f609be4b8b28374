// Zero-copy typed views over columnar snapshot sections (DESIGN §14).
//
// A BSMKSNAP v3 snapshot stores each data set as one file of per-field
// column sections: fixed-width fields as raw little-endian values packed
// contiguously, strings as a u32 cumulative-end-offset array followed by
// one concatenated blob. The view types here sit directly on those mapped
// bytes — no decode pass, no row materialisation unless asked for. Values
// are laid out by FieldCodec<V> (core/binio.h, collect/binio.h), the codec
// the spill rows and BinWriter use too, so the row and columnar formats
// cannot drift apart: a section's encoding tag is FieldCodec<V>::kWidth.
//
//   ColumnView<V>    — typed random access over one fixed-width column.
//   StringColumnView — string_view access over an offsets+blob column.
//   TableView<T>     — all of a stripe's columns; row(i) materialises a
//                      full record, column<I>() is the zero-copy path.
//
// Invariants the reader verifies before constructing a view (so operator[]
// can skip bounds arithmetic): fixed sections hold exactly rows * kWidth
// bytes; string sections hold exactly 4 * rows offset bytes plus a blob
// whose length equals the final offset, with offsets non-decreasing
// (enforced by construction at write time and by CRC32C at read time).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "collect/binio.h"
#include "collect/schema.h"

namespace bismark::collect {

/// On-disk section encoding tag of member type V: its fixed width in
/// bytes, or 0 for the string offsets+blob layout.
template <typename V>
inline constexpr std::uint32_t kColumnEncoding = FieldCodec<V>::kWidth;

/// Typed random access over one fixed-width column body.
template <typename V>
class ColumnView {
 public:
  ColumnView() = default;
  ColumnView(const char* body, std::uint64_t rows) : body_(body), rows_(rows) {}

  [[nodiscard]] std::uint64_t size() const { return rows_; }
  [[nodiscard]] V operator[](std::uint64_t i) const {
    return FieldCodec<V>::Load(body_ + i * FieldCodec<V>::kWidth);
  }

 private:
  const char* body_{nullptr};
  std::uint64_t rows_{0};
};

/// Zero-copy access over a string column: `rows` u32 cumulative end
/// offsets, then the concatenated blob. operator[] returns a view into the
/// mapped blob (valid while the snapshot stays open), so empty strings,
/// embedded NULs and arbitrary UTF-8 all round-trip byte-exactly.
class StringColumnView {
 public:
  StringColumnView() = default;
  StringColumnView(const char* body, std::uint64_t rows)
      : offsets_(body), blob_(body + rows * 4), rows_(rows) {}

  [[nodiscard]] std::uint64_t size() const { return rows_; }
  [[nodiscard]] std::string_view operator[](std::uint64_t i) const {
    const std::uint32_t begin = i == 0 ? 0 : end_offset(i - 1);
    const std::uint32_t end = end_offset(i);
    return {blob_ + begin, end - begin};
  }

 private:
  [[nodiscard]] std::uint32_t end_offset(std::uint64_t i) const {
    return LoadLe<std::uint32_t>(offsets_ + 4 * i);
  }

  const char* offsets_{nullptr};
  const char* blob_{nullptr};
  std::uint64_t rows_{0};
};

namespace coldetail {

template <typename V>
struct ViewFor {
  using type = ColumnView<V>;
};
template <>
struct ViewFor<std::string> {
  using type = StringColumnView;
};

}  // namespace coldetail

/// All the columns of one stripe of kind T, in Schema<T>::Fields() order.
/// row(i) materialises a full record (strings copied); column<I>() hands
/// back the zero-copy per-field view the summarizers scan.
template <typename T>
class TableView {
 public:
  static constexpr std::size_t kNumFields = std::tuple_size_v<decltype(Schema<T>::Fields())>;

  TableView() = default;
  /// bodies[f] points at the (verified) section body of field f.
  TableView(const std::array<const char*, kNumFields>& bodies, std::uint64_t rows)
      : bodies_(bodies), rows_(rows) {}

  [[nodiscard]] std::uint64_t rows() const { return rows_; }

  /// Member type of field I.
  template <std::size_t I>
  using MemberAt = std::remove_cvref_t<decltype(std::declval<const T&>().*(
      std::get<I>(Schema<T>::Fields()).member))>;

  /// Zero-copy view of field I (StringColumnView for string fields).
  template <std::size_t I>
  [[nodiscard]] auto column() const {
    return typename coldetail::ViewFor<MemberAt<I>>::type(bodies_[I], rows_);
  }

  /// Materialise row i into *out (strings copied out of the blob).
  void row(std::uint64_t i, T* out) const {
    assign_all(i, *out, std::make_index_sequence<kNumFields>{});
  }

 private:
  template <std::size_t I>
  void assign_one(std::uint64_t i, T& out) const {
    using M = MemberAt<I>;
    const auto view = column<I>();
    if constexpr (std::is_same_v<M, std::string>) {
      out.*(std::get<I>(Schema<T>::Fields()).member) = std::string(view[i]);
    } else {
      out.*(std::get<I>(Schema<T>::Fields()).member) = view[i];
    }
  }

  template <std::size_t... Is>
  void assign_all(std::uint64_t i, T& out, std::index_sequence<Is...>) const {
    (assign_one<Is>(i, out), ...);
  }

  std::array<const char*, kNumFields> bodies_{};
  std::uint64_t rows_{0};
};

/// Per-kind array of field encodings (kColumnEncoding of each member), the
/// table both the writer stamps into section headers and the reader
/// validates against.
template <typename T>
[[nodiscard]] constexpr std::array<std::uint32_t, TableView<T>::kNumFields> ColumnEncodings() {
  return std::apply(
      [](const auto&... field) {
        return std::array<std::uint32_t, TableView<T>::kNumFields>{
            kColumnEncoding<std::remove_cvref_t<decltype(std::declval<const T&>().*(
                field.member))>>...};
      },
      Schema<T>::Fields());
}

}  // namespace bismark::collect
