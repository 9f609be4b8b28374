// Little-endian binary codec: the one place the study's on-disk formats
// take their byte-level decisions from (DESIGN §9).
//
//   LoadLe / StoreLe  — an unsigned integer from / to little-endian bytes,
//                       independent of host endianness.
//   FieldCodec<V>     — per value type: kWidth (bytes on disk; 0 for
//                       strings), Load (one value from kWidth bytes) and
//                       Store (append one). Spill rows, column sections
//                       (collect/column_view.h), the snapshot meta, the
//                       manifest, the resume options blob and the GKS1/FLS2
//                       sketch blobs all encode through this one table, so
//                       a type is laid out the same way in every format.
//   BinWriter / BinReader — sequential buffers over FieldCodec. value(v)
//                       writes or reads any type with a codec; strings are
//                       u32-length-prefixed. A short read sets a sticky
//                       failed() flag and yields a zero value.
//
// Integers are stored as their little-endian two's-complement bytes,
// doubles as their IEEE-754 bit pattern in a u64, one-member wrappers
// (TimePoint, Duration, Bytes, BitRate) as their member. Types from outside
// core (record ids, MAC addresses, enums, the data-set windows) add their
// FieldCodec specialisations in collect/binio.h; a value of a type without
// one does not compile in any format.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/intervals.h"
#include "core/time.h"
#include "core/units.h"

namespace bismark {

template <typename U>
[[nodiscard]] inline U LoadLe(const char* p) {
  static_assert(std::is_unsigned_v<U>);
  U v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(static_cast<U>(static_cast<std::uint8_t>(p[i])) << (8 * i));
    }
  }
  return v;
}

template <typename U>
inline void StoreLe(char* out, U v) {
  static_assert(std::is_unsigned_v<U>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }
}

template <typename U>
inline void AppendLe(std::string& out, U v) {
  char bytes[sizeof(U)];
  StoreLe(bytes, v);
  out.append(bytes, sizeof bytes);
}

/// Per-type codec: kWidth, Load(const char*) and Store(std::string&, v).
template <typename V>
struct FieldCodec;

/// A type stored as the little-endian bytes of the same-sized unsigned
/// integer U.
template <typename V, typename U>
struct BitCodec {
  static_assert(sizeof(V) == sizeof(U));
  static constexpr std::uint32_t kWidth = sizeof(U);
  [[nodiscard]] static V Load(const char* p) { return std::bit_cast<V>(LoadLe<U>(p)); }
  static void Store(std::string& out, V v) { AppendLe(out, std::bit_cast<U>(v)); }
};

template <>
struct FieldCodec<bool> {
  static constexpr std::uint32_t kWidth = 1;
  [[nodiscard]] static bool Load(const char* p) { return *p != 0; }
  static void Store(std::string& out, bool v) { out.push_back(v ? 1 : 0); }
};
template <>
struct FieldCodec<std::uint8_t> : BitCodec<std::uint8_t, std::uint8_t> {};
template <>
struct FieldCodec<std::uint16_t> : BitCodec<std::uint16_t, std::uint16_t> {};
template <>
struct FieldCodec<std::uint32_t> : BitCodec<std::uint32_t, std::uint32_t> {};
template <>
struct FieldCodec<int> : BitCodec<int, std::uint32_t> {};
template <>
struct FieldCodec<std::uint64_t> : BitCodec<std::uint64_t, std::uint64_t> {};
template <>
struct FieldCodec<std::int64_t> : BitCodec<std::int64_t, std::uint64_t> {};
template <>
struct FieldCodec<double> : BitCodec<double, std::uint64_t> {};
template <>
struct FieldCodec<TimePoint> : BitCodec<TimePoint, std::uint64_t> {};
template <>
struct FieldCodec<Duration> : BitCodec<Duration, std::uint64_t> {};
template <>
struct FieldCodec<Bytes> : BitCodec<Bytes, std::uint64_t> {};
template <>
struct FieldCodec<BitRate> : BitCodec<BitRate, std::uint64_t> {};

/// start, then end.
template <>
struct FieldCodec<Interval> {
  static constexpr std::uint32_t kWidth = 2 * FieldCodec<TimePoint>::kWidth;
  [[nodiscard]] static Interval Load(const char* p) {
    return {FieldCodec<TimePoint>::Load(p), FieldCodec<TimePoint>::Load(p + 8)};
  }
  static void Store(std::string& out, const Interval& v) {
    FieldCodec<TimePoint>::Store(out, v.start);
    FieldCodec<TimePoint>::Store(out, v.end);
  }
};

/// Strings are not fixed-width: BinWriter/BinReader frame them with a u32
/// length, column sections with an offsets array (collect/column_view.h).
template <>
struct FieldCodec<std::string> {
  static constexpr std::uint32_t kWidth = 0;
};

class BinWriter {
 public:
  template <typename V>
  void value(const V& v) {
    if constexpr (std::is_same_v<V, std::string>) {
      str(v);
    } else {
      FieldCodec<V>::Store(buf_, v);
    }
  }

  void u32(std::uint32_t v) { value(v); }
  void u64(std::uint64_t v) { value(v); }
  void i32(std::int32_t v) { value(v); }
  void i64(std::int64_t v) { value(v); }
  void f64(double v) { value(v); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  void raw(const char* data, std::size_t n) { buf_.append(data, n); }
  /// Overwrite the u32 at byte `at`: a length prefix written before its
  /// payload was encoded.
  void patch_u32(std::size_t at, std::uint32_t v) { StoreLe(buf_.data() + at, v); }

  [[nodiscard]] const std::string& buffer() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

 private:
  std::string buf_;
};

class BinReader {
 public:
  BinReader(const char* data, std::size_t size) : p_(data), end_(data + size) {}

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] bool at_end() const { return p_ == end_; }

  template <typename V>
  [[nodiscard]] V get() {
    if constexpr (std::is_same_v<V, std::string>) {
      return str();
    } else {
      constexpr std::size_t kWidth = FieldCodec<V>::kWidth;
      if (!need(kWidth)) return V{};
      const V v = FieldCodec<V>::Load(p_);
      p_ += kWidth;
      return v;
    }
  }
  template <typename V>
  void value(V& v) {
    v = get<V>();
  }

  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  double f64() { return get<double>(); }
  std::string str() { return std::string(raw(u32())); }
  /// The next n bytes, uninterpreted (empty on a short read).
  std::string_view raw(std::size_t n) {
    if (!need(n)) return {};
    const std::string_view s(p_, n);
    p_ += n;
    return s;
  }

 private:
  bool need(std::size_t n) {
    if (failed_ || static_cast<std::size_t>(end_ - p_) < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const char* p_;
  const char* end_;
  bool failed_{false};
};

}  // namespace bismark
