// Shared little-endian binary codec for record persistence.
//
// One writer/reader pair serves the fleet-scale spill segments
// (collect/spill.h), whose rows derive from the schema layer, and the
// BSMKSNAP meta file (collect/column_snapshot.h). The `value()` overload
// set is the single list of serialisable member types; a record field of a
// new type fails to compile in the spill format until an overload is added
// here.
//
// All integers are encoded little-endian byte-by-byte, independent of host
// endianness. Strings are u32-length-prefixed. Doubles are IEEE-754 bit
// patterns in a u64.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>

#include "collect/schema.h"

namespace bismark::collect {

class BinWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void i32(std::int32_t v) { fixed(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { fixed(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    fixed(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  void raw(const char* data, std::size_t n) { buf_.append(data, n); }

  // Field-value overloads, one per reflected member type.
  void value(bool v) { u8(v ? 1 : 0); }
  void value(int v) { i32(v); }
  void value(std::uint16_t v) { u16(v); }
  void value(std::uint64_t v) { u64(v); }
  void value(double v) { f64(v); }
  void value(const std::string& v) { str(v); }
  void value(HomeId v) { i32(v.value); }
  void value(TimePoint v) { i64(v.ms); }
  void value(Duration v) { i64(v.ms); }
  void value(Bytes v) { i64(v.count); }
  void value(BitRate v) { f64(v.bps); }
  void value(net::FlowId v) { u64(v.value); }
  void value(net::MacAddress v) {
    for (const auto octet : v.octets()) u8(octet);
  }
  void value(net::Protocol v) { u8(static_cast<std::uint8_t>(v)); }
  void value(wireless::Band v) { u8(static_cast<std::uint8_t>(v)); }
  void value(net::VendorClass v) { i32(static_cast<int>(v)); }

  [[nodiscard]] const std::string& buffer() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

 private:
  template <typename U>
  void fixed(U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  std::string buf_;
};

class BinReader {
 public:
  BinReader(const char* data, std::size_t size) : p_(data), end_(data + size) {}

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] bool at_end() const { return p_ == end_; }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(*p_++);
  }
  std::uint16_t u16() { return fixed<std::uint16_t>(); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(fixed<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(fixed<std::uint64_t>()); }
  double f64() {
    const std::uint64_t bits = fixed<std::uint64_t>();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    std::string s(p_, n);
    p_ += n;
    return s;
  }

  void value(bool& v) { v = u8() != 0; }
  void value(int& v) { v = i32(); }
  void value(std::uint16_t& v) { v = u16(); }
  void value(std::uint64_t& v) { v = u64(); }
  void value(double& v) { v = f64(); }
  void value(std::string& v) { v = str(); }
  void value(HomeId& v) { v.value = i32(); }
  void value(TimePoint& v) { v.ms = i64(); }
  void value(Duration& v) { v.ms = i64(); }
  void value(Bytes& v) { v.count = i64(); }
  void value(BitRate& v) { v.bps = f64(); }
  void value(net::MacAddress& v) {
    std::array<std::uint8_t, 6> octets{};
    for (auto& octet : octets) octet = u8();
    v = net::MacAddress(octets);
  }
  void value(net::FlowId& v) { v.value = u64(); }
  void value(net::Protocol& v) { v = static_cast<net::Protocol>(u8()); }
  void value(wireless::Band& v) { v = static_cast<wireless::Band>(u8()); }
  void value(net::VendorClass& v) { v = static_cast<net::VendorClass>(i32()); }

 private:
  template <typename U>
  U fixed() {
    if (!need(sizeof(U))) return 0;
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(static_cast<std::uint8_t>(p_[i])) << (8 * i);
    }
    p_ += sizeof(U);
    return v;
  }
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

/// Encode one row field-by-field in Schema<T>::Fields() order (the row
/// layout both the snapshot body and spill sections use).
template <typename T>
void EncodeRow(BinWriter& w, const T& row) {
  std::apply([&w, &row](const auto&... field) { (w.value(row.*(field.member)), ...); },
             Schema<T>::Fields());
}

template <typename T>
void DecodeRow(BinReader& r, T& row) {
  std::apply([&r, &row](const auto&... field) { (r.value(row.*(field.member)), ...); },
             Schema<T>::Fields());
}

/// Approximate in-memory footprint of one row: the struct itself plus any
/// string payloads. Drives the spill budget accounting, so it only has to
/// be proportionate, not exact.
template <typename T>
[[nodiscard]] std::size_t ApproxRowBytes(const T& row) {
  std::size_t n = sizeof(T);
  std::apply(
      [&](const auto&... field) {
        const auto add = [&](const auto& v) {
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>, std::string>) {
            n += v.size();
          }
        };
        (add(row.*(field.member)), ...);
      },
      Schema<T>::Fields());
  return n;
}

}  // namespace bismark::collect
