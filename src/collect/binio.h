// Record-level binary codec (DESIGN §9): the FieldCodec entries for the
// collect layer's value types, and the row codec built on them.
//
// core/binio.h holds the little-endian primitives, BinWriter/BinReader and
// FieldCodec for core's types. This header adds the codecs of the record
// member types that live outside core (HomeId, FlowId, MacAddress and the
// enums) and of DatasetWindows. A record field of a new type fails to
// compile — in the spill rows and the column sections alike — until its
// FieldCodec is added here.
//
// EncodeRow writes a row field by field in Schema<T>::Fields() order; a
// spill section body is a sequence of AppendSpillRow payloads (u32 length,
// then the EncodeRow bytes), so cursors can frame rows without knowing the
// schema.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>

#include "collect/schema.h"
#include "core/binio.h"

namespace bismark {

template <>
struct FieldCodec<collect::HomeId> : BitCodec<collect::HomeId, std::uint32_t> {};
template <>
struct FieldCodec<net::FlowId> : BitCodec<net::FlowId, std::uint64_t> {};
template <>
struct FieldCodec<net::Protocol> : BitCodec<net::Protocol, std::uint8_t> {};
template <>
struct FieldCodec<net::VendorClass> : BitCodec<net::VendorClass, std::uint32_t> {};

/// An int-backed enum stored in one byte.
template <>
struct FieldCodec<wireless::Band> {
  static constexpr std::uint32_t kWidth = 1;
  [[nodiscard]] static wireless::Band Load(const char* p) {
    return static_cast<wireless::Band>(static_cast<std::uint8_t>(*p));
  }
  static void Store(std::string& out, wireless::Band v) {
    out.push_back(static_cast<char>(static_cast<std::uint8_t>(v)));
  }
};

/// The six octets in transmission order.
template <>
struct FieldCodec<net::MacAddress> {
  static constexpr std::uint32_t kWidth = 6;
  [[nodiscard]] static net::MacAddress Load(const char* p) {
    std::array<std::uint8_t, 6> octets{};
    std::memcpy(octets.data(), p, octets.size());
    return net::MacAddress(octets);
  }
  static void Store(std::string& out, net::MacAddress v) {
    const auto octets = v.octets();
    out.append(reinterpret_cast<const char*>(octets.data()), octets.size());
  }
};

/// The six data-set windows in Table 2 order.
template <>
struct FieldCodec<collect::DatasetWindows> {
  using W = collect::DatasetWindows;
  static constexpr std::array<Interval W::*, 6> kMembers{&W::heartbeats, &W::uptime,
                                                         &W::capacity,   &W::devices,
                                                         &W::wifi,       &W::traffic};
  static constexpr std::uint32_t kWidth = kMembers.size() * FieldCodec<Interval>::kWidth;
  [[nodiscard]] static W Load(const char* p) {
    W w;
    for (const auto member : kMembers) {
      w.*member = FieldCodec<Interval>::Load(p);
      p += FieldCodec<Interval>::kWidth;
    }
    return w;
  }
  static void Store(std::string& out, const W& w) {
    for (const auto member : kMembers) FieldCodec<Interval>::Store(out, w.*member);
  }
};

}  // namespace bismark

namespace bismark::collect {

/// Encode one row field by field in Schema<T>::Fields() order.
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

/// Append one spill-section row: a u32 byte length, then EncodeRow.
template <typename T>
void AppendSpillRow(BinWriter& w, const T& row) {
  const std::size_t at = w.size();
  w.u32(0);
  EncodeRow(w, row);
  w.patch_u32(at, static_cast<std::uint32_t>(w.size() - at - 4));
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
