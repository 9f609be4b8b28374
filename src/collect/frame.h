// The section frame of spill segments and column files (DESIGN §12, §14).
//
//   header  u32 magic | u32 tag[0] | u32 tag[1] | u32 tag[2]         16 bytes
//   body    body_bytes bytes
//   footer  u64 rows | u64 body_bytes | u32 CRC32C(body) | u32 end magic
//                                                                    24 bytes
//
// Spill sections are "BSG2" … "END2" with tags (kind, shard, run); column
// sections are "CSC3" … "END3" with tags (field, stripe, encoding). Writers
// take the frame bytes from FrameHeader/FrameFooter and readers check them
// with CheckFrame* against the table entry that locates the section (the
// manifest's SectionRef, the snapshot meta's ColumnSectionMeta), so no two
// formats or readers can disagree about what a valid section is.
#pragma once

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/binio.h"

namespace bismark::collect {

inline constexpr std::uint32_t kSectionMagic = 0x32475342u;           // "BSG2"
inline constexpr std::uint32_t kSectionEndMagic = 0x32444E45u;        // "END2"
inline constexpr std::uint32_t kColumnSectionMagic = 0x33435343u;     // "CSC3"
inline constexpr std::uint32_t kColumnSectionEndMagic = 0x33444E45u;  // "END3"
inline constexpr std::size_t kFrameHeaderBytes = 16;
inline constexpr std::size_t kFrameFooterBytes = 24;

struct Frame {
  std::uint32_t magic{0};
  std::array<std::uint32_t, 3> tags{};
  std::uint64_t rows{0};
  std::uint64_t body_bytes{0};
  std::uint32_t crc{0};
  std::uint32_t end_magic{0};
};

[[nodiscard]] inline std::array<char, kFrameHeaderBytes> FrameHeader(const Frame& f) {
  std::array<char, kFrameHeaderBytes> out{};
  StoreLe(out.data(), f.magic);
  for (std::size_t i = 0; i < f.tags.size(); ++i) StoreLe(out.data() + 4 + 4 * i, f.tags[i]);
  return out;
}

[[nodiscard]] inline std::array<char, kFrameFooterBytes> FrameFooter(const Frame& f) {
  std::array<char, kFrameFooterBytes> out{};
  StoreLe(out.data(), f.rows);
  StoreLe(out.data() + 8, f.body_bytes);
  StoreLe(out.data() + 16, f.crc);
  StoreLe(out.data() + 20, f.end_magic);
  return out;
}

namespace framedetail {
inline std::string Hex(std::uint32_t v) {
  char buf[8];
  const auto end = std::to_chars(buf, buf + sizeof buf, v, 16).ptr;
  return "0x" + std::string(buf, end);
}
}  // namespace framedetail

/// Check the 16 header bytes at p against `want`. False with *why on the
/// first mismatch.
inline bool CheckFrameHeader(const char* p, const Frame& want, std::string* why) {
  if (LoadLe<std::uint32_t>(p) != want.magic) {
    *why = "bad section magic";
    return false;
  }
  for (std::size_t i = 0; i < want.tags.size(); ++i) {
    const std::uint32_t have = LoadLe<std::uint32_t>(p + 4 + 4 * i);
    if (have != want.tags[i]) {
      *why = "section header tag " + std::to_string(i) + " is " + std::to_string(have) +
             ", its table entry says " + std::to_string(want.tags[i]);
      return false;
    }
  }
  return true;
}

/// Check the 24 footer bytes at p against `want`.
inline bool CheckFrameFooter(const char* p, const Frame& want, std::string* why) {
  if (LoadLe<std::uint32_t>(p + 20) != want.end_magic) {
    *why = "bad section end magic";
    return false;
  }
  if (LoadLe<std::uint64_t>(p) != want.rows || LoadLe<std::uint64_t>(p + 8) != want.body_bytes ||
      LoadLe<std::uint32_t>(p + 16) != want.crc) {
    *why = "section footer does not match its table entry";
    return false;
  }
  return true;
}

/// Check the CRC32C computed over a section body against `want`.
inline bool CheckFrameCrc(std::uint32_t computed, const Frame& want, std::string* why) {
  if (computed == want.crc) return true;
  *why = "body CRC32C mismatch (expected " + framedetail::Hex(want.crc) + ", computed " +
         framedetail::Hex(computed) + ")";
  return false;
}

}  // namespace bismark::collect
