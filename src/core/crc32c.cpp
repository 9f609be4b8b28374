#include "core/crc32c.h"

#include "core/binio.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define BISMARK_CRC32C_X86 1
#endif

namespace bismark::core {

namespace {

// Slice-by-8 tables for the reflected Castagnoli polynomial, built once at
// first use. ~1 GB/s on commodity cores — the fallback, not the fast path.
struct Crc32cTables {
  std::uint32_t t[8][256];

  Crc32cTables() {
    constexpr std::uint32_t kPoly = 0x82F63B78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (int s = 1; s < 8; ++s) {
        crc = (crc >> 8) ^ t[0][crc & 0xffu];
        t[s][i] = crc;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

#if defined(BISMARK_CRC32C_X86)

__attribute__((target("sse4.2"))) std::uint32_t Crc32cHardware(const std::uint8_t* p,
                                                               std::size_t n,
                                                               std::uint32_t crc) {
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  while (n >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, p, 8);
    crc = static_cast<std::uint32_t>(_mm_crc32_u64(crc, word));
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  return crc;
}

bool DetectSse42() { return __builtin_cpu_supports("sse4.2") != 0; }

#endif  // BISMARK_CRC32C_X86

std::uint32_t Crc32cSoftwareRaw(const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
  const auto& t = Tables().t;
  while (n >= 8) {
    crc ^= LoadLe<std::uint32_t>(reinterpret_cast<const char*>(p));
    const std::uint32_t hi = LoadLe<std::uint32_t>(reinterpret_cast<const char*>(p + 4));
    crc = t[7][crc & 0xffu] ^ t[6][(crc >> 8) & 0xffu] ^ t[5][(crc >> 16) & 0xffu] ^
          t[4][crc >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
          t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xffu];
  return crc;
}

}  // namespace

std::uint32_t Crc32cSoftware(const void* data, std::size_t n, std::uint32_t seed) {
  return ~Crc32cSoftwareRaw(static_cast<const std::uint8_t*>(data), n, ~seed);
}

bool Crc32cHardwareActive() {
#if defined(BISMARK_CRC32C_X86)
  static const bool active = DetectSse42();
  return active;
#else
  return false;
#endif
}

std::uint32_t Crc32c(const void* data, std::size_t n, std::uint32_t seed) {
#if defined(BISMARK_CRC32C_X86)
  if (Crc32cHardwareActive()) {
    return ~Crc32cHardware(static_cast<const std::uint8_t*>(data), n, ~seed);
  }
#endif
  return Crc32cSoftware(data, n, seed);
}

}  // namespace bismark::core
