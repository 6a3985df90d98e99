#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#include "common/crc32c_paths.hpp"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace chameleon {

namespace crc32c_detail {

std::uint32_t table(std::span<const std::uint8_t> data, std::uint32_t seed) {
  // Lookup table for the reflected polynomial 0x82F63B78, built once.
  static const std::array<std::uint32_t, 256> t = [] {
    std::array<std::uint32_t, 256> entries{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      entries[i] = crc;
    }
    return entries;
  }();
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : data) {
    crc = t[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

bool hardware_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// The SSE4.2 crc32 instruction computes exactly this polynomial. One
// dependent stream of 8-byte words runs at about 8 bytes per 3 cycles,
// which is memory speed for the frame and checkpoint sizes here.
__attribute__((target("sse4.2"))) std::uint32_t hardware(
    std::span<const std::uint8_t> data, std::uint32_t seed) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

#else

bool hardware_supported() { return false; }

std::uint32_t hardware(std::span<const std::uint8_t> data,
                       std::uint32_t seed) {
  return table(data, seed);
}

#endif

}  // namespace crc32c_detail

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  using CrcFn = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);
  static const CrcFn impl = crc32c_detail::hardware_supported()
                                ? &crc32c_detail::hardware
                                : &crc32c_detail::table;
  return impl(data, seed);
}

}  // namespace chameleon
