// The two CRC32C implementations behind chameleon::crc32c, exposed so the
// tests can check each against the other and against the RFC 3720 vectors.
// Callers use crc32c(), which picks one of these once per process.
#pragma once

#include <cstdint>
#include <span>

namespace chameleon::crc32c_detail {

/// Bytewise 256-entry table: the portable fallback and the test reference.
std::uint32_t table(std::span<const std::uint8_t> data, std::uint32_t seed);

/// True when this CPU runs the SSE4.2 crc32 instruction.
bool hardware_supported();

/// SSE4.2 path; callable only when hardware_supported() (on non-x86 builds
/// it is the table path).
std::uint32_t hardware(std::span<const std::uint8_t> data, std::uint32_t seed);

}  // namespace chameleon::crc32c_detail
