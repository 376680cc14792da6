// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte ranges.
// Used as the integrity footer of every binary artifact the trace subsystem
// writes (CFIRTRC2 / CFIRCKP / CFIRMAN2 / CFIRSHD2 — see
// docs/trace-format.md "CRC footer"): a truncated or bit-flipped file is
// rejected at open instead of decoding into garbage. The incremental form
// (`seed` is a previous call's return value) lets callers checksum a file
// in chunks without holding it in memory.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cfir::util {

/// CRC of `data[0, n)` continued from `seed` (0 starts a fresh checksum).
/// Matches zlib's crc32(): crc32(crc32(0, a), b) == crc32(0, a || b).
[[nodiscard]] uint32_t crc32(const void* data, size_t n, uint32_t seed = 0);

}  // namespace cfir::util
