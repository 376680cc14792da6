// Whole-file blob I/O with a CRC-32 integrity footer, shared by every
// binary artifact the trace subsystem writes.
//
// Footer layout (appended after the format's own payload):
//   "CRC1" | u32 crc32 of every preceding byte (util::crc32, seed 0)
//
// Readers verify the footer before any payload byte is decoded, so a
// truncated or bit-flipped file fails loudly (CorruptFileError) instead of
// decoding into garbage. Every format requires the footer: a file without
// one is treated as truncated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/warmable.hpp"

namespace cfir::trace {

inline constexpr char kCrcFooterMagic[4] = {'C', 'R', 'C', '1'};
inline constexpr size_t kCrcFooterBytes = 8;  ///< magic + u32 crc

/// Writes `payload` to `path` followed by the CRC footer.
void write_blob_file(const std::string& path,
                     const std::vector<uint8_t>& payload);

/// Reads `path` and verifies the CRC footer, returning the payload without
/// it. A missing footer or a wrong CRC throws CorruptFileError. `what`
/// names the format in error messages ("Checkpoint", "ShardManifest", ...).
[[nodiscard]] std::vector<uint8_t> read_blob_file(const std::string& path,
                                                  const char* what);

/// Appends the CRC footer to an existing footer-less file — for writers
/// that stream their payload and patch the header afterwards
/// (TraceWriter::finish), where the checksum can only be computed once the
/// bytes are final. Checksums in fixed-size chunks; never buffers the file.
void append_crc_footer(const std::string& path);

/// The length-prefixed string encoding shared by every trace blob format
/// (u32 byte count + bytes): one definition so the manifest and shard
/// codecs cannot drift. get_string rejects lengths over 4 KiB
/// (CorruptFileError naming `what`) — these are short identifiers, and a
/// huge length means garbage bytes.
void put_string(util::ByteWriter& out, const std::string& s);
[[nodiscard]] std::string get_string(util::ByteReader& in, const char* what);

}  // namespace cfir::trace
