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
#include <fstream>
#include <string>
#include <vector>

#include "util/warmable.hpp"

namespace cfir::trace {

inline constexpr char kCrcFooterMagic[4] = {'C', 'R', 'C', '1'};
inline constexpr size_t kCrcFooterBytes = 8;  ///< magic + u32 crc

/// Streams one blob file: each write() goes to the file and into a
/// running CRC, and finish() appends the footer in the same open, so a
/// writer that emits its payload piecewise (Checkpoint::save streams
/// memory pages) checksums every byte once and never buffers the whole.
/// Errors are std::runtime_error naming `what` ("Checkpoint", "blob").
class BlobFileWriter {
 public:
  BlobFileWriter(const std::string& path, const char* what);
  void write(const void* data, size_t n);
  /// Appends the CRC footer and closes the file; throws when any write
  /// failed.
  void finish();

 private:
  std::ofstream out_;
  std::string path_;
  const char* what_;
  uint32_t crc_ = 0;
};

/// Writes `payload` to `path` followed by the CRC footer.
void write_blob_file(const std::string& path,
                     const std::vector<uint8_t>& payload);

/// Reads `path` (one read into a buffer sized from the file) and verifies
/// the CRC footer, returning the payload without it. A path that is not a
/// readable regular file ("cannot open"), a missing footer or a wrong CRC
/// throws CorruptFileError. `what` names the format in error messages
/// ("Checkpoint", "ShardManifest", ...).
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
