#include "trace/blob.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "trace/errors.hpp"
#include "util/crc32.hpp"

namespace cfir::trace {

namespace {

/// Opens `path` positioned at the end and returns its size; rejects
/// anything that is not a readable regular file (tellg returns -1 for
/// directories and such) before any buffer is sized from it.
std::ifstream open_sized(const std::string& path, const char* what,
                         std::streamoff& size) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  size = in ? static_cast<std::streamoff>(in.tellg()) : std::streamoff{-1};
  if (!in || size < 0) {
    throw CorruptFileError(std::string(what) + ": cannot open " + path);
  }
  in.seekg(0);
  return in;
}

std::vector<uint8_t> read_whole_file(const std::string& path,
                                     const char* what) {
  std::streamoff size = 0;
  std::ifstream in = open_sized(path, what, size);
  // Read in chunks instead of sizing the buffer from the reported size: a
  // directory opens fine on some platforms and reports a bogus huge size
  // (this libstdc++ says LLONG_MAX), which must fail on the first read,
  // not in the allocator.
  std::vector<uint8_t> bytes;
  std::vector<uint8_t> buf(64 * 1024);
  for (;;) {
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    const std::streamsize got = in.gcount();
    bytes.insert(bytes.end(), buf.data(), buf.data() + got);
    if (in.eof()) break;
    if (!in) {
      throw CorruptFileError(std::string(what) + ": cannot read " + path);
    }
  }
  return bytes;
}

/// CRC of the stream's next `n` bytes, computed in fixed-size chunks so
/// callers that only need the checksum never buffer the whole file.
uint32_t crc_of_stream(std::istream& in, uint64_t n, const std::string& path,
                       const char* what) {
  std::vector<uint8_t> buf(64 * 1024);
  uint32_t crc = 0;
  while (n > 0) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(n, buf.size()));
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(chunk));
    if (!in) {
      throw CorruptFileError(std::string(what) + ": read failed for " +
                             path);
    }
    crc = util::crc32(buf.data(), chunk, crc);
    n -= chunk;
  }
  return crc;
}

void append_footer_bytes(std::ofstream& out, uint32_t crc) {
  out.write(kCrcFooterMagic, sizeof(kCrcFooterMagic));
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

}  // namespace

void write_blob_file(const std::string& path,
                     const std::vector<uint8_t>& payload) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("blob: cannot open " + path);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  append_footer_bytes(out, util::crc32(payload.data(), payload.size()));
  out.close();
  if (!out) throw std::runtime_error("blob: write failed for " + path);
}

std::vector<uint8_t> read_blob_file(const std::string& path,
                                    const char* what) {
  std::vector<uint8_t> bytes = read_whole_file(path, what);
  if (bytes.size() < kCrcFooterBytes ||
      std::memcmp(bytes.data() + bytes.size() - kCrcFooterBytes,
                  kCrcFooterMagic, sizeof(kCrcFooterMagic)) != 0) {
    throw CorruptFileError(std::string(what) +
                           ": missing CRC footer (truncated file?) in " +
                           path);
  }
  const size_t payload_size = bytes.size() - kCrcFooterBytes;
  uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + payload_size + sizeof(kCrcFooterMagic),
              sizeof(stored));
  if (stored != util::crc32(bytes.data(), payload_size)) {
    throw CorruptFileError(std::string(what) +
                           ": CRC mismatch (corrupt or truncated file) in " +
                           path);
  }
  bytes.resize(payload_size);
  return bytes;
}

void append_crc_footer(const std::string& path) {
  std::streamoff size = 0;
  std::ifstream in = open_sized(path, "blob", size);
  const uint32_t crc =
      crc_of_stream(in, static_cast<uint64_t>(size), path, "blob");
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) throw std::runtime_error("blob: cannot open " + path);
  append_footer_bytes(out, crc);
  out.close();
  if (!out) throw std::runtime_error("blob: write failed for " + path);
}

void put_string(util::ByteWriter& out, const std::string& s) {
  out.u32(static_cast<uint32_t>(s.size()));
  out.bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::string get_string(util::ByteReader& in, const char* what) {
  const uint32_t len = in.u32();
  if (len > 4096) {
    throw CorruptFileError(std::string("corrupt ") + what + " length " +
                           std::to_string(len));
  }
  std::string s(len, '\0');
  in.bytes(reinterpret_cast<uint8_t*>(s.data()), len);
  return s;
}

}  // namespace cfir::trace
