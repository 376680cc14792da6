#include "trace/blob.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
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

/// Closes a POSIX descriptor on every path out of read_whole_file.
struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

/// The whole of regular file `path` in one buffer sized from its length,
/// filled by one read (a loop only if the kernel returns it short).
/// Anything that is not a readable regular file — a directory, a FIFO, a
/// missing path — is rejected before a buffer is sized from it.
std::vector<uint8_t> read_whole_file(const std::string& path,
                                     const char* what) {
  const FdCloser file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  struct stat st {};
  if (file.fd < 0 || ::fstat(file.fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    throw CorruptFileError(std::string(what) + ": cannot open " + path);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(file.fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw CorruptFileError(std::string(what) + ": cannot read " + path);
    }
    got += static_cast<size_t>(n);
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

BlobFileWriter::BlobFileWriter(const std::string& path, const char* what)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path),
      what_(what) {
  if (!out_) {
    throw std::runtime_error(std::string(what_) + ": cannot open " + path_);
  }
}

void BlobFileWriter::write(const void* data, size_t n) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  crc_ = util::crc32(data, n, crc_);
}

void BlobFileWriter::finish() {
  append_footer_bytes(out_, crc_);
  out_.close();
  if (!out_) {
    throw std::runtime_error(std::string(what_) + ": write failed for " +
                             path_);
  }
}

void write_blob_file(const std::string& path,
                     const std::vector<uint8_t>& payload) {
  BlobFileWriter out(path, "blob");
  out.write(payload.data(), payload.size());
  out.finish();
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
