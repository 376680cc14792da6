#include "trace/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "isa/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "trace/blob.hpp"
#include "trace/errors.hpp"
#include "util/warmable.hpp"

namespace cfir::trace {

namespace {

/// Magic of the retired layout with an appended warm-state blob,
/// recognised only to reject it.
constexpr char kRetiredCheckpointMagic[8] = {'C', 'F', 'I', 'R',
                                             'C', 'K', 'P', '2'};

/// Little-endian on every supported host: the raw bytes of `v`.
template <typename T>
void put_raw(std::ostream& s, const T& v) {
  s.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

bool all_zero(const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (data[i] != 0) return false;
  }
  return true;
}

Checkpoint snapshot(const isa::FunctionalEngine& engine,
                    const mem::MainMemory& memory) {
  Checkpoint ck;
  ck.pc = engine.pc();
  ck.executed = engine.executed();
  ck.regs = engine.regs();
  ck.memory = memory.clone();
  return ck;
}

}  // namespace

void Checkpoint::save(const std::string& path) const {
  obs::Span span("checkpoint.save");
  const obs::Stopwatch clock;
  // Stream pages straight to the file (memory images can be large) and
  // append the CRC footer with the chunked helper afterwards, like
  // TraceWriter::finish — never the whole payload in one buffer.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("Checkpoint: cannot open " + path);
  out.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  put_raw(out, kCheckpointVersion);
  put_raw(out, uint32_t{0});  // reserved
  put_raw(out, pc);
  put_raw(out, executed);
  for (const uint64_t r : regs) put_raw(out, r);

  std::vector<std::pair<uint64_t, const uint8_t*>> pages;
  memory.for_each_page([&](uint64_t base_addr, const uint8_t* data) {
    if (!all_zero(data, mem::MainMemory::kPageSize)) {
      pages.emplace_back(base_addr, data);
    }
  });
  put_raw(out, static_cast<uint64_t>(pages.size()));
  for (const auto& [base_addr, data] : pages) {
    put_raw(out, base_addr);
    out.write(reinterpret_cast<const char*>(data),
              mem::MainMemory::kPageSize);
  }
  out.close();
  if (!out) throw std::runtime_error("Checkpoint: write failed for " + path);
  append_crc_footer(path);
  obs::Registry::instance()
      .histogram("checkpoint.save_us")
      .observe(clock.elapsed_us());
}

Checkpoint Checkpoint::load(const std::string& path) {
  obs::Span span("checkpoint.load");
  const obs::Stopwatch clock;
  const std::vector<uint8_t> bytes = read_blob_file(path, "Checkpoint");
  if (bytes.size() < sizeof(kCheckpointMagic)) {
    throw CorruptFileError("Checkpoint: truncated file " + path);
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    if (std::memcmp(bytes.data(), kRetiredCheckpointMagic,
                    sizeof(kRetiredCheckpointMagic)) == 0) {
      throw VersionError("Checkpoint: the warm-state CFIRCKP2 layout is no "
                         "longer read; re-plan " + path);
    }
    throw BadMagicError("Checkpoint: bad magic in " + path);
  }
  try {
    util::ByteReader in(bytes.data() + sizeof(kCheckpointMagic),
                        bytes.size() - sizeof(kCheckpointMagic));
    const uint32_t version = in.u32();
    if (version != kCheckpointVersion) {
      throw VersionError("Checkpoint: unsupported version " +
                         std::to_string(version) + " in " + path);
    }
    (void)in.u32();  // reserved

    Checkpoint ck;
    ck.pc = in.u64();
    ck.executed = in.u64();
    for (auto& r : ck.regs) r = in.u64();
    const uint64_t page_count = in.u64();
    std::vector<uint8_t> buf(mem::MainMemory::kPageSize);
    for (uint64_t p = 0; p < page_count; ++p) {
      const uint64_t base_addr = in.u64();
      // ByteReader bounds-checks every read, so a corrupt page_count fails
      // on the first out-of-range page instead of spinning.
      in.bytes(buf.data(), buf.size());
      ck.memory.write_block(base_addr, buf.data(), buf.size());
    }
    if (!in.done()) {
      throw CorruptFileError("Checkpoint: trailing bytes after the pages in " +
                             path);
    }
    obs::Registry::instance()
        .histogram("checkpoint.load_us")
        .observe(clock.elapsed_us());
    return ck;
  } catch (const VersionError&) {
    throw;
  } catch (const CorruptFileError&) {
    throw;
  } catch (const std::exception&) {
    // ByteReader underflow: the payload ended before the structure did.
    throw CorruptFileError("Checkpoint: truncated file " + path);
  }
}

Checkpoint fast_forward(const isa::Program& program, uint64_t n_insts) {
  obs::Span span("checkpoint.capture", n_insts);
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  // Pure architectural fast-forward: no sink attached, so the cached
  // engine runs its no-collection loop.
  isa::FunctionalEngine engine(program, memory);
  engine.run(n_insts);
  return snapshot(engine, memory);
}

std::vector<Checkpoint> interval_checkpoints(
    const isa::Program& program, const std::vector<uint64_t>& boundaries) {
  obs::Span span("checkpoint.capture", boundaries.size());
  if (!std::is_sorted(boundaries.begin(), boundaries.end())) {
    throw std::runtime_error("interval_checkpoints: boundaries not sorted");
  }
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);

  std::vector<Checkpoint> out;
  out.reserve(boundaries.size());
  for (const uint64_t boundary : boundaries) {
    engine.run_to(boundary);
    out.push_back(snapshot(engine, memory));
  }
  return out;
}

void SnapshotLadder::run(isa::FunctionalEngine& engine,
                         const mem::MainMemory& memory, uint64_t cap) {
  snaps_.clear();
  grain_ = kStartGrain;
  snaps_.push_back(snapshot(engine, memory));
  for (;;) {
    const uint64_t next = snaps_.size() * grain_;
    if (next > cap) {
      engine.run_to(cap);
      return;
    }
    engine.run_to(next);
    if (engine.executed() < next) return;  // halted first
    snaps_.push_back(snapshot(engine, memory));
    if (snaps_.size() > kMaxSnapshots) {
      // Keep the even multiples: snaps_[i] moves to i / 2 at twice the
      // grain.
      for (size_t i = 2; i < snaps_.size(); i += 2) {
        snaps_[i / 2] = std::move(snaps_[i]);
      }
      snaps_.resize((snaps_.size() + 1) / 2);
      grain_ *= 2;
    }
  }
}

std::vector<Checkpoint> SnapshotLadder::checkpoints(
    const isa::Program& program,
    const std::vector<uint64_t>& positions) const {
  obs::Span span("checkpoint.capture", positions.size());
  std::vector<Checkpoint> out;
  out.reserve(positions.size());
  for (const uint64_t position : positions) {
    const Checkpoint& from =
        snaps_[std::min<uint64_t>(position / grain_, snaps_.size() - 1)];
    Checkpoint& ck = out.emplace_back();
    ck.memory = from.memory.clone();
    isa::FunctionalEngine engine(program, ck.memory);
    engine.set_arch_state(from.regs, from.pc);
    engine.run(position - from.executed);
    ck.pc = engine.pc();
    ck.executed = from.executed + engine.executed();
    ck.regs = engine.regs();
  }
  return out;
}

}  // namespace cfir::trace
