#include "trace/checkpoint.hpp"

#include <algorithm>
#include <cstring>
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

/// magic | u32 version | u32 reserved | u64 pc | u64 executed | registers
/// | u64 page_count: everything before the first page.
constexpr size_t kHeaderBytes = sizeof(kCheckpointMagic) + 4 + 4 + 8 + 8 +
                                8 * isa::kNumLogicalRegs + 8;

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
  static obs::Histogram& save_us =
      obs::Registry::instance().histogram("checkpoint.save_us");
  obs::Span span("checkpoint.save");
  const obs::Stopwatch clock;
  std::vector<std::pair<uint64_t, const uint8_t*>> pages;
  memory.for_each_page([&](uint64_t base_addr, const uint8_t* data) {
    if (!all_zero(data, mem::MainMemory::kPageSize)) {
      pages.emplace_back(base_addr, data);
    }
  });
  // The header is assembled in place (little-endian on every supported
  // host, the raw bytes of each field); the pages stream straight from
  // memory (images can be large), each byte checksummed as it is written.
  std::array<uint8_t, kHeaderBytes> header{};
  uint8_t* at = header.data();
  const auto put = [&at](const void* bytes, size_t n) {
    std::memcpy(at, bytes, n);
    at += n;
  };
  const uint32_t reserved = 0;
  const uint64_t page_count = pages.size();
  put(kCheckpointMagic, sizeof(kCheckpointMagic));
  put(&kCheckpointVersion, sizeof(kCheckpointVersion));
  put(&reserved, sizeof(reserved));
  put(&pc, sizeof(pc));
  put(&executed, sizeof(executed));
  put(regs.data(), sizeof(regs));
  put(&page_count, sizeof(page_count));

  BlobFileWriter out(path, "Checkpoint");
  out.write(header.data(), header.size());
  for (const auto& [base_addr, data] : pages) {
    out.write(&base_addr, sizeof(base_addr));
    out.write(data, mem::MainMemory::kPageSize);
  }
  out.finish();
  save_us.observe(clock.elapsed_us());
}

Checkpoint Checkpoint::load(const std::string& path) {
  static obs::Histogram& load_us =
      obs::Registry::instance().histogram("checkpoint.load_us");
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
    for (uint64_t p = 0; p < page_count; ++p) {
      const uint64_t base_addr = in.u64();
      // ByteReader bounds-checks every read, so a corrupt page_count fails
      // on the first out-of-range page instead of spinning.
      ck.memory.write_block(base_addr, in.view(mem::MainMemory::kPageSize),
                            mem::MainMemory::kPageSize);
    }
    if (!in.done()) {
      throw CorruptFileError("Checkpoint: trailing bytes after the pages in " +
                             path);
    }
    load_us.observe(clock.elapsed_us());
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
