// The columnar seekable trace format (CFIRTRC2, src/trace/trace_v2.cpp),
// checked against the engine event stream and the reference interpreter
// and fuzzed for corruption robustness:
//
//  - ~200 random seeded programs honor seek_to at arbitrary targets (the
//    tail after a seek equals the same slice of a sequential read),
//    including block boundaries, the first/last record, end-of-stream,
//    and past-EOF;
//  - any single flipped bit — block payload, block CRC, index footer,
//    header — is rejected with the typed trace/errors.hpp exceptions, as
//    is truncation mid-block and mid-footer (CRC-32 catches all
//    single-bit errors, and the index CRC covers the header, so the only
//    unverified bytes are the whole-file footer's CRC value itself);
//  - the decoded stream equals the engine's event stream record for
//    record, and BBVs computed through a trace reader are bit-identical
//    to the engine pass;
//  - the TraceV2S8 suite runs the acceptance matrix on bzip2/parser/twolf
//    s8, including the <= 0.5 B/inst size guard (skipped on Debug /
//    sanitized builds, where recording a million instructions is slow —
//    the size itself is deterministic and guarded in Release CI).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "isa/engine.hpp"
#include "mem/main_memory.hpp"
#include "trace/bbv.hpp"
#include "trace/errors.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "cfir_v2_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Full sequential decode of a trace file.
std::vector<isa::StepEvent> read_all(const std::string& path) {
  TraceReader reader(path);
  std::vector<isa::StepEvent> out;
  out.reserve(reader.record_count());
  isa::StepEvent rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

TEST(TraceV2, SeekPropertyRandomPrograms) {
  // ~200 seeded programs, tiny block capacity so every stream spans many
  // blocks, random seek targets: the tail read after seek_to(t) must equal
  // records [t, end) of a sequential read.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const isa::Program program = cfir::testing::random_program(seed);
    TempFile file("seek" + std::to_string(seed));
    TraceMeta meta;
    meta.workload = "random";
    record_interpreter(program, file.path(), meta, UINT64_MAX, 61);

    const std::vector<isa::StepEvent> all = read_all(file.path());
    ASSERT_FALSE(all.empty()) << "seed " << seed;

    TraceReader reader(file.path());
    ASSERT_EQ(reader.record_count(), all.size());
    std::mt19937_64 gen(seed * 7919);
    isa::StepEvent rec;
    for (int probe = 0; probe < 6; ++probe) {
      const uint64_t target = gen() % (all.size() + 1);
      reader.seek_to(target);
      EXPECT_EQ(reader.position(), target);
      // Decode a bounded tail, not the whole remainder, so 200 programs
      // stay cheap; correctness of the full tail follows inductively.
      const uint64_t tail =
          std::min<uint64_t>(all.size() - target, 64 + gen() % 64);
      for (uint64_t i = 0; i < tail; ++i) {
        ASSERT_TRUE(reader.next(rec))
            << "seed " << seed << " target " << target << " +" << i;
        ASSERT_EQ(rec, all[target + i])
            << "seed " << seed << " target " << target << " +" << i;
      }
      if (target == all.size()) {
        EXPECT_FALSE(reader.next(rec));
      }
    }
    // Past-EOF is a programming error, not a quiet empty stream.
    EXPECT_THROW(reader.seek_to(all.size() + 1), std::out_of_range);
    EXPECT_THROW(reader.seek_to(all.size() + gen() % 1000 + 1),
                 std::out_of_range);
  }
}

TEST(TraceV2, SeekEdgesOnBlockBoundaries) {
  const isa::Program program = cfir::testing::figure1_program(256, 50, 11);
  TempFile file("edges");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, file.path(), meta, UINT64_MAX, 128);

  const std::vector<isa::StepEvent> all = read_all(file.path());
  TraceReader reader(file.path());
  ASSERT_GT(reader.block_count(), size_t{3});
  EXPECT_EQ(reader.block_len(), 128u);

  isa::StepEvent rec;
  // Every block's first record, the record just before each boundary, the
  // very first and very last record, and the end-of-stream position.
  for (size_t b = 0; b < reader.block_count(); ++b) {
    const uint64_t first = reader.block_first_record(b);
    reader.seek_to(first);
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec, all[first]) << "block " << b;
    if (first > 0) {
      reader.seek_to(first - 1);
      ASSERT_TRUE(reader.next(rec));
      EXPECT_EQ(rec, all[first - 1]) << "block " << b;
    }
  }
  reader.seek_to(all.size() - 1);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec, all.back());
  EXPECT_FALSE(reader.next(rec));
  reader.seek_to(all.size());  // valid EOF position
  EXPECT_FALSE(reader.next(rec));
  reader.seek_to(0);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec, all.front());
  EXPECT_THROW(reader.seek_to(all.size() + 1), std::out_of_range);
  EXPECT_THROW(reader.decode_block(reader.block_count()), std::out_of_range);
}

TEST(TraceV2, EveryBitFlipIsRejectedTyped) {
  // CRC-32 detects all single-bit errors and the index CRC covers the
  // header, so EVERY flipped bit — except within the whole-file footer's
  // CRC value, which TraceReader deliberately does not verify (blob-level
  // tools do) — must surface as a typed trace/errors.hpp exception at open
  // or during the full decode. Never a wrong stream, never a crash.
  const isa::Program program = cfir::testing::figure1_program(128, 50, 13);
  TempFile file("flip");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, file.path(), meta, UINT64_MAX, 256);
  const std::vector<uint8_t> good = file_bytes(file.path());
  const std::vector<isa::StepEvent> all = read_all(file.path());

  std::mt19937_64 gen(1337);
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Flip anywhere except the final 4 bytes (the unverified CRC value).
    const size_t byte = gen() % (good.size() - 4);
    std::vector<uint8_t> bad = good;
    bad[byte] ^= static_cast<uint8_t>(1u << (gen() % 8));
    write_bytes(file.path(), bad);
    try {
      const std::vector<isa::StepEvent> decoded = read_all(file.path());
      ADD_FAILURE() << "flip at byte " << byte << " was not detected";
    } catch (const BadMagicError&) {
      ++rejected;  // flip landed in the leading magic
    } catch (const VersionError&) {
      ++rejected;  // flip landed in the version word
    } catch (const CorruptFileError&) {
      ++rejected;  // everything else: CRCs and structural validation
    } catch (const std::exception& e) {
      // A flip in record_count can fake the unfinished sentinel before the
      // index CRC would catch it; that still refuses to decode.
      EXPECT_NE(std::string(e.what()).find("unfinished"), std::string::npos)
          << "flip at byte " << byte << " raised: " << e.what();
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 300);
  write_bytes(file.path(), good);
  EXPECT_EQ(read_all(file.path()), all);  // pristine bytes still decode
}

TEST(TraceV2, TargetedCorruptionHitsEveryRegion) {
  // The random sweep above is the safety net; this pins each structural
  // region by name so a future refactor cannot quietly drop one check.
  const isa::Program program = cfir::testing::figure1_program(128, 50, 17);
  TempFile file("region");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, file.path(), meta, UINT64_MAX, 256);
  const std::vector<uint8_t> good = file_bytes(file.path());

  TraceReader probe(file.path());
  const size_t n_blocks = probe.block_count();
  ASSERT_GT(n_blocks, size_t{1});
  const size_t header_size = 560 + meta.workload.size();
  const size_t index_offset =
      good.size() - 40 - n_blocks * 20;  // entries + tail, see trace_v2.hpp

  const auto expect_corrupt = [&](size_t byte, const char* what) {
    std::vector<uint8_t> bad = good;
    bad[byte] ^= 0x10;
    write_bytes(file.path(), bad);
    EXPECT_THROW(read_all(file.path()), CorruptFileError) << what;
  };
  // Mid-payload of the first block, its trailing CRC, an index entry, the
  // index tail fields, the index CRC itself, and a header byte (covered by
  // the index CRC, so open — not decode — rejects it).
  expect_corrupt(header_size + (index_offset - header_size) / 2,
                 "block payload");
  expect_corrupt(index_offset + 3, "index entry");
  expect_corrupt(good.size() - 40 + 2, "index n_blocks field");
  expect_corrupt(good.size() - 32 + 2, "index offset field");
  expect_corrupt(good.size() - 12, "index CRC");
  expect_corrupt(100, "header bytes (final regs)");

  // Truncations: mid-block, mid-index, mid-footer, and a near-empty stub.
  for (const size_t keep :
       {header_size + 5, index_offset - 3, index_offset + 7, good.size() - 2,
        good.size() - 17, size_t{12}}) {
    std::vector<uint8_t> bad(good.begin(),
                             good.begin() + static_cast<std::ptrdiff_t>(keep));
    write_bytes(file.path(), bad);
    EXPECT_THROW(read_all(file.path()), CorruptFileError)
        << "truncated to " << keep << " bytes";
  }
}

TEST(TraceV2, UnfinishedRecordingRejected) {
  const isa::Program program = cfir::testing::figure1_program(64, 50, 19);
  TempFile file("unfinished");
  TraceMeta meta;
  meta.workload = "figure1";
  {
    TraceWriter writer(file.path(), meta, 32);
    isa::StepEvent rec;
    rec.pc = meta.base_pc;
    for (int i = 0; i < 100; ++i) {
      writer.append(rec);
      rec.pc += isa::kInstBytes;
    }
    // No finish(): the header keeps the sentinel record count.
  }
  try {
    TraceReader reader(file.path());
    FAIL() << "unfinished v2 trace was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unfinished"), std::string::npos)
        << e.what();
  }
}

TEST(TraceV2, BbvParallelDecodeMatchesSequentialAndLive) {
  // A many-block trace decodes in parallel waves; a single-block trace of
  // the same run decodes in one. Both must reproduce the live pass.
  const isa::Program program = cfir::testing::figure1_program(512, 50, 31);
  TempFile one("bbv1"), many("bbv2");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, one.path(), meta);
  record_interpreter(program, many.path(), meta, UINT64_MAX, 64);

  const BbvSet live = bbv_from_program(program, 500);
  TraceReader r1(one.path());
  ASSERT_EQ(r1.block_count(), size_t{1});
  const BbvSet from_one = bbv_from_trace(r1, 500);
  TraceReader r2(many.path());
  ASSERT_GT(r2.block_count(), size_t{32});  // crosses a parallel wave
  const BbvSet from_many = bbv_from_trace(r2, 500);

  EXPECT_EQ(live.leaders, from_many.leaders);
  EXPECT_EQ(live.vectors, from_many.vectors);
  EXPECT_EQ(live.total_insts, from_many.total_insts);
  EXPECT_EQ(live.leaders, from_one.leaders);
  EXPECT_EQ(live.vectors, from_one.vectors);
}

// ---------------------------------------------------------------------------
// TraceV2S8: the acceptance matrix on the paper workloads at scale 8.
// Excluded from the sanitizer CI job (like SamplingAccuracy); the size
// guard additionally self-skips on Debug/sanitized builds.
// ---------------------------------------------------------------------------

TEST(TraceV2S8, DifferentialAgainstV1OnPaperWorkloads) {
  // On the paper workloads at scale 8: the decoded stream equals the
  // functional engine's event stream record for record (so anything
  // trained on it, warm state included, is the engine's too), replay
  // against the reference interpreter matches, and BBVs are bit-identical
  // whether they come from the trace or from the engine.
  for (const char* name : {"bzip2", "parser", "twolf"}) {
    const isa::Program program = workloads::build(name, 8);
    TempFile file(std::string(name) + "_s8");
    TraceMeta meta;
    meta.workload = name;
    meta.scale = 8;
    const isa::InterpResult r =
        record_interpreter(program, file.path(), meta);

    // Decoded stream == engine event stream, record by record.
    {
      TraceReader reader(file.path());
      ASSERT_EQ(reader.record_count(), r.executed) << name;
      mem::MainMemory memory;
      isa::load_data_image(program, memory);
      isa::FunctionalEngine engine(program, memory);
      uint64_t i = 0;
      bool same = true;
      isa::StepEvent rec;
      cfir::testing::for_each_event(
          engine, UINT64_MAX, [&](const isa::StepEvent& ev) {
            if (!same) return;
            same = reader.next(rec) && rec == ev;
            ++i;
          });
      EXPECT_TRUE(same) << name << " record " << i;
      EXPECT_EQ(i, r.executed) << name;
      EXPECT_FALSE(reader.next(rec)) << name;
    }

    // Replay on the reference interpreter reproduces the final state.
    const ReplayResult replay = replay_trace(program, file.path());
    EXPECT_TRUE(replay.match) << name << ": " << replay.mismatch;
    EXPECT_EQ(replay.replayed, r.executed) << name;

    // BBVs bit-identical (the trace path decodes blocks in parallel).
    TraceReader bbv_reader(file.path());
    const BbvSet from_trace = bbv_from_trace(bbv_reader, 10000);
    const BbvSet live = bbv_from_program(program, 10000);
    EXPECT_EQ(from_trace.leaders, live.leaders) << name;
    EXPECT_EQ(from_trace.vectors, live.vectors) << name;
  }
}

TEST(TraceV2S8, SizeRatioGuardOnBzip2) {
  if (!kOptimized || kSanitized) {
    GTEST_SKIP() << "size guard runs on optimized, uninstrumented builds "
                    "(the size is checked in Release CI)";
  }
  // The compression target, with margin: at most 0.5 bytes per recorded
  // instruction on bzip2 s8 (docs/trace-format.md measures 0.18-0.39
  // across the workloads).
  const isa::Program program = workloads::build("bzip2", 8);
  TempFile file("ratio");
  TraceMeta meta;
  meta.workload = "bzip2";
  meta.scale = 8;
  const isa::InterpResult r = record_interpreter(program, file.path(), meta);
  const size_t size = file_bytes(file.path()).size();
  ASSERT_GT(r.executed, uint64_t{0});
  EXPECT_LE(static_cast<double>(size), 0.5 * static_cast<double>(r.executed))
      << size << " bytes for " << r.executed << " records";

  // The per-column accounting trace_tool info prints must add up to the
  // payload actually on disk.
  TraceReader reader(file.path());
  uint64_t payload = 0;
  for (const uint64_t c : reader.column_bytes()) payload += c;
  EXPECT_GT(payload, uint64_t{0});
  EXPECT_LT(payload, size);
}

}  // namespace
}  // namespace cfir::trace
