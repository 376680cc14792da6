#include "isa/assembler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "isa/interpreter.hpp"
#include "mem/main_memory.hpp"
#include "workloads/workloads.hpp"

namespace cfir::isa {
namespace {

TEST(Assembler, EmitsInstructionsInOrder) {
  Assembler as;
  as.movi(1, 42);
  as.add(2, 1, 1);
  as.halt();
  const Program p = as.assemble();
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.code()[0].op, Opcode::kMovi);
  EXPECT_EQ(p.code()[0].rd, 1);
  EXPECT_EQ(p.code()[0].imm, 42);
  EXPECT_EQ(p.code()[1].op, Opcode::kAdd);
  EXPECT_EQ(p.code()[2].op, Opcode::kHalt);
}

TEST(Assembler, ForwardAndBackwardLabels) {
  Assembler as;
  as.label("start");
  as.movi(1, 0);
  as.beq(1, 1, "end");   // forward reference
  as.jmp("start");       // backward reference
  as.label("end");
  as.halt();
  const Program p = as.assemble();
  EXPECT_EQ(static_cast<uint64_t>(p.code()[1].imm), p.pc_of(3));
  EXPECT_EQ(static_cast<uint64_t>(p.code()[2].imm), p.pc_of(0));
  EXPECT_EQ(p.label("start"), p.pc_of(0));
  EXPECT_EQ(p.label("end"), p.pc_of(3));
  EXPECT_FALSE(p.label("missing").has_value());
}

TEST(Assembler, UndefinedLabelThrows) {
  Assembler as;
  as.jmp("nowhere");
  EXPECT_THROW(as.assemble(), AssemblerError);
}

TEST(Assembler, DuplicateLabelThrows) {
  Assembler as;
  as.label("x");
  as.nop();
  EXPECT_THROW(as.label("x"), AssemblerError);
}

TEST(Assembler, RegisterRangeChecked) {
  Assembler as;
  EXPECT_THROW(as.movi(64, 0), AssemblerError);
  EXPECT_THROW(as.add(0, -1, 0), AssemblerError);
}

TEST(Assembler, DataReservationAndInit) {
  Assembler as;
  const uint64_t a = as.reserve("a", 64);
  const uint64_t b = as.reserve("b", 8);
  EXPECT_GE(b, a + 64);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_EQ(as.data_addr("a"), a);
  as.init_word(a, 0x1122334455667788ULL);
  as.halt();
  const Program p = as.assemble();
  ASSERT_EQ(p.data().size(), 1u);
  EXPECT_EQ(p.data()[0].addr, a);
  EXPECT_EQ(p.data()[0].bytes.size(), 8u);
  EXPECT_EQ(p.data()[0].bytes[0], 0x88);  // little endian
  EXPECT_EQ(p.data()[0].bytes[7], 0x11);
}

/// Every resident page of `memory` as (base address, bytes).
std::map<uint64_t, std::vector<uint8_t>> pages_of(
    const mem::MainMemory& memory) {
  std::map<uint64_t, std::vector<uint8_t>> pages;
  memory.for_each_page([&](uint64_t base, const uint8_t* data) {
    pages[base].assign(data, data + mem::MainMemory::kPageSize);
  });
  return pages;
}

// The data image holds one segment per maximal run of written bytes, and
// loading it leaves the memory that applying each write on its own, in
// program order, leaves: a later write to a byte wins, and no byte that
// was never written is touched.
TEST(Assembler, DataImageMatchesEachWriteAppliedAlone) {
  Assembler as;
  struct Write {
    uint64_t addr;
    std::vector<uint8_t> bytes;
  };
  constexpr uint64_t kPage = mem::MainMemory::kPageSize;
  const uint64_t base = as.reserve("buf", 3 * kPage);
  std::vector<Write> writes;
  const auto word = [&](uint64_t addr, uint64_t value) {
    as.init_word(addr, value);
    std::vector<uint8_t> bytes(8);
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<uint8_t>(value >> (8 * i));
    }
    writes.push_back({addr, bytes});
  };
  const auto raw = [&](uint64_t addr, std::vector<uint8_t> bytes) {
    as.init_bytes(addr, bytes);
    writes.push_back({addr, std::move(bytes)});
  };
  for (uint64_t i = 0; i < 64; ++i) word(base + 8 * i, 0x0101010101010101 * i);
  raw(base + 22, {0xAA, 0xBB, 0xCC});           // overlaps two earlier words
  word(base + 24, 0x1122334455667788);          // overwrites its last byte
  raw(base + kPage - 3, {1, 2, 3, 4, 5, 6});    // crosses a page boundary
  raw(base + 1000, {7, 7});                     // a run of its own
  raw(base + 1002, {8});                        // adjacent to it
  raw(base + 2000, {});                         // empty: writes nothing
  word(base + 2 * kPage + 16, 0xFEEDFACECAFEBEEF);  // interleaved, far away
  word(base + 8, 0xDEADBEEF);                   // back into the first run
  as.halt();
  const Program p = as.assemble();

  // Runs: sorted, non-empty, separated by at least one unwritten byte.
  ASSERT_EQ(p.data().size(), 4u);
  for (size_t i = 0; i < p.data().size(); ++i) {
    EXPECT_FALSE(p.data()[i].bytes.empty()) << i;
    if (i > 0) {
      EXPECT_LT(p.data()[i - 1].addr + p.data()[i - 1].bytes.size(),
                p.data()[i].addr)
          << i;
    }
  }

  mem::MainMemory loaded;
  load_data_image(p, loaded);
  mem::MainMemory applied;
  for (const Write& w : writes) {
    applied.write_block(w.addr, w.bytes.data(), w.bytes.size());
  }
  EXPECT_EQ(pages_of(loaded), pages_of(applied));
  EXPECT_EQ(loaded.read(base + 8, 8), 0xDEADBEEFu);
  EXPECT_EQ(loaded.read(base + 20, 4), 0xBBAA0202u);
  EXPECT_EQ(loaded.read(base + 24, 1), 0x88u);
}

// Every workload kernel's data image is one segment per run of bytes:
// sorted, and no two segments touch or overlap.
TEST(Assembler, EveryKernelHasOneSegmentPerRun) {
  for (const std::string& name : workloads::names()) {
    const Program p = workloads::build(name, 2);
    const auto& data = p.data();
    for (size_t i = 0; i < data.size(); ++i) {
      EXPECT_FALSE(data[i].bytes.empty()) << name << " segment " << i;
      if (i > 0) {
        EXPECT_LT(data[i - 1].addr + data[i - 1].bytes.size(), data[i].addr)
            << name << " segment " << i;
      }
    }
    EXPECT_LE(data.size(), 8u) << name;
  }
}

TEST(Assembler, CallRetEncoding) {
  Assembler as;
  as.call("f");
  as.halt();
  as.label("f");
  as.ret();
  const Program p = as.assemble();
  EXPECT_EQ(p.code()[0].op, Opcode::kCall);
  EXPECT_EQ(p.code()[0].rd, kLinkReg);
  EXPECT_EQ(p.code()[2].op, Opcode::kRet);
  EXPECT_EQ(p.code()[2].rs1, kLinkReg);
}

TEST(TextAssembler, ParsesRepresentativeListing) {
  const Program p = assemble_text(R"(
    # counts down from 5
    movi r1, 5
    movi r2, 0
  loop:
    add r2, r2, r1
    add r1, r1, -1     ; immediate form
    bne r1, r3, loop
    st8 r2, 0(r4)
    halt
  )");
  ASSERT_EQ(p.size(), 7u);
  EXPECT_EQ(p.code()[0].op, Opcode::kMovi);
  EXPECT_EQ(p.code()[2].op, Opcode::kAdd);
  EXPECT_EQ(p.code()[3].op, Opcode::kAddi);
  EXPECT_EQ(p.code()[3].imm, -1);
  EXPECT_EQ(p.code()[4].op, Opcode::kBne);
  EXPECT_EQ(static_cast<uint64_t>(p.code()[4].imm), p.pc_of(2));
  EXPECT_EQ(p.code()[5].op, Opcode::kSt8);
}

TEST(TextAssembler, RejectsUnknownMnemonic) {
  EXPECT_THROW(assemble_text("frobnicate r1, r2, r3"), AssemblerError);
}

TEST(TextAssembler, RejectsMissingImmediateForm) {
  EXPECT_THROW(assemble_text("div r1, r2, 3"), AssemblerError);
}

TEST(Program, ContainsAndTryAt) {
  Assembler as;
  as.nop();
  as.halt();
  const Program p = as.assemble();
  EXPECT_TRUE(p.contains(p.base()));
  EXPECT_FALSE(p.contains(p.base() + 1));  // misaligned
  EXPECT_FALSE(p.contains(p.end_pc()));
  EXPECT_NE(p.try_at(p.base()), nullptr);
  EXPECT_EQ(p.try_at(p.end_pc()), nullptr);
  EXPECT_EQ(p.try_at(0), nullptr);
}

TEST(Program, ListingIncludesLabels) {
  Assembler as;
  as.label("entry");
  as.movi(1, 3);
  as.halt();
  const Program p = as.assemble();
  const std::string listing = p.listing();
  EXPECT_NE(listing.find("entry:"), std::string::npos);
  EXPECT_NE(listing.find("movi r1, 3"), std::string::npos);
}

}  // namespace
}  // namespace cfir::isa
