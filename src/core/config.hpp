// Processor configuration. Defaults reproduce Table 1 of the paper:
// 8-wide fetch/issue/commit, 256-entry window, gshare 64K, 64-entry LSQ,
// and the three-level cache hierarchy. Mechanism-specific knobs (replica
// count, stridedPC width, speculative data memory) live here too so that a
// single struct describes a full experiment point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/hierarchy.hpp"
#include "util/warmable.hpp"

namespace cfir::core {

/// Which speculation mechanism runs on top of the baseline core.
enum class Policy : uint8_t {
  kNone,        ///< plain superscalar (scalXp)
  kCi,          ///< the paper's control-independence scheme (ciXp)
  kCiWindow,    ///< squash reuse: CI only inside the window (ci-iw)
  kVect,        ///< full-blown dynamic vectorization of ref. [12] (vect)
};

struct CoreConfig {
  // --- front end -----------------------------------------------------------
  uint32_t fetch_width = 8;        ///< up to 1 taken branch per cycle
  uint32_t decode_width = 8;
  uint32_t recovery_penalty = 5;   ///< cycles from resolve to first refetch

  // --- window / issue --------------------------------------------------------
  uint32_t rob_size = 256;         ///< instruction window (Table 1)
  uint32_t issue_width = 8;
  uint32_t commit_width = 8;
  uint32_t lsq_size = 64;

  // --- physical registers ----------------------------------------------------
  // Paper sweeps 128/256/512/768/"infinite". The window automatically grows
  // with the register file above 256 (section 3.2); presets handle this.
  uint32_t num_phys_regs = 256;

  // --- functional units (latency in cycles, Table 1) -------------------------
  uint32_t simple_int_units = 6;
  uint32_t int_alu_latency = 1;
  uint32_t muldiv_units = 3;
  uint32_t mul_latency = 2;
  uint32_t div_latency = 12;
  uint32_t branch_latency = 1;

  // --- memory ---------------------------------------------------------------
  uint32_t cache_ports = 1;        ///< L1D ports (paper sweeps 1 and 2)
  bool wide_bus = false;           ///< line-wide port, <=4 loads per access
  uint32_t wide_bus_loads_per_access = 4;
  uint32_t agu_latency = 1;
  mem::HierarchyConfig memory;

  // --- branch prediction ------------------------------------------------------
  uint32_t gshare_entries = 64 * 1024;
  uint32_t gshare_history_bits = 16;

  // --- mechanism (sections 2.3-2.4) -------------------------------------------
  Policy policy = Policy::kNone;
  uint32_t replicas = 4;             ///< speculative instances per instruction
  uint32_t stridedpc_per_entry = 2;  ///< propagated PCs per rename entry (Fig 4)
  uint32_t srsmt_sets = 64;          ///< 4-way (Table 1)
  uint32_t srsmt_ways = 4;
  uint32_t stride_sets = 256;        ///< 4-way (Table 1)
  uint32_t stride_ways = 4;
  uint32_t mbs_sets = 64;
  uint32_t mbs_ways = 4;
  uint32_t nrbq_entries = 16;
  uint32_t daec_threshold = 2;
  uint32_t ci_select_window = 32;    ///< instructions inspected past the
                                     ///< re-convergent point (see DESIGN.md)
  uint32_t replica_reg_reserve = 16; ///< free registers kept for rename
  // Squash-reuse buffer (ci-iw baseline).
  uint32_t squash_reuse_entries = 256;

  // --- speculative data memory (section 2.4.6) --------------------------------
  bool use_spec_memory = false;
  uint32_t spec_memory_slots = 768;
  uint32_t spec_memory_latency = 2;  ///< twice the register file
  uint32_t spec_memory_read_ports = 2;
  uint32_t spec_memory_write_ports = 2;

  // --- liveness guard ---------------------------------------------------------
  uint64_t watchdog_cycles = 2000;   ///< rename-starvation reclaim threshold
  uint64_t deadlock_cycles = 200000; ///< hard failure (indicates a bug)

  /// Short label such as "ci2p/256r" used in tables.
  [[nodiscard]] std::string label() const;

  /// Applies the paper's rule that the window scales with registers >256.
  void scale_window_to_regs();

  /// Deterministic FNV-1a digest over every configuration field, in
  /// declaration order (util::Digest — stable across hosts; generated from
  /// CFIR_CORECONFIG_FIELDS so a field added to the struct without hash
  /// coverage fails to compile, not to collide). Two configs digest equal
  /// iff they describe the same experiment point; the sharded sampling
  /// layers stamp this per-config hash into manifests and shard results so
  /// results from mismatched configs are rejected at merge time instead of
  /// being silently averaged (trace/manifest.hpp).
  [[nodiscard]] uint64_t digest() const;

  /// Digest over only the fields functional-warm state depends on (policy,
  /// predictor geometry, cache geometry — not latencies, widths or
  /// register counts). Config points with equal warm_digest() train
  /// byte-identical warm blobs from the same committed prefix, so sweeps
  /// that vary ports/regs/widths share one captured blob per interval
  /// instead of one per config (trace/shard.cpp run_shard). Deliberately
  /// NOT part of CFIR_CORECONFIG_FIELDS: it is derived, not configuration.
  [[nodiscard]] uint64_t warm_digest() const;

  /// Digest of this config's capacity family: digest() with exactly
  /// num_phys_regs and rob_size masked. Configs of one family differ only
  /// in those two capacities, which the register sweeps (Figures 9, 11,
  /// 13, 14) vary together (scale_window_to_regs).
  [[nodiscard]] uint64_t family_digest() const;

  /// The cover rule of capacity-family reuse. A run of *this that ended
  /// with `hit_capacity` false (core::Core::hit_capacity) reproduces, byte
  /// for byte, the run of `other` from the same start and instruction cap
  /// when `other` is in the same family and has at least as many
  /// registers and ROB entries; a run that did hit capacity reproduces
  /// only its own config. docs/architecture.md "Concurrency model" gives
  /// the argument and the audit of every capacity read behind it.
  [[nodiscard]] bool covers(const CoreConfig& other, bool hit_capacity) const;

  /// Byte codec over the same field list and order as digest(): a config
  /// embedded in a CFIRMAN2 manifest rebuilds on any machine without that
  /// machine knowing the preset it came from. deserialize() throws
  /// std::runtime_error on truncation or trailing bytes (a config from a
  /// build with a different field set).
  void serialize(util::ByteWriter& out) const;
  [[nodiscard]] static CoreConfig deserialize(util::ByteReader& in);

  /// One configuration field flattened to (name, value) — the same list and
  /// order as digest()/serialize(), for display (`trace_tool info`) and for
  /// tests that must cover every field.
  struct NamedValue {
    const char* name;
    uint64_t value;
  };
  [[nodiscard]] std::vector<NamedValue> fields() const;
};

}  // namespace cfir::core

// Every configuration field of CoreConfig as X(kind, field), in declaration
// order. `kind` selects the encoding (u32 | u64 | boolean | policy) and
// `field` is the member expression (nested cache geometry spelled out; the
// CacheConfig `name` is a display label, not configuration, and is
// deliberately absent). digest(), serialize(), deserialize() and fields()
// are all generated from this one list, and the digest-sensitivity test
// (tests/test_config.cpp) flips every entry — so a field added to the
// struct but not listed here is caught, and one listed here but removed
// from the struct fails to compile.
//
// The expansion order and encodings reproduce the pre-X-macro digest()
// byte-for-byte, so config hashes (and the manifests that record them)
// are unchanged.
#define CFIR_CORECONFIG_FIELDS(X)       \
  X(u32, fetch_width)                   \
  X(u32, decode_width)                  \
  X(u32, recovery_penalty)              \
  X(u32, rob_size)                      \
  X(u32, issue_width)                   \
  X(u32, commit_width)                  \
  X(u32, lsq_size)                      \
  X(u32, num_phys_regs)                 \
  X(u32, simple_int_units)              \
  X(u32, int_alu_latency)               \
  X(u32, muldiv_units)                  \
  X(u32, mul_latency)                   \
  X(u32, div_latency)                   \
  X(u32, branch_latency)                \
  X(u32, cache_ports)                   \
  X(boolean, wide_bus)                  \
  X(u32, wide_bus_loads_per_access)     \
  X(u32, agu_latency)                   \
  X(u32, memory.l1i.size_bytes)         \
  X(u32, memory.l1i.assoc)              \
  X(u32, memory.l1i.line_bytes)         \
  X(u32, memory.l1i.hit_latency)        \
  X(u32, memory.l1d.size_bytes)         \
  X(u32, memory.l1d.assoc)              \
  X(u32, memory.l1d.line_bytes)         \
  X(u32, memory.l1d.hit_latency)        \
  X(u32, memory.l2.size_bytes)          \
  X(u32, memory.l2.assoc)               \
  X(u32, memory.l2.line_bytes)          \
  X(u32, memory.l2.hit_latency)         \
  X(u32, memory.l3.size_bytes)          \
  X(u32, memory.l3.assoc)               \
  X(u32, memory.l3.line_bytes)          \
  X(u32, memory.l3.hit_latency)         \
  X(u32, memory.memory_latency)         \
  X(u32, gshare_entries)                \
  X(u32, gshare_history_bits)           \
  X(policy, policy)                     \
  X(u32, replicas)                      \
  X(u32, stridedpc_per_entry)           \
  X(u32, srsmt_sets)                    \
  X(u32, srsmt_ways)                    \
  X(u32, stride_sets)                   \
  X(u32, stride_ways)                   \
  X(u32, mbs_sets)                      \
  X(u32, mbs_ways)                      \
  X(u32, nrbq_entries)                  \
  X(u32, daec_threshold)                \
  X(u32, ci_select_window)              \
  X(u32, replica_reg_reserve)           \
  X(u32, squash_reuse_entries)          \
  X(boolean, use_spec_memory)           \
  X(u32, spec_memory_slots)             \
  X(u32, spec_memory_latency)           \
  X(u32, spec_memory_read_ports)        \
  X(u32, spec_memory_write_ports)       \
  X(u64, watchdog_cycles)               \
  X(u64, deadlock_cycles)
