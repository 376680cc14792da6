#include "trace/warming.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "ci/mechanism.hpp"
#include "isa/engine.hpp"
#include "mem/main_memory.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/pool.hpp"
#include "sim/simulator.hpp"
#include "trace/errors.hpp"
#include "util/parse.hpp"
#include "util/warmable.hpp"

namespace cfir::trace {

namespace {
/// Warm-state blob magics (docs/trace-format.md "Warm-state blob"): the
/// sparse WRM2 layout, and the dense WRM1 layout it replaced, which is
/// recognised only to be rejected.
constexpr uint32_t kWarmStateMagic = 0x324D5257;       // "WRM2"
constexpr uint32_t kDenseWarmStateMagic = 0x314D5257;  // "WRM1"
/// magic + policy + warmed + last_fetch_line.
constexpr size_t kWarmHeaderBytes = 4 + 1 + 8 + 8;

/// The ci and vect policies train the stride predictor, and only their
/// cores carry one (in a CiMechanism), so only their blobs hold its
/// section.
bool trains_stride(core::Policy policy) {
  return policy == core::Policy::kCi || policy == core::Policy::kVect;
}

/// Where one blob's sections decode to: a FunctionalWarmer's own
/// components, or a Simulator's.
struct WarmTargets {
  branch::Gshare& gshare;
  branch::MbsTable& mbs;
  branch::ReturnAddressStack& ras;
  ci::StridePredictor* stride;  ///< non-null exactly when trains_stride()
  mem::CacheHierarchy& hier;
};

struct WarmPosition {
  uint64_t warmed = 0;
  uint64_t last_fetch_line = 0;
};

/// The one WRM2 decoder behind FunctionalWarmer::deserialize_state and
/// install_warm_state: checks the header against `policy`, decodes every
/// section into `to`, and maps each failure onto the typed file errors.
WarmPosition decode_warm_state(const std::vector<uint8_t>& blob,
                               core::Policy policy, const WarmTargets& to) {
  if (blob.size() < kWarmHeaderBytes) {
    throw CorruptFileError("warm-state blob: truncated header");
  }
  util::ByteReader in(blob);
  const uint32_t magic = in.u32();
  if (magic == kDenseWarmStateMagic) {
    throw VersionError(
        "warm-state blob: the dense WRM1 layout is no longer read; re-plan "
        "to capture WRM2 warm state");
  }
  if (magic != kWarmStateMagic) {
    throw BadMagicError("warm-state blob: bad magic (not a WRM2 blob)");
  }
  if (in.u8() != static_cast<uint8_t>(policy)) {
    throw ConfigMismatchError(
        "warm-state blob: captured under a different policy");
  }
  WarmPosition pos;
  pos.warmed = in.u64();
  pos.last_fetch_line = in.u64();
  try {
    to.gshare.deserialize(in);
    to.mbs.deserialize(in);
    to.ras.deserialize(in);
    if (to.stride != nullptr) to.stride->deserialize(in);
    to.hier.deserialize(in);
  } catch (const util::GeometryMismatch& e) {
    throw ConfigMismatchError(std::string("warm-state blob: ") + e.what());
  } catch (const std::exception& e) {
    // Truncation (ByteReader underflow), or a count, slot or counter out
    // of range.
    throw CorruptFileError(std::string("warm-state blob: ") + e.what());
  }
  if (!in.done()) {
    throw CorruptFileError("warm-state blob: trailing bytes");
  }
  return pos;
}

/// Trains a stride-training policy's (trains_stride) predictor on one
/// committed load.
void train_stride(ci::StridePredictor& stride, core::Policy policy,
                  const TraceRecord& rec) {
  if (policy == core::Policy::kVect) {
    // The vect policy's commit rule (ci/mechanism.cpp on_commit): every
    // confident, non-zero-stride load is selected. Purely commit-driven,
    // so functional warming reproduces it exactly. The ci policy's S flags
    // are episode-driven (speculative state a commit stream cannot derive)
    // and deliberately stay cold: pre-selecting every strided load was
    // tried and over-drives the replica engine in short windows (twolf IPC
    // +45%), a worse bias than the cold-selection ramp it removes.
    stride.train_and_select(rec.pc, rec.addr);
  } else {
    stride.train(rec.pc, rec.addr);
  }
}

/// The sections of a WRM2 blob that every policy of one warm geometry
/// shares, serialized once per snapshot.
struct SharedSections {
  std::vector<uint8_t> predictors;  ///< gshare, MBS, RAS
  std::vector<uint8_t> hier;
};

SharedSections serialize_shared(const SharedWarmState& s) {
  util::ByteWriter predictors;
  s.gshare.serialize(predictors);
  s.mbs.serialize(predictors);
  s.ras.serialize(predictors);
  util::ByteWriter hier;
  s.hier.serialize(hier);
  return {predictors.take(), hier.take()};
}

std::vector<uint8_t> serialize_stride(const ci::StridePredictor& stride) {
  util::ByteWriter out;
  stride.serialize(out);
  return out.take();
}

/// One WRM2 blob: header, gshare, MBS, RAS, the stride section (exactly
/// for trains_stride policies) and the hierarchy. The one place the layout
/// is assembled, for solo warmers and grid groups alike.
std::vector<uint8_t> assemble_blob(core::Policy policy,
                                   const SharedWarmState& s,
                                   const SharedSections& shared,
                                   const std::vector<uint8_t>* stride) {
  util::ByteWriter out;
  out.u32(kWarmStateMagic);
  out.u8(static_cast<uint8_t>(policy));
  out.u64(s.warmed);
  out.u64(s.last_fetch_line);
  out.bytes(shared.predictors.data(), shared.predictors.size());
  if (stride != nullptr) out.bytes(stride->data(), stride->size());
  out.bytes(shared.hier.data(), shared.hier.size());
  static obs::Counter& snapshot_bytes =
      obs::Registry::instance().counter("warming.snapshot_bytes");
  snapshot_bytes.add(out.data().size());
  return out.take();
}

using Grid = std::vector<std::vector<std::vector<uint8_t>>>;

/// One shared warm geometry of a grid capture: the state its configs
/// train alike, one stride predictor per distinct stride-training policy
/// among them, and which config reads which.
struct WarmGroup {
  struct Stride {
    core::Policy policy;
    ci::StridePredictor predictor;
  };
  struct Member {
    size_t config;       ///< index into the grid's configs
    core::Policy policy;
    int stride;          ///< index into `strides`; -1 = no stride section
  };

  SharedWarmState shared;
  std::vector<Stride> strides;
  std::vector<Member> members;

  void train(const TraceRecord& rec) {
    shared.train(rec);
    if (rec.kind == RecordKind::kLoad) {
      for (Stride& s : strides) train_stride(s.predictor, s.policy, rec);
    }
  }

  /// Every member's blob for target `t`, from shared sections serialized
  /// once.
  void snapshot(size_t t, Grid& out) const {
    const SharedSections sections = serialize_shared(shared);
    std::vector<std::vector<uint8_t>> stride_bytes;
    stride_bytes.reserve(strides.size());
    for (const Stride& s : strides) {
      stride_bytes.push_back(serialize_stride(s.predictor));
    }
    for (const Member& m : members) {
      out[m.config][t] = assemble_blob(
          m.policy, shared, sections,
          m.stride >= 0 ? &stride_bytes[static_cast<size_t>(m.stride)]
                        : nullptr);
    }
  }
};

/// warm_digest() without the policy byte: configs that agree on it train
/// identical shared state, and identically shaped stride predictors where
/// their policies train one.
uint64_t shared_warm_digest(core::CoreConfig config) {
  config.policy = core::Policy::kNone;
  return config.warm_digest();
}

std::vector<WarmGroup> make_groups(const std::vector<core::CoreConfig>& configs,
                                   const isa::Program& program) {
  std::vector<WarmGroup> groups;
  std::unordered_map<uint64_t, size_t> group_of;
  for (size_t c = 0; c < configs.size(); ++c) {
    const core::CoreConfig& config = configs[c];
    const auto [it, fresh] =
        group_of.emplace(shared_warm_digest(config), groups.size());
    if (fresh) groups.push_back({SharedWarmState(config, program), {}, {}});
    WarmGroup& group = groups[it->second];
    int stride = -1;
    if (trains_stride(config.policy)) {
      const auto same = std::find_if(
          group.strides.begin(), group.strides.end(),
          [&](const WarmGroup::Stride& s) { return s.policy == config.policy; });
      stride = static_cast<int>(same - group.strides.begin());
      if (same == group.strides.end()) {
        group.strides.push_back(
            {config.policy,
             ci::StridePredictor(config.stride_sets, config.stride_ways)});
      }
    }
    group.members.push_back({c, config.policy, stride});
  }
  obs::Registry::instance().counter("warming.trainers").add(groups.size());
  return groups;
}

/// Fan-out batch: 16Ki records (640 KiB of TraceRecords), a quarter of a
/// default trace block. sim::run_all runs one capture per plan chain
/// concurrently, so up to one per pool thread is in flight; at a whole
/// 64Ki-record block each buffer was 2.6 MB, and four of them raised a
/// sampled grid's peak RSS by about a third. Alone, a 16Ki capture runs
/// within noise of a 64Ki one (bench/micro_warming), while 4Ki batches
/// pay for their extra fan-out rounds.
constexpr size_t kEngineBatch = 16 * 1024;

/// Pool workers one fan-out may borrow: with the calling thread, a batch
/// runs on at most the shared pool's size (CFIR_THREADS / hardware
/// concurrency) — so a 1-worker pool trains every config on the caller.
int fan_out_helpers() { return sim::ThreadPool::shared().size() - 1; }

/// Per-group fan-out of one engine batch: one task per group, each
/// walking the identical record span in stream order on its own (single
/// threaded) trainers and assembling snapshot blobs for the targets that
/// land inside the span — so serialization happens off the engine's
/// thread, inside the task that owns the group. Targets are consumed when
/// `pos` reaches them BEFORE the record at `pos` trains, so a blob covers
/// exactly [0, target); a target equal to the batch's end position is
/// deliberately left to the next batch (or the caller's finalization),
/// keeping the consumption point unambiguous. Returns the target index the
/// caller should resume from.
size_t feed_batch_grid(std::vector<WarmGroup>& groups,
                       const std::vector<TraceRecord>& batch,
                       uint64_t first_record,
                       const std::vector<uint64_t>& targets, size_t ti,
                       Grid& out) {
  obs::Registry& reg = obs::Registry::instance();
  const obs::Stopwatch feed_clock;
  const size_t nt = targets.size();
  sim::ThreadPool::shared().run(
      groups.size(),
      [&](size_t g) {
        WarmGroup& group = groups[g];
        size_t t = ti;
        uint64_t pos = first_record;
        for (const TraceRecord& rec : batch) {
          while (t < nt && targets[t] == pos) group.snapshot(t++, out);
          group.train(rec);
          ++pos;
        }
      },
      fan_out_helpers());
  reg.counter("warming.feed_us").add(feed_clock.elapsed_us());
  reg.counter("warming.batches").add(1);
  const uint64_t end = first_record + batch.size();
  while (ti < nt && targets[ti] < end) ++ti;
  return ti;
}

/// Snapshots targets [ti, nt) — all sitting exactly at the current
/// stream position — in parallel across groups.
void snapshot_tail_grid(const std::vector<WarmGroup>& groups,
                        const std::vector<uint64_t>& targets, size_t ti,
                        Grid& out) {
  if (ti >= targets.size()) return;
  sim::ThreadPool::shared().run(
      groups.size(),
      [&](size_t g) {
        for (size_t t = ti; t < targets.size(); ++t) {
          groups[g].snapshot(t, out);
        }
      },
      fan_out_helpers());
}
}  // namespace

const char* warm_mode_name(WarmMode mode) {
  switch (mode) {
    case WarmMode::kNone: return "none";
    case WarmMode::kDetailed: return "detailed";
    case WarmMode::kFunctional: return "functional";
    case WarmMode::kHybrid: return "hybrid";
  }
  return "?";
}

WarmMode parse_warm_mode(std::string_view what, std::string_view text) {
  for (const WarmMode mode : {WarmMode::kNone, WarmMode::kDetailed,
                              WarmMode::kFunctional, WarmMode::kHybrid}) {
    if (text == warm_mode_name(mode)) return mode;
  }
  throw util::UsageError(
      std::string(what) +
      " must be 'none', 'detailed', 'functional' or 'hybrid', got '" +
      std::string(text) + "'");
}

SharedWarmState::SharedWarmState(const core::CoreConfig& config,
                                 const isa::Program& program)
    : program(&program),
      gshare(config.gshare_entries, config.gshare_history_bits),
      mbs(config.mbs_sets, config.mbs_ways),
      hier(config.memory) {}

void SharedWarmState::train(const TraceRecord& rec) {
  // Instruction fetch: one L1I access per line transition, mirroring the
  // core's fetch stage (last_fetch_line_ there, last_fetch_line here).
  const uint64_t line = hier.l1i().line_of(rec.pc);
  if (line != last_fetch_line) {
    hier.warm_inst(rec.pc);
    last_fetch_line = line;
  }

  switch (rec.kind) {
    case RecordKind::kBranch:
      gshare.warm_commit(rec.pc, rec.taken);
      mbs.update(rec.pc, rec.taken);
      break;
    case RecordKind::kLoad:
      hier.warm_data(rec.addr, /*is_write=*/false);
      break;
    case RecordKind::kStore:
      hier.warm_data(rec.addr, /*is_write=*/true);
      break;
    case RecordKind::kPlain: {
      // CALL/RET drive the return address stack; recovery snapshots make
      // the detailed core's final RAS equal the committed push/pop stream.
      const isa::Instruction* ip = program->try_at(rec.pc);
      if (ip != nullptr) {
        if (ip->op == isa::Opcode::kCall) {
          ras.push(rec.pc + isa::kInstBytes);
        } else if (ip->op == isa::Opcode::kRet) {
          ras.pop();
        }
      }
      break;
    }
  }
  ++warmed;
}

FunctionalWarmer::FunctionalWarmer(const core::CoreConfig& config,
                                   const isa::Program& program)
    : policy_(config.policy),
      shared_(config, program),
      stride_(config.stride_sets, config.stride_ways) {}

void FunctionalWarmer::on_record(const TraceRecord& rec) {
  shared_.train(rec);
  if (rec.kind == RecordKind::kLoad && trains_stride(policy_)) {
    train_stride(stride_, policy_, rec);
  }
}

void FunctionalWarmer::advance_on_trace(TraceReader& reader,
                                        uint64_t n_insts,
                                        std::string_view context) {
  if (n_insts <= shared_.warmed) return;
  reader.seek_to(shared_.warmed);
  TraceRecord rec;
  while (shared_.warmed < n_insts) {
    if (!reader.next(rec)) {
      std::string msg =
          "FunctionalWarmer::advance_on_trace: trace ends at " +
          std::to_string(shared_.warmed) + " records, warm target " +
          std::to_string(n_insts);
      if (!context.empty()) {
        msg += " (";
        msg += context;
        msg += ")";
      }
      throw std::runtime_error(msg);
    }
    on_record(rec);  // advances shared_.warmed
  }
}

void FunctionalWarmer::apply_to(sim::Simulator& sim) const {
  core::Core& core = sim.core();
  core.gshare() = shared_.gshare;
  core.ras() = shared_.ras;
  core.mbs() = shared_.mbs;
  core.hierarchy() = shared_.hier;
  if (ci::CiMechanism* mech = sim.ci_mechanism()) {
    mech->stride_predictor() = stride_;
  }
}

std::vector<uint8_t> FunctionalWarmer::serialize_state() const {
  const bool stride = trains_stride(policy_);
  const std::vector<uint8_t> stride_bytes =
      stride ? serialize_stride(stride_) : std::vector<uint8_t>{};
  return assemble_blob(policy_, shared_, serialize_shared(shared_),
                       stride ? &stride_bytes : nullptr);
}

void FunctionalWarmer::deserialize_state(const std::vector<uint8_t>& blob) {
  const WarmPosition pos = decode_warm_state(
      blob, policy_,
      {shared_.gshare, shared_.mbs, shared_.ras,
       trains_stride(policy_) ? &stride_ : nullptr, shared_.hier});
  shared_.warmed = pos.warmed;
  shared_.last_fetch_line = pos.last_fetch_line;
}

void install_warm_state(const std::vector<uint8_t>& blob,
                        sim::Simulator& sim) {
  core::Core& core = sim.core();
  ci::CiMechanism* mech = sim.ci_mechanism();
  decode_warm_state(blob, core.config().policy,
                    {core.gshare(), core.mbs(), core.ras(),
                     mech != nullptr ? &mech->stride_predictor() : nullptr,
                     core.hierarchy()});
}

std::vector<std::vector<uint8_t>> capture_warm_states(
    const core::CoreConfig& config, const isa::Program& program,
    const std::vector<uint64_t>& targets) {
  return capture_warm_states_grid({config}, program, targets)[0];
}

std::vector<std::vector<std::vector<uint8_t>>> capture_warm_states_grid(
    const std::vector<core::CoreConfig>& configs, const isa::Program& program,
    const std::vector<uint64_t>& targets) {
  if (configs.empty()) {
    throw std::runtime_error("capture_warm_states_grid: no configs");
  }
  if (!std::is_sorted(targets.begin(), targets.end())) {
    throw std::runtime_error("capture_warm_states_grid: targets not sorted");
  }
  obs::Span span("warming.capture", targets.size());
  const obs::Stopwatch clock;
  std::vector<WarmGroup> groups = make_groups(configs, program);
  Grid out(configs.size(), std::vector<std::vector<uint8_t>>(targets.size()));

  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  // One persistent batch buffer: the sink fills it, the fan-out reads it,
  // clear() keeps the capacity across batches.
  std::vector<TraceRecord> batch;
  engine.on_block = [&](uint64_t, const isa::StepEvent* ev, size_t n) {
    for (size_t i = 0; i < n; ++i) batch.push_back(to_trace_record(ev[i]));
  };

  obs::Registry& reg = obs::Registry::instance();
  const uint64_t limit = targets.empty() ? 0 : targets.back();
  uint64_t pos = 0;
  size_t ti = 0;
  while (pos < limit) {
    batch.clear();
    const obs::Stopwatch engine_clock;
    engine.run_to(std::min(limit, pos + kEngineBatch));
    reg.counter("warming.decode_wait_us").add(engine_clock.elapsed_us());
    if (batch.empty()) break;  // program halted before the last target
    ti = feed_batch_grid(groups, batch, pos, targets, ti, out);
    pos += batch.size();
  }
  snapshot_tail_grid(groups, targets, ti, out);
  // The streamed prefix is counted once however many configs fanned out —
  // the same convention ShardResult::warmed_insts uses.
  reg.counter("warming.insts").add(pos);
  reg.histogram("warming.capture_us").observe(clock.elapsed_us());
  return out;
}

}  // namespace cfir::trace
