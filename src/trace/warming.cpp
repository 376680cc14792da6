#include "trace/warming.hpp"

#include <algorithm>
#include <cstring>
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

// The per-component trainers: the one place each training rule lives.
// SharedWarmState::train (the solo FunctionalWarmer) calls them in turn;
// a grid capture calls each on its own lane. The components they touch
// are disjoint, so each sees the committed stream in order either way.

/// The cache hierarchy on one committed instruction. Instruction fetch is
/// one L1I access per line transition, mirroring the core's fetch stage
/// (last_fetch_line_ there, `last_fetch_line` here).
void train_memory(SharedWarmState& s, const isa::StepEvent& ev) {
  const uint64_t line = s.hier.l1i().line_of(ev.pc);
  if (line != s.last_fetch_line) {
    s.hier.warm_inst(ev.pc);
    s.last_fetch_line = line;
  }
  if (ev.kind == isa::EventKind::kLoad) {
    s.hier.warm_data(ev.addr, /*is_write=*/false);
  } else if (ev.kind == isa::EventKind::kStore) {
    s.hier.warm_data(ev.addr, /*is_write=*/true);
  }
}

/// gshare and MBS on conditional branches, the RAS on CALL/RET.
void train_predictors(SharedWarmState& s, const isa::StepEvent& ev) {
  if (ev.kind == isa::EventKind::kBranch) {
    s.gshare.warm_commit(ev.pc, ev.taken);
    s.mbs.update(ev.pc, ev.taken);
  } else if (ev.kind == isa::EventKind::kPlain) {
    // CALL/RET drive the return address stack; recovery snapshots make
    // the detailed core's final RAS equal the committed push/pop stream.
    const isa::Instruction* ip = s.program->try_at(ev.pc);
    if (ip != nullptr) {
      if (ip->op == isa::Opcode::kCall) {
        s.ras.push(ev.pc + isa::kInstBytes);
      } else if (ip->op == isa::Opcode::kRet) {
        s.ras.pop();
      }
    }
  }
}

/// A stride-training policy's (trains_stride) predictor on one committed
/// instruction; only loads train it.
void train_stride(ci::StridePredictor& stride, core::Policy policy,
                  const isa::StepEvent& ev) {
  if (ev.kind != isa::EventKind::kLoad) return;
  if (policy == core::Policy::kVect) {
    // The vect policy's commit rule (ci/mechanism.cpp on_commit): every
    // confident, non-zero-stride load is selected. Purely commit-driven,
    // so functional warming reproduces it exactly. The ci policy's S flags
    // are episode-driven (speculative state a commit stream cannot derive)
    // and deliberately stay cold: pre-selecting every strided load was
    // tried and over-drives the replica engine in short windows (twolf IPC
    // +45%), a worse bias than the cold-selection ramp it removes.
    stride.train_and_select(ev.pc, ev.addr);
  } else {
    stride.train(ev.pc, ev.addr);
  }
}

// The sections of a WRM2 blob. A grid capture serializes each once per
// snapshot, on the lane that trains it, however many configs read it.

/// gshare, MBS and RAS.
std::vector<uint8_t> predictor_section(const SharedWarmState& s) {
  util::ByteWriter out;
  s.gshare.serialize(out);
  s.mbs.serialize(out);
  s.ras.serialize(out);
  return out.take();
}

std::vector<uint8_t> hierarchy_section(const SharedWarmState& s) {
  util::ByteWriter out;
  s.hier.serialize(out);
  return out.take();
}

std::vector<uint8_t> stride_section(const ci::StridePredictor& stride) {
  util::ByteWriter out;
  stride.serialize(out);
  return out.take();
}

/// One WRM2 blob: header, gshare, MBS, RAS, the stride section (exactly
/// for trains_stride policies) and the hierarchy. The one place the layout
/// is assembled, for solo warmers and grid groups alike: sized once, then
/// filled in order (little-endian, as util::ByteWriter writes).
std::vector<uint8_t> assemble_blob(core::Policy policy, uint64_t warmed,
                                   uint64_t last_fetch_line,
                                   const std::vector<uint8_t>& predictors,
                                   const std::vector<uint8_t>* stride,
                                   const std::vector<uint8_t>& hier) {
  std::vector<uint8_t> blob(kWarmHeaderBytes + predictors.size() +
                            (stride != nullptr ? stride->size() : 0) +
                            hier.size());
  uint8_t* at = blob.data();
  const auto put = [&at](const void* bytes, size_t n) {
    if (n > 0) std::memcpy(at, bytes, n);
    at += n;
  };
  const uint8_t policy_byte = static_cast<uint8_t>(policy);
  put(&kWarmStateMagic, sizeof kWarmStateMagic);
  put(&policy_byte, 1);
  put(&warmed, sizeof warmed);
  put(&last_fetch_line, sizeof last_fetch_line);
  put(predictors.data(), predictors.size());
  if (stride != nullptr) put(stride->data(), stride->size());
  put(hier.data(), hier.size());
  static obs::Counter& snapshot_bytes =
      obs::Registry::instance().counter("warming.snapshot_bytes");
  snapshot_bytes.add(blob.size());
  return blob;
}

/// One round's snapshots of one section, in target order.
using Sections = std::vector<std::vector<uint8_t>>;

/// One shared warm geometry of a grid capture: the state its configs
/// train alike, one stride predictor per distinct stride-training policy
/// among them, which config reads which, and the sections the current
/// round snapshotted. The stride predictors and the hierarchy start on
/// cache lines of their own, so lanes on different threads share none.
struct WarmGroup {
  struct alignas(64) Stride {
    core::Policy policy;
    ci::StridePredictor predictor;
    Sections sections;
  };
  struct Member {
    size_t config;       ///< index into the grid's configs
    core::Policy policy;
    int stride;          ///< index into `strides`; -1 = no stride section
  };

  SharedWarmState shared;
  std::vector<Stride> strides;
  std::vector<Member> members;
  Sections predictor_sections;
  Sections hier_sections;
  std::vector<uint64_t> fetch_lines;  ///< last_fetch_line at each snapshot
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
    if (fresh) {
      groups.push_back({SharedWarmState(config, program), {}, {}, {}, {}, {}});
    }
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
             ci::StridePredictor(config.stride_sets, config.stride_ways),
             {}});
      }
    }
    group.members.push_back({c, config.policy, stride});
  }
  obs::Registry::instance().counter("warming.trainers").add(groups.size());
  return groups;
}

/// One training lane of a group: components no other lane touches — the
/// cache hierarchy with its fetch-line state, the branch predictors
/// (gshare, MBS, RAS), or the group's stride predictors. The stride
/// predictors share one lane (each trains only on loads): a lane each
/// made a ci + vect round five tasks, one more than a 4-thread pool runs
/// at once.
struct Lane {
  enum Kind : uint8_t { kMemory, kPredictors, kStride };
  WarmGroup* group = nullptr;
  Kind kind = kMemory;
};

std::vector<Lane> make_lanes(std::vector<WarmGroup>& groups) {
  std::vector<Lane> lanes;
  for (WarmGroup& g : groups) {
    lanes.push_back({&g, Lane::kMemory});
    lanes.push_back({&g, Lane::kPredictors});
    if (!g.strides.empty()) lanes.push_back({&g, Lane::kStride});
  }
  return lanes;
}

/// Busy microseconds per lane kind, summed over every lane and round
/// (docs/observability.md): set against warming.feed_us, they say which
/// lane bounds a round.
obs::Counter& lane_busy_us(Lane::Kind kind) {
  static obs::Counter* const counters[] = {
      &obs::Registry::instance().counter("warming.lane_memory_us"),
      &obs::Registry::instance().counter("warming.lane_predictors_us"),
      &obs::Registry::instance().counter("warming.lane_stride_us"),
  };
  return *counters[kind];
}

/// Events per batch: 16Ki (512 KiB of StepEvents) per buffer, a quarter
/// of a default trace block. A capture holds two buffers, and
/// sim::run_all runs one capture per plan chain concurrently, so up to one
/// per pool thread is in flight. A sharded run's shard phase ran no
/// faster with 8Ki or 32Ki batches: smaller ones pay for more rounds,
/// larger ones for the first and last rounds, where the engine and the
/// lanes do not overlap.
constexpr size_t kEngineBatch = 16 * 1024;

/// Pool workers one round may borrow: with the calling thread, a round
/// runs on at most the shared pool's size (CFIR_THREADS / hardware
/// concurrency) — so a 1-worker pool runs the engine and every lane on
/// the caller.
int fan_out_helpers() { return sim::ThreadPool::shared().size() - 1; }

/// The events one round's lanes train on: `n` of them, the first at
/// stream position `first`. The lanes get these bounds by value, fixed
/// before the round starts; meanwhile the engine writes the other buffer.
struct EventSpan {
  const isa::StepEvent* events = nullptr;
  size_t n = 0;
  uint64_t first = 0;
};

/// Walks `span` in stream order on one lane: `train` on each event, and
/// `snapshot` for each of targets [ti, tj) when the stream reaches it,
/// BEFORE the event there trains, so a section covers exactly
/// [0, target). Targets the span does not reach (the end-of-stream round,
/// whose span is empty) snapshot after it.
template <class Train, class Snapshot>
void walk(EventSpan span, const uint64_t* targets, size_t ti, size_t tj,
          Train train, Snapshot snapshot) {
  size_t t = ti;
  for (size_t i = 0; i < span.n; ++i) {
    while (t < tj && targets[t] == span.first + i) {
      snapshot();
      ++t;
    }
    train(span.events[i]);
  }
  for (; t < tj; ++t) snapshot();
}

/// One lane's share of a round: trains its components on `span` and
/// serializes its section at each of the round's targets [ti, tj).
void run_lane(const Lane& lane, EventSpan span, const uint64_t* targets,
              size_t ti, size_t tj) {
  const obs::Stopwatch busy;
  WarmGroup& g = *lane.group;
  SharedWarmState& s = g.shared;
  switch (lane.kind) {
    case Lane::kMemory:
      g.hier_sections.clear();
      g.fetch_lines.clear();
      walk(
          span, targets, ti, tj,
          [&](const isa::StepEvent& ev) { train_memory(s, ev); },
          [&] {
            g.hier_sections.push_back(hierarchy_section(s));
            g.fetch_lines.push_back(s.last_fetch_line);
          });
      break;
    case Lane::kPredictors:
      g.predictor_sections.clear();
      walk(
          span, targets, ti, tj,
          [&](const isa::StepEvent& ev) { train_predictors(s, ev); },
          [&] { g.predictor_sections.push_back(predictor_section(s)); });
      break;
    case Lane::kStride:
      for (WarmGroup::Stride& st : g.strides) st.sections.clear();
      walk(
          span, targets, ti, tj,
          [&](const isa::StepEvent& ev) {
            for (WarmGroup::Stride& st : g.strides) {
              train_stride(st.predictor, st.policy, ev);
            }
          },
          [&] {
            for (WarmGroup::Stride& st : g.strides) {
              st.sections.push_back(stride_section(st.predictor));
            }
          });
      break;
  }
  lane_busy_us(lane.kind).add(busy.elapsed_us());
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

void SharedWarmState::train(const isa::StepEvent& ev) {
  train_memory(*this, ev);
  train_predictors(*this, ev);
  ++warmed;
}

FunctionalWarmer::FunctionalWarmer(const core::CoreConfig& config,
                                   const isa::Program& program)
    : policy_(config.policy),
      shared_(config, program),
      stride_(config.stride_sets, config.stride_ways) {}

void FunctionalWarmer::on_record(const isa::StepEvent& ev) {
  shared_.train(ev);
  if (trains_stride(policy_)) train_stride(stride_, policy_, ev);
}

void FunctionalWarmer::advance_on_trace(TraceReader& reader,
                                        uint64_t n_insts,
                                        std::string_view context) {
  if (n_insts <= shared_.warmed) return;
  reader.seek_to(shared_.warmed);
  isa::StepEvent ev;
  while (shared_.warmed < n_insts) {
    if (!reader.next(ev)) {
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
    on_record(ev);  // advances shared_.warmed
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
      stride ? stride_section(stride_) : std::vector<uint8_t>{};
  return assemble_blob(policy_, shared_.warmed, shared_.last_fetch_line,
                       predictor_section(shared_),
                       stride ? &stride_bytes : nullptr,
                       hierarchy_section(shared_));
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
  const std::vector<Lane> lanes = make_lanes(groups);
  std::vector<std::vector<std::vector<uint8_t>>> out(
      configs.size(), std::vector<std::vector<uint8_t>>(targets.size()));

  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  // Two batch buffers: while the lanes train on one, the engine writes the
  // next batch straight into the other. `filled[b]` counts buffer b's
  // events.
  std::vector<isa::StepEvent> buffers[2];
  for (std::vector<isa::StepEvent>& b : buffers) b.resize(kEngineBatch);
  size_t filled[2] = {0, 0};
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& engine_us = reg.counter("warming.decode_wait_us");
  obs::Counter& round_us = reg.counter("warming.feed_us");
  obs::Counter& rounds = reg.counter("warming.batches");
  const uint64_t limit = targets.empty() ? 0 : targets.back();
  const auto run_engine = [&](size_t b) {
    const obs::Stopwatch engine_clock;
    filled[b] = engine.run_into(
        buffers[b].data(),
        std::min<uint64_t>(kEngineBatch, limit - engine.executed()));
    engine_us.add(engine_clock.elapsed_us());
  };

  // Round r runs the engine into buffer (r+1)%2 (index 0, which the
  // submitting thread always claims) while the lanes train on buffer r%2
  // (indices 1 and up). A round whose buffer is empty is the end of the
  // stream: it snapshots every remaining target at the final state.
  run_engine(0);
  uint64_t pos = 0;  // stream position of the current buffer's first event
  size_t ti = 0;
  for (size_t cur = 0;; cur ^= 1) {
    const EventSpan batch{buffers[cur].data(), filled[cur], pos};
    const uint64_t end = pos + batch.n;
    size_t tj = ti;
    while (tj < targets.size() && (batch.n == 0 || targets[tj] < end)) ++tj;
    if (batch.n == 0 && ti == tj) break;
    const obs::Stopwatch round_clock;
    sim::ThreadPool::shared().run(
        1 + lanes.size(),
        [&](size_t i) {
          if (i == 0) {
            if (batch.n != 0) run_engine(cur ^ 1);
          } else {
            run_lane(lanes[i - 1], batch, targets.data(), ti, tj);
          }
        },
        fan_out_helpers());
    round_us.add(round_clock.elapsed_us());
    rounds.increment();
    // Every member's blob for each target the round reached, assembled
    // from the sections its group's lanes serialized once.
    for (size_t t = ti; t < tj; ++t) {
      const size_t k = t - ti;
      for (const WarmGroup& g : groups) {
        for (const WarmGroup::Member& m : g.members) {
          out[m.config][t] = assemble_blob(
              m.policy, std::min(targets[t], end), g.fetch_lines[k],
              g.predictor_sections[k],
              m.stride >= 0
                  ? &g.strides[static_cast<size_t>(m.stride)].sections[k]
                  : nullptr,
              g.hier_sections[k]);
        }
      }
    }
    ti = tj;
    pos = end;
    if (batch.n == 0) break;
  }
  // The streamed prefix is counted once however many configs fanned out —
  // the same convention ShardResult::warmed_insts uses.
  reg.counter("warming.insts").add(pos);
  reg.histogram("warming.capture_us").observe(clock.elapsed_us());
  return out;
}

}  // namespace cfir::trace
