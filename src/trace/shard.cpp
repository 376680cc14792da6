#include "trace/shard.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "trace/blob.hpp"
#include "trace/errors.hpp"
#include "trace/warming.hpp"
#include "util/parse.hpp"
#include "util/warmable.hpp"

namespace cfir::trace {

namespace {
/// Magic of the retired single-column layout, recognised only to reject it.
constexpr char kRetiredShardMagic[8] = {'C', 'F', 'I', 'R',
                                        'S', 'H', 'D', '1'};

/// Loads the checkpoint files of plan intervals [first, last) side by side
/// on the pool — each is an independent read, CRC and page decode — and
/// rejects a file not captured at its interval's position (the plan's
/// checkpoints[i].executed): a wrong or swapped .cfirckpt in the manifest
/// directory.
std::vector<Checkpoint> load_checkpoint_range(const IntervalPlan& plan,
                                              size_t first, size_t last,
                                              int threads) {
  std::vector<Checkpoint> loaded(last - first);
  sim::parallel_for(
      loaded.size(),
      [&](size_t j) {
        const size_t i = first + j;
        loaded[j] = Checkpoint::load(plan.checkpoint_files[i]);
        const uint64_t at = plan.checkpoints[i].executed;
        if (loaded[j].executed != at) {
          throw CorruptFileError(
              "ShardManifest: the checkpoint file for interval " +
              std::to_string(i) + " was captured at instruction " +
              std::to_string(loaded[j].executed) +
              " but the schedule expects " + std::to_string(at) +
              " — wrong or swapped .cfirckpt in the manifest directory; "
              "re-plan it");
        }
      },
      threads);
  return loaded;
}
}  // namespace

ShardSelection parse_shard(std::string_view spec) {
  const auto malformed = [&] {
    return util::UsageError("parse_shard: expected 'i/N', got '" +
                            std::string(spec) + "'");
  };
  const size_t slash = spec.find('/');
  if (slash == std::string_view::npos || slash == 0 ||
      slash + 1 >= spec.size()) {
    throw malformed();
  }
  ShardSelection sel;
  try {
    sel.index = static_cast<uint32_t>(util::parse_decimal(
        "shard index", spec.substr(0, slash), UINT32_MAX));
    sel.count = static_cast<uint32_t>(util::parse_decimal(
        "shard count", spec.substr(slash + 1), UINT32_MAX));
  } catch (const std::runtime_error&) {
    throw malformed();
  }
  if (sel.count == 0 || sel.index >= sel.count) {
    throw util::UsageError("parse_shard: shard index " +
                           std::to_string(sel.index) +
                           " out of range for count " +
                           std::to_string(sel.count));
  }
  return sel;
}

std::vector<uint8_t> ShardResult::serialize() const {
  util::ByteWriter out;
  for (const char c : kShardMagicV2) out.u8(static_cast<uint8_t>(c));
  out.u32(kShardVersion);
  out.u32(0);  // reserved
  out.u64(plan_hash);
  out.u32(shard_index);
  out.u32(shard_count);
  out.u32(plan_intervals);
  out.u64(total_insts);
  out.boolean(ran_to_halt);
  out.u64(warmed_insts);
  out.u64(warm_wall_us);
  out.u32(static_cast<uint32_t>(configs.size()));
  for (const ConfigColumn& cc : configs) {
    put_string(out, cc.name);
    out.u64(cc.config_hash);
    out.u64(cc.detailed_insts);
  }
  out.u32(static_cast<uint32_t>(intervals.size()));
  for (const Interval& iv : intervals) {
    out.u32(iv.plan_index);
    out.u64(iv.start_inst);
    out.u64(iv.length);
    out.u64(iv.warmup);
    out.u64(std::bit_cast<uint64_t>(iv.weight));
    if (iv.stats.size() != configs.size()) {
      throw std::runtime_error(
          "ShardResult::serialize: interval stats/config column mismatch");
    }
    if (!iv.wall_us.empty() && iv.wall_us.size() != configs.size()) {
      throw std::runtime_error(
          "ShardResult::serialize: interval wall/config column mismatch");
    }
    for (const stats::SimStats& s : iv.stats) stats::serialize(s, out);
    for (size_t c = 0; c < configs.size(); ++c) {
      out.u64(iv.wall_us.empty() ? 0 : iv.wall_us[c]);
    }
  }
  return out.take();
}

ShardResult ShardResult::deserialize(const std::vector<uint8_t>& payload) {
  if (payload.size() < sizeof(kShardMagicV2) ||
      std::memcmp(payload.data(), kShardMagicV2, sizeof(kShardMagicV2)) !=
          0) {
    if (payload.size() >= sizeof(kRetiredShardMagic) &&
        std::memcmp(payload.data(), kRetiredShardMagic,
                    sizeof(kRetiredShardMagic)) == 0) {
      throw VersionError(
          "ShardResult: the CFIRSHD1 layout is no longer read; re-run the "
          "shard");
    }
    throw BadMagicError("ShardResult: bad magic (not a CFIRSHD file)");
  }
  try {
    util::ByteReader in(payload.data() + sizeof(kShardMagicV2),
                        payload.size() - sizeof(kShardMagicV2));
    const uint32_t version = in.u32();
    if (version != kShardVersion) {
      throw VersionError("ShardResult: unsupported version " +
                         std::to_string(version));
    }
    (void)in.u32();  // reserved

    ShardResult r;
    r.plan_hash = in.u64();
    r.shard_index = in.u32();
    r.shard_count = in.u32();
    r.plan_intervals = in.u32();
    r.total_insts = in.u64();
    r.ran_to_halt = in.boolean();
    r.warmed_insts = in.u64();
    r.warm_wall_us = in.u64();
    const uint32_t nc = in.u32();
    if (nc == 0 || nc > 4096) {
      throw CorruptFileError("ShardResult: corrupt config column count " +
                             std::to_string(nc));
    }
    r.configs.resize(nc);
    for (ConfigColumn& cc : r.configs) {
      cc.name = get_string(in, "ShardResult config name");
      cc.config_hash = in.u64();
      cc.detailed_insts = in.u64();
    }
    // A forged count must not size the vector: each interval encodes at
    // least its index, four u64 fields and one u64 wall per column.
    const uint32_t n = in.u32();
    if (n > in.remaining() / (4 + 4 * 8 + 8 * nc)) {
      throw CorruptFileError("ShardResult: corrupt interval count " +
                             std::to_string(n));
    }
    r.intervals.resize(n);
    for (Interval& iv : r.intervals) {
      iv.plan_index = in.u32();
      iv.start_inst = in.u64();
      iv.length = in.u64();
      iv.warmup = in.u64();
      iv.weight = std::bit_cast<double>(in.u64());
      if (!std::isfinite(iv.weight) || iv.weight < 0) {
        throw CorruptFileError("ShardResult: corrupt interval weight " +
                               std::to_string(iv.weight));
      }
      iv.stats.reserve(r.configs.size());
      for (size_t c = 0; c < r.configs.size(); ++c) {
        iv.stats.push_back(stats::deserialize_stats(in));
      }
      iv.wall_us.resize(r.configs.size());
      for (uint64_t& w : iv.wall_us) w = in.u64();
    }
    if (!in.done()) {
      throw CorruptFileError("ShardResult: trailing bytes after intervals");
    }
    return r;
  } catch (const VersionError&) {
    throw;
  } catch (const CorruptFileError&) {
    throw;
  } catch (const std::exception&) {
    throw CorruptFileError("ShardResult: truncated payload");
  }
}

void ShardResult::save(const std::string& path) const {
  write_blob_file(path, serialize());
}

ShardResult ShardResult::load(const std::string& path) {
  return deserialize(read_blob_file(path, "ShardResult"));
}

ShardResult run_shard(const std::vector<ConfigBinding>& configs,
                      const isa::Program& program, const IntervalPlan& plan,
                      ShardSelection shard, int threads, uint64_t plan_hash,
                      const std::string&) {
  const size_t k = plan.boundaries.size();
  const bool from_files = !plan.checkpoint_files.empty();
  if (plan.lengths.size() != k || plan.weights.size() != k ||
      plan.checkpoints.size() != k ||
      (from_files && plan.checkpoint_files.size() != k)) {
    throw std::runtime_error("run_shard: malformed plan");
  }
  if (configs.empty()) {
    throw std::runtime_error("run_shard: no config bindings");
  }
  if (shard.count == 0 || shard.index >= shard.count) {
    throw std::runtime_error("run_shard: shard " +
                             std::to_string(shard.index) + "/" +
                             std::to_string(shard.count) + " out of range");
  }
  const size_t nc = configs.size();
  obs::Span shard_span("run_shard", shard.index);

  ShardResult result;
  result.plan_hash = plan_hash;
  result.shard_index = shard.index;
  result.shard_count = shard.count;
  result.plan_intervals = static_cast<uint32_t>(k);
  result.total_insts = plan.total_insts;
  result.ran_to_halt = plan.ran_to_halt;
  result.configs.reserve(nc);
  for (const ConfigBinding& b : configs) {
    result.configs.push_back(
        {b.name, b.config_hash != 0 ? b.config_hash : b.config.digest(), 0});
  }

  // This shard's contiguous range of plan indices; interval j of the
  // result is plan interval first + j. A plan rebuilt from a manifest
  // names its checkpoint files: only this range's are read.
  const size_t first = shard.begin(k);
  const size_t last = shard.end(k);
  const std::vector<Checkpoint> loaded =
      from_files ? load_checkpoint_range(plan, first, last, threads)
                 : std::vector<Checkpoint>{};
  const auto checkpoint = [&](size_t j) -> const Checkpoint& {
    return from_files ? loaded[j] : plan.checkpoints[first + j];
  };
  result.intervals.resize(last - first);
  for (size_t j = 0; j < result.intervals.size(); ++j) {
    const size_t i = first + j;
    if (plan.checkpoints[i].executed > plan.boundaries[i]) {
      throw std::runtime_error(
          "run_shard: checkpoint past its interval boundary");
    }
    ShardResult::Interval& iv = result.intervals[j];
    iv.plan_index = static_cast<uint32_t>(i);
    iv.start_inst = plan.boundaries[i];
    iv.length = plan.lengths[i];
    iv.weight = plan.weights[i];
    iv.warmup = plan.boundaries[i] - plan.checkpoints[i].executed;
    iv.stats.resize(nc);
    iv.wall_us.assign(nc, 0);
  }

  // Functional warm state: stream the committed prefix up to THIS shard's
  // last interval in ONE pass, fanning the records out to every config's
  // warmer, because the committed stream is config-independent.
  // A subset capture matches the full one bit for bit (warm state at
  // instruction N does not depend on which other snapshots the pass
  // takes). `warmed_insts` records the coverage once, however many
  // configs shared the stream.
  obs::Registry& reg = obs::Registry::instance();
  const bool functional = warm_mode_has_functional_prefix(plan.warm_mode);
  std::vector<size_t> capture_slot(nc);  // index into `captured`
  std::vector<std::vector<std::vector<uint8_t>>> captured;  // [slot][j]
  if (functional) {
    std::vector<core::CoreConfig> need;
    // Configs with coinciding warm-relevant geometry (warm_digest) train
    // byte-identical warm state from the same committed stream, so they
    // share one capture slot: the shard holds one set of blobs per
    // distinct warm digest, however many columns read it.
    std::unordered_map<uint64_t, size_t> slot_by_digest;
    for (size_t c = 0; c < nc; ++c) {
      const auto [it, fresh] = slot_by_digest.emplace(
          configs[c].config.warm_digest(), need.size());
      if (fresh) need.push_back(configs[c].config);
      capture_slot[c] = it->second;
    }
    std::vector<uint64_t> targets;
    targets.reserve(result.intervals.size());
    for (const ShardResult::Interval& iv : result.intervals) {
      const uint64_t at = plan.checkpoints[iv.plan_index].executed;
      targets.push_back(at);
      result.warmed_insts += at;
    }
    const obs::Stopwatch warm_clock;
    captured = capture_warm_states_grid(need, program, targets);
    result.warm_wall_us = warm_clock.elapsed_us();
    reg.histogram("shard.warm_capture_us").observe(result.warm_wall_us);
  }

  // Detailed-simulate the grid in parallel, one pool task per (interval
  // × capacity family): the columns whose configs differ only in
  // registers and ROB (CoreConfig::family_digest) start from one
  // checkpoint and warm blob, so sim::run_family runs them from the
  // smallest up and a unit that an unbound unit of the same interval
  // covers takes that unit's stats and reports zero wall time. An
  // interval whose measured window reaches the end of a halting run
  // executes unbounded so the core retires HALT and reports `halted` like
  // a monolithic run — even when the window is empty (a program that
  // halts at instruction 0).
  std::vector<std::vector<size_t>> families;
  std::unordered_map<uint64_t, size_t> family_of;
  for (size_t c = 0; c < nc; ++c) {
    const auto [it, fresh] = family_of.emplace(
        configs[c].config.family_digest(), families.size());
    if (fresh) families.emplace_back();
    families[it->second].push_back(c);
  }
  const size_t nf = families.size();
  obs::Histogram& unit_hist = reg.histogram("shard.unit_us");
  obs::Histogram& restore_hist = reg.histogram("shard.restore_us");
  obs::Histogram& install_hist = reg.histogram("shard.install_us");
  obs::Histogram& detail_hist = reg.histogram("shard.detail_us");
  obs::Counter& detail_units = reg.counter("shard.detail_units");
  obs::Counter& detail_insts = reg.counter("shard.detail_insts");
  obs::Counter& units_reused = reg.counter("shard.units_reused");
  sim::parallel_for(
      result.intervals.size() * nf,
      [&](size_t p) {
        const size_t j = p / nf;
        const size_t i = first + j;
        ShardResult::Interval& interval = result.intervals[j];
        const bool run_to_halt =
            plan.ran_to_halt &&
            interval.start_inst + interval.length == plan.total_insts;
        if (interval.length == 0 && !run_to_halt) return;
        const auto simulate = [&](size_t c) {
          const obs::Stopwatch unit_clock;
          std::unique_ptr<sim::Simulator> sim;
          {
            obs::Span restore_span("checkpoint.restore",
                                   static_cast<uint64_t>(i));
            sim = std::make_unique<sim::Simulator>(configs[c].config, program,
                                                   checkpoint(j));
          }
          const uint64_t restored_us = unit_clock.elapsed_us();
          uint64_t installed_us = restored_us;
          if (functional) {
            obs::Span warm_span("warming", static_cast<uint64_t>(i));
            install_warm_state(captured[capture_slot[c]][j], *sim);
            installed_us = unit_clock.elapsed_us();
          }
          stats::SimStats warm_stats;
          if (interval.warmup > 0) {
            obs::Span warm_span("warming", static_cast<uint64_t>(i));
            warm_stats = sim->run(interval.warmup);
          }
          stats::SimStats& s = interval.stats[c];
          {
            obs::Span detail_span("detail", static_cast<uint64_t>(i));
            s = sim->run(run_to_halt ? UINT64_MAX
                                     : interval.warmup + interval.length);
          }
          s.subtract(warm_stats);
          // Episode counters are only hierarchical (total >= selected >=
          // reused, a ci::CiMechanism invariant) within one contiguous
          // run. The warm-up boundary can split an episode — selected
          // during the warm-up slice, reused in the measured window — so
          // re-clamp the measured slice: credit that belongs to warm-up
          // state is discarded with the rest of the warm-up.
          s.ep_ci_selected = std::min(s.ep_ci_selected, s.ep_total);
          s.ep_ci_reused = std::min(s.ep_ci_reused, s.ep_ci_selected);

          // Telemetry for this (interval, config) unit. wall_us is
          // written by exactly one worker (this unit's), so no lock is
          // needed.
          const uint64_t unit_us = unit_clock.elapsed_us();
          interval.wall_us[c] = unit_us;
          unit_hist.observe(unit_us);
          restore_hist.observe(restored_us);
          if (functional) install_hist.observe(installed_us - restored_us);
          detail_hist.observe(unit_us - installed_us);
          detail_units.increment();
          detail_insts.add(s.committed + interval.warmup);
          return sim->hit_capacity();
        };
        sim::run_family(
            families[p % nf],
            [&](size_t c) -> const core::CoreConfig& {
              return configs[c].config;
            },
            simulate,
            [&](size_t c, size_t from) {
              interval.stats[c] = interval.stats[from];
              units_reused.increment();
            });
      },
      threads);

  for (const ShardResult::Interval& interval : result.intervals) {
    for (size_t c = 0; c < nc; ++c) {
      result.configs[c].detailed_insts +=
          interval.stats[c].committed + interval.warmup;
    }
  }
  return result;
}

ShardResult run_shard(const core::CoreConfig& config,
                      const isa::Program& program, const IntervalPlan& plan,
                      ShardSelection shard, int threads) {
  return run_shard({ConfigBinding{config.label(), config}}, program, plan,
                   shard, threads);
}

MergedGrid merge_shard_grid(const std::vector<ShardResult>& shards) {
  if (shards.empty()) {
    throw std::runtime_error("merge_shard_grid: no shard results");
  }
  const ShardResult& first = shards.front();
  if (first.configs.empty()) {
    throw CorruptFileError("merge_shard_grid: shard carries no config columns");
  }
  for (const ShardResult& s : shards) {
    if (s.plan_hash != first.plan_hash) {
      throw ConfigMismatchError(
          "merge_shard_grid: shard " + std::to_string(s.shard_index) + "/" +
          std::to_string(s.shard_count) +
          " was produced under a different plan (plan hash " +
          hex64(s.plan_hash) + " vs " + hex64(first.plan_hash) +
          ") — all shards of one merge must come from the same manifest");
    }
    bool same_grid = s.configs.size() == first.configs.size();
    for (size_t c = 0; same_grid && c < s.configs.size(); ++c) {
      same_grid = s.configs[c].name == first.configs[c].name &&
                  s.configs[c].config_hash == first.configs[c].config_hash;
    }
    if (!same_grid) {
      throw ConfigMismatchError(
          "merge_shard_grid: shard " + std::to_string(s.shard_index) + "/" +
          std::to_string(s.shard_count) +
          " carries a different config grid than the other shards — all "
          "shards of one merge must come from the same manifest");
    }
    if (s.plan_intervals != first.plan_intervals ||
        s.total_insts != first.total_insts ||
        s.ran_to_halt != first.ran_to_halt) {
      throw CorruptFileError(
          "merge_shard_grid: shard " + std::to_string(s.shard_index) + "/" +
          std::to_string(s.shard_count) +
          " disagrees with the other shards about the plan shape");
    }
  }

  // Coverage: every plan interval exactly once, in any shard order. Fewer
  // intervals than the plan holds leave one uncovered and are rejected
  // before the header's count sizes anything; at least as many, in range
  // and none repeated, cover every interval.
  size_t carried = 0;
  for (const ShardResult& s : shards) carried += s.intervals.size();
  if (carried < first.plan_intervals) {
    throw CorruptFileError(
        "merge_shard_grid: the shard results carry " +
        std::to_string(carried) + " intervals of a " +
        std::to_string(first.plan_intervals) +
        "-interval plan — merge needs every shard of the plan (0/N through "
        "N-1/N) exactly once");
  }
  std::vector<const ShardResult::Interval*> by_index(first.plan_intervals,
                                                     nullptr);
  for (const ShardResult& s : shards) {
    for (const ShardResult::Interval& iv : s.intervals) {
      if (iv.plan_index >= first.plan_intervals) {
        throw CorruptFileError(
            "merge_shard_grid: interval index " +
            std::to_string(iv.plan_index) + " out of range (plan has " +
            std::to_string(first.plan_intervals) + ")");
      }
      if (iv.stats.size() != first.configs.size()) {
        throw CorruptFileError(
            "merge_shard_grid: interval " + std::to_string(iv.plan_index) +
            " carries " + std::to_string(iv.stats.size()) +
            " stat columns for " + std::to_string(first.configs.size()) +
            " configs");
      }
      if (by_index[iv.plan_index] != nullptr) {
        throw CorruptFileError(
            "merge_shard_grid: interval " + std::to_string(iv.plan_index) +
            " appears in more than one shard result — the same shard was "
            "merged twice?");
      }
      by_index[iv.plan_index] = &iv;
    }
  }

  MergedGrid grid;
  grid.configs.resize(first.configs.size());
  for (size_t c = 0; c < first.configs.size(); ++c) {
    MergedGrid::ConfigRun& column = grid.configs[c];
    column.name = first.configs[c].name;
    column.config_hash = first.configs[c].config_hash;
    SampledRun& run = column.run;
    run.total_insts = first.total_insts;
    run.intervals.reserve(first.plan_intervals);
    std::vector<stats::WeightedStats> parts;
    parts.reserve(first.plan_intervals);
    for (uint32_t i = 0; i < first.plan_intervals; ++i) {
      const ShardResult::Interval& iv = *by_index[i];
      const uint64_t wall_us = iv.wall_us.empty() ? 0 : iv.wall_us[c];
      run.intervals.push_back({iv.start_inst, iv.length, iv.warmup,
                               iv.weight, iv.stats[c], wall_us});
      run.wall_us += wall_us;
      parts.push_back({iv.stats[c], iv.weight});
    }
    for (const ShardResult& s : shards) {
      run.detailed_insts += s.configs[c].detailed_insts;
      run.warmed_insts += s.warmed_insts;
      run.warm_wall_us += s.warm_wall_us;
    }
    run.aggregate = stats::merge_shards(parts);
    // In cluster mode the window containing HALT need not be a
    // representative; the plan still knows the run halted.
    run.aggregate.halted = run.aggregate.halted || first.ran_to_halt;
  }
  return grid;
}

SampledRun merge_shard_results(const std::vector<ShardResult>& shards) {
  MergedGrid grid = merge_shard_grid(shards);
  if (grid.configs.size() != 1) {
    throw std::runtime_error(
        "merge_shard_results: expected a single config column, got " +
        std::to_string(grid.configs.size()) +
        " — use merge_shard_grid for multi-config manifests");
  }
  return std::move(grid.configs.front().run);
}

}  // namespace cfir::trace
