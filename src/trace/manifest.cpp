#include "trace/manifest.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "sim/sweep.hpp"
#include "trace/blob.hpp"
#include "trace/errors.hpp"
#include "util/warmable.hpp"

namespace cfir::trace {

namespace {

/// Magic of the retired single-config layout, recognised only to reject it.
constexpr char kRetiredManifestMagic[8] = {'C', 'F', 'I', 'R',
                                           'M', 'A', 'N', '1'};

/// Directory part of `path` ("" when it has none), used to resolve the
/// relative checkpoint file names.
std::string dir_of(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string resolve(const std::string& manifest_path,
                    const std::string& name) {
  const std::string dir = dir_of(manifest_path);
  return dir.empty() ? name : dir + "/" + name;
}

std::string basename_of(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

std::string path_stem(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path;
  }
  return path.substr(0, dot);
}

std::vector<uint8_t> ShardManifest::serialize() const {
  util::ByteWriter out;
  for (const char c : kManifestMagicV2) out.u8(static_cast<uint8_t>(c));
  out.u32(kManifestVersion);
  out.u32(0);  // reserved
  out.u64(plan_hash);
  out.u8(static_cast<uint8_t>(mode));
  out.u8(static_cast<uint8_t>(warm_mode));
  out.u64(warmup);
  out.u64(total_insts);
  out.u64(interval_len);
  out.boolean(ran_to_halt);
  out.u32(scale);
  put_string(out, workload);
  out.u32(static_cast<uint32_t>(configs.size()));
  for (const ConfigBinding& b : configs) {
    put_string(out, b.name);
    out.u64(b.config_hash);
    util::ByteWriter cfg;
    b.config.serialize(cfg);
    out.u32(static_cast<uint32_t>(cfg.data().size()));
    out.bytes(cfg.data().data(), cfg.data().size());
  }
  out.u32(static_cast<uint32_t>(intervals.size()));
  for (const IntervalRef& iv : intervals) {
    out.u64(iv.start);
    out.u64(iv.length);
    out.u64(std::bit_cast<uint64_t>(iv.weight));
    put_string(out, iv.checkpoint_file);
  }
  return out.take();
}

ShardManifest ShardManifest::deserialize(
    const std::vector<uint8_t>& payload) {
  if (payload.size() < sizeof(kManifestMagicV2) ||
      std::memcmp(payload.data(), kManifestMagicV2,
                  sizeof(kManifestMagicV2)) != 0) {
    if (payload.size() >= sizeof(kRetiredManifestMagic) &&
        std::memcmp(payload.data(), kRetiredManifestMagic,
                    sizeof(kRetiredManifestMagic)) == 0) {
      throw VersionError(
          "ShardManifest: the single-config CFIRMAN1 layout is no longer "
          "read; re-plan to write a CFIRMAN2 manifest");
    }
    throw BadMagicError("ShardManifest: bad magic (not a CFIRMAN file)");
  }
  try {
    util::ByteReader in(payload.data() + sizeof(kManifestMagicV2),
                        payload.size() - sizeof(kManifestMagicV2));
    const uint32_t version = in.u32();
    if (version != kManifestVersion) {
      throw VersionError("ShardManifest: unsupported version " +
                         std::to_string(version));
    }
    (void)in.u32();  // reserved

    ShardManifest m;
    m.plan_hash = in.u64();
    m.mode = static_cast<SampleMode>(in.u8());
    if (m.mode > SampleMode::kCluster) {
      throw CorruptFileError("ShardManifest: corrupt sample mode " +
                             std::to_string(static_cast<int>(m.mode)));
    }
    m.warm_mode = static_cast<WarmMode>(in.u8());
    if (m.warm_mode > WarmMode::kHybrid) {
      throw CorruptFileError("ShardManifest: corrupt warm mode " +
                             std::to_string(static_cast<int>(m.warm_mode)));
    }
    m.warmup = in.u64();
    m.total_insts = in.u64();
    m.interval_len = in.u64();
    m.ran_to_halt = in.boolean();
    m.scale = in.u32();
    m.workload = get_string(in, "ShardManifest workload name");
    const uint32_t nc = in.u32();
    if (nc == 0 || nc > 4096) {
      throw CorruptFileError("ShardManifest: corrupt config point count " +
                             std::to_string(nc));
    }
    m.configs.resize(nc);
    for (ConfigBinding& b : m.configs) {
      b.name = get_string(in, "ShardManifest config name");
      b.config_hash = in.u64();
      const uint32_t cfg_len = in.u32();
      if (cfg_len > 4096 || cfg_len > in.remaining()) {
        throw CorruptFileError(
            "ShardManifest: corrupt embedded config length " +
            std::to_string(cfg_len));
      }
      std::vector<uint8_t> cfg_bytes(cfg_len);
      in.bytes(cfg_bytes.data(), cfg_len);
      util::ByteReader cfg(cfg_bytes);
      b.config = core::CoreConfig::deserialize(cfg);
      if (!cfg.done()) {
        throw CorruptFileError(
            "ShardManifest: trailing bytes after embedded config");
      }
    }
    // A forged count must not size the vector: each interval encodes at
    // least three u64 fields and a file-name length.
    const uint32_t n = in.u32();
    if (n > in.remaining() / (3 * 8 + 4)) {
      throw CorruptFileError("ShardManifest: corrupt interval count " +
                             std::to_string(n));
    }
    m.intervals.resize(n);
    for (IntervalRef& iv : m.intervals) {
      iv.start = in.u64();
      iv.length = in.u64();
      iv.weight = std::bit_cast<double>(in.u64());
      if (!std::isfinite(iv.weight) || iv.weight < 0) {
        throw CorruptFileError("ShardManifest: corrupt interval weight " +
                               std::to_string(iv.weight));
      }
      iv.checkpoint_file = get_string(in, "ShardManifest checkpoint file name");
    }
    if (!in.done()) {
      throw CorruptFileError("ShardManifest: trailing bytes after intervals");
    }
    return m;
  } catch (const VersionError&) {
    throw;
  } catch (const CorruptFileError&) {
    throw;
  } catch (const std::exception&) {
    throw CorruptFileError("ShardManifest: truncated payload");
  }
}

void ShardManifest::save(const std::string& path) const {
  write_blob_file(path, serialize());
}

ShardManifest ShardManifest::load(const std::string& path) {
  return deserialize(read_blob_file(path, "ShardManifest"));
}

uint64_t plan_structure_hash(const std::string& workload, uint32_t scale,
                             const IntervalPlan& plan) {
  util::Digest d;
  // A fixed leading tag: part of the hash every existing manifest carries.
  d.u64(0x43464952'504C414Eull);  // "CFIR" "PLAN"
  d.u32(static_cast<uint32_t>(workload.size()));
  d.bytes(reinterpret_cast<const uint8_t*>(workload.data()),
          workload.size());
  d.u32(scale);
  d.u8(static_cast<uint8_t>(plan.mode));
  d.u8(static_cast<uint8_t>(plan.warm_mode));
  d.u64(plan.warmup);
  d.u64(plan.total_insts);
  d.boolean(plan.ran_to_halt);
  d.u64(plan.interval_len);
  d.u32(static_cast<uint32_t>(plan.boundaries.size()));
  for (size_t i = 0; i < plan.boundaries.size(); ++i) {
    d.u64(plan.boundaries[i]);
    d.u64(plan.lengths[i]);
    d.u64(std::bit_cast<uint64_t>(plan.weights[i]));
  }
  return d.value();
}

ShardManifest write_manifest(const IntervalPlan& plan,
                             const std::vector<ConfigBinding>& bindings,
                             const std::string& workload, uint32_t scale,
                             const std::string& manifest_path) {
  const size_t k = plan.boundaries.size();
  if (plan.lengths.size() != k || plan.weights.size() != k ||
      plan.checkpoints.size() != k) {
    throw std::runtime_error("write_manifest: malformed plan");
  }
  if (bindings.empty()) {
    throw std::runtime_error("write_manifest: no config bindings");
  }
  ShardManifest m;
  m.workload = workload;
  m.scale = scale;
  m.plan_hash = plan_structure_hash(workload, scale, plan);
  m.mode = plan.mode;
  m.warm_mode = plan.warm_mode;
  m.warmup = plan.warmup;
  m.total_insts = plan.total_insts;
  m.interval_len = plan.interval_len;
  m.ran_to_halt = plan.ran_to_halt;
  m.configs = bindings;
  for (ConfigBinding& b : m.configs) {
    if (b.name.empty()) b.name = b.config.label();
    if (b.config_hash == 0) b.config_hash = b.config.digest();
  }
  // The architectural checkpoints are config-independent: one file per
  // interval serves the whole grid.
  const std::string stem = path_stem(manifest_path);
  m.intervals.resize(k);
  for (size_t i = 0; i < k; ++i) {
    const std::string ck_path =
        stem + ".ck" + std::to_string(i) + ".cfirckpt";
    plan.checkpoints[i].save(ck_path);
    m.intervals[i] = {plan.boundaries[i], plan.lengths[i], plan.weights[i],
                      basename_of(ck_path)};
  }
  m.save(manifest_path);
  return m;
}

IntervalPlan plan_from_manifest(const ShardManifest& manifest,
                                const std::string& manifest_path) {
  IntervalPlan plan;
  plan.mode = manifest.mode;
  plan.warm_mode = manifest.warm_mode;
  plan.warmup = manifest.warmup;
  plan.total_insts = manifest.total_insts;
  plan.interval_len = manifest.interval_len;
  plan.ran_to_halt = manifest.ran_to_halt;
  plan.boundaries.reserve(manifest.intervals.size());
  plan.lengths.reserve(manifest.intervals.size());
  plan.weights.reserve(manifest.intervals.size());
  for (const ShardManifest::IntervalRef& iv : manifest.intervals) {
    plan.boundaries.push_back(iv.start);
    plan.lengths.push_back(iv.length);
    plan.weights.push_back(iv.weight);
  }
  // Each checkpoint file is an independent read + CRC + page decode, so
  // they load side by side on the shared pool.
  plan.checkpoints.resize(manifest.intervals.size());
  sim::parallel_for(plan.checkpoints.size(), [&](size_t i) {
    plan.checkpoints[i] = Checkpoint::load(
        resolve(manifest_path, manifest.intervals[i].checkpoint_file));
  });
  return plan;
}

std::vector<ConfigBinding> bindings_from_manifest(
    const ShardManifest& manifest, const std::string&, ShardSelection) {
  return manifest.configs;
}

void verify_manifest_plan(const ShardManifest& manifest,
                          const IntervalPlan& plan) {
  const uint64_t expected =
      plan_structure_hash(manifest.workload, manifest.scale, plan);
  if (expected != manifest.plan_hash) {
    throw ConfigMismatchError(
        "ShardManifest: plan hash mismatch — this plan's interval "
        "schedule is not the one the manifest was written for (manifest "
        "has " + hex64(manifest.plan_hash) + ", this plan hashes to " +
        hex64(expected) + "); re-plan or use the matching manifest");
  }
  // The structure hash covers only manifest fields, so for a plan
  // reloaded from this very manifest it cannot fail; the checkpoint
  // POSITIONS are what bind the plan to its sibling files. Every planner
  // captures interval i at max(start - W, 0) (W = requested warm-up for
  // modes with a detailed slice, 0 otherwise — trace/sampling.cpp), so a
  // checkpoint whose `executed` sits elsewhere is a wrong or swapped
  // .cfirckpt in the manifest directory.
  const uint64_t w =
      warm_mode_has_detailed_slice(manifest.warm_mode) ? manifest.warmup : 0;
  const size_t k =
      std::min(plan.boundaries.size(), plan.checkpoints.size());
  for (size_t i = 0; i < k; ++i) {
    const uint64_t at =
        plan.boundaries[i] >= w ? plan.boundaries[i] - w : 0;
    if (plan.checkpoints[i].executed != at) {
      throw CorruptFileError(
          "ShardManifest: the checkpoint file for interval " +
          std::to_string(i) + " was captured at instruction " +
          std::to_string(plan.checkpoints[i].executed) +
          " but the schedule expects " + std::to_string(at) +
          " — wrong or swapped .cfirckpt in the manifest directory; "
          "re-plan it");
    }
  }
}

}  // namespace cfir::trace
