#include "trace/manifest.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_map>
#include <utility>

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
/// relative checkpoint / warm-sidecar file names.
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

/// The warm-sidecar name write_manifest emits for interval `i`, config
/// point `c` — one definition so the planner and any recovery tooling
/// agree on the layout.
std::string warm_sidecar_name(const std::string& stem, size_t i, size_t c) {
  return stem + ".ck" + std::to_string(i) + ".cfg" + std::to_string(c) +
         ".cfirwarm";
}

std::string hex16(uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  std::string s(16, '0');
  for (int k = 15; k >= 0; --k) {
    s[static_cast<size_t>(k)] = kHex[v & 0xf];
    v >>= 4;
  }
  return s;
}

/// Content-keyed sidecar name: config points whose warm-relevant geometry
/// coincides (core::CoreConfig::warm_digest) train byte-identical blobs,
/// and keying the file by blob content lets them all reference ONE sidecar
/// (iv.warm_files stores the name per config; readers never parse it).
std::string warm_sidecar_content_name(const std::string& stem, size_t i,
                                      uint64_t content_digest) {
  return stem + ".ck" + std::to_string(i) + ".w" + hex16(content_digest) +
         ".cfirwarm";
}

uint64_t blob_content_digest(const std::vector<uint8_t>& blob) {
  util::Digest d;
  d.bytes(blob.data(), blob.size());
  return d.value();
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
  for (const ConfigPoint& cp : configs) {
    put_string(out, cp.name);
    out.u64(cp.config_hash);
    util::ByteWriter cfg;
    cp.config.serialize(cfg);
    out.u32(static_cast<uint32_t>(cfg.data().size()));
    out.bytes(cfg.data().data(), cfg.data().size());
  }
  out.u32(static_cast<uint32_t>(intervals.size()));
  for (const IntervalRef& iv : intervals) {
    out.u64(iv.start);
    out.u64(iv.length);
    out.u64(std::bit_cast<uint64_t>(iv.weight));
    put_string(out, iv.checkpoint_file);
    for (size_t c = 0; c < configs.size(); ++c) {
      put_string(out,
                 c < iv.warm_files.size() ? iv.warm_files[c] : std::string());
    }
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
    m.warm_mode = static_cast<WarmMode>(in.u8());
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
    for (ConfigPoint& cp : m.configs) {
      cp.name = get_string(in, "ShardManifest config name");
      cp.config_hash = in.u64();
      const uint32_t cfg_len = in.u32();
      if (cfg_len > 4096 || cfg_len > in.remaining()) {
        throw CorruptFileError(
            "ShardManifest: corrupt embedded config length " +
            std::to_string(cfg_len));
      }
      std::vector<uint8_t> cfg_bytes(cfg_len);
      in.bytes(cfg_bytes.data(), cfg_len);
      util::ByteReader cfg(cfg_bytes);
      cp.config = core::CoreConfig::deserialize(cfg);
      if (!cfg.done()) {
        throw CorruptFileError(
            "ShardManifest: trailing bytes after embedded config");
      }
    }
    const uint32_t n = in.u32();
    m.intervals.resize(n);
    for (IntervalRef& iv : m.intervals) {
      iv.start = in.u64();
      iv.length = in.u64();
      iv.weight = std::bit_cast<double>(in.u64());
      iv.checkpoint_file = get_string(in, "ShardManifest checkpoint file name");
      iv.warm_files.resize(m.configs.size());
      for (std::string& wf : iv.warm_files) {
        wf = get_string(in, "ShardManifest warm sidecar file name");
      }
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
  for (const ConfigBinding& b : bindings) {
    if (!b.warm.empty() && b.warm.size() != plan.checkpoints.size()) {
      throw std::runtime_error(
          "write_manifest: binding '" + b.name +
          "' carries warm state for a different interval count");
    }
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
  m.intervals.resize(k);
  for (size_t i = 0; i < k; ++i) {
    m.intervals[i].start = plan.boundaries[i];
    m.intervals[i].length = plan.lengths[i];
    m.intervals[i].weight = plan.weights[i];
  }
  m.configs.reserve(bindings.size());
  for (const ConfigBinding& b : bindings) {
    ShardManifest::ConfigPoint cp;
    cp.name = b.name.empty() ? b.config.label() : b.name;
    cp.config_hash = b.config_hash != 0 ? b.config_hash : b.config.digest();
    cp.config = b.config;
    m.configs.push_back(std::move(cp));
  }

  const std::string stem = path_stem(manifest_path);
  for (size_t i = 0; i < plan.checkpoints.size(); ++i) {
    const std::string ck_path =
        stem + ".ck" + std::to_string(i) + ".cfirckpt";
    // The architectural checkpoint is config-independent and shared by the
    // whole grid; warm state travels in the per-config sidecars.
    plan.checkpoints[i].save(ck_path);
    ShardManifest::IntervalRef& iv = m.intervals[i];
    iv.checkpoint_file = basename_of(ck_path);
    iv.warm_files.resize(bindings.size());
    // Dedup by blob content: a register/port sweep's configs share warm
    // geometry (bind_configs trains each distinct warm_digest once and
    // copies the blobs), so N grid columns typically collapse to a handful
    // of sidecar files. The digest only nominates a sharing candidate —
    // bytes are compared before reuse, so a hash collision degrades to a
    // per-config file instead of serving the wrong warm state.
    std::unordered_map<uint64_t, std::pair<const std::vector<uint8_t>*,
                                           std::string>> written;
    for (size_t c = 0; c < bindings.size(); ++c) {
      if (bindings[c].warm.empty() || bindings[c].warm[i].empty()) continue;
      const std::vector<uint8_t>& blob = bindings[c].warm[i];
      const uint64_t bd = blob_content_digest(blob);
      const auto it = written.find(bd);
      if (it != written.end() && *it->second.first == blob) {
        iv.warm_files[c] = it->second.second;
        continue;
      }
      const std::string warm_path =
          it == written.end() ? warm_sidecar_content_name(stem, i, bd)
                              : warm_sidecar_name(stem, i, c);
      write_blob_file(warm_path, blob);
      iv.warm_files[c] = basename_of(warm_path);
      if (it == written.end()) written.emplace(bd, std::make_pair(&blob, iv.warm_files[c]));
    }
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
    const ShardManifest& manifest, const std::string& manifest_path,
    ShardSelection shard) {
  std::vector<ConfigBinding> bindings;
  bindings.reserve(manifest.configs.size());
  for (size_t c = 0; c < manifest.configs.size(); ++c) {
    const ShardManifest::ConfigPoint& cp = manifest.configs[c];
    ConfigBinding b;
    b.name = cp.name;
    b.config = cp.config;
    b.config_hash = cp.config_hash;
    // Load warm sidecars for this shard's intervals only; the slots of
    // intervals other shards execute stay empty (run_shard never reads
    // them), so each worker of an N-shard farm does 1/N of the blob I/O.
    bool any_warm = false;
    for (size_t i = 0; i < manifest.intervals.size(); ++i) {
      const ShardManifest::IntervalRef& iv = manifest.intervals[i];
      any_warm = any_warm || (shard.covers(i) && c < iv.warm_files.size() &&
                              !iv.warm_files[c].empty());
    }
    if (any_warm) {
      b.warm.resize(manifest.intervals.size());
      for (size_t i = 0; i < manifest.intervals.size(); ++i) {
        if (!shard.covers(i)) continue;
        const ShardManifest::IntervalRef& iv = manifest.intervals[i];
        if (c >= iv.warm_files.size() || iv.warm_files[c].empty()) {
          throw CorruptFileError(
              "ShardManifest: config point '" + cp.name +
              "' has warm state for only some intervals");
        }
        b.warm[i] = read_blob_file(resolve(manifest_path, iv.warm_files[c]),
                                   "WarmState");
      }
    }
    bindings.push_back(std::move(b));
  }
  return bindings;
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
