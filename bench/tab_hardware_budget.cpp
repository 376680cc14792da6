// Section 3.1 hardware budget and the sections 2.4.2/2.4.3 companion
// numbers: structure sizes (must reproduce the paper's byte counts
// exactly), register pressure with/without DAEC under unbounded registers,
// and the fraction of stores hitting a vectorized-load range.
#include "common.hpp"

#include "branch/mbs.hpp"
#include "ci/reconvergence.hpp"
#include "ci/srsmt.hpp"
#include "ci/stride_predictor.hpp"

int main() {
  using namespace cfir;
  using namespace cfir::bench;

  // --- structure sizes (section 3.1) ---------------------------------------
  ci::Srsmt srsmt(64, 4, 4);
  ci::StridePredictor sp(256, 4);
  branch::MbsTable mbs(64, 4);
  ci::Nrbq nrbq(16);
  const uint64_t rename_ext = 64 * 16;
  stats::Table sizes({"structure", "bytes", "paper"});
  sizes.add_row({"SRSMT", std::to_string(srsmt.storage_bytes()), "11520"});
  sizes.add_row({"stride predictor", std::to_string(sp.storage_bytes()),
                 "24576"});
  sizes.add_row({"MBS", std::to_string(mbs.storage_bytes()), "2048"});
  sizes.add_row({"NRBQ", std::to_string(nrbq.storage_bytes()), "128"});
  sizes.add_row({"CRP", std::to_string(ci::Crp::storage_bytes()), "16"});
  sizes.add_row({"rename extension", std::to_string(rename_ext), "1024"});
  const uint64_t total = srsmt.storage_bytes() + sp.storage_bytes() +
                         mbs.storage_bytes() + nrbq.storage_bytes() +
                         ci::Crp::storage_bytes() + rename_ext;
  sizes.add_row({"TOTAL", std::to_string(total), "39312 (~39KB)"});
  std::printf("Section 3.1: extra hardware budget\n\n%s\n",
              sizes.to_text().c_str());

  // --- register pressure with/without DAEC (section 2.4.2) -----------------
  obs::init_from_env();  // CFIR_TRACE=<file> flight-records the sweep
  std::vector<sim::RunSpec> specs;
  for (const bool daec : {false, true}) {
    NamedConfig nc{daec ? "daec" : "nodaec",
                   sim::presets::ci(2, sim::presets::kInfRegs)};
    if (!daec) nc.config.daec_threshold = UINT32_MAX;
    for (const std::string& wl : workloads::names()) {
      specs.push_back(env_spec(wl, nc));
    }
  }
  const auto out = sim::run_all(specs, sim::env_threads());
  double avg[2] = {0, 0};
  uint64_t maxu[2] = {0, 0};
  size_t n2 = workloads::names().size();
  for (size_t i = 0; i < out.size(); ++i) {
    const int m = out[i].spec.config_name == "daec" ? 1 : 0;
    avg[m] += out[i].stats.avg_regs_in_use() / static_cast<double>(n2);
    maxu[m] = std::max(maxu[m], out[i].stats.regs_in_use_max);
  }
  std::printf("Section 2.4.2: registers in use, unbounded register file\n");
  std::printf("  without DAEC: avg %.0f (max %llu)   [paper: 812]\n",
              avg[0], static_cast<unsigned long long>(maxu[0]));
  std::printf("  with DAEC:    avg %.0f (max %llu)   [paper: 304]\n\n",
              avg[1], static_cast<unsigned long long>(maxu[1]));

  // --- store conflicts (section 2.4.3) --------------------------------------
  uint64_t checks = 0, conflicts = 0, stores = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i].spec.config_name != "daec") continue;
    checks += out[i].stats.store_range_checks;
    conflicts += out[i].stats.store_range_conflicts;
    stores += out[i].stats.committed_stores;
  }
  std::printf("Section 2.4.3: stores hitting a vectorized-load range: "
              "%.2f%% of %llu committed stores (paper: <3%%)\n",
              stores ? 100.0 * static_cast<double>(conflicts) /
                           static_cast<double>(stores)
                     : 0.0,
              static_cast<unsigned long long>(stores));
  (void)checks;
  dump_json(out);
  dump_telemetry_json(out);
  return 0;
}
