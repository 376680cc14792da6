#include "sim/simulator.hpp"

#include <sstream>

#include "trace/checkpoint.hpp"
#include "trace/trace.hpp"

namespace cfir::sim {

namespace {

std::unique_ptr<core::Mechanism> make_mechanism(
    const core::CoreConfig& config, ci::CiMechanism** ci_out,
    ci::SquashReuseMechanism** sr_out) {
  switch (config.policy) {
    case core::Policy::kNone:
      return nullptr;
    case core::Policy::kCi:
    case core::Policy::kVect: {
      auto m = std::make_unique<ci::CiMechanism>(config);
      *ci_out = m.get();
      return m;
    }
    case core::Policy::kCiWindow: {
      auto m = std::make_unique<ci::SquashReuseMechanism>(config);
      *sr_out = m.get();
      return m;
    }
  }
  return nullptr;
}

}  // namespace

Simulator::Simulator(const core::CoreConfig& config, isa::Program program)
    : program_(std::move(program)) {
  isa::load_data_image(program_, memory_);
  mech_ = make_mechanism(config, &ci_, &sr_);
  core_ = std::make_unique<core::Core>(config, program_, memory_, mech_.get());
}

Simulator::Simulator(const core::CoreConfig& config, isa::Program program,
                     const trace::Checkpoint& start)
    : program_(std::move(program)), memory_(start.memory.clone()) {
  mech_ = make_mechanism(config, &ci_, &sr_);
  core_ = std::make_unique<core::Core>(config, program_, memory_, mech_.get());
  core_->set_arch_state(start.regs, start.pc);
}

void Simulator::attach_trace(trace::TraceWriter& writer) {
  // Spans batch the per-commit callback out of the core's hot loop; the
  // core flushes the buffer when full and at the end of run().
  core_->on_commit_span = [&writer](const isa::StepEvent* events, size_t n) {
    for (size_t i = 0; i < n; ++i) writer.append(events[i]);
  };
}

stats::SimStats Simulator::run(uint64_t max_insts) {
  core_->run(max_insts);
  if (mech_ != nullptr) mech_->finalize();
  return core_->stats();
}

DiffResult differential_run(const core::CoreConfig& config,
                            const isa::Program& program, uint64_t max_insts) {
  DiffResult r;
  // Reference.
  const isa::InterpResult ref = isa::run_program(program, max_insts);
  // Timing core.
  Simulator sim(config, program);
  const stats::SimStats st = sim.run(max_insts);
  r.executed = st.committed;
  std::ostringstream why;
  if (st.committed != ref.executed) {
    why << "committed " << st.committed << " != interpreter " << ref.executed
        << "; ";
  }
  for (int i = 0; i < isa::kNumLogicalRegs; ++i) {
    if (sim.arch_reg(i) != ref.regs[static_cast<size_t>(i)]) {
      why << "r" << i << " = " << sim.arch_reg(i) << " != "
          << ref.regs[static_cast<size_t>(i)] << "; ";
    }
  }
  if (sim.memory_digest() != ref.mem_digest) why << "memory digest differs; ";
  r.mismatch = why.str();
  r.match = r.mismatch.empty();
  return r;
}

}  // namespace cfir::sim
