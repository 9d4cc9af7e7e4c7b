// sv24: one large state vector, swept from DRAM.
//
// A random CX-block circuit (100 blocks, Fig. 4a) and a QFT (Fig. 4c) on
// 23 qubits in fp32 (64 MiB of amplitudes, well past the measured cache
// knee) run through core::Transformer target nvidia (fusion width 5,
// 4-thread pool) and then target cpu_aer, with shots. The fused run is
// the paper's engine, the cpu_aer run its Aer-like baseline. Each run
// also returns its state, which the correctness check compares.
#include <cmath>

#include "bench.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/core/transformer.hpp"

namespace perfbench {

using namespace qgear;

namespace {

constexpr unsigned kQubits = 23;
constexpr unsigned kThreads = 4;
constexpr std::uint64_t kShots = 10000;
constexpr std::uint64_t kStateBytes =
    (std::uint64_t{1} << kQubits) * sizeof(std::complex<float>);

std::vector<core::Kernel> make_kernels(std::uint64_t seed) {
  Rng rng(seed, 0x5f24);
  std::vector<core::Kernel> kernels;
  kernels.push_back(core::Kernel::from_circuit(
      circuits::generate_random_circuit({.num_qubits = kQubits,
                                         .num_blocks = 100,
                                         .measure = true,
                                         .seed = rng()})));
  kernels.push_back(
      core::Kernel::from_circuit(qft_on_basis_state(kQubits, rng)));
  return kernels;
}

core::TransformerOptions target_opts(core::Target target,
                                     std::uint64_t seed) {
  return {.target = target, .precision = core::Precision::fp32,
          .fusion_width = 5, .threads = kThreads, .seed = seed};
}

double fidelity(const std::vector<std::complex<double>>& a,
                const std::vector<std::complex<double>>& b) {
  std::complex<double> acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::conj(a[i]) * b[i];
  return std::norm(acc);
}

struct Pass {
  double fused_s = 0;
  double aer_s = 0;
  sim::EngineStats fused;  ///< summed over both circuits
  sim::EngineStats aer;

  bool same_counts(const Pass& o) const {
    return fused.sweeps == o.fused.sweeps &&
           fused.diag_blocks == o.fused.diag_blocks &&
           fused.perm_blocks == o.fused.perm_blocks &&
           fused.dense_blocks == o.fused.dense_blocks &&
           aer.sweeps == o.aer.sweeps;
  }
};

// One pass: each circuit on the fused engine, then on the Aer-like one.
// The states are compared after each pair, outside the timed calls.
Pass run_pass(const std::vector<core::Kernel>& kernels,
              core::Transformer& fused, core::Transformer& aer,
              Report& report) {
  Pass p;
  const core::RunOptions ro{.shots = kShots, .return_state = true};
  for (const core::Kernel& k : kernels) {
    core::Result rf, ra;
    {
      obs::Span span("bench.transformer.nvidia", "bench");
      WallTimer t;
      rf = fused.run(k, ro);
      p.fused_s += t.seconds();
    }
    {
      obs::Span span("bench.transformer.cpu_aer", "bench");
      WallTimer t;
      ra = aer.run(k, ro);
      p.aer_s += t.seconds();
    }
    p.fused += rf.stats;
    p.aer += ra.stats;
    report.attempted += 2;
    const double f = fidelity(rf.state, ra.state);
    const bool same = report.check(
        std::abs(f - 1.0) < 1e-4,
        k.name() + ": fused vs cpu_aer fidelity " + std::to_string(f));
    const bool counted = report.check(
        shots_in(rf.counts) == kShots && shots_in(ra.counts) == kShots,
        k.name() + ": counts do not sum to the shots");
    if (!same || !counted) report.failed += 2;
  }
  return p;
}

}  // namespace

void run_sv24(const Config& cfg, Report& report) {
  // Set-up: generate the inputs and start both engines' thread pools.
  const auto start_up = [&] {
    std::vector<core::Kernel> k = make_kernels(cfg.seed);
    core::Transformer f(target_opts(core::Target::nvidia, cfg.seed));
    core::Transformer a(target_opts(core::Target::cpu_aer, cfg.seed));
    return k;
  };
  SetupClock setup;
  setup.sample(start_up);
  const std::vector<core::Kernel> kernels = start_up();
  core::Transformer fused(target_opts(core::Target::nvidia, cfg.seed));
  core::Transformer aer(target_opts(core::Target::cpu_aer, cfg.seed));

  std::vector<Pass> passes;
  std::vector<double> fused_s, aer_s, pass_s;
  const StealMeter steal;
  repeat_for(cfg.seconds, [&] {
    passes.push_back(run_pass(kernels, fused, aer, report));
    fused_s.push_back(passes.back().fused_s);
    aer_s.push_back(passes.back().aer_s);
    pass_s.push_back(passes.back().fused_s + passes.back().aer_s);
    setup.sample(start_up);
  });
  const double rss = peak_rss_mib();
  const HostProbe host =
      probe_host(kStateBytes, kThreads, kStateBytes, steal);
  report_host(host, cfg, report);

  report.note("sv24: %u qubits fp32, %zu passes of {random100, qft} | fused "
              "%.4f s, cpu_aer %.4f s per pass (medians) | speedup "
              "cpu_aer/fused = %.3fx (not gated)",
              kQubits, passes.size(), median(fused_s), median(aer_s),
              median(aer_s) / median(fused_s));
  for (const Pass& p : passes) {
    report.note("  pass: fused %.4f s, cpu_aer %.4f s", p.fused_s, p.aer_s);
  }
  if (!cfg.trace) {
    report.metric("setup_s", setup.median(), "s");
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("main_ms", 1e3 * median(fused_s), "ms");
    report.metric("alt_ms", 1e3 * median(aer_s), "ms");
    return;
  }

  // Traced pass: the same unit of work with spans on.
  Pass traced;
  const LayerTimes layers = trace_run(
      "bench.sv24", [&] { traced = run_pass(kernels, fused, aer, report); },
      report);
  report_trace(layers, median(pass_s), traced.fused_s + traced.aer_s, report);
  report.check(passes[0].same_counts(traced),
               "exact counts differ between the untraced and traced pass");
  report.note("exact: fused sweeps %llu (diag %llu, perm %llu, dense %llu) "
              "| cpu_aer sweeps %llu | equal across passes",
              static_cast<unsigned long long>(traced.fused.sweeps),
              static_cast<unsigned long long>(traced.fused.diag_blocks),
              static_cast<unsigned long long>(traced.fused.perm_blocks),
              static_cast<unsigned long long>(traced.fused.dense_blocks),
              static_cast<unsigned long long>(traced.aer.sweeps));

  const double ref_s = layers["reference.apply"].total_s;
  const double ref_bytes = 2.0 * static_cast<double>(traced.aer.sweeps) *
                           static_cast<double>(kStateBytes);
  report.metric("sim.reference.sweeps", traced.aer.sweeps, "count");
  report.metric("sim.reference.apply_s", ref_s, "s");
  report.metric("sim.reference.gbps", ref_bytes / ref_s / 1e9, "GB/s");
  report.note("sim.reference.gbps = 2 x %llu sweeps x %.0f MiB / %.4f s",
              static_cast<unsigned long long>(traced.aer.sweeps),
              static_cast<double>(kStateBytes) / (1 << 20), ref_s);

  // Kernel ledger: each fused plan replayed block by block on a fresh
  // state with the engine's 4-thread pool.
  KernelLedger ledger;
  ThreadPool pool(kThreads);
  for (const core::Kernel& k : kernels) {
    const sim::FusionPlan plan =
        sim::plan_fusion(k.circuit(), {.max_width = 5});
    sim::StateVector<float> state(kQubits);
    ledger.replay(plan, state, &pool);
  }
  report.check(ledger.calls() == traced.fused.fused_blocks,
               "replayed block count differs from the engine's");
  ledger.report(host, report);
}

}  // namespace perfbench
