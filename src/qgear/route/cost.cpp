#include "qgear/route/cost.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "qgear/common/strings.hpp"

namespace qgear::route {

namespace {

/// Per-gate rounding step for the random-walk error accumulation model.
/// The factor over machine epsilon covers the handful of flops each
/// amplitude sees per (fused) gate application.
constexpr double kFp32GateError = 1.19209290e-07 * 4.0;
constexpr double kFp64GateError = 2.22044605e-16 * 4.0;

/// Memory traffic of one fused sweep in units of the state size (read +
/// write every amplitude) — mirrors perfmodel::kSweepBytesPerStateByte.
constexpr double kSweepTraffic = 2.0;

double amp_bytes(const std::string& precision) {
  return precision == "fp32" ? sizeof(std::complex<float>)
                             : sizeof(std::complex<double>);
}

/// Blends the analytic estimate with the measured lookup table: a
/// per-(backend, precision) scale factor, weighted by similarity of
/// workload shape (log gate-count distance + qubit distance). An exact
/// suite hit dominates the average and reproduces the measured time.
double measured_scale(const Calibration& calib, const CandidateConfig& cfg,
                      const CircuitFeatures& f, double analytic_s) {
  if (analytic_s <= 0.0) return 1.0;
  double wsum = 0.0, acc = 0.0;
  for (const MeasuredPoint& p : calib.measured) {
    if (p.backend != cfg.backend || p.precision != cfg.precision) continue;
    if (p.analytic_s <= 0.0 || p.measured_s <= 0.0) continue;
    const double lg = std::fabs(
        std::log2(double(std::max<std::uint64_t>(p.gates, 1)) /
                  double(std::max<std::uint64_t>(f.total_gates, 1))));
    const double dq = std::fabs(double(p.qubits) - double(f.num_qubits)) / 8.0;
    // Exponential kernel: an exact suite hit must dominate dissimilar
    // points, because the measured/analytic ratio is strongly
    // shape-dependent (launch overhead vs. sweep cost flips between
    // small and large states).
    const double w = std::exp(-2.0 * (lg + dq));
    // Wide clamp: real measured/analytic ratios reach 100x+ for the
    // compact engines on volume-law circuits (the analytic node/bond
    // heuristics are deliberately cheap); the similarity weighting, not
    // the clamp, is what keeps extrapolation sane. Blending happens in
    // log space — ratios span orders of magnitude, and an arithmetic
    // mean would let one dissimilar 100x point swamp an exact 0.1x hit.
    const double ratio =
        std::clamp(p.measured_s / p.analytic_s, 1e-3, 1e3);
    wsum += w;
    acc += w * std::log(ratio);
  }
  if (wsum == 0.0) return 1.0;
  return std::clamp(std::exp(acc / wsum), 1e-3, 1e3);
}

TimeEstimate statevector_estimate(const qiskit::QuantumCircuit& qc,
                                  const CircuitFeatures& f,
                                  const CandidateConfig& cfg,
                                  const Calibration& calib,
                                  const sim::BackendOptions& base,
                                  std::uint64_t fused_sweeps) {
  TimeEstimate est;
  const bool fused = cfg.backend == "fused";
  const double isa_f = isa_speed_factor(cfg.isa);
  const double bw = (cfg.precision == "fp32" ? calib.sweep_bw_fp32_bps
                                             : calib.sweep_bw_fp64_bps) *
                    isa_f;
  const double state_bytes =
      std::ldexp(amp_bytes(cfg.precision), int(f.num_qubits));

  std::uint64_t sweeps;
  double dense_fraction;
  unsigned width;
  if (fused) {
    width = std::max(1u, cfg.fusion_width);
    sweeps = fused_sweeps != 0
                 ? fused_sweeps
                 // Analytic fallback: fusion packs ~1.2*width gates/block.
                 : std::max<std::uint64_t>(
                       1, std::uint64_t(double(f.unitary_gates) /
                                        (1.2 * double(width))));
    dense_fraction =
        f.fused_blocks == 0
            ? 1.0
            : double(f.dense_blocks) / double(f.fused_blocks);
  } else {
    width = 1;
    sweeps = std::max<std::uint64_t>(f.unitary_gates, 1);
    dense_fraction = 1.0;
  }

  // Per-sweep cost: bandwidth-bound floor, overtaken by the dense-kernel
  // arithmetic term as blocks widen (2^w MACs per amplitude).
  const double bw_s = kSweepTraffic * state_bytes / bw;
  const double amps = std::ldexp(1.0, int(f.num_qubits));
  const double flop_s = dense_fraction * amps * 8.0 *
                        std::ldexp(1.0, int(width)) /
                        (calib.dense_flops_ps * isa_f);
  // Block construction, priced as one full (2^w)x(2^w) matrix multiply
  // per merged gate — (2^w)^3 MACs. Negligible at w<=3, dominant for wide
  // blocks on small states; this is what makes max-width fusion lose on
  // shallow registers. plan_fusion rewrites only the rows a gate mixes (at
  // most 4 MACs per entry of the block matrix), so the term over-charges
  // wide blocks; it stays as is so placements do not move until the model
  // is refit against measured planning cost.
  const double build_s =
      fused ? double(f.unitary_gates) * 8.0 * std::ldexp(1.0, 3 * int(width)) /
                  (calib.dense_flops_ps * isa_f)
            : 0.0;
  est.seconds = double(sweeps) * std::max(bw_s, flop_s) +
                double(sweeps) * calib.sweep_launch_s + build_s;
  est.error_bound = cfg.precision == "fp32"
                        ? fp32_error_bound(f.unitary_gates)
                        : fp64_error_bound(f.unitary_gates);
  sim::BackendOptions bo = base;
  bo.fp32 = cfg.precision == "fp32";
  bo.fusion.max_width = fused ? width : bo.fusion.max_width;
  est.mem_bytes = sim::Backend::memory_estimate_for(cfg.backend, qc, bo);
  est.detail = strfmt("%llu sweeps @ %s/s%s",
                      static_cast<unsigned long long>(sweeps),
                      human_bytes(std::uint64_t(bw)).c_str(),
                      flop_s > bw_s ? " (flop-bound)" : "");
  return est;
}

TimeEstimate dd_estimate(const qiskit::QuantumCircuit& qc,
                         const CircuitFeatures& f, const Calibration& calib,
                         const sim::BackendOptions& base) {
  TimeEstimate est;
  // Active node estimate from the entanglement proxy: structured
  // (low-bond) circuits keep diagrams near-linear, volume-law mixing
  // doubles per entangling layer. Exponent 2*bond+1 is a deliberate
  // over-estimate for rotation-heavy circuits (dense random states are
  // dd's worst case), tempered by the Clifford fraction.
  const double exp_raw =
      (2.0 * f.max_bond_exponent + 1.0) * (1.0 - 0.5 * f.clifford_fraction);
  const unsigned cap_exp = std::min(f.num_qubits + 1, 40u);
  const double node_exp = std::min(double(cap_exp), exp_raw);
  double est_nodes = std::pow(2.0, node_exp);
  if (base.dd.max_nodes > 0)
    est_nodes = std::min(est_nodes, double(base.dd.max_nodes));
  const std::uint64_t gates = std::max<std::uint64_t>(f.unitary_gates, 1);
  est.seconds =
      double(gates) * (calib.dd_gate_base_s + est_nodes * calib.dd_gate_node_s);
  est.error_bound = fp64_error_bound(gates);
  est.mem_bytes = sim::Backend::memory_estimate_for("dd", qc, base);
  est.detail = strfmt("~2^%.0f active nodes", node_exp);
  return est;
}

TimeEstimate mps_estimate(const qiskit::QuantumCircuit& qc,
                          const CircuitFeatures& f, const Calibration& calib,
                          const sim::BackendOptions& base) {
  TimeEstimate est;
  double chi = std::pow(2.0, std::min(f.mean_bond_exponent, 30.0));
  if (base.mps.max_bond > 0) chi = std::min(chi, double(base.mps.max_bond));
  const std::uint64_t g1 = f.unitary_gates - f.two_qubit_gates;
  est.seconds = double(g1) * 2.0 * chi * chi * calib.mps_unit1q_s +
                double(std::max<std::uint64_t>(f.mps_effective_2q, 1)) * 8.0 *
                    chi * chi * chi * calib.mps_unit2q_s;
  // Truncation, not rounding, dominates mps accuracy: each SVD may
  // discard up to `cutoff` squared weight.
  est.error_bound =
      base.mps.cutoff * double(std::max<std::uint64_t>(f.mps_effective_2q, 1)) +
      fp64_error_bound(f.unitary_gates);
  est.mem_bytes = sim::Backend::memory_estimate_for("mps", qc, base);
  est.detail = strfmt("chi~%.0f, %llu effective 2q", chi,
                      static_cast<unsigned long long>(f.mps_effective_2q));
  return est;
}

}  // namespace

double fp32_error_bound(std::uint64_t unitary_gates) {
  return kFp32GateError *
         std::sqrt(double(std::max<std::uint64_t>(unitary_gates, 1)));
}

double fp64_error_bound(std::uint64_t unitary_gates) {
  return kFp64GateError *
         std::sqrt(double(std::max<std::uint64_t>(unitary_gates, 1)));
}

double isa_speed_factor(sim::Isa isa) {
  switch (isa) {
    case sim::Isa::avx2: return 1.0;
    case sim::Isa::sse2: return 0.6;
    case sim::Isa::scalar: return 0.3;
  }
  return 1.0;
}

TimeEstimate time_estimate(const qiskit::QuantumCircuit& qc,
                           const CircuitFeatures& f,
                           const CandidateConfig& cfg,
                           const Calibration& calib,
                           const sim::BackendOptions& base,
                           std::uint64_t fused_sweeps) {
  TimeEstimate est;
  if (cfg.backend == "reference" || cfg.backend == "fused") {
    est = statevector_estimate(qc, f, cfg, calib, base, fused_sweeps);
  } else if (cfg.backend == "dd") {
    if (cfg.precision == "fp32") {
      est.supported = false;
      est.detail = "dd is double-precision only";
      return est;
    }
    est = dd_estimate(qc, f, calib, base);
  } else if (cfg.backend == "mps") {
    if (cfg.precision == "fp32") {
      est.supported = false;
      est.detail = "mps is double-precision only";
      return est;
    }
    est = mps_estimate(qc, f, calib, base);
  } else if (cfg.backend == "dist") {
    if (cfg.precision == "fp32") {
      est.supported = false;
      est.detail = "dist is double-precision only";
      return est;
    }
    // Replayed fused execution across ranks plus exchange overhead; the
    // single-process dist backend never beats local fused, so a flat
    // penalty over the fp64 fused model is honest enough for ranking.
    CandidateConfig fcfg = cfg;
    fcfg.backend = "fused";
    fcfg.fusion_width = base.fusion.max_width;
    est = statevector_estimate(qc, f, fcfg, calib, base, 0);
    est.seconds *= 1.5;
    est.mem_bytes = sim::Backend::memory_estimate_for("dist", qc, base);
    est.detail = "fused fp64 model x1.5 exchange overhead";
  } else {
    // Unknown to the model (an externally registered backend): price by
    // its own memory estimate and the reference sweep model so it still
    // ranks, but mark the detail.
    CandidateConfig rcfg = cfg;
    rcfg.backend = "reference";
    est = statevector_estimate(qc, f, rcfg, calib, base, 0);
    est.mem_bytes = sim::Backend::memory_estimate_for(cfg.backend, qc, base);
    est.detail = "no model for '" + cfg.backend + "'; reference sweep proxy";
  }
  est.seconds *= measured_scale(calib, cfg, f, est.seconds);
  return est;
}

TimeEstimate time_estimate_for(const std::string& backend,
                               const std::string& precision,
                               const qiskit::QuantumCircuit& qc,
                               const Calibration& calib,
                               const sim::BackendOptions& base) {
  const CircuitFeatures f = extract_features(qc, base.fusion);
  CandidateConfig cfg;
  cfg.backend = backend;
  cfg.precision = precision.empty() ? "fp64" : precision;
  cfg.isa = sim::active_isa();
  cfg.fusion_width = base.fusion.max_width;
  return time_estimate(qc, f, cfg, calib, base, f.fused_blocks);
}

}  // namespace qgear::route
