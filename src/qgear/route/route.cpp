#include "qgear/route/route.hpp"

#include <algorithm>
#include <cmath>

#include "qgear/common/strings.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/qiskit/transpile.hpp"

namespace qgear::route {

namespace {

obs::JsonValue config_json(const CandidateConfig& cfg) {
  obs::JsonValue j{obs::JsonValue::Object{}};
  j.set("backend", cfg.backend);
  j.set("precision", cfg.precision);
  j.set("isa", sim::isa_name(cfg.isa));
  j.set("fusion_width", cfg.fusion_width);
  return j;
}

/// Deterministic candidate ordering: feasible first, then cheaper, then
/// lower memory, then a stable config key. No wall-clock, no RNG.
bool candidate_less(const Candidate& a, const Candidate& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (a.seconds != b.seconds) return a.seconds < b.seconds;
  if (a.mem_bytes != b.mem_bytes) return a.mem_bytes < b.mem_bytes;
  const auto key = [](const Candidate& c) {
    return c.config.backend + "/" + c.config.precision + "/" +
           sim::isa_name(c.config.isa) + "/" +
           std::to_string(c.config.fusion_width);
  };
  return key(a) < key(b);
}

}  // namespace

obs::JsonValue Candidate::to_json() const {
  obs::JsonValue j{obs::JsonValue::Object{}};
  j.set("config", config_json(config));
  j.set("time_est_s", seconds);
  j.set("memory_est_bytes", mem_bytes);
  j.set("error_bound", error_bound);
  j.set("feasible", feasible);
  if (!reject_reason.empty()) j.set("reject_reason", reject_reason);
  if (!detail.empty()) j.set("detail", detail);
  return j;
}

obs::JsonValue Placement::to_json() const {
  obs::JsonValue j{obs::JsonValue::Object{}};
  j.set("feasible", feasible);
  if (feasible) j.set("choice", choice.to_json());
  obs::JsonValue alts{obs::JsonValue::Array{}};
  for (const Candidate& c : alternatives) alts.push_back(c.to_json());
  j.set("alternatives", std::move(alts));
  j.set("features", features.to_json());
  obs::JsonValue why{obs::JsonValue::Array{}};
  for (const std::string& line : rationale) why.push_back(line);
  j.set("rationale", std::move(why));
  return j;
}

Placement plan(const qiskit::QuantumCircuit& qc, const Budget& budget,
               const RouteOptions& opts) {
  obs::Span span("route.plan", "route");
  obs::Registry::global().counter("route.plans").add();

  Placement out;
  const qiskit::QuantumCircuit tqc = qiskit::transpile(qc);
  out.features = extract_features(tqc, opts.base.fusion);
  const CircuitFeatures& f = out.features;

  // Candidate space. ISA tiers up to best_supported (or just the active
  // one); fused widths from opts; fp32 only where the engine supports it.
  std::vector<sim::Isa> isas;
  if (opts.sweep_isa) {
    const sim::Isa best = sim::best_supported_isa();
    for (sim::Isa isa : {sim::Isa::scalar, sim::Isa::sse2, sim::Isa::avx2})
      if (static_cast<int>(isa) <= static_cast<int>(best)) isas.push_back(isa);
  } else {
    isas.push_back(sim::active_isa());
  }

  std::vector<CandidateConfig> configs;
  for (const char* prec : {"fp32", "fp64"}) {
    for (sim::Isa isa : isas) {
      configs.push_back({"reference", prec, isa, 0});
      for (unsigned w : opts.fusion_widths)
        configs.push_back({"fused", prec, isa, w});
    }
  }
  // Compact engines are ISA- and precision-invariant: one candidate each.
  if (sim::Backend::is_registered("dd"))
    configs.push_back({"dd", "fp64", sim::active_isa(), 0});
  if (sim::Backend::is_registered("mps"))
    configs.push_back({"mps", "fp64", sim::active_isa(), 0});
  if (opts.include_dist && sim::Backend::is_registered("dist"))
    configs.push_back({"dist", "fp64", sim::active_isa(), 0});

  // Sweeps per fusion width, shared across ISA/precision: one sweep per
  // block, so the grouping pass prices a width without composing it.
  std::vector<std::uint64_t> width_sweeps(opts.fusion_widths.size(), 0);
  for (std::size_t i = 0; i < opts.fusion_widths.size(); ++i) {
    sim::FusionOptions fo = opts.base.fusion;
    fo.max_width = opts.fusion_widths[i];
    width_sweeps[i] = sim::group_fusion(tqc, fo).groups.size();
  }

  const auto excluded = [&](const std::string& backend) {
    return std::find(opts.exclude_backends.begin(),
                     opts.exclude_backends.end(),
                     backend) != opts.exclude_backends.end();
  };

  auto& reg = obs::Registry::global();
  for (const CandidateConfig& cfg : configs) {
    if (excluded(cfg.backend)) {
      reg.counter("route.candidates_excluded").add();
      continue;
    }
    std::uint64_t sweeps = 0;
    if (cfg.backend == "fused") {
      for (std::size_t i = 0; i < opts.fusion_widths.size(); ++i)
        if (opts.fusion_widths[i] == cfg.fusion_width)
          sweeps = width_sweeps[i];
    }
    const TimeEstimate est =
        time_estimate(tqc, f, cfg, opts.calibration, opts.base, sweeps);
    reg.counter("route.candidates_considered").add();
    if (!est.supported) continue;

    Candidate c;
    c.config = cfg;
    c.seconds = est.seconds;
    c.mem_bytes = est.mem_bytes;
    c.error_bound = est.error_bound;
    c.detail = est.detail;
    if (budget.memory_bytes != 0 && est.mem_bytes > budget.memory_bytes) {
      c.feasible = false;
      c.reject_reason =
          strfmt("memory estimate %s exceeds budget %s",
                 human_bytes(est.mem_bytes).c_str(),
                 human_bytes(budget.memory_bytes).c_str());
      reg.counter("route.rejected.memory").add();
    } else if (est.error_bound > budget.max_error) {
      c.feasible = false;
      c.reject_reason = strfmt("error bound %.2e exceeds budget %.2e",
                               est.error_bound, budget.max_error);
      reg.counter("route.rejected.accuracy").add();
      if (cfg.precision == "fp32")
        reg.counter("route.fp32_forbidden").add();
    } else if (budget.time_s > 0.0 && est.seconds > budget.time_s) {
      c.feasible = false;
      c.reject_reason = strfmt("time estimate %s exceeds budget %s",
                               human_seconds(est.seconds).c_str(),
                               human_seconds(budget.time_s).c_str());
      reg.counter("route.rejected.time").add();
    }
    out.alternatives.push_back(std::move(c));
  }

  std::sort(out.alternatives.begin(), out.alternatives.end(), candidate_less);
  out.feasible = !out.alternatives.empty() && out.alternatives.front().feasible;

  // Rationale: what was chosen and the load-bearing reasons.
  if (!opts.exclude_backends.empty()) {
    out.rationale.push_back("excluded backends (degraded fallback): " +
                            join(opts.exclude_backends, ", "));
  }
  out.rationale.push_back(strfmt(
      "%u qubits, depth %u, %llu gates (%llu two-qubit), clifford %.0f%%, "
      "bond exponent max %u",
      f.num_qubits, f.depth, static_cast<unsigned long long>(f.unitary_gates),
      static_cast<unsigned long long>(f.two_qubit_gates),
      100.0 * f.clifford_fraction, f.max_bond_exponent));
  if (out.feasible) {
    const Candidate& ch = out.alternatives.front();
    out.choice = ch;
    out.rationale.push_back(strfmt(
        "chose %s/%s isa=%s width=%u: est %s, %s (%s)",
        ch.config.backend.c_str(), ch.config.precision.c_str(),
        sim::isa_name(ch.config.isa), ch.config.fusion_width,
        human_seconds(ch.seconds).c_str(), human_bytes(ch.mem_bytes).c_str(),
        ch.detail.c_str()));
    if (ch.config.precision == "fp64") {
      const double fp32_err = fp32_error_bound(f.unitary_gates);
      if (fp32_err > budget.max_error)
        out.rationale.push_back(
            strfmt("fp32 forbidden: propagated error %.2e > budget %.2e",
                   fp32_err, budget.max_error));
    }
    for (std::size_t i = 1; i < out.alternatives.size(); ++i) {
      const Candidate& alt = out.alternatives[i];
      if (!alt.feasible) break;
      if (alt.config.backend != ch.config.backend) {
        out.rationale.push_back(
            strfmt("runner-up %s/%s: est %s (%.1fx slower)",
                   alt.config.backend.c_str(), alt.config.precision.c_str(),
                   human_seconds(alt.seconds).c_str(),
                   ch.seconds > 0 ? alt.seconds / ch.seconds : 0.0));
        break;
      }
    }
    reg.counter("route.chosen." + ch.config.backend).add();
    if (ch.config.precision == "fp32") reg.counter("route.chosen_fp32").add();
    span.arg("backend", ch.config.backend);
    span.arg("precision", ch.config.precision);
    span.arg("time_est_s", ch.seconds);
  } else {
    std::string first_reason = out.alternatives.empty()
                                   ? std::string("no candidates")
                                   : out.alternatives.front().reject_reason;
    out.rationale.push_back("no candidate fits the budget (best-ranked: " +
                            first_reason + ")");
    reg.counter("route.infeasible").add();
    span.arg("backend", "none");
  }
  return out;
}

obs::JsonValue make_report(const std::vector<std::string>& names,
                           const std::vector<Placement>& placements,
                           const Budget& budget) {
  obs::JsonValue j{obs::JsonValue::Object{}};
  j.set("schema", "qgear.route.report/v1");
  obs::JsonValue b{obs::JsonValue::Object{}};
  b.set("memory_bytes", budget.memory_bytes);
  b.set("time_s", budget.time_s);
  b.set("max_error", budget.max_error);
  j.set("budget", std::move(b));
  obs::JsonValue arr{obs::JsonValue::Array{}};
  for (std::size_t i = 0; i < placements.size(); ++i) {
    obs::JsonValue e = placements[i].to_json();
    obs::JsonValue entry{obs::JsonValue::Object{}};
    entry.set("name", i < names.size() ? names[i] : "circuit");
    for (auto& [k, v] : e.object()) entry.set(k, std::move(v));
    arr.push_back(std::move(entry));
  }
  j.set("circuits", std::move(arr));
  return j;
}

}  // namespace qgear::route
