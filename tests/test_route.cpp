// Router unit tests: feature extraction, the cost model, plan
// determinism, budget enforcement (including the fp32-forbidden path),
// calibration round-trips, and the qgear.route.report/v1 shape.
#include "qgear/route/route.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "qgear/circuits/qft.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/common/error.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/qiskit/transpile.hpp"
#include "qgear/route/calibration.hpp"
#include "qgear/route/cost.hpp"
#include "qgear/route/features.hpp"
#include "qgear/sim/fusion.hpp"
#include "qgear/sim/isa.hpp"

namespace qgear::route {
namespace {

qiskit::QuantumCircuit ghz(unsigned n) {
  qiskit::QuantumCircuit qc(n, "ghz");
  qc.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
  return qc;
}

std::string config_key(const CandidateConfig& cfg) {
  return cfg.backend + "/" + cfg.precision + "/" + sim::isa_name(cfg.isa) +
         "/" + std::to_string(cfg.fusion_width);
}

TEST(RouteFeatures, GhzChainIsCliffordWithUnitBond) {
  const CircuitFeatures f = extract_features(ghz(16));
  EXPECT_EQ(f.num_qubits, 16u);
  EXPECT_EQ(f.unitary_gates, 16u);
  EXPECT_EQ(f.two_qubit_gates, 15u);
  EXPECT_DOUBLE_EQ(f.clifford_fraction, 1.0);
  EXPECT_DOUBLE_EQ(f.nearest_neighbor_fraction, 1.0);
  EXPECT_EQ(f.max_interaction_distance, 1u);
  // The per-cut bond bound is what keeps GHZ cheap on mps: every cut is
  // crossed by exactly one entangler.
  EXPECT_EQ(f.max_bond_exponent, 1u);
  // Adjacent pairs pay no swap-routing overhead.
  EXPECT_EQ(f.mps_effective_2q, f.two_qubit_gates);
}

TEST(RouteFeatures, QftIsRotationHeavyWithLongRangePairs) {
  const CircuitFeatures f = extract_features(circuits::build_qft(10, {}));
  EXPECT_GT(f.rotation_fraction, f.clifford_fraction);
  EXPECT_GE(f.max_interaction_distance, 5u);
  // Non-adjacent controlled-phases inflate the swap-routed 2q count.
  EXPECT_GT(f.mps_effective_2q, f.two_qubit_gates);
  EXPECT_GT(f.max_bond_exponent, 1u);
}

TEST(RouteCost, ErrorBoundsFollowPrecisionAndDepth) {
  EXPECT_GT(fp32_error_bound(100), fp64_error_bound(100));
  // Random-walk accumulation: 4x the gates doubles the bound.
  EXPECT_NEAR(fp32_error_bound(400) / fp32_error_bound(100), 2.0, 1e-12);
  EXPECT_NEAR(fp64_error_bound(400) / fp64_error_bound(100), 2.0, 1e-12);
}

TEST(RouteCost, IsaSpeedFactorsRankTiers) {
  EXPECT_LT(isa_speed_factor(sim::Isa::scalar),
            isa_speed_factor(sim::Isa::sse2));
  EXPECT_LT(isa_speed_factor(sim::Isa::sse2),
            isa_speed_factor(sim::Isa::avx2));
  EXPECT_DOUBLE_EQ(isa_speed_factor(sim::Isa::avx2), 1.0);
}

TEST(RouteCost, StatevectorTimeGrowsWithRegisterSize) {
  Calibration calib;  // built-in constants, no measured table
  const TimeEstimate small =
      time_estimate_for("fused", "fp64", ghz(10), calib, {});
  const TimeEstimate large =
      time_estimate_for("fused", "fp64", ghz(20), calib, {});
  ASSERT_TRUE(small.supported);
  ASSERT_TRUE(large.supported);
  EXPECT_GT(large.seconds, small.seconds);
  EXPECT_GT(large.mem_bytes, small.mem_bytes);
}

TEST(RouteCost, CompactEnginesRefuseFp32) {
  Calibration calib;
  for (const char* be : {"dd", "mps"}) {
    const TimeEstimate est =
        time_estimate_for(be, "fp32", ghz(8), calib, {});
    EXPECT_FALSE(est.supported) << be;
    const TimeEstimate fp64 =
        time_estimate_for(be, "fp64", ghz(8), calib, {});
    EXPECT_TRUE(fp64.supported) << be;
  }
}

TEST(RouteCost, ExactMeasuredPointRescalesItsBackendOnly) {
  Calibration calib;
  const qiskit::QuantumCircuit qc = ghz(12);
  const TimeEstimate before =
      time_estimate_for("fused", "fp64", qc, calib, {});
  MeasuredPoint p;
  p.circuit = "ghz12";
  p.backend = "fused";
  p.precision = "fp64";
  p.qubits = 12;
  p.gates = 12;  // h + 11 cx — an exact workload-shape hit
  p.analytic_s = before.seconds;
  p.measured_s = before.seconds * 3.0;
  calib.measured.push_back(p);
  const TimeEstimate after =
      time_estimate_for("fused", "fp64", qc, calib, {});
  // The exact hit dominates the similarity-weighted blend: the estimate
  // reproduces the measured/analytic ratio.
  EXPECT_NEAR(after.seconds / before.seconds, 3.0, 1e-9);
  // Other (backend, precision) rows are untouched by the point.
  const TimeEstimate ref_before =
      time_estimate_for("reference", "fp64", qc, Calibration{}, {});
  const TimeEstimate ref_after =
      time_estimate_for("reference", "fp64", qc, calib, {});
  EXPECT_DOUBLE_EQ(ref_after.seconds, ref_before.seconds);
}

TEST(RoutePlan, DeterministicForSameCircuitAndBudget) {
  const qiskit::QuantumCircuit qc = circuits::build_qft(8, {});
  Budget budget;
  budget.max_error = 1e-4;
  const Placement a = plan(qc, budget);
  const Placement b = plan(qc, budget);
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  EXPECT_EQ(config_key(a.choice.config), config_key(b.choice.config));
  ASSERT_EQ(a.alternatives.size(), b.alternatives.size());
  for (std::size_t i = 0; i < a.alternatives.size(); ++i) {
    EXPECT_EQ(config_key(a.alternatives[i].config),
              config_key(b.alternatives[i].config))
        << "rank " << i;
    EXPECT_DOUBLE_EQ(a.alternatives[i].seconds, b.alternatives[i].seconds);
    EXPECT_EQ(a.alternatives[i].feasible, b.alternatives[i].feasible);
  }
  EXPECT_EQ(a.rationale, b.rationale);
}

// The router prices each fused width by the grouping pass alone; the
// sweep count it reports must be the block count of the plan the fused
// engine would build, and repeated calls must place identically.
TEST(RoutePlan, FusedSweepsMatchThePlanner) {
  circuits::RandomBlocksOptions ro;
  ro.num_qubits = 12;
  ro.num_blocks = 60;
  ro.seed = 3;
  const std::vector<qiskit::QuantumCircuit> circuits = {
      circuits::generate_random_circuit(ro), circuits::build_qft(12, {}),
      ghz(12)};
  Budget budget;
  budget.max_error = 1e-4;
  for (const qiskit::QuantumCircuit& qc : circuits) {
    SCOPED_TRACE(qc.name());
    const qiskit::QuantumCircuit tqc = qiskit::transpile(qc);
    const Placement p = plan(qc, budget);
    std::set<unsigned> widths;
    for (const Candidate& c : p.alternatives) {
      if (c.config.backend != "fused") continue;
      widths.insert(c.config.fusion_width);
      const unsigned w = c.config.fusion_width;
      const std::size_t blocks =
          sim::plan_fusion(tqc, {.max_width = w}).blocks.size();
      unsigned long long sweeps = 0;
      ASSERT_EQ(std::sscanf(c.detail.c_str(), "%llu sweeps", &sweeps), 1)
          << c.detail;
      EXPECT_EQ(sweeps, blocks) << "width " << w;
    }
    const std::vector<unsigned> all = RouteOptions{}.fusion_widths;
    EXPECT_EQ(widths, std::set<unsigned>(all.begin(), all.end()));
    EXPECT_EQ(p.to_json().dump(), plan(qc, budget).to_json().dump());
  }
}

TEST(RoutePlan, RankedFeasibleFirstThenCheapest) {
  Budget budget;
  budget.max_error = 1e-4;
  const Placement p = plan(ghz(10), budget);
  ASSERT_TRUE(p.feasible);
  bool seen_infeasible = false;
  double prev_seconds = 0.0;
  for (const Candidate& c : p.alternatives) {
    if (!c.feasible) {
      seen_infeasible = true;
      continue;
    }
    EXPECT_FALSE(seen_infeasible) << "feasible candidate ranked after an "
                                     "infeasible one";
    EXPECT_GE(c.seconds, prev_seconds);
    prev_seconds = c.seconds;
  }
  EXPECT_EQ(config_key(p.choice.config),
            config_key(p.alternatives.front().config));
}

TEST(RoutePlan, TightAccuracyBudgetForbidsFp32) {
  Budget budget;
  budget.max_error = 1e-9;  // below any fp32 bound, above fp64's
  const Placement p = plan(ghz(10), budget);
  ASSERT_TRUE(p.feasible);
  EXPECT_EQ(p.choice.config.precision, "fp64");
  bool saw_fp32 = false;
  for (const Candidate& c : p.alternatives) {
    if (c.config.precision != "fp32") continue;
    saw_fp32 = true;
    EXPECT_FALSE(c.feasible);
    EXPECT_NE(c.reject_reason.find("error bound"), std::string::npos);
  }
  EXPECT_TRUE(saw_fp32);
  // The rationale must say *why* the cheaper precision was off the table.
  bool explained = false;
  for (const std::string& line : p.rationale)
    explained = explained || line.find("fp32 forbidden") != std::string::npos;
  EXPECT_TRUE(explained);
}

TEST(RoutePlan, LooseAccuracyBudgetAdmitsFp32) {
  Budget budget;
  budget.max_error = 1e-4;  // shallow GHZ: fp32 bound ~2e-6
  const Placement p = plan(ghz(10), budget);
  ASSERT_TRUE(p.feasible);
  bool fp32_feasible = false;
  for (const Candidate& c : p.alternatives)
    fp32_feasible =
        fp32_feasible || (c.feasible && c.config.precision == "fp32");
  EXPECT_TRUE(fp32_feasible);
}

TEST(RoutePlan, MemoryBudgetRoutesAroundTheStatevector) {
  Budget budget;
  budget.max_error = 1e-4;
  budget.memory_bytes = std::uint64_t{256} << 20;  // 256 MiB
  const Placement p = plan(ghz(34), budget);  // dense price: 256 GiB
  ASSERT_TRUE(p.feasible);
  EXPECT_TRUE(p.choice.config.backend == "dd" ||
              p.choice.config.backend == "mps")
      << p.choice.config.backend;
  for (const Candidate& c : p.alternatives) {
    if (c.config.backend != "reference" && c.config.backend != "fused")
      continue;
    EXPECT_FALSE(c.feasible);
    EXPECT_NE(c.reject_reason.find("memory"), std::string::npos);
  }
}

TEST(RoutePlan, NothingFitsIsReportedNotThrown) {
  Budget budget;
  budget.memory_bytes = 1;  // nothing prices under a byte
  const Placement p = plan(ghz(12), budget);
  EXPECT_FALSE(p.feasible);
  ASSERT_FALSE(p.rationale.empty());
  EXPECT_NE(p.rationale.back().find("no candidate fits"), std::string::npos);
}

TEST(RoutePlan, TimeBudgetRejectsSlowCandidates) {
  Budget budget;
  budget.max_error = 1e-4;
  budget.time_s = 1e-12;  // nothing is this fast
  const Placement p = plan(ghz(10), budget);
  EXPECT_FALSE(p.feasible);
  for (const Candidate& c : p.alternatives)
    EXPECT_FALSE(c.feasible);
}

TEST(RouteReport, ShapeAndRoundTrip) {
  Budget budget;
  budget.max_error = 1e-4;
  budget.memory_bytes = std::uint64_t{1} << 30;
  const Placement p = plan(ghz(10), budget);
  const obs::JsonValue report = make_report({"ghz10"}, {p}, budget);
  EXPECT_EQ(report.at("schema").str(), "qgear.route.report/v1");
  EXPECT_DOUBLE_EQ(report.at("budget").at("max_error").number(), 1e-4);
  const auto& circuits = report.at("circuits").array();
  ASSERT_EQ(circuits.size(), 1u);
  const obs::JsonValue& entry = circuits.front();
  EXPECT_EQ(entry.at("name").str(), "ghz10");
  EXPECT_TRUE(entry.at("feasible").boolean());
  EXPECT_EQ(entry.at("choice").at("config").at("backend").str(),
            p.choice.config.backend);
  EXPECT_FALSE(entry.at("alternatives").array().empty());
  EXPECT_FALSE(entry.at("rationale").array().empty());
  EXPECT_GT(entry.at("features").at("num_qubits").number(), 0.0);
  // dump/parse round-trip keeps the document schema-checkable.
  const obs::JsonValue reparsed = obs::JsonValue::parse(report.dump());
  EXPECT_EQ(reparsed.at("circuits").array().size(), 1u);
}

TEST(RouteCalibration, JsonRoundTripPreservesEverything) {
  Calibration c;
  c.sweep_bw_fp32_bps = 1.25e10;
  c.sweep_bw_fp64_bps = 9.5e9;
  c.sweep_launch_s = 3.5e-7;
  c.dense_flops_ps = 7.0e10;
  c.dd_gate_base_s = 1.0e-6;
  c.dd_gate_node_s = 2.0e-8;
  c.mps_unit1q_s = 4.0e-9;
  c.mps_unit2q_s = 3.0e-9;
  MeasuredPoint p;
  p.circuit = "qft12";
  p.backend = "fused";
  p.precision = "fp32";
  p.qubits = 12;
  p.gates = 78;
  p.measured_s = 1.5e-4;
  p.analytic_s = 2.5e-4;
  c.measured.push_back(p);

  const Calibration r = Calibration::from_json(c.to_json());
  EXPECT_DOUBLE_EQ(r.sweep_bw_fp32_bps, c.sweep_bw_fp32_bps);
  EXPECT_DOUBLE_EQ(r.sweep_bw_fp64_bps, c.sweep_bw_fp64_bps);
  EXPECT_DOUBLE_EQ(r.sweep_launch_s, c.sweep_launch_s);
  EXPECT_DOUBLE_EQ(r.dense_flops_ps, c.dense_flops_ps);
  EXPECT_DOUBLE_EQ(r.dd_gate_base_s, c.dd_gate_base_s);
  EXPECT_DOUBLE_EQ(r.dd_gate_node_s, c.dd_gate_node_s);
  EXPECT_DOUBLE_EQ(r.mps_unit1q_s, c.mps_unit1q_s);
  EXPECT_DOUBLE_EQ(r.mps_unit2q_s, c.mps_unit2q_s);
  ASSERT_EQ(r.measured.size(), 1u);
  EXPECT_EQ(r.measured[0].circuit, "qft12");
  EXPECT_EQ(r.measured[0].backend, "fused");
  EXPECT_EQ(r.measured[0].precision, "fp32");
  EXPECT_EQ(r.measured[0].qubits, 12u);
  EXPECT_EQ(r.measured[0].gates, 78u);
  EXPECT_DOUBLE_EQ(r.measured[0].measured_s, 1.5e-4);
  EXPECT_DOUBLE_EQ(r.measured[0].analytic_s, 2.5e-4);
}

TEST(RouteCalibration, SaveLoadRecordsTheSource) {
  Calibration c;
  c.dense_flops_ps = 4.2e10;
  const std::string path = "route_calib_roundtrip.json";
  c.save(path);
  const Calibration loaded = Calibration::load(path);
  EXPECT_DOUBLE_EQ(loaded.dense_flops_ps, 4.2e10);
  EXPECT_EQ(loaded.source, path);
  std::remove(path.c_str());
}

TEST(RouteCalibration, RejectsForeignDocuments) {
  obs::JsonValue j{obs::JsonValue::Object{}};
  j.set("schema", "qgear.bench.report/v1");
  EXPECT_THROW(Calibration::from_json(j), InvalidArgument);
}

}  // namespace
}  // namespace qgear::route
