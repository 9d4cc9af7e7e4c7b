#include "qgear/sim/fusion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "qgear/circuits/qcrank.hpp"
#include "qgear/circuits/qft.hpp"
#include "qgear/common/bits.hpp"
#include "qgear/common/rng.hpp"
#include "qgear/qiskit/transpile.hpp"
#include "tests/sim_test_util.hpp"

namespace qgear::sim {
namespace {

TEST(Fusion, SingleGateSingleBlock) {
  qiskit::QuantumCircuit qc(2);
  qc.h(0);
  const FusionPlan plan = plan_fusion(qc);
  ASSERT_EQ(plan.blocks.size(), 1u);
  EXPECT_EQ(plan.blocks[0].qubits, std::vector<unsigned>{0});
  EXPECT_EQ(plan.blocks[0].source_gates, 1u);
  EXPECT_EQ(plan.input_gates, 1u);
}

TEST(Fusion, AdjacentGatesFuse) {
  qiskit::QuantumCircuit qc(3);
  qc.h(0).ry(0.3, 1).cx(0, 1).rz(0.7, 2);  // all fit in width 3
  const FusionPlan plan = plan_fusion(qc, {.max_width = 3});
  ASSERT_EQ(plan.blocks.size(), 1u);
  EXPECT_EQ(plan.blocks[0].qubits, (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(plan.blocks[0].source_gates, 4u);
}

TEST(Fusion, WidthLimitSplitsBlocks) {
  qiskit::QuantumCircuit qc(4);
  qc.cx(0, 1).cx(2, 3);  // disjoint pairs: width 2 forces two blocks
  const FusionPlan plan = plan_fusion(qc, {.max_width = 2});
  EXPECT_EQ(plan.blocks.size(), 2u);
  const FusionPlan plan4 = plan_fusion(qc, {.max_width = 4});
  EXPECT_EQ(plan4.blocks.size(), 1u);
}

TEST(Fusion, EveryGateAccounted) {
  const auto qc = sim_test::random_circuit(6, 500, 3);
  for (unsigned width : {1u, 2u, 3u, 5u}) {
    const FusionPlan plan = plan_fusion(qc, {.max_width = width});
    std::uint64_t total = 0;
    for (const FusedBlock& b : plan.blocks) {
      total += b.source_gates;
      EXPECT_LE(b.qubits.size(), std::max(width, 2u));
    }
    EXPECT_EQ(total, plan.input_gates);
    EXPECT_GE(plan.fusion_ratio(), 1.0);
  }
}

TEST(Fusion, BlockMatricesAreUnitary) {
  const auto qc = sim_test::random_circuit(5, 100, 8);
  const FusionPlan plan = plan_fusion(qc, {.max_width = 4});
  for (const FusedBlock& b : plan.blocks) {
    CMat m(pow2(static_cast<unsigned>(b.qubits.size())));
    for (std::uint64_t i = 0; i < b.matrix.size(); ++i) {
      m.at(i / m.dim(), i % m.dim()) = b.matrix[i];
    }
    EXPECT_TRUE(m.is_unitary(1e-9));
  }
}

TEST(Fusion, DiagonalRunDetected) {
  qiskit::QuantumCircuit qc(3);
  qc.rz(0.1, 0).rz(0.2, 1).cp(0.3, 0, 2).p(0.4, 2);
  const FusionPlan plan = plan_fusion(qc, {.max_width = 3});
  ASSERT_EQ(plan.blocks.size(), 1u);
  EXPECT_EQ(plan.blocks[0].kernel_class, KernelClass::diagonal);
}

TEST(Fusion, NonDiagonalBlockFlagged) {
  qiskit::QuantumCircuit qc(2);
  qc.rz(0.1, 0).h(0);
  const FusionPlan plan = plan_fusion(qc, {.max_width = 2});
  ASSERT_EQ(plan.blocks.size(), 1u);
  EXPECT_EQ(plan.blocks[0].kernel_class, KernelClass::dense);
}

TEST(Fusion, BarrierFlushes) {
  qiskit::QuantumCircuit qc(2);
  qc.h(0);
  qc.barrier();
  qc.h(0);
  const FusionPlan plan = plan_fusion(qc, {.max_width = 2});
  EXPECT_EQ(plan.blocks.size(), 2u);
}

TEST(Fusion, MeasureFlushesAndRecords) {
  qiskit::QuantumCircuit qc(2);
  qc.h(0).measure(1).h(0);
  const FusionPlan plan = plan_fusion(qc, {.max_width = 2});
  EXPECT_EQ(plan.blocks.size(), 2u);
  EXPECT_EQ(plan.measured, std::vector<unsigned>{1});
}

TEST(Fusion, AngleThresholdDropsTinyRotations) {
  qiskit::QuantumCircuit qc(1);
  qc.rz(1e-9, 0).ry(0.5, 0);
  const FusionPlan keep = plan_fusion(qc, {.max_width = 2});
  EXPECT_EQ(keep.input_gates, 2u);
  const FusionPlan drop =
      plan_fusion(qc, {.max_width = 2, .angle_threshold = 1e-6});
  EXPECT_EQ(drop.input_gates, 1u);
  const FusionGrouping grouping =
      group_fusion(qc, {.max_width = 2, .angle_threshold = 1e-6});
  ASSERT_EQ(grouping.groups.size(), 1u);
  EXPECT_EQ(grouping.groups[0].gates, std::vector<std::size_t>{1});
}

TEST(Fusion, InvalidWidthRejected) {
  qiskit::QuantumCircuit qc(1);
  EXPECT_THROW(plan_fusion(qc, {.max_width = 0}), InvalidArgument);
  EXPECT_THROW(plan_fusion(qc, {.max_width = 11}), InvalidArgument);
}

TEST(Fusion, EmptyCircuitEmptyPlan) {
  qiskit::QuantumCircuit qc(3);
  const FusionPlan plan = plan_fusion(qc);
  EXPECT_TRUE(plan.blocks.empty());
  EXPECT_EQ(plan.fusion_ratio(), 0.0);
}

// --- Planner oracle -----------------------------------------------------
//
// plan_fusion composes each block in place. The oracle composes the same
// source gates the straightforward way — embed every gate into the
// growing qubit set and multiply with CMat::mul — and classifies the
// product with CMat's own predicates. Values must agree exactly.

struct OracleCase {
  std::string name;
  qiskit::QuantumCircuit qc;
  FusionOptions opts;
};

std::vector<OracleCase> oracle_cases() {
  std::vector<qiskit::QuantumCircuit> raw;
  raw.push_back(sim_test::random_circuit(9, 160, 21));
  raw.push_back(circuits::build_qft(8, {}));
  {
    const circuits::QCrank codec({.address_qubits = 4, .data_qubits = 3});
    Rng rng(5);
    std::vector<double> pixels(codec.capacity());
    for (double& v : pixels) v = rng.uniform(0, 1);
    raw.push_back(codec.encode(pixels));
  }
  {
    // A barrier, a mid-circuit measure and rotations small enough for the
    // angle threshold to drop.
    qiskit::QuantumCircuit qc = sim_test::random_circuit(7, 60, 4);
    qc.barrier();
    qc.rz(1e-9, 2).cp(-2e-9, 1, 5).measure(3);
    const qiskit::QuantumCircuit more = sim_test::random_circuit(7, 60, 9);
    for (const qiskit::Instruction& inst : more.instructions())
      qc.append(inst);
    raw.push_back(std::move(qc));
  }

  std::vector<OracleCase> cases;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    for (const bool transpiled : {false, true}) {
      const qiskit::QuantumCircuit qc =
          transpiled ? qiskit::transpile(raw[i]) : raw[i];
      for (unsigned w = 1; w <= 8; ++w) {
        for (const double threshold : {0.0, 1e-6}) {
          if (threshold > 0 && i + 1 != raw.size()) continue;
          std::string name = std::to_string(i) + (transpiled ? "t" : "r");
          name += "/w" + std::to_string(w) + (threshold > 0 ? "/thr" : "");
          const FusionOptions opts{.max_width = w,
                                   .angle_threshold = threshold};
          cases.push_back({name, qc, opts});
        }
      }
    }
  }
  return cases;
}

CMat oracle_matrix(const qiskit::QuantumCircuit& qc, const FusionGroup& g) {
  std::vector<unsigned> qubits;
  CMat u;
  for (std::size_t idx : g.gates) {
    const qiskit::Instruction& inst = qc.instructions()[idx];
    const std::vector<unsigned> gq = instruction_qubits(inst);
    const CMat gm = instruction_matrix(inst);
    if (qubits.empty()) {
      qubits = gq;
      u = gm;
      continue;
    }
    std::vector<unsigned> merged;
    std::set_union(qubits.begin(), qubits.end(), gq.begin(), gq.end(),
                   std::back_inserter(merged));
    u = embed(gm, gq, merged).mul(embed(u, qubits, merged));
    qubits = std::move(merged);
  }
  return embed(u, qubits, g.qubits);
}

TEST(FusionOracle, GroupingMatchesPlan) {
  for (const OracleCase& c : oracle_cases()) {
    SCOPED_TRACE(c.name);
    const FusionGrouping grouping = group_fusion(c.qc, c.opts);
    const FusionPlan plan = plan_fusion(c.qc, c.opts);
    ASSERT_EQ(grouping.groups.size(), plan.blocks.size());
    EXPECT_EQ(grouping.measured, plan.measured);
    EXPECT_EQ(grouping.input_gates, plan.input_gates);
    std::uint64_t gates = 0;
    for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
      EXPECT_EQ(grouping.groups[b].qubits, plan.blocks[b].qubits) << b;
      EXPECT_EQ(grouping.groups[b].gates.size(), plan.blocks[b].source_gates)
          << b;
      gates += plan.blocks[b].source_gates;
    }
    EXPECT_EQ(gates, plan.input_gates);
  }
}

// The rule itself, checked as properties: every kept gate lands once, in
// program order; a group spans exactly its gates' qubits and fits the
// width unless it holds one wider gate; and a group only closes when the
// next gate does not fit or a barrier/measure intervenes.
TEST(FusionOracle, GroupingIsGreedyAndComplete) {
  for (const OracleCase& c : oracle_cases()) {
    SCOPED_TRACE(c.name);
    const FusionGrouping grouping = group_fusion(c.qc, c.opts);
    const auto& insts = c.qc.instructions();
    std::vector<std::size_t> order;
    for (const FusionGroup& g : grouping.groups) {
      ASSERT_FALSE(g.gates.empty());
      std::vector<unsigned> span;
      for (std::size_t idx : g.gates) {
        const std::vector<unsigned> gq = instruction_qubits(insts[idx]);
        std::vector<unsigned> merged;
        std::set_union(span.begin(), span.end(), gq.begin(), gq.end(),
                       std::back_inserter(merged));
        span = std::move(merged);
        order.push_back(idx);
      }
      EXPECT_EQ(span, g.qubits);
      EXPECT_TRUE(g.qubits.size() <= c.opts.max_width || g.gates.size() == 1);
    }
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(order.size(), grouping.input_gates);

    for (std::size_t b = 0; b + 1 < grouping.groups.size(); ++b) {
      const FusionGroup& g = grouping.groups[b];
      const std::size_t next = grouping.groups[b + 1].gates.front();
      bool flushed = false;
      for (std::size_t i = g.gates.back() + 1; i < next; ++i) {
        flushed |= insts[i].kind == qiskit::GateKind::barrier ||
                   insts[i].kind == qiskit::GateKind::measure;
      }
      if (flushed) continue;
      const std::vector<unsigned> gq = instruction_qubits(insts[next]);
      std::vector<unsigned> merged;
      std::set_union(g.qubits.begin(), g.qubits.end(), gq.begin(), gq.end(),
                     std::back_inserter(merged));
      EXPECT_GT(merged.size(), c.opts.max_width) << "group " << b;
    }
  }
}

TEST(FusionOracle, BlocksEqualEmbedMulProduct) {
  std::uint64_t blocks = 0;
  for (const OracleCase& c : oracle_cases()) {
    SCOPED_TRACE(c.name);
    const FusionGrouping grouping = group_fusion(c.qc, c.opts);
    const FusionPlan plan = plan_fusion(c.qc, c.opts);
    ASSERT_EQ(grouping.groups.size(), plan.blocks.size());
    for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
      const FusedBlock& block = plan.blocks[b];
      const CMat u = oracle_matrix(c.qc, grouping.groups[b]);
      ASSERT_EQ(block.matrix.size(), u.data().size()) << b;
      for (std::size_t i = 0; i < block.matrix.size(); ++i)
        ASSERT_EQ(block.matrix[i], u.data()[i]) << "block " << b << " entry "
                                                << i;

      std::vector<std::uint32_t> perm;
      std::vector<std::complex<double>> phases;
      if (u.is_diagonal(c.opts.diag_tol)) {
        EXPECT_EQ(block.kernel_class, KernelClass::diagonal) << b;
        ASSERT_EQ(block.diag.size(), u.dim()) << b;
        for (std::uint64_t v = 0; v < u.dim(); ++v)
          EXPECT_EQ(block.diag[v], u.at(v, v)) << b;
      } else if (u.is_permutation(c.opts.diag_tol, &perm, &phases)) {
        EXPECT_EQ(block.kernel_class, KernelClass::permutation) << b;
        EXPECT_EQ(block.perm, perm) << b;
        EXPECT_EQ(block.phases, phases) << b;
      } else {
        EXPECT_EQ(block.kernel_class, KernelClass::dense) << b;
        EXPECT_TRUE(block.perm.empty() && block.diag.empty()) << b;
      }
      ++blocks;
    }
  }
  EXPECT_GT(blocks, 1000u);
}

}  // namespace
}  // namespace qgear::sim
