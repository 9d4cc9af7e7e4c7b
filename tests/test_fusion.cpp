#include "qgear/sim/fusion.hpp"

#include <gtest/gtest.h>

#include "qgear/common/bits.hpp"
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

}  // namespace
}  // namespace qgear::sim
