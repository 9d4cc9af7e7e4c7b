// Gate-fusion planner — the optimization that makes the "Cuda-Q-like"
// engine fast (the paper sets `gate fusion = 5`, Appendix D.2).
//
// Adjacent gates are greedily merged into unitaries over at most
// `max_width` qubits; each fused block then costs a single amplitude
// sweep instead of one sweep per gate. Barriers flush the current block;
// measurements are collected for sampling.
//
// Planning runs in two steps. group_fusion applies the grouping rule and
// carries no matrices, so callers that only price a width (the router,
// the performance model) read its block count. plan_fusion composes each
// group's unitary on top of it.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/cmat.hpp"

namespace qgear::sim {

/// Cheapest kernel able to apply a fused block. Ordered from most to
/// least specialized; the planner classifies diagonal before permutation
/// (every diagonal is a phased identity permutation) before dense.
enum class KernelClass : int {
  diagonal = 0,     ///< multiply-only sweep over the 2^m diagonal values
  permutation = 1,  ///< out[perm[v]] = phases[v] * in[v]; O(2^m) per group
  dense = 2,        ///< full 2^m x 2^m matvec per group
};

const char* kernel_class_name(KernelClass kc);

/// One fused unitary over an ascending qubit list.
struct FusedBlock {
  std::vector<unsigned> qubits;                 ///< ascending global ids
  std::vector<std::complex<double>> matrix;     ///< row-major 2^m x 2^m
  KernelClass kernel_class = KernelClass::dense;
  /// Filled for diagonal blocks: the 2^m diagonal values.
  std::vector<std::complex<double>> diag;
  /// Filled for permutation blocks: column c maps to row perm[c] with
  /// weight phases[c].
  std::vector<std::uint32_t> perm;
  std::vector<std::complex<double>> phases;
  std::uint64_t source_gates = 0;               ///< gates fused in
};

/// Complete fusion plan for a circuit.
struct FusionPlan {
  std::vector<FusedBlock> blocks;
  std::vector<unsigned> measured;  ///< measure targets in program order
  std::uint64_t input_gates = 0;   ///< unitary gate count before fusion

  double fusion_ratio() const {
    return blocks.empty() ? 0.0
                          : static_cast<double>(input_gates) /
                                static_cast<double>(blocks.size());
  }
};

struct FusionOptions {
  unsigned max_width = 5;      ///< the paper's gate-fusion parameter
  double diag_tol = 1e-14;     ///< off-diagonal tolerance for diag blocks
  /// Rotations with |angle| below this are dropped entirely (the paper's
  /// "approximations for negligible rotation angles", Appendix D.2).
  double angle_threshold = 0.0;
};

/// One block of the grouping rule before any matrix exists: its qubits and
/// its gates as indices into qc.instructions(), in program order.
struct FusionGroup {
  std::vector<unsigned> qubits;    ///< ascending global ids
  std::vector<std::size_t> gates;  ///< instruction indices
};

/// The block structure of a fusion plan: plan_fusion(qc, o).blocks[i] spans
/// group_fusion(qc, o).groups[i].qubits and fuses exactly its gates.
struct FusionGrouping {
  std::vector<FusionGroup> groups;
  std::vector<unsigned> measured;  ///< measure targets in program order
  std::uint64_t input_gates = 0;   ///< unitary gate count before fusion
};

/// Greedy grouping: a gate joins the open block unless the union of their
/// qubits exceeds `max_width`, which closes the block first (a lone gate
/// wider than `max_width` still forms its own block). Barriers and
/// measurements close the open block; rotations below `angle_threshold`
/// are dropped.
FusionGrouping group_fusion(const qiskit::QuantumCircuit& qc,
                            FusionOptions opts = {});

/// Plans fusion for `qc`. Every unitary instruction lands in exactly one
/// block; blocks applied in order reproduce the circuit's unitary.
FusionPlan plan_fusion(const qiskit::QuantumCircuit& qc,
                       FusionOptions opts = {});

}  // namespace qgear::sim
