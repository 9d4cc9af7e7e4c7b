#include "qgear/sim/fusion.hpp"

#include <algorithm>
#include <cmath>

#include "qgear/common/error.hpp"

namespace qgear::sim {

namespace {

// Mutable in-progress fused block.
struct Builder {
  std::vector<unsigned> qubits;  // ascending
  CMat matrix;
  std::uint64_t source_gates = 0;

  bool empty() const { return qubits.empty(); }

  void clear() {
    qubits.clear();
    matrix = CMat();
    source_gates = 0;
  }
};

void flush(Builder& b, FusionPlan& plan, double diag_tol) {
  if (b.empty()) return;
  FusedBlock block;
  block.qubits = b.qubits;
  // Classify most-specialized first: diagonal beats permutation (every
  // diagonal unitary is also a phased identity permutation) beats dense.
  if (b.matrix.is_diagonal(diag_tol)) {
    block.kernel_class = KernelClass::diagonal;
    const std::uint64_t dim = b.matrix.dim();
    block.diag.resize(dim);
    for (std::uint64_t v = 0; v < dim; ++v) block.diag[v] = b.matrix.at(v, v);
  } else if (b.matrix.is_permutation(diag_tol, &block.perm, &block.phases)) {
    block.kernel_class = KernelClass::permutation;
  } else {
    block.kernel_class = KernelClass::dense;
  }
  block.matrix = std::move(b.matrix).take();
  block.source_gates = b.source_gates;
  plan.blocks.push_back(std::move(block));
  b.clear();
}

bool is_negligible_rotation(const qiskit::Instruction& inst,
                            double threshold) {
  using qiskit::GateKind;
  switch (inst.kind) {
    case GateKind::rx:
    case GateKind::ry:
    case GateKind::rz:
    case GateKind::p:
    case GateKind::cp:
      return std::abs(inst.param) < threshold;
    default:
      return false;
  }
}

}  // namespace

const char* kernel_class_name(KernelClass kc) {
  switch (kc) {
    case KernelClass::diagonal:
      return "diagonal";
    case KernelClass::permutation:
      return "permutation";
    case KernelClass::dense:
      break;
  }
  return "dense";
}

FusionPlan plan_fusion(const qiskit::QuantumCircuit& qc, FusionOptions opts) {
  QGEAR_CHECK_ARG(opts.max_width >= 1 && opts.max_width <= 10,
                  "fusion: max_width must be in [1, 10]");
  FusionPlan plan;
  Builder cur;

  for (const qiskit::Instruction& inst : qc.instructions()) {
    if (inst.kind == qiskit::GateKind::barrier) {
      flush(cur, plan, opts.diag_tol);
      continue;
    }
    if (inst.kind == qiskit::GateKind::measure) {
      flush(cur, plan, opts.diag_tol);
      plan.measured.push_back(static_cast<unsigned>(inst.q0));
      continue;
    }
    if (opts.angle_threshold > 0 &&
        is_negligible_rotation(inst, opts.angle_threshold)) {
      continue;  // approximated away
    }
    ++plan.input_gates;

    const std::vector<unsigned> gate_qubits = instruction_qubits(inst);

    // Union of current block qubits and the gate's qubits.
    std::vector<unsigned> merged;
    std::set_union(cur.qubits.begin(), cur.qubits.end(), gate_qubits.begin(),
                   gate_qubits.end(), std::back_inserter(merged));

    if (!cur.empty() && merged.size() > opts.max_width) {
      flush(cur, plan, opts.diag_tol);
      merged = gate_qubits;
    }

    const CMat gate_local = instruction_matrix(inst);
    const CMat gate_full = embed(gate_local, gate_qubits, merged);
    if (cur.empty()) {
      cur.qubits = merged;
      cur.matrix = gate_full;
    } else {
      // Later gates multiply from the left: state' = G * (U * state).
      const CMat prev_full = embed(cur.matrix, cur.qubits, merged);
      cur.matrix = gate_full.mul(prev_full);
      cur.qubits = std::move(merged);
    }
    ++cur.source_gates;
  }
  flush(cur, plan, opts.diag_tol);
  return plan;
}

}  // namespace qgear::sim
