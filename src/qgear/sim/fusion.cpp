#include "qgear/sim/fusion.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "qgear/common/bits.hpp"
#include "qgear/common/error.hpp"

namespace qgear::sim {

namespace {

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

// One output row of a gate's local matrix: its nonzero coefficients in
// ascending column order, the order CMat::mul accumulates them in.
struct LocalRow {
  unsigned row = 0;
  unsigned terms = 0;
  unsigned col[4] = {};
  double re[4] = {};
  double im[4] = {};
};

// Next submask of `mask` after `v` in ascending order (0 after the last).
inline std::uint64_t next_submask(std::uint64_t v, std::uint64_t mask) {
  return (v - mask) & mask;
}

// The block matrix is composed in place in one 2^m x 2^m buffer. `span`
// holds the block bit positions the gates so far touch; the product of
// those gates lives in the rows and columns whose other bits are zero (the
// product is the identity on untouched qubits). This mirrors composing in
// a matrix that grows qubit by qubit, without allocating one per gate.
//
// widen() extends the product to the new bits of `grown` as identity:
// entry (r, c) with equal new bits copies the product entry with those
// bits cleared. Entries whose new bits differ keep the identity's zero.
void widen(std::complex<double>* m, std::uint64_t dim, std::uint64_t span,
           std::uint64_t grown) {
  const std::uint64_t added = grown & ~span;
  for (std::uint64_t hi = next_submask(0, added); hi != 0;
       hi = next_submask(hi, added)) {
    std::uint64_t r = 0;
    do {
      const std::complex<double>* src = m + r * dim;
      std::complex<double>* dst = m + (r | hi) * dim + hi;
      std::uint64_t c = 0;
      do {
        dst[c] = src[c];
        c = next_submask(c, span);
      } while (c != 0);
      r = next_submask(r, span);
    } while (r != 0);
  }
}

// m <- G * m on the `span` sub-block, where G is a gate's local matrix of
// dimension D = 2^k on the block bits at offsets `off` (identity
// elsewhere). Only the R rows G mixes are rewritten, one column at a time
// so the update is in place. Each entry is the sum CMat::mul forms for
// embed(G) * m: the same products (a·c − b·d, a·d + b·c) of the same
// nonzero coefficients, added in the same order, so the values match it
// exactly. Rows are padded to T terms with zero coefficients, which add
// only a zero (a zero entry may differ in sign).
template <unsigned D, unsigned R, unsigned T>
void mix_rows(std::complex<double>* m, std::uint64_t dim, std::uint64_t span,
              std::uint64_t gate_mask, const std::uint64_t (&off)[D],
              const LocalRow* rows) {
  // The coefficients live in locals, out of the column loop, so the
  // stores into m cannot force them to be reloaded.
  unsigned out[R] = {}, col[R][T] = {};
  double re[R][T] = {}, im[R][T] = {};
  for (unsigned r = 0; r < R; ++r) {
    out[r] = rows[r].row;
    for (unsigned t = 0; t < T; ++t) {
      col[r][t] = rows[r].col[t];
      re[r][t] = rows[r].re[t];
      im[r][t] = rows[r].im[t];
    }
  }
  const std::uint64_t rest = span & ~gate_mask;
  std::uint64_t base = 0;
  do {
    std::complex<double>* p[D];
    for (unsigned j = 0; j < D; ++j) p[j] = m + (base | off[j]) * dim;
    std::uint64_t c = 0;
    do {
      double xr[D] = {}, xi[D] = {};
      for (unsigned j = 0; j < D; ++j) {
        xr[j] = p[j][c].real();
        xi[j] = p[j][c].imag();
      }
      for (unsigned r = 0; r < R; ++r) {
        unsigned j = col[r][0];
        double acc_re = re[r][0] * xr[j] - im[r][0] * xi[j];
        double acc_im = re[r][0] * xi[j] + im[r][0] * xr[j];
        for (unsigned t = 1; t < T; ++t) {
          j = col[r][t];
          acc_re += re[r][t] * xr[j] - im[r][t] * xi[j];
          acc_im += re[r][t] * xi[j] + im[r][t] * xr[j];
        }
        p[out[r]][c] = {acc_re, acc_im};
      }
      c = next_submask(c, span);
    } while (c != 0);
    base = next_submask(base, rest);
  } while (base != 0);
}

template <unsigned D, unsigned R>
void mix_rows(std::complex<double>* m, std::uint64_t dim, std::uint64_t span,
              std::uint64_t gate_mask, const std::uint64_t (&off)[D],
              const LocalRow* rows, unsigned terms) {
  if (terms == 1) {
    mix_rows<D, R, 1>(m, dim, span, gate_mask, off, rows);
  } else if (terms == 2) {
    mix_rows<D, R, 2>(m, dim, span, gate_mask, off, rows);
  } else {
    mix_rows<D, R, D>(m, dim, span, gate_mask, off, rows);
  }
}

template <unsigned D>
void mix_rows(std::complex<double>* m, std::uint64_t dim, std::uint64_t span,
              std::uint64_t gate_mask, const std::uint64_t (&off)[D],
              const LocalRow* rows, unsigned nrows, unsigned terms) {
  if (nrows == 1)
    return mix_rows<D, 1>(m, dim, span, gate_mask, off, rows, terms);
  if (nrows == 2)
    return mix_rows<D, 2>(m, dim, span, gate_mask, off, rows, terms);
  if constexpr (D == 4) {
    if (nrows == 3)
      return mix_rows<D, 3>(m, dim, span, gate_mask, off, rows, terms);
    return mix_rows<D, 4>(m, dim, span, gate_mask, off, rows, terms);
  }
}

FusedBlock compose_block(const qiskit::QuantumCircuit& qc, FusionGroup group,
                         double diag_tol) {
  CMat m = CMat::identity(pow2(static_cast<unsigned>(group.qubits.size())));
  std::complex<double>* a = &m.at(0, 0);
  std::uint64_t span = 0;
  for (std::size_t idx : group.gates) {
    const qiskit::Instruction& inst = qc.instructions()[idx];
    const std::vector<unsigned> gq = instruction_qubits(inst);
    const CMat g = instruction_matrix(inst);
    const unsigned d = static_cast<unsigned>(g.dim());

    std::uint64_t bit[2] = {};
    for (std::size_t j = 0; j < gq.size(); ++j) {
      const auto it = std::lower_bound(group.qubits.begin(), group.qubits.end(),
                                       gq[j]);
      bit[j] = pow2(static_cast<unsigned>(it - group.qubits.begin()));
    }
    const std::uint64_t gate_mask = bit[0] | bit[1];
    if ((span | gate_mask) != span) {
      widen(a, m.dim(), span, span | gate_mask);
      span |= gate_mask;
    }

    // Identity rows leave m unchanged (1·x is x), so they are skipped.
    LocalRow rows[4];
    unsigned nrows = 0;
    unsigned terms = 1;
    for (unsigned i = 0; i < d; ++i) {
      LocalRow lr;
      lr.row = i;
      for (unsigned j = 0; j < d; ++j) {
        const std::complex<double> v = g.at(i, j);
        if (v == std::complex<double>(0, 0)) continue;
        lr.col[lr.terms] = j;
        lr.re[lr.terms] = v.real();
        lr.im[lr.terms] = v.imag();
        ++lr.terms;
      }
      const bool identity_row = lr.terms == 1 && lr.col[0] == i &&
                                lr.re[0] == 1.0 && lr.im[0] == 0.0;
      if (identity_row) continue;
      terms = std::max(terms, lr.terms);
      rows[nrows++] = lr;
    }
    if (nrows == 0) continue;
    if (d == 2) {
      mix_rows<2>(a, m.dim(), span, gate_mask, {0, bit[0]}, rows, nrows,
                  terms);
    } else {
      mix_rows<4>(a, m.dim(), span, gate_mask,
                  {0, bit[0], bit[1], bit[0] | bit[1]}, rows, nrows, terms);
    }
  }

  FusedBlock block;
  block.qubits = std::move(group.qubits);
  // Classify most-specialized first: diagonal beats permutation (every
  // diagonal unitary is also a phased identity permutation) beats dense.
  if (m.is_diagonal(diag_tol)) {
    block.kernel_class = KernelClass::diagonal;
    const std::uint64_t dim = m.dim();
    block.diag.resize(dim);
    for (std::uint64_t v = 0; v < dim; ++v) block.diag[v] = m.at(v, v);
  } else if (m.is_permutation(diag_tol, &block.perm, &block.phases)) {
    block.kernel_class = KernelClass::permutation;
  } else {
    block.kernel_class = KernelClass::dense;
  }
  block.matrix = std::move(m).take();
  block.source_gates = group.gates.size();
  return block;
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

FusionGrouping group_fusion(const qiskit::QuantumCircuit& qc,
                            FusionOptions opts) {
  QGEAR_CHECK_ARG(opts.max_width >= 1 && opts.max_width <= 10,
                  "fusion: max_width must be in [1, 10]");
  FusionGrouping out;
  FusionGroup cur;
  std::vector<unsigned> merged;
  const auto close = [&] {
    if (cur.gates.empty()) return;
    out.groups.push_back(std::move(cur));
    cur = FusionGroup();
  };

  const std::vector<qiskit::Instruction>& insts = qc.instructions();
  for (std::size_t i = 0; i < insts.size(); ++i) {
    const qiskit::Instruction& inst = insts[i];
    if (inst.kind == qiskit::GateKind::barrier) {
      close();
      continue;
    }
    if (inst.kind == qiskit::GateKind::measure) {
      close();
      out.measured.push_back(static_cast<unsigned>(inst.q0));
      continue;
    }
    if (opts.angle_threshold > 0 &&
        is_negligible_rotation(inst, opts.angle_threshold)) {
      continue;  // approximated away
    }
    ++out.input_gates;

    const std::vector<unsigned> gate_qubits = instruction_qubits(inst);
    merged.clear();
    std::set_union(cur.qubits.begin(), cur.qubits.end(), gate_qubits.begin(),
                   gate_qubits.end(), std::back_inserter(merged));
    if (!cur.gates.empty() && merged.size() > opts.max_width) {
      close();
      merged = gate_qubits;
    }
    cur.qubits.swap(merged);
    cur.gates.push_back(i);
  }
  close();
  return out;
}

FusionPlan plan_fusion(const qiskit::QuantumCircuit& qc, FusionOptions opts) {
  FusionGrouping grouping = group_fusion(qc, opts);
  FusionPlan plan;
  plan.blocks.reserve(grouping.groups.size());
  for (FusionGroup& group : grouping.groups)
    plan.blocks.push_back(compose_block(qc, std::move(group), opts.diag_tol));
  plan.measured = std::move(grouping.measured);
  plan.input_gates = grouping.input_gates;
  return plan;
}

}  // namespace qgear::sim
