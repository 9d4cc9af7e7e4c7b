#include "qgear/sim/mps.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qgear/common/error.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/qiskit/gates.hpp"
#include "qgear/sim/svd.hpp"

namespace qgear::sim {

namespace {

using cd = std::complex<double>;

/// Squared-weight fraction below which singular values are numerical
/// junk from the Jacobi SVD (~1e-14 relative) rather than Schmidt
/// coefficients; always trimmed, even at cutoff = 0.
constexpr double kEpsCutoff = 1e-28;

constexpr cd kPauliX[4] = {{0, 0}, {1, 0}, {1, 0}, {0, 0}};
constexpr cd kPauliY[4] = {{0, 0}, {0, -1}, {0, 1}, {0, 0}};
constexpr cd kPauliZ[4] = {{1, 0}, {0, 0}, {0, 0}, {-1, 0}};

}  // namespace

MpsEngine::MpsEngine() : MpsEngine(Options{}) {}
MpsEngine::MpsEngine(Options opts) : opts_(opts) {
  QGEAR_CHECK_ARG(opts_.cutoff >= 0, "mps: cutoff must be >= 0");
}

void MpsEngine::init_state(unsigned num_qubits) {
  QGEAR_CHECK_ARG(num_qubits >= 1 && num_qubits <= 4096,
                  "mps: qubit count must be in 1..4096");
  num_qubits_ = num_qubits;
  sites_.assign(num_qubits, Site{});
  for (Site& s : sites_) s.t = {cd(1, 0), cd(0, 0)};
  center_ = 0;
  truncation_error_ = 0.0;
}

void MpsEngine::note_bond(std::size_t chi) {
  if (chi > stats_.mps_max_bond) stats_.mps_max_bond = chi;
}

void MpsEngine::move_center_right() {
  const unsigned k = center_;
  QGEAR_EXPECTS(k + 1 < sites_.size());
  Site& a = sites_[k];
  Site& b = sites_[k + 1];
  // Site k as a (chi_l*2) x chi_r matrix — exactly its row-major buffer.
  const SvdResult f = svd_complex(a.t.data(), a.chi_l * 2, a.chi_r);
  const std::size_t rank = truncation_rank(f.s, kEpsCutoff, 0);
  std::vector<cd> u((a.chi_l * 2) * rank);
  for (std::size_t r = 0; r < a.chi_l * 2; ++r) {
    for (std::size_t c = 0; c < rank; ++c) u[r * rank + c] = f.u[r * f.k + c];
  }
  // carry = diag(s) * Vh, absorbed into the right neighbor.
  std::vector<cd> bt((rank * 2) * b.chi_r, cd(0, 0));
  for (std::size_t c = 0; c < rank; ++c) {
    for (std::size_t m = 0; m < a.chi_r; ++m) {
      const cd w = f.s[c] * f.vh[c * a.chi_r + m];
      if (w == cd(0, 0)) continue;
      for (std::size_t s = 0; s < 2; ++s) {
        const cd* src = &b.t[(m * 2 + s) * b.chi_r];
        cd* dst = &bt[(c * 2 + s) * b.chi_r];
        for (std::size_t r = 0; r < b.chi_r; ++r) dst[r] += w * src[r];
      }
    }
  }
  a.t = std::move(u);
  a.chi_r = rank;
  b.t = std::move(bt);
  b.chi_l = rank;
  center_ = k + 1;
}

void MpsEngine::move_center_left() {
  const unsigned k = center_;
  QGEAR_EXPECTS(k >= 1);
  Site& a = sites_[k];
  Site& p = sites_[k - 1];
  // Site k as a chi_l x (2*chi_r) matrix — same row-major buffer.
  const SvdResult f = svd_complex(a.t.data(), a.chi_l, 2 * a.chi_r);
  const std::size_t rank = truncation_rank(f.s, kEpsCutoff, 0);
  std::vector<cd> vh(rank * 2 * a.chi_r);
  for (std::size_t c = 0; c < rank; ++c) {
    for (std::size_t j = 0; j < 2 * a.chi_r; ++j) {
      vh[c * (2 * a.chi_r) + j] = f.vh[c * (2 * a.chi_r) + j];
    }
  }
  // carry = U * diag(s), absorbed into the left neighbor.
  std::vector<cd> pt((p.chi_l * 2) * rank, cd(0, 0));
  for (std::size_t row = 0; row < p.chi_l * 2; ++row) {
    const cd* src = &p.t[row * p.chi_r];
    cd* dst = &pt[row * rank];
    for (std::size_t m = 0; m < a.chi_l; ++m) {
      if (src[m] == cd(0, 0)) continue;
      for (std::size_t c = 0; c < rank; ++c) {
        dst[c] += src[m] * f.u[m * f.k + c] * f.s[c];
      }
    }
  }
  a.t = std::move(vh);
  a.chi_l = rank;
  p.t = std::move(pt);
  p.chi_r = rank;
  center_ = k - 1;
}

void MpsEngine::canonize_to(unsigned k) {
  while (center_ < k) move_center_right();
  while (center_ > k) move_center_left();
}

void MpsEngine::apply_1q(unsigned q, const cd* u) {
  Site& a = sites_[q];
  for (std::size_t l = 0; l < a.chi_l; ++l) {
    for (std::size_t r = 0; r < a.chi_r; ++r) {
      const cd v0 = a.t[(l * 2 + 0) * a.chi_r + r];
      const cd v1 = a.t[(l * 2 + 1) * a.chi_r + r];
      a.t[(l * 2 + 0) * a.chi_r + r] = u[0] * v0 + u[1] * v1;
      a.t[(l * 2 + 1) * a.chi_r + r] = u[2] * v0 + u[3] * v1;
    }
  }
  stats_.amp_ops += a.t.size();
}

void MpsEngine::apply_adjacent_2q(unsigned k, const cd* u, double cutoff) {
  canonize_to(k);
  Site& a = sites_[k];
  Site& b = sites_[k + 1];
  const std::size_t cl = a.chi_l;
  const std::size_t cm = a.chi_r;
  const std::size_t cr = b.chi_r;

  // theta[l, s_k, s_k1, r] = sum_m A[l, s_k, m] B[m, s_k1, r]
  std::vector<cd> theta(cl * 2 * 2 * cr, cd(0, 0));
  for (std::size_t l = 0; l < cl; ++l) {
    for (std::size_t sk = 0; sk < 2; ++sk) {
      for (std::size_t m = 0; m < cm; ++m) {
        const cd av = a.t[(l * 2 + sk) * cm + m];
        if (av == cd(0, 0)) continue;
        for (std::size_t sk1 = 0; sk1 < 2; ++sk1) {
          const cd* src = &b.t[(m * 2 + sk1) * cr];
          cd* dst = &theta[((l * 2 + sk) * 2 + sk1) * cr];
          for (std::size_t r = 0; r < cr; ++r) dst[r] += av * src[r];
        }
      }
    }
  }
  stats_.amp_ops += cl * 2 * cm * 2 * cr;

  // Gate: row/col index is 2*bit(k+1) + bit(k).
  std::vector<cd> theta2(cl * 2 * 2 * cr, cd(0, 0));
  for (std::size_t l = 0; l < cl; ++l) {
    for (std::size_t ak = 0; ak < 2; ++ak) {
      for (std::size_t ak1 = 0; ak1 < 2; ++ak1) {
        cd* dst = &theta2[((l * 2 + ak) * 2 + ak1) * cr];
        const std::size_t row = 2 * ak1 + ak;
        for (std::size_t sk = 0; sk < 2; ++sk) {
          for (std::size_t sk1 = 0; sk1 < 2; ++sk1) {
            const cd w = u[row * 4 + (2 * sk1 + sk)];
            if (w == cd(0, 0)) continue;
            const cd* src = &theta[((l * 2 + sk) * 2 + sk1) * cr];
            for (std::size_t r = 0; r < cr; ++r) dst[r] += w * src[r];
          }
        }
      }
    }
  }

  // theta2's layout is already the (cl*2) x (2*cr) matrix with rows
  // (l, s_k) and columns (s_k1, r) — split it back with a truncated SVD.
  const SvdResult f = svd_complex(theta2.data(), cl * 2, 2 * cr);
  const std::size_t rank =
      truncation_rank(f.s, std::max(cutoff, kEpsCutoff), opts_.max_bond);
  double total = 0, kept = 0;
  for (std::size_t i = 0; i < f.s.size(); ++i) total += f.s[i] * f.s[i];
  for (std::size_t i = 0; i < rank; ++i) kept += f.s[i] * f.s[i];
  if (total > 0 && kept < total) {
    const double discarded = (total - kept) / total;
    truncation_error_ += discarded;
    stats_.truncation_error += discarded;
  }
  // Renormalize the kept spectrum so the state stays norm-preserving.
  const double renorm = (kept > 0) ? std::sqrt(total / kept) : 1.0;

  a.t.assign(cl * 2 * rank, cd(0, 0));
  for (std::size_t r = 0; r < cl * 2; ++r) {
    for (std::size_t c = 0; c < rank; ++c) {
      a.t[r * rank + c] = f.u[r * f.k + c];
    }
  }
  a.chi_r = rank;
  b.t.assign(rank * 2 * cr, cd(0, 0));
  for (std::size_t c = 0; c < rank; ++c) {
    const double sv = f.s[c] * renorm;
    for (std::size_t sk1 = 0; sk1 < 2; ++sk1) {
      for (std::size_t r = 0; r < cr; ++r) {
        b.t[(c * 2 + sk1) * cr + r] = sv * f.vh[c * (2 * cr) + sk1 * cr + r];
      }
    }
  }
  b.chi_l = rank;
  center_ = k + 1;
  note_bond(rank);
}

void MpsEngine::apply_2q(const qiskit::Instruction& inst) {
  const unsigned q0 = static_cast<unsigned>(inst.q0);
  const unsigned q1 = static_cast<unsigned>(inst.q1);
  const unsigned lo = std::min(q0, q1);
  const unsigned hi = std::max(q0, q1);
  const qiskit::Mat4 u = qiskit::gate_matrix_2q(inst.kind, inst.param, q0, q1);
  if (hi == lo + 1) {
    apply_adjacent_2q(lo, u.data(), opts_.cutoff);
    return;
  }
  // Swap the low operand up next to the high one, act, swap back.
  const qiskit::Mat4 sw =
      qiskit::gate_matrix_2q(qiskit::GateKind::swap, 0, lo, lo + 1);
  for (unsigned j = lo; j + 1 < hi; ++j) {
    apply_adjacent_2q(j, sw.data(), opts_.cutoff);
  }
  apply_adjacent_2q(hi - 1, u.data(), opts_.cutoff);
  for (unsigned j = hi - 1; j-- > lo;) {
    apply_adjacent_2q(j, sw.data(), opts_.cutoff);
  }
}

void MpsEngine::apply(const qiskit::QuantumCircuit& qc,
                      std::vector<unsigned>* measured) {
  QGEAR_CHECK_ARG(!sites_.empty(), "mps: init_state must precede apply");
  QGEAR_CHECK_ARG(qc.num_qubits() == num_qubits_,
                  "mps: circuit and state qubit counts differ");
  obs::Tracer& tracer = obs::Tracer::global();
  obs::Span apply_span(tracer, "mps.apply", "sim");
  const EngineStats before = stats_;
  WallTimer timer;
  for (const qiskit::Instruction& inst : qc.instructions()) {
    ++stats_.gates;
    if (inst.kind == qiskit::GateKind::barrier) continue;
    if (inst.kind == qiskit::GateKind::measure) {
      if (measured != nullptr) {
        measured->push_back(static_cast<unsigned>(inst.q0));
      }
      continue;
    }
    if (qiskit::gate_info(inst.kind).num_qubits == 1) {
      const qiskit::Mat2 m = qiskit::gate_matrix_1q(inst.kind, inst.param);
      apply_1q(static_cast<unsigned>(inst.q0), m.data());
    } else {
      apply_2q(inst);
    }
    ++stats_.sweeps;
  }
  stats_.seconds += timer.seconds();

  auto& reg = obs::Registry::global();
  reg.counter("sim.gates").add(stats_.gates - before.gates);
  reg.counter("sim.sweeps").add(stats_.sweeps - before.sweeps);
  reg.counter("sim.amp_ops").add(stats_.amp_ops - before.amp_ops);
  if (apply_span.active()) {
    apply_span.arg("gates", stats_.gates - before.gates);
    apply_span.arg("qubits", std::uint64_t{qc.num_qubits()});
    apply_span.arg("max_bond", std::uint64_t{max_bond_dimension()});
  }
}

std::size_t MpsEngine::max_bond_dimension() const {
  std::size_t chi = 1;
  for (const Site& s : sites_) chi = std::max(chi, s.chi_r);
  return chi;
}

std::complex<double> MpsEngine::amplitude(std::uint64_t index) const {
  QGEAR_CHECK_ARG(!sites_.empty(), "mps: init_state must precede amplitude");
  std::vector<cd> v{cd(1, 0)};
  for (unsigned k = 0; k < num_qubits_; ++k) {
    const Site& a = sites_[k];
    const std::size_t bit = k < 64 ? ((index >> k) & 1) : 0;
    std::vector<cd> next(a.chi_r, cd(0, 0));
    for (std::size_t l = 0; l < a.chi_l; ++l) {
      if (v[l] == cd(0, 0)) continue;
      const cd* row = &a.t[(l * 2 + bit) * a.chi_r];
      for (std::size_t r = 0; r < a.chi_r; ++r) next[r] += v[l] * row[r];
    }
    v = std::move(next);
  }
  return v[0];
}

namespace {

/// Transfer-matrix contraction of <psi| prod_k O_k |psi> where ops[k] is
/// a 2x2 (nullptr = identity).
cd contract_chain(const std::vector<std::vector<cd>>& site_t,
                  const std::vector<std::size_t>& chi_l,
                  const std::vector<std::size_t>& chi_r,
                  const std::vector<const cd*>& ops) {
  std::vector<cd> m{cd(1, 0)};  // (chi, chi) row-major, starts 1x1
  const std::size_t n = site_t.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t cl = chi_l[k];
    const std::size_t cr = chi_r[k];
    const std::vector<cd>& a = site_t[k];
    // X[l, s', r'] = sum_{l'} M[l, l'] A[l', s', r']
    std::vector<cd> x(cl * 2 * cr, cd(0, 0));
    for (std::size_t l = 0; l < cl; ++l) {
      for (std::size_t lp = 0; lp < cl; ++lp) {
        const cd w = m[l * cl + lp];
        if (w == cd(0, 0)) continue;
        for (std::size_t sp = 0; sp < 2; ++sp) {
          const cd* src = &a[(lp * 2 + sp) * cr];
          cd* dst = &x[(l * 2 + sp) * cr];
          for (std::size_t r = 0; r < cr; ++r) dst[r] += w * src[r];
        }
      }
    }
    // Y[l, s, r'] = sum_{s'} O[s, s'] X[l, s', r']
    std::vector<cd> y;
    const std::vector<cd>* yy = &x;
    if (ops[k] != nullptr) {
      y.assign(cl * 2 * cr, cd(0, 0));
      const cd* o = ops[k];
      for (std::size_t l = 0; l < cl; ++l) {
        for (std::size_t s = 0; s < 2; ++s) {
          cd* dst = &y[(l * 2 + s) * cr];
          for (std::size_t sp = 0; sp < 2; ++sp) {
            const cd w = o[s * 2 + sp];
            if (w == cd(0, 0)) continue;
            const cd* src = &x[(l * 2 + sp) * cr];
            for (std::size_t r = 0; r < cr; ++r) dst[r] += w * src[r];
          }
        }
      }
      yy = &y;
    }
    // M'[r, r'] = sum_{l, s} conj(A[l, s, r]) Y[l, s, r']
    std::vector<cd> next(cr * cr, cd(0, 0));
    for (std::size_t l = 0; l < cl; ++l) {
      for (std::size_t s = 0; s < 2; ++s) {
        const cd* arow = &a[(l * 2 + s) * cr];
        const cd* yrow = &(*yy)[(l * 2 + s) * cr];
        for (std::size_t r = 0; r < cr; ++r) {
          const cd w = std::conj(arow[r]);
          if (w == cd(0, 0)) continue;
          cd* dst = &next[r * cr];
          for (std::size_t rp = 0; rp < cr; ++rp) dst[rp] += w * yrow[rp];
        }
      }
    }
    m = std::move(next);
  }
  return m[0];
}

}  // namespace

double MpsEngine::norm() const {
  QGEAR_CHECK_ARG(!sites_.empty(), "mps: init_state must precede norm");
  std::vector<std::vector<cd>> t;
  std::vector<std::size_t> cl, cr;
  for (const Site& s : sites_) {
    t.push_back(s.t);
    cl.push_back(s.chi_l);
    cr.push_back(s.chi_r);
  }
  const std::vector<const cd*> ops(sites_.size(), nullptr);
  return std::sqrt(std::max(0.0, contract_chain(t, cl, cr, ops).real()));
}

double MpsEngine::expectation(const PauliTerm& term) {
  QGEAR_CHECK_ARG(!sites_.empty(), "mps: init_state must precede expectation");
  QGEAR_CHECK_ARG(term.ops.size() <= num_qubits_,
                  "mps: Pauli term acts on more qubits than the state has");
  std::vector<std::vector<cd>> t;
  std::vector<std::size_t> cl, cr;
  for (const Site& s : sites_) {
    t.push_back(s.t);
    cl.push_back(s.chi_l);
    cr.push_back(s.chi_r);
  }
  std::vector<const cd*> ops(sites_.size(), nullptr);
  for (std::size_t q = 0; q < term.ops.size(); ++q) {
    switch (term.ops[q]) {
      case Pauli::I: break;
      case Pauli::X: ops[q] = kPauliX; break;
      case Pauli::Y: ops[q] = kPauliY; break;
      case Pauli::Z: ops[q] = kPauliZ; break;
    }
  }
  return term.coefficient * contract_chain(t, cl, cr, ops).real();
}

double MpsEngine::expectation(const Observable& obs) {
  double acc = 0;
  for (const PauliTerm& term : obs.terms()) acc += expectation(term);
  return acc;
}

std::vector<std::complex<double>> MpsEngine::to_statevector() const {
  QGEAR_CHECK_ARG(!sites_.empty(),
                  "mps: init_state must precede to_statevector");
  QGEAR_CHECK_ARG(num_qubits_ <= 20,
                  "mps: to_statevector limited to 20 qubits");
  // Progressive contraction: cur[x, m] over index-prefix x and bond m.
  std::vector<cd> cur{cd(1, 0)};
  std::size_t prefix = 1;
  for (unsigned k = 0; k < num_qubits_; ++k) {
    const Site& a = sites_[k];
    std::vector<cd> next(prefix * 2 * a.chi_r, cd(0, 0));
    for (std::size_t x = 0; x < prefix; ++x) {
      for (std::size_t m = 0; m < a.chi_l; ++m) {
        const cd w = cur[x * a.chi_l + m];
        if (w == cd(0, 0)) continue;
        for (std::size_t s = 0; s < 2; ++s) {
          // New prefix index: bit k of the amplitude index is s.
          const std::size_t nx = x | (s << k);
          const cd* src = &a.t[(m * 2 + s) * a.chi_r];
          cd* dst = &next[nx * a.chi_r];
          for (std::size_t r = 0; r < a.chi_r; ++r) dst[r] += w * src[r];
        }
      }
    }
    cur = std::move(next);
    prefix *= 2;
  }
  return cur;  // final chi_r == 1: cur[x] is the amplitude of |x>
}

Counts MpsEngine::sample(const std::vector<unsigned>& measured_qubits,
                         std::uint64_t shots, Rng& rng) {
  QGEAR_CHECK_ARG(!sites_.empty(), "mps: init_state must precede sample");
  std::vector<unsigned> mq = measured_qubits;
  if (mq.empty()) {
    mq.resize(num_qubits_);
    for (unsigned q = 0; q < num_qubits_; ++q) mq[q] = q;
  }
  QGEAR_CHECK_ARG(mq.size() <= 64,
                  "mps: at most 64 qubits can be packed into one outcome key");
  for (std::size_t j = 0; j < mq.size(); ++j) {
    QGEAR_CHECK_ARG(mq[j] < num_qubits_, "mps: measured qubit out of range");
    QGEAR_CHECK_ARG(j == 0 || mq[j] > mq[j - 1],
                    "mps: measured qubits must be strictly ascending");
  }

  if (num_qubits_ <= 20) {
    // Dense path: one streaming pass over the contracted amplitudes.
    const std::vector<cd> amps = to_statevector();
    return sample_amplitudes(amps.data(), amps.size(), mq, shots, rng);
  }

  // Perfect sampling: with the center at site 0 every site to the right
  // is right-canonical, so the conditional outcome weights are the norms
  // of the partially contracted environment. O(n * chi^2) per shot.
  canonize_to(0);
  Counts counts;
  std::vector<int> bits(num_qubits_, 0);
  for (std::uint64_t shot = 0; shot < shots; ++shot) {
    std::vector<cd> v{cd(1, 0)};
    for (unsigned k = 0; k < num_qubits_; ++k) {
      const Site& a = sites_[k];
      std::vector<cd> cand[2];
      double w[2] = {0, 0};
      for (std::size_t s = 0; s < 2; ++s) {
        cand[s].assign(a.chi_r, cd(0, 0));
        for (std::size_t l = 0; l < a.chi_l; ++l) {
          if (v[l] == cd(0, 0)) continue;
          const cd* row = &a.t[(l * 2 + s) * a.chi_r];
          for (std::size_t r = 0; r < a.chi_r; ++r) {
            cand[s][r] += v[l] * row[r];
          }
        }
        for (const cd& c : cand[s]) w[s] += std::norm(c);
      }
      const double tot = w[0] + w[1];
      QGEAR_CHECK_ARG(tot > 0, "mps: cannot sample a zero-norm state");
      const int bit = rng.uniform() * tot < w[1] ? 1 : 0;
      bits[k] = bit;
      v = std::move(cand[bit]);
      // Normalize to keep magnitudes O(1) across long chains.
      const double nv = std::sqrt(w[bit]);
      for (cd& c : v) c /= nv;
    }
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < mq.size(); ++j) {
      key |= static_cast<std::uint64_t>(bits[mq[j]]) << j;
    }
    ++counts[key];
  }
  return counts;
}

std::uint64_t MpsEngine::memory_estimate(const qiskit::QuantumCircuit& qc,
                                         const Options& opts) {
  const unsigned n = qc.num_qubits();
  if (n == 0) return 0;
  // Bond bound per cut k (between sites k and k+1): limited by position
  // (2^min(k+1, n-1-k)), by circuit structure (each 2q gate crossing the
  // cut at most doubles the bond), and by the configured cap.
  std::vector<unsigned> crossings(n, 0);
  for (const qiskit::Instruction& inst : qc.instructions()) {
    if (qiskit::gate_info(inst.kind).num_qubits != 2) continue;
    const unsigned lo = static_cast<unsigned>(std::min(inst.q0, inst.q1));
    const unsigned hi = static_cast<unsigned>(std::max(inst.q0, inst.q1));
    for (unsigned k = lo; k < hi; ++k) ++crossings[k];
  }
  auto bond = [&](unsigned cut) -> double {
    // cut in [0, n-2]; chi at the chain boundaries is 1.
    const unsigned pos = std::min(cut + 1, n - 1 - cut);
    const unsigned exp = std::min({pos, std::min(crossings[cut], 30u), 30u});
    double chi = std::pow(2.0, double(exp));
    if (opts.max_bond > 0) chi = std::min(chi, double(opts.max_bond));
    return chi;
  };
  double bytes = 0;
  for (unsigned k = 0; k < n; ++k) {
    const double cl = k == 0 ? 1.0 : bond(k - 1);
    const double cr = k + 1 == n ? 1.0 : bond(k);
    bytes += cl * 2.0 * cr * sizeof(cd);
  }
  const double cap = 9.0e18;  // clamp below uint64 range
  return static_cast<std::uint64_t>(std::min(bytes, cap));
}

}  // namespace qgear::sim
