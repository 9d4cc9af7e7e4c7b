// Matrix-product-state simulation engine.
//
// Represents the state as a chain of site tensors A_k of shape
// (chi_left, 2, chi_right), qubit k = site k (little-endian, matching the
// statevector engines). Entanglement across each cut is captured by the
// bond dimension chi; low-entanglement circuits (shallow brickwork, GHZ,
// QFT on structured inputs) keep chi small and simulate in memory linear
// in n — far past the 2^n statevector wall.
//
// Two-qubit gates contract the neighboring pair into a theta tensor,
// apply the 4x4 unitary, and split back via SVD. Singular values whose
// squared weight falls below `Options::cutoff` (as a fraction of the
// total) are discarded and the rest renormalized; the discarded weight
// accumulates in EngineStats::truncation_error, so cutoff = 0 is exact
// simulation. Non-adjacent pairs are routed through transient swap
// chains. The chain is kept in mixed canonical form (orthogonality
// center moved by exact SVDs) so each truncation is locally optimal.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "qgear/common/rng.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/observable.hpp"
#include "qgear/sim/sampler.hpp"
#include "qgear/sim/stats.hpp"

namespace qgear::sim {

class MpsEngine {
 public:
  struct Options {
    /// Max fraction of squared Schmidt weight discarded per two-qubit
    /// SVD (0 = keep everything representable; exact simulation).
    double cutoff = 1e-12;
    /// Hard bond-dimension cap; 0 = unlimited. Gates that would exceed
    /// it truncate to the cap (recorded as truncation error).
    std::size_t max_bond = 256;
  };

  MpsEngine();
  explicit MpsEngine(Options opts);

  void init_state(unsigned num_qubits);
  unsigned num_qubits() const { return num_qubits_; }

  /// Applies all instructions in order; measure targets append to
  /// `measured`. Callable repeatedly — circuits compose.
  void apply(const qiskit::QuantumCircuit& qc,
             std::vector<unsigned>* measured = nullptr);

  /// Samples `shots` outcomes of `measured_qubits` (empty = all qubits,
  /// strictly ascending). Small registers (n <= 20) materialize the
  /// statevector and draw from it with sim::sample_amplitudes; larger
  /// ones use perfect MPS sampling at O(n * chi^2) per shot.
  Counts sample(const std::vector<unsigned>& measured_qubits,
                std::uint64_t shots, Rng& rng);

  double expectation(const PauliTerm& term);
  double expectation(const Observable& obs);

  std::complex<double> amplitude(std::uint64_t index) const;
  double norm() const;

  /// Dense materialization (diagnostics/tests; requires n <= 20).
  std::vector<std::complex<double>> to_statevector() const;

  /// Largest bond dimension currently in the chain.
  std::size_t max_bond_dimension() const;

  /// Total squared Schmidt weight discarded so far (0 for exact runs).
  double truncation_error() const { return truncation_error_; }

  /// Resident bytes a circuit is expected to need: per-cut bond
  /// dimensions bounded by circuit structure (2q gates crossing the
  /// cut), physical dimension, and `opts.max_bond`.
  static std::uint64_t memory_estimate(const qiskit::QuantumCircuit& qc,
                                       const Options& opts);

  const EngineStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

 private:
  /// One site tensor, shape (chi_l, 2, chi_r), row-major:
  /// t[(l * 2 + s) * chi_r + r].
  struct Site {
    std::size_t chi_l = 1;
    std::size_t chi_r = 1;
    std::vector<std::complex<double>> t;
  };

  void canonize_to(unsigned k);
  void move_center_right();
  void move_center_left();
  void apply_1q(unsigned q, const std::complex<double>* u);
  /// Applies a 4x4 on sites (k, k+1); basis index 2*bit(k+1) + bit(k).
  void apply_adjacent_2q(unsigned k, const std::complex<double>* u,
                         double cutoff);
  void apply_2q(const qiskit::Instruction& inst);
  void note_bond(std::size_t chi);

  Options opts_;
  std::vector<Site> sites_;
  unsigned center_ = 0;  ///< orthogonality center site
  unsigned num_qubits_ = 0;
  double truncation_error_ = 0.0;
  EngineStats stats_;
};

}  // namespace qgear::sim
