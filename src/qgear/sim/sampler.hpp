// Shot sampling from final state vectors.
//
// Every dense-amplitude draw (sample_counts, each rank's local draw in
// dist::sample_distributed, the MPS engine's dense path) goes through one
// streaming, chunked inverse-CDF sampler, modelled on cuStateVec's
// (arXiv:2308.01999): no table the size of the state is built.
//
//  1. The amplitudes are cut into fixed chunks of kSampleChunk amplitudes
//     and each chunk's weight sum |a|^2 is taken in double, in index order
//     (in parallel over chunks when a ThreadPool is given). The
//     distributed draw sums these into its rank weight, so a slab is
//     summed once (chunk_weights).
//  2. The shots are split over the chunks by drawing from that small
//     chunk-weight vector (AliasSampler).
//  3. Each chunk that received k shots draws k uniform targets from its own
//     stream and maps each target t to the first index whose running sum
//     exceeds t, accumulating in the same order as its weight so the
//     running sum ends exactly at that weight. A zero-probability index is
//     never drawn. For k up to the chunk length the targets are sorted and
//     matched in one walk over the amplitudes; past it (shots >> 2^n),
//     where the sort's O(k log k) would dominate, a prefix-sum array with
//     a guide table keeps the chunk at O(C + k). Both pick the same index
//     for each target, so the choice moves time, never counts.
//
// Memory is O(2^n / C + shots) plus O(C) scratch per worker; the 2^n
// alias tables of a Walker sampler are gone. The per-chunk streams derive
// from a single draw of the caller's rng and the chunk index, so the
// counts for a given state and seed do not depend on the pool size, and
// the caller's rng always advances by exactly one draw.
#pragma once

#include <complex>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "qgear/common/rng.hpp"
#include "qgear/common/thread_pool.hpp"
#include "qgear/sim/state.hpp"

namespace qgear::sim {

/// Amplitudes per sampling chunk (a fixed constant, not a setting).
inline constexpr std::uint64_t kSampleChunk = std::uint64_t{1} << 14;

/// Walker alias sampler over a small (unnormalized) weight vector: the
/// chunk split of the streaming sampler and dist's per-rank shot split.
class AliasSampler {
 public:
  explicit AliasSampler(const std::vector<double>& weights);

  /// Draws one index with probability weight[i] / sum(weights).
  std::uint64_t sample(Rng& rng) const;

  std::uint64_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<std::uint64_t> alias_;
};

/// Histogram of measurement outcomes keyed by the packed bit-string of the
/// measured qubits (bit j of the key = value of measured_qubits[j]).
using Counts = std::map<std::uint64_t, std::uint64_t>;

/// Unordered (key, count) pairs, possibly repeating a key: the draws of
/// one chunk or of one rank before they are merged.
using KeyCounts = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Sums `pairs` by key into Counts with one sort, rather than one tree
/// lookup per pair.
Counts to_counts(KeyCounts pairs);

/// Step 1 of the sampler: the weight sum of each kSampleChunk-amplitude
/// chunk of amps[0, size) (the last one may be shorter), in index order.
template <typename T>
std::vector<double> chunk_weights(const std::complex<T>* amps,
                                  std::uint64_t size,
                                  ThreadPool* pool = nullptr);

/// Draws `shots` basis indices i of amps[0, size) with probability
/// |amps[i]|^2 / sum_j |amps[j]|^2 and histograms them by key: bit j of
/// the key is bit positions[j] of (index_base | i). `index_base` carries
/// index bits above the slab (a rank's global bits). `weights`, when
/// given, is chunk_weights(amps, size, pool) already taken by the caller,
/// so the state is not summed twice. Opens a `sample` span. Throws
/// InvalidArgument when every amplitude is zero.
template <typename T>
Counts sample_amplitudes(const std::complex<T>* amps, std::uint64_t size,
                         const std::vector<unsigned>& positions,
                         std::uint64_t shots, Rng& rng,
                         ThreadPool* pool = nullptr,
                         std::uint64_t index_base = 0,
                         const std::vector<double>* weights = nullptr);

/// Samples `shots` outcomes of the given qubits from `state`.
/// `measured_qubits` in ascending significance order; duplicates are not
/// allowed. If empty, all qubits are measured. `pool` parallelizes the
/// passes over the state; the counts do not depend on it.
template <typename T>
Counts sample_counts(const StateVector<T>& state,
                     std::vector<unsigned> measured_qubits,
                     std::uint64_t shots, Rng& rng,
                     ThreadPool* pool = nullptr);

/// Per-qubit expectation of measuring |1> (diagnostics and QCrank decode).
template <typename T>
std::vector<double> qubit_one_probabilities(const StateVector<T>& state);

extern template std::vector<double> chunk_weights<float>(
    const std::complex<float>*, std::uint64_t, ThreadPool*);
extern template std::vector<double> chunk_weights<double>(
    const std::complex<double>*, std::uint64_t, ThreadPool*);
extern template Counts sample_amplitudes<float>(
    const std::complex<float>*, std::uint64_t, const std::vector<unsigned>&,
    std::uint64_t, Rng&, ThreadPool*, std::uint64_t,
    const std::vector<double>*);
extern template Counts sample_amplitudes<double>(
    const std::complex<double>*, std::uint64_t, const std::vector<unsigned>&,
    std::uint64_t, Rng&, ThreadPool*, std::uint64_t,
    const std::vector<double>*);
extern template Counts sample_counts<float>(const StateVector<float>&,
                                            std::vector<unsigned>,
                                            std::uint64_t, Rng&, ThreadPool*);
extern template Counts sample_counts<double>(const StateVector<double>&,
                                             std::vector<unsigned>,
                                             std::uint64_t, Rng&,
                                             ThreadPool*);
extern template std::vector<double> qubit_one_probabilities<float>(
    const StateVector<float>&);
extern template std::vector<double> qubit_one_probabilities<double>(
    const StateVector<double>&);

}  // namespace qgear::sim
