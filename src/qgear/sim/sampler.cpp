#include "qgear/sim/sampler.hpp"

#include <algorithm>
#include <complex>
#include <numeric>
#include <utility>

#include "qgear/common/bits.hpp"
#include "qgear/common/error.hpp"
#include "qgear/obs/trace.hpp"

namespace qgear::sim {

AliasSampler::AliasSampler(const std::vector<double>& weights)
    : prob_(weights.size()), alias_(weights.size()) {
  QGEAR_CHECK_ARG(!weights.empty(), "sampler: empty weight vector");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  QGEAR_CHECK_ARG(total > 0, "sampler: weights sum to zero");

  const std::uint64_t n = weights.size();
  // Scaled probabilities: mean 1.
  std::vector<double> scaled(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    QGEAR_CHECK_ARG(weights[i] >= 0, "sampler: negative weight");
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }

  std::vector<std::uint64_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::uint64_t s = small.back();
    small.pop_back();
    const std::uint64_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers (numerical drift): probability 1, self-alias.
  for (std::uint64_t i : small) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
  for (std::uint64_t i : large) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
}

std::uint64_t AliasSampler::sample(Rng& rng) const {
  const std::uint64_t i = rng.uniform_u64(prob_.size());
  return rng.uniform() < prob_[i] ? i : alias_[i];
}

Counts to_counts(KeyCounts pairs) {
  const auto by_key = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(pairs.begin(), pairs.end(), by_key)) {
    std::sort(pairs.begin(), pairs.end(), by_key);
  }
  Counts counts;
  for (const auto& [key, n] : pairs) {
    if (!counts.empty() && counts.rbegin()->first == key) {
      counts.rbegin()->second += n;
    } else {
      counts.emplace_hint(counts.end(), key, n);
    }
  }
  return counts;
}

namespace {

// |a|^2 in double. The weight pass and both draw paths accumulate through
// it in index order, so a chunk's running sum ends exactly at its weight.
template <typename T>
inline double weight_of(const std::complex<T>& a) {
  const double re = a.real();
  const double im = a.imag();
  return re * re + im * im;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Stream 0 splits the shots; chunk c draws from stream c + 1.
Rng stream(std::uint64_t base, std::uint64_t id) {
  return Rng(mix64(base ^ mix64(id)), id);
}

// Calls fn(c) once for every chunk c of an amplitude range of `size`,
// spread over `pool` when one is given: a chunk belongs to the worker whose
// slice holds its first amplitude.
template <typename F>
void for_each_chunk(ThreadPool* pool, std::uint64_t size, const F& fn) {
  const auto run = [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t c = (b + kSampleChunk - 1) / kSampleChunk;
         c * kSampleChunk < e; ++c) {
      fn(c);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, size, run);
  } else {
    run(0, size);
  }
}

// Key of slab index i: bit j is bit positions[j] of (base | i).
class KeyPacker {
 public:
  KeyPacker(const std::vector<unsigned>& positions, std::uint64_t base)
      : positions_(positions), base_(base) {
    identity_ = true;
    for (std::size_t j = 0; j < positions.size(); ++j) {
      identity_ = identity_ && positions[j] == j;
    }
    const auto bits = static_cast<unsigned>(positions.size());
    mask_ = bits >= 64 ? ~std::uint64_t{0} : pow2(bits) - 1;
  }

  std::uint64_t operator()(std::uint64_t i) const {
    const std::uint64_t full = base_ | i;
    if (identity_) return full & mask_;
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < positions_.size(); ++j) {
      key |= ((full >> positions_[j]) & 1u) << j;
    }
    return key;
  }

 private:
  const std::vector<unsigned>& positions_;
  std::uint64_t base_;
  std::uint64_t mask_;
  bool identity_;
};

// Draws k shots from the len amplitudes at `a` (weight sum `weight` > 0),
// appending (key, count) pairs in index order. Each uniform target
// t in [0, weight) lands on the first index whose running sum exceeds t;
// a target the rounding of u * weight puts at the final sum lands on the
// last nonzero index, so zero-probability indices are never drawn.
template <typename T>
void draw_chunk(const std::complex<T>* a, std::uint64_t len, double weight,
                std::uint64_t k, Rng& rng, const KeyPacker& key_of,
                std::uint64_t first, KeyCounts& hits) {
  if (k <= len) {
    // Sorted targets, matched in one walk that stops after the last one.
    std::vector<double> targets(k);
    for (double& t : targets) t = rng.uniform() * weight;
    std::sort(targets.begin(), targets.end());
    double sum = 0;
    std::uint64_t j = 0;
    std::uint64_t last = 0;
    for (std::uint64_t i = 0; i < len && j < k; ++i) {
      const double p = weight_of(a[i]);
      if (p == 0) continue;
      sum += p;
      last = i;
      const std::uint64_t from = j;
      while (j < k && targets[j] < sum) ++j;
      if (j > from) hits.emplace_back(key_of(first + i), j - from);
    }
    if (j < k) hits.emplace_back(key_of(first + last), k - j);
    return;
  }
  // k > len: a sort would cost O(k log k). Search each target in the
  // running-sum array instead, starting from a guide table of len equal
  // buckets over [0, weight): O(len + k) expected.
  std::vector<double> prefix(len);
  double sum = 0;
  std::uint64_t last = 0;
  for (std::uint64_t i = 0; i < len; ++i) {
    const double p = weight_of(a[i]);
    if (p != 0) last = i;
    sum += p;
    prefix[i] = sum;
  }
  const double scale = static_cast<double>(len) / weight;
  std::vector<std::uint64_t> guide(len);
  for (std::uint64_t g = 0, i = 0; g < len; ++g) {
    while (i < last && prefix[i] * scale <= static_cast<double>(g)) ++i;
    guide[g] = i;
  }
  std::vector<std::uint64_t> hist(len, 0);
  for (std::uint64_t s = 0; s < k; ++s) {
    const double t = rng.uniform() * weight;
    const double bucket = t * scale;
    std::uint64_t i = guide[bucket < static_cast<double>(len - 1)
                                ? static_cast<std::uint64_t>(bucket)
                                : len - 1];
    // The guide is exact up to the rounding of t * scale: step back over
    // any entry it skipped, then forward to the first sum above t.
    while (i > 0 && prefix[i - 1] > t) --i;
    while (i < last && prefix[i] <= t) ++i;
    ++hist[i];
  }
  for (std::uint64_t i = 0; i <= last; ++i) {
    if (hist[i] != 0) hits.emplace_back(key_of(first + i), hist[i]);
  }
}

}  // namespace

template <typename T>
std::vector<double> chunk_weights(const std::complex<T>* amps,
                                  std::uint64_t size, ThreadPool* pool) {
  std::vector<double> weights((size + kSampleChunk - 1) / kSampleChunk);
  for_each_chunk(pool, size, [&](std::uint64_t c) {
    const std::complex<T>* a = amps + c * kSampleChunk;
    const std::uint64_t len = std::min(kSampleChunk, size - c * kSampleChunk);
    double w = 0;
    for (std::uint64_t i = 0; i < len; ++i) w += weight_of(a[i]);
    weights[c] = w;
  });
  return weights;
}

template <typename T>
Counts sample_amplitudes(const std::complex<T>* amps, std::uint64_t size,
                         const std::vector<unsigned>& positions,
                         std::uint64_t shots, Rng& rng, ThreadPool* pool,
                         std::uint64_t index_base,
                         const std::vector<double>* given) {
  obs::Span span(obs::Tracer::global(), "sample", "sim");
  if (span.active()) {
    span.arg("shots", shots);
    span.arg("amplitudes", size);
  }
  QGEAR_CHECK_ARG(size > 0, "sampler: no amplitudes");
  const std::uint64_t base = rng();
  const std::uint64_t chunks = (size + kSampleChunk - 1) / kSampleChunk;
  const auto chunk_len = [&](std::uint64_t c) {
    return std::min(kSampleChunk, size - c * kSampleChunk);
  };

  // 1. Chunk weights, each summed in index order.
  const std::vector<double> own = given != nullptr
                                      ? std::vector<double>{}
                                      : chunk_weights(amps, size, pool);
  const std::vector<double>& weights = given != nullptr ? *given : own;
  QGEAR_CHECK_ARG(weights.size() == chunks,
                  "sampler: one weight per chunk expected");
  QGEAR_CHECK_ARG(std::accumulate(weights.begin(), weights.end(), 0.0) > 0,
                  "sampler: weights sum to zero");

  // 2. Multinomial split of the shots over the chunks.
  std::vector<std::uint64_t> chunk_shots(chunks, 0);
  if (chunks == 1) {
    chunk_shots[0] = shots;
  } else if (shots > 0) {
    const AliasSampler split(weights);
    Rng split_rng = stream(base, 0);
    for (std::uint64_t s = 0; s < shots; ++s) {
      ++chunk_shots[split.sample(split_rng)];
    }
  }

  // 3. Per-chunk draws on independent streams, merged in chunk order.
  const KeyPacker key_of(positions, index_base);
  std::vector<KeyCounts> hits(chunks);
  for_each_chunk(pool, size, [&](std::uint64_t c) {
    if (chunk_shots[c] == 0) return;
    Rng chunk_rng = stream(base, c + 1);
    draw_chunk(amps + c * kSampleChunk, chunk_len(c), weights[c],
               chunk_shots[c], chunk_rng, key_of, c * kSampleChunk, hits[c]);
  });
  std::size_t total = 0;
  for (const KeyCounts& h : hits) total += h.size();
  KeyCounts all;
  all.reserve(total);
  for (const KeyCounts& h : hits) all.insert(all.end(), h.begin(), h.end());
  return to_counts(std::move(all));
}

template <typename T>
Counts sample_counts(const StateVector<T>& state,
                     std::vector<unsigned> measured_qubits,
                     std::uint64_t shots, Rng& rng, ThreadPool* pool) {
  if (measured_qubits.empty()) {
    measured_qubits.resize(state.num_qubits());
    std::iota(measured_qubits.begin(), measured_qubits.end(), 0u);
  }
  std::vector<unsigned> sorted = measured_qubits;
  std::sort(sorted.begin(), sorted.end());
  QGEAR_CHECK_ARG(
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
      "sampler: duplicate measured qubit");
  QGEAR_CHECK_ARG(sorted.back() < state.num_qubits(),
                  "sampler: measured qubit out of range");
  return sample_amplitudes(state.data(), state.size(), measured_qubits, shots,
                           rng, pool);
}

template <typename T>
std::vector<double> qubit_one_probabilities(const StateVector<T>& state) {
  std::vector<double> out(state.num_qubits(), 0.0);
  for (std::uint64_t i = 0; i < state.size(); ++i) {
    const double p = state.probability(i);
    if (p == 0.0) continue;
    for (unsigned q = 0; q < state.num_qubits(); ++q) {
      if (test_bit(i, q)) out[q] += p;
    }
  }
  return out;
}

template std::vector<double> chunk_weights<float>(const std::complex<float>*,
                                                 std::uint64_t, ThreadPool*);
template std::vector<double> chunk_weights<double>(
    const std::complex<double>*, std::uint64_t, ThreadPool*);
template Counts sample_amplitudes<float>(const std::complex<float>*,
                                         std::uint64_t,
                                         const std::vector<unsigned>&,
                                         std::uint64_t, Rng&, ThreadPool*,
                                         std::uint64_t,
                                         const std::vector<double>*);
template Counts sample_amplitudes<double>(const std::complex<double>*,
                                          std::uint64_t,
                                          const std::vector<unsigned>&,
                                          std::uint64_t, Rng&, ThreadPool*,
                                          std::uint64_t,
                                          const std::vector<double>*);
template Counts sample_counts<float>(const StateVector<float>&,
                                     std::vector<unsigned>, std::uint64_t,
                                     Rng&, ThreadPool*);
template Counts sample_counts<double>(const StateVector<double>&,
                                      std::vector<unsigned>, std::uint64_t,
                                      Rng&, ThreadPool*);
template std::vector<double> qubit_one_probabilities<float>(
    const StateVector<float>&);
template std::vector<double> qubit_one_probabilities<double>(
    const StateVector<double>&);

}  // namespace qgear::sim
