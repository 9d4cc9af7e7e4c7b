#include "qgear/sim/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "qgear/common/thread_pool.hpp"
#include "qgear/sim/reference.hpp"

namespace qgear::sim {
namespace {

TEST(AliasSampler, DegenerateSingleOutcome) {
  AliasSampler s({0.0, 1.0, 0.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.sample(rng), 1u);
}

TEST(AliasSampler, MatchesWeights) {
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  AliasSampler s(w);
  Rng rng(2);
  std::vector<int> hist(4, 0);
  const int shots = 200000;
  for (int i = 0; i < shots; ++i) ++hist[s.sample(rng)];
  for (int k = 0; k < 4; ++k) {
    const double expected = w[k] / 10.0 * shots;
    EXPECT_NEAR(hist[k], expected, 5 * std::sqrt(expected)) << k;
  }
}

TEST(AliasSampler, UnnormalizedWeightsAccepted) {
  AliasSampler s({100.0, 300.0});
  Rng rng(3);
  int ones = 0;
  for (int i = 0; i < 40000; ++i) ones += s.sample(rng) == 1 ? 1 : 0;
  EXPECT_NEAR(ones, 30000, 600);
}

TEST(AliasSampler, InvalidInputsRejected) {
  EXPECT_THROW(AliasSampler({}), InvalidArgument);
  EXPECT_THROW(AliasSampler({0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(AliasSampler({1.0, -0.5}), InvalidArgument);
}

TEST(SampleCounts, BellStateHalfHalf) {
  qiskit::QuantumCircuit qc(2);
  qc.h(0).cx(0, 1);
  ReferenceEngine<double> eng;
  const auto state = eng.run(qc);
  Rng rng(11);
  const Counts counts = sample_counts(state, {}, 100000, rng);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_NEAR(static_cast<double>(counts.at(0b00)), 50000, 1000);
  EXPECT_NEAR(static_cast<double>(counts.at(0b11)), 50000, 1000);
}

TEST(SampleCounts, ShotsConserved) {
  qiskit::QuantumCircuit qc(3);
  qc.h(0).h(1).h(2);
  ReferenceEngine<double> eng;
  const auto state = eng.run(qc);
  Rng rng(5);
  const Counts counts = sample_counts(state, {}, 12345, rng);
  std::uint64_t total = 0;
  for (const auto& [k, v] : counts) total += v;
  EXPECT_EQ(total, 12345u);
}

TEST(SampleCounts, MeasuredSubsetPacksBits) {
  // |q2 q1 q0> = |101>: measuring {0, 2} should give key 0b11; measuring
  // {1} gives 0.
  qiskit::QuantumCircuit qc(3);
  qc.x(0).x(2);
  ReferenceEngine<double> eng;
  const auto state = eng.run(qc);
  Rng rng(9);
  const Counts both = sample_counts(state, {0, 2}, 100, rng);
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both.begin()->first, 0b11u);
  const Counts mid = sample_counts(state, {1}, 100, rng);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid.begin()->first, 0u);
}

TEST(SampleCounts, MeasuredOrderControlsSignificance) {
  // |q1 q0> = |01>: measured order {0,1} -> key 0b01; {1,0} -> key 0b10.
  qiskit::QuantumCircuit qc(2);
  qc.x(0);
  ReferenceEngine<double> eng;
  const auto state = eng.run(qc);
  Rng rng(4);
  EXPECT_EQ(sample_counts(state, {0, 1}, 10, rng).begin()->first, 0b01u);
  EXPECT_EQ(sample_counts(state, {1, 0}, 10, rng).begin()->first, 0b10u);
}

TEST(SampleCounts, InvalidQubitsRejected) {
  StateVector<double> state(2);
  Rng rng(1);
  EXPECT_THROW(sample_counts(state, {0, 0}, 10, rng), InvalidArgument);
  EXPECT_THROW(sample_counts(state, {5}, 10, rng), InvalidArgument);
}

TEST(SampleCounts, DeterministicForSeed) {
  qiskit::QuantumCircuit qc(4);
  qc.h(0).h(1).cx(1, 2).ry(0.7, 3);
  ReferenceEngine<double> eng;
  const auto state = eng.run(qc);
  Rng r1(42), r2(42);
  EXPECT_EQ(sample_counts(state, {}, 5000, r1),
            sample_counts(state, {}, 5000, r2));
}

// Seeded non-uniform 16-qubit state over four sampling chunks: Gaussian
// amplitudes under a decaying envelope, with every seventh amplitude zero.
StateVector<double> rough_state(std::uint64_t seed) {
  StateVector<double> state(16);
  Rng rng(seed);
  double norm = 0;
  for (std::uint64_t i = 0; i < state.size(); ++i) {
    const double envelope = std::exp(-static_cast<double>(i) / 20000.0);
    state[i] = i % 7 == 3 ? std::complex<double>(0, 0)
                          : envelope * std::complex<double>(rng.normal(),
                                                            rng.normal());
    norm += std::norm(state[i]);
  }
  for (std::uint64_t i = 0; i < state.size(); ++i) {
    state[i] /= std::sqrt(norm);
  }
  return state;
}

// Pearson chi-square of `counts` against the exact |a|^2, over runs of
// consecutive outcomes merged until each expects at least 10 shots.
// Returns (statistic, degrees of freedom).
std::pair<double, double> chi_square(const StateVector<double>& state,
                                     const Counts& counts,
                                     std::uint64_t shots) {
  double stat = 0, expected = 0, observed = 0;
  std::uint64_t bins = 0;
  for (std::uint64_t i = 0; i < state.size(); ++i) {
    expected += state.probability(i) * static_cast<double>(shots);
    const auto it = counts.find(i);
    if (it != counts.end()) observed += static_cast<double>(it->second);
    if (expected >= 10 || i + 1 == state.size()) {
      stat += (observed - expected) * (observed - expected) / expected;
      expected = observed = 0;
      ++bins;
    }
  }
  return {stat, static_cast<double>(bins - 1)};
}

TEST(SampleCounts, ChiSquareFitsExactDistribution) {
  const StateVector<double> state = rough_state(21);
  // 10^3 shots take the sorted walk in every chunk; 10^6 put more shots
  // than amplitudes in each chunk and take the guide-table search.
  for (const std::uint64_t shots :
       {std::uint64_t{1000}, std::uint64_t{1000000}}) {
    Rng rng(77);
    const Counts counts = sample_counts(state, {}, shots, rng);
    const auto [stat, dof] = chi_square(state, counts, shots);
    // Five standard deviations above the chi-square mean.
    EXPECT_LT(stat, dof + 5 * std::sqrt(2 * dof)) << shots << " shots";
    EXPECT_GT(dof, shots == 1000 ? 50 : 10000) << shots << " shots";
    for (const auto& [key, n] : counts) {
      EXPECT_GT(state.probability(key), 0.0) << key;
    }
  }
}

TEST(SampleCounts, NeverDrawsZeroProbabilityOutcomes) {
  // A basis state at the last index of a chunk, and one split across the
  // boundary of two chunks.
  for (const std::uint64_t shots :
       {std::uint64_t{10}, std::uint64_t{100000}}) {
    StateVector<double> edge(16);
    edge[0] = 0;
    edge[kSampleChunk - 1] = 1;
    Rng rng(1);
    const Counts one = sample_counts(edge, {}, shots, rng);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one.begin()->first, kSampleChunk - 1);
    EXPECT_EQ(one.begin()->second, shots);

    StateVector<double> split(16);
    split[0] = 0;
    split[2 * kSampleChunk - 1] = std::sqrt(0.5);
    split[2 * kSampleChunk] = std::sqrt(0.5);
    const Counts two = sample_counts(split, {}, shots, rng);
    ASSERT_LE(two.size(), 2u);
    for (const auto& [key, n] : two) {
      EXPECT_TRUE(key == 2 * kSampleChunk - 1 || key == 2 * kSampleChunk)
          << key;
    }
  }
  // Support inside one chunk, with every other amplitude zero; the last
  // supported index carries the most weight.
  StateVector<double> inside(16);
  inside[0] = 0;
  const std::uint64_t lo = kSampleChunk + 100, hi = kSampleChunk + 300;
  double norm = 0;
  for (std::uint64_t i = lo; i < hi; i += 2) {
    inside[i] = static_cast<double>(i - lo + 1);
    norm += std::norm(inside[i]);
  }
  for (std::uint64_t i = lo; i < hi; i += 2) inside[i] /= std::sqrt(norm);
  for (const std::uint64_t shots :
       {std::uint64_t{1000}, std::uint64_t{200000}}) {
    Rng rng(3);
    const Counts counts = sample_counts(inside, {}, shots, rng);
    std::uint64_t total = 0;
    for (const auto& [key, n] : counts) {
      EXPECT_GT(inside.probability(key), 0.0) << key;
      total += n;
    }
    EXPECT_EQ(total, shots);
  }
}

TEST(SampleCounts, PoolSizeDoesNotChangeCountsOrCallerStream) {
  const StateVector<double> state = rough_state(5);
  StateVector<float> state32(16);
  for (std::uint64_t i = 0; i < state.size(); ++i) {
    state32[i] = std::complex<float>(state[i]);
  }
  for (const std::uint64_t shots :
       {std::uint64_t{0}, std::uint64_t{1000}, std::uint64_t{300000}}) {
    Rng serial_rng(99);
    const Counts serial = sample_counts(state, {}, shots, serial_rng);
    Rng serial32_rng(99);
    const Counts serial32 = sample_counts(state32, {}, shots, serial32_rng);
    // The caller's rng advances by exactly one draw.
    Rng one_draw(99);
    one_draw();
    EXPECT_EQ(serial_rng(), one_draw());
    for (const unsigned threads : {1u, 3u, 4u}) {
      ThreadPool pool(threads);
      Rng rng(99);
      EXPECT_EQ(sample_counts(state, {}, shots, rng, &pool), serial)
          << threads << " threads, " << shots << " shots";
      Rng rng32(99);
      EXPECT_EQ(sample_counts(state32, {}, shots, rng32, &pool), serial32)
          << threads << " threads, " << shots << " shots (fp32)";
      Rng expected(99);
      expected();
      EXPECT_EQ(rng(), expected());
    }
  }
}

TEST(SampleCounts, MeasuredSubsetPacksBitsPastOneChunk) {
  // Two basis states in different chunks: bits 15 and 14 differ, bit 3 is
  // set in both. Measuring {15, 3, 14} gives keys 0b011 and 0b110.
  StateVector<double> state(16);
  const std::uint64_t a = (std::uint64_t{1} << 15) | (1u << 3);
  const std::uint64_t b = (std::uint64_t{1} << 14) | (1u << 3) | 1u;
  state[0] = 0;
  state[a] = std::sqrt(0.25);
  state[b] = std::sqrt(0.75);
  ThreadPool pool(4);
  Rng rng(8);
  const Counts counts = sample_counts(state, {15, 3, 14}, 40000, rng, &pool);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_NEAR(static_cast<double>(counts.at(0b011)), 10000, 500);
  EXPECT_NEAR(static_cast<double>(counts.at(0b110)), 30000, 500);
}

TEST(SampleCounts, ZeroStateRejected) {
  StateVector<double> state(15);
  state[0] = 0;
  Rng rng(1);
  EXPECT_THROW(sample_counts(state, {}, 10, rng), InvalidArgument);
}

TEST(ToCounts, SumsRepeatedKeysInAnyOrder) {
  const Counts counts = to_counts({{7, 1}, {2, 3}, {7, 4}, {0, 1}, {2, 1}});
  EXPECT_EQ(counts, (Counts{{0, 1}, {2, 4}, {7, 5}}));
}

TEST(QubitOneProbabilities, MatchesAnalytic) {
  qiskit::QuantumCircuit qc(3);
  const double theta = 0.9;
  qc.ry(theta, 0).x(1);
  ReferenceEngine<double> eng;
  const auto state = eng.run(qc);
  const auto p1 = qubit_one_probabilities(state);
  EXPECT_NEAR(p1[0], std::sin(theta / 2) * std::sin(theta / 2), 1e-12);
  EXPECT_NEAR(p1[1], 1.0, 1e-12);
  EXPECT_NEAR(p1[2], 0.0, 1e-12);
}

}  // namespace
}  // namespace qgear::sim
