// Cross-checks every compiled ISA kernel variant against the scalar
// reference loops on randomized states — all gate classes, every qubit
// position (to hit the below-vector-width fast paths), states smaller
// than one vector, and pool-chunked sweeps whose range boundaries land
// mid-vector.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "qgear/common/rng.hpp"
#include "qgear/common/thread_pool.hpp"
#include "qgear/sim/fused.hpp"
#include "qgear/sim/fusion.hpp"
#include "qgear/sim/isa.hpp"
#include "qgear/sim/kernel_table.hpp"
#include "qgear/sim/kernels.hpp"
#include "qgear/sim/sampler.hpp"
#include "qgear/sim/state.hpp"
#include "qgear/circuits/random_blocks.hpp"

namespace qgear::sim {
namespace {

// FMA and re-associated accumulation change rounding, not math.
template <typename T>
constexpr double kTol = std::is_same_v<T, float> ? 1e-5 : 1e-12;

/// Restores the active ISA on scope exit so tests can't leak overrides.
class IsaGuard {
 public:
  IsaGuard() : prev_(active_isa()) {}
  ~IsaGuard() { set_active_isa(prev_); }

 private:
  Isa prev_;
};

std::vector<Isa> compiled_isas() {
  std::vector<Isa> isas;
  for (int i = 0; i < kNumIsas; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

template <typename T>
std::vector<std::complex<T>> random_amps(unsigned n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<T>> amps(pow2(n));
  for (auto& a : amps) {
    a = {static_cast<T>(rng.normal()), static_cast<T>(rng.normal())};
  }
  return amps;
}

template <typename T>
double max_diff(const std::vector<std::complex<T>>& a,
                const std::vector<std::complex<T>>& b) {
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, static_cast<double>(std::abs(a[i] - b[i])));
  }
  return worst;
}

qiskit::Mat2 random_mat2(std::uint64_t seed) {
  Rng rng(seed);
  return {std::complex<double>(rng.normal(), rng.normal()),
          std::complex<double>(rng.normal(), rng.normal()),
          std::complex<double>(rng.normal(), rng.normal()),
          std::complex<double>(rng.normal(), rng.normal())};
}

std::vector<std::complex<double>> random_cvec(std::size_t len,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<double>> v(len);
  for (auto& c : v) c = {rng.normal(), rng.normal()};
  return v;
}

/// Runs `sweep(table, amps, pool)` under every compiled ISA (serial and
/// pooled) and checks the result against the scalar table's serial run.
template <typename T, typename Fn>
void expect_all_isas_match(unsigned n, std::uint64_t seed, Fn sweep) {
  const auto base = random_amps<T>(n, seed);
  auto expected = base;
  sweep(kernel_table_for<T>(Isa::scalar), expected.data(), nullptr);
  ThreadPool pool(3);  // odd thread count → chunk edges land mid-vector
  for (Isa isa : compiled_isas()) {
    const auto& table = kernel_table_for<T>(isa);
    auto serial = base;
    sweep(table, serial.data(), nullptr);
    EXPECT_LE(max_diff(serial, expected), kTol<T>)
        << "serial isa=" << isa_name(isa) << " n=" << n;
    auto pooled = base;
    sweep(table, pooled.data(), &pool);
    EXPECT_LE(max_diff(pooled, expected), kTol<T>)
        << "pooled isa=" << isa_name(isa) << " n=" << n;
  }
}

template <typename T>
void check_all_kernels(unsigned n) {
  for (unsigned q = 0; q < n; ++q) {
    const auto m = random_mat2(100 + q);
    expect_all_isas_match<T>(n, 7 + q, [&](const KernelTable<T>& t,
                                           std::complex<T>* amps,
                                           ThreadPool* pool) {
      t.apply_1q(amps, n, q, m, pool);
    });
    expect_all_isas_match<T>(n, 8 + q, [&](const KernelTable<T>& t,
                                           std::complex<T>* amps,
                                           ThreadPool* pool) {
      t.apply_1q_diagonal(amps, n, q, std::complex<T>(T(0.6), T(-0.8)),
                          std::complex<T>(T(-0.28), T(0.96)), pool);
    });
    expect_all_isas_match<T>(n, 9 + q, [&](const KernelTable<T>& t,
                                           std::complex<T>* amps,
                                           ThreadPool* pool) {
      t.apply_x(amps, n, q, pool);
    });
  }
  for (unsigned c = 0; c < n; ++c) {
    for (unsigned t2 = 0; t2 < n; ++t2) {
      if (c == t2) continue;
      const auto m = random_mat2(200 + c * n + t2);
      expect_all_isas_match<T>(n, 11 + c * n + t2,
                               [&](const KernelTable<T>& t,
                                   std::complex<T>* amps, ThreadPool* pool) {
        t.apply_controlled_1q(amps, n, c, t2, m, pool);
      });
      expect_all_isas_match<T>(n, 12 + c * n + t2,
                               [&](const KernelTable<T>& t,
                                   std::complex<T>* amps, ThreadPool* pool) {
        t.apply_cx(amps, n, c, t2, pool);
      });
      if (c < t2) {
        expect_all_isas_match<T>(n, 13 + c * n + t2,
                                 [&](const KernelTable<T>& t,
                                     std::complex<T>* amps,
                                     ThreadPool* pool) {
          t.apply_swap(amps, n, c, t2, pool);
        });
        const auto m4 = random_cvec(16, 300 + c * n + t2);
        expect_all_isas_match<T>(n, 14 + c * n + t2,
                                 [&](const KernelTable<T>& t,
                                     std::complex<T>* amps,
                                     ThreadPool* pool) {
          t.apply_2q_dense(amps, n, c, t2, m4, pool);
        });
      }
    }
  }
  // Phase masks of every popcount, anchored at different low bits.
  Rng rng(400 + n);
  for (int trial = 0; trial < 8; ++trial) {
    std::uint64_t mask = rng.uniform_u64(pow2(n) - 1) + 1;
    const std::complex<T> phase(T(0.36), T(-0.93));
    expect_all_isas_match<T>(n, 500 + trial, [&](const KernelTable<T>& t,
                                                 std::complex<T>* amps,
                                                 ThreadPool* pool) {
      t.apply_phase_mask(amps, n, mask, phase, pool);
    });
  }
}

template <typename T>
void check_multi_kernels(unsigned n, const std::vector<unsigned>& qubits) {
  const unsigned m = static_cast<unsigned>(qubits.size());
  const std::uint64_t dim = pow2(m);
  // Width-5 matrices are scaled to unit expected row norm, like the
  // unitary blocks fusion emits. Unscaled width-5 rows push fp32 outputs
  // past 30, where the rounding difference between FMA and scalar
  // accumulation alone reaches about 2e-5 and exceeds kTol.
  auto mat = random_cvec(dim * dim, 600 + n);
  if (m >= 5) {
    for (auto& v : mat) v /= std::sqrt(2.0 * static_cast<double>(dim));
  }
  expect_all_isas_match<T>(n, 601 + n, [&](const KernelTable<T>& t,
                                           std::complex<T>* amps,
                                           ThreadPool* pool) {
    t.apply_multi_dense(amps, n, qubits, mat, pool);
  });
  const auto diag = random_cvec(dim, 602 + n);
  expect_all_isas_match<T>(n, 603 + n, [&](const KernelTable<T>& t,
                                           std::complex<T>* amps,
                                           ThreadPool* pool) {
    t.apply_multi_diag(amps, n, qubits, diag, pool);
  });
  // Random permutation with random unit phases.
  std::vector<std::uint32_t> perm(dim);
  for (std::uint64_t v = 0; v < dim; ++v) {
    perm[v] = static_cast<std::uint32_t>(v);
  }
  Rng rng(604 + n);
  for (std::uint64_t v = dim - 1; v > 0; --v) {
    std::swap(perm[v], perm[rng.uniform_u64(v + 1)]);
  }
  std::vector<std::complex<double>> phases(dim);
  for (auto& p : phases) {
    const double a = rng.uniform(0, 6.28);
    p = {std::cos(a), std::sin(a)};
  }
  expect_all_isas_match<T>(n, 605 + n, [&](const KernelTable<T>& t,
                                           std::complex<T>* amps,
                                           ThreadPool* pool) {
    t.apply_multi_permutation(amps, n, qubits, perm, phases, pool);
  });
}

TEST(KernelsSimd, AllIsasMatchScalarDouble) {
  for (unsigned n = 1; n <= 8; ++n) check_all_kernels<double>(n);
}

TEST(KernelsSimd, AllIsasMatchScalarFloat) {
  for (unsigned n = 1; n <= 8; ++n) check_all_kernels<float>(n);
}

template <typename T>
void check_multi_kernel_widths() {
  // Widths 3 and 4 on low, mixed, and high qubit subsets: exercises both
  // the run-vectorized and the lane-gather paths of the diag kernel.
  check_multi_kernels<T>(7, {0, 1, 2});
  check_multi_kernels<T>(7, {0, 3, 6});
  check_multi_kernels<T>(7, {4, 5, 6});
  check_multi_kernels<T>(8, {1, 3, 5, 7});
  // Width 5, the fusion width every workload runs. The dense kernel
  // gathers its tile of groups when the lowest qubit sits below the
  // tile's lane bits ({0, ...}) and loads it contiguously at or above
  // them ({4, ...}). At n = 17 there are 4096 groups, enough for the
  // 3-thread pool to split the sweep, and its chunk edges land mid-tile.
  check_multi_kernels<T>(17, {0, 5, 9, 12, 14});
  check_multi_kernels<T>(17, {4, 6, 8, 10, 12});
  // Fewer groups than one tile: n = m and n = m + 1.
  check_multi_kernels<T>(5, {0, 1, 2, 3, 4});
  check_multi_kernels<T>(6, {0, 1, 2, 3, 5});
  check_multi_kernels<T>(6, {1, 2, 3, 4, 5});
}

TEST(KernelsSimd, MultiQubitKernelsMatchScalar) {
  check_multi_kernel_widths<double>();
  check_multi_kernel_widths<float>();
}

TEST(KernelsSimd, TinyStatesSmallerThanOneVector) {
  // n=1: a single amplitude pair — shorter than any 256-bit float vector.
  for (Isa isa : compiled_isas()) {
    const auto& t = kernel_table_for<float>(isa);
    std::vector<std::complex<float>> amps = {{1.0f, 0.0f}, {0.0f, 0.0f}};
    const qiskit::Mat2 h = qiskit::gate_matrix_1q(qiskit::GateKind::h, 0);
    t.apply_1q(amps.data(), 1, 0, h, nullptr);
    EXPECT_NEAR(amps[0].real(), 1.0f / std::sqrt(2.0f), 1e-6)
        << isa_name(isa);
    EXPECT_NEAR(amps[1].real(), 1.0f / std::sqrt(2.0f), 1e-6)
        << isa_name(isa);
  }
}

TEST(KernelsSimd, PermutationKernelsAreExactAcrossIsas) {
  // X / CX / SWAP only move amplitudes; every ISA must agree bit-for-bit.
  const unsigned n = 6;
  const auto base = random_amps<double>(n, 77);
  const auto& ref = kernel_table_for<double>(Isa::scalar);
  for (Isa isa : compiled_isas()) {
    const auto& t = kernel_table_for<double>(isa);
    auto got = base;
    auto want = base;
    t.apply_x(got.data(), n, 2, nullptr);
    ref.apply_x(want.data(), n, 2, nullptr);
    t.apply_cx(got.data(), n, 0, 4, nullptr);
    ref.apply_cx(want.data(), n, 0, 4, nullptr);
    t.apply_swap(got.data(), n, 1, 5, nullptr);
    ref.apply_swap(want.data(), n, 1, 5, nullptr);
    EXPECT_EQ(0.0, max_diff(got, want)) << isa_name(isa);
  }
}

TEST(KernelsSimd, FusedEngineAgreesAcrossIsas) {
  IsaGuard guard;
  const auto qc = circuits::generate_random_circuit(
      {.num_qubits = 9, .num_blocks = 40, .measure = false, .seed = 21});
  set_active_isa(Isa::scalar);
  FusedEngine<double> scalar_engine;
  const auto expected = scalar_engine.run(qc);
  for (Isa isa : compiled_isas()) {
    set_active_isa(isa);
    FusedEngine<double> engine;
    const auto state = engine.run(qc);
    double worst = 0;
    for (std::uint64_t i = 0; i < state.size(); ++i) {
      worst = std::max(worst, std::abs(state[i] - expected[i]));
    }
    EXPECT_LE(worst, 1e-12) << isa_name(isa);
  }
}

TEST(KernelsSimd, SamplingIsSeedDeterministicAcrossIsas) {
  // Amplitudes may differ by ~1 ulp between ISAs, but sampling with a
  // fixed seed must produce identical counts.
  IsaGuard guard;
  const auto qc = circuits::generate_random_circuit(
      {.num_qubits = 8, .num_blocks = 30, .measure = false, .seed = 5});
  Counts expected;
  bool first = true;
  for (Isa isa : compiled_isas()) {
    set_active_isa(isa);
    FusedEngine<double> engine;
    const auto state = engine.run(qc);
    Rng rng(1234);
    const Counts counts = sample_counts(state, {}, 2000, rng);
    if (first) {
      expected = counts;
      first = false;
    } else {
      EXPECT_EQ(counts, expected) << isa_name(isa);
    }
  }
}

TEST(KernelsSimd, BlockClassificationRoutesToMatchingKernels) {
  IsaGuard guard;
  // Diagonal-only circuit → diagonal blocks; X/CX-only → permutation.
  qiskit::QuantumCircuit diag_qc(4);
  diag_qc.rz(0.3, 0);
  diag_qc.cp(0.5, 1, 2);
  diag_qc.z(3);
  const FusionPlan diag_plan = plan_fusion(diag_qc);
  ASSERT_FALSE(diag_plan.blocks.empty());
  for (const FusedBlock& b : diag_plan.blocks) {
    EXPECT_EQ(b.kernel_class, KernelClass::diagonal);
    EXPECT_EQ(b.diag.size(), pow2(b.qubits.size()));
  }

  qiskit::QuantumCircuit perm_qc(4);
  perm_qc.x(0);
  perm_qc.cx(0, 1);
  perm_qc.swap(2, 3);
  perm_qc.cx(3, 0);
  const FusionPlan perm_plan = plan_fusion(perm_qc);
  ASSERT_FALSE(perm_plan.blocks.empty());
  for (const FusedBlock& b : perm_plan.blocks) {
    EXPECT_EQ(b.kernel_class, KernelClass::permutation)
        << kernel_class_name(b.kernel_class);
    EXPECT_EQ(b.perm.size(), pow2(b.qubits.size()));
  }

  qiskit::QuantumCircuit dense_qc(3);
  dense_qc.h(0);
  dense_qc.cx(0, 1);
  dense_qc.ry(0.4, 2);
  const FusionPlan dense_plan = plan_fusion(dense_qc);
  ASSERT_FALSE(dense_plan.blocks.empty());
  EXPECT_EQ(dense_plan.blocks[0].kernel_class, KernelClass::dense);

  // All three classes must agree with the dense matrix they classify.
  for (const FusionPlan* plan : {&diag_plan, &perm_plan, &dense_plan}) {
    for (const FusedBlock& b : plan->blocks) {
      const unsigned n = 4;
      if (b.qubits.back() >= n) continue;
      auto via_class = random_amps<double>(n, 42);
      auto via_dense = via_class;
      apply_fused_block(via_class.data(), n, b);
      apply_multi(via_dense.data(), n, b.qubits, b.matrix);
      EXPECT_LE(max_diff(via_class, via_dense), 1e-12)
          << kernel_class_name(b.kernel_class);
    }
  }
}

TEST(KernelsSimd, IsaParsingAndOverride) {
  IsaGuard guard;
  Isa isa;
  EXPECT_TRUE(parse_isa("scalar", &isa));
  EXPECT_EQ(isa, Isa::scalar);
  EXPECT_TRUE(parse_isa("sse2", &isa));
  EXPECT_EQ(isa, Isa::sse2);
  EXPECT_TRUE(parse_isa("avx2", &isa));
  EXPECT_EQ(isa, Isa::avx2);
  EXPECT_FALSE(parse_isa("avx512", &isa));
  EXPECT_FALSE(parse_isa("", &isa));

  EXPECT_STREQ(isa_name(Isa::scalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::sse2), "sse2");
  EXPECT_STREQ(isa_name(Isa::avx2), "avx2");

  // scalar is always supported; overrides clamp to the host's best.
  EXPECT_TRUE(isa_supported(Isa::scalar));
  EXPECT_EQ(set_active_isa(Isa::scalar), Isa::scalar);
  EXPECT_EQ(active_isa(), Isa::scalar);
  const Isa applied = set_active_isa(Isa::avx2);
  EXPECT_LE(static_cast<int>(applied),
            static_cast<int>(best_supported_isa()));
  EXPECT_EQ(active_isa(), applied);
}

}  // namespace
}  // namespace qgear::sim
