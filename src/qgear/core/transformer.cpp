#include "qgear/core/transformer.hpp"

#include <atomic>
#include <numeric>
#include <thread>

#include "qgear/common/strings.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/dist/runner.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/sim/fused.hpp"
#include "qgear/sim/reference.hpp"

namespace qgear::core {

const char* target_name(Target t) {
  switch (t) {
    case Target::cpu_aer: return "cpu-aer";
    case Target::nvidia: return "nvidia";
    case Target::nvidia_mgpu: return "nvidia-mgpu";
    case Target::nvidia_mqpu: return "nvidia-mqpu";
  }
  return "?";
}

const char* precision_name(Precision p) {
  return p == Precision::fp32 ? "fp32" : "fp64";
}

std::size_t amp_bytes(Precision p) {
  return p == Precision::fp32 ? sizeof(std::complex<float>)
                              : sizeof(std::complex<double>);
}

Transformer::Transformer(TransformerOptions opts) : opts_(opts) {
  QGEAR_CHECK_ARG(opts_.devices >= 1, "transformer: devices must be >= 1");
  if (opts_.target == Target::nvidia_mgpu) {
    QGEAR_CHECK_ARG(is_pow2(static_cast<std::uint64_t>(opts_.devices)),
                    "transformer: mgpu device count must be a power of two");
  }
  QGEAR_CHECK_ARG(opts_.fusion_width >= 1 && opts_.fusion_width <= 10,
                  "transformer: fusion width out of range");
  if (opts_.threads > 0) {
    pool_ = std::make_unique<ThreadPool>(opts_.threads);
  }
}

Transformer::~Transformer() = default;

std::uint64_t Transformer::required_bytes_per_device(
    unsigned num_qubits, const TransformerOptions& opts) {
  const std::uint64_t total = pow2(num_qubits) * amp_bytes(opts.precision);
  if (opts.target == Target::nvidia_mgpu) {
    return total / static_cast<std::uint64_t>(opts.devices);
  }
  return total;
}

void Transformer::check_memory(unsigned num_qubits) const {
  if (opts_.device_memory_bytes == 0) return;
  const std::uint64_t needed =
      required_bytes_per_device(num_qubits, opts_);
  if (needed > opts_.device_memory_bytes) {
    throw OutOfMemoryBudget(strfmt(
        "target %s: %u-qubit %s state needs %s per device, budget is %s",
        target_name(opts_.target), num_qubits,
        precision_name(opts_.precision), human_bytes(needed).c_str(),
        human_bytes(opts_.device_memory_bytes).c_str()));
  }
}

namespace {

template <typename T>
std::vector<std::complex<double>> widen(
    const std::vector<std::complex<T>>& amps) {
  std::vector<std::complex<double>> out(amps.size());
  for (std::size_t i = 0; i < amps.size(); ++i) {
    out[i] = std::complex<double>(amps[i]);
  }
  return out;
}

std::vector<unsigned> effective_measured(const Kernel& kernel) {
  std::vector<unsigned> measured = kernel.measured_qubits();
  if (measured.empty()) {
    measured.resize(kernel.num_qubits());
    std::iota(measured.begin(), measured.end(), 0u);
  }
  return measured;
}

}  // namespace

template <typename T>
Result Transformer::run_typed(const Kernel& kernel,
                              const RunOptions& run_opts) {
  Result result;
  obs::Span run_span(obs::Tracer::global(), "transformer.run", "core");
  if (run_span.active()) {
    run_span.arg("target", target_name(opts_.target));
    run_span.arg("kernel", kernel.name());
    run_span.arg("qubits", std::uint64_t{kernel.num_qubits()});
  }
  WallTimer timer;

  if (opts_.target == Target::nvidia_mgpu && opts_.devices > 1) {
    dist::RunOptions dopts;
    dopts.num_ranks = opts_.devices;
    dopts.shots = run_opts.shots;
    dopts.gather_state = run_opts.return_state;
    dopts.seed = opts_.seed;
    dopts.fusion_width = opts_.fusion_width;
    const dist::RunResult<T> dres =
        dist::run_distributed<T>(kernel.circuit(), dopts);
    if (run_opts.return_state) result.state = widen(dres.state);
    result.counts = dres.counts;
    result.measured = dres.measured;
    for (const auto& s : dres.rank_stats) {
      result.stats.sweeps += s.sweeps;
      result.stats.amp_ops += s.amp_ops;
      result.stats.fused_blocks += s.fused_blocks;
    }
    result.stats.gates = kernel.size();
    result.comm_bytes = dres.trace.total_bytes;
    result.wall_seconds = timer.seconds();
    result.stats.seconds = result.wall_seconds;
    return result;
  }

  sim::StateVector<T> state(kernel.num_qubits());
  std::vector<unsigned> measured;
  if (opts_.target == Target::cpu_aer) {
    // Aer-like baseline: strictly per-gate sweeps, no fusion.
    sim::ReferenceEngine<T> engine({.pool = pool_.get()});
    engine.apply(kernel.circuit(), state, &measured);
    result.stats = engine.stats();
  } else {
    typename sim::FusedEngine<T>::Options fopts;
    fopts.fusion.max_width = opts_.fusion_width;
    fopts.fusion.angle_threshold = opts_.angle_threshold;
    fopts.pool = pool_.get();
    sim::FusedEngine<T> engine(fopts);
    engine.apply(kernel.circuit(), state, &measured);
    result.stats = engine.stats();
  }

  if (measured.empty()) measured = effective_measured(kernel);
  result.measured = measured;
  if (run_opts.shots > 0) {
    Rng rng(opts_.seed);
    result.counts =
        sim::sample_counts(state, measured, run_opts.shots, rng, pool_.get());
  }
  if (run_opts.return_state) result.state = widen(state.amplitudes());
  result.wall_seconds = timer.seconds();
  return result;
}

Result Transformer::run(const Kernel& kernel, const RunOptions& run_opts) {
  check_memory(kernel.num_qubits());
  return opts_.precision == Precision::fp32
             ? run_typed<float>(kernel, run_opts)
             : run_typed<double>(kernel, run_opts);
}

Result Transformer::run(const qiskit::QuantumCircuit& qc,
                        const RunOptions& run_opts) {
  return run(Kernel::from_circuit(qc), run_opts);
}

double Transformer::expectation(const Kernel& kernel,
                                const sim::Observable& obs,
                                std::uint64_t shots) {
  QGEAR_CHECK_ARG(kernel.measured_qubits().empty(),
                  "expectation: kernel must not contain measurements");
  const Result r = run(kernel, {.shots = 0, .return_state = true});
  // Rehydrate the fp64 view into a state vector for the estimators.
  sim::StateVector<double> state(kernel.num_qubits());
  for (std::uint64_t i = 0; i < state.size(); ++i) {
    state[i] = r.state[i];
  }
  if (shots == 0) {
    return sim::expectation(state, obs);
  }
  // Shot-based: allocate the budget evenly across non-identity terms.
  std::uint64_t active_terms = 0;
  for (const auto& term : obs.terms()) {
    if (!term.is_identity()) ++active_terms;
  }
  Rng rng(opts_.seed ^ 0xE57);
  double total = 0;
  const std::uint64_t per_term =
      active_terms == 0 ? 0 : std::max<std::uint64_t>(1, shots / active_terms);
  for (const auto& term : obs.terms()) {
    if (term.is_identity()) {
      total += term.coefficient;
    } else {
      total += sim::sampled_expectation(state, term, per_term, rng);
    }
  }
  return total;
}

std::vector<Result> Transformer::run_batch(std::span<const Kernel> kernels,
                                           const RunOptions& run_opts) {
  std::vector<Result> results(kernels.size());
  if (opts_.target != Target::nvidia_mqpu || opts_.devices <= 1 ||
      kernels.size() <= 1) {
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      results[i] = run(kernels[i], run_opts);
    }
    return results;
  }

  // mqpu parallel mode: each device is a worker thread draining a shared
  // queue of kernels (the paper's "simultaneous execution of multiple
  // smaller quantum circuits on separate GPUs").
  for (const Kernel& k : kernels) check_memory(k.num_qubits());
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(opts_.devices));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(opts_.devices));
  for (int d = 0; d < opts_.devices; ++d) {
    workers.emplace_back([&, d] {
      try {
        // Per-device single-GPU configuration (no shared pool).
        TransformerOptions device_opts = opts_;
        device_opts.target = Target::nvidia;
        device_opts.threads = 0;
        device_opts.seed = opts_.seed + static_cast<std::uint64_t>(d);
        Transformer device(device_opts);
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= kernels.size()) break;
          results[i] = device.run(kernels[i], run_opts);
        }
      } catch (...) {
        errors[static_cast<std::size_t>(d)] = std::current_exception();
      }
    });
  }
  for (auto& t : workers) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

}  // namespace qgear::core
