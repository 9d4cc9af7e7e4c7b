// batch10: the paper's encode/decode pipeline over many small circuits.
//
// A thousand 10-qubit circuits (random CX-block, QFT and QCrank 4+6, one
// third each) go from the circuit list to counts: to_native_basis,
// core::encode_circuits, qh5 write, qh5 read, Kernel::from_tensor and
// run_batch on target nvidia_mqpu with 4 devices, with shots. States fit
// in L2, so the front-end layers carry a large share of the time.
#include <filesystem>

#include "bench.hpp"
#include "qgear/circuits/qcrank.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/core/tensor.hpp"
#include "qgear/core/transformer.hpp"
#include "qgear/qh5/file.hpp"
#include "qgear/qiskit/transpile.hpp"
#include "qgear/sim/reference.hpp"

namespace perfbench {

using namespace qgear;

namespace {

constexpr unsigned kQubits = 10;
constexpr std::size_t kCircuits = 1000;
constexpr int kDevices = 4;
constexpr std::uint64_t kShots = 1000;
constexpr std::size_t kReferenceChecks = 8;
constexpr std::uint64_t kStateBytes =
    (std::uint64_t{1} << kQubits) * sizeof(std::complex<float>);

constexpr const char* kExactCounters[] = {
    "sim.gates",       "sim.fused_blocks", "sim.sweeps",
    "sim.diag_blocks", "sim.perm_blocks",  "sim.dense_blocks"};

std::vector<qiskit::QuantumCircuit> make_circuits(std::uint64_t seed) {
  Rng rng(seed, 0xba10);
  const circuits::QCrank qcrank({.address_qubits = 4, .data_qubits = 6});
  std::vector<qiskit::QuantumCircuit> out;
  out.reserve(kCircuits);
  for (std::size_t i = 0; i < kCircuits; ++i) {
    if (i % 3 == 0) {
      out.push_back(circuits::generate_random_circuit(
          {.num_qubits = kQubits, .num_blocks = 100, .measure = true,
           .seed = rng()}));
    } else if (i % 3 == 1) {
      out.push_back(qft_on_basis_state(kQubits, rng));
    } else {
      std::vector<double> pixels(qcrank.capacity());
      for (double& p : pixels) p = rng.uniform();
      out.push_back(qcrank.encode(pixels));
    }
  }
  return out;
}

/// Everything one pass produced, kept for the checks that follow it.
struct Pass {
  double wall_s = 0;
  double front_s = 0;  ///< everything before run_batch
  std::vector<qiskit::QuantumCircuit> native;
  core::GateTensor tensor;
  core::GateTensor loaded;
  qh5::FileStats file;
  std::vector<core::Result> results;
  std::map<std::string, std::uint64_t> counts;  ///< exact engine counters
};

template <typename F>
auto spanned(const char* name, F&& body) {
  obs::Span span(name, "bench");
  return body();
}

// One pass from the circuit list to counts, every stage in its own span.
Pass run_pass(const std::vector<qiskit::QuantumCircuit>& circuits,
              core::Transformer& mqpu, const std::string& path) {
  Pass p;
  const CounterDelta counters;
  WallTimer wall;
  p.native = spanned("bench.to_native_basis", [&] {
    std::vector<qiskit::QuantumCircuit> native;
    native.reserve(circuits.size());
    for (const auto& qc : circuits) {
      native.push_back(qiskit::to_native_basis(qc));
    }
    return native;
  });
  p.tensor = spanned("bench.encode_circuits", [&] {
    return core::encode_circuits(p.native, {.transpile = false});
  });
  p.file = spanned("bench.qh5_write", [&] {
    qh5::File f = qh5::File::create(path);
    core::save_tensor(p.tensor, f.root().create_group("circuits"));
    f.flush();
    return f.stats();
  });
  p.loaded = spanned("bench.qh5_read", [&] {
    const qh5::File f = qh5::File::open(path);
    return core::load_tensor(f.root().group("circuits"));
  });
  const std::vector<core::Kernel> kernels = spanned("bench.from_tensor", [&] {
    std::vector<core::Kernel> ks;
    ks.reserve(p.loaded.num_circuits());
    for (std::uint32_t i = 0; i < p.loaded.num_circuits(); ++i) {
      ks.push_back(core::Kernel::from_tensor(p.loaded, i));
    }
    return ks;
  });
  p.front_s = wall.seconds();
  p.results = spanned("bench.run_batch", [&] {
    return mqpu.run_batch(kernels, {.shots = kShots});
  });
  p.wall_s = wall.seconds();
  for (const char* name : kExactCounters) p.counts[name] = counters(name);
  std::filesystem::remove(path);
  return p;
}

// Checks one pass: the file round trip is lossless, decode(encode) is
// gate-identical, counts sum to the shots, and a seeded subset matches
// the fp64 reference marginals within sampling error. Returns the
// circuits that passed.
std::uint64_t check_pass(const Pass& p, std::uint64_t seed, Report& report) {
  report.check(p.loaded == p.tensor, "qh5 round trip changed the gate tensor");
  Rng pick(seed, 0xc4ec);
  std::vector<bool> reference_check(p.native.size(), false);
  for (std::size_t i = 0; i < kReferenceChecks; ++i) {
    reference_check[pick.uniform_u64(p.native.size())] = true;
  }
  std::uint64_t good = 0;
  for (std::size_t i = 0; i < p.native.size(); ++i) {
    ++report.attempted;
    const auto index = static_cast<std::uint32_t>(i);
    bool ok = core::decode_circuit(p.loaded, index).instructions() ==
                  p.native[i].instructions() &&
              shots_in(p.results[i].counts) == kShots;
    if (ok && reference_check[i]) {
      sim::ReferenceEngine<double> ref;
      const std::vector<double> p1 =
          sim::qubit_one_probabilities(ref.run(p.native[i]));
      ok = marginals_agree(p1, p.results[i].counts, kShots, 1e-3);
    }
    if (report.check(ok, "circuit " + std::to_string(i) + " (" +
                             p.native[i].name() + ") failed its checks")) {
      ++good;
    } else {
      ++report.failed;
    }
  }
  return good;
}

}  // namespace

void run_batch10(const Config& cfg, Report& report) {
  const core::TransformerOptions opts{.target = core::Target::nvidia_mqpu,
                                      .precision = core::Precision::fp32,
                                      .devices = kDevices,
                                      .fusion_width = 5,
                                      .seed = cfg.seed};
  // Set-up: generate the circuit list and start the mqpu front end.
  const auto start_up = [&] {
    std::vector<qiskit::QuantumCircuit> c = make_circuits(cfg.seed);
    core::Transformer t(opts);
    return c;
  };
  SetupClock setup;
  setup.sample(start_up);
  const std::vector<qiskit::QuantumCircuit> circuits = start_up();
  core::Transformer mqpu(opts);
  const std::string path =
      cfg.workdir + "/batch10_" + std::to_string(cfg.seed) + ".qh5";

  std::vector<double> rates, walls, fronts;
  std::map<std::string, std::uint64_t> counts;
  const StealMeter steal;
  repeat_for(cfg.seconds, [&] {
    const Pass p = run_pass(circuits, mqpu, path);
    rates.push_back(static_cast<double>(check_pass(p, cfg.seed, report)) /
                    p.wall_s);
    walls.push_back(p.wall_s);
    fronts.push_back(p.front_s);
    counts = p.counts;
    setup.sample(start_up);
  });
  const double rss = peak_rss_mib();
  const HostProbe host = probe_host(kStateBytes, 1, kStateBytes, steal);
  report_host(host, cfg, report);

  report.note("batch10: %zu circuits x %zu passes, %d mqpu devices, %llu "
              "shots | %.1f circuits/s, %.4f s per pass, %.4f s of it "
              "before run_batch (medians)",
              kCircuits, rates.size(), kDevices,
              static_cast<unsigned long long>(kShots), median(rates),
              median(walls), median(fronts));
  std::string line = "  pass circuits/s:";
  for (double r : rates) line += " " + std::to_string(static_cast<int>(r));
  report.note("%s", line.c_str());
  if (!cfg.trace) {
    report.metric("setup_s", setup.median(), "s");
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("main_ms", 1e3 * median(walls), "ms");
    report.metric("alt_ms", 1e3 * median(fronts), "ms");
    return;
  }

  Pass traced;
  const LayerTimes layers = trace_run(
      "bench.batch10", [&] { traced = run_pass(circuits, mqpu, path); },
      report);
  check_pass(traced, cfg.seed, report);
  report_trace(layers, median(walls), traced.wall_s, report);
  report.check(traced.counts == counts,
               "exact counts differ between the untraced and traced pass");

  const double run_batch_s = layers["bench.run_batch"].total_s;
  const auto count = [&](const char* name) {
    return static_cast<unsigned long long>(traced.counts.at(name));
  };
  report.metric("qiskit.transpile_s", layers["bench.to_native_basis"].total_s,
                "s");
  report.metric("core.encode_s", layers["bench.encode_circuits"].total_s, "s");
  report.metric("core.decode_s", layers["bench.from_tensor"].total_s, "s");
  report.metric("core.tensor_bytes", traced.tensor.byte_size(), "B");
  report.metric("core.mqpu_busy_frac",
                layers["transformer.run"].total_s / (kDevices * run_batch_s),
                "frac");
  report.metric("qh5.write_s", layers["bench.qh5_write"].total_s, "s");
  report.metric("qh5.read_s", layers["bench.qh5_read"].total_s, "s");
  report.metric("qh5.file_bytes", traced.file.file_bytes, "B");
  report.metric("qh5.compression_ratio", traced.file.compression_ratio(),
                "ratio");
  report.metric("sim.plan_s", layers["fuse"].total_s, "s");
  report.metric("sim.blocks", count("sim.fused_blocks"), "count");
  report.metric("sim.fusion_ratio",
                static_cast<double>(count("sim.gates")) /
                    static_cast<double>(count("sim.fused_blocks")),
                "gates/block");
  report.metric("sim.sweeps", count("sim.sweeps"), "count");
  report.note("exact: sim.blocks %llu = diag %llu + perm %llu + dense %llu "
              "| sim.sweeps %llu | equal across passes",
              count("sim.fused_blocks"), count("sim.diag_blocks"),
              count("sim.perm_blocks"), count("sim.dense_blocks"),
              count("sim.sweeps"));
  report.note("ratios: fusion_ratio = sim.gates %llu / sim.blocks | "
              "mqpu_busy_frac = transformer.run %.4f s / (%d devices x "
              "run_batch %.4f s) | compression_ratio = %llu raw / %llu "
              "packed payload bytes",
              count("sim.gates"), layers["transformer.run"].total_s,
              kDevices, run_batch_s,
              static_cast<unsigned long long>(traced.file.uncompressed_bytes),
              static_cast<unsigned long long>(traced.file.compressed_bytes));

  // Per-block replay of every circuit on one thread (the mqpu devices run
  // single-threaded), traced, with sampling on the final states.
  KernelLedger ledger;
  Rng rng(cfg.seed, 0x5a3b);
  const LayerTimes replay = trace_run(
      "bench.replay",
      [&] {
        for (const auto& qc : circuits) {
          const core::Kernel k = core::Kernel::from_circuit(qc);
          const sim::FusionPlan plan = spanned("bench.plan_fusion", [&] {
            return sim::plan_fusion(k.circuit(), {.max_width = 5});
          });
          sim::StateVector<float> state(kQubits);
          ledger.replay(plan, state, nullptr);
          const sim::Counts counts = spanned("bench.sample_counts", [&] {
            return sim::sample_counts(state, k.measured_qubits(), kShots, rng);
          });
          report.check(shots_in(counts) == kShots, "replay lost shots");
        }
      },
      report);
  report.check(ledger.calls() == count("sim.fused_blocks"),
               "replayed block count differs from the engine's");
  report.metric("sim.sample_s", replay["bench.sample_counts"].total_s, "s");
  report.note("replay: plan_fusion %.4f s, apply_fused_block %.4f s, "
              "sample_counts %.4f s over %zu circuits on one thread",
              replay["bench.plan_fusion"].total_s,
              replay["bench.apply_fused_block"].total_s,
              replay["bench.sample_counts"].total_s, circuits.size());
  ledger.report(host, report);
}

}  // namespace perfbench
