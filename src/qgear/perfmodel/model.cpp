#include "qgear/perfmodel/model.hpp"

#include <cmath>

#include "qgear/circuits/random_blocks.hpp"
#include "qgear/common/strings.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/dist/dist_state.hpp"
#include "qgear/dist/remap.hpp"
#include "qgear/sim/fused.hpp"

namespace qgear::perfmodel {

LinkClass link_class_for(unsigned gbit, const InterconnectSpec& net) {
  const unsigned node_bits = log2_exact(net.gpus_per_node);
  if (gbit < node_bits) return LinkClass::nvlink;
  const unsigned rack_bits = node_bits + log2_exact(net.nodes_per_rack);
  if (gbit < rack_bits) return LinkClass::slingshot;
  return LinkClass::cross_rack;
}

namespace {

// Time for one pairwise exchange of `bytes` at global-qubit level `gbit`,
// with `pairs` rank pairs exchanging concurrently. sendrecv is full
// duplex, so the per-pair wire time is bytes / bandwidth; cross-rack
// exchanges additionally serialize on the shared spine.
double exchange_time(std::uint64_t bytes, unsigned gbit, int pairs,
                     const InterconnectSpec& net) {
  switch (link_class_for(gbit, net)) {
    case LinkClass::nvlink:
      return net.nvlink_latency_s +
             static_cast<double>(bytes) / net.nvlink_bps;
    case LinkClass::slingshot:
      return net.slingshot_latency_s +
             static_cast<double>(bytes) / net.slingshot_bps;
    case LinkClass::cross_rack: {
      const double pair_time =
          static_cast<double>(bytes) /
          (net.slingshot_bps * net.rack_bandwidth_factor);
      // All pairs push through the inter-rack spine simultaneously;
      // sustained saturation beyond the congestion window degrades the
      // effective bandwidth superlinearly (see specs.hpp).
      const double spine_raw =
          static_cast<double>(bytes) * static_cast<double>(pairs) /
          net.spine_bps;
      const double spine_time =
          spine_raw * (1.0 + spine_raw / net.spine_congestion_window_s);
      return net.slingshot_latency_s + net.rack_extra_latency_s +
             std::max(pair_time, spine_time);
    }
  }
  return 0.0;
}

// Global-qubit level of the exchange an instruction triggers, or -1 if it
// is communication-free. Mirrors dist::DistStateVector's case analysis.
int exchange_gbit(const qiskit::Instruction& inst, unsigned num_local) {
  using qiskit::GateKind;
  const auto global = [num_local](int q) {
    return static_cast<unsigned>(q) >= num_local;
  };
  switch (inst.kind) {
    case GateKind::cx:
      if (!global(inst.q1)) return -1;
      return inst.q1 - static_cast<int>(num_local);
    case GateKind::swap:
      // Priced per decomposed cx below; treated directly here as the
      // dominant target-global hop.
      if (!global(inst.q0) && !global(inst.q1)) return -1;
      return std::max(inst.q0, inst.q1) - static_cast<int>(num_local);
    case GateKind::barrier:
    case GateKind::measure:
    case GateKind::z:
    case GateKind::s:
    case GateKind::sdg:
    case GateKind::t:
    case GateKind::tdg:
    case GateKind::rz:
    case GateKind::p:
    case GateKind::cz:
    case GateKind::cp:
      return -1;
    default:
      return global(inst.q0) ? inst.q0 - static_cast<int>(num_local) : -1;
  }
}

double container_startup(const ClusterConfig& config) {
  if (!config.include_container_start) return 0.0;
  const ContainerSpec& c = config.container;
  const InterconnectSpec& net = config.net;
  const unsigned nodes =
      (static_cast<unsigned>(config.devices) + net.gpus_per_node - 1) /
      net.gpus_per_node;
  // A job blocks on its slowest node; the chance every node is warm decays
  // with the allocation size — the paper's "not warmed up" effect.
  const double all_warm = std::pow(c.warm_node_probability, nodes);
  return all_warm * c.warm_start_s + (1.0 - all_warm) * c.cold_start_s;
}

}  // namespace

Estimate estimate_gpu(const qiskit::QuantumCircuit& qc,
                      const ClusterConfig& config, std::uint64_t shots) {
  QGEAR_CHECK_ARG(config.devices >= 1 &&
                      is_pow2(static_cast<std::uint64_t>(config.devices)),
                  "perfmodel: device count must be a power of two");
  Estimate e;
  const unsigned n = qc.num_qubits();
  const unsigned r = log2_exact(static_cast<std::uint64_t>(config.devices));
  const std::size_t amp_b = core::amp_bytes(config.precision);

  if (n < r + 1) {
    e.feasible = false;
    e.infeasible_reason = "fewer qubits than log2(devices)+1";
    return e;
  }
  const unsigned num_local = n - r;
  const std::uint64_t local_bytes = pow2(num_local) * amp_b;
  if (local_bytes > config.gpu.memory_bytes) {
    e.feasible = false;
    e.infeasible_reason = strfmt(
        "%u-qubit %s state needs %s per GPU, %s has %s", n,
        core::precision_name(config.precision),
        human_bytes(local_bytes).c_str(), config.gpu.name.c_str(),
        human_bytes(config.gpu.memory_bytes).c_str());
    return e;
  }

  if (config.remap && r > 0) {
    // Walk the communication-avoiding plan the real engine executes:
    // half-slab index-bit swaps replace per-gate exchanges, local runs
    // fuse segment-wise, and elided swap gates cost nothing.
    const dist::RemapPlan rplan = dist::plan_remap(qc, num_local);
    qiskit::QuantumCircuit run(num_local, "model_segment");
    auto flush_run = [&] {
      if (run.empty()) return;
      const unsigned width = std::min(config.fusion_width, num_local);
      e.sweeps += sim::group_fusion(run, {.max_width = width}).groups.size();
      run = qiskit::QuantumCircuit(num_local, "model_segment");
    };
    for (const dist::RemapSegment& seg : rplan.segments) {
      if (!seg.swaps.empty()) {
        flush_run();
        // A k-wide batch runs as one exchange: the slab splits into 2^k
        // groups, one stays put, and round d = 1..2^k-1 trades one group
        // with the peer across gmask(d). Each round's wall time is set by
        // the slowest link its mask crosses — the highest global bit.
        const unsigned k = static_cast<unsigned>(seg.swaps.size());
        const std::uint64_t group_bytes = local_bytes >> k;
        // Gather + scatter touch the traded groups once each: one sweep
        // regardless of batch width.
        ++e.sweeps;
        for (std::uint64_t d = 1; d < pow2(k); ++d) {
          unsigned gbit = 0;
          for (unsigned i = 0; i < k; ++i) {
            if ((d >> i) & 1) {
              gbit = std::max(gbit, seg.swaps[i].global_phys - num_local);
            }
          }
          e.comm_bytes_per_device += group_bytes;
          e.comm_s += exchange_time(group_bytes, gbit, config.devices / 2,
                                    config.net);
        }
      }
      for (const qiskit::Instruction& inst : seg.insts) {
        if (inst.kind == qiskit::GateKind::barrier ||
            inst.kind == qiskit::GateKind::measure) {
          continue;
        }
        const qiskit::GateInfo& info = qiskit::gate_info(inst.kind);
        const bool local_unitary =
            info.unitary && static_cast<unsigned>(inst.q0) < num_local &&
            (info.num_qubits < 2 ||
             static_cast<unsigned>(inst.q1) < num_local);
        if (local_unitary) {
          run.append(inst);
          continue;
        }
        flush_run();
        ++e.sweeps;  // diagonal factor sweep or exchange update
        const std::uint64_t bytes =
            dist::exchange_bytes_for(inst, n, num_local, amp_b);
        if (bytes == 0) continue;
        const int gbit = exchange_gbit(inst, num_local);
        QGEAR_ENSURES(gbit >= 0);
        e.comm_bytes_per_device += bytes;
        e.comm_s += exchange_time(bytes, static_cast<unsigned>(gbit),
                                  config.devices / 2, config.net);
      }
    }
    flush_run();
  } else {
    // Sweep count from the fusion planner's grouping pass (one sweep per
    // block; walks the gate list, composes no matrices).
    e.sweeps =
        sim::group_fusion(qc, {.max_width = config.fusion_width}).groups.size();

    // Communication: walk the exact per-gate schedule.
    if (r > 0) {
      for (const qiskit::Instruction& inst : qc.instructions()) {
        const std::uint64_t bytes =
            dist::exchange_bytes_for(inst, n, num_local, amp_b);
        if (bytes == 0) continue;
        const int gbit = exchange_gbit(inst, num_local);
        QGEAR_ENSURES(gbit >= 0);
        e.comm_bytes_per_device += bytes;
        // All pairs exchange concurrently; wall time is one pair's time
        // plus any shared-spine serialization.
        e.comm_s += exchange_time(bytes, static_cast<unsigned>(gbit),
                                  config.devices / 2, config.net);
      }
    }
  }

  const double sweep_bytes =
      kSweepBytesPerStateByte * static_cast<double>(local_bytes);
  const double sustained =
      config.gpu.mem_bandwidth_bps * config.gpu.efficiency;
  e.compute_s = static_cast<double>(e.sweeps) * sweep_bytes / sustained;
  e.launch_s = static_cast<double>(e.sweeps) * config.gpu.kernel_launch_s;

  if (shots > 0) {
    // Device-side cumulative-search sampling: per-shot cost scales with
    // state size (see specs.hpp).
    const double per_shot = config.gpu.shot_unit_s *
                            static_cast<double>(pow2(num_local)) / 32768.0;
    e.sample_s = static_cast<double>(shots) * per_shot;
  }

  e.startup_s = container_startup(config);
  e.energy_joules =
      e.total_s() * config.gpu.power_watts * config.devices;
  return e;
}

Estimate estimate_cpu(const qiskit::QuantumCircuit& qc,
                      const CpuBaselineConfig& config, std::uint64_t shots) {
  Estimate e;
  const unsigned n = qc.num_qubits();
  const std::size_t amp_b = core::amp_bytes(config.precision);
  const std::uint64_t state_bytes = pow2(n) * amp_b;
  // Aer needs the state plus working buffers; the paper's 512 GB node dies
  // at 34 qubits.
  if (2 * state_bytes > config.node.memory_bytes) {
    e.feasible = false;
    e.infeasible_reason =
        strfmt("%u-qubit %s state (plus workspace) exceeds %s node RAM", n,
               core::precision_name(config.precision),
               human_bytes(config.node.memory_bytes).c_str());
    return e;
  }

  std::uint64_t gates = 0;
  for (const qiskit::Instruction& inst : qc.instructions()) {
    if (inst.kind != qiskit::GateKind::barrier &&
        inst.kind != qiskit::GateKind::measure) {
      ++gates;
    }
  }
  e.sweeps = gates;  // no fusion in the baseline

  const double sweep_bytes =
      kSweepBytesPerStateByte * static_cast<double>(state_bytes);
  const double bandwidth =
      config.mode == CpuBaselineConfig::Mode::node_parallel
          ? config.node.node_bandwidth_bps * config.node.node_efficiency
          : config.node.core_bandwidth_bps;
  e.compute_s = static_cast<double>(gates) * sweep_bytes / bandwidth;
  e.launch_s = static_cast<double>(gates) * config.node.gate_dispatch_s;

  if (shots > 0) {
    // Sampling parallelizes across all cores in both CPU modes.
    e.sample_s = static_cast<double>(shots) * config.node.shot_s /
                 static_cast<double>(config.node.cores);
  }
  e.energy_joules = e.total_s() * config.node.power_watts;
  return e;
}

double measure_local_sweep_bandwidth(unsigned num_qubits, unsigned blocks) {
  const auto qc = circuits::generate_random_circuit(
      {.num_qubits = num_qubits, .num_blocks = blocks, .measure = false,
       .seed = 99});
  sim::FusedEngine<float> engine;
  sim::StateVector<float> state(num_qubits);
  WallTimer timer;
  engine.apply(qc, state);
  const double seconds = timer.seconds();
  const double bytes = static_cast<double>(engine.stats().sweeps) *
                       kSweepBytesPerStateByte *
                       static_cast<double>(pow2(num_qubits)) *
                       sizeof(std::complex<float>);
  return bytes / seconds;
}

double measure_local_sweep_bandwidth(unsigned num_qubits, unsigned blocks,
                                     sim::Isa isa) {
  const sim::Isa prev = sim::active_isa();
  sim::set_active_isa(isa);
  const double bandwidth = measure_local_sweep_bandwidth(num_qubits, blocks);
  sim::set_active_isa(prev);
  return bandwidth;
}

BackendMemoryEstimate estimate_backend_memory(
    const qiskit::QuantumCircuit& qc, const std::string& backend,
    std::uint64_t budget_bytes, const sim::BackendOptions& opts) {
  BackendMemoryEstimate e;
  e.backend = backend;
  e.mem_bytes = sim::Backend::memory_estimate_for(backend, qc, opts);
  if (budget_bytes > 0 && e.mem_bytes > budget_bytes) {
    e.feasible = false;
    e.infeasible_reason =
        strfmt("%s needs %s, budget is %s", backend.c_str(),
               human_bytes(e.mem_bytes).c_str(),
               human_bytes(budget_bytes).c_str());
  }
  return e;
}

}  // namespace qgear::perfmodel
