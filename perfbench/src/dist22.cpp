// dist22: one circuit split across 4 ranks, the only workload that
// exercises the exchange layer.
//
// The sv24 circuit families (random CX-block and QFT) on 22 qubits, fp32,
// fusion width 5, with shots. Each runs through core::Transformer target
// nvidia_mgpu (the path the CLI uses, no remap) and through
// dist::run_distributed with remap on and two ranks per NVLink domain,
// so both interconnect tiers carry bytes.
#include <cmath>

#include "bench.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/core/transformer.hpp"
#include "qgear/dist/runner.hpp"

namespace perfbench {

using namespace qgear;

namespace {

constexpr unsigned kQubits = 22;
constexpr int kRanks = 4;
constexpr unsigned kRanksPerDomain = 2;
constexpr std::uint64_t kShots = 100000;
constexpr std::uint64_t kStateBytes =
    (std::uint64_t{1} << kQubits) * sizeof(std::complex<float>);

std::vector<core::Kernel> make_kernels(std::uint64_t seed) {
  Rng rng(seed, 0xd122);
  std::vector<core::Kernel> kernels;
  kernels.push_back(core::Kernel::from_circuit(
      circuits::generate_random_circuit({.num_qubits = kQubits,
                                         .num_blocks = 100,
                                         .measure = true,
                                         .seed = rng()})));
  kernels.push_back(
      core::Kernel::from_circuit(qft_on_basis_state(kQubits, rng)));
  return kernels;
}

dist::RunOptions remap_opts(std::uint64_t seed) {
  return {.num_ranks = kRanks, .shots = kShots, .seed = seed,
          .fusion_width = 5, .remap = true,
          .ranks_per_domain = kRanksPerDomain};
}

struct Pass {
  double mgpu_s = 0;
  double remap_s = 0;
  // Exact counts, summed over both circuits.
  std::uint64_t mgpu_bytes = 0;   ///< incl. sampling traffic
  std::uint64_t remap_bytes = 0;  ///< incl. sampling traffic
  std::uint64_t remap_slab_bytes = 0;
  std::uint64_t remap_swaps = 0;
  std::uint64_t remap_messages = 0;
  std::uint64_t tier_bytes[comm::kNumTiers] = {0, 0};  ///< remapped runs

  bool same_counts(const Pass& o) const {
    return mgpu_bytes == o.mgpu_bytes && remap_bytes == o.remap_bytes &&
           remap_slab_bytes == o.remap_slab_bytes &&
           remap_swaps == o.remap_swaps &&
           remap_messages == o.remap_messages &&
           tier_bytes[0] == o.tier_bytes[0] && tier_bytes[1] == o.tier_bytes[1];
  }
};

// One pass: each circuit through nvidia_mgpu, then remapped. Marginals
// are checked against the single-device run after each pair.
Pass run_pass(const std::vector<core::Kernel>& kernels,
              const std::vector<std::vector<double>>& exact,
              core::Transformer& mgpu, std::uint64_t seed, Report& report) {
  Pass p;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const core::Kernel& k = kernels[i];
    core::Result rm;
    dist::RunResult<float> rr;
    {
      obs::Span span("bench.transformer.nvidia_mgpu", "bench");
      WallTimer t;
      rm = mgpu.run(k, {.shots = kShots});
      p.mgpu_s += t.seconds();
    }
    {
      obs::Span span("bench.run_distributed.remap", "bench");
      WallTimer t;
      rr = dist::run_distributed<float>(k.circuit(), remap_opts(seed));
      p.remap_s += t.seconds();
    }
    p.mgpu_bytes += rm.comm_bytes;
    p.remap_bytes += rr.trace.total_bytes;
    p.remap_slab_bytes += rr.circuit_exchange_bytes;
    p.remap_swaps += rr.remap_slab_swaps;
    p.remap_messages += rr.trace.entries.size();
    for (const dist::RankObsSummary& r : rr.rank_obs) {
      p.tier_bytes[0] += r.nvlink_bytes;
      p.tier_bytes[1] += r.internode_bytes;
    }
    report.attempted += 2;
    const bool ok_m = report.check(
        marginals_agree(exact[i], rm.counts, kShots, 1e-4),
        k.name() + ": nvidia_mgpu marginals differ from single-device");
    const bool ok_r = report.check(
        marginals_agree(exact[i], rr.counts, kShots, 1e-4),
        k.name() + ": remapped marginals differ from single-device");
    report.failed += (ok_m ? 0 : 1) + (ok_r ? 0 : 1);
  }
  return p;
}

}  // namespace

void run_dist22(const Config& cfg, Report& report) {
  const core::TransformerOptions opts{.target = core::Target::nvidia_mgpu,
                                      .precision = core::Precision::fp32,
                                      .devices = kRanks,
                                      .fusion_width = 5,
                                      .seed = cfg.seed};
  // Set-up: generate the circuits and build the mgpu front end.
  const auto start_up = [&] {
    std::vector<core::Kernel> k = make_kernels(cfg.seed);
    core::Transformer t(opts);
    return k;
  };
  SetupClock setup;
  setup.sample(start_up);
  const std::vector<core::Kernel> kernels = start_up();
  core::Transformer mgpu(opts);

  // Reference: a single-device fused run of each circuit, replayed block
  // by block on a 4-thread pool, gives the exact marginals (and the
  // kernel ledger).
  KernelLedger ledger;
  std::vector<std::vector<double>> exact;
  {
    ThreadPool pool(kRanks);
    for (const core::Kernel& k : kernels) {
      const sim::FusionPlan plan =
          sim::plan_fusion(k.circuit(), {.max_width = 5});
      sim::StateVector<float> state(kQubits);
      ledger.replay(plan, state, &pool);
      exact.push_back(sim::qubit_one_probabilities(state));
    }
  }

  std::vector<Pass> passes;
  std::vector<double> mgpu_s, remap_s, pass_s;
  const StealMeter steal;
  repeat_for(cfg.seconds, [&] {
    passes.push_back(run_pass(kernels, exact, mgpu, cfg.seed, report));
    mgpu_s.push_back(passes.back().mgpu_s);
    remap_s.push_back(passes.back().remap_s);
    pass_s.push_back(passes.back().mgpu_s + passes.back().remap_s);
    setup.sample(start_up);
  });
  const double rss = peak_rss_mib();
  // Roofline bases match the single-device replay (full state, 4-thread
  // pool); memcpy runs over one rank's slab, the unit an exchange moves.
  const HostProbe host =
      probe_host(kStateBytes, kRanks, kStateBytes / kRanks, steal);
  report_host(host, cfg, report);

  report.note("dist22: %u qubits fp32, %d ranks, %zu passes of {random100, "
              "qft} | nvidia_mgpu %.4f s, remap %.4f s per pass (medians) | "
              "bytes per pass: mgpu %.1f MB, remap %.1f MB (%u ranks per "
              "domain)",
              kQubits, kRanks, passes.size(), median(mgpu_s), median(remap_s),
              passes[0].mgpu_bytes / 1e6, passes[0].remap_bytes / 1e6,
              kRanksPerDomain);
  if (!cfg.trace) {
    report.metric("setup_s", setup.median(), "s");
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("main_ms", 1e3 * median(remap_s), "ms");
    report.metric("alt_ms", 1e3 * median(mgpu_s), "ms");
    return;
  }

  Pass traced;
  std::vector<obs::SpanRecord> spans;
  const CounterDelta counters;
  const LayerTimes layers = trace_run(
      "bench.dist22",
      [&] { traced = run_pass(kernels, exact, mgpu, cfg.seed, report); },
      report, &spans);
  report_trace(layers, median(pass_s), traced.mgpu_s + traced.remap_s,
               report);
  report.check(passes[0].same_counts(traced),
               "exchange counts differ between the untraced and traced pass");

  // Rank imbalance: slowest rank over the mean rank, per distributed run
  // (rank spans of one run share its trace id); the worst run reported.
  std::map<std::uint64_t, std::vector<double>> rank_s;
  for (const auto& s : spans) {
    if (s.name == "dist.rank") rank_s[s.trace_id].push_back(s.dur_us * 1e-6);
  }
  double imbalance = 1.0, slowest = 0, mean = 0;
  for (const auto& [id, v] : rank_s) {
    double sum = 0, mx = 0;
    for (double d : v) {
      sum += d;
      mx = std::max(mx, d);
    }
    const double avg = sum / static_cast<double>(v.size());
    if (mx / avg >= imbalance) {
      imbalance = mx / avg;
      slowest = mx;
      mean = avg;
    }
  }

  // Remapped exchanges run inside dist.exchange_batch; their chunk
  // consumers are its children, so its self time is the rest: gathering
  // send buffers, posting sends and waiting for peers.
  const double exchange_s = layers["dist.exchange_batch"].total_s;
  const double wait_s = layers["dist.exchange_batch"].self_s;
  const double local_s =
      layers["dist.apply_circuit_remapped"].total_s - exchange_s;
  const double exchange_gbps =
      static_cast<double>(traced.remap_slab_bytes) / exchange_s / 1e9;
  const std::uint64_t exchange_bytes = counters("dist.exchange_bytes");
  const std::uint64_t messages = counters("dist.messages");
  const std::uint64_t swaps = counters("dist.remap_swaps");
  const std::uint64_t nvlink = counters("dist.exchange.tier_bytes.nvlink");
  const std::uint64_t internode =
      counters("dist.exchange.tier_bytes.internode");
  report.metric("dist.exchange_bytes", exchange_bytes, "B");
  report.metric("dist.messages", messages, "count");
  report.metric("dist.remap_swaps", swaps, "count");
  report.metric("dist.tier_bytes.nvlink", nvlink, "B");
  report.metric("dist.tier_bytes.internode", internode, "B");
  report.metric("dist.local_sweep_s", local_s, "s");
  report.metric("dist.rank_imbalance", imbalance, "ratio");
  report.metric("comm.exchange_s", exchange_s, "s");
  report.metric("comm.exchange_gbps", exchange_gbps, "GB/s");
  report.metric("comm.wait_s", wait_s, "s");
  report.note("exact: dist.exchange_bytes %llu (mgpu %llu + remap %llu, "
              "incl. sampling) | dist.messages %llu | dist.remap_swaps %llu "
              "| tier bytes nvlink %llu, internode %llu | equal across passes",
              static_cast<unsigned long long>(exchange_bytes),
              static_cast<unsigned long long>(traced.mgpu_bytes),
              static_cast<unsigned long long>(traced.remap_bytes),
              static_cast<unsigned long long>(messages),
              static_cast<unsigned long long>(swaps),
              static_cast<unsigned long long>(nvlink),
              static_cast<unsigned long long>(internode));
  report.note("rank_imbalance = slowest rank %.4f s / mean rank %.4f s "
              "(worst of %zu distributed runs)",
              slowest, mean, rank_s.size());
  report.note("comm (remapped runs, summed over ranks): exchange %.4f s = "
              "chunk consume %.4f s + gather/send/wait %.4f s | %.2f GB/s = "
              "%llu slab bytes / exchange s, vs memcpy %.2f GB/s | local "
              "sweeps %.4f s = apply_circuit_remapped - exchange",
              exchange_s, exchange_s - wait_s, wait_s, exchange_gbps,
              static_cast<unsigned long long>(traced.remap_slab_bytes),
              host.memcpy_gbps, local_s);
  ledger.report(host, report);
}

}  // namespace perfbench
