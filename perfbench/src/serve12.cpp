// serve12: latency under open-loop load against serve::SimService.
//
// The schedule is generated up front from the seed: Poisson arrivals at
// a ladder of fixed absolute rates, 12-qubit random CX-block and QFT
// circuits, 4 tenants. Half the jobs repeat a small hot pool (compile
// cache hits); the rest are unique (compile, insert, evict). About 10%
// ask for backend=auto under the built-in route::Calibration defaults,
// so routing does not depend on a calibration file. The service runs 2
// workers with a queue bound no step reaches, so overload shows as
// latency, never as rejections.
//
// Each job is timed from its due time: (submit - due) + e2e. The base
// step (about half the knee, 3000 jobs) gives the p50 (main_ms) and p99
// (alt_ms), each the median over windows of 1000 jobs. A traced run
// also climbs the ladder: serve_max_rate_hz is the highest rate of its
// passing prefix (p99 <= 50 ms and no growing backlog).
#include <cmath>
#include <set>
#include <thread>

#include "bench.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/qiskit/fingerprint.hpp"
#include "qgear/qiskit/transpile.hpp"
#include "qgear/serve/service.hpp"

namespace perfbench {

using namespace qgear;

namespace {

constexpr unsigned kQubits = 12;
constexpr unsigned kWorkers = 2;
constexpr unsigned kTenants = 4;
constexpr unsigned kClients = 16;  ///< submitting threads of the generator
constexpr unsigned kHotCircuits = 8;
constexpr double kHotFraction = 0.5;
constexpr double kAutoFraction = 0.1;
constexpr double kP99LimitS = 0.050;
constexpr std::uint64_t kStateBytes =
    (std::uint64_t{1} << kQubits) * sizeof(std::complex<float>);

// Ladder of absolute arrival rates. The base step is about half the knee
// measured on a 4-core x86 host and runs long enough for >= 1000 jobs;
// the steps above it climb past the knee.
constexpr double kBaseRate = 300.0;
constexpr double kBaseJobs = 3000;
constexpr double kLadder[] = {500, 575, 650, 725, 800,
                              900, 1000, 1100, 1250, 1400};
constexpr double kStepSeconds = 2.5;
constexpr double kWarmupSeconds = 1.0;

struct Job {
  double due_s = 0;  ///< offset from the step start
  serve::JobSpec spec;
};

struct Step {
  double rate = 0;
  std::vector<Job> jobs;
};

qiskit::QuantumCircuit make_circuit(Rng& rng, bool qft) {
  if (qft) return qft_on_basis_state(kQubits, rng);
  return circuits::generate_random_circuit(
      {.num_qubits = kQubits, .num_blocks = 60, .measure = true,
       .seed = rng()});
}

// Unitary gates the engine applies: those of the transpiled circuit.
std::uint64_t unitary_gates(const qiskit::QuantumCircuit& qc) {
  const qiskit::QuantumCircuit native = qiskit::transpile(qc);
  std::uint64_t n = 0;
  for (const auto& inst : native.instructions()) {
    if (qiskit::gate_info(inst.kind).unitary) ++n;
  }
  return n;
}

std::vector<Step> make_schedule(std::uint64_t seed, bool ladder) {
  Rng rng(seed, 0x5e12);
  std::vector<qiskit::QuantumCircuit> hot;
  for (unsigned i = 0; i < kHotCircuits; ++i) {
    hot.push_back(make_circuit(rng, i % 2 == 1));
  }
  // Step 0 is a short warm-up at the base rate: it fills the compile
  // cache with the hot pool and finishes lazy set-up off the clock.
  std::vector<double> rates = {kBaseRate, kBaseRate};
  if (ladder) rates.insert(rates.end(), std::begin(kLadder), std::end(kLadder));
  std::vector<Step> steps;
  for (std::size_t s = 0; s < rates.size(); ++s) {
    Step step{.rate = rates[s], .jobs = {}};
    const double span = s == 0   ? kWarmupSeconds
                        : s == 1 ? kBaseJobs / rates[s]
                                 : kStepSeconds;
    for (double t = -std::log(1 - rng.uniform()) / step.rate; t < span;
         t += -std::log(1 - rng.uniform()) / step.rate) {
      Job job;
      job.due_s = t;
      job.spec.tenant = "t" + std::to_string(rng.uniform_u64(kTenants));
      if (rng.uniform() < kHotFraction) {
        job.spec.circuit = hot[rng.uniform_u64(kHotCircuits)];
      } else {
        job.spec.circuit = make_circuit(rng, rng.uniform() < 0.5);
      }
      if (rng.uniform() < kAutoFraction) job.spec.backend = "auto";
      step.jobs.push_back(std::move(job));
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

serve::SimService::Options service_opts() {
  serve::SimService::Options o;
  o.workers = kWorkers;
  o.scheduler.capacity = 1u << 20;
  o.scheduler.per_tenant_inflight = 1u << 20;
  o.calibration = route::Calibration{};
  return o;
}

struct StepResult {
  double rate = 0;
  std::size_t jobs = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;     ///< not completed, or wrong gate count
  std::vector<double> latency;  ///< due -> terminal, seconds, in due order
  std::vector<double> gen_lag;  ///< due -> submit call (generator lateness)
  std::vector<double> queue_wait, compile, execute, residual;
  double backlog_slope = 0;     ///< outstanding jobs per second
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  /// Latency quantile per window of >= 1000 consecutive jobs (so a p99
  /// has ten samples beyond it), median over the windows: one host stall
  /// moves one window, not the whole step.
  double latency_q(double p) const {
    const std::size_t windows =
        std::max<std::size_t>(1, latency.size() / 1000);
    std::vector<double> qs;
    for (std::size_t w = 0; w < windows; ++w) {
      qs.push_back(quantile(
          {latency.begin() + latency.size() * w / windows,
           latency.begin() + latency.size() * (w + 1) / windows},
          p));
    }
    return median(qs);
  }
  double p99() const { return latency_q(0.99); }
  /// Nothing refused or failed, and the backlog did not grow.
  bool steady() const {
    return rejected == 0 && failed == 0 &&
           backlog_slope <= std::max(5.0, 0.05 * rate);
  }
  bool passes() const { return steady() && p99() <= kP99LimitS; }
};

// Least-squares slope of outstanding jobs (submitted - finished) sampled
// at 20 points over the step's arrival window.
double backlog_slope(const std::vector<double>& submit,
                     const std::vector<double>& finish, double span) {
  const int points = 20;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (int i = 1; i <= points; ++i) {
    const double t = span * i / points;
    double out = 0;
    for (std::size_t j = 0; j < submit.size(); ++j) {
      out += (submit[j] <= t) - (finish[j] <= t);
    }
    sx += t;
    sy += out;
    sxx += t * t;
    sxy += t * out;
  }
  return (points * sxy - sx * sy) / (points * sxx - sx * sx);
}

// Drives one step open loop. Jobs come from independent users: client
// threads take them round-robin and submit each at its due time, so a
// slow submit (routing a backend=auto job) delays only the jobs queued on
// its own client. Nothing waits on the service until every job is in.
StepResult run_step(serve::SimService& svc, const Step& step,
                    Report& report) {
  StepResult r;
  r.rate = step.rate;
  r.jobs = step.jobs.size();
  const serve::CompilationCache::Stats c0 = svc.cache().stats();
  std::vector<serve::JobTicket> tickets(step.jobs.size());
  std::vector<double> submit_s(step.jobs.size());
  std::vector<double> lag_s(step.jobs.size());
  std::vector<std::string> errors(step.jobs.size());  ///< submit threw
  // The clients start 20 ms out, so thread start-up is not lateness.
  const auto start = serve::Clock::now() + std::chrono::milliseconds(20);
  {
    std::vector<std::jthread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = c; i < step.jobs.size(); i += kClients) {
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<serve::Clock::duration>(
                          std::chrono::duration<double>(step.jobs[i].due_s)));
          const auto since_start = [&] {
            return std::chrono::duration<double>(serve::Clock::now() - start)
                .count();
          };
          lag_s[i] = since_start() - step.jobs[i].due_s;
          try {
            tickets[i] = svc.submit(step.jobs[i].spec);
          } catch (const std::exception& e) {
            errors[i] = e.what();
          }
          submit_s[i] = since_start();
        }
      });
    }
  }
  std::vector<double> finish_s(step.jobs.size(), 1e9);
  for (std::size_t i = 0; i < step.jobs.size(); ++i) {
    const Job& job = step.jobs[i];
    ++report.attempted;
    if (!report.check(errors[i].empty(), "submit threw: " + errors[i])) {
      ++r.failed;
      r.latency.push_back(1e9);
      continue;
    }
    if (!tickets[i].accepted()) {
      ++r.rejected;
      r.latency.push_back(1e9);  // a refused job misses every limit
      continue;
    }
    const serve::JobResult res = tickets[i].result().get();
    r.gen_lag.push_back(lag_s[i]);
    r.latency.push_back(submit_s[i] - job.due_s + res.e2e_s);
    finish_s[i] = submit_s[i] + res.e2e_s;
    const std::uint64_t expected = unitary_gates(job.spec.circuit);
    const bool ok = res.status == serve::JobStatus::completed &&
                    res.stats.gates == expected;
    if (!report.check(ok, "job " + std::to_string(i) + " (" + res.backend +
                              "): status " +
                              serve::job_status_name(res.status) + ", gates " +
                              std::to_string(res.stats.gates) + " expected " +
                              std::to_string(expected))) {
      ++r.failed;
      continue;
    }
    r.queue_wait.push_back(res.queue_wait_s);
    r.compile.push_back(res.compile_s);
    r.execute.push_back(res.execute_s);
    if (res.est_execute_s > 0 && res.execute_s > 0) {
      r.residual.push_back(
          std::abs(std::log(res.est_execute_s / res.execute_s)));
    }
  }
  report.failed += r.rejected + r.failed;
  const double span = step.jobs.empty() ? 1.0 : step.jobs.back().due_s;
  r.backlog_slope = backlog_slope(submit_s, finish_s, span);
  const serve::CompilationCache::Stats c1 = svc.cache().stats();
  r.hits = c1.hits - c0.hits;
  r.misses = c1.misses - c0.misses;
  r.evictions = c1.evictions - c0.evictions;
  return r;
}

void note_step(const StepResult& r, Report& report) {
  report.note("  %6.0f jobs/s: %5zu jobs, p50 %7.2f ms, p99 %8.2f ms, gen "
              "lag p99 %6.3f ms, backlog slope %+8.2f jobs/s -> %s",
              r.rate, r.jobs, 1e3 * r.latency_q(0.5), 1e3 * r.p99(),
              1e3 * quantile(r.gen_lag, 0.99), r.backlog_slope,
              r.passes() ? "pass" : "FAIL");
}

// Highest passing rate of the ladder, refined by linear interpolation of
// p99 to the limit when the next step failed on latency alone. When even
// the base step misses the limit, its rate scaled by the miss.
double max_passing_rate(const std::vector<StepResult>& results) {
  const StepResult& base = results[0];
  if (!base.passes()) return base.rate * kP99LimitS / base.p99();
  std::size_t k = 0;
  while (k + 1 < results.size() && results[k + 1].passes()) ++k;
  if (k + 1 == results.size()) return results[k].rate;
  const StepResult& lo = results[k];
  const StepResult& hi = results[k + 1];
  if (!hi.steady()) return lo.rate;  // failed on backlog or errors
  return lo.rate + (hi.rate - lo.rate) * (kP99LimitS - lo.p99()) /
                       (hi.p99() - lo.p99());
}

struct Burst {
  double wall_s = 0;
  std::uint64_t blocks = 0;  ///< fused blocks over all jobs (exact)
  std::uint64_t sweeps = 0;
};

// Closed burst of `jobs` from the base step, submitted at once to a fresh
// service and drained. Used to compare untraced and traced execution of
// identical work.
Burst burst(const Step& base, std::size_t jobs, Report& report) {
  serve::SimService svc(service_opts());
  Burst b;
  WallTimer t;
  std::vector<serve::JobTicket> tickets;
  for (std::size_t i = 0; i < jobs && i < base.jobs.size(); ++i) {
    obs::Span span("bench.submit", "bench");
    tickets.push_back(svc.submit(base.jobs[i].spec));
  }
  {
    obs::Span span("bench.await", "bench");
    for (auto& tk : tickets) {
      if (!report.check(tk.accepted(), "burst job rejected")) continue;
      const serve::JobResult& res = tk.result().get();
      report.check(res.status == serve::JobStatus::completed,
                   "burst job did not complete");
      b.blocks += res.stats.fused_blocks;
      b.sweeps += res.stats.sweeps;
    }
  }
  b.wall_s = t.seconds();
  return b;
}

}  // namespace

void run_serve12(const Config& cfg, Report& report) {
  // Set-up: generate the schedule and its circuits, start a service. The
  // rate ladder runs only in a traced run: its knee swings with host load
  // too much to gate on, so it is a per-layer figure.
  const auto start_up = [&] {
    std::vector<Step> s = make_schedule(cfg.seed, cfg.trace);
    serve::SimService svc(service_opts());
    return s;
  };
  SetupClock setup;
  setup.sample(start_up);
  const std::vector<Step> steps = start_up();

  std::vector<StepResult> results;
  const StealMeter steal;
  {
    serve::SimService svc(service_opts());
    run_step(svc, steps[0], report);  // warm-up
    results.push_back(run_step(svc, steps[1], report));
    setup.sample(start_up);
    // Ladder: climb until the first failing step.
    for (std::size_t s = 2; s < steps.size() && results.back().passes(); ++s) {
      results.push_back(run_step(svc, steps[s], report));
      setup.sample(start_up);
    }
  }
  const double rss = peak_rss_mib();
  const HostProbe host = probe_host(kStateBytes, 1, kStateBytes, steal);
  report_host(host, cfg, report);

  const StepResult& base = results[0];
  report.note("serve12: %u qubits, %u workers, %u tenants, %.0f%% hot, "
              "%.0f%% backend=auto | base %.0f jobs/s: p50 %.2f ms, p99 "
              "%.2f ms over %zu jobs",
              kQubits, kWorkers, kTenants, 100 * kHotFraction,
              100 * kAutoFraction, base.rate, 1e3 * base.latency_q(0.5),
              1e3 * base.p99(), base.jobs);
  for (const StepResult& r : results) note_step(r, report);

  if (!cfg.trace) {
    report.metric("setup_s", setup.median(), "s");
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("main_ms", 1e3 * base.latency_q(0.5), "ms");
    report.metric("alt_ms", 1e3 * base.p99(), "ms");
    return;
  }

  const double max_rate = max_passing_rate(results);
  report.metric("serve_max_rate_hz", max_rate, "1/s");
  report.note("max rate %.0f jobs/s: highest passing step, interpolated in "
              "p99 to %.0f ms towards the first failing one",
              max_rate, 1e3 * kP99LimitS);

  report.metric("serve.queue_wait_p50_ms",
                1e3 * quantile(base.queue_wait, 0.5), "ms");
  report.metric("serve.queue_wait_p99_ms",
                1e3 * quantile(base.queue_wait, 0.99), "ms");
  report.metric("serve.compile_p50_ms", 1e3 * quantile(base.compile, 0.5),
                "ms");
  report.metric("serve.execute_p50_ms", 1e3 * quantile(base.execute, 0.5),
                "ms");
  report.metric("serve.cache.hit_ratio",
                static_cast<double>(base.hits) /
                    static_cast<double>(base.hits + base.misses),
                "frac");
  report.metric("serve.cache.evictions", base.evictions, "count");
  report.metric("serve.rejected", base.rejected, "count");
  report.metric("serve.gen_lag_p99_ms", 1e3 * quantile(base.gen_lag, 0.99),
                "ms");
  report.metric("serve.backlog_slope", base.backlog_slope, "1/s");
  report.metric("route.residual_p50", quantile(base.residual, 0.5), "ln");
  report.note("serve base step: cache hit_ratio = %llu hits / %llu lookups, "
              "%llu evictions | route residual = |ln(est_execute_s / "
              "execute_s)| over %zu completed jobs",
              static_cast<unsigned long long>(base.hits),
              static_cast<unsigned long long>(base.hits + base.misses),
              static_cast<unsigned long long>(base.evictions),
              base.residual.size());

  // Tracing overhead: a closed burst of the base step's first jobs on a
  // fresh service, untraced and then traced.
  constexpr std::size_t kBurst = 600;
  burst(steps[1], kBurst, report);  // warm-up: lazy set-up off the clock
  const Burst untraced = burst(steps[1], kBurst, report);
  Burst traced;
  const LayerTimes layers = trace_run(
      "bench.serve12", [&] { traced = burst(steps[1], kBurst, report); },
      report);
  report_trace(layers, untraced.wall_s, traced.wall_s, report);
  report.check(untraced.blocks == traced.blocks &&
                   untraced.sweeps == traced.sweeps,
               "exact counts differ between the untraced and traced burst");
  report.metric("route.plan_s", layers["route.plan"].total_s, "s");

  // Compile pieces and kernels, replayed per distinct circuit of the burst
  // on one thread (serve executes each job single-threaded), traced.
  KernelLedger ledger;
  std::uint64_t blocks = 0, gates = 0;
  std::set<std::uint64_t> seen;
  const LayerTimes replay = trace_run(
      "bench.replay",
      [&] {
        for (std::size_t i = 0; i < kBurst && i < steps[1].jobs.size(); ++i) {
          const qiskit::QuantumCircuit& qc = steps[1].jobs[i].spec.circuit;
          if (!seen.insert(qiskit::circuit_fingerprint(qc)).second) continue;
          qiskit::QuantumCircuit native(1);
          {
            obs::Span span("bench.transpile", "bench");
            native = qiskit::transpile(qc);
          }
          sim::FusionPlan plan;
          {
            obs::Span span("bench.plan_fusion", "bench");
            plan = sim::plan_fusion(native, {.max_width = 5});
          }
          blocks += plan.blocks.size();
          gates += plan.input_gates;
          sim::StateVector<float> state(kQubits);
          ledger.replay(plan, state, nullptr);
        }
      },
      report);
  report.metric("qiskit.transpile_s", replay["bench.transpile"].total_s, "s");
  report.metric("sim.plan_s", replay["bench.plan_fusion"].total_s, "s");
  report.metric("sim.blocks", blocks, "count");
  report.metric("sim.fusion_ratio",
                static_cast<double>(gates) / static_cast<double>(blocks),
                "gates/block");
  report.metric("sim.sweeps", blocks, "count");
  report.note("exact: burst of %zu jobs swept %llu fused blocks, equal "
              "across bursts | %zu distinct circuits: sim.blocks = "
              "sim.sweeps = %llu | fusion_ratio = %llu gates / sim.blocks",
              kBurst, static_cast<unsigned long long>(traced.blocks),
              seen.size(), static_cast<unsigned long long>(blocks),
              static_cast<unsigned long long>(gates));
  ledger.report(host, report);
}

}  // namespace perfbench
