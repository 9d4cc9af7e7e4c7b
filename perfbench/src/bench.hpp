// Shared pieces of the qgear benchmark: the run report, set-up timing,
// host probes, traced runs folded into self time per layer, the
// per-kernel-class ledger, input generators and correctness helpers. Each
// workload lives in its own source file and fills a Report; main.cpp
// prints it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "qgear/common/rng.hpp"
#include "qgear/common/thread_pool.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/fused.hpp"
#include "qgear/sim/sampler.hpp"
#include "qgear/sim/state.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  ///< scratch files (qh5) go here
};

/// One run's output: metrics by name, correctness and operation counts,
/// plus human-readable notes printed before the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// printf-style note.
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Records a correctness check; a failing check marks the run incorrect.
  bool check(bool ok, const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Notes, then the one-line JSON result.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  bool correct_ = true;
};

// ---- statistics and timing ------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated order statistic, p in [0, 1].
double quantile(std::vector<double> v, double p);
/// Peak resident set of this process so far (VmHWM), MiB.
double peak_rss_mib();

/// Runs `body` at least once and until `seconds` have passed.
template <typename F>
void repeat_for(double seconds, F&& body) {
  qgear::WallTimer timer;
  do {
    body();
  } while (timer.seconds() < seconds);
}

/// Times a workload's set-up (input generation and engine start-up).
/// Short single-threaded timings swing with momentary host load, so the
/// set-up is sampled in bursts spread over the whole run (after each
/// pass) and reported as the median of all samples.
class SetupClock {
 public:
  /// Repeats `setup` for about 50 ms (at least once), timing each call.
  template <typename F>
  void sample(F&& setup) {
    qgear::WallTimer total;
    do {
      qgear::WallTimer t;
      setup();
      times_.push_back(t.seconds());
    } while (total.seconds() < 0.05);
  }
  double median() const { return perfbench::median(times_); }

 private:
  std::vector<double> times_;
};

/// Share of all CPU time the hypervisor stole (the `steal` column of
/// /proc/stat) since construction: how disturbed a measurement was.
class StealMeter {
 public:
  StealMeter();
  double fraction() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

/// Counter deltas of obs::Registry::global() since construction.
class CounterDelta {
 public:
  CounterDelta();
  std::uint64_t operator()(const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> base_;
};

// ---- host probes ----------------------------------------------------------

/// Bandwidth, compute and cache figures measured in the same run, the
/// bases for every roofline fraction the traced run prints.
struct HostProbe {
  double sweep_gbps = 0;       ///< read+write sweep at the workload size
  double sweep_mib = 0;        ///< ...over an array of this size
  double sweep_gbps_dram = 0;  ///< the same sweep at >= 4x LLC
  double dram_mib = 0;
  double fma_gflops = 0;       ///< fp32 FMA peak over `threads` threads
  double memcpy_gbps = 0;      ///< single-thread memcpy, bytes copied / s
  double memcpy_mib = 0;
  double llc_mib = 0;
  unsigned cores = 0;
  unsigned threads = 0;        ///< threads the sweep and FMA probes used
  std::string isa;             ///< active qgear kernel ISA
  double steal_frac = 0;       ///< CPU time stolen during the measurement
};

/// Probes the host: sweeps over `state_bytes` and over >= 4x the LLC and
/// the FMA peak, with `threads` workers; memcpy of `copy_bytes` on one.
/// `measured` covers the workload's measured passes.
HostProbe probe_host(std::uint64_t state_bytes, unsigned threads,
                     std::uint64_t copy_bytes, const StealMeter& measured);
/// Prints the probe (notes) and, in a traced run, its host.* metrics.
void report_host(const HostProbe& host, const Config& cfg, Report& report);

// ---- tracing --------------------------------------------------------------

/// Per-span-name totals folded from tracer records. A span's self time is
/// its duration minus the time its child spans on the same thread cover.
struct LayerTimes {
  struct Entry {
    std::uint64_t calls = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Entry> by_name;
  /// Self time of the spans on the root's thread below the root, and the
  /// root's own self time (work outside every layer span).
  double main_self_s = 0;
  double root_self_s = 0;

  const Entry& operator[](const std::string& name) const;
};

/// Runs `body` once with the global tracer on, inside a root span named
/// `root`, and folds the spans it recorded (copied to `spans` if given).
/// A span lost to the tracer's ring buffer fails the run's checks.
LayerTimes trace_run(const char* root, const std::function<void()>& body,
                     Report& report,
                     std::vector<qgear::obs::SpanRecord>* spans = nullptr);

/// Prints the traced-vs-untraced accounting (trace.* metrics) and the
/// self-time table of one traced unit of work.
void report_trace(const LayerTimes& t, double untraced_s, double traced_s,
                  Report& report);

// ---- kernel ledger --------------------------------------------------------

/// Per-kernel-class work of fused blocks applied one by one: calls and
/// busy time are measured; bytes and FLOPs are computed from the state
/// size and the class (one read and one write of the state per block).
class KernelLedger {
 public:
  /// Applies every block of `plan` to `state`, timing each call inside a
  /// `bench.apply_fused_block` span.
  template <typename T>
  void replay(const qgear::sim::FusionPlan& plan,
              qgear::sim::StateVector<T>& state, qgear::ThreadPool* pool) {
    for (const qgear::sim::FusedBlock& block : plan.blocks) {
      qgear::obs::Span span("bench.apply_fused_block", "bench");
      qgear::WallTimer timer;
      qgear::sim::apply_fused_block(state.data(), state.num_qubits(), block,
                                    pool);
      add(block, state.num_qubits(), sizeof(std::complex<T>),
          timer.seconds());
    }
  }

  /// Blocks replayed so far.
  std::uint64_t calls() const;
  /// sim.kernel.<class>.* metrics against the host roofline.
  void report(const HostProbe& host, Report& report) const;

 private:
  struct Entry {
    std::uint64_t calls = 0;
    double busy_s = 0;
    double bytes = 0;
    double flops = 0;
  };
  void add(const qgear::sim::FusedBlock& block, unsigned num_qubits,
           std::size_t amp_bytes, double seconds);
  std::map<std::string, Entry> entries_;
};

// ---- inputs and checks ----------------------------------------------------

/// QFT of a basis state drawn from `rng` (X gates, then the QFT), with
/// measure-all, so the output phases differ per seed.
qgear::qiskit::QuantumCircuit qft_on_basis_state(unsigned num_qubits,
                                                 qgear::Rng& rng);

/// Total shots in a histogram.
std::uint64_t shots_in(const qgear::sim::Counts& counts);

/// Sampled per-qubit P(1) of `counts` (bit q of a key is qubit q) against
/// the exact `p1`, within five standard errors plus `slack`.
bool marginals_agree(const std::vector<double>& p1,
                     const qgear::sim::Counts& counts, std::uint64_t shots,
                     double slack);

// ---- workloads ------------------------------------------------------------

void run_sv24(const Config& cfg, Report& report);
void run_batch10(const Config& cfg, Report& report);
void run_dist22(const Config& cfg, Report& report);
void run_serve12(const Config& cfg, Report& report);

}  // namespace perfbench
