#include "bench.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <tuple>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "qgear/circuits/qft.hpp"
#include "qgear/sim/isa.hpp"

namespace perfbench {

using qgear::WallTimer;

// ---- Report ---------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = -1;
  }
  metrics_.push_back({name, value, unit});
}

void Report::note(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  notes_.push_back(buf);
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    notes_.push_back("CHECK FAILED: " + what);
  }
  return ok;
}

void Report::print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- statistics -----------------------------------------------------------

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

// Steal and total jiffies of the aggregate "cpu" line of /proc/stat.
std::pair<std::uint64_t, std::uint64_t> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::uint64_t v = 0, steal = 0, total = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

StealMeter::StealMeter() { std::tie(steal_, total_) = cpu_jiffies(); }

double StealMeter::fraction() const {
  const auto [steal, total] = cpu_jiffies();
  return total > total_ ? static_cast<double>(steal - steal_) /
                              static_cast<double>(total - total_)
                        : 0.0;
}

CounterDelta::CounterDelta() {
  for (const auto& c : qgear::obs::Registry::global().snapshot().counters) {
    base_[c.name] = c.value;
  }
}

std::uint64_t CounterDelta::operator()(const std::string& name) const {
  const auto snap = qgear::obs::Registry::global().snapshot();
  const auto* c = snap.find_counter(name);
  if (c == nullptr) return 0;
  const auto it = base_.find(name);
  return c->value - (it == base_.end() ? 0 : it->second);
}

// ---- host probes ----------------------------------------------------------

namespace {

double llc_bytes() {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream level(dir + "/level");
    int lv = 0;
    if (!(level >> lv) || lv != 3) continue;
    std::ifstream size(dir + "/size");
    std::string s;
    if (!(size >> s) || s.empty()) continue;
    double v = std::stod(s);
    if (s.back() == 'K') v *= 1024.0;
    if (s.back() == 'M') v *= 1024.0 * 1024.0;
    return v;
  }
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<double>(v) : 32.0 * 1024 * 1024;
}

// Read-modify-write sweep over `n` floats: 8 bytes moved per element, the
// access pattern of a diagonal amplitude sweep. Each sample repeats the
// sweep `inner` times so small arrays are timed over a useful interval.
double sweep_once(float* a, std::uint64_t n, qgear::ThreadPool& pool,
                  int inner) {
  WallTimer t;
  for (int k = 0; k < inner; ++k) {
    pool.parallel_for(0, n, [a](std::uint64_t b, std::uint64_t e) {
      for (std::uint64_t i = b; i < e; ++i) a[i] = a[i] * 0.999f + 0.001f;
    });
  }
  return 8.0 * static_cast<double>(n) * inner / t.seconds() / 1e9;
}

// Median of enough samples of >= 1 ms to fill `min_seconds` (at least 3).
double sweep_probe(std::uint64_t bytes, qgear::ThreadPool& pool,
                   double min_seconds) {
  const std::uint64_t n = std::max<std::uint64_t>(bytes / sizeof(float), 1024);
  std::unique_ptr<float[]> a(new float[n]);
  pool.parallel_for(0, n, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) a[i] = 1.0f;
  });
  const double one = 8.0 * static_cast<double>(n) / 1e9 /
                     sweep_once(a.get(), n, pool, 1);
  const int inner = std::max(1, static_cast<int>(1e-3 / one));
  const int reps =
      std::clamp(static_cast<int>(min_seconds / (one * inner)), 3, 1000);
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    rates.push_back(sweep_once(a.get(), n, pool, inner));
  }
  return median(rates);
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) float fma_chain(std::uint64_t iters) {
  __m256 acc[10];
  for (int k = 0; k < 10; ++k) acc[k] = _mm256_set1_ps(1.0f + 0.01f * k);
  const __m256 m = _mm256_set1_ps(0.9999f);
  const __m256 c = _mm256_set1_ps(0.0001f);
  for (std::uint64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 10
    for (int k = 0; k < 10; ++k) acc[k] = _mm256_fmadd_ps(acc[k], m, c);
  }
  __m256 s = acc[0];
  for (int k = 1; k < 10; ++k) s = _mm256_add_ps(s, acc[k]);
  float out[8];
  _mm256_storeu_ps(out, s);
  return out[0];
}
constexpr double kFlopsPerIter = 10 * 8 * 2;
#endif

float scalar_chain(std::uint64_t iters) {
  float acc[8];
  for (int k = 0; k < 8; ++k) acc[k] = 1.0f + 0.01f * k;
  for (std::uint64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 8
    for (int k = 0; k < 8; ++k) acc[k] = acc[k] * 0.9999f + 0.0001f;
  }
  return acc[0] + acc[7];
}

double fma_probe(unsigned threads) {
  bool vec = false;
#if defined(__x86_64__)
  vec = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
  const std::uint64_t iters = 20'000'000;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<float> sink(threads);
    std::vector<std::thread> ts;
    WallTimer t;
    for (unsigned i = 0; i < threads; ++i) {
      ts.emplace_back([&, i] {
#if defined(__x86_64__)
        sink[i] = vec ? fma_chain(iters) : scalar_chain(iters);
#else
        sink[i] = scalar_chain(iters);
#endif
      });
    }
    for (auto& th : ts) th.join();
    const double s = t.seconds();
    double flops_per_iter = 8 * 2;
#if defined(__x86_64__)
    if (vec) flops_per_iter = kFlopsPerIter;
#endif
    if (sink[0] == 12345.0f) std::printf("#\n");  // keep the chains live
    rates.push_back(flops_per_iter * iters * threads / s / 1e9);
  }
  return median(rates);
}

double memcpy_probe(std::uint64_t bytes) {
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  std::vector<double> rates;
  WallTimer total;
  while (rates.size() < 3 || total.seconds() < 0.1) {
    WallTimer t;
    std::memcpy(dst.data(), src.data(), bytes);
    rates.push_back(static_cast<double>(bytes) / t.seconds() / 1e9);
    src[rates.size() % bytes] = dst[bytes / 2];
  }
  return median(rates);
}

}  // namespace

HostProbe probe_host(std::uint64_t state_bytes, unsigned threads,
                     std::uint64_t copy_bytes, const StealMeter& measured) {
  HostProbe h;
  h.steal_frac = measured.fraction();
  h.cores = std::max(1u, std::thread::hardware_concurrency());
  h.threads = threads;
  h.isa = qgear::sim::isa_name(qgear::sim::active_isa());
  h.llc_mib = llc_bytes() / (1024.0 * 1024.0);
  qgear::ThreadPool pool(threads);
  h.sweep_mib = static_cast<double>(state_bytes) / (1024.0 * 1024.0);
  h.sweep_gbps = sweep_probe(state_bytes, pool, 0.1);
  const std::uint64_t dram_bytes =
      static_cast<std::uint64_t>(4.0 * llc_bytes());
  h.dram_mib = static_cast<double>(dram_bytes) / (1024.0 * 1024.0);
  h.sweep_gbps_dram = sweep_probe(dram_bytes, pool, 0.0);
  h.fma_gflops = fma_probe(threads);
  h.memcpy_mib = static_cast<double>(copy_bytes) / (1024.0 * 1024.0);
  h.memcpy_gbps = memcpy_probe(copy_bytes);
  return h;
}

void report_host(const HostProbe& h, const Config& cfg, Report& report) {
  report.note("host: isa=%s cores=%u llc=%.0f MiB | sweep %.2f GB/s over "
              "%.3f MiB, %.2f GB/s over %.0f MiB (DRAM, >=4x LLC), %u "
              "threads | fp32 fma %.1f GFLOP/s (%u threads) | memcpy %.2f "
              "GB/s over %.3f MiB (1 thread) | %.2f%% of CPU time stolen "
              "by the hypervisor during the measured passes",
              h.isa.c_str(), h.cores, h.llc_mib, h.sweep_gbps, h.sweep_mib,
              h.sweep_gbps_dram, h.dram_mib, h.threads, h.fma_gflops,
              h.threads, h.memcpy_gbps, h.memcpy_mib, 100 * h.steal_frac);
  if (!cfg.trace) return;
  report.metric("host.sweep_gbps", h.sweep_gbps, "GB/s");
  report.metric("host.sweep_gbps_dram", h.sweep_gbps_dram, "GB/s");
  report.metric("host.fma_gflops", h.fma_gflops, "GFLOP/s");
  report.metric("host.memcpy_gbps", h.memcpy_gbps, "GB/s");
  report.metric("host.llc_mib", h.llc_mib, "MiB");
  report.metric("host.cores", h.cores, "count");
  report.metric("host.steal_frac", h.steal_frac, "frac");
}

// ---- tracing --------------------------------------------------------------

const LayerTimes::Entry& LayerTimes::operator[](const std::string& name) const {
  static const Entry empty;
  const auto it = by_name.find(name);
  return it == by_name.end() ? empty : it->second;
}

namespace {

LayerTimes fold_spans(const std::vector<qgear::obs::SpanRecord>& spans,
                      const std::string& root_name) {
  LayerTimes out;
  std::uint32_t root_tid = 0;
  for (const auto& s : spans) {
    if (s.name == root_name) root_tid = s.tid;
  }
  // Group by thread, order by start then depth, and walk a stack of open
  // spans: each span's parent is the innermost open span one level up.
  std::map<std::uint32_t, std::vector<const qgear::obs::SpanRecord*>> by_tid;
  for (const auto& s : spans) by_tid[s.tid].push_back(&s);
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->start_us != b->start_us ? a->start_us < b->start_us
                                        : a->depth < b->depth;
    });
    std::vector<double> child(list.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < list.size(); ++i) {
      while (!stack.empty() && list[stack.back()]->depth >= list[i]->depth) {
        stack.pop_back();
      }
      if (!stack.empty()) child[stack.back()] += list[i]->dur_us * 1e-6;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      const double dur = list[i]->dur_us * 1e-6;
      const double self = std::max(0.0, dur - child[i]);
      auto& e = out.by_name[list[i]->name];
      ++e.calls;
      e.total_s += dur;
      e.self_s += self;
      if (tid != root_tid) continue;
      (list[i]->name == root_name ? out.root_self_s : out.main_self_s) += self;
    }
  }
  return out;
}

}  // namespace

LayerTimes trace_run(const char* root, const std::function<void()>& body,
                     Report& report,
                     std::vector<qgear::obs::SpanRecord>* spans) {
  qgear::obs::Tracer& tracer = qgear::obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    qgear::obs::Span span(root, "bench");
    body();
  }
  tracer.set_enabled(false);
  report.check(tracer.dropped() == 0,
               std::string(root) + ": the tracer ring buffer dropped spans");
  std::vector<qgear::obs::SpanRecord> recs = tracer.snapshot();
  tracer.clear();
  LayerTimes out = fold_spans(recs, root);
  if (spans != nullptr) *spans = std::move(recs);
  return out;
}

void report_trace(const LayerTimes& t, double untraced_s, double traced_s,
                  Report& report) {
  const double overhead = traced_s - untraced_s;
  report.metric("trace.untraced_s", untraced_s, "s");
  report.metric("trace.traced_s", traced_s, "s");
  report.metric("trace.overhead_s", overhead, "s");
  report.metric("trace.self_sum_s", t.main_self_s, "s");
  report.metric("trace.unattributed_s", t.root_self_s, "s");
  // Layer self times on the driving thread must match the untraced wall
  // time up to the tracing overhead plus 2% unattributed glue.
  const bool accounted = std::abs(untraced_s - t.main_self_s) <=
                         std::abs(overhead) + 0.02 * untraced_s;
  report.note("trace: untraced %.4f s, traced %.4f s (overhead %+.4f s); "
              "layer self times sum to %.4f s, %.4f s unattributed -> %s",
              untraced_s, traced_s, overhead, t.main_self_s, t.root_self_s,
              accounted ? "accounted" : "NOT accounted");
  std::vector<std::pair<std::string, LayerTimes::Entry>> rows(
      t.by_name.begin(), t.by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  report.note("  %-28s %6s %12s %12s", "span", "calls", "total_s", "self_s");
  for (const auto& [name, e] : rows) {
    report.note("  %-28s %6llu %12.6f %12.6f", name.c_str(),
                static_cast<unsigned long long>(e.calls), e.total_s, e.self_s);
  }
}

// ---- kernel ledger --------------------------------------------------------

void KernelLedger::add(const qgear::sim::FusedBlock& block,
                       unsigned num_qubits, std::size_t amp_bytes,
                       double seconds) {
  using qgear::sim::KernelClass;
  const double amps = std::ldexp(1.0, static_cast<int>(num_qubits));
  const std::size_t width = block.qubits.size();
  std::string key;
  double flops_per_amp = 6;  // one complex multiply
  switch (block.kernel_class) {
    case KernelClass::diagonal:
      key = "diagonal";
      break;
    case KernelClass::permutation:
      key = "permutation";
      break;
    case KernelClass::dense:
      key = "dense.w" + std::to_string(width);
      // Row of a 2^w x 2^w complex matvec: 2^w multiply-adds of 8 flops.
      flops_per_amp = 8.0 * std::ldexp(1.0, static_cast<int>(width));
      break;
  }
  Entry& e = entries_[key];
  ++e.calls;
  e.busy_s += seconds;
  e.bytes += 2.0 * amps * static_cast<double>(amp_bytes);
  e.flops += flops_per_amp * amps;
}

std::uint64_t KernelLedger::calls() const {
  std::uint64_t n = 0;
  for (const auto& [key, e] : entries_) n += e.calls;
  return n;
}

void KernelLedger::report(const HostProbe& host, Report& report) const {
  for (const auto& [key, e] : entries_) {
    const std::string p = "sim.kernel." + key;
    const double gbps = e.bytes / e.busy_s / 1e9;
    const double fpb = e.flops / e.bytes;
    const double achieved = e.flops / e.busy_s / 1e9;
    const double roof = std::min(host.fma_gflops, host.sweep_gbps * fpb);
    report.metric(p + ".calls", static_cast<double>(e.calls), "count");
    report.metric(p + ".busy_s", e.busy_s, "s");
    report.metric(p + ".gbps", gbps, "GB/s");
    report.metric(p + ".flop_per_byte", fpb, "flop/B");
    report.metric(p + ".roofline_frac", achieved / roof, "frac");
    report.note("kernel %-12s calls %6llu busy %.4f s | %.2f GB/s, %.3f "
                "flop/B (computed) | %.2f of roofline min(%.1f GFLOP/s, "
                "%.2f GB/s x %.3f)",
                key.c_str(), static_cast<unsigned long long>(e.calls),
                e.busy_s, gbps, fpb, achieved / roof, host.fma_gflops,
                host.sweep_gbps, fpb);
  }
}

// ---- inputs and checks ----------------------------------------------------

qgear::qiskit::QuantumCircuit qft_on_basis_state(unsigned num_qubits,
                                                 qgear::Rng& rng) {
  qgear::qiskit::QuantumCircuit qc(num_qubits, "qft");
  const std::uint64_t x = rng.uniform_u64(std::uint64_t{1} << num_qubits);
  for (unsigned q = 0; q < num_qubits; ++q) {
    if ((x >> q) & 1u) qc.x(static_cast<int>(q));
  }
  qc.compose(qgear::circuits::build_qft(num_qubits));
  qc.measure_all();
  return qc;
}

std::uint64_t shots_in(const qgear::sim::Counts& counts) {
  std::uint64_t n = 0;
  for (const auto& [key, c] : counts) n += c;
  return n;
}

bool marginals_agree(const std::vector<double>& p1,
                     const qgear::sim::Counts& counts, std::uint64_t shots,
                     double slack) {
  std::vector<double> ones(p1.size(), 0.0);
  for (const auto& [key, c] : counts) {
    for (std::size_t q = 0; q < p1.size(); ++q) {
      if ((key >> q) & 1u) ones[q] += static_cast<double>(c);
    }
  }
  for (std::size_t q = 0; q < p1.size(); ++q) {
    const double sampled = ones[q] / static_cast<double>(shots);
    const double sigma =
        std::sqrt(p1[q] * (1 - p1[q]) / static_cast<double>(shots));
    if (std::abs(sampled - p1[q]) > 5 * sigma + slack) return false;
  }
  return true;
}

}  // namespace perfbench
