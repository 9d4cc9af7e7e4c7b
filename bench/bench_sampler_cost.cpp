// Shot sampling cost — sim::sample_counts over state size x shots.
//
// Every engine run the paper times ends by drawing shots from the final
// state (Fig. 4a/4c/5: 10^4 shots; QCrank in Table 2: up to 98M). This
// times the draw alone on a seeded non-uniform fp32 state, serially (no
// pool). For the largest state it also reports how far the peak resident
// set has grown over the state alone after each shot count: the
// sampler's own allocations at that size, the outcome map included.
//
//   bench_sampler_cost [--repeats N]     (default 5; median and IQR)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/sim/sampler.hpp"

using namespace qgear;

namespace {

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

sim::StateVector<float> rough_state(unsigned qubits, std::uint64_t seed) {
  sim::StateVector<float> state(qubits);
  Rng rng(seed);
  double norm = 0;
  for (std::uint64_t i = 0; i < state.size(); ++i) {
    state[i] = std::complex<float>(static_cast<float>(rng.normal()),
                                   static_cast<float>(rng.normal()));
    norm += std::norm(std::complex<double>(state[i]));
  }
  const float scale = static_cast<float>(1 / std::sqrt(norm));
  for (std::uint64_t i = 0; i < state.size(); ++i) state[i] *= scale;
  return state;
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace

int main(int argc, char** argv) {
  int repeats = 5;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--repeats") == 0) {
      repeats = std::max(1, std::atoi(argv[i + 1]));
    }
  }
  bench::heading("Shot sampling cost: sample_counts, fp32, one thread");
  bench::Table table({"qubits", "shots", "median s", "IQR s", "outcomes",
                      "peak RSS growth MiB"});
  // Largest state first, so its peak-RSS growth is not hidden under an
  // earlier case's high-water mark.
  for (const unsigned qubits : {23u, 16u, 12u, 10u}) {
    const sim::StateVector<float> state = rough_state(qubits, 1000 + qubits);
    const double rss_before = peak_rss_mib();
    for (const std::uint64_t shots : {std::uint64_t{1000},
                                      std::uint64_t{10000},
                                      std::uint64_t{1000000}}) {
      std::vector<double> seconds;
      std::size_t outcomes = 0;
      for (int r = 0; r < repeats; ++r) {
        Rng rng(static_cast<std::uint64_t>(r) + 1);
        WallTimer timer;
        const sim::Counts counts = sim::sample_counts(state, {}, shots, rng);
        seconds.push_back(timer.seconds());
        outcomes = counts.size();
      }
      table.row({std::to_string(qubits), std::to_string(shots),
                 strfmt("%.5f", quantile(seconds, 0.5)),
                 strfmt("%.5f", quantile(seconds, 0.75) -
                                    quantile(seconds, 0.25)),
                 std::to_string(outcomes),
                 qubits == 23 ? strfmt("%.1f", peak_rss_mib() - rss_before)
                              : std::string("-")});
    }
  }
  table.print();
  std::printf("the 23-qubit state itself holds 64.0 MiB\n");
  return 0;
}
