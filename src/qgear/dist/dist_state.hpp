// Distributed state-vector engine — the 'nvidia-mgpu' analogue.
//
// With R = 2^r ranks, rank p owns the 2^(n-r) amplitudes whose top r index
// bits equal p: qubits 0..n-r-1 are "local", qubits n-r..n-1 are "global".
// Gates touching only local qubits (or any diagonal gate) run without
// communication; a non-diagonal gate on a global qubit exchanges slab
// data pairwise between the two ranks that differ in that bit — exactly
// the communication schedule the performance model prices at paper scale.
//
// Three mechanisms keep the hot path fast (see docs/DISTRIBUTED.md):
// slab swaps that trade a global index bit for a local one so upcoming
// gates run communication-free (apply_circuit_remapped, planned by
// dist/remap), chunked exchanges that overlap the 2x2 update of chunk k
// with the delivery of chunk k+1, and a ThreadPool threaded through every
// local sweep and exchange update loop.
//
// Tags: every collective gate application uses a fresh sequence number, so
// concurrent slabs in flight can never be mismatched. Op tags live in
// [0, kOpTagLimit); the runner's sampler tags start at kSamplerTagBase so
// the two spaces can never collide. Chunks of one exchange share the
// exchange's tag: per-pair FIFO ordering keeps them in sequence.
#pragma once

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstring>
#include <span>

#include "qgear/comm/comm.hpp"
#include "qgear/common/bits.hpp"
#include "qgear/common/thread_pool.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/dist/remap.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/apply.hpp"
#include "qgear/sim/fused.hpp"
#include "qgear/sim/stats.hpp"

namespace qgear::dist {

/// Payload bytes moved over each interconnect tier by slab exchanges
/// (cached registry references; first call takes the registry mutex).
inline obs::Counter& exchange_tier_counter(comm::Tier t) {
  static obs::Counter& nv =
      obs::Registry::global().counter("dist.exchange.tier_bytes.nvlink");
  static obs::Counter& in =
      obs::Registry::global().counter("dist.exchange.tier_bytes.internode");
  return t == comm::Tier::nvlink ? nv : in;
}

/// Exclusive upper bound of the per-op tag space. DistStateVector::next_tag
/// wraps below this.
inline constexpr int kOpTagLimit = 1 << 28;
/// First tag reserved for the runner's sampling/gather collectives.
inline constexpr int kSamplerTagBase = 1 << 28;
static_assert(kSamplerTagBase >= kOpTagLimit,
              "sampler tags must not overlap op tags");

/// Communication cost of one instruction under this engine's schedule:
/// bytes each participating rank exchanges with its partner. Used by the
/// perfmodel to price paper-scale runs with the *same* schedule the real
/// engine executes. `amp_bytes` = sizeof(std::complex<T>).
std::uint64_t exchange_bytes_for(const qiskit::Instruction& inst,
                                 unsigned num_qubits, unsigned num_local,
                                 std::size_t amp_bytes);

template <typename T>
class DistStateVector {
 public:
  using amp_t = std::complex<T>;

  DistStateVector(unsigned num_qubits, comm::Communicator& comm)
      : num_qubits_(num_qubits),
        comm_(&comm),
        rank_(comm.rank()) {
    QGEAR_CHECK_ARG(is_pow2(static_cast<std::uint64_t>(comm.size())),
                    "dist: rank count must be a power of two");
    global_qubits_ = log2_exact(static_cast<std::uint64_t>(comm.size()));
    QGEAR_CHECK_ARG(num_qubits_ >= global_qubits_ + 1,
                    "dist: need more qubits than log2(ranks)");
    local_qubits_ = num_qubits_ - global_qubits_;
    amps_.assign(pow2(local_qubits_), amp_t(0, 0));
    if (rank_ == 0) amps_[0] = amp_t(1, 0);
  }

  unsigned num_qubits() const { return num_qubits_; }
  unsigned local_qubits() const { return local_qubits_; }
  unsigned global_qubits() const { return global_qubits_; }
  int rank() const { return rank_; }
  std::uint64_t local_size() const { return amps_.size(); }
  const std::vector<amp_t>& local_amps() const { return amps_; }
  std::vector<amp_t>& local_amps() { return amps_; }
  const sim::EngineStats& stats() const { return stats_; }

  /// Worker pool for local sweeps and exchange update loops (not owned;
  /// nullptr = scalar loops). Every rank needs its own pool.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* pool() const { return pool_; }

  /// Splits slab exchanges into chunks of this many amplitudes so the 2x2
  /// update of chunk k overlaps delivery of chunk k+1. 0 = auto: the chunk
  /// size is derived per exchange from the message size and the partner's
  /// interconnect tier (comm::auto_chunk_bytes; small messages go one-shot).
  void set_exchange_chunk_elems(std::uint64_t elems) {
    exchange_chunk_elems_ = elems;
  }
  std::uint64_t exchange_chunk_elems() const { return exchange_chunk_elems_; }

  /// Runs slab exchanges over the fault-tolerant framed protocol when
  /// timeout_s > 0 (receive timeouts, bounded re-sends, DONE handshake).
  /// Also the path the comm_delay/comm_drop fault hooks attach to.
  void set_exchange_resilience(comm::ResilienceOptions res) {
    exchange_resilience_ = res;
  }

  /// Payload bytes this rank sent on slab exchanges over tier `t`.
  std::uint64_t exchange_tier_bytes(comm::Tier t) const {
    return tier_bytes_[static_cast<std::size_t>(t)];
  }

  /// Batched index-bit swap: exchanges local index bit local_phys with
  /// global bit global_phys for every pair at once, in one pass over the
  /// state. The slab splits into 2^k groups by the batch's local bits;
  /// round d > 0 trades group b^d (b = this rank's global-bit pattern over
  /// the batch) with the rank differing in exactly the global bits set in
  /// d, so per-rank traffic is slab*(2^k-1)/2^k — vs k half-slabs for
  /// sequential swaps. Rounds post NVLink-domain peers first; `overlap` is
  /// invoked whenever no chunk is ready and should do one unit of
  /// amplitude-free work, returning false when it has nothing left.
  /// `tag` must be allocated uniformly across ranks.
  void exchange_index_bit_swap(std::span<const SlabSwap> swaps, int tag,
                               const std::function<bool()>& overlap = {});

  /// Physical index-bit position currently holding logical qubit q.
  /// Identity until apply_circuit_remapped installs a plan's final map.
  unsigned physical_qubit(unsigned q) const {
    QGEAR_EXPECTS(q < num_qubits_);
    return l2p_.empty() ? q : l2p_[q];
  }
  /// Final logical→physical map; empty means identity.
  const std::vector<unsigned>& qubit_map() const { return l2p_; }

  /// Value of this rank's global bit for global qubit q (q >= local_qubits).
  unsigned global_bit(unsigned q) const {
    QGEAR_EXPECTS(q >= local_qubits_ && q < num_qubits_);
    return static_cast<unsigned>(rank_ >> (q - local_qubits_)) & 1u;
  }

  /// Applies one instruction; collects measure targets into `measured`.
  void apply(const qiskit::Instruction& inst,
             std::vector<unsigned>* measured = nullptr);

  /// Applies a whole circuit in order, gate by gate.
  void apply_circuit(const qiskit::QuantumCircuit& qc,
                     std::vector<unsigned>* measured = nullptr) {
    QGEAR_CHECK_ARG(qc.num_qubits() == num_qubits_,
                    "dist: circuit qubit count mismatch");
    obs::Span span(obs::Tracer::global(), "dist.apply_circuit", "dist");
    if (span.active()) span.arg("rank", std::uint64_t{unsigned(rank_)});
    WallTimer timer;
    for (const qiskit::Instruction& inst : qc.instructions()) {
      apply(inst, measured);
    }
    stats_.seconds += timer.seconds();
  }

  /// Applies a circuit with gate fusion over local-qubit segments:
  /// maximal runs of unitaries touching only local qubits execute as
  /// fused blocks (one slab sweep each), while instructions involving
  /// global qubits keep the exact per-gate exchange schedule — the same
  /// communication volume as apply_circuit, fewer local sweeps.
  void apply_circuit_fused(const qiskit::QuantumCircuit& qc,
                           unsigned fusion_width,
                           std::vector<unsigned>* measured = nullptr);

  /// Executes a communication-avoiding RemapPlan (see dist/remap.hpp):
  /// slab swaps re-base the layout between segments, each segment's
  /// physical-qubit instructions run under the fusion planner, and logical
  /// swap gates have already been absorbed into the plan's qubit map. The
  /// plan's final logical→physical map is installed so gather() and
  /// physical_qubit() resolve logical indices afterwards. The plan must
  /// come from plan_remap on every rank (it is deterministic), so tag
  /// allocation stays uniform.
  void apply_circuit_remapped(const RemapPlan& plan, unsigned fusion_width,
                              std::vector<unsigned>* measured = nullptr);

  /// Sum of local |amp|^2.
  double local_norm() const {
    double total = 0;
    for (const amp_t& a : amps_) total += std::norm(a);
    return total;
  }

  /// Global norm (collective: every rank must call).
  double norm() { return comm_->allreduce_sum(local_norm()); }

  /// Gathers the full state at `root` (collective), in *logical* qubit
  /// order: when a remapped run left a non-identity qubit map, the root
  /// permutes the physical-layout state through it. Other ranks get {}.
  std::vector<amp_t> gather(int root = 0) {
    const int tag = next_tag();
    if (rank_ != root) {
      comm_->template send_vec<amp_t>(root, tag, amps_);
      return {};
    }
    std::vector<amp_t> full(pow2(num_qubits_));
    std::copy(amps_.begin(), amps_.end(),
              full.begin() + static_cast<std::ptrdiff_t>(
                                 amps_.size() * static_cast<std::uint64_t>(
                                                    rank_)));
    for (int src = 0; src < comm_->size(); ++src) {
      if (src == root) continue;
      const std::vector<amp_t> slab = comm_->template recv_vec<amp_t>(src, tag);
      QGEAR_CHECK_FORMAT(slab.size() == amps_.size(),
                         "dist: gathered slab size mismatch");
      std::copy(slab.begin(), slab.end(),
                full.begin() + static_cast<std::ptrdiff_t>(
                                   amps_.size() *
                                   static_cast<std::uint64_t>(src)));
    }
    if (l2p_.empty()) return full;
    std::vector<amp_t> logical(full.size());
    for (std::uint64_t p = 0; p < full.size(); ++p) {
      std::uint64_t l = 0;
      for (unsigned q = 0; q < num_qubits_; ++q) {
        l |= ((p >> l2p_[q]) & 1u) << q;
      }
      logical[l] = full[p];
    }
    return logical;
  }

 private:
  int next_tag() {
    return static_cast<int>(op_seq_++ %
                            static_cast<std::uint64_t>(kOpTagLimit));
  }

  // The dispatch body of apply(); `tag` must have been allocated
  // uniformly across ranks.
  void apply_with_tag(const qiskit::Instruction& inst, int tag,
                      std::vector<unsigned>* measured);

  void apply_local(const qiskit::Instruction& inst,
                   std::vector<unsigned>* measured) {
    const unsigned sweeps = sim::apply_instruction(
        amps_.data(), local_qubits_, inst, pool_, measured);
    stats_.sweeps += sweeps;
    stats_.amp_ops += sweeps * amps_.size();
  }

  // Runs fn(begin, end) over [0, count), on the pool when one is set.
  void sweep(std::uint64_t count,
             const std::function<void(std::uint64_t, std::uint64_t)>& fn) {
    if (pool_ != nullptr) {
      pool_->parallel_for(0, count, fn);
    } else {
      fn(0, count);
    }
  }

  bool is_local(unsigned q) const { return q < local_qubits_; }

  // Full-slab pairwise exchange + 2x2 update for a non-diagonal 1q gate on
  // a global qubit. `tag` must be allocated uniformly across ranks.
  void exchange_apply_1q(unsigned q, const qiskit::Mat2& gate, int tag);

  // cx/controlled-U with local control, global target: exchanges only the
  // control=1 half of the slab.
  void exchange_apply_controlled_local_control(unsigned control,
                                               unsigned target,
                                               const qiskit::Mat2& gate,
                                               int tag);

  // Chunk size (in amplitudes) for one exchange leg with `partner`:
  // explicit override, or auto-derived from the message size and tier.
  // 0 = one-shot.
  std::uint64_t chunk_elems_for(std::uint64_t msg_elems, int partner) const {
    if (exchange_chunk_elems_ != 0) return exchange_chunk_elems_;
    return comm::auto_chunk_bytes(msg_elems * sizeof(amp_t),
                                  comm_->tier_to(partner)) /
           sizeof(amp_t);
  }

  // Attributes `bytes` sent to `partner` to its interconnect tier.
  void note_tier_bytes(int partner, std::uint64_t bytes) {
    const comm::Tier t = comm_->tier_to(partner);
    tier_bytes_[static_cast<std::size_t>(t)] += bytes;
    exchange_tier_counter(t).add(bytes);
  }

  unsigned num_qubits_;
  unsigned local_qubits_ = 0;
  unsigned global_qubits_ = 0;
  comm::Communicator* comm_;
  int rank_;
  std::vector<amp_t> amps_;
  std::uint64_t op_seq_ = 0;
  std::uint64_t exchange_chunk_elems_ = 0;
  comm::ResilienceOptions exchange_resilience_;
  std::uint64_t tier_bytes_[comm::kNumTiers] = {0, 0};
  ThreadPool* pool_ = nullptr;
  std::vector<unsigned> l2p_;  // empty = identity
  sim::EngineStats stats_;
};

// ---- implementation ----------------------------------------------------

template <typename T>
void DistStateVector<T>::exchange_apply_1q(unsigned q,
                                           const qiskit::Mat2& gate,
                                           int tag) {
  const unsigned gbit = q - local_qubits_;
  const int partner = rank_ ^ (1 << gbit);
  const unsigned my_bit = global_bit(q);
  const auto m = sim::to_precision<T>(gate);
  note_tier_bytes(partner, amps_.size() * sizeof(amp_t));
  comm_->template sendrecv_chunked<amp_t>(
      partner, tag, std::span<const amp_t>(amps_),
      chunk_elems_for(amps_.size(), partner),
      [&](std::uint64_t off, std::span<const amp_t> theirs) {
        obs::Span chunk(obs::Tracer::global(), "dist.exchange_chunk",
                        "dist");
        if (chunk.active()) {
          chunk.arg("offset", off);
          chunk.arg("amps", std::uint64_t{theirs.size()});
        }
        sweep(theirs.size(), [&](std::uint64_t b, std::uint64_t e) {
          if (my_bit == 0) {
            for (std::uint64_t k = b; k < e; ++k) {
              amps_[off + k] = m[0] * amps_[off + k] + m[1] * theirs[k];
            }
          } else {
            for (std::uint64_t k = b; k < e; ++k) {
              amps_[off + k] = m[2] * theirs[k] + m[3] * amps_[off + k];
            }
          }
        });
      });
  ++stats_.sweeps;
  stats_.amp_ops += amps_.size();
}

template <typename T>
void DistStateVector<T>::exchange_apply_controlled_local_control(
    unsigned control, unsigned target, const qiskit::Mat2& gate, int tag) {
  const unsigned gbit = target - local_qubits_;
  const int partner = rank_ ^ (1 << gbit);
  const unsigned my_bit = global_bit(target);
  const std::uint64_t cstride = pow2(control);

  // Gather the control=1 half (local indices with the control bit set).
  const std::uint64_t half = amps_.size() / 2;
  std::vector<amp_t> mine(half);
  sweep(half, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t k = b; k < e; ++k) {
      mine[k] = amps_[insert_zero_bit(k, control) | cstride];
    }
  });
  const auto m = sim::to_precision<T>(gate);
  note_tier_bytes(partner, mine.size() * sizeof(amp_t));
  comm_->template sendrecv_chunked<amp_t>(
      partner, tag, std::span<const amp_t>(mine),
      chunk_elems_for(mine.size(), partner),
      [&](std::uint64_t off, std::span<const amp_t> theirs) {
        obs::Span chunk(obs::Tracer::global(), "dist.exchange_chunk",
                        "dist");
        if (chunk.active()) {
          chunk.arg("offset", off);
          chunk.arg("amps", std::uint64_t{theirs.size()});
        }
        sweep(theirs.size(), [&](std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t k = b; k < e; ++k) {
            const std::uint64_t i =
                insert_zero_bit(off + k, control) | cstride;
            amps_[i] = my_bit == 0
                           ? m[0] * mine[off + k] + m[1] * theirs[k]
                           : m[2] * theirs[k] + m[3] * mine[off + k];
          }
        });
      });
  ++stats_.sweeps;
  stats_.amp_ops += half;
}

template <typename T>
void DistStateVector<T>::exchange_index_bit_swap(
    std::span<const SlabSwap> swaps, int tag,
    const std::function<bool()>& overlap) {
  QGEAR_CHECK_ARG(!swaps.empty(), "dist: empty index-bit-swap batch");
  std::vector<SlabSwap> ps(swaps.begin(), swaps.end());
  std::sort(ps.begin(), ps.end(),
            [](const SlabSwap& a, const SlabSwap& b) {
              return a.local_phys < b.local_phys;
            });
  const unsigned k = static_cast<unsigned>(ps.size());
  QGEAR_CHECK_ARG(k <= local_qubits_ && k <= global_qubits_,
                  "dist: index-bit-swap batch wider than the layout");
  for (unsigned i = 0; i < k; ++i) {
    QGEAR_CHECK_ARG(ps[i].local_phys < local_qubits_ &&
                        ps[i].global_phys >= local_qubits_ &&
                        ps[i].global_phys < num_qubits_,
                    "dist: index-bit-swap pair out of range");
    QGEAR_CHECK_ARG(i == 0 || ps[i].local_phys != ps[i - 1].local_phys,
                    "dist: duplicate local bit in index-bit-swap batch");
    for (unsigned j = 0; j < i; ++j) {
      QGEAR_CHECK_ARG(ps[j].global_phys != ps[i].global_phys,
                      "dist: duplicate global bit in index-bit-swap batch");
    }
  }
  obs::Span span(obs::Tracer::global(), "dist.exchange_batch", "dist");
  if (span.active()) {
    span.arg("rank", std::uint64_t{unsigned(rank_)});
    span.arg("pairs", std::uint64_t{k});
  }

  // b = this rank's global-bit pattern over the batch. Post-swap, the
  // amplitudes in local group v (batch local bits = v) of this rank are
  // the pre-swap group-b amplitudes of the rank whose pattern is v: round
  // d > 0 therefore trades group b^d, element for element, with the rank
  // differing in exactly the global bits set in d. Group b stays put.
  std::uint64_t b = 0;
  for (unsigned i = 0; i < k; ++i) {
    b |= static_cast<std::uint64_t>(global_bit(ps[i].global_phys)) << i;
  }
  const std::uint64_t groups = pow2(k);
  const std::uint64_t group_size = amps_.size() >> k;

  // Local index of element j in group v: insert the bits of v at the
  // batch's local positions (ascending). The planner favors low local
  // slots, so consecutive j walk nearly consecutive idx — the per-group
  // gather/scatter passes below stay cache-friendly.
  auto expand = [&](std::uint64_t j, std::uint64_t v) {
    std::uint64_t idx = j;
    for (unsigned i = 0; i < k; ++i) {
      idx = insert_zero_bit(idx, ps[i].local_phys) |
            (static_cast<std::uint64_t>((v >> i) & 1u) << ps[i].local_phys);
    }
    return idx;
  };

  std::vector<std::vector<amp_t>> bufs(groups);
  std::vector<comm::ExchangeRound> rounds;
  std::vector<std::uint64_t> group_of_round;
  rounds.reserve(groups - 1);
  group_of_round.reserve(groups - 1);
  for (std::uint64_t d = 1; d < groups; ++d) {
    const std::uint64_t v = b ^ d;
    std::vector<amp_t>& buf = bufs[d];
    buf.resize(group_size);
    sweep(group_size, [&](std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t j = lo; j < hi; ++j) buf[j] = amps_[expand(j, v)];
    });
    std::uint64_t gmask = 0;
    for (unsigned i = 0; i < k; ++i) {
      if ((d >> i) & 1u) gmask |= pow2(ps[i].global_phys - local_qubits_);
    }
    rounds.push_back(
        {.peer = rank_ ^ static_cast<int>(gmask),
         .send = {reinterpret_cast<const std::uint8_t*>(buf.data()),
                  buf.size() * sizeof(amp_t)},
         .recv_bytes = group_size * sizeof(amp_t),
         .chunk_bytes = exchange_chunk_elems_ * sizeof(amp_t)});
    group_of_round.push_back(v);
  }

  comm::BatchExchange ex(*comm_, tag, std::move(rounds),
                         exchange_resilience_);
  std::vector<amp_t> scratch;
  const auto consume = [&](std::size_t r, std::uint64_t off_bytes,
                           std::span<const std::uint8_t> payload) {
    QGEAR_CHECK_FORMAT(off_bytes % sizeof(amp_t) == 0 &&
                           payload.size() % sizeof(amp_t) == 0,
                       "dist: exchange chunk not amplitude-aligned");
    obs::Span chunk(obs::Tracer::global(), "dist.exchange_chunk", "dist");
    if (chunk.active()) {
      chunk.arg("offset", off_bytes);
      chunk.arg("amps", std::uint64_t{payload.size() / sizeof(amp_t)});
    }
    const std::uint64_t v = group_of_round[r];
    const std::uint64_t j0 = off_bytes / sizeof(amp_t);
    const std::uint64_t cnt = payload.size() / sizeof(amp_t);
    // Scatter straight from the wire buffer when it is amplitude-aligned
    // (the unframed fast path always is); bounce through scratch only for
    // the framed resilient layout.
    const amp_t* src = nullptr;
    if (reinterpret_cast<std::uintptr_t>(payload.data()) %
            alignof(amp_t) == 0) {
      src = reinterpret_cast<const amp_t*>(payload.data());
    } else {
      scratch.resize(cnt);
      std::memcpy(scratch.data(), payload.data(), payload.size());
      src = scratch.data();
    }
    sweep(cnt, [&](std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t j = lo; j < hi; ++j) {
        amps_[expand(j0 + j, v)] = src[j];
      }
    });
  };
  ex.post();
  while (!ex.done()) {
    if (ex.poll(consume)) continue;
    // Nothing landed: hide amplitude-free work in the exchange tail.
    if (overlap && overlap()) continue;
    ex.wait(consume);
  }
  for (std::size_t t = 0; t < comm::kNumTiers; ++t) {
    const std::uint64_t sent =
        ex.sent_tier_bytes(static_cast<comm::Tier>(t));
    if (sent == 0) continue;
    tier_bytes_[t] += sent;
    exchange_tier_counter(static_cast<comm::Tier>(t)).add(sent);
  }
  ++stats_.sweeps;
  stats_.amp_ops += amps_.size() - group_size;
}

template <typename T>
void DistStateVector<T>::apply(const qiskit::Instruction& inst,
                               std::vector<unsigned>* measured) {
  // Allocated on every rank for every instruction, so matched exchanges
  // always agree on the tag even when only a subset of ranks communicates.
  apply_with_tag(inst, next_tag(), measured);
}

template <typename T>
void DistStateVector<T>::apply_with_tag(const qiskit::Instruction& inst,
                                        int tag,
                                        std::vector<unsigned>* measured) {
  using qiskit::GateKind;
  ++stats_.gates;

  switch (inst.kind) {
    case GateKind::barrier:
      return;
    case GateKind::measure:
      if (measured != nullptr) {
        measured->push_back(static_cast<unsigned>(inst.q0));
      }
      return;

    // Diagonal single-qubit gates never communicate: a global qubit just
    // selects one of the two diagonal factors for the whole slab.
    case GateKind::z:
    case GateKind::s:
    case GateKind::sdg:
    case GateKind::t:
    case GateKind::tdg:
    case GateKind::rz:
    case GateKind::p: {
      const unsigned q = static_cast<unsigned>(inst.q0);
      if (is_local(q)) {
        apply_local(inst, measured);
        return;
      }
      const qiskit::Mat2 g = qiskit::gate_matrix_1q(inst.kind, inst.param);
      const std::complex<T> factor(global_bit(q) ? g[3] : g[0]);
      sweep(amps_.size(), [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) amps_[i] *= factor;
      });
      ++stats_.sweeps;
      stats_.amp_ops += amps_.size();
      return;
    }

    // Diagonal two-qubit gates (cz, cp) are likewise communication-free.
    case GateKind::cz:
    case GateKind::cp: {
      const unsigned c = static_cast<unsigned>(inst.q0);
      const unsigned t = static_cast<unsigned>(inst.q1);
      const std::complex<T> phase(
          qiskit::controlled_target_matrix(inst.kind, inst.param)[3]);
      if (is_local(c) && is_local(t)) {
        apply_local(inst, measured);
        return;
      }
      // Drop the condition on any global bit this rank fails.
      if (!is_local(c) && global_bit(c) == 0) return;
      if (!is_local(t) && global_bit(t) == 0) return;
      std::uint64_t mask = 0;
      if (is_local(c)) mask |= pow2(c);
      if (is_local(t)) mask |= pow2(t);
      sweep(amps_.size(), [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) {
          if ((i & mask) == mask) amps_[i] *= phase;
        }
      });
      ++stats_.sweeps;
      stats_.amp_ops += amps_.size();
      return;
    }

    case GateKind::cx: {
      const unsigned c = static_cast<unsigned>(inst.q0);
      const unsigned t = static_cast<unsigned>(inst.q1);
      const qiskit::Mat2 x = qiskit::gate_matrix_1q(GateKind::x, 0);
      if (is_local(c) && is_local(t)) {
        apply_local(inst, measured);
      } else if (!is_local(c) && is_local(t)) {
        // Global control: ranks with control bit 1 flip the target locally.
        if (global_bit(c) == 1) {
          sim::apply_x(amps_.data(), local_qubits_, t);
          ++stats_.sweeps;
          stats_.amp_ops += amps_.size();
        }
      } else if (is_local(c)) {
        exchange_apply_controlled_local_control(c, t, x, tag);
      } else {
        // Both global: ranks with control bit 1 pair-exchange on target.
        if (global_bit(c) == 1) exchange_apply_1q(t, x, tag);
      }
      return;
    }

    case GateKind::swap: {
      // Swaps beyond the local boundary decompose into three cx, each
      // handled by the cases above.
      const unsigned a = static_cast<unsigned>(inst.q0);
      const unsigned b = static_cast<unsigned>(inst.q1);
      if (is_local(a) && is_local(b)) {
        apply_local(inst, measured);
        return;
      }
      apply({GateKind::cx, inst.q0, inst.q1, 0.0}, measured);
      apply({GateKind::cx, inst.q1, inst.q0, 0.0}, measured);
      apply({GateKind::cx, inst.q0, inst.q1, 0.0}, measured);
      stats_.gates -= 3;  // count the swap once, not as three gates
      return;
    }

    default: {
      // Non-diagonal single-qubit unitaries (h, x, y, rx, ry).
      const unsigned q = static_cast<unsigned>(inst.q0);
      if (is_local(q)) {
        apply_local(inst, measured);
        return;
      }
      exchange_apply_1q(q, qiskit::gate_matrix_1q(inst.kind, inst.param),
                        tag);
      return;
    }
  }
}

template <typename T>
void DistStateVector<T>::apply_circuit_fused(
    const qiskit::QuantumCircuit& qc, unsigned fusion_width,
    std::vector<unsigned>* measured) {
  QGEAR_CHECK_ARG(qc.num_qubits() == num_qubits_,
                  "dist: circuit qubit count mismatch");
  QGEAR_CHECK_ARG(fusion_width >= 1, "dist: fusion width must be >= 1");
  obs::Span span(obs::Tracer::global(), "dist.apply_circuit_fused", "dist");
  if (span.active()) span.arg("rank", std::uint64_t{unsigned(rank_)});
  WallTimer timer;
  const unsigned width = std::min(fusion_width, local_qubits_);

  qiskit::QuantumCircuit segment(local_qubits_, "local_segment");
  auto flush = [&] {
    if (segment.empty()) return;
    const sim::FusionPlan plan =
        sim::plan_fusion(segment, {.max_width = width});
    for (const sim::FusedBlock& block : plan.blocks) {
      sim::apply_fused_block(amps_.data(), local_qubits_, block, pool_);
      switch (block.kernel_class) {
        case sim::KernelClass::diagonal:
          ++stats_.diag_blocks;
          break;
        case sim::KernelClass::permutation:
          ++stats_.perm_blocks;
          break;
        case sim::KernelClass::dense:
          ++stats_.dense_blocks;
          break;
      }
      ++stats_.sweeps;
      ++stats_.fused_blocks;
      stats_.amp_ops += amps_.size();
    }
    stats_.gates += plan.input_gates;
    segment = qiskit::QuantumCircuit(local_qubits_, "local_segment");
  };

  for (const qiskit::Instruction& inst : qc.instructions()) {
    // Tags stay uniform across ranks: one per instruction, always.
    const int tag = next_tag();
    const qiskit::GateInfo& info = qiskit::gate_info(inst.kind);
    const bool local_unitary =
        info.unitary && info.num_qubits >= 1 &&
        static_cast<unsigned>(inst.q0) < local_qubits_ &&
        (info.num_qubits < 2 ||
         static_cast<unsigned>(inst.q1) < local_qubits_);
    if (local_unitary) {
      segment.append(inst);
      continue;
    }
    flush();
    apply_with_tag(inst, tag, measured);
  }
  flush();
  stats_.seconds += timer.seconds();
}

template <typename T>
void DistStateVector<T>::apply_circuit_remapped(
    const RemapPlan& plan, unsigned fusion_width,
    std::vector<unsigned>* measured) {
  QGEAR_CHECK_ARG(plan.num_qubits == num_qubits_,
                  "dist: plan qubit count mismatch");
  QGEAR_CHECK_ARG(plan.num_local == local_qubits_,
                  "dist: plan local qubit count mismatch");
  QGEAR_CHECK_ARG(fusion_width >= 1, "dist: fusion width must be >= 1");
  obs::Span span(obs::Tracer::global(), "dist.apply_circuit_remapped",
                 "dist");
  if (span.active()) {
    span.arg("rank", std::uint64_t{unsigned(rank_)});
    span.arg("slab_swaps", plan.slab_swaps);
  }
  WallTimer timer;
  const unsigned width = std::min(fusion_width, local_qubits_);

  auto run_blocks = [&](const sim::FusionPlan& fplan) {
    for (const sim::FusedBlock& block : fplan.blocks) {
      sim::apply_fused_block(amps_.data(), local_qubits_, block, pool_);
      switch (block.kernel_class) {
        case sim::KernelClass::diagonal:
          ++stats_.diag_blocks;
          break;
        case sim::KernelClass::permutation:
          ++stats_.perm_blocks;
          break;
        case sim::KernelClass::dense:
          ++stats_.dense_blocks;
          break;
      }
      ++stats_.sweeps;
      ++stats_.fused_blocks;
      stats_.amp_ops += amps_.size();
    }
    stats_.gates += fplan.input_gates;
  };

  for (const RemapSegment& seg : plan.segments) {
    // Partition the segment into maximal local-unitary runs (fused) and
    // the non-local instructions between them. A run marker (run >= 0)
    // stands where the run executes; non-local instructions carry inst.
    struct Item {
      int run = -1;
      const qiskit::Instruction* inst = nullptr;
    };
    std::vector<qiskit::QuantumCircuit> runs;
    std::vector<Item> items;
    bool open = false;
    for (const qiskit::Instruction& inst : seg.insts) {
      const qiskit::GateInfo& info = qiskit::gate_info(inst.kind);
      const bool local_unitary =
          info.unitary && info.num_qubits >= 1 &&
          static_cast<unsigned>(inst.q0) < local_qubits_ &&
          (info.num_qubits < 2 ||
           static_cast<unsigned>(inst.q1) < local_qubits_);
      if (local_unitary) {
        if (!open) {
          runs.emplace_back(local_qubits_, "local_segment");
          items.push_back({static_cast<int>(runs.size()) - 1, nullptr});
          open = true;
        }
        runs.back().append(inst);
      } else {
        items.push_back({-1, &inst});
        open = false;
      }
    }

    // Fusion planning is pure compute over the instruction stream (the
    // expensive part is building each block's matrix) and never touches
    // the amplitudes — so it doubles as the overlap work hidden in the
    // exchange tail below.
    std::vector<sim::FusionPlan> fplans(runs.size());
    std::size_t built = 0;
    const auto build_next = [&]() -> bool {
      if (built >= runs.size()) return false;
      fplans[built] = sim::plan_fusion(runs[built], {.max_width = width});
      ++built;
      return true;
    };

    if (!seg.swaps.empty()) {
      // One tag covers the whole batch (allocated on every rank).
      const int tag = next_tag();
      exchange_index_bit_swap(seg.swaps, tag, build_next);
    }
    for (const Item& item : items) {
      if (item.run >= 0) {
        while (built <= static_cast<std::size_t>(item.run)) build_next();
        run_blocks(fplans[item.run]);
        // Tags stay uniform across ranks: one per instruction, always.
        for (std::size_t g = 0; g < runs[item.run].size(); ++g) next_tag();
        continue;
      }
      const int tag = next_tag();
      apply_with_tag(*item.inst, tag, measured);
    }
  }
  l2p_ = plan.logical_to_physical;
  stats_.seconds += timer.seconds();
}

}  // namespace qgear::dist
