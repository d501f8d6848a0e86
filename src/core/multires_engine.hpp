// The rigid d-resource scheduling engine behind `schedule_multires`
// (DESIGN.md §16; model after Maack/Pukrop/Rau, arXiv 2210.01523).
//
// Each job j needs r_{j,k} units of every resource axis k while it runs.
// This engine schedules RIGIDLY: a running job always receives exactly its
// primary requirement r_{j,0} per step (full rate), so it occupies exactly
// r_{j,k} of every axis and finishes after exactly p_j steps. Rigid grants
// make the d-dimensional feasibility question per step a pure packing
// predicate — Σ r_{j,k} ≤ C_k on every axis plus |running| ≤ m — which is
// what the exact search (src/exact/exact_multires) enumerates, so the greedy
// engine and its oracle optimize over the same schedule space.
//
// Admission is first-fit in ascending primary-requirement order (the window
// scheduler's sweep direction, generalized to a d-dimensional fit check):
// every step, unstarted jobs are scanned in instance order and admitted
// while they fit on all axes and a machine is free. Running jobs are never
// throttled, so grants only change on a finish or an admission — the same
// property SosEngine's fast-forward exploits — and runs of identical steps
// compress into single blocks. Stepwise execution produces identical
// schedules.
//
// The step split mirrors SosEngine/ImprovedEngine so the same tests drive
// all three engines:
//
//   prepare_step()  — first-fit admissions over the unstarted list.
//   plan()          — full-rate shares as a pure function of state.
//   apply()         — execute the planned step once (or `reps` times).
//
// Every admission predicate compares per-axis resource against per-axis
// capacity with no cross-axis mixing, so decisions are invariant under
// independent uniform scaling of each axis — the property the canonical
// solve cache's per-axis gcd normalization (src/cache) relies on.
//
// Jobs with r_{j,k} > C_k on any axis can never run at full rate; the
// facade (multires_scheduler.hpp) rejects them with a typed error before
// the engine is constructed, and reset() enforces the invariant.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "util/align.hpp"

namespace sharedres::core {

/// One planned time step: full-rate shares in ascending job-id order (the
/// canonical instance order).
struct MultiResStep {
  std::vector<Assignment> shares;
};

class MultiResEngine {
 public:
  struct Params {
    std::size_t machine_cap = 0;  ///< m: processors, bounds |running set|
  };

  MultiResEngine(const Instance& instance, Params params);

  /// Rebind to a new instance, reusing all internal buffers (allocation-free
  /// once grown — the batch pipeline's steady-state path). The instance must
  /// stay alive for the engine's lifetime.
  void reset(const Instance& instance, Params params);

  [[nodiscard]] bool done() const { return remaining_jobs_ == 0; }
  [[nodiscard]] Time now() const { return now_; }

  /// Admissions for the next step. Call once per time step, before plan().
  void prepare_step();

  /// The step's resource assignment as a pure function of the prepared state.
  [[nodiscard]] MultiResStep plan() const;

  /// As plan(), but reuses `out`'s share vector (the run() hot path).
  void plan_into(MultiResStep& out) const;

  /// Apply `planned` for `reps` consecutive steps. Requires that no job would
  /// finish strictly before step `reps` (violating it throws). Returns true
  /// iff some job finished in the final step.
  bool apply(const MultiResStep& planned, Time reps);

  /// Run to completion, appending blocks to `out`. Strong exception
  /// guarantee for `out`: if a step throws, `out` is rolled back to its
  /// state at entry; the engine itself is then in an unspecified
  /// (destroy-only) state.
  void run(Schedule& out, bool fast_forward = true);

  // ---- introspection (tests, instrumentation) ----

  [[nodiscard]] const Instance& instance() const { return *inst_; }
  /// Remaining full-rate steps of job j (p_j at start, 0 when finished).
  [[nodiscard]] Time remaining_steps(JobId j) const { return rem_steps_[j]; }
  [[nodiscard]] bool finished(JobId j) const { return rem_steps_[j] == 0; }
  [[nodiscard]] const std::vector<JobId>& running() const { return active_; }
  /// Σ r_{j,k} over the running set for axis k.
  [[nodiscard]] Res used(std::size_t axis) const { return used_[axis]; }

 private:
  /// True iff job j fits beside the current running set on every axis.
  [[nodiscard]] bool fits(JobId j) const;
  void admit(JobId j);
  void finish_job(JobId j);

  // ---- EngineDriver hooks (core/engine_driver.hpp) ----
  friend struct EngineDriver;
  using Step = MultiResStep;
  static constexpr const char* kStepSite = "multires_engine.step";
  [[nodiscard]] std::size_t block_estimate() const {
    return remaining_jobs_ + 1;
  }
  [[nodiscard]] static bool may_repeat(const MultiResStep&) { return true; }
  [[nodiscard]] Time steps_until_change(const MultiResStep& again) const;
  void record_block(const MultiResStep& planned, Time reps);
  void publish_stats();

  /// Deterministic run statistics (metric catalog: DESIGN.md §9), flushed to
  /// obs::Registry once per completed run() — same discipline as SosEngine.
  struct alignas(util::kCacheLineSize) RunStats {
    std::uint64_t blocks = 0;
    std::uint64_t steps = 0;
    std::uint64_t fast_forward_steps = 0;
    std::uint64_t admissions = 0;
    std::uint64_t saturated_steps = 0;     ///< some axis used to capacity
    std::uint64_t machine_full_steps = 0;  ///< |running| == machine_cap
    std::uint64_t drain_steps = 0;         ///< steps with no unstarted jobs
  };

  const Instance* inst_ = nullptr;
  Params params_;
  std::size_t axes_ = 1;

  std::vector<Time> rem_steps_;  // remaining full-rate steps; 0 = finished
  std::vector<JobId> active_;    // running set, ascending job id, |·| ≤ m
  std::vector<Res> used_;        // per-axis Σ r_{j,k} over active_, size d

  // Intrusive doubly-linked list over the unstarted jobs in ascending id
  // order (= ascending primary requirement): O(1) removal on admission, and
  // the first-fit sweep visits survivors only.
  std::vector<JobId> next_unstarted_;
  std::vector<JobId> prev_unstarted_;
  JobId head_unstarted_ = kNoJob;
  std::size_t unstarted_ = 0;

  std::size_t remaining_jobs_ = 0;
  Time now_ = 0;  // completed time steps

  std::vector<JobId> finished_scratch_;  // apply()'s batched finish list
  RunStats stats_;
};

}  // namespace sharedres::core
