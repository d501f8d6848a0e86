// The balanced-admission scheduling engine behind `schedule_improved`
// (DESIGN.md §15; after Damerius–Kling–Schneider, arXiv 2310.05732).
//
// Where the SPAA-2017 sliding window sweeps jobs in ascending requirement
// order, this engine *balances* resource-intensive and resource-frugal jobs
// within each step: it keeps a running set of at most m jobs in which every
// job but one receives exactly its requirement per step (so it runs at full
// speed and its remaining work stays a multiple of r_j), and at most one
// designated ABSORBER job soaks up whatever capacity the full-rate jobs
// leave unused. Admission is largest-fit-first — the most resource-hungry
// unstarted job that still fits at full rate enters first, and when nothing
// fits fully but slack remains, the largest unstarted job is admitted as the
// new absorber. Big jobs therefore start early (helping the longest-job
// bound) while small jobs backfill the residual capacity (helping the
// resource bound) — the "sharing is caring" trade the improved paper makes.
//
// The step split mirrors SosEngine so the same tests can drive both:
//
//   prepare_step()  — admissions: largest-fit-first full-rate entries, then
//                     possibly one absorber.
//   plan()          — the resource assignment as a pure function of state.
//   apply()         — execute the planned step once (or `reps` times).
//
// run() uses the same fast-forward block compression as SosEngine: grants
// only change on a finish or an admission, so runs of identical steps are
// emitted as single blocks. Stepwise execution produces identical schedules.
//
// Every admission predicate compares homogeneous resource quantities with
// the right strictness (never `x <= C - 1`), so decisions are invariant
// under uniform scaling of (C, r_1..r_n) — the property the canonical solve
// cache (src/cache) relies on to serve decanonicalized twins.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "util/align.hpp"

namespace sharedres::core {

/// One planned time step of the balanced engine: shares in ascending job-id
/// order (the canonical instance order). `absorber` names the slack-absorbing
/// member, if any — every other listed job receives exactly its requirement.
struct BalancedStep {
  std::vector<Assignment> shares;
  JobId absorber = kNoJob;
};

class ImprovedEngine {
 public:
  struct Params {
    std::size_t machine_cap = 0;  ///< m: processors, bounds |running set|
    Res budget = 0;               ///< C: the shared resource capacity
  };

  ImprovedEngine(const Instance& instance, Params params);

  /// Rebind to a new instance, reusing all internal buffers (allocation-free
  /// once grown — the batch pipeline's steady-state path). The instance must
  /// stay alive for the engine's lifetime.
  void reset(const Instance& instance, Params params);

  [[nodiscard]] bool done() const { return remaining_jobs_ == 0; }
  [[nodiscard]] Time now() const { return now_; }

  /// Admissions for the next step. Call once per time step, before plan().
  void prepare_step();

  /// The step's resource assignment as a pure function of the prepared state.
  [[nodiscard]] BalancedStep plan() const;

  /// As plan(), but reuses `out`'s share vector (the run() hot path).
  void plan_into(BalancedStep& out) const;

  /// Apply `planned` for `reps` consecutive steps. Requires that no job would
  /// finish strictly before step `reps` (violating it throws). Returns true
  /// iff some job finished in the final step.
  bool apply(const BalancedStep& planned, Time reps);

  /// Run to completion, appending blocks to `out` and notifying `observer`
  /// (may be null). Strong exception guarantee for `out`: if a step throws,
  /// `out` is rolled back to its state at entry; the engine itself is then
  /// in an unspecified (destroy-only) state.
  void run(Schedule& out, bool fast_forward = true,
           StepObserver* observer = nullptr);

  // ---- introspection (tests, instrumentation) ----

  [[nodiscard]] const Instance& instance() const { return *inst_; }
  [[nodiscard]] Res remaining(JobId j) const { return rem_[j]; }
  [[nodiscard]] bool finished(JobId j) const { return rem_[j] == 0; }
  [[nodiscard]] const std::vector<JobId>& running() const { return active_; }
  [[nodiscard]] JobId absorber() const { return absorber_; }
  /// Σ r_j over the running set minus the absorber — the capacity committed
  /// to full-rate jobs. The absorber's grant is budget − this (capped).
  [[nodiscard]] Res committed_requirement() const { return core_req_; }

 private:
  [[nodiscard]] Res req(JobId j) const { return reqs_[j]; }
  /// Largest unstarted job with id < pos (ids are sorted by ascending
  /// requirement, so this is "largest requirement below a threshold").
  /// Returns kNoJob if none. Path-halving union-find over positions; jobs
  /// only ever leave the unstarted set, so the structure is monotone.
  [[nodiscard]] JobId largest_unstarted_below(std::size_t pos);
  void admit(JobId j, bool as_absorber);
  void finish_job(JobId j);
  StepInfo make_info(const BalancedStep& planned, Time first_step) const;

  // ---- EngineDriver hooks (core/engine_driver.hpp) ----
  friend struct EngineDriver;
  using Step = BalancedStep;
  static constexpr const char* kStepSite = "improved_engine.step";
  [[nodiscard]] std::size_t block_estimate() const {
    return remaining_jobs_ + 1;
  }
  [[nodiscard]] static bool may_repeat(const BalancedStep&) { return true; }
  [[nodiscard]] Time steps_until_change(const BalancedStep& again) const;
  void record_block(const BalancedStep& planned, Time reps);
  void publish_stats();

  /// Deterministic run statistics (metric catalog: DESIGN.md §9), flushed to
  /// obs::Registry once per completed run() — same discipline as SosEngine.
  struct alignas(util::kCacheLineSize) RunStats {
    std::uint64_t blocks = 0;
    std::uint64_t steps = 0;
    std::uint64_t fast_forward_steps = 0;
    std::uint64_t saturated_steps = 0;     ///< Σ shares == budget
    std::uint64_t machine_full_steps = 0;  ///< |running| == machine_cap
    std::uint64_t core_admissions = 0;     ///< full-rate admissions
    std::uint64_t absorber_admissions = 0; ///< slack-absorber admissions
    std::uint64_t drain_steps = 0;         ///< steps with no unstarted jobs
  };

  const Instance* inst_ = nullptr;
  const Res* reqs_ = nullptr;    // inst_->requirements().data()
  const Res* totals_ = nullptr;  // inst_->total_requirements().data()
  Params params_;

  std::vector<Res> rem_;         // s_j(t−1); 0 = finished
  std::vector<JobId> active_;    // running set, ascending job id, |·| ≤ m
  JobId absorber_ = kNoJob;      // the slack absorber, if running
  Res core_req_ = 0;             // Σ r_j over active_ ∖ {absorber_}

  // Union-find "largest unstarted at or left of position": link_[p] for
  // 1-based position p (job p−1); link_[p] == p means job p−1 is unstarted,
  // link_[0] == 0 is the "none" sentinel.
  std::vector<std::size_t> link_;
  std::size_t unstarted_ = 0;    // #unstarted jobs

  std::size_t remaining_jobs_ = 0;
  Time now_ = 0;                 // completed time steps

  std::vector<JobId> finished_scratch_;  // apply()'s batched finish list
  RunStats stats_;
};

}  // namespace sharedres::core
