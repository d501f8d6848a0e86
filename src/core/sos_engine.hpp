// The sliding-window scheduling engine (paper Listings 1 and 2).
//
// The engine maintains the unfinished jobs (sorted by requirement) in a
// doubly-linked list and a window W as a contiguous segment of that list.
// Each time step is split into two phases that tests can drive separately:
//
//   prepare_step()  — Listing 1 lines 2–5: drop finished jobs from W, then
//                     GrowWindowLeft / GrowWindowRight / MoveWindowRight.
//                     Afterwards W is (by Lemma 3.7) a k-maximal window.
//   plan()          — Listing 1 lines 7–20: the resource assignment for the
//                     step, as a pure function of the current state.
//   apply()         — execute the planned step once (or `reps` times when the
//                     caller has established that the plan repeats).
//
// run() executes the whole schedule with the fast-forward optimization from
// the proof of Theorem 3.3 (skip runs of identical steps), giving the stated
// O((m+n)·n) running time. Fast-forward runs also resume an empty-window
// restart at the previous restart's right end (core/window_hint.hpp).
// Stepwise execution (fast_forward = false) and step() keep the literal
// walk from the head and are the pseudo-polynomial reference; both produce
// identical schedules.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "core/window.hpp"
#include "core/window_hint.hpp"
#include "util/align.hpp"

namespace sharedres::core {

/// One planned time step: the shares to hand out, plus the bookkeeping the
/// analysis cares about. `shares` lists window members in window order; when
/// `extra_job` is true the final entry is min R_t(W), started on the reserved
/// processor by Listing 1's Case-2 leftover rule.
struct PlannedStep {
  std::vector<Assignment> shares;
  bool extra_job = false;
  StepCase step_case = StepCase::kLight;
  std::optional<JobId> fractured;  ///< ι entering this step, if any
};

class SosEngine {
 public:
  struct Params {
    std::size_t window_cap = 0;  ///< k: m−1 for Listing 1
    Res budget = 0;              ///< R: the capacity C for Section 3
    bool allow_extra_job = true; ///< Case-2 leftover may start min R_t(W)

    // Ablation switches (experiment E6): disabling an ingredient of the
    // window maintenance still yields feasible schedules, but the affected
    // maximality property — and with it part of the ratio guarantee — is
    // lost. Production callers leave these on.
    bool grow_left = true;    ///< run GrowWindowLeft (Property (e))
    bool move_right = true;   ///< run MoveWindowRight (Property (f))
    /// With the ablation switches off, the paper's window invariants (c)/(f)
    /// can genuinely break (e.g. two fractured jobs coexist). strict = false
    /// tolerates that: the leftmost fractured job plays ι, everyone else is
    /// capped at min(r_j, remaining). Production callers keep strict = true,
    /// which turns any invariant breach into a logic_error.
    bool strict = true;
  };

  SosEngine(const Instance& instance, Params params);

  /// Rebind the engine to a new instance, reusing all internal buffers
  /// (remaining-work array, linked list, scratch vectors). Equivalent to
  /// constructing a fresh engine, but allocation-free once the buffers have
  /// grown to the largest instance seen — the batch pipeline's steady-state
  /// path. The instance must stay alive for the engine's lifetime.
  void reset(const Instance& instance, Params params);

  [[nodiscard]] bool done() const { return remaining_jobs_ == 0; }
  [[nodiscard]] Time now() const { return now_; }

  /// Listing 1 lines 2–5. Call once per time step, before plan().
  void prepare_step();

  /// Listing 1 lines 7–20 as a pure function of the prepared state.
  [[nodiscard]] PlannedStep plan() const;

  /// As plan(), but reuses `out`'s share vector instead of allocating a new
  /// one — the hot-path form used by run(), which recycles two scratch
  /// PlannedSteps across all apply(reps) repetitions of the block loop.
  void plan_into(PlannedStep& out) const;

  /// Apply `planned` for `reps` consecutive steps. Requires that no job would
  /// finish strictly before step `reps` (callers establish this; violating it
  /// throws). Returns true iff some job finished in the final step.
  bool apply(const PlannedStep& planned, Time reps);

  /// prepare + plan + apply(1); returns the emitted StepInfo.
  StepInfo step();

  /// Run to completion, appending blocks to `out` and notifying `observer`
  /// (may be null). With fast_forward, runs of identical steps are emitted as
  /// single blocks. Strong exception guarantee for `out`: if a step throws,
  /// `out` is rolled back to its state at entry; the engine itself is then in
  /// an unspecified (destroy-only) state.
  void run(Schedule& out, bool fast_forward = true,
           StepObserver* observer = nullptr);

  // ---- introspection (tests, instrumentation) ----

  [[nodiscard]] const Instance& instance() const { return *inst_; }
  [[nodiscard]] Res remaining(JobId j) const { return rem_[j]; }
  [[nodiscard]] bool finished(JobId j) const { return rem_[j] == 0; }
  [[nodiscard]] std::vector<JobId> window_members() const;
  /// Snapshot suitable for check_k_maximal().
  [[nodiscard]] WindowSnapshot snapshot() const;
  [[nodiscard]] bool window_left_border() const;
  [[nodiscard]] bool window_right_border() const;
  [[nodiscard]] std::size_t window_size() const { return wsize_; }
  [[nodiscard]] Res window_requirement() const { return wreq_; }

 private:
  // Hot-path job attributes through the Instance's SoA views: one 8-byte
  // contiguous lane per attribute instead of a strided Job-struct load.
  [[nodiscard]] Res req(JobId j) const { return reqs_[j]; }
  [[nodiscard]] bool started(JobId j) const { return rem_[j] != totals_[j]; }
  [[nodiscard]] JobId find_fractured() const;
  void add_right(JobId j);
  void finish_job(JobId j);
  StepInfo make_info(const PlannedStep& planned, Time first_step) const;

  // ---- EngineDriver hooks (core/engine_driver.hpp) ----
  friend struct EngineDriver;
  using Step = PlannedStep;
  static constexpr const char* kStepSite = "sos_engine.step";
  [[nodiscard]] std::size_t block_estimate() const {
    return remaining_jobs_ / (params_.window_cap + 1) + 1;
  }
  /// The Case-2 extra job changes the window, so its step never repeats.
  [[nodiscard]] static bool may_repeat(const PlannedStep& planned) {
    return !planned.extra_job;
  }
  [[nodiscard]] Time steps_until_change(const PlannedStep& again) const;
  void record_block(const PlannedStep& planned, Time reps);
  void publish_stats();

  /// Deterministic run statistics (metric catalog: DESIGN.md §9). The hot
  /// loop accumulates into these plain fields — a register add per event, no
  /// atomics, no registry lookups — and publish_stats() flushes the totals to
  /// obs::Registry once per completed run(), keeping the per-block cost of
  /// instrumentation at noise level. Runs that throw publish nothing (their
  /// schedule is rolled back too).
  /// Cache-line aligned so that engines owned by different batch workers
  /// (one per WorkerScratch slot) never fold their per-run accumulators onto
  /// a shared line — the same false-sharing discipline as util::WorkerPool.
  struct alignas(util::kCacheLineSize) RunStats {
    std::uint64_t window_hops = 0;
    std::uint64_t blocks = 0;
    std::uint64_t steps = 0;
    std::uint64_t case1_steps = 0;
    std::uint64_t case2_steps = 0;
    std::uint64_t full_requirement_steps = 0;
    std::uint64_t fast_forward_steps = 0;
    std::uint64_t fractured_handoffs = 0;
    std::uint64_t extra_job_starts = 0;
  };

  const Instance* inst_;
  const Res* reqs_ = nullptr;    // inst_->requirements().data()
  const Res* totals_ = nullptr;  // inst_->total_requirements().data()
  Params params_;

  std::vector<Res> rem_;       // s_j(t−1); 0 = finished
  std::vector<JobId> next_;    // linked list over unfinished jobs + sentinels
  std::vector<JobId> prev_;
  JobId head_;                 // sentinel before the first unfinished job
  JobId tail_;                 // sentinel after the last unfinished job

  JobId wl_ = kNoJob;          // window bounds; kNoJob = empty window
  JobId wr_ = kNoJob;
  std::size_t wsize_ = 0;      // |W|
  Res wreq_ = 0;               // r(W)

  std::size_t remaining_jobs_ = 0;
  Time now_ = 0;               // completed time steps

  NextAlive alive_;            // next unfinished job in static order
  JobId hint_ = 0;             // right end of the last empty-window restart
  /// Seed empty-window restarts from hint_: fast-forward runs with the
  /// production Params only (the E6 ablations keep the literal walk).
  bool hinted_ = false;

  std::vector<JobId> finished_scratch_;  // apply()'s batched finish list
  RunStats stats_;
};

}  // namespace sharedres::core
