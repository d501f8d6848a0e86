// The unit-size variant of the sliding-window algorithm (paper Section 3,
// discussion below Theorem 3.3).
//
// With p_j = 1 for all jobs, s_j = r_j and at most one job is ever started
// but unfinished. That job ι is treated as a job of requirement s_ι(t−1) and
// virtually reordered among the remaining jobs; windows may then use all m
// processors (m-maximal instead of (m−1)-maximal), which improves the
// asymptotic ratio from 1 + 2/(m−2) to 1 + 1/(m−1).
//
// The engine keeps the unfinished jobs in a doubly-linked list sorted by
// *current* requirement (r_j for unstarted jobs, s_ι(t−1) for ι) and rebuilds
// the window around ι every step: all window jobs except the rightmost finish
// within the step, the rightmost becomes the new ι.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "core/window_hint.hpp"
#include "util/align.hpp"

namespace sharedres::core {

/// Deterministic run statistics of the unit-size variant, mirroring
/// SosEngine::RunStats under the engine.unit prefix (metric catalog:
/// DESIGN.md §9). Shared by the walk (UnitEngine) and the prefix-regime
/// engine (unit_prefix_engine.hpp), which leaves the four walk-only fields
/// at 0. Plain fields keep the hot paths free of atomic registry traffic;
/// publish() flushes them once per completed run.
struct alignas(util::kCacheLineSize) UnitRunStats {
  std::uint64_t iota_resumes = 0;     // walk only
  std::uint64_t cursor_resumes = 0;   // walk only
  std::uint64_t window_rebuilds = 0;  // walk only
  std::uint64_t walk_hops = 0;        // walk only
  std::uint64_t blocks = 0;
  std::uint64_t steps = 0;
  std::uint64_t case1_steps = 0;
  std::uint64_t case2_steps = 0;
  std::uint64_t full_requirement_steps = 0;
  std::uint64_t fast_forward_steps = 0;
  std::uint64_t fast_forward_blocks = 0;
  std::uint64_t fractured_handoffs = 0;

  /// One block of `reps` identical steps. `full_requirement`: at most one
  /// window member falls short of its static requirement (counted for
  /// light steps only); `solo`: a fast-forwarded solo window; `fractured`:
  /// a started job ι entered the step.
  void record_block(Time reps, bool heavy, bool full_requirement, bool solo,
                    bool fractured);
  /// Flush to the engine.unit.* counters and zero every field.
  void publish();
};

class UnitEngine {
 public:
  /// Requires instance.unit_size() and m ≥ 2.
  explicit UnitEngine(const Instance& instance);

  /// Rebind the engine to a new instance, reusing all internal buffers
  /// (key array, linked list, next-alive DSU). Equivalent to constructing a
  /// fresh engine, but allocation-free once the buffers have grown to the
  /// largest instance seen — the batch pipeline's steady-state path. The
  /// instance must stay alive for the engine's lifetime.
  void reset(const Instance& instance);

  [[nodiscard]] bool done() const { return remaining_jobs_ == 0; }
  [[nodiscard]] Time now() const { return now_; }

  /// Execute one time step; returns the emitted StepInfo.
  StepInfo step();

  /// Run to completion. fast_forward collapses the long solo runs of a
  /// single high-requirement job into one block and resumes the walk after
  /// a full completion at the previous restart's right end
  /// (core/window_hint.hpp); stepwise runs and step() keep the literal
  /// walk. Strong exception guarantee for `out`: if a step throws, `out` is
  /// rolled back to its state at entry; the engine itself is then in an
  /// unspecified (destroy-only) state.
  void run(Schedule& out, bool fast_forward = true,
           StepObserver* observer = nullptr);

  // ---- introspection for tests ----
  [[nodiscard]] Res remaining(JobId j) const { return rem_[j]; }
  /// Unfinished jobs in current virtual order (sorted by current key).
  [[nodiscard]] std::vector<JobId> virtual_order() const;
  /// The single started-but-unfinished job, or kNoJob.
  [[nodiscard]] JobId started_job() const { return iota_; }

 private:
  /// One planned block: the window and the shares it hands out, in window
  /// order (every member but wr finishes within the step).
  struct Step {
    std::vector<Assignment> shares;
    JobId wl = kNoJob, wr = kNoJob;  // window bounds in the virtual list
    std::size_t wsize = 0;
    Res wkey = 0;                    // Σ current keys over the window
    Res max_share = 0;               // share granted to wr
    JobId fractured = kNoJob;        // ι entering the step, if any
    bool solo = false;               // fast-forwarded solo window
  };

  [[nodiscard]] Res key(JobId j) const { return rem_[j]; }
  /// Fills `plan`'s window bounds, key sum and max share.
  void build_window(Step& plan) const;

  // ---- EngineDriver hooks (core/engine_driver.hpp) ----
  friend struct EngineDriver;
  static constexpr const char* kStepSite = "unit_engine.step";
  [[nodiscard]] std::size_t block_estimate() const {
    return remaining_jobs_ / m_ + 1;
  }
  /// The unit window is rebuilt around ι while planning; nothing to prepare.
  void prepare_step() const {}
  void plan_into(Step& planned) const;
  [[nodiscard]] StepInfo make_info(const Step& planned, Time first_step) const;
  /// The fast-forward: a solo window whose job absorbs the whole capacity
  /// repeats identically until the job's remainder drops below C.
  [[nodiscard]] Time planned_reps(Step& planned);
  bool apply(const Step& planned, Time reps);
  void record_block(const Step& planned, Time reps);
  void publish_stats();
  void unlink(JobId j);
  void finish(JobId j);
  void reposition_started(JobId j);

  const Instance* inst_;
  const Res* reqs_ = nullptr;  // inst_->requirements().data() (SoA hot lane)
  std::size_t m_;
  Res capacity_;

  std::vector<Res> rem_;  // current key; 0 = finished. Unstarted: r_j.
  std::vector<JobId> next_, prev_;
  JobId head_, tail_;
  JobId iota_ = kNoJob;
  /// Resume point for the window walk after a full window completion: the
  /// list node just left of the window that finished. Every m-window entirely
  /// left of it has requirement < C (each was examined — and slid past — by
  /// an earlier walk, and keys only shrink), so GrowWindowLeft from here
  /// rebuilds exactly the window a restart-from-head walk would slide to.
  /// It is the stepwise walk's resume point; fast-forward runs seed the
  /// window from hint_ instead, which skips the light windows right of the
  /// cursor too (DESIGN.md §4).
  JobId cursor_ = kNoJob;
  /// Right end of the last window planned without ι (a restart).
  JobId hint_ = 0;
  bool hinted_ = false;  ///< seed restarts from hint_ (fast-forward runs)
  /// Next-alive index over the static sorted job array; lets
  /// reposition_started() find its insertion point by binary search over
  /// requirements instead of a list walk, which is quadratic overall for
  /// small m, and locates hint_'s window.
  NextAlive alive_;

  std::size_t remaining_jobs_ = 0;
  Time now_ = 0;

  /// Deterministic run statistics (UnitRunStats). Mutable because the const
  /// window walk (build_window) classifies its own resume mode.
  mutable UnitRunStats stats_;
};

}  // namespace sharedres::core
