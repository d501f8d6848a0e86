// The unit-size variant (unit_engine.hpp) in its prefix regime: the serial
// fast-forward engine behind solve_unit_into whenever the selection test
// applies() holds (DESIGN.md §12).
//
// When the m smallest requirements already sum to at least C, every window
// turns heavy within ≤ m members: sorted m-window sums only grow as the
// window moves right, so the walk never has to slide (MoveWindowRight) and
// the engine's whole state collapses to three scalars over the statically
// sorted job array —
//
//   c  the first unstarted index (windows consume a contiguous prefix),
//   q  the key of the started job ι (0 = none),
//   ι  the started job itself.
//
// ι always sits at the *front* of the virtual order: q = r_ρ − max_share <
// r_ρ ≤ r_{ρ+1}, for ρ the previous window's maximum. Each window is then a
// binary search over Instance::requirement_prefix() — the smallest right
// end x with q + Σ_{j∈[c,x)} r_j ≥ C, capped at m members — instead of the
// walk's pointer chase. The emitted schedule and the schedule-describing
// engine.unit.* counters equal UnitEngine::run(out, /*fast_forward=*/true)'s;
// the walk-only counters (walk_hops, iota_resumes, cursor_resumes,
// window_rebuilds) stay 0. UnitEngine remains the reference oracle.
#pragma once

#include <cstddef>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "core/unit_engine.hpp"

namespace sharedres::core {

class UnitPrefixEngine {
 public:
  /// The selection test, O(1): n ≤ m, or the m smallest requirements sum to
  /// at least C. Exactly the unit-size instances the walk runs without a
  /// single slide.
  [[nodiscard]] static bool applies(const Instance& instance);

  /// Requires instance.unit_size(), m ≥ 2 and applies(instance).
  explicit UnitPrefixEngine(const Instance& instance);

  /// Run to completion with fast-forward. Strong exception guarantee for
  /// `out` (EngineDriver); the engine is single-use.
  void run(Schedule& out);

 private:
  /// One planned block and the state it leaves behind.
  struct Step {
    std::vector<Assignment> shares;
    Time reps = 1;
    std::size_t next_c = 0;
    Res next_q = 0;
    JobId next_iota = kNoJob;
    bool heavy = false;
    bool solo = false;       // fast-forwarded solo window
    bool fractured = false;  // ι entered the step
  };

  // ---- EngineDriver hooks (core/engine_driver.hpp) ----
  friend struct EngineDriver;
  static constexpr const char* kStepSite = "unit_engine.step";
  [[nodiscard]] std::size_t block_estimate() const { return n_ / m_ + 1; }
  [[nodiscard]] bool done() const { return c_ >= n_ && q_ == 0; }
  void prepare_step() const {}
  void plan_into(Step& planned) const;
  /// The block length is fixed at plan time (solo windows).
  [[nodiscard]] static Time planned_reps(const Step& planned) {
    return planned.reps;
  }
  bool apply(const Step& planned, Time /*reps*/);
  void record_block(const Step& planned, Time reps);
  void publish_stats();

  const Res* reqs_;
  const Res* prefix_;
  std::size_t n_;
  std::size_t m_;
  Res capacity_;

  std::size_t c_ = 0;
  Res q_ = 0;
  JobId iota_ = kNoJob;
  UnitRunStats stats_;
};

}  // namespace sharedres::core
