// The core half of the algorithm table (DESIGN.md §17): the row type, the
// one precondition check, and the four engine-backed rows. Their solve
// bodies live once, in algorithm.cpp, which also holds the core::schedule_*
// facades that run them with a throwaway EngineScratch. The table listing
// every row, baselines included, is algorithms/table.hpp.
#pragma once

#include <optional>
#include <string_view>

#include "core/improved_engine.hpp"
#include "core/instance.hpp"
#include "core/multires_engine.hpp"
#include "core/schedule.hpp"
#include "core/sos_engine.hpp"
#include "core/unit_engine.hpp"
#include "util/rational.hpp"

namespace sharedres::core {

/// Reusable engines for the solve bodies: each is constructed on first use
/// and rebound with reset() afterwards, so a caller that keeps one
/// EngineScratch (a batch worker) recycles every engine buffer.
struct EngineScratch {
  std::optional<SosEngine> sos;
  std::optional<UnitEngine> unit;
  std::optional<ImprovedEngine> improved;
  std::optional<MultiResEngine> multires;
  Schedule alt;  ///< runner-up of the improved portfolio
};

/// One row of the algorithm table.
struct Algorithm {
  std::string_view name;
  int min_machines = 1;
  bool unit_only = false;  ///< requires p_j = 1 for every job
  /// Accepts d > 1 resources, rigidly: every job then needs r_{j,k} ≤ C_k on
  /// every axis k so it can run at full rate.
  bool multi_resource = false;
  /// Proven worst-case ratio to OPT on m machines; nullptr when none is.
  util::Rational (*ratio_bound)(int machines) = nullptr;
  /// Appends the schedule to `out`; preconditions are already checked.
  void (*solve_into)(const Instance& inst, EngineScratch& scratch,
                     Schedule& out) = nullptr;
};

/// Throws util::Error (kInvalidInstance) when `inst` violates `algo`'s
/// preconditions: machine count, unit sizes, resource count, rigid fit.
void check_preconditions(const Algorithm& algo, const Instance& inst);

/// Reset `out`, check_preconditions, then run `algo` into `out`.
void solve(const Algorithm& algo, const Instance& inst, EngineScratch& scratch,
           Schedule& out);

extern const Algorithm kWindowAlgorithm;    ///< Listing 1 (schedule_sos)
extern const Algorithm kUnitAlgorithm;      ///< schedule_sos_unit
extern const Algorithm kImprovedAlgorithm;  ///< schedule_improved
extern const Algorithm kMultiResAlgorithm;  ///< schedule_multires

}  // namespace sharedres::core
