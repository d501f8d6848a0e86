// Public entry points for the SoS approximation algorithms (paper Section 3).
#pragma once

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/trace.hpp"
#include "util/rational.hpp"

namespace sharedres::core {

struct SosOptions {
  /// Skip runs of identical steps (O((m+n)·n)); disable to run the listing's
  /// pseudo-polynomial stepwise form. Both produce identical schedules.
  bool fast_forward = true;
  /// Optional per-block instrumentation sink.
  StepObserver* observer = nullptr;
};

/// Listing 1: the 2 + 1/(m−2) approximation for jobs of arbitrary size.
/// Uses (m−1)-maximal windows and reserves the m-th processor for Case-2
/// leftovers. Requires m ≥ 2 (the ratio guarantee of Theorem 3.3 needs
/// m ≥ 3) and one resource; throws util::Error (kInvalidInstance) otherwise.
[[nodiscard]] Schedule schedule_sos(const Instance& instance,
                                    const SosOptions& options = {});

/// The Section-3 unit-size modification: m-maximal windows, the single
/// started job is treated as a job of requirement s_ι(t−1) and virtually
/// reordered. Asymptotic ratio 1 + 1/(m−1); concretely
/// |S| ≤ m/(m−1)·|OPT| + 1. Requires m ≥ 2, all p_j = 1 and one resource;
/// throws util::Error (kInvalidInstance) otherwise.
[[nodiscard]] Schedule schedule_sos_unit(const Instance& instance,
                                         const SosOptions& options = {});

/// Theorem 3.3's ratio 2 + 1/(m−2) as an exact rational (m ≥ 3).
[[nodiscard]] util::Rational sos_ratio_bound(int machines);

/// The unit-size asymptotic ratio m/(m−1) = 1 + 1/(m−1) (m ≥ 2).
[[nodiscard]] util::Rational unit_ratio_bound(int machines);

}  // namespace sharedres::core
