#include "core/unit_prefix_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/engine_driver.hpp"
#include "obs/registry.hpp"
#include "util/checked.hpp"

namespace sharedres::core {

namespace {

void ensure(bool cond, const char* msg) {
  if (!cond) {
    throw std::logic_error(std::string("UnitPrefixEngine invariant: ") + msg);
  }
}

}  // namespace

bool UnitPrefixEngine::applies(const Instance& instance) {
  const auto m = static_cast<std::size_t>(instance.machines());
  // Sorted m-window sums only grow from left to right, so once the first
  // window [0, m) reaches C none of them is light at the member cap: the
  // walk's slide case (a light window of m unstarted jobs with more to its
  // right) can never occur.
  return instance.size() <= m ||
         instance.requirement_prefix()[m] >= instance.capacity();
}

UnitPrefixEngine::UnitPrefixEngine(const Instance& instance)
    : reqs_(instance.requirements().data()),
      prefix_(instance.requirement_prefix().data()),
      n_(instance.size()),
      m_(static_cast<std::size_t>(instance.machines())),
      capacity_(instance.capacity()) {
  ensure(instance.unit_size(), "unit-size jobs required");
  ensure(m_ >= 2, "m >= 2 required");
  ensure(applies(instance), "instance outside the prefix regime");
}

void UnitPrefixEngine::plan_into(Step& planned) const {
  planned.reps = 1;
  planned.fractured = q_ > 0;
  planned.solo = false;
  planned.next_c = c_;
  planned.next_q = 0;
  if (q_ >= capacity_ || c_ >= n_) {
    // ι alone: it absorbs the full capacity for ⌊q / C⌋ steps (a solo
    // window when q > C), or it is the last job left and finishes.
    planned.heavy = q_ >= capacity_;
    const Res share = planned.heavy ? capacity_ : q_;
    planned.reps = q_ / share;
    planned.solo = q_ > capacity_;
    planned.next_q = q_ - planned.reps * share;
    planned.shares.assign(1, {iota_, share});
  } else {
    // Window = [ι?] + unstarted jobs from c, at most m members: the smallest
    // end x ∈ (c, hi] with q + Σ_{[c,x)} r_j ≥ C, by binary search over the
    // prefix sums.
    const std::size_t hi = std::min(c_ + m_ - (q_ > 0 ? 1 : 0), n_);
    const Res target = util::add_checked(prefix_[c_], capacity_ - q_);
    const Res* x = std::lower_bound(prefix_ + c_ + 1, prefix_ + hi + 1, target);
    planned.heavy = x != prefix_ + hi + 1;
    const std::size_t end =
        planned.heavy ? static_cast<std::size_t>(x - prefix_) : hi;
    const std::size_t last = end - 1;  // the window maximum
    // The window copy is this engine's whole cost (EXPERIMENTS.md E14).
    // reserve() covers every member, so promising the compiler that the
    // capacity never runs out drops push_back's regrowth path — and the
    // per-element spill it forces — from the loop.
    std::vector<Assignment> shares;
    shares.reserve(end - c_ + 1);
    if (q_ > 0) shares.push_back({iota_, q_});
    const Res* reqs = reqs_;
    for (std::size_t j = c_; j < last; ++j) {
      if (shares.size() == shares.capacity()) __builtin_unreachable();
      shares.push_back({j, reqs[j]});
    }
    Res last_share = reqs_[last];  // light: every member finishes
    if (planned.heavy) {
      const Res others = q_ + (prefix_[last] - prefix_[c_]);
      ensure(others < capacity_, "Property (b) violated by the unit window");
      last_share = capacity_ - others;  // ≤ r_last by minimality of x
      ensure(last_share > 0, "unit window assigns max W a zero share");
      if (q_ == 0 && last == c_) {
        // Solo unstarted job with r_c ≥ C: ⌊r_c / C⌋ full-capacity steps.
        planned.reps = reqs_[last] / capacity_;
        planned.solo = reqs_[last] > capacity_;
        last_share = capacity_;
      }
    }
    shares.push_back({last, last_share});
    planned.shares = std::move(shares);
    planned.next_c = end;
    planned.next_q = reqs_[last] - planned.reps * last_share;
  }
  const JobId carried = planned.shares.back().job;
  planned.next_iota = planned.next_q > 0 ? carried : kNoJob;
}

bool UnitPrefixEngine::apply(const Step& planned, Time /*reps*/) {
  c_ = planned.next_c;
  q_ = planned.next_q;
  iota_ = planned.next_iota;
  return true;
}

void UnitPrefixEngine::record_block(const Step& planned, Time reps) {
  // A light window grants every member but ι its full requirement.
  if (obs::enabled()) {
    stats_.record_block(reps, planned.heavy, /*full_requirement=*/true,
                        planned.solo, planned.fractured);
  }
}

void UnitPrefixEngine::publish_stats() {
  SHAREDRES_OBS_COUNT("engine.unit.prefix_runs");
  stats_.publish();
}

void UnitPrefixEngine::run(Schedule& out) {
  EngineDriver::run(*this, out, /*fast_forward=*/true, /*observer=*/nullptr);
}

}  // namespace sharedres::core
