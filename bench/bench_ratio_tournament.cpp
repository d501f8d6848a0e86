// E17 — empirical-ratio tournament: the improved portfolio against the
// SPAA-2017 window scheduler and the naive baselines, on every generator
// family (random and adversarial) and machine count, plus an exact-optimum
// round at tiny n.
//
// Round 1 (families): for each family × m × seed, all four contenders
// (improved, window, gg, equalsplit) schedule the same instance. Every
// schedule runs through the validator (an infeasible schedule aborts the
// bench), and each cell reports the worst makespan/lower-bound ratio over
// the seeds plus the summed makespans. The tournament's differential gate:
// the improved portfolio's makespan may NEVER exceed the window
// scheduler's on any instance — portfolio domination, the executable form
// of "the improved algorithm's empirical ratio is no worse than
// SPAA-2017's" (hard failure, not a table entry).
//
// Round 2 (exact): tiny coarse-grid instances where exact_makespan
// terminates; ratios are against the true optimum instead of the lower
// bound, which is what "empirical approximation ratio" means when OPT is
// computable.
//
// All ratios are integer parts-per-million (makespan·10^6 / bound,
// truncated): the simulation is exact integer arithmetic over seeded PRNG
// draws, so every reported figure is a pure function of the configuration.
// The same figures are exported as DETERMINISTIC gauges
// (tournament.<family>.m<M>.<algo>.* and tournament.exact.<algo>.*). CI
// runs this bench at SHAREDRES_THREADS 1/2/8 and requires the deterministic
// blocks to be exactly equal (scripts/check_bench_regression.py
// --equal-across), then compares against the checked-in baseline — the
// ratio table in EXPERIMENTS.md E17 is this bench's output.
//
// The shape to expect: improved == window on most uniform/pareto cells
// (the balanced engine ties and the portfolio keeps its schedule), with
// the balanced engine pulling ahead on bimodal and oversized cells where
// a fractured absorber keeps the residue draining while the window
// engine serializes. gg ignores the shared resource and lands well above;
// equalsplit pays for naive fair sharing on nearboundary.
//
// Usage: bench_ratio_tournament [--jobs=N] [--seeds=K] [--capacity=C]
//                               [--reps=R] [--csv] [--json-dir=DIR]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algorithms/table.hpp"
#include "core/instance.hpp"
#include "core/lower_bounds.hpp"
#include "core/validator.hpp"
#include "exact/exact_sos.hpp"
#include "harness.hpp"
#include "obs/registry.hpp"
#include "util/checked.hpp"
#include "util/table.hpp"
#include "workloads/sos_generators.hpp"

namespace {

using namespace sharedres;

/// The four contenders in report order, each a row of the algorithm table.
const core::Algorithm* const kContenders[] = {
    &algorithms::require("improved"),
    &algorithms::require("window"),
    &algorithms::require("gg"),
    &algorithms::require("equalsplit"),
};

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "bench_ratio_tournament: %s\n", what.c_str());
  std::exit(1);
}

/// makespan·10^6 / bound, truncated — exact integer arithmetic.
std::int64_t ratio_ppm(core::Time makespan, core::Time bound) {
  if (bound <= 0) die("nonpositive bound in ratio");
  return util::mul_checked(static_cast<std::int64_t>(makespan),
                           std::int64_t{1'000'000}) /
         static_cast<std::int64_t>(bound);
}

std::string ppm_str(std::int64_t ppm) {
  return util::fixed(static_cast<double>(ppm) / 1e6, 4);
}

/// Validated makespan of `contender` on `inst`; aborts on any violation.
core::Time contest(const core::Algorithm* contender,
                   const core::Instance& inst, const std::string& cell) {
  core::EngineScratch scratch;
  core::Schedule sched;
  core::solve(*contender, inst, scratch, sched);
  const auto check = core::validate(inst, sched);
  if (!check.ok) {
    die(cell + "/" + std::string(contender->name) +
        ": infeasible schedule: " + check.error);
  }
  return sched.makespan();
}

/// Worst ratio and summed makespan for one contender over a seed sweep.
struct CellScore {
  std::int64_t worst_ppm = 0;
  core::Time makespan_sum = 0;

  void absorb(core::Time makespan, core::Time bound) {
    worst_ppm = std::max(worst_ppm, ratio_ppm(makespan, bound));
    makespan_sum = util::add_checked(makespan_sum, makespan);
  }
};

void publish(const std::string& prefix, const CellScore& score) {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge(prefix + ".worst_ratio_ppm").set(score.worst_ppm);
  reg.gauge(prefix + ".makespan_sum").set(score.makespan_sum);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sharedres;
  const util::Cli cli(argc, argv);
  bench::Harness h(cli, "bench_ratio_tournament",
                   "E17 ratio tournament: improved portfolio vs window "
                   "scheduler vs baselines, worst ratio to LB/OPT");
  const auto jobs = static_cast<std::size_t>(cli.get_int("jobs", 48));
  const auto seeds = static_cast<std::uint64_t>(cli.get_int("seeds", 3));
  const auto capacity = static_cast<core::Res>(cli.get_int("capacity", 720));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 1));
  const int machine_counts[] = {4, 8, 16};
  constexpr std::size_t kAlgos = std::size(kContenders);

  util::Table table({"family", "m", "algo", "worst ratio", "sum makespan"});
  for (const std::string& family : workloads::instance_families()) {
    // One timed label per family (the m × seed sweep inside), so the
    // baseline's invocation check keys on the family list alone.
    h.measure(family, reps, [&] {
      for (const int machines : machine_counts) {
        CellScore scores[kAlgos];
        for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
          workloads::SosConfig cfg;
          cfg.machines = machines;
          cfg.capacity = capacity;
          cfg.jobs = jobs;
          cfg.max_size = 3;
          cfg.seed = seed;
          const core::Instance inst = workloads::make_instance(family, cfg);
          const core::Time bound = core::lower_bounds(inst).combined();
          const std::string cell =
              family + "/m" + std::to_string(machines) + "/seed" +
              std::to_string(seed);
          core::Time makespans[kAlgos];
          for (std::size_t a = 0; a < kAlgos; ++a) {
            makespans[a] = contest(kContenders[a], inst, cell);
            scores[a].absorb(makespans[a], bound);
          }
          // The tournament's hard differential gate (file comment).
          if (makespans[0] > makespans[1]) {
            die(cell + ": improved makespan " +
                std::to_string(makespans[0]) + " exceeds window " +
                std::to_string(makespans[1]));
          }
        }
        for (std::size_t a = 0; a < kAlgos; ++a) {
          table.add(family, machines, std::string(kContenders[a]->name),
                    ppm_str(scores[a].worst_ppm), scores[a].makespan_sum);
          publish("tournament." + family + ".m" + std::to_string(machines) +
                      "." + std::string(kContenders[a]->name),
                  scores[a]);
        }
      }
    }, static_cast<double>(jobs * seeds * std::size(machine_counts)));
  }

  // Round 2: exact optimum at tiny n (coarse grid keeps the state space
  // enumerable). Ratios are against OPT itself.
  util::Table exact_table({"algo", "worst ratio vs OPT", "sum makespan",
                           "sum OPT"});
  CellScore exact_scores[kAlgos];
  core::Time opt_sum = 0;
  h.measure("exact", reps, [&] {
    for (CellScore& s : exact_scores) s = CellScore{};
    opt_sum = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const core::Instance inst =
          workloads::tiny_grid_instance(3, 6, 6, 2, seed);
      const auto opt = exact::exact_makespan(inst);
      if (!opt) die("exact_makespan exceeded its state budget at tiny n");
      opt_sum = util::add_checked(opt_sum, *opt);
      const std::string cell = "exact/seed" + std::to_string(seed);
      core::Time makespans[kAlgos];
      for (std::size_t a = 0; a < kAlgos; ++a) {
        makespans[a] = contest(kContenders[a], inst, cell);
        if (makespans[a] < *opt) {
          die(cell + "/" + std::string(kContenders[a]->name) +
              ": makespan below the exact optimum");
        }
        exact_scores[a].absorb(makespans[a], *opt);
      }
      if (makespans[0] > makespans[1]) {
        die(cell + ": improved makespan exceeds window at tiny n");
      }
    }
  }, static_cast<double>(seeds));
  for (std::size_t a = 0; a < kAlgos; ++a) {
    exact_table.add(std::string(kContenders[a]->name),
                    ppm_str(exact_scores[a].worst_ppm),
                    exact_scores[a].makespan_sum, opt_sum);
    publish("tournament.exact." + std::string(kContenders[a]->name),
            exact_scores[a]);
  }

  h.section(
      "E17  Ratio tournament: worst makespan/LB ratio per family x m "
      "(seeds pooled)");
  h.table(table);
  h.section("E17  Exact round: worst makespan/OPT ratio at tiny n");
  h.table(exact_table);
  return h.finish();
}
