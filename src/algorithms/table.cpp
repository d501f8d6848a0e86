#include "algorithms/table.hpp"

#include "baselines/baselines.hpp"
#include "util/error.hpp"

namespace sharedres::algorithms {

namespace {

using core::EngineScratch;
using core::Instance;
using core::Schedule;

const core::Algorithm kGareyGraham{
    .name = "gg",
    .solve_into = [](const Instance& inst, EngineScratch&, Schedule& out) {
      out = baselines::schedule_garey_graham(inst);
    },
};

const core::Algorithm kEqualSplit{
    .name = "equalsplit",
    .solve_into = [](const Instance& inst, EngineScratch&, Schedule& out) {
      out = baselines::schedule_equal_split(inst);
    },
};

const core::Algorithm kSequential{
    .name = "sequential",
    .multi_resource = true,
    .solve_into = [](const Instance& inst, EngineScratch&, Schedule& out) {
      out = baselines::schedule_sequential(inst);
    },
};

constexpr const core::Algorithm* kTable[] = {
    &core::kWindowAlgorithm, &core::kUnitAlgorithm,
    &core::kImprovedAlgorithm, &kGareyGraham,
    &kEqualSplit,              &kSequential,
    &core::kMultiResAlgorithm,
};

}  // namespace

std::span<const core::Algorithm* const> all() { return kTable; }

const core::Algorithm* find(std::string_view name) {
  for (const core::Algorithm* row : kTable) {
    if (row->name == name) return row;
  }
  return nullptr;
}

const core::Algorithm& require(std::string_view name) {
  if (const core::Algorithm* row = find(name)) return *row;
  throw util::Error::cli("algorithm",
                         "unknown algorithm '" + std::string(name) + "'");
}

std::string names() {
  std::string out;
  for (const core::Algorithm* row : kTable) {
    if (!out.empty()) out += '|';
    out += row->name;
  }
  return out;
}

}  // namespace sharedres::algorithms
