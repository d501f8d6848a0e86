// The algorithm table (DESIGN.md §17): one row per scheduler the CLI, the
// batch worker and the service can run. A name is resolved here once, at
// the front door; everything downstream holds the row. Adding a scheduler
// means adding a row.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "core/algorithm.hpp"

namespace sharedres::algorithms {

/// Every row, in the order usage strings list them.
[[nodiscard]] std::span<const core::Algorithm* const> all();

/// The row named `name`, or nullptr.
[[nodiscard]] const core::Algorithm* find(std::string_view name);

/// The row named `name`; throws util::Error::cli (flag "algorithm")
/// otherwise.
[[nodiscard]] const core::Algorithm& require(std::string_view name);

/// Every row name joined by '|', for usage strings.
[[nodiscard]] std::string names();

}  // namespace sharedres::algorithms
