// Validated environment-variable parsing for the XLDS_* tuning knobs.
//
// XLDS_THREADS only ever changes wall-clock behaviour, never
// results — but a typo'd value silently falling back to a default is still a
// trap: the user believes they pinned the pool width and the run quietly
// used every core.  These helpers accept exactly the values
// the docs name, and reject everything else with a one-line stderr warning
// naming the variable, the offending value and the fallback actually used.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

namespace xlds::util {

/// Strict positive-count parse: the whole string must be a base-10 integer
/// >= 1 (no sign, no whitespace, no trailing junk, no overflow).
std::optional<std::size_t> parse_positive_count(const std::string& text);

/// Read environment variable `name` as a positive count.  Unset -> fallback
/// silently; set but unparseable -> one-line stderr warning, then fallback.
std::size_t env_positive_count(const char* name, std::size_t fallback);

}  // namespace xlds::util
