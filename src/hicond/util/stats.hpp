// Small statistics helpers used by validation reports and benchmarks.
#pragma once

#include <span>

namespace hicond {

/// p-th percentile (p in [0,100]) by linear interpolation on a copy.
/// Rejects empty input (invalid_argument_error), never reads past the span.
[[nodiscard]] double percentile(std::span<const double> values, double p);

}  // namespace hicond
