#include "src/core/mining_params.h"

#include <cstdint>
#include <limits>

#include "src/prob/karp_luby.h"

namespace pfci {

std::string ValidateParams(const MiningParams& params) {
  if (params.min_sup < 1) {
    return "min_sup must be >= 1";
  }
  // Negated comparisons so NaN falls into the error branch.
  if (!(params.pfct >= 0.0 && params.pfct < 1.0)) {
    return "pfct must lie in [0, 1): the comparison PrFC(X) > pfct is "
           "strict, so pfct = 1 would make every result set empty";
  }
  if (!(params.epsilon > 0.0)) {
    return "epsilon must be > 0";
  }
  if (!(params.delta > 0.0 && params.delta < 1.0)) {
    return "delta must lie in (0, 1)";
  }
  if (KarpLubyRequiredSamples(1, params.epsilon, params.delta) ==
      std::numeric_limits<std::uint64_t>::max()) {
    return "epsilon is too small: the ApproxFCP sample count "
           "ceil(4 ln(2/delta) / epsilon^2) exceeds 2^64 even for one "
           "extension event";
  }
  return "";
}

}  // namespace pfci
