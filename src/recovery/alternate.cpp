#include "recovery/alternate.hpp"

namespace ftr::rec {

double ac_coefficient_flops(const Scheme& scheme, int max_depth) {
  // Four membership tests per window index, each a few comparisons against
  // every lost grid; call it ~32 flops per index.  The point the paper
  // makes is that this is *tiny* compared to disk I/O or grid copies.
  long indices = 0;
  for (int d = 0; d <= max_depth + 2; ++d) indices += scheme.layer_size(d);
  return 32.0 * static_cast<double>(indices);
}

}  // namespace ftr::rec
