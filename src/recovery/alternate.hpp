#pragma once
// Alternate Combination (AC) recovery cost [paper Sec. II-D; Harding &
// Hegland 2013].
//
// The scheme computes two extra layers of coarser sub-grids alongside the
// combination grids.  When grids are lost, new combination coefficients are
// derived for the survivors (the general coefficient problem in
// combination/coefficients.hpp), the survivors are combined with them, and
// each lost grid is recovered by sampling the combined solution — work the
// application does in its combination stage (core/ft_app.cpp).  Unlike CR
// and RC, recovery is only possible at a combination point, which is also
// why its recovery *overhead* is just the coefficient computation (paper
// Fig. 9) modeled here.

#include "combination/index_set.hpp"

namespace ftr::rec {

using ftr::comb::Scheme;

/// The modeled cost of computing the alternate coefficients (the only
/// recovery overhead the paper attributes to AC): a small number of flops
/// per window index.
double ac_coefficient_flops(const Scheme& scheme, int max_depth);

}  // namespace ftr::rec
