#pragma once
// Evaluation of combined solutions: u^c = sum_k c_k I(u_k) on a target grid.
//
// The parallel application gathers each sub-grid at its group root and ships
// it to the global root (the paper's gather-scatter approach); this module
// provides the serial combination kernels the root then applies, plus
// convenience entry points used by tests and the error study (Fig. 10).

#include <vector>

#include "combination/coefficients.hpp"
#include "combination/index_set.hpp"
#include "grid/grid2d.hpp"

namespace ftr::comb {

using ftr::grid::Grid2D;

/// One weighted component of a combination.
struct Component {
  const Grid2D* grid = nullptr;
  double coefficient = 0.0;
};

/// Evaluate sum_k c_k I(u_k) at the points of a grid of level `target`.
Grid2D combine_to(Level target, const std::vector<Component>& parts);

/// Combine onto the full isotropic grid (n, n) of the scheme.
Grid2D combine_full(const Scheme& s, const std::vector<Component>& parts);

/// Classic-combination convenience: solve-free weighting of the given grids
/// (which must be the scheme's combination_levels() in order).
std::vector<Component> classic_components(const Scheme& s,
                                          const std::vector<const Grid2D*>& grids);

}  // namespace ftr::comb
