#include "combination/combine.hpp"

#include <cassert>
#include <cmath>

#include "grid/transfer.hpp"

namespace ftr::comb {

Grid2D combine_to(Level target, const std::vector<Component>& parts) {
  Grid2D out(target);
  std::vector<const Grid2D*> grids;
  std::vector<double> coeffs;
  grids.reserve(parts.size());
  coeffs.reserve(parts.size());
  for (const Component& p : parts) {
    assert(p.grid != nullptr);
    grids.push_back(p.grid);
    coeffs.push_back(p.coefficient);
  }
  ftr::grid::transfer_combine(grids.data(), coeffs.data(), grids.size(), out);
  return out;
}

Grid2D combine_full(const Scheme& s, const std::vector<Component>& parts) {
  return combine_to(Level{s.n, s.n}, parts);
}

std::vector<Component> classic_components(const Scheme& s,
                                          const std::vector<const Grid2D*>& grids) {
  const auto levels = s.combination_levels();
  assert(grids.size() == levels.size());
  std::vector<Component> parts;
  parts.reserve(grids.size());
  for (size_t i = 0; i < grids.size(); ++i) {
    parts.push_back(Component{grids[i], classic_coefficient(s, levels[i])});
  }
  return parts;
}

}  // namespace ftr::comb
