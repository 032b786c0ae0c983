#include "advection/lax_wendroff.hpp"
#include "common/annotations.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace ftr::advection {

using ftr::grid::Grid2D;
using ftr::grid::LocalField;

namespace {

/// Persistent per-thread sweep scratch.  Every simulated MPI rank is a
/// dedicated thread, so thread_local gives each rank private buffers without
/// locking; capacity persists across steps, so the hot path stops allocating
/// after the first step on a given grid size.
std::vector<double>& sweep_scratch(int which, std::size_t n) {
  FTR_PER_RANK("per-rank sweep scratch rows; fold into a ProcessState scratch arena when ranks become fibers")
  thread_local std::vector<double> rows[3];
  auto& r = rows[which];
  // ftlint:allow(FTL003 warm-up growth of persistent thread_local scratch)
  if (r.size() < n) r.resize(n);
  return r;
}

/// The one Lax-Wendroff kernel every sweep runs: out[i] = lw_update(west[i],
/// center[i], east[i]) for i in [0, n).  `out` must not overlap any input
/// (the inputs may overlap each other: they are only read), so the loop
/// carries no dependence and `omp simd` vectorizes it even under -O2's
/// cost model.  Each lane evaluates the same IEEE expression as the scalar
/// lw_update, so the result is bit-identical to a scalar loop.
FTR_HOT void lw_row(double* __restrict out, const double* __restrict west,
                    const double* __restrict center, const double* __restrict east, int n,
                    double c) {
#pragma omp simd
  for (int i = 0; i < n; ++i) out[i] = lw_update(west[i], center[i], east[i], c);
}

}  // namespace

FTR_HOT void sweep_x(LocalField& f, double courant_x) {
  // The update at lx needs the *old* values at lx-1, lx, lx+1: copy the row
  // with both halos into scratch and write the kernel's output over the row.
  const auto& b = f.block();
  const int w = b.width();
  const int h = b.height();
  auto& old = sweep_scratch(0, static_cast<std::size_t>(w) + 2);
  for (int ly = 0; ly < h; ++ly) {
    double* row = &f.at(0, ly);
    std::copy_n(row - 1, w + 2, old.begin());
    lw_row(row, old.data(), old.data() + 1, old.data() + 2, w, courant_x);
  }
}

FTR_HOT void sweep_y(LocalField& f, double courant_y) {
  // Row-major traversal with two carried row buffers: `south_old` holds row
  // ly-1 as it was before its update, and `center_old` snapshots row ly
  // before the kernel overwrites it; the north neighbor row ly+1 is still
  // untouched and is read in place.
  const auto& b = f.block();
  const int w = b.width();
  const int h = b.height();
  const std::size_t wn = static_cast<std::size_t>(w);
  auto& south_old = sweep_scratch(0, wn);
  auto& center_old = sweep_scratch(1, wn);
  std::copy_n(&f.at(0, -1), w, south_old.begin());
  for (int ly = 0; ly < h; ++ly) {
    double* row = &f.at(0, ly);
    std::copy_n(row, w, center_old.begin());
    lw_row(row, south_old.data(), center_old.data(), &f.at(0, ly + 1), w, courant_y);
    std::swap(south_old, center_old);
  }
}

FTR_HOT void sweep_x_serial(Grid2D& g, double courant_x) {
  // Periodic ring: the scratch row is [old n-1 | old 0 .. n-1 | old 0], so
  // the kernel sees the wrapped west/east neighbors at both ends.
  const int n = g.nx() - 1;  // unique points
  auto& old = sweep_scratch(0, static_cast<std::size_t>(n) + 2);
  for (int iy = 0; iy < g.ny() - 1; ++iy) {
    double* row = &g.at(0, iy);
    old.front() = row[n - 1];
    std::copy_n(row, n, old.begin() + 1);
    old[static_cast<std::size_t>(n) + 1] = row[0];
    lw_row(row, old.data(), old.data() + 1, old.data() + 2, n, courant_x);
  }
  g.enforce_periodicity();
}

FTR_HOT void sweep_y_serial(Grid2D& g, double courant_y) {
  // Row-major with periodic wrap: like sweep_y, plus a saved copy of old
  // row 0 (already updated by the time row n-1 needs it as north neighbor).
  // Row n-1 is updated last, so south_old starts as a copy of it.
  const int n = g.ny() - 1;  // unique rows
  const int w = g.nx() - 1;  // unique points per row
  const std::size_t wn = static_cast<std::size_t>(w);
  auto& south_old = sweep_scratch(0, wn);
  auto& center_old = sweep_scratch(1, wn);
  auto& row0_old = sweep_scratch(2, wn);
  std::copy_n(&g.at(0, 0), w, row0_old.begin());
  std::copy_n(&g.at(0, n - 1), w, south_old.begin());
  for (int iy = 0; iy < n; ++iy) {
    double* row = &g.at(0, iy);
    std::copy_n(row, w, center_old.begin());
    const double* north = (iy + 1 == n) ? row0_old.data() : &g.at(0, iy + 1);
    lw_row(row, south_old.data(), center_old.data(), north, w, courant_y);
    std::swap(south_old, center_old);
  }
  g.enforce_periodicity();
}

}  // namespace ftr::advection
