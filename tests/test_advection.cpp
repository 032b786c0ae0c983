// Tests for the advection solver: exactness properties of the Lax-Wendroff
// update, bitwise agreement of the vectorized sweeps with scalar reference
// loops, serial convergence, and parallel-vs-serial agreement.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "advection/parallel_solver.hpp"
#include "advection/serial_solver.hpp"
#include "ftmpi/api.hpp"

using namespace ftr::advection;
using ftr::grid::Block;
using ftr::grid::Grid2D;
using ftr::grid::Level;
using ftr::grid::LocalField;

TEST(LaxWendroff, UpdatePreservesConstants) {
  EXPECT_DOUBLE_EQ(lw_update(3.0, 3.0, 3.0, 0.7), 3.0);
}

TEST(LaxWendroff, UnitCourantShifts) {
  // With c = 1 the scheme is exact: u_i^{n+1} = u_{i-1}^n.
  EXPECT_DOUBLE_EQ(lw_update(1.0, 2.0, 5.0, 1.0), 1.0);
  // With c = -1 it shifts the other way.
  EXPECT_DOUBLE_EQ(lw_update(1.0, 2.0, 5.0, -1.0), 5.0);
}

namespace {

// Scalar reference sweeps: one lw_update per point, in place, with the old
// neighbor values carried in scalars and row buffers.

void ref_sweep_x(LocalField& f, double c) {
  const int w = f.block().width();
  for (int ly = 0; ly < f.block().height(); ++ly) {
    double west = f.at(-1, ly);
    for (int lx = 0; lx < w; ++lx) {
      const double center = f.at(lx, ly);
      f.at(lx, ly) = lw_update(west, center, f.at(lx + 1, ly), c);
      west = center;
    }
  }
}

void ref_sweep_y(LocalField& f, double c) {
  const int w = f.block().width();
  std::vector<double> south_old(static_cast<std::size_t>(w));
  std::vector<double> center_old(static_cast<std::size_t>(w));
  for (int lx = 0; lx < w; ++lx) south_old[static_cast<std::size_t>(lx)] = f.at(lx, -1);
  for (int ly = 0; ly < f.block().height(); ++ly) {
    for (int lx = 0; lx < w; ++lx) center_old[static_cast<std::size_t>(lx)] = f.at(lx, ly);
    for (int lx = 0; lx < w; ++lx) {
      f.at(lx, ly) = lw_update(south_old[static_cast<std::size_t>(lx)],
                               center_old[static_cast<std::size_t>(lx)], f.at(lx, ly + 1), c);
    }
    std::swap(south_old, center_old);
  }
}

void ref_sweep_x_serial(Grid2D& g, double c) {
  const int n = g.nx() - 1;
  for (int iy = 0; iy < g.ny() - 1; ++iy) {
    const double first_old = g.at(0, iy);
    double west = g.at(n - 1, iy);
    for (int ix = 0; ix < n; ++ix) {
      const double center = g.at(ix, iy);
      const double east = (ix + 1 < n) ? g.at(ix + 1, iy) : first_old;
      g.at(ix, iy) = lw_update(west, center, east, c);
      west = center;
    }
  }
  g.enforce_periodicity();
}

void ref_sweep_y_serial(Grid2D& g, double c) {
  const int n = g.ny() - 1;
  const int w = g.nx() - 1;
  std::vector<double> south_old(static_cast<std::size_t>(w));
  std::vector<double> center_old(static_cast<std::size_t>(w));
  std::vector<double> row0_old(static_cast<std::size_t>(w));
  for (int ix = 0; ix < w; ++ix) row0_old[static_cast<std::size_t>(ix)] = g.at(ix, 0);
  for (int ix = 0; ix < w; ++ix) south_old[static_cast<std::size_t>(ix)] = g.at(ix, n - 1);
  for (int iy = 0; iy < n; ++iy) {
    for (int ix = 0; ix < w; ++ix) center_old[static_cast<std::size_t>(ix)] = g.at(ix, iy);
    for (int ix = 0; ix < w; ++ix) {
      const double north = (iy + 1 == n) ? row0_old[static_cast<std::size_t>(ix)] : g.at(ix, iy + 1);
      g.at(ix, iy) = lw_update(south_old[static_cast<std::size_t>(ix)],
                               center_old[static_cast<std::size_t>(ix)], north, c);
    }
    std::swap(south_old, center_old);
  }
  g.enforce_periodicity();
}

/// Deterministic values with full mantissas, so any reordered or
/// contracted arithmetic in a sweep shows up as a bit difference.
void fill_noise(std::vector<double>& v, std::uint64_t seed) {
  for (double& x : v) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    x = static_cast<double>(seed >> 11) * 0x1.0p-53 - 0.5;
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

TEST(LwKernel, LocalSweepsMatchScalarReferenceBitwise) {
  // Widths and heights cover 1-wide blocks, the SIMD remainder (odd and
  // non-multiple-of-4 widths) and multi-vector rows.  The halo ring holds
  // noise too, so a sweep that ignored or misplaced a halo would differ.
  const double c = 0.37;
  for (int w : {1, 2, 3, 5, 17, 33}) {
    for (int h : {1, 2, 3, 5, 17, 33}) {
      LocalField f(Block{0, w, 0, h});
      fill_noise(f.raw(), static_cast<std::uint64_t>(w * 100 + h));
      LocalField ref = f;
      sweep_x(f, c);
      ref_sweep_x(ref, c);
      EXPECT_TRUE(same_bits(f.raw(), ref.raw())) << "sweep_x w=" << w << " h=" << h;
      sweep_y(f, -c);
      ref_sweep_y(ref, -c);
      EXPECT_TRUE(same_bits(f.raw(), ref.raw())) << "sweep_y w=" << w << " h=" << h;
    }
  }
}

TEST(LwKernel, SerialSweepsMatchScalarReferenceBitwise) {
  // Anisotropic levels, including one unique point per row or column.  Each
  // sweep starts from fresh noise, so the duplicate row/column does not
  // mirror row/column 0 and a sweep that read it would differ.
  const double c = 0.61;
  for (const Level level : {Level{0, 3}, Level{3, 0}, Level{1, 5}, Level{5, 2}, Level{7, 3},
                            Level{4, 6}}) {
    const auto seed = static_cast<std::uint64_t>(level.x * 16 + level.y);
    Grid2D g(level);
    fill_noise(g.data(), seed);
    Grid2D ref = g;
    sweep_x_serial(g, c);
    ref_sweep_x_serial(ref, c);
    EXPECT_TRUE(same_bits(g.data(), ref.data())) << "x level " << level.x << "," << level.y;
    fill_noise(g.data(), seed + 1000);
    ref = g;
    sweep_y_serial(g, -c);
    ref_sweep_y_serial(ref, -c);
    EXPECT_TRUE(same_bits(g.data(), ref.data())) << "y level " << level.x << "," << level.y;
  }
}

TEST(Problem, ExactSolutionTranslates) {
  const Problem p{1.0, 0.5};
  EXPECT_NEAR(p.exact(0.5, 0.5, 0.0), p.initial(0.5, 0.5), 1e-14);
  EXPECT_NEAR(p.exact(0.75, 0.625, 0.25), p.initial(0.5, 0.5), 1e-14);
  // Periodic wrap.
  EXPECT_NEAR(p.exact(0.1, 0.1, 1.0), p.initial(0.1, 0.6), 1e-12);
}

TEST(Problem, StableTimestepRespectsCfl) {
  const Problem p{2.0, 0.5};
  const double dt = stable_timestep(6, p, 0.9);
  EXPECT_LE(dt * 2.0 * 64, 0.9 + 1e-12);
}

TEST(SerialSolver, ErrorSmallAfterManySteps) {
  const Problem p{1.0, 0.5};
  const double dt = stable_timestep(6, p, 0.8);
  SerialSolver s(Level{6, 6}, p, dt);
  s.run(50);
  EXPECT_LT(s.l1_error(), 5e-3);
}

TEST(SerialSolver, SecondOrderConvergence) {
  const Problem p{1.0, 1.0};
  // Solve to the same physical time on successively finer grids with the
  // same (finest-stable) timestep; the spatial error should drop ~4x per
  // refinement once the spatial term dominates.
  const double dt = stable_timestep(7, p, 0.5);
  const long steps = 64;
  double prev = 0;
  std::vector<double> errs;
  for (int l : {4, 5, 6}) {
    SerialSolver s(Level{l, l}, p, dt);
    s.run(steps);
    errs.push_back(s.l1_error());
    (void)prev;
  }
  EXPECT_GT(errs[0] / errs[1], 2.5);
  EXPECT_GT(errs[1] / errs[2], 2.5);
}

TEST(SerialSolver, ResumeConstructorContinues) {
  const Problem p{1.0, 0.5};
  const double dt = stable_timestep(5, p, 0.8);
  SerialSolver full(Level{5, 5}, p, dt);
  full.run(40);

  SerialSolver first(Level{5, 5}, p, dt);
  first.run(25);
  SerialSolver resumed(first.grid(), p, dt, first.steps_done());
  resumed.run(15);
  EXPECT_EQ(resumed.steps_done(), 40);
  for (int iy = 0; iy < full.grid().ny(); ++iy) {
    for (int ix = 0; ix < full.grid().nx(); ++ix) {
      ASSERT_NEAR(resumed.grid().at(ix, iy), full.grid().at(ix, iy), 1e-14);
    }
  }
}

TEST(ParallelSolver, MatchesSerialBitForBit) {
  ftmpi::Runtime rt;
  std::atomic<int> bad{0};
  const Problem p{1.0, 0.5};
  const Level level{5, 4};
  const double dt = stable_timestep(5, p, 0.8);
  const long steps = 20;
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ParallelSolver solver(level, p, dt, ftmpi::world());
    if (solver.run(steps) != ftmpi::kSuccess) ++bad;
    Grid2D full;
    if (solver.gather_full(&full) != ftmpi::kSuccess) ++bad;
    if (ftmpi::world().rank() == 0) {
      SerialSolver ref(level, p, dt);
      ref.run(steps);
      for (int iy = 0; iy < full.ny(); ++iy) {
        for (int ix = 0; ix < full.nx(); ++ix) {
          if (full.at(ix, iy) != ref.grid().at(ix, iy)) ++bad;
        }
      }
    }
  });
  rt.run("main", 8);
  EXPECT_EQ(bad.load(), 0);
}

TEST(ParallelSolver, ScatterThenGatherRoundTrips) {
  ftmpi::Runtime rt;
  std::atomic<int> bad{0};
  const Problem p{1.0, 0.5};
  const Level level{4, 4};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ParallelSolver solver(level, p, stable_timestep(4, p), ftmpi::world());
    Grid2D ref(level);
    if (ftmpi::world().rank() == 0) {
      ref.fill([](double x, double y) { return 3 * x - y; });
    }
    if (solver.scatter_full(ref) != ftmpi::kSuccess) ++bad;
    Grid2D back;
    if (solver.gather_full(&back) != ftmpi::kSuccess) ++bad;
    if (ftmpi::world().rank() == 0) {
      ref.enforce_periodicity();
      if (!(ref == back)) ++bad;
    }
  });
  rt.run("main", 4);
  EXPECT_EQ(bad.load(), 0);
}

TEST(ParallelSolver, StepChargesVirtualComputeTime) {
  ftmpi::Runtime rt;
  std::atomic<double> t{0.0};
  const Problem p{1.0, 0.5};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ParallelSolver solver(Level{5, 5}, p, stable_timestep(5, p), ftmpi::world());
    solver.run(4);
    t = ftmpi::wtime();
  });
  rt.run("main", 1);
  // 4 steps x 2 sweeps x 1024 cells at the modeled rate.
  const double expect = 4.0 * 2.0 * 1024.0 / ftmpi::CostModel{}.cell_update_rate;
  EXPECT_NEAR(t.load(), expect, expect * 0.01);
}

TEST(ParallelSolver, SurfacesFailureDuringStep) {
  ftmpi::Runtime rt;
  std::atomic<int> fail_codes{0};
  const Problem p{1.0, 0.5};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ftmpi::Comm& w = ftmpi::world();
    ParallelSolver solver(Level{5, 5}, p, stable_timestep(5, p), w);
    if (w.rank() == 2) {
      solver.run(3);
      ftmpi::abort_self();
    }
    const int rc = solver.run(100);
    if (rc == ftmpi::kErrProcFailed) ++fail_codes;
  });
  rt.run("main", 4);
  EXPECT_EQ(fail_codes.load(), 3);
}
