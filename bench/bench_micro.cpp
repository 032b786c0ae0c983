// Micro-benchmarks (google-benchmark, real wall time): serial kernels of
// the library — the Lax-Wendroff sweeps, inter-grid transfers, combination
// evaluation and GCP coefficient solving.  These complement the
// figure-reproduction benches, which report virtual (modeled) time.

#include <benchmark/benchmark.h>

#include "advection/lax_wendroff.hpp"
#include "advection/serial_solver.hpp"
#include "combination/coefficients.hpp"
#include "combination/combine.hpp"
#include "grid/decomposition.hpp"
#include "grid/sampling.hpp"

using ftr::comb::CoefficientProblem;
using ftr::comb::Scheme;
using ftr::grid::Grid2D;
using ftr::grid::Level;

namespace {

void BM_LaxWendroffStep(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const ftr::advection::Problem p{1.0, 0.5};
  ftr::advection::SerialSolver solver(Level{l, l},  p,
                                      ftr::advection::stable_timestep(l, p));
  for (auto _ : state) {
    solver.step();
    benchmark::DoNotOptimize(solver.grid().data().data());
  }
  state.SetItemsProcessed(state.iterations() * solver.grid().size());
}
BENCHMARK(BM_LaxWendroffStep)->Arg(5)->Arg(7)->Arg(9);

// The LocalField sweep pair one rank runs per parallel step: a 2^l x 2^l
// block whose halo ring is refreshed from its own opposite edges, standing
// in for the exchange with the neighbors.  Without the refresh a fixed halo
// would drain the field toward zero and time denormal arithmetic instead.
void BM_LocalSweep(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const int n = 1 << l;
  Grid2D g(Level{l, l});
  g.fill([](double x, double y) { return x * y; });
  ftr::grid::LocalField f(ftr::grid::Block{0, n, 0, n});
  f.load_from(g);
  auto& hs = f.halo_scratch();
  for (auto _ : state) {
    f.pack_column_into(n - 1, hs.send[0]);
    f.unpack_halo_column(-1, hs.send[0]);
    f.pack_column_into(0, hs.send[1]);
    f.unpack_halo_column(n, hs.send[1]);
    ftr::advection::sweep_x(f, 0.4);
    f.pack_row_into(n - 1, hs.send[0]);
    f.unpack_halo_row(-1, hs.send[0]);
    f.pack_row_into(0, hs.send[1]);
    f.unpack_halo_row(n, hs.send[1]);
    ftr::advection::sweep_y(f, 0.2);
    benchmark::DoNotOptimize(f.raw().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * f.block().cells());
}
BENCHMARK(BM_LocalSweep)->Arg(5)->Arg(7)->Arg(9);

void BM_RestrictInject(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  Grid2D fine(Level{l, l});
  fine.fill([](double x, double y) { return x * y; });
  Grid2D coarse(Level{l - 2, l - 1});
  for (auto _ : state) {
    ftr::grid::restrict_inject(fine, coarse);
    benchmark::DoNotOptimize(coarse.data().data());
  }
  state.SetItemsProcessed(state.iterations() * coarse.size());
}
BENCHMARK(BM_RestrictInject)->Arg(7)->Arg(9);

void BM_BilinearInterpolate(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  Grid2D src(Level{l, l - 2});
  src.fill([](double x, double y) { return x + y; });
  Grid2D dst(Level{l - 1, l - 1});
  for (auto _ : state) {
    ftr::grid::interpolate(src, dst);
    benchmark::DoNotOptimize(dst.data().data());
  }
  state.SetItemsProcessed(state.iterations() * dst.size());
}
BENCHMARK(BM_BilinearInterpolate)->Arg(7)->Arg(9);

void BM_CombineFull(benchmark::State& state) {
  const Scheme s{static_cast<int>(state.range(0)), 4};
  std::vector<Grid2D> grids;
  std::vector<ftr::comb::Component> parts;
  const auto levels = s.combination_levels();
  grids.reserve(levels.size());
  for (const Level& lv : levels) {
    Grid2D g(lv);
    g.fill([](double x, double y) { return x - y; });
    grids.push_back(std::move(g));
  }
  for (size_t i = 0; i < grids.size(); ++i) {
    parts.push_back({&grids[i], ftr::comb::classic_coefficient(s, levels[i])});
  }
  for (auto _ : state) {
    Grid2D combined = ftr::comb::combine_full(s, parts);
    benchmark::DoNotOptimize(combined.data().data());
  }
  const int64_t n = (1 << s.n) + 1;
  state.SetItemsProcessed(state.iterations() * n * n *
                          static_cast<int64_t>(parts.size()));
}
BENCHMARK(BM_CombineFull)->Arg(7)->Arg(8)->Arg(9);

void BM_GcpSolve(benchmark::State& state) {
  const Scheme s{13, static_cast<int>(state.range(0))};
  const CoefficientProblem problem(s, 3);
  const auto grids = s.combination_levels();
  const std::vector<Level> lost{grids[1], grids[grids.size() - 2]};
  for (auto _ : state) {
    auto set = problem.solve(lost);
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_GcpSolve)->Arg(4)->Arg(6)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
