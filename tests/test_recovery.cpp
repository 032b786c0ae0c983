// Tests for the three data-recovery techniques' serial kernels:
// checkpoint store + policy, replication partners / copy / resample, and
// the alternate-combination coefficient cost.  The AC recovery itself runs
// in the application's combination stage (test_ft_app*, test_combination).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "advection/serial_solver.hpp"
#include "combination/coefficients.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"
#include "recovery/alternate.hpp"
#include "recovery/checkpoint.hpp"
#include "grid/sampling.hpp"
#include "recovery/replication.hpp"

using namespace ftr::rec;
using ftr::comb::GridRole;
using ftr::comb::Scheme;
using ftr::comb::Technique;
using ftr::grid::Grid2D;
using ftr::grid::Level;

TEST(CheckpointPolicy, PaperEq2) {
  // C = MTBF / T_IO with MTBF = half the run time (paper Eq. 2).
  const CheckpointPolicy policy{CheckpointPolicy::Kind::PaperEq2};
  EXPECT_EQ(policy.count(/*app_time=*/200.0, /*t_io=*/3.52), 28);  // 100 / 3.52
  EXPECT_EQ(policy.count(200.0, 50.0), 2);
  EXPECT_EQ(policy.count(200.0, 1000.0), 1);  // clamped to at least one
  EXPECT_EQ(policy.count(200.0, 0.03, 16), 16);  // clamped to max
}

TEST(CheckpointPolicy, YoungInterval) {
  const CheckpointPolicy policy{CheckpointPolicy::Kind::Young};
  // tau = sqrt(2 * 100 * 4) ~ 28.3 -> C = 200 / 28.3 ~ 7
  EXPECT_EQ(policy.count(200.0, 4.0), 7);
}

TEST(CheckpointStore, MemoryRoundTripChargesVirtualIo) {
  ftmpi::Runtime rt;
  std::atomic<double> write_cost{0}, read_cost{0};
  std::atomic<bool> ok{false};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    CheckpointStore store;
    const std::vector<double> data{1.0, 2.0, 3.0};
    const double t0 = ftmpi::wtime();
    store.write(5, 2, 40, data);
    write_cost = ftmpi::wtime() - t0;
    const double t1 = ftmpi::wtime();
    const auto snap = store.read_latest(5, 2);
    read_cost = ftmpi::wtime() - t1;
    ok = snap.has_value() && snap->step == 40 && snap->data == data;
    EXPECT_FALSE(store.read_latest(5, 3).has_value());
    EXPECT_EQ(store.writes(), 1);
  });
  rt.run("main", 1);
  EXPECT_TRUE(ok.load());
  // OPL profile: write latency 3.52 s dominates.
  EXPECT_GE(write_cost.load(), 3.52);
  EXPECT_GE(read_cost.load(), 0.35);
  EXPECT_LT(read_cost.load(), 1.0);
}

TEST(CheckpointStore, LatestWriteWins) {
  ftmpi::Runtime rt;
  std::atomic<long> step{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    CheckpointStore store;
    store.write(0, 0, 10, {1.0});
    store.write(0, 0, 20, {2.0});
    const auto snap = store.read_latest(0, 0);
    if (snap) step = snap->step;
  });
  rt.run("main", 1);
  EXPECT_EQ(step.load(), 20);
}

TEST(CheckpointStore, FileBackedRoundTrip) {
  ftmpi::Runtime rt;
  std::atomic<bool> ok{false};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    CheckpointStore store("/tmp/ftr_ckpt_test");
    std::vector<double> data(100);
    for (size_t i = 0; i < data.size(); ++i) data[i] = std::sin(static_cast<double>(i));
    store.write(1, 3, 7, data);
    const auto snap = store.read_latest(1, 3);
    ok = snap.has_value() && snap->step == 7 && snap->data == data;
  });
  rt.run("main", 1);
  EXPECT_TRUE(ok.load());
}

TEST(Replication, PartnersMatchPaperFig1) {
  // Paper: recovery pairs 0<->7, 1<->8, 2<->9, 3<->10; 4 from 1, 5 from 2,
  // 6 from 3 (IDs of Fig. 1).
  const Scheme s{13, 4};
  const auto slots = ftr::comb::build_grid_slots(s, Technique::ResamplingCopying);
  EXPECT_EQ(rc_partner(slots, 0).value(), 7);
  EXPECT_EQ(rc_partner(slots, 7).value(), 0);
  EXPECT_EQ(rc_partner(slots, 3).value(), 10);
  EXPECT_EQ(rc_partner(slots, 10).value(), 3);
  EXPECT_EQ(rc_partner(slots, 4).value(), 1);
  EXPECT_EQ(rc_partner(slots, 5).value(), 2);
  EXPECT_EQ(rc_partner(slots, 6).value(), 3);
}

TEST(Replication, LowerDiagonalIsSubsetOfItsPartner) {
  const Scheme s{8, 4};
  const auto slots = ftr::comb::build_grid_slots(s, Technique::ResamplingCopying);
  for (const auto& slot : slots) {
    if (slot.role != GridRole::LowerDiagonal) continue;
    const auto partner = rc_partner(slots, slot.id);
    ASSERT_TRUE(partner.has_value());
    const Level fine = slots[static_cast<size_t>(*partner)].level;
    EXPECT_TRUE(ftr::grid::is_refinement(slot.level, fine));
  }
}

TEST(Replication, ConstraintRejectsPartnerPairs) {
  const Scheme s{13, 4};
  const auto slots = ftr::comb::build_grid_slots(s, Technique::ResamplingCopying);
  EXPECT_FALSE(rc_loss_allowed(slots, {0, 7}));  // primary + its duplicate
  EXPECT_FALSE(rc_loss_allowed(slots, {1, 4}));  // lower diag + its source
  EXPECT_TRUE(rc_loss_allowed(slots, {0, 1}));
  EXPECT_TRUE(rc_loss_allowed(slots, {4, 5, 6}));
  EXPECT_TRUE(rc_loss_allowed(slots, {7, 8, 9, 10}));
}

TEST(Replication, CopyIsExact) {
  Grid2D g(Level{4, 3});
  g.fill([](double x, double y) { return x * x + y; });
  EXPECT_TRUE(recover_by_copy(g) == g);
}

TEST(Replication, InfeasibleRequestsReturnEmptyInsteadOfAborting) {
  // The planner leans on these being error *returns*, not asserts: RC
  // infeasibility must read as a fallback signal.
  const Scheme s{6, 3};
  const auto slots = ftr::comb::build_grid_slots(s, Technique::ResamplingCopying);
  EXPECT_FALSE(rc_partner(slots, -1).has_value());
  EXPECT_FALSE(rc_partner(slots, static_cast<int>(slots.size())).has_value());

  // Resampling onto a level that is not a coarsening of the source.
  Grid2D fine(Level{5, 4});
  fine.fill([](double x, double y) { return x + y; });
  EXPECT_FALSE(recover_by_resample(fine, Level{6, 4}).has_value());
  EXPECT_FALSE(recover_by_resample(fine, Level{4, 5}).has_value());

  // rc_recover with a partner grid at the wrong level (copy path) and an
  // out-of-range lost id.
  Grid2D wrong(Level{3, 3});
  EXPECT_FALSE(rc_recover(slots, 0, wrong).has_value());
  EXPECT_FALSE(rc_recover(slots, -1, fine).has_value());
}

TEST(Replication, ResampleHitsSharedPointsExactly) {
  Grid2D fine(Level{5, 4});
  fine.fill([](double x, double y) { return std::sin(3 * x + y); });
  const Grid2D coarse = recover_by_resample(fine, Level{4, 4}).value();
  for (int iy = 0; iy < coarse.ny(); ++iy) {
    for (int ix = 0; ix < coarse.nx(); ++ix) {
      EXPECT_DOUBLE_EQ(coarse.at(ix, iy), fine.at(2 * ix, iy));
    }
  }
}

TEST(Replication, ResampledSolverDataDiffersFromNativeCoarseSolve) {
  // The crux of the paper's accuracy result: restricting a fine numerical
  // solution is NOT the same as solving on the coarse grid, so RC's
  // resampling perturbs the combination.
  const ftr::advection::Problem p{1.0, 0.5};
  const double dt = ftr::advection::stable_timestep(6, p, 0.8);
  ftr::advection::SerialSolver fine(Level{6, 5}, p, dt);
  ftr::advection::SerialSolver coarse(Level{5, 5}, p, dt);
  fine.run(32);
  coarse.run(32);
  const Grid2D resampled = recover_by_resample(fine.grid(), Level{5, 5}).value();
  double diff = 0;
  for (int iy = 0; iy < resampled.ny(); ++iy) {
    for (int ix = 0; ix < resampled.nx(); ++ix) {
      diff = std::max(diff, std::abs(resampled.at(ix, iy) - coarse.grid().at(ix, iy)));
    }
  }
  EXPECT_GT(diff, 1e-6);   // genuinely different
  EXPECT_LT(diff, 1e-1);   // but close (both approximate the same PDE)
}

TEST(Alternate, CornerLossFeasibleEvenWithoutExtraLayers) {
  const Scheme s{6, 3};
  const ftr::comb::CoefficientProblem problem(s, 1);
  const auto corner = s.layer(0).front();
  EXPECT_TRUE(problem.solve({corner}).has_value());
}

TEST(Alternate, CoefficientFlopsScaleWithWindow) {
  const Scheme small{6, 3};
  const Scheme large{13, 6};
  EXPECT_GT(ac_coefficient_flops(large, 3), ac_coefficient_flops(small, 3));
}
