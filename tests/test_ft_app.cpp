// End-to-end tests of the fault-tolerant application: layout, failure
// generator, and full runs of all three techniques with no failures, real
// process failures, and simulated losses.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "core/failure_gen.hpp"
#include "core/ft_app.hpp"
#include "core/layout.hpp"
#include "core/metrics.hpp"
#include "recovery/replication.hpp"
#include "ftmpi/runtime.hpp"

using namespace ftr::core;
using ftr::comb::Scheme;
using ftr::comb::Technique;

namespace {

LayoutConfig small_layout(Technique t) {
  LayoutConfig cfg;
  cfg.scheme = Scheme{6, 3};  // 3 diagonal + 2 lower-diagonal grids
  cfg.technique = t;
  cfg.procs_diagonal = 4;
  cfg.procs_lower = 2;
  cfg.procs_extra_upper = 2;
  cfg.procs_extra_lower = 1;
  return cfg;
}

AppConfig small_app(Technique t) {
  AppConfig cfg;
  cfg.layout = small_layout(t);
  cfg.timesteps = 24;
  cfg.checkpoints = 2;
  return cfg;
}

ftmpi::Runtime::Options rt_opts() {
  ftmpi::Runtime::Options o;
  o.slots_per_host = 12;
  o.real_time_limit_sec = 120.0;
  return o;
}

}  // namespace

TEST(Layout, PaperProcessCounts) {
  // n=13, l=4 with the paper's 8/4/2/1 allocation: CR 44, RC 76, AC 49.
  LayoutConfig cfg;
  cfg.scheme = Scheme{13, 4};
  cfg.technique = Technique::CheckpointRestart;
  EXPECT_EQ(build_layout(cfg).total_procs, 44);
  cfg.technique = Technique::ResamplingCopying;
  EXPECT_EQ(build_layout(cfg).total_procs, 76);
  cfg.technique = Technique::AlternateCombination;
  EXPECT_EQ(build_layout(cfg).total_procs, 49);
}

TEST(Layout, Table1CoreCounts) {
  // The paper's Table I sweep: 19, 38, 76, 152, 304 cores.
  for (const auto& [diag, total] :
       std::vector<std::pair<int, int>>{{4, 19}, {8, 38}, {16, 76}, {32, 152}, {64, 304}}) {
    const Layout l = build_layout(table1_layout(13, 4, diag));
    EXPECT_EQ(l.total_procs, total) << "diag=" << diag;
  }
}

TEST(Layout, RankToGridMapping) {
  const Layout l = build_layout(small_layout(Technique::CheckpointRestart));
  // 3 diagonal grids x 4 procs, then 2 lower x 2 procs = 16 procs.
  EXPECT_EQ(l.total_procs, 16);
  EXPECT_EQ(l.grid_of_rank(0), 0);
  EXPECT_EQ(l.grid_of_rank(3), 0);
  EXPECT_EQ(l.grid_of_rank(4), 1);
  EXPECT_EQ(l.grid_of_rank(11), 2);
  EXPECT_EQ(l.grid_of_rank(12), 3);
  EXPECT_EQ(l.grid_of_rank(15), 4);
  EXPECT_EQ(l.group_rank(5), 1);
  EXPECT_EQ(l.root_rank_of_grid(3), 12);
  EXPECT_EQ(l.grids_of_ranks({0, 1, 13}), (std::vector<int>{0, 3}));
}

TEST(FailureGen, RealFailuresAvoidRankZero) {
  const Layout l = build_layout(small_layout(Technique::CheckpointRestart));
  ftr::Xoshiro256 rng(7);
  for (int rep = 0; rep < 50; ++rep) {
    const auto plan = random_real_failures(l, 3, 20, rng);
    EXPECT_EQ(plan.kill_at_step.size(), 3u);
    for (const auto& [rank, step] : plan.kill_at_step) {
      EXPECT_NE(rank, 0);
      EXPECT_GE(step, 1);
      EXPECT_LT(step, 20);
    }
  }
}

TEST(FailureGen, RcSimulatedLossesRespectConstraint) {
  const Layout l = build_layout(small_layout(Technique::ResamplingCopying));
  ftr::Xoshiro256 rng(11);
  for (int rep = 0; rep < 50; ++rep) {
    const auto plan = random_simulated_losses(l, 3, rng);
    EXPECT_EQ(plan.simulated_lost_grids.size(), 3u);
    EXPECT_TRUE(ftr::rec::rc_loss_allowed(l.slots, plan.simulated_lost_grids));
  }
}

TEST(Metrics, ProcessTimeOverheadFormulas) {
  EXPECT_DOUBLE_EQ(ProcessTimeOverhead::cr(10, 3.5, 7.0), 42.0);
  // (2*76 + 100*(76-44)) / 44
  EXPECT_DOUBLE_EQ(ProcessTimeOverhead::rc(2.0, 100.0, 76, 44), (2.0 * 76 + 3200.0) / 44);
  EXPECT_DOUBLE_EQ(ProcessTimeOverhead::ac(0.1, 100.0, 49, 44), (0.1 * 49 + 500.0) / 44);
}

class FtAppNoFailure : public ::testing::TestWithParam<Technique> {};

TEST_P(FtAppNoFailure, RunsCleanAndAccurate) {
  ftmpi::Runtime rt(rt_opts());
  FtApp app(small_app(GetParam()));
  const int killed = app.launch(rt);
  EXPECT_EQ(killed, 0);
  EXPECT_DOUBLE_EQ(rt.get(keys::kRepairs, -1), 0.0);
  const double err = rt.get(keys::kErrorL1, -1);
  ASSERT_GE(err, 0.0);
  EXPECT_LT(err, 0.05);  // combined solution approximates the PDE
  EXPECT_GT(rt.get(keys::kTotalTime, -1), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, FtAppNoFailure,
                         ::testing::Values(Technique::CheckpointRestart,
                                           Technique::ResamplingCopying,
                                           Technique::AlternateCombination),
                         [](const auto& tpi) {
                           return std::string(ftr::comb::technique_tag(tpi.param));
                         });

class FtAppRealFailure : public ::testing::TestWithParam<Technique> {};

TEST_P(FtAppRealFailure, SurvivesOneKill) {
  ftmpi::Runtime rt(rt_opts());
  AppConfig cfg = small_app(GetParam());
  cfg.failures.kill_at_step[5] = 10;  // a rank of grid 1 dies mid-run
  FtApp app(cfg);
  const int killed = app.launch(rt);
  EXPECT_EQ(killed, 1);
  EXPECT_DOUBLE_EQ(rt.get(keys::kRepairs, -1), 1.0);
  EXPECT_GT(rt.get(keys::kReconTotal, -1), 0.0);
  EXPECT_GT(rt.get(keys::kReconSpawn, -1), 0.0);
  const double err = rt.get(keys::kErrorL1, -1);
  ASSERT_GE(err, 0.0);
  // Recovery keeps the error within a factor of ~10 of a typical baseline.
  EXPECT_LT(err, 0.2);
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, FtAppRealFailure,
                         ::testing::Values(Technique::CheckpointRestart,
                                           Technique::ResamplingCopying,
                                           Technique::AlternateCombination),
                         [](const auto& tpi) {
                           return std::string(ftr::comb::technique_tag(tpi.param));
                         });

TEST(FtAppRealFailures, TwoKillsInDifferentGrids) {
  ftmpi::Runtime rt(rt_opts());
  AppConfig cfg = small_app(Technique::AlternateCombination);
  cfg.failures.kill_at_step[5] = 8;    // grid 1
  cfg.failures.kill_at_step[13] = 8;   // grid 3
  FtApp app(cfg);
  const int killed = app.launch(rt);
  EXPECT_EQ(killed, 2);
  EXPECT_DOUBLE_EQ(rt.get(keys::kRepairs, -1), 1.0);  // one repair fixes both
  const double err = rt.get(keys::kErrorL1, -1);
  ASSERT_GE(err, 0.0);
  EXPECT_LT(err, 0.5);
}

TEST(FtAppRealFailures, CrExactRecoveryMatchesCleanError) {
  // CR recovery is exact: the error with a failure must equal the no-failure
  // error (same grids, same arithmetic after the recompute).
  ftmpi::Runtime rt1(rt_opts());
  FtApp clean(small_app(Technique::CheckpointRestart));
  clean.launch(rt1);
  const double err_clean = rt1.get(keys::kErrorL1, -1);

  ftmpi::Runtime rt2(rt_opts());
  AppConfig cfg = small_app(Technique::CheckpointRestart);
  cfg.failures.kill_at_step[6] = 14;
  FtApp faulty(cfg);
  faulty.launch(rt2);
  const double err_faulty = rt2.get(keys::kErrorL1, -1);

  ASSERT_GE(err_clean, 0.0);
  EXPECT_NEAR(err_faulty, err_clean, 1e-12);
}

TEST(FtAppSimulated, LossesRecoveredPerTechnique) {
  for (const Technique t : {Technique::CheckpointRestart, Technique::ResamplingCopying,
                            Technique::AlternateCombination}) {
    ftmpi::Runtime rt(rt_opts());
    AppConfig cfg = small_app(t);
    cfg.failures.simulated_lost_grids = {1};
    FtApp app(cfg);
    const int killed = app.launch(rt);
    EXPECT_EQ(killed, 0) << technique_name(t);
    EXPECT_GT(rt.get(keys::kRecoveryTime, -1), 0.0) << technique_name(t);
    const double err = rt.get(keys::kErrorL1, -1);
    ASSERT_GE(err, 0.0) << technique_name(t);
    EXPECT_LT(err, 0.2) << technique_name(t);
  }
}

TEST(FtAppSimulated, CrRecoveryDominatedByCheckpointIo) {
  // On the OPL profile (T_IO = 3.52 s) CR's recovery window (read +
  // recompute) plus its checkpoint writes dwarf AC's coefficient-only
  // recovery.
  ftmpi::Runtime rt_cr(rt_opts());
  AppConfig cr = small_app(Technique::CheckpointRestart);
  cr.failures.simulated_lost_grids = {1};
  FtApp(cr).launch(rt_cr) == 0 ? void() : void();
  const double cr_total =
      rt_cr.get(keys::kCkptWriteTotal, 0) + rt_cr.get(keys::kRecoveryTime, 0);

  ftmpi::Runtime rt_ac(rt_opts());
  AppConfig ac = small_app(Technique::AlternateCombination);
  ac.failures.simulated_lost_grids = {1};
  FtApp(ac).launch(rt_ac) == 0 ? void() : void();
  const double ac_total = rt_ac.get(keys::kRecoveryTime, 0);

  EXPECT_GT(cr_total, 10.0 * ac_total);
}

TEST(FtApp, CheckpointCountIgnoredOutsideCr) {
  // RC and AC run one interval whose detection point is the one before the
  // combination, whatever `checkpoints` says: the run is the same at C = 0
  // and C = 5, with no checkpoint write and exactly one repair (a respawned
  // child resumes past the last interval instead of re-running it).
  // Virtual times are not compared: even at a fixed C they vary from run to
  // run, because a survivor pays the failure-detection latency only when it
  // meets the dead peer before the revoke, which is a real-time race.
  const auto deterministic = [](const std::string& key) {
    return key == keys::kErrorL1 || key == keys::kRepairs || key == keys::kCkptWrites ||
           key == keys::kReconMode || key == keys::kReconAttempts ||
           key == keys::kRecoveryBytes || key.rfind(keys::kPlanPrefix, 0) == 0;
  };
  for (const Technique t : {Technique::ResamplingCopying, Technique::AlternateCombination}) {
    std::map<std::string, double> runs[2];
    for (const long c : {0L, 5L}) {
      ftmpi::Runtime rt(rt_opts());
      AppConfig cfg = small_app(t);
      cfg.checkpoints = c;
      cfg.failures.kill_at_step[5] = 10;
      FtApp app(cfg);
      EXPECT_EQ(app.launch(rt), 1) << technique_name(t) << " C=" << c;
      EXPECT_DOUBLE_EQ(rt.get(keys::kRepairs, -1), 1.0) << technique_name(t) << " C=" << c;
      EXPECT_DOUBLE_EQ(rt.get(keys::kCkptWrites, -1), 0.0) << technique_name(t) << " C=" << c;
      EXPECT_GT(rt.get(keys::kTotalTime, -1), 0.0) << technique_name(t) << " C=" << c;
      for (const auto& [key, value] : rt.results()) {
        if (deterministic(key)) runs[c == 0 ? 0 : 1][key] = value;
      }
    }
    ASSERT_EQ(runs[0].count(keys::kErrorL1), 1u) << technique_name(t);
    EXPECT_EQ(runs[0], runs[1]) << technique_name(t);
  }
}
