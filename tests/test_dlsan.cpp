// Tests for the virtual-time deadlock detector (FTR_CHECK=deadlock).
//
// The sanitizer is the dynamic cross-check for ftlint's message-flow rules
// FTL011/FTL013: every blocking wait registers a descriptor in the real
// wait-for graph, and a world where every live rank is blocked with no
// fireable event must abort with a "ftmpi-dlsan:" diagnostic.  The
// positive tests pin that healthy exchanges, failure-observing waits and
// sequential runs stay silent; the death tests seed the two stuck shapes —
// a mutual-recv cycle and a wildcard probe nobody will ever feed — and
// match their distinct pinned diagnostics.  The fixture selects the
// checker for every Runtime a test builds, whatever FTR_CHECK the caller
// set.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "ftmpi/api.hpp"
#include "ftmpi/dlsan.hpp"
#include "ftmpi/runtime.hpp"
#include "scoped_env.hpp"

using namespace ftmpi;

namespace {

class Dlsan : public ::testing::Test {
  ScopedEnv checks_{"FTR_CHECK", "deadlock"};
};
using DeadlockDeath = Dlsan;

/// The death tests need the stuck state to be deterministic: the failure
/// detector's heartbeats would both wake blocked ranks and (by design)
/// rescue hopeless waits, so they run detector-less.
Runtime::Options quiet_opts() {
  Runtime::Options opt;
  opt.slots_per_host = 4;
  opt.real_time_limit_sec = 60.0;
  opt.detector.enabled = false;
  return opt;
}

}  // namespace

TEST_F(Dlsan, OrderedExchangeStaysSilent) {
  // The paper's halo-swap idiom: one side sends before it receives, so
  // every blocking recv is fed and no registration ever closes a cycle.
  Runtime rt(quiet_opts());
  std::atomic<int> failures{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    double token = static_cast<double>(w.rank());
    double got = -1.0;
    const int peer = 1 - w.rank();
    if (w.rank() == 0) {
      if (send(&token, 1, peer, 5, w) != kSuccess) ++failures;
      if (recv(&got, 1, peer, 5, w) != kSuccess) ++failures;
    } else {
      if (recv(&got, 1, peer, 5, w) != kSuccess) ++failures;
      if (send(&token, 1, peer, 5, w) != kSuccess) ++failures;
    }
  });
  EXPECT_EQ(rt.run("main", 2), 0);
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(Dlsan, HopelessWaitReturnsInsteadOfAborting) {
  // Rank 0 blocks on a peer that self-kills: the wait is hopeless, not a
  // deadlock — the peer's exit wakes rank 0, whose recv must return the
  // failure instead of tripping the detector.
  Runtime rt(quiet_opts());
  std::atomic<int> observed{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) {
      double got = 0.0;
      if (recv(&got, 1, 1, 5, w) == kErrProcFailed) ++observed;
    } else {
      runtime().kill(self_pid());
    }
  });
  EXPECT_EQ(rt.run("main", 2), 1);
  EXPECT_EQ(observed.load(), 1);
}

TEST_F(Dlsan, SequentialRunsStaySilent) {
  // Registrations are keyed per Runtime instance and wiped between runs;
  // back-to-back runs (the bench-harness pattern) must not inherit stale
  // blocked facts from the previous world.
  Runtime rt(quiet_opts());
  std::atomic<int> failures{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    if (barrier(world()) != kSuccess) ++failures;
  });
  EXPECT_EQ(rt.run("main", 3), 0);
  EXPECT_EQ(rt.run("main", 3), 0);
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(DeadlockDeath, MutualRecvCycleAborts) {
  // FTL011's seed shape, live: both ranks lead with a blocking recv of a
  // message the other will only send afterwards.  Each watches the other,
  // the wait-for graph closes a two-edge cycle, and the second
  // registration must abort naming both edges.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(quiet_opts());
        rt.register_app("main", [&](const std::vector<std::string>&) {
          Comm& w = world();
          double token = 0.0;
          const int peer = 1 - w.rank();
          (void)recv(&token, 1, peer, 7, w);
          (void)send(&token, 1, peer, 7, w);
        });
        rt.run("main", 2);
      },
      "ftmpi-dlsan: deadlock cycle");
}

TEST_F(DeadlockDeath, WildcardProbeNoProgressAborts) {
  // FTL013's seed shape, live: rank 0 probes for a message that can come
  // from anyone, rank 1 blocks receiving from rank 0 — nobody will ever
  // send.  The probe watches no one, so no cycle closes through it; the
  // analysis must still abort with the no-progress diagnostic.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(quiet_opts());
        rt.register_app("main", [&](const std::vector<std::string>&) {
          Comm& w = world();
          if (w.rank() == 0) {
            (void)probe(kAnySource, 9, w);
          } else {
            double token = 0.0;
            (void)recv(&token, 1, 0, 9, w);
          }
        });
        rt.run("main", 2);
      },
      "ftmpi-dlsan: no-progress");
}
