// Tests with the asynchronous failure injector: kills land at arbitrary
// real-time points (blocked in receives, mid-collective, computing), and
// the application recovers by looping detection + reconstruction until the
// world is whole again.  Assertions are outcome properties, not timings.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/async_injector.hpp"
#include "core/reconstruct.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"

using namespace ftmpi;
using ftr::core::AsyncFailureInjector;
using ftr::core::Reconstructor;

namespace {

/// A resilient mini-application.  The ranks "compute" (spin in modeled
/// work) while the injector fires asynchronously; victims die mid-compute
/// in arbitrary states.  Survivors probe-and-repair once all planned kills
/// have landed.  (Kills landing *inside* the repair protocol itself are out
/// of scope here, as in the paper — its experiments inject failures before
/// the recovery sequence runs.)
void resilient_loop(std::atomic<int>& bad, int expected_kills) {
  Reconstructor recon({"app", {}});
  Comm w;
  if (!get_parent().is_null()) {
    w = recon.reconstruct({}).comm;
  } else {
    w = world();
    // Simulated compute until every planned kill has fired; a victim's
    // advance() throws the fail-stop unwind the moment it is killed.
    while (runtime().killed_count() < expected_kills) {
      advance(1e-9);
    }
    const auto res = recon.reconstruct(w);
    w = res.comm;
  }
  // Repaired world must be fully functional and complete.
  const int v = w.rank();
  std::vector<int> all(static_cast<size_t>(w.size()));
  if (gather(&v, 1, all.data(), 0, w) == kSuccess && w.rank() == 0) {
    for (int i = 0; i < w.size(); ++i) {
      if (all[static_cast<size_t>(i)] != i) ++bad;
    }
    if (w.size() != 8) ++bad;
  }
}

}  // namespace

TEST(AsyncInjector, TwoKillsTogetherWhileBusy) {
  Runtime rt;
  std::atomic<int> bad{0};
  rt.register_app("app", [&](const std::vector<std::string>&) {
    resilient_loop(bad, 2);
  });

  AsyncFailureInjector::Options opt;
  opt.victim_ranks = {3, 6};
  opt.delay_ms = 2;
  opt.together = true;

  // Launch the app; the injector thread fires while ranks are mid-protocol.
  std::thread runner([&] { rt.run("app", 8); });
  AsyncFailureInjector injector(rt, opt);
  injector.join();
  runner.join();
  EXPECT_EQ(injector.kills_issued(), 2);
  EXPECT_GE(rt.killed_count(), 2);
  EXPECT_EQ(bad.load(), 0);
}

TEST(AsyncInjector, StaggeredKills) {
  Runtime rt;
  std::atomic<int> bad{0};
  rt.register_app("app", [&](const std::vector<std::string>&) {
    resilient_loop(bad, 3);
  });

  AsyncFailureInjector::Options opt;
  opt.victim_ranks = {1, 4, 7};
  opt.delay_ms = 1;
  opt.together = false;  // spaced kills: separate failure episodes possible

  std::thread runner([&] { rt.run("app", 8); });
  AsyncFailureInjector injector(rt, opt);
  injector.join();
  runner.join();
  EXPECT_EQ(injector.kills_issued(), 3);
  EXPECT_EQ(bad.load(), 0);
}

TEST(AsyncInjector, KillAlreadyDeadIsHarmless) {
  Runtime rt;
  rt.register_app("app", [&](const std::vector<std::string>&) {
    if (world().rank() == 1) abort_self();
    (void)barrier(world());
  });
  std::thread runner([&] { rt.run("app", 3); });
  AsyncFailureInjector injector(rt, {{1}, 1, true});  // same victim again
  injector.join();
  runner.join();
  EXPECT_EQ(rt.killed_count(), 1);  // double-kill not double-counted
}

TEST(AsyncInjector, KillBeforeLaunchWaitsForVictim) {
  // The injector fires before the launch has created any process: the kill
  // must wait for its victim instead of being dropped, or the survivors
  // below would wait for it forever.
  Runtime::Options o;
  o.real_time_limit_sec = 10.0;  // a dropped kill aborts here, not at ctest's timeout
  Runtime rt(o);
  rt.register_app("app", [&](const std::vector<std::string>&) {
    while (runtime().killed_count() < 1) advance(1e-9);
  });
  AsyncFailureInjector injector(rt, {{2}, 0, true});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread runner([&] { rt.run("app", 4); });
  injector.join();
  runner.join();
  EXPECT_EQ(injector.kills_issued(), 1);
  EXPECT_EQ(rt.killed_count(), 1);
}
