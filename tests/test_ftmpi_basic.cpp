// Smoke tests of the ftmpi runtime: launch, rank/size, point-to-point,
// virtual clocks, and basic collectives without failures.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"
#include "scoped_env.hpp"

using namespace ftmpi;

namespace {

Runtime::Options small_opts() {
  Runtime::Options opt;
  opt.slots_per_host = 4;
  opt.real_time_limit_sec = 60.0;
  return opt;
}

}  // namespace

TEST(FtmpiBasic, WorldRankAndSize) {
  Runtime rt(small_opts());
  std::atomic<int> rank_sum{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    EXPECT_EQ(w.size(), 6);
    rank_sum += w.rank();
  });
  const int killed = rt.run("main", 6);
  EXPECT_EQ(killed, 0);
  EXPECT_EQ(rank_sum.load(), 0 + 1 + 2 + 3 + 4 + 5);
}

TEST(FtmpiBasic, HostPlacementFollowsSlots) {
  Runtime rt(small_opts());  // 4 slots per host
  std::atomic<bool> ok{true};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    const int r = world().rank();
    if (runtime().host_of(self_pid()) != r / 4) ok = false;
  });
  rt.run("main", 10);
  EXPECT_TRUE(ok.load());
}

TEST(FtmpiBasic, SendRecvRoundTrip) {
  Runtime rt(small_opts());
  std::atomic<int> received{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) {
      const int v = 42;
      ASSERT_EQ(send(&v, 1, 1, 7, w), kSuccess);
    } else {
      int v = 0;
      Status st;
      ASSERT_EQ(recv(&v, 1, 0, 7, w, &st), kSuccess);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      received = v;
    }
  });
  rt.run("main", 2);
  EXPECT_EQ(received.load(), 42);
}

TEST(FtmpiBasic, AnySourceAnyTag) {
  Runtime rt(small_opts());
  std::atomic<int> total{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) {
      for (int i = 1; i < w.size(); ++i) {
        int v = 0;
        Status st;
        ASSERT_EQ(recv(&v, 1, kAnySource, kAnyTag, w, &st), kSuccess);
        EXPECT_EQ(v, st.source * 10 + st.tag);
        total += v;
      }
    } else {
      const int v = w.rank() * 10 + w.rank();
      ASSERT_EQ(send(&v, 1, 0, w.rank(), w), kSuccess);
    }
  });
  rt.run("main", 4);
  EXPECT_EQ(total.load(), 11 + 22 + 33);
}

TEST(FtmpiBasic, VirtualClockAdvancesWithTraffic) {
  Runtime rt(small_opts());
  std::atomic<double> t_end{0.0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const double t0 = wtime();
    EXPECT_EQ(t0, 0.0);
    if (w.rank() == 0) {
      std::vector<double> buf(1000, 1.0);
      (void)send(buf.data(), 1000, 1, 0, w);
    } else {
      std::vector<double> buf(1000);
      (void)recv(buf.data(), 1000, 0, 0, w);
      t_end = wtime();
    }
  });
  rt.run("main", 2);
  EXPECT_GT(t_end.load(), 0.0);
  EXPECT_LT(t_end.load(), 1.0);  // microseconds of modeled time, not seconds
}

TEST(FtmpiBasic, AdvanceChargesComputeTime) {
  Runtime rt(small_opts());
  std::atomic<double> t{0.0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    advance(1.5);
    t = wtime();
  });
  rt.run("main", 1);
  EXPECT_DOUBLE_EQ(t.load(), 1.5);
}

TEST(FtmpiBasic, BarrierSynchronizesClocks) {
  Runtime rt(small_opts());
  std::atomic<double> fast_after{0.0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 2) advance(5.0);  // one slow rank
    ASSERT_EQ(barrier(w), kSuccess);
    if (w.rank() == 0) fast_after = wtime();
  });
  rt.run("main", 4);
  // After the barrier, every rank's clock is at least the slowest rank's.
  EXPECT_GE(fast_after.load(), 5.0);
}

TEST(FtmpiBasic, BcastDeliversToAll) {
  Runtime rt(small_opts());
  std::atomic<int> sum{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    int v = w.rank() == 1 ? 99 : 0;
    ASSERT_EQ(bcast(&v, 1, 1, w), kSuccess);
    sum += v;
  });
  rt.run("main", 5);
  EXPECT_EQ(sum.load(), 99 * 5);
}

TEST(FtmpiBasic, GatherCollectsInRankOrder) {
  Runtime rt(small_opts());
  std::atomic<bool> ok{false};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const int v = w.rank() * w.rank();
    std::vector<int> all(static_cast<size_t>(w.size()));
    ASSERT_EQ(gather(&v, 1, all.data(), 0, w), kSuccess);
    if (w.rank() == 0) {
      bool good = true;
      for (int r = 0; r < w.size(); ++r) {
        good = good && all[static_cast<size_t>(r)] == r * r;
      }
      ok = good;
    }
  });
  rt.run("main", 6);
  EXPECT_TRUE(ok.load());
}

TEST(FtmpiBasic, GathervAcceptsAnEmptyContribution) {
  // Rank 1 contributes nothing: the root must hand back an empty part for it
  // (without copying from the empty payload's null data pointer).
  Runtime rt(small_opts());
  std::atomic<bool> ok{false};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const int r = w.rank();
    const std::vector<int> mine(r == 1 ? 0 : static_cast<size_t>(r) + 1, r);
    std::vector<std::vector<int>> parts;
    ASSERT_EQ(gatherv(mine, &parts, 0, w), kSuccess);
    if (r == 0) {
      ok = parts.size() == 3 && parts[0] == std::vector<int>{0} && parts[1].empty() &&
           parts[2] == std::vector<int>{2, 2, 2};
    }
  });
  rt.run("main", 3);
  EXPECT_TRUE(ok.load());
}

TEST(FtmpiBasic, AllreduceSum) {
  Runtime rt(small_opts());
  std::atomic<int> wrong{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const double v = static_cast<double>(w.rank() + 1);
    double out = 0;
    ASSERT_EQ(allreduce(&v, &out, 1, ReduceOp::Sum, w), kSuccess);
    if (out != 1 + 2 + 3 + 4 + 5 + 6.0) ++wrong;
  });
  rt.run("main", 6);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(FtmpiBasic, CommSplitByParity) {
  Runtime rt(small_opts());
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    Comm half;
    ASSERT_EQ(comm_split(w, w.rank() % 2, w.rank(), &half), kSuccess);
    ASSERT_FALSE(half.is_null());
    if (half.size() != 3) ++bad;
    if (half.rank() != w.rank() / 2) ++bad;
    // The new communicator must carry traffic independently of world.
    int token = w.rank();
    ASSERT_EQ(bcast(&token, 1, 0, half), kSuccess);
    if (token != w.rank() % 2) ++bad;  // rank 0 of each half is world rank 0 or 1
  });
  rt.run("main", 6);
  EXPECT_EQ(bad.load(), 0);
}

TEST(FtmpiBasic, CommSplitUndefinedYieldsNull) {
  Runtime rt(small_opts());
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    Comm sub;
    const int color = w.rank() == 0 ? kUndefinedColor : 1;
    ASSERT_EQ(comm_split(w, color, 0, &sub), kSuccess);
    if (w.rank() == 0 && !sub.is_null()) ++bad;
    if (w.rank() != 0 && (sub.is_null() || sub.size() != 3)) ++bad;
  });
  rt.run("main", 4);
  EXPECT_EQ(bad.load(), 0);
}

TEST(FtmpiBasic, ResultsBlackboard) {
  Runtime rt(small_opts());
  rt.register_app("main", [&](const std::vector<std::string>&) {
    if (world().rank() == 0) runtime().put("answer", 42.0);
    runtime().add("count", 1.0);
  });
  rt.run("main", 3);
  EXPECT_DOUBLE_EQ(rt.get("answer", 0.0), 42.0);
  EXPECT_DOUBLE_EQ(rt.get("count", 0.0), 3.0);
}

TEST(FtmpiBasic, SequentialRunsOnOneRuntime) {
  Runtime rt(small_opts());
  std::atomic<int> launches{0};
  rt.register_app("main", [&](const std::vector<std::string>&) { ++launches; });
  rt.run("main", 3);
  rt.run("main", 5);
  EXPECT_EQ(launches.load(), 8);
  EXPECT_EQ(rt.total_processes(), 8);
}

TEST(FtmpiBasic, ArgvReachesApplication) {
  Runtime rt(small_opts());
  std::atomic<int> good{0};
  rt.register_app("main", [&](const std::vector<std::string>& argv) {
    if (argv.size() == 2 && argv[0] == "alpha" && argv[1] == "beta") ++good;
  });
  rt.run("main", 2, {"alpha", "beta"});
  EXPECT_EQ(good.load(), 2);
}

TEST(FtmpiBasic, LargePayloadTransfersIntact) {
  Runtime rt(small_opts());
  std::atomic<bool> ok{false};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const size_t n = 1 << 16;
    if (w.rank() == 0) {
      std::vector<double> buf(n);
      std::iota(buf.begin(), buf.end(), 0.0);
      (void)send(buf.data(), static_cast<int>(n), 1, 3, w);
    } else {
      std::vector<double> buf(n, -1.0);
      (void)recv(buf.data(), static_cast<int>(n), 0, 3, w);
      bool good = true;
      for (size_t i = 0; i < n; ++i) good = good && buf[i] == static_cast<double>(i);
      ok = good;
    }
  });
  rt.run("main", 2);
  EXPECT_TRUE(ok.load());
}

TEST(FtmpiBasic, ProcessTableGrowsPastOneChunkWhileRanksMessage) {
  // A harness thread places more processes than one table chunk holds while
  // a small world keeps exchanging messages, then retires them unstarted:
  // no thread is started for them, and every lookup stays exact.
  Runtime rt(small_opts());
  constexpr int kWorld = 4;
  constexpr int kExtra = 1100;  // more than one 1024-slot chunk
  std::atomic<bool> ranks_up{false};
  std::atomic<bool> harness_done{false};
  std::atomic<int> exchanges{0};
  rt.register_app("ring", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const int right = (w.rank() + 1) % w.size();
    const int left = (w.rank() + w.size() - 1) % w.size();
    for (int stop = 0; stop == 0;) {
      int in = -1;
      const int out = w.rank();
      if (sendrecv(&out, 1, right, 0, &in, 1, left, 0, w) != kSuccess || in != left) return;
      if (w.rank() == 0) {
        ++exchanges;
        ranks_up = true;
      }
      // Every rank stops in the same round.
      int mine = harness_done.load() ? 1 : 0;
      if (allreduce(&mine, &stop, 1, ReduceOp::Max, w) != kSuccess) return;
    }
  });
  std::thread harness([&] {
    while (!ranks_up.load()) std::this_thread::yield();
    std::vector<ProcId> extra;
    for (int i = 0; i < kExtra; ++i) extra.push_back(rt.create_process("ring", {}, -1, 0.0));
    for (ProcId pid : extra) {
      EXPECT_NE(pid, kNullProc);
      EXPECT_EQ(rt.proc(pid).pid, pid);
      EXPECT_FALSE(rt.is_dead(pid));
      EXPECT_EQ(rt.host_of(pid), rt.proc(pid).host);
    }
    for (ProcId pid : extra) rt.release_unstarted(pid);
    for (ProcId pid : extra) EXPECT_TRUE(rt.is_dead(pid));
    for (ProcId pid = 0; pid < kWorld; ++pid) EXPECT_FALSE(rt.is_dead(pid));
    const ProcId past = rt.total_processes();
    EXPECT_EQ(past, kWorld + kExtra);
    EXPECT_TRUE(rt.is_dead(past));
    EXPECT_TRUE(rt.is_dead(-1));
    EXPECT_THROW((void)rt.proc(past), std::out_of_range);
    EXPECT_THROW((void)rt.host_of(past), std::out_of_range);
    harness_done = true;
  });
  EXPECT_EQ(rt.run("ring", kWorld), 0);
  harness.join();
  EXPECT_GT(exchanges.load(), 0);
}

TEST(RuntimeChecks, SelectorEnablesExactlyTheNamedCheckers) {
  {
    ScopedEnv none("FTR_CHECK", "");
    const Runtime rt(small_opts());
    EXPECT_FALSE(rt.checks().protocol || rt.checks().vtsan || rt.checks().deadlock);
  }
  ScopedEnv two("FTR_CHECK", "deadlock,protocol");
  const Runtime rt(small_opts());
  EXPECT_TRUE(rt.checks().protocol);
  EXPECT_FALSE(rt.checks().vtsan);
  EXPECT_TRUE(rt.checks().deadlock);
}

TEST(RuntimeChecks, UnknownCheckerNameIsRejected) {
  ScopedEnv bad("FTR_CHECK", "protocol,psan");
  EXPECT_THROW(Runtime rt(small_opts()), std::invalid_argument);
}

TEST(RuntimeChecks, UnselectedCheckerStaysOut) {
  // The double-free PsanDeath.DoubleFreeAborts pins, with no checker
  // selected: the runtime itself tolerates it and the run completes.
  ScopedEnv none("FTR_CHECK", "");
  Runtime rt(small_opts());
  std::atomic<int> freed{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm a;
    (void)comm_split(world(), 0, 0, &a);
    Comm b = a;
    if (comm_free(&a) == kSuccess && comm_free(&b) == kSuccess) ++freed;
  });
  EXPECT_EQ(rt.run("main", 1), 0);
  EXPECT_EQ(freed.load(), 1);
}
