// Tests for the runtime protocol sanitizer (FTR_CHECK=protocol).
//
// The sanitizer is the dynamic cross-check for ftlint's FTL005/FTL006: a
// rank that keeps using a communicator after *observing* its revocation, a
// double-free, a collective call sequence that diverges between ranks, or a
// collective on a world superseded by the overlapped-recovery handoff
// must abort the run with a "ftmpi-psan:" diagnostic naming the call sites.
// The positive tests pin that the sanctioned salvage idioms and the normal
// collective protocol stay silent; the death tests seed each violation
// class and match the diagnostic.  The fixture selects the checker for
// every Runtime a test builds, whatever FTR_CHECK the caller set.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "ftmpi/api.hpp"
#include "ftmpi/psan.hpp"
#include "ftmpi/runtime.hpp"
#include "scoped_env.hpp"

using namespace ftmpi;

namespace {

class Psan : public ::testing::Test {
  ScopedEnv checks_{"FTR_CHECK", "protocol"};
};
using PsanDeath = Psan;

Runtime::Options small_opts() {
  Runtime::Options opt;
  opt.slots_per_host = 4;
  opt.real_time_limit_sec = 60.0;
  return opt;
}

}  // namespace

TEST_F(Psan, CleanProtocolRunStaysSilent) {
  // A full window of matched collectives, verified and reset at an agree,
  // then a second window: the sanitizer must not interfere.
  Runtime rt(small_opts());
  std::atomic<int> failures{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    auto check = [&](int rc) {
      if (rc != kSuccess) ++failures;
    };
    check(barrier(w));
    int v = w.rank() == 0 ? 41 : 0;
    check(bcast(&v, 1, 0, w));
    if (v != 41) ++failures;
    Comm half;
    check(comm_split(w, w.rank() % 2, w.rank(), &half));
    check(barrier(half));
    check(comm_free(&half));
    int flag = 1;
    check(comm_agree(w, &flag));  // verifies + resets the stream on w
    if (flag != 1) ++failures;
    check(barrier(w));
    check(comm_agree(w, &flag));  // second window verifies independently
  });
  EXPECT_EQ(rt.run("main", 4), 0);
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(Psan, SalvageAfterRevokeIsAllowed) {
  // The paper's drain idiom: after observing a revocation, a rank may still
  // probe/receive buffered messages, shrink, agree, and free — exactly the
  // set ftlint sanctions for FTL006.
  Runtime rt(small_opts());
  std::atomic<int> failures{0};
  std::atomic<int> drained{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    auto check = [&](int rc) {
      if (rc != kSuccess) ++failures;
    };
    if (w.rank() == 1) {
      const double payload = 2.5;
      check(send(&payload, 1, 0, 7, w));
    }
    check(barrier(w));  // orders the eager send before the revoke
    if (w.rank() == 0) {
      check(comm_revoke(w));
      int have = 0;
      Status st;
      check(iprobe_buffered(kAnySource, 7, w, &have, &st));
      if (have != 0) {
        double got = 0.0;
        check(recv_buffered(&got, sizeof(got), st.source, 7, w, &st));
        if (got == 2.5) ++drained;
      }
    }
    Comm shrunk;
    check(comm_shrink(w, &shrunk));
    check(barrier(shrunk));
    check(comm_free(&shrunk));
  });
  EXPECT_EQ(rt.run("main", 2), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(drained.load(), 1);
}

TEST_F(Psan, DrainAndDropOfSupersededWorldStaySilent) {
  // Overlapped recovery's handoff idiom: once a rank acks the repaired-world
  // doorbell, the pre-handoff world and the continuation sub-communicator
  // are dead weight — draining buffered messages off them and freeing the
  // handles must stay silent; only collectives are use-after-handoff.  The
  // hooks are driven directly: this test pins the sanctioned residue of a
  // handoff without standing up the whole overlap protocol.
  Runtime rt(small_opts());
  std::atomic<int> failures{0};
  std::atomic<int> drained{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    auto check = [&](int rc) {
      if (rc != kSuccess) ++failures;
    };
    if (w.rank() == 1) {
      const double payload = 4.5;
      check(send(&payload, 1, 0, 9, w));
    }
    check(barrier(w));  // orders the eager send before the handoff
    Comm side;
    check(comm_split(w, 0, w.rank(), &side));
    psan::on_overlap_split(side, /*epoch=*/7);
    psan::on_handoff(w, /*epoch=*/7);
    if (w.rank() == 0) {
      int have = 0;
      Status st;
      check(iprobe_buffered(kAnySource, 9, w, &have, &st));
      if (have != 0) {
        double got = 0.0;
        check(recv_buffered(&got, sizeof(got), st.source, 9, w, &st));
        if (got == 4.5) ++drained;
      }
    }
    check(comm_free(&side));
  });
  EXPECT_EQ(rt.run("main", 2), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(drained.load(), 1);
}

TEST_F(PsanDeath, UseAfterObservedRevokeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(small_opts());
        rt.register_app("main", [&](const std::vector<std::string>&) {
          Comm& w = world();
          if (w.rank() == 0) {
            (void)comm_revoke(w);  // rank 0 has now observed the revocation
            const int v = 1;
            (void)send(&v, 1, 1, 0, w);  // non-sanctioned use: must abort
          }
        });
        rt.run("main", 2);
      },
      "ftmpi-psan: use-after-revoke");
}

TEST_F(PsanDeath, DoubleFreeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(small_opts());
        rt.register_app("main", [&](const std::vector<std::string>&) {
          Comm& w = world();
          Comm a;
          (void)comm_split(w, 0, 0, &a);
          Comm b = a;  // second handle to the same context
          (void)comm_free(&a);
          (void)comm_free(&b);  // must abort
        });
        rt.run("main", 1);
      },
      "ftmpi-psan: double-free");
}

TEST_F(PsanDeath, CollectiveOnPreHandoffWorldAborts) {
  // A rank that acked the repaired-world doorbell but keeps running
  // collectives on the pre-handoff world has half the job on a layout
  // nobody else is in any more; the sanitizer must abort it at the first
  // such collective with the handoff site and doorbell epoch pinned.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(small_opts());
        rt.register_app("main", [&](const std::vector<std::string>&) {
          Comm& w = world();
          psan::on_handoff(w, /*epoch=*/3);
          (void)barrier(w);  // straggler collective: must abort
        });
        rt.run("main", 2);
      },
      "ftmpi-psan: use-after-handoff");
}

TEST_F(PsanDeath, CollectiveOnSupersededContinuationCommAborts) {
  // The continuation sub-communicator recorded at the overlap split dies
  // with the pre-handoff world: a collective on it after the handoff is the
  // same violation class, caught through the split-time tracking rather
  // than the world handle passed to on_handoff.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(small_opts());
        rt.register_app("main", [&](const std::vector<std::string>&) {
          Comm& w = world();
          Comm side;
          (void)comm_split(w, 0, w.rank(), &side);
          psan::on_overlap_split(side, /*epoch=*/5);
          psan::on_handoff(w, /*epoch=*/5);
          (void)barrier(side);  // superseded with the world: must abort
        });
        rt.run("main", 2);
      },
      "ftmpi-psan: use-after-handoff");
}

TEST_F(PsanDeath, DivergentCollectiveSequenceAbortsAtAgree) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(small_opts());
        rt.register_app("main", [&](const std::vector<std::string>&) {
          Comm& w = world();
          // Rank 0 runs a broadcast the other rank never enters.  The eager
          // root-side sends complete "successfully", so only the stream
          // hashes carried by the next agree can expose the divergence.
          if (w.rank() == 0) {
            int v = 1;
            (void)bcast(&v, 1, 0, w);
          }
          int flag = 1;
          (void)comm_agree(w, &flag);  // must abort at verification
        });
        rt.run("main", 2);
      },
      "ftmpi-psan: collective sequence divergence");
}

TEST_F(PsanDeath, TreeAgreeDivergenceFromDeepLeafAborts) {
  // Same violation class as above, but across a log-depth agreement tree:
  // the divergent rank is a leaf (rank 7 of 8, bottom of the binomial
  // tree), so its stream hash has to survive the child->parent reductions
  // all the way to the root for the verification to trip.  Pins that the
  // tree protocol carries the per-rank hashes instead of collapsing them.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime::Options opt;
        opt.slots_per_host = 8;
        opt.real_time_limit_sec = 60.0;
        Runtime rt(opt);
        rt.register_app("main", [&](const std::vector<std::string>&) {
          Comm& w = world();
          if (w.rank() == 7) {
            int v = 1;
            (void)bcast(&v, 1, 7, w);  // collective nobody else enters
          }
          int flag = 1;
          (void)comm_agree(w, &flag);  // must abort at tree verification
        });
        rt.run("main", 8);
      },
      "ftmpi-psan: collective sequence divergence");
}
