#include "core/async_injector.hpp"

#include <chrono>

#include "common/logging.hpp"
#include "ftmpi/dlsan.hpp"

namespace ftr::core {

AsyncFailureInjector::AsyncFailureInjector(ftmpi::Runtime& rt, Options opt)
    : rt_(rt), opt_(std::move(opt)) {
  // A wall-clock killer can unblock ranks at any real-time instant; the
  // deadlock checker must not call an all-blocked world stuck while one is
  // armed.
  if (rt_.checks().deadlock) ftmpi::dlsan::on_waker_arm();
  thread_ = std::thread([this] {
    // ftlint:allow(FTL008 real-time injector thread, deliberately outside the rank world; sleeps wall-clock time, never a fiber)
    std::this_thread::sleep_for(std::chrono::milliseconds(opt_.delay_ms));
    for (int rank : opt_.victim_ranks) {
      // World ranks of the initial launch coincide with pids (replacement
      // processes get fresh pids, so an injector targets originals only).
      // A kill issued before the launch has created the victim would find
      // no process and be dropped, so wait for it (bounded by the runtime's
      // watchdog horizon, past which the run is aborted anyway).
      const auto give_up = std::chrono::steady_clock::now() +
                           std::chrono::duration<double>(rt_.options().real_time_limit_sec);
      while (rt_.total_processes() <= rank && std::chrono::steady_clock::now() < give_up) {
        // ftlint:allow(FTL008 real-time injector thread; polls for the launch to create its victim)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      rt_.kill(rank);
      kills_.fetch_add(1);
      FTR_DEBUG("async injector: killed world rank %d", rank);
      if (!opt_.together) {
        // ftlint:allow(FTL008 real-time injector thread; wall-clock pacing between staggered kills)
        std::this_thread::sleep_for(std::chrono::milliseconds(opt_.delay_ms));
      }
    }
    if (rt_.checks().deadlock) ftmpi::dlsan::on_waker_disarm();
  });
}

void AsyncFailureInjector::join() {
  if (thread_.joinable()) thread_.join();
}

AsyncFailureInjector::~AsyncFailureInjector() { join(); }

}  // namespace ftr::core
