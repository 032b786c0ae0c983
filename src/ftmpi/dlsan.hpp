#pragma once
// Virtual-time deadlock sanitizer (runtime checker `deadlock`, selected per
// Runtime with FTR_CHECK=deadlock).
//
// The runtime cross-check for ftlint's message-flow rules (FTL011/FTL013).
// Those rules ask, statically, "can a rank-dependent send/recv pairing or
// an unbounded wait loop block forever after a failure?"  This sanitizer
// asks the same question dynamically: every blocking transition registers
// a wait descriptor (who blocks, on which channel, watching which peers,
// with which interrupt/revoke exits), and each registration runs a
// stuck-set analysis over the runtime's real wait-for graph on the virtual
// clock.  When every live rank of a runtime is registered blocked, no
// real-time waker (async failure injector) is armed, and no recorded wait
// has a fireable exit event — no queued detector message, no tripped
// interrupt or revoke flag, no already-hopeless peer watch — the run can
// never advance, and the sanitizer aborts with a pinned diagnostic:
//
//   ftmpi-dlsan: deadlock cycle ...   (every wait-for edge of the cycle)
//   ftmpi-dlsan: no-progress ...      (all ranks blocked, no cycle through
//                                      peer watches, e.g. a wildcard probe
//                                      with no sender left)
//
// Soundness rests on the runtime's own wake discipline: every event that
// could satisfy a recorded wait (message delivery, kill, revoke,
// interrupt, peer exit) notifies the waiter's condition variable, and the
// corresponding hook below clears the registration first, so a rank that
// is registered blocked at analysis time really has nothing pending.
//
// Compiled into every build but off unless selected: each call site tests
// Runtime::checks().deadlock first, so an unselected run pays one branch per
// hook and never evaluates the hook's arguments.

#include <atomic>
#include <cstdint>
#include <source_location>
#include <vector>

#include "ftmpi/types.hpp"

namespace ftmpi {

struct CommContext;
struct ProcessState;
class Comm;

namespace dlsan {

/// Pre-register a created process as live and unblocked (create_process(),
/// under the runtime lock, before its thread exists).  Registration at
/// creation — not thread start — is what makes the analysis sound during
/// launch: run() creates the whole world before starting any rank, so a
/// rank that blocks immediately still sees every peer as a live rank that
/// can make progress, not as an absent one.
void on_proc_created(const void* rt, ProcessState* ps);

/// Un-register a created-but-never-started process (release_unstarted():
/// a spawn negotiation that failed after allocation).
void on_proc_released(const void* rt, ProcId pid);

/// Mark the calling rank live (thread_main(), before the entry runs).
void on_thread_start();

/// Mark the calling rank gone (thread_main(), before notify_all_procs —
/// peers re-evaluate their predicates against the shrunk live set).
void on_thread_exit();

/// Register the calling rank as blocked in `op` and run the stuck-set
/// analysis; aborts with a pinned diagnostic when no live rank of this
/// runtime can ever advance.  Must be called with the caller's mailbox
/// mutex held, immediately before the cv wait it describes.
void on_block(const char* op, std::uint64_t ctx, int tag,
              const std::vector<ProcessState*>& watch, CommContext* revoke_ctx,
              bool drains_detector, const std::atomic<std::uint64_t>* intr,
              std::uint64_t intr_expect, const std::atomic<std::uint64_t>* intr2,
              std::uint64_t intr2_expect,
              std::source_location at = std::source_location::current());

/// on_block for the blocking probe loop: watches the named sender (or
/// nothing, for kAnySource) and has no interrupt/revoke exits.
void on_block_probe(const Comm& c, int src, int tag,
                    std::source_location at = std::source_location::current());

/// Clear the calling rank's registration (immediately after the cv wait).
void on_unblock();

/// `dst` of runtime `rt` was woken — by a delivery its blocked wait accepts
/// (or detector traffic), or by notify_all_procs() after a kill, revoke,
/// interrupt or peer exit: its wait predicate may now pass, so its
/// registration is no longer a blocked fact.  Called under dst's mailbox
/// lock, together with clearing its `waiting` flag; an event that wakes
/// nobody leaves the registration in place.
void on_wake(const void* rt, ProcId dst);

/// A real-time waker (async failure injector thread) is armed/disarmed:
/// while any is armed, wall-clock events can unblock ranks behind the
/// virtual clock's back, so the analysis stands down.
void on_waker_arm();
void on_waker_disarm();

/// Drop all state belonging to `rt` (~Runtime): pids restart per Runtime
/// instance, and a stack address can be reused.
void on_runtime_destroyed(const void* rt);

}  // namespace dlsan
}  // namespace ftmpi
