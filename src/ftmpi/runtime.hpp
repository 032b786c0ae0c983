#pragma once
// The simulated MPI runtime: a "cluster in a process".
//
// Each simulated MPI process is a std::thread with its own mailbox and
// virtual clock.  The Runtime owns the process table, the hosts-and-slots
// placement model (the paper's hostfile with SLOTS=12 per node), the
// communicator-context registry, the failure epoch used to wake blocked
// operations when a process is killed, and a results blackboard through
// which applications report measurements to the bench harnesses.
//
// Failure semantics are fail-stop, as in the paper: Runtime::kill() marks a
// process dead and frees its host slot; the victim's thread unwinds (via
// ProcessKilled) at its next runtime call, and every operation by a peer
// that depends on the victim eventually returns kErrProcFailed.
//
// Locking.  The message path (send, receive, deliver, the wait loop) takes
// only the destination's or the owner's ProcessState::mu.  Processes live in
// an append-only table that never moves (pids are dense and never reused),
// so is_dead/host_of/proc/deliver read it without any runtime-wide lock;
// Runtime::mu_ guards only slot placement, the app registry and the active
// count.  A blocked rank publishes its match predicate under its own mu and
// deliver() wakes it only for a message that can end the wait.  Every flag
// another thread sets without the waiter's lock (dead, finished, revoked, an
// interrupt counter) is followed by notify_all_procs(), which takes each
// waiting owner's mu before it notifies, so no wake-up is lost between the
// waiter's predicate check and its cv.wait.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ftmpi/comm.hpp"
#include "ftmpi/cost_model.hpp"
#include "ftmpi/detector.hpp"
#include "ftmpi/trace.hpp"
#include "ftmpi/types.hpp"

namespace ftmpi {

/// An in-flight message.  Control-plane messages (internal protocols) are
/// matched by exact (context, tag, source pid); user point-to-point
/// messages by (context, tag-or-any, source-rank-or-any, side).
struct Message {
  /// A vector clock: per-ProcId event counters (the vtsan checker's).
  using VClock = std::map<ProcId, std::uint64_t>;

  std::uint64_t ctx = 0;
  int tag = 0;
  ProcId src_pid = kNullProc;
  int src_rank = -1;
  int src_side = 0;
  bool ctrl = false;
  std::vector<std::byte> payload;
  double arrive = 0.0;  ///< virtual arrival time at the destination
  /// Sender's vector clock at deliver() time, joined into the receiver's
  /// clock at extraction (the vtsan happens-before edge for messages).
  /// Null unless the vtsan checker is selected.
  std::unique_ptr<const VClock> vt;
};

class Runtime;

/// A receive's match predicate over a queued message and its opaque key.
using MatchFn = bool (*)(const Message&, const void*);

/// Per-process runtime state.  The owning thread is the only writer of
/// vclock and of the sent-traffic counters; the mailbox and the published
/// wait are guarded by mu.
struct ProcessState {
  Runtime* rt = nullptr;
  ProcId pid = kNullProc;
  int host = 0;
  int slot = 0;
  std::string app;
  std::vector<std::string> argv;
  std::thread thread;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> mailbox;
  /// The owner's blocked wait, published under mu right before cv.wait:
  /// deliver() wakes it only for a message wait_match accepts (null = any
  /// message, the blocking probe) or a detector message.  Whoever wakes
  /// the owner clears `waiting`, so later events skip the redundant notify.
  bool waiting = false;
  MatchFn wait_match = nullptr;
  const void* wait_arg = nullptr;
  std::atomic<bool> dead{false};
  std::atomic<bool> finished{false};
  /// Set by start_process(); created-but-unstarted processes are invisible
  /// to the detector ring.
  std::atomic<bool> started{false};

  double vclock = 0.0;

  /// Traffic this process sent (summed by Runtime::stats()).  Relaxed
  /// atomics so stats() may read them while the owner runs; only the owner
  /// writes them, so no read-modify-write is needed.
  std::atomic<long long> sent_messages{0};
  std::atomic<long long> sent_bytes{0};
  std::atomic<long long> sent_cross_host{0};
  void count_send(std::size_t bytes, bool cross_host) {
    const auto bump = [](std::atomic<long long>& c, long long by) {
      c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
    };
    bump(sent_messages, 1);
    bump(sent_bytes, static_cast<long long>(bytes));
    if (cross_host) bump(sent_cross_host, 1);
  }

  /// Number of detector-channel messages (heartbeats/gossip) queued in the
  /// mailbox; bumped by deliver() under mu, reset by detector::drain().
  /// Lets the owner thread skip mailbox locking when nothing is pending.
  std::atomic<int> det_pending{0};
  /// Failure-detector state; touched only by the owning rank thread.
  detector::State det;

  std::uint64_t world_ctx = 0;   ///< context id of this process's COMM_WORLD
  std::uint64_t parent_ctx = 0;  ///< intercommunicator to the spawner (0 = none)
  int world_rank = -1;

  // Cached handles so that error handlers / acked state set on the world
  // or parent communicator persist across world()/get_parent() calls.
  std::optional<Comm> world_handle;
  std::optional<Comm> parent_handle;
};

class Runtime {
 public:
  struct Options {
    int slots_per_host = 12;       ///< the paper's SLOTS constant
    CostModel cost{};
    /// Real-time watchdog for Runtime::run(); a stuck protocol aborts with
    /// a state dump rather than hanging a test run forever.
    double real_time_limit_sec = 300.0;
    /// Maximum number of hosts in the simulated cluster (0 = unbounded, the
    /// historical behaviour).  With a bound, process placement can genuinely
    /// fail — comm_spawn_multiple returns kErrSpawn — which is what forces
    /// the shrink-mode recovery fallback.
    int max_hosts = 0;
    /// Failure-detector knobs (env overrides FTR_DETECTOR, FTR_HB_PERIOD,
    /// FTR_HB_SUSPECT, FTR_HB_TIMEOUT are applied at Runtime construction).
    detector::Options detector{};
    /// Log-depth tree topology for comm_agree and allreduce (FTR_AGREE=tree,
    /// the default).  FTR_AGREE=linear restores the coordinator-based
    /// protocols; combined with FTR_DETECTOR=off that is bit-for-bit the
    /// pre-detector runtime.
    bool tree_protocols = true;
  };

  /// Runtime checkers, chosen per Runtime by FTR_CHECK (a comma-separated
  /// subset of protocol,vtsan,deadlock; unset or empty selects none) at
  /// construction.  Every hook into psan.hpp, vtsan.hpp and dlsan.hpp is
  /// guarded by its flag, so an unselected checker costs one branch.
  struct Checks {
    bool protocol = false;  ///< psan: communicator lifecycle + collective streams
    bool vtsan = false;     ///< virtual-time happens-before tracker
    bool deadlock = false;  ///< dlsan: virtual-time wait-for graph
  };

  /// Entry point of a simulated MPI application; runs on each rank thread.
  using EntryFn = std::function<void(const std::vector<std::string>& argv)>;

  Runtime() : Runtime(Options{}) {}
  explicit Runtime(Options opt);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  ~Runtime();

  /// Register an application binary name -> entry function.  Spawn requests
  /// (MPI_Comm_spawn_multiple) look commands up here, mirroring re-executing
  /// the same executable on a real cluster.
  void register_app(const std::string& name, EntryFn entry);

  /// Launch `world_size` processes running `app` and block until every
  /// process (including ones spawned during the run) has terminated.
  /// Returns the number of processes that were killed.
  int run(const std::string& app, int world_size, std::vector<std::string> argv = {});

  /// Fail-stop kill.  Safe to call from any thread, including the victim.
  void kill(ProcId pid);

  /// Whole-node failure (the paper's future-work scenario): every live
  /// process on `host` is killed and the host is marked failed — its slots
  /// can never be reused.  Later placement requests that prefer the failed
  /// host are redirected to one consistent *spare* host, so all of the
  /// node's replacement processes come up co-located, preserving the
  /// original load-balancing characteristics.
  void fail_host(int host);
  [[nodiscard]] bool host_failed(int host) const;

  /// Lock-free; true for a pid that was never created.
  [[nodiscard]] bool is_dead(ProcId pid) const;
  [[nodiscard]] std::vector<ProcId> dead_members(const Group& g) const;

  [[nodiscard]] int host_of(ProcId pid) const;
  [[nodiscard]] int slots_per_host() const { return opt_.slots_per_host; }
  [[nodiscard]] const Options& options() const { return opt_; }
  [[nodiscard]] const CostModel& cost() const { return opt_.cost; }
  /// Pids of started processes that have not deregistered cleanly, in pid
  /// order — the RTE-visible membership the detector ring is built over.
  /// Killed processes stay listed (a crash never deregisters; the ring
  /// timeout is what detects it); normally finished processes drop out.
  [[nodiscard]] std::vector<ProcId> active_pids() const;
  [[nodiscard]] std::uint64_t failure_epoch() const { return failure_epoch_.load(); }
  /// Monotonic counter bumped whenever the active-process set shrinks (a
  /// kill *or* a normal exit).  Protocols that build a topology over a
  /// snapshot of the active set watch this atomic to learn that their
  /// snapshot went stale mid-protocol — unlike failure_epoch(), it also
  /// covers peers that finished without failing.
  [[nodiscard]] const std::atomic<std::uint64_t>& membership_epoch() const {
    return membership_epoch_;
  }
  [[nodiscard]] int total_processes() const;
  [[nodiscard]] int killed_count() const { return killed_.load(); }

  /// Aggregate traffic statistics (all processes, whole runtime lifetime).
  struct Stats {
    long long messages = 0;   ///< messages delivered to mailboxes
    long long bytes = 0;      ///< payload bytes carried
    long long cross_host = 0; ///< messages that crossed a host boundary
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const Checks& checks() const { return checks_; }

  /// Event trace (off by default; FTR_TRACE=1 enables it at construction).
  [[nodiscard]] Trace& trace() { return trace_; }
  [[nodiscard]] const Trace& trace() const { return trace_; }

  // --- communicator contexts ----------------------------------------------
  std::shared_ptr<CommContext> create_context(Group local, Group remote = {},
                                              bool inter = false);
  [[nodiscard]] std::shared_ptr<CommContext> find_context(std::uint64_t id) const;

  // --- process management (used by the spawn protocol) ---------------------
  /// Create a not-yet-started process placed on `preferred_host` (or the
  /// first host with a free slot).  Returns its pid, or kNullProc when the
  /// cluster is bounded (Options::max_hosts) and no slot is available.
  ProcId create_process(const std::string& app, std::vector<std::string> argv,
                        int preferred_host, double start_clock);
  /// Start the thread of a process created by create_process() after its
  /// world/parent contexts have been filled in.
  void start_process(ProcId pid);
  /// Retire a created-but-never-started process (spawn rollback after a
  /// partial placement failure): frees its slot without counting it as a
  /// failure.
  void release_unstarted(ProcId pid);

  // --- chaos injection ------------------------------------------------------
  /// Hook invoked by chaos_point() at named protocol phase boundaries
  /// (shrink/spawn/merge/agree/split entry, checkpoint writes).  The hook
  /// may kill the calling process — chaos_point() re-checks liveness after
  /// the hook returns, so a self-kill unwinds at the phase boundary.
  /// Install before run(); not synchronized against running rank threads.
  using ChaosHook = std::function<void(const char* phase, ProcId pid)>;
  void set_chaos_hook(ChaosHook hook) { chaos_hook_ = std::move(hook); }
  void fire_chaos(const char* phase, ProcId pid) {
    if (chaos_hook_) chaos_hook_(phase, pid);
  }
  [[nodiscard]] bool has_chaos_hook() const { return static_cast<bool>(chaos_hook_); }

  /// The process with this pid (lock-free); throws std::out_of_range for a
  /// pid that was never created.
  [[nodiscard]] ProcessState& proc(ProcId pid) const;

  /// Enqueue a message; drops silently if the destination is dead
  /// (matching a network that cannot deliver to a crashed process).
  void deliver(ProcId dst, Message msg);
  /// Wake every blocked process so waiting predicates re-evaluate.  Call it
  /// after setting a flag that a wait predicate reads (kill, revoke, rank
  /// exit, an interrupt counter); it takes each waiting owner's mu, which
  /// orders the flag before that owner's next predicate check.
  void notify_all_procs();

  // --- results blackboard ---------------------------------------------------
  // Applications (usually rank 0) publish measurements; bench harnesses read
  // them after run() returns.
  void put(const std::string& key, double value);
  void add(const std::string& key, double value);
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] std::map<std::string, double> results() const;
  void clear_results();

  // --- thread-local identity -----------------------------------------------
  /// The calling thread's simulated process (nullptr on non-rank threads).
  static ProcessState* current();

 private:
  /// Processes per table chunk, and chunks per table.
  static constexpr int kChunkBits = 10;
  static constexpr int kChunkSize = 1 << kChunkBits;
  static constexpr int kMaxChunks = 1024;

  /// The process with this pid, or nullptr when no such pid was published.
  /// Lock-free: the table only grows, and a slot is written before the
  /// release store of nprocs_ that publishes it.
  [[nodiscard]] ProcessState* find(ProcId pid) const {
    if (pid < 0 || pid >= nprocs_.load(std::memory_order_acquire)) return nullptr;
    return table_[static_cast<size_t>(pid >> kChunkBits)]
                 [static_cast<size_t>(pid & (kChunkSize - 1))]
                     .get();
  }
  void thread_main(ProcessState* ps);
  /// Join every started rank thread (run() and ~Runtime).
  void join_threads();
  /// Mark `pid` dead and free its slot (mu_ held); nullptr if it already
  /// died or finished.  announce_kill() then publishes the death.
  ProcessState* mark_dead_locked(ProcId pid);
  void announce_kill(ProcessState* ps);
  /// Find/extend a host with a free slot; returns {host, slot}.  mu_ held.
  std::pair<int, int> allocate_slot_locked(int preferred_host);
  void dump_state() const;

  Options opt_;
  Checks checks_;
  /// Append-only process table: chunks of kChunkSize slots, allocated under
  /// mu_ and never moved or freed before ~Runtime.  nprocs_ publishes them.
  std::array<std::unique_ptr<std::unique_ptr<ProcessState>[]>, kMaxChunks> table_;
  std::atomic<int> nprocs_{0};

  mutable std::mutex mu_;  // guards slot placement (table appends, hosts_), apps_, active_
  std::condition_variable done_cv_;
  std::vector<std::vector<bool>> hosts_;  // hosts_[h][s] = slot occupied
  std::vector<bool> host_failed_;         // failed nodes: slots unusable
  std::map<int, int> host_substitute_;    // failed host -> its spare replacement
  std::map<std::string, EntryFn> apps_;
  int active_ = 0;

  std::atomic<std::uint64_t> failure_epoch_{0};
  std::atomic<std::uint64_t> membership_epoch_{0};
  std::atomic<int> killed_{0};

  mutable std::mutex ctx_mu_;
  std::map<std::uint64_t, std::shared_ptr<CommContext>> contexts_;
  std::uint64_t next_ctx_ = 1;

  mutable std::mutex results_mu_;
  std::map<std::string, double> results_;

  ChaosHook chaos_hook_;

  Trace trace_;
};

}  // namespace ftmpi
