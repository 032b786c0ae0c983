#include "ftmpi/runtime.hpp"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string_view>

#include "common/annotations.hpp"
#include "common/logging.hpp"
#include "ftmpi/dlsan.hpp"
#include "ftmpi/psan.hpp"
#include "ftmpi/vtsan.hpp"

namespace ftmpi {

namespace {
FTR_PER_RANK("becomes the fiber scheduler's current-task pointer, swapped on every context switch")
thread_local ProcessState* tls_proc = nullptr;

/// Parse FTR_CHECK.  A misspelt checker name must not silently run the
/// suite unchecked, so any unknown name throws.
Runtime::Checks parse_checks(const char* env) {
  Runtime::Checks checks;
  std::string_view rest = env != nullptr ? env : "";
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view name = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    if (name == "protocol") {
      checks.protocol = true;
    } else if (name == "vtsan") {
      checks.vtsan = true;
    } else if (name == "deadlock") {
      checks.deadlock = true;
    } else if (!name.empty()) {
      throw std::invalid_argument("FTR_CHECK: unknown checker '" + std::string(name) +
                                  "' (expected a comma-separated subset of "
                                  "protocol,vtsan,deadlock)");
    }
  }
  return checks;
}
}  // namespace

ProcessState* Runtime::current() { return tls_proc; }

Runtime::Runtime(Options opt)
    : opt_(std::move(opt)), checks_(parse_checks(std::getenv("FTR_CHECK"))) {
  if (opt_.slots_per_host <= 0) opt_.slots_per_host = 1;
  if (const char* env = std::getenv("FTR_TRACE"); env != nullptr && env[0] == '1') {
    trace_.enable();
  }
  if (const char* env = std::getenv("FTR_DETECTOR"); env != nullptr) {
    opt_.detector.enabled = std::string(env) != "off";
  }
  if (const char* env = std::getenv("FTR_HB_PERIOD"); env != nullptr) {
    if (const double v = std::atof(env); v > 0.0) opt_.detector.period = v;
  }
  if (const char* env = std::getenv("FTR_HB_SUSPECT"); env != nullptr) {
    if (const double v = std::atof(env); v > 0.0) opt_.detector.suspect_after = v;
  }
  if (const char* env = std::getenv("FTR_HB_TIMEOUT"); env != nullptr) {
    if (const double v = std::atof(env); v > 0.0) opt_.detector.confirm_after = v;
  }
  if (const char* env = std::getenv("FTR_AGREE"); env != nullptr) {
    opt_.tree_protocols = std::string(env) != "linear";
  }
  if (opt_.detector.suspect_after < opt_.detector.period) {
    opt_.detector.suspect_after = opt_.detector.period;
  }
  if (opt_.detector.confirm_after <= opt_.detector.suspect_after) {
    opt_.detector.confirm_after = 2.0 * opt_.detector.suspect_after;
  }
}

Runtime::~Runtime() {
  // All threads were joined by run(); joining again here covers the case
  // where a Runtime is destroyed after an aborted construction path.
  join_threads();
  // Pids and context ids restart per Runtime (and stack Runtimes can reuse
  // an address), so the checkers must forget this instance.
  if (checks_.protocol) psan::on_runtime_destroyed(this);
  if (checks_.vtsan) vtsan::on_runtime_destroyed(this);
  if (checks_.deadlock) dlsan::on_runtime_destroyed(this);
}

void Runtime::register_app(const std::string& name, EntryFn entry) {
  std::lock_guard<std::mutex> lock(mu_);
  apps_[name] = std::move(entry);
}

std::pair<int, int> Runtime::allocate_slot_locked(int preferred_host) {
  // With a bounded cluster (max_hosts > 0), growth stops at the bound and
  // the allocation can fail ({-1, -1}) — the substrate of spawn placement
  // failure and the shrink-mode recovery fallback.
  auto can_grow_to = [this](int h) {
    return opt_.max_hosts <= 0 || h < opt_.max_hosts;
  };
  auto grow_to = [this, &can_grow_to](int h) {
    if (!can_grow_to(h)) return false;
    while (static_cast<size_t>(h) >= hosts_.size()) {
      hosts_.emplace_back(static_cast<size_t>(opt_.slots_per_host), false);
      host_failed_.push_back(false);
    }
    return true;
  };
  auto find_free = [this](int h) -> int {
    if (host_failed_[static_cast<size_t>(h)]) return -1;
    for (int s = 0; s < opt_.slots_per_host; ++s) {
      if (!hosts_[static_cast<size_t>(h)][static_cast<size_t>(s)]) return s;
    }
    return -1;
  };
  if (preferred_host >= 0 && grow_to(preferred_host)) {
    // A failed node's placement requests are redirected to one consistent
    // spare host, so all of its replacements come up co-located (the
    // paper's future-work node-failure scenario).
    if (host_failed_[static_cast<size_t>(preferred_host)]) {
      const auto it = host_substitute_.find(preferred_host);
      if (it != host_substitute_.end()) {
        preferred_host = it->second;
      } else if (const int spare = static_cast<int>(hosts_.size()); grow_to(spare)) {
        host_substitute_[preferred_host] = spare;
        FTR_INFO("ftmpi: failed host %d substituted by spare host %d", preferred_host,
                 spare);
        preferred_host = spare;
      } else {
        preferred_host = -1;  // cluster bounded and full of failed/occupied hosts
      }
    }
    if (preferred_host >= 0) {
      const int s = find_free(preferred_host);
      if (s >= 0) {
        hosts_[static_cast<size_t>(preferred_host)][static_cast<size_t>(s)] = true;
        return {preferred_host, s};
      }
      FTR_WARN("ftmpi: preferred host %d full; falling back to first free slot",
               preferred_host);
    }
  }
  for (size_t h = 0; h < hosts_.size(); ++h) {
    const int s = find_free(static_cast<int>(h));
    if (s >= 0) {
      hosts_[h][static_cast<size_t>(s)] = true;
      return {static_cast<int>(h), s};
    }
  }
  if (!grow_to(static_cast<int>(hosts_.size()))) {
    FTR_WARN("ftmpi: cluster exhausted (%zu hosts, max %d); placement failed",
             hosts_.size(), opt_.max_hosts);
    return {-1, -1};
  }
  hosts_.back()[0] = true;
  return {static_cast<int>(hosts_.size()) - 1, 0};
}

void Runtime::fail_host(int host) {
  // The residents die in the same critical section that marks the host
  // failed: nobody can observe host_failed(host) while one still runs.
  std::vector<ProcessState*> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (host < 0 || static_cast<size_t>(host) >= hosts_.size()) return;
    host_failed_[static_cast<size_t>(host)] = true;
    for (ProcId pid = 0; pid < nprocs_.load(); ++pid) {
      if (find(pid)->host != host) continue;
      if (ProcessState* v = mark_dead_locked(pid)) victims.push_back(v);
    }
  }
  FTR_INFO("ftmpi: node failure on host %d kills %zu processes", host, victims.size());
  trace_.record(0.0, kNullProc, TraceEvent::HostFail, host);
  for (ProcessState* v : victims) announce_kill(v);
}

bool Runtime::host_failed(int host) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (host < 0 || static_cast<size_t>(host) >= host_failed_.size()) return false;
  return host_failed_[static_cast<size_t>(host)];
}

ProcId Runtime::create_process(const std::string& app, std::vector<std::string> argv,
                               int preferred_host, double start_clock) {
  std::lock_guard<std::mutex> lock(mu_);
  const ProcId pid = nprocs_.load(std::memory_order_relaxed);
  if (pid >= kMaxChunks * kChunkSize) throw std::length_error("ftmpi: process table full");
  const auto [host, slot] = allocate_slot_locked(preferred_host);
  if (host < 0) return kNullProc;
  auto& chunk = table_[static_cast<size_t>(pid >> kChunkBits)];
  if (!chunk) chunk = std::make_unique<std::unique_ptr<ProcessState>[]>(kChunkSize);
  auto& ps = chunk[static_cast<size_t>(pid & (kChunkSize - 1))];
  ps = std::make_unique<ProcessState>();
  ps->rt = this;
  ps->pid = pid;
  ps->app = app;
  ps->argv = std::move(argv);
  ps->vclock = start_clock;
  ps->host = host;
  ps->slot = slot;
  // Registered before any thread exists: run() creates the whole world
  // before starting rank 0, so the deadlock sanitizer never mistakes a
  // not-yet-started peer for an absent one.
  if (checks_.deadlock) dlsan::on_proc_created(this, ps.get());
  nprocs_.store(pid + 1, std::memory_order_release);
  return pid;
}

void Runtime::release_unstarted(ProcId pid) {
  std::lock_guard<std::mutex> lock(mu_);
  ProcessState* found = find(pid);
  if (found == nullptr) return;
  ProcessState& ps = *found;
  if (ps.thread.joinable() || ps.finished.load()) return;  // already started
  ps.dead.store(true);
  ps.finished.store(true);
  hosts_[static_cast<size_t>(ps.host)][static_cast<size_t>(ps.slot)] = false;
  if (checks_.deadlock) dlsan::on_proc_released(this, pid);
}

void Runtime::start_process(ProcId pid) {
  ProcessState* ps = &proc(pid);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++active_;
  }
  ps->started.store(true);
  // The creator's clock (or the driver clock) is what the new rank starts
  // from: spawn is a happens-before edge.
  if (checks_.vtsan) vtsan::on_spawn(this, pid);
  ps->thread = std::thread([this, ps] { thread_main(ps); });
}

void Runtime::thread_main(ProcessState* ps) {
  tls_proc = ps;
  if (checks_.vtsan) vtsan::on_thread_start();
  if (checks_.deadlock) dlsan::on_thread_start();
  EntryFn entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = apps_.find(ps->app);
    if (it != apps_.end()) entry = it->second;
  }
  if (entry) {
    try {
      entry(ps->argv);
    } catch (const ProcessKilled&) {
      // Fail-stop unwind: the process executes nothing further.
      FTR_DEBUG("ftmpi: pid %d terminated by kill", ps->pid);
    } catch (const std::exception& e) {
      FTR_ERROR("ftmpi: pid %d terminated by exception: %s", ps->pid, e.what());
    }
  } else {
    FTR_ERROR("ftmpi: pid %d: no registered app named '%s'", ps->pid, ps->app.c_str());
  }
  bool killed = false;
  {
    // Under mu_, like mark_dead_locked(): a kill either lands before this
    // (and is recorded here) or finds the process finished (and is a no-op).
    std::lock_guard<std::mutex> lock(mu_);
    ps->finished.store(true);
    killed = ps->dead.load();
    --active_;
  }
  // The victim records its own kill, on its own thread and clock.
  if (killed) trace_.record(ps->vclock, ps->pid, TraceEvent::Kill, ps->world_rank);
  membership_epoch_.fetch_add(1);
  done_cv_.notify_all();
  // Peers blocked on this process must re-evaluate their wait predicates.
  if (checks_.deadlock) dlsan::on_thread_exit();
  notify_all_procs();
  tls_proc = nullptr;
}

void Runtime::join_threads() {
  // Join without holding mu_, so no thread's exit path can block on the
  // joiner.
  std::vector<std::thread*> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (ProcId pid = 0; pid < nprocs_.load(); ++pid) {
      if (find(pid)->thread.joinable()) to_join.push_back(&find(pid)->thread);
    }
  }
  for (std::thread* t : to_join) t->join();
}

int Runtime::run(const std::string& app, int world_size, std::vector<std::string> argv) {
  if (world_size <= 0) return 0;
  const int killed_before = killed_.load();

  Group world_group;
  std::vector<ProcId> pids;
  pids.reserve(static_cast<size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    // The initial placement follows the paper's hostfile: rank r lands on
    // host r / SLOTS.
    const ProcId pid = create_process(app, argv, r / opt_.slots_per_host, 0.0);
    pids.push_back(pid);
    world_group.pids.push_back(pid);
  }
  const auto world = create_context(world_group);
  for (int r = 0; r < world_size; ++r) {
    auto& ps = proc(pids[static_cast<size_t>(r)]);
    ps.world_ctx = world->id;
    ps.world_rank = r;
  }
  for (ProcId pid : pids) start_process(pid);

  // Wait for completion with a real-time watchdog: a protocol bug that
  // deadlocks rank threads cannot be unwound, so fail loudly.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opt_.real_time_limit_sec));
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (active_ > 0) {
      // ftlint:allow(FTL008 driver-thread watchdog wait; run() never executes on a rank, so no fiber can park here)
      if (done_cv_.wait_until(lock, deadline) == std::cv_status::timeout && active_ > 0) {
        lock.unlock();
        dump_state();
        FTR_ERROR("ftmpi: watchdog expired after %.0f s with %d processes still active",
                  opt_.real_time_limit_sec, active_);
        std::abort();
      }
    }
  }
  join_threads();
  // Fold every rank clock into the driver clock so the next run() on this
  // runtime is ordered after this one (blackboard keys are often reused).
  if (checks_.vtsan) vtsan::on_run_complete(this);
  return killed_.load() - killed_before;
}

ProcessState* Runtime::mark_dead_locked(ProcId pid) {
  ProcessState* ps = find(pid);
  if (ps == nullptr) return nullptr;
  if (ps->dead.load() || ps->finished.load()) return nullptr;
  ps->dead.store(true);
  // Free the host slot so repair can re-spawn on the same node, which is
  // exactly the paper's load-balancing strategy.
  hosts_[static_cast<size_t>(ps->host)][static_cast<size_t>(ps->slot)] = false;
  return ps;
}

void Runtime::kill(ProcId pid) {
  ProcessState* ps = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ps = mark_dead_locked(pid);
  }
  if (ps != nullptr) announce_kill(ps);
}

void Runtime::announce_kill(ProcessState* ps) {
  const ProcId pid = ps->pid;
  killed_.fetch_add(1);
  failure_epoch_.fetch_add(1);
  membership_epoch_.fetch_add(1);
  notify_all_procs();
  FTR_DEBUG("ftmpi: killed pid %d (world rank %d)", pid, ps->world_rank);
}

bool Runtime::is_dead(ProcId pid) const {
  const ProcessState* ps = find(pid);
  return ps == nullptr || ps->dead.load();
}

std::vector<ProcId> Runtime::dead_members(const Group& g) const {
  std::vector<ProcId> out;
  for (ProcId p : g.pids) {
    if (proc(p).dead.load()) out.push_back(p);
  }
  return out;
}

int Runtime::host_of(ProcId pid) const { return proc(pid).host; }

int Runtime::total_processes() const { return nprocs_.load(std::memory_order_acquire); }

std::vector<ProcId> Runtime::active_pids() const {
  std::vector<ProcId> out;
  const int n = nprocs_.load(std::memory_order_acquire);
  out.reserve(static_cast<size_t>(n));
  for (ProcId pid = 0; pid < n; ++pid) {
    const ProcessState* ps = find(pid);
    // A process leaves the RTE-visible membership only by *deregistering
    // cleanly* (finishing without having been killed).  A crashed process
    // stays listed — its silence in the heartbeat ring is exactly what the
    // detector's timeout observes; it leaves each rank's ring view only
    // when that rank learns of the death (known_failed).
    if (ps->started.load() && (ps->dead.load() || !ps->finished.load())) {
      out.push_back(ps->pid);
    }
  }
  return out;
}

std::shared_ptr<CommContext> Runtime::create_context(Group local, Group remote, bool inter) {
  auto ctx = std::make_shared<CommContext>();
  ctx->is_inter = inter;
  ctx->group[0] = std::move(local);
  ctx->group[1] = std::move(remote);
  std::lock_guard<std::mutex> lock(ctx_mu_);
  ctx->id = next_ctx_++;
  contexts_[ctx->id] = ctx;
  if (checks_.vtsan) vtsan::on_access(/*is_write=*/true, "comm context", std::to_string(ctx->id));
  return ctx;
}

std::shared_ptr<CommContext> Runtime::find_context(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(ctx_mu_);
  const auto it = contexts_.find(id);
  if (checks_.vtsan && it != contexts_.end()) {
    vtsan::on_access(/*is_write=*/false, "comm context", std::to_string(id));
  }
  return it == contexts_.end() ? nullptr : it->second;
}

ProcessState& Runtime::proc(ProcId pid) const {
  ProcessState* ps = find(pid);
  if (ps == nullptr) throw std::out_of_range("ftmpi: no process with pid " + std::to_string(pid));
  return *ps;
}

void Runtime::deliver(ProcId dst, Message msg) {
  if (checks_.vtsan) vtsan::stamp_send(msg);
  ProcessState* ps = find(dst);
  if (ps == nullptr) return;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(ps->mu);
    if (ps->dead.load()) return;  // the network cannot deliver to a crashed process
    const bool det = msg.ctrl && (msg.tag == tags::kHeartbeat || msg.tag == tags::kGossip);
    if (det) ps->det_pending.fetch_add(1, std::memory_order_relaxed);
    // Only a message that can end the owner's wait wakes it: one its
    // receive matches, or detector traffic, which the wait loop drains.
    wake = ps->waiting &&
           (det || ps->wait_match == nullptr || ps->wait_match(msg, ps->wait_arg));
    ps->mailbox.push_back(std::move(msg));
    if (wake) {
      ps->waiting = false;
      if (checks_.deadlock) dlsan::on_wake(this, dst);
    }
  }
  if (wake) ps->cv.notify_one();
}

void Runtime::notify_all_procs() {
  const int n = nprocs_.load(std::memory_order_acquire);
  for (ProcId pid = 0; pid < n; ++pid) {
    ProcessState& ps = *find(pid);
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(ps.mu);
      wake = ps.waiting;
      ps.waiting = false;
      // Cleared with `waiting`, under the same lock: a rank the deadlock
      // checker sees registered is one nobody has woken yet.
      if (wake && checks_.deadlock) dlsan::on_wake(this, pid);
    }
    if (wake) ps.cv.notify_one();
  }
}

Runtime::Stats Runtime::stats() const {
  Stats s;
  const int n = nprocs_.load(std::memory_order_acquire);
  for (ProcId pid = 0; pid < n; ++pid) {
    const ProcessState* ps = find(pid);
    s.messages += ps->sent_messages.load(std::memory_order_relaxed);
    s.bytes += ps->sent_bytes.load(std::memory_order_relaxed);
    s.cross_host += ps->sent_cross_host.load(std::memory_order_relaxed);
  }
  return s;
}

void Runtime::put(const std::string& key, double value) {
  if (checks_.vtsan) vtsan::on_access(/*is_write=*/true, "blackboard key", key);
  std::lock_guard<std::mutex> lock(results_mu_);
  results_[key] = value;
}

void Runtime::add(const std::string& key, double value) {
  // Deliberately not vtsan-checked: add() is a commutative accumulation and
  // "every rank adds its share" is the documented idiom.
  std::lock_guard<std::mutex> lock(results_mu_);
  results_[key] += value;
}

double Runtime::get(const std::string& key, double fallback) const {
  if (checks_.vtsan) vtsan::on_access(/*is_write=*/false, "blackboard key", key);
  std::lock_guard<std::mutex> lock(results_mu_);
  const auto it = results_.find(key);
  return it == results_.end() ? fallback : it->second;
}

std::map<std::string, double> Runtime::results() const {
  std::lock_guard<std::mutex> lock(results_mu_);
  return results_;
}

void Runtime::clear_results() {
  std::lock_guard<std::mutex> lock(results_mu_);
  results_.clear();
}

void Runtime::dump_state() const {
  for (ProcId pid = 0; pid < total_processes(); ++pid) {
    ProcessState* ps = find(pid);
    std::lock_guard<std::mutex> plock(ps->mu);
    FTR_ERROR("  pid=%d rank=%d host=%d dead=%d finished=%d mailbox=%zu vclock=%.6f",
              ps->pid, ps->world_rank, ps->host, ps->dead.load() ? 1 : 0,
              ps->finished.load() ? 1 : 0, ps->mailbox.size(), ps->vclock);
  }
}

}  // namespace ftmpi
