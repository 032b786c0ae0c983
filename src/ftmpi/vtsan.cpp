// Virtual-time happens-before tracker (see vtsan.hpp).

#include "ftmpi/vtsan.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "ftmpi/runtime.hpp"

namespace ftmpi::vtsan {

namespace {

/// A rank's vector clock: per-ProcId event counters.  Sparse map rather
/// than a dense vector because spawn keeps growing the pid space mid-run.
using VClock = Message::VClock;

/// One recorded access to an instrumented object.  `vtime` is the rank's
/// simulated-seconds clock at the access, for diagnostics only.
struct Site {
  std::source_location at;
  double vtime = 0.0;
  std::uint64_t clock = 0;  ///< accessor's own clock component at the access
};

struct ObjRec {
  bool has_write = false;
  ProcId write_rank = kNullProc;
  Site write;
  std::map<ProcId, Site> reads;  ///< last read per rank since the last write
};

// The whole simulated cluster lives in one process, so one table sees every
// rank.  All keys lead with the Runtime address: a test binary runs many
// Runtime instances in sequence and pids/context ids restart in each one.
std::mutex g_mu;
std::map<std::pair<const void*, ProcId>, VClock> g_clocks;
std::map<std::pair<const void*, std::string>, ObjRec> g_objects;
/// Creator snapshots for not-yet-started processes, consumed at thread start.
std::map<std::pair<const void*, ProcId>, VClock> g_start;
/// Per-runtime driver clock: run() folds every rank clock into it, and the
/// next run()'s processes inherit it — what orders back-to-back runs.
std::map<const void*, VClock> g_driver;

std::uint64_t component(const VClock& vc, ProcId pid) {
  const auto it = vc.find(pid);
  return it == vc.end() ? 0 : it->second;
}

void join_into(VClock& dst, const VClock& src) {
  for (const auto& [pid, v] : src) {
    auto& slot = dst[pid];
    if (v > slot) slot = v;
  }
}

[[noreturn]] void die() {
  std::fflush(stderr);
  std::abort();
}

/// Abort with the pinned two-site diagnostic.  `label` is either
/// "write-write" or "read-write"; `prev` is the earlier unordered access by
/// `prev_rank`, `seen` that rank's component as the current rank knows it.
[[noreturn]] void report_race(const char* label, const char* kind, const std::string& name,
                              ProcId me, const std::source_location& at, double my_vtime,
                              ProcId prev_rank, const Site& prev, std::uint64_t seen) {
  std::fprintf(stderr,
               "ftmpi-vtsan: %s race on %s '%s': pid %d access at %s:%d (vt %.6f) "
               "is unordered with pid %d access at %s:%d (vt %.6f)\n"
               "ftmpi-vtsan:   no message chain connects the accesses "
               "(clock[%d]=%" PRIu64 " < %" PRIu64 "); the structure's mutex "
               "serializes them only by OS-thread accident — a fiber scheduler "
               "interleaving ranks on one carrier thread could run them in "
               "either order\n",
               label, kind, name.c_str(), me, at.file_name(), static_cast<int>(at.line()),
               my_vtime, prev_rank, prev.at.file_name(), static_cast<int>(prev.at.line()),
               prev.vtime, prev_rank, seen, prev.clock);
  die();
}

}  // namespace

void on_access(bool is_write, const char* kind, const std::string& name,
               std::source_location at) {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr) return;
  std::lock_guard<std::mutex> lock(g_mu);
  VClock& my = g_clocks[{ps->rt, ps->pid}];
  const std::uint64_t now = ++my[ps->pid];
  ObjRec& o = g_objects[{ps->rt, std::string(kind) + " '" + name + "'"}];
  // Against the last write: a conflict for reads and writes alike.
  if (o.has_write && o.write_rank != ps->pid) {
    const std::uint64_t seen = component(my, o.write_rank);
    if (seen < o.write.clock) {
      report_race(is_write ? "write-write" : "read-write", kind, name, ps->pid, at,
                  ps->vclock, o.write_rank, o.write, seen);
    }
  }
  if (is_write) {
    // Against every read since the last write: each is a conflict.
    for (const auto& [rd, site] : o.reads) {
      if (rd == ps->pid) continue;
      const std::uint64_t seen = component(my, rd);
      if (seen < site.clock) {
        report_race("read-write", kind, name, ps->pid, at, ps->vclock, rd, site, seen);
      }
    }
    o.has_write = true;
    o.write_rank = ps->pid;
    o.write = Site{at, ps->vclock, now};
    // The ordered reads are dominated by this write; later accesses need
    // only be ordered after the write.
    o.reads.clear();
  } else {
    o.reads[ps->pid] = Site{at, ps->vclock, now};
  }
}

void stamp_send(Message& msg) {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr) return;
  std::lock_guard<std::mutex> lock(g_mu);
  VClock& my = g_clocks[{ps->rt, ps->pid}];
  ++my[ps->pid];
  msg.vt = std::make_unique<const VClock>(my);
}

void join_receive(const Message& msg) {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr || msg.vt == nullptr) return;
  std::lock_guard<std::mutex> lock(g_mu);
  VClock& my = g_clocks[{ps->rt, ps->pid}];
  ++my[ps->pid];
  join_into(my, *msg.vt);
}

void on_spawn(const void* rt, ProcId child) {
  ProcessState* ps = Runtime::current();
  std::lock_guard<std::mutex> lock(g_mu);
  if (ps != nullptr) {
    VClock& my = g_clocks[{ps->rt, ps->pid}];
    ++my[ps->pid];
    g_start[{ps->rt, child}] = my;
  } else {
    // Driver-thread launch: inherit everything previous runs on this
    // runtime produced (empty on the first run).
    const auto it = g_driver.find(rt);
    if (it != g_driver.end()) g_start[{rt, child}] = it->second;
  }
}

void on_thread_start() {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr) return;
  std::lock_guard<std::mutex> lock(g_mu);
  const auto it = g_start.find({ps->rt, ps->pid});
  if (it == g_start.end()) return;
  join_into(g_clocks[{ps->rt, ps->pid}], it->second);
  g_start.erase(it);
}

void on_run_complete(const void* rt) {
  std::lock_guard<std::mutex> lock(g_mu);
  VClock& drv = g_driver[rt];
  for (auto it = g_clocks.lower_bound({rt, kNullProc});
       it != g_clocks.end() && it->first.first == rt; ++it) {
    join_into(drv, it->second);
  }
}

void on_runtime_destroyed(const void* rt) {
  std::lock_guard<std::mutex> lock(g_mu);
  const auto wipe = [rt](auto& table) {
    const auto lo = table.lower_bound({rt, {}});
    auto hi = lo;
    while (hi != table.end() && hi->first.first == rt) ++hi;
    table.erase(lo, hi);
  };
  wipe(g_clocks);
  wipe(g_objects);
  wipe(g_start);
  g_driver.erase(rt);
}

}  // namespace ftmpi::vtsan

