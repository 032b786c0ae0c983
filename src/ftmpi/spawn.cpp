// Dynamic process management: MPI_Comm_spawn_multiple and
// MPI_Intercomm_merge — the primitives the paper's repairComm (Fig. 5) uses
// to re-create failed processes on their original hosts and attach them to
// the survivors.

#include <numeric>

#include "common/errors.hpp"
#include "common/logging.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/detail.hpp"
#include "ftmpi/psan.hpp"

namespace ftmpi {

namespace {

struct SpawnReply {
  int outcome;
  std::uint64_t inter_ctx;
};

}  // namespace

int comm_spawn_multiple(const std::vector<SpawnUnit>& units, int root, const Comm& c,
                        Comm* intercomm, std::vector<int>* errcodes) {
  detail::check_alive();
  chaos_point("spawn");
  *intercomm = Comm{};
  if (c.is_null() || c.is_inter()) return kErrComm;
  if (root < 0 || root >= c.size()) return finish(c, kErrArg);
  if (detail::rt().checks().protocol) psan::on_collective(c, "comm_spawn_multiple", root);

  Runtime& r = detail::rt();
  const std::uint64_t id = c.context()->id;
  const Group& g = c.group();
  ProcessState& me = detail::self();

  if (c.rank() == root) {
    int total = 0;
    for (const auto& u : units) total += std::max(u.maxprocs, 0);

    // RTE launch cost: base setup plus per-process fork/exec and wire-up.
    const CostModel& cm = r.cost();
    detail::charge(cm.spawn_base + cm.spawn_per_proc * total);
    // Connection wire-up between every existing member and each new
    // process — the size-dependent term that dominates Table I's spawn
    // column at scale.
    detail::charge(cm.spawn_setup_per_proc * static_cast<double>(std::max(total, 1)) *
                   static_cast<double>(g.size()));
    // Plus launcher handshake rounds over the parent communicator.
    detail::charge_coordinator_rounds(cm.spawn_handshake_rounds * std::max(total, 1),
                                      g.size());

    // Create the children (threads not yet started).  If the cluster cannot
    // place every requested process, roll back the partial batch and report
    // kErrSpawn uniformly: every member learns through the reply below that
    // no replacement exists, which is what triggers shrink-mode recovery.
    Group children;
    bool placement_failed = false;
    for (const auto& u : units) {
      for (int i = 0; i < u.maxprocs; ++i) {
        const ProcId pid = r.create_process(u.command, u.argv, u.host, 0.0);
        if (pid == kNullProc) {
          placement_failed = true;
          break;
        }
        children.pids.push_back(pid);
      }
      if (placement_failed) break;
    }
    if (placement_failed) {
      for (ProcId pid : children.pids) r.release_unstarted(pid);
      FTR_WARN("ftmpi: spawn of %d replacements failed: cluster exhausted", total);
      const SpawnReply reply{kErrSpawn, 0};
      for (int rr = 0; rr < g.size(); ++rr) {
        if (rr == root) continue;
        // Best-effort delivery of the uniform kErrSpawn verdict: a member
        // that died meanwhile observes its own failure instead.
        ftr::observe_error(detail::ctrl_send(g.pids[static_cast<size_t>(rr)], id,
                                             tags::kSpawnInfo, &reply, sizeof(reply)),
                           "spawn.reply");
      }
      if (errcodes != nullptr) errcodes->assign(units.size(), kErrSpawn);
      return finish(c, kErrSpawn);
    }
    const auto child_world = r.create_context(children);
    const auto inter = r.create_context(g, children, /*inter=*/true);
    for (int k = 0; k < children.size(); ++k) {
      ProcessState& ch = r.proc(children.pids[static_cast<size_t>(k)]);
      ch.world_ctx = child_world->id;
      ch.world_rank = k;
      ch.parent_ctx = inter->id;
      ch.vclock = me.vclock;  // children come up once the launcher is done
    }
    for (ProcId pid : children.pids) r.start_process(pid);
    r.trace().record(me.vclock, me.pid, TraceEvent::Spawn, children.size());

    SpawnReply reply{kSuccess, inter->id};
    for (int rr = 0; rr < g.size(); ++rr) {
      if (rr == root) continue;
      // A failed reply send means that member just died.  Do NOT return an
      // error from the root alone: the other members received a success
      // reply and are already headed into the validation agree on the
      // intercommunicator, which the root also joins — that is where the
      // death is observed *uniformly* by every parent and child.  Bailing
      // out here would leave the peers (and the children) agreeing with a
      // coordinator that already went back to revoke.
      ftr::observe_error(detail::ctrl_send(g.pids[static_cast<size_t>(rr)], id,
                                           tags::kSpawnInfo, &reply, sizeof(reply)),
                         "spawn.reply");
    }
    if (errcodes != nullptr) errcodes->assign(units.size(), kSuccess);
    *intercomm = Comm(inter, 0, me.pid);
    chaos_point("spawn.done");
    return finish(c, kSuccess);
  }

  std::vector<std::byte> payload;
  detail::RecvOpts opts;
  opts.revoke_ctx = c.context();
  const int rc = detail::ctrl_recv(g.pids[static_cast<size_t>(root)], id, tags::kSpawnInfo,
                                   &payload, opts);
  if (rc != kSuccess) return finish(c, rc == kErrRevoked ? rc : kErrProcFailed);
  const auto reply = detail::unpack<SpawnReply>(payload);
  if (errcodes != nullptr) errcodes->assign(units.size(), reply.outcome);
  if (reply.inter_ctx != 0) {
    *intercomm = Comm(r.find_context(reply.inter_ctx), 0, me.pid);
  }
  chaos_point("spawn.done");
  return finish(c, reply.outcome);
}

int intercomm_merge(const Comm& inter, bool high, Comm* out) {
  detail::check_alive();
  chaos_point("merge");
  *out = Comm{};
  if (inter.is_null() || !inter.is_inter()) return kErrComm;
  if (detail::rt().checks().protocol) psan::on_collective(inter, "intercomm_merge", -1);

  Runtime& r = detail::rt();
  const std::uint64_t id = inter.context()->id;
  const Group& local = inter.group();
  const Group& remote = inter.remote_group();
  ProcessState& me = detail::self();
  const ProcId local_leader = local.pids[0];
  const ProcId remote_leader = remote.pids[0];

  // Cascading-failure hardening: a leader that fails mid-protocol announces
  // the failure (merged_id = 0) to every non-leader of BOTH groups.
  // Non-leaders wait on whichever leader speaks first; without the
  // announcement, a peer's death observed only by one leader would leave
  // the other side blocked on a live process that already returned.
  auto announce_failure = [&] {
    const std::uint64_t none = 0;
    for (const Group* grp : {&local, &remote}) {
      for (ProcId p : grp->pids) {
        if (p == me.pid || p == local_leader || p == remote_leader) continue;
        // Best-effort: a non-leader that died meanwhile needs no announcement.
        ftr::observe_error(detail::ctrl_send(p, id, tags::kMergeInfo, &none, sizeof(none)),
                           "merge.announce");
      }
    }
    return finish(inter, kErrProcFailed);
  };

  std::uint64_t merged_id = 0;
  if (inter.rank() == 0) {
    // Leaders exchange their `high` flags to decide the order of the merged
    // groups; ties (both sides passing the same flag) are broken by pid.
    const int my_flag = high ? 1 : 0;
    if (detail::ctrl_send(remote_leader, id, tags::kMergeCross, &my_flag, sizeof(my_flag)) !=
        kSuccess) {
      return announce_failure();
    }
    std::vector<std::byte> payload;
    if (detail::ctrl_recv(remote_leader, id, tags::kMergeCross, &payload) != kSuccess) {
      return announce_failure();
    }
    const int remote_flag = detail::unpack<int>(payload);
    bool i_am_low;
    if (my_flag != remote_flag) {
      i_am_low = my_flag == 0;
    } else {
      i_am_low = me.pid < remote_leader;
    }

    if (i_am_low) {
      Group merged = local;
      merged.pids.insert(merged.pids.end(), remote.pids.begin(), remote.pids.end());
      const auto ctx = r.create_context(std::move(merged));
      merged_id = ctx->id;
      r.trace().record(me.vclock, me.pid, TraceEvent::Merge, ctx->group[0].size());
      for (ProcId p : ctx->group[0].pids) {
        if (p == me.pid) continue;
        // A member that died meanwhile is observed uniformly at the next
        // operation on the merged communicator; keep delivering to the rest.
        ftr::observe_error(
            detail::ctrl_send(p, id, tags::kMergeInfo, &merged_id, sizeof(merged_id)),
            "merge.announce");
      }
    } else {
      std::vector<std::byte> info;
      if (detail::ctrl_recv(remote_leader, id, tags::kMergeInfo, &info) != kSuccess) {
        return announce_failure();
      }
      merged_id = detail::unpack<std::uint64_t>(info);
      if (merged_id == 0) return finish(inter, kErrProcFailed);
    }
  } else {
    // Non-leaders: the merged-context announcement comes from whichever
    // side's leader ended up low (or a failure notice from either leader).
    std::vector<std::byte> info;
    if (detail::ctrl_recv_any({local_leader, remote_leader}, id, tags::kMergeInfo, &info,
                              nullptr) != kSuccess) {
      return finish(inter, kErrProcFailed);
    }
    merged_id = detail::unpack<std::uint64_t>(info);
    if (merged_id == 0) return finish(inter, kErrProcFailed);
  }

  *out = Comm(r.find_context(merged_id), 0, me.pid);
  return kSuccess;
}

}  // namespace ftmpi
