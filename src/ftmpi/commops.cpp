// Communicator management: split, dup, group access, error handlers.

#include <algorithm>
#include <map>

#include "common/errors.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/detail.hpp"
#include "ftmpi/psan.hpp"

namespace ftmpi {

int comm_set_errhandler(const Comm& c, ErrhandlerFn handler) {
  if (c.is_null()) return kErrComm;
  c.local().errhandler = std::move(handler);
  return kSuccess;
}

Group comm_group(const Comm& c) { return c.is_null() ? Group{} : c.group(); }

namespace {

struct SplitRequest {
  int color;
  int key;
  int rank;
};

struct SplitReply {
  int outcome;
  std::uint64_t ctx_id;  // 0 = undefined color (null comm)
};

}  // namespace

int comm_split(const Comm& c, int color, int key, Comm* out) {
  detail::check_alive();
  chaos_point("split");
  *out = Comm{};
  if (c.is_null() || c.is_inter()) return kErrComm;
  if (detail::rt().checks().protocol) psan::on_collective(c, "comm_split", -1);
  if (c.is_revoked()) return finish(c, kErrRevoked);

  const std::uint64_t id = c.context()->id;
  const Group& g = c.group();
  const ProcessState& me = detail::self();
  detail::RecvOpts opts;
  opts.revoke_ctx = c.context();

  if (c.rank() == 0) {
    // Collect (color, key) from every member; any failure aborts the split
    // uniformly (MPI_Comm_split requires full participation).
    std::vector<SplitRequest> reqs(static_cast<size_t>(g.size()));
    reqs[0] = {color, key, 0};
    int outcome = kSuccess;
    for (int r = 1; r < g.size(); ++r) {
      std::vector<std::byte> payload;
      const int st =
          detail::ctrl_recv(g.pids[static_cast<size_t>(r)], id, tags::kSplitUp, &payload, opts);
      if (st == kErrRevoked) return finish(c, st);
      if (st != kSuccess) {
        outcome = kErrProcFailed;
        continue;
      }
      reqs[static_cast<size_t>(r)] = detail::unpack<SplitRequest>(payload);
      reqs[static_cast<size_t>(r)].rank = r;
    }

    std::map<int, std::uint64_t> ctx_of_color;
    std::vector<SplitReply> replies(static_cast<size_t>(g.size()), {outcome, 0});
    if (outcome == kSuccess) {
      // Group members by color; order each new communicator by (key, rank).
      std::map<int, std::vector<SplitRequest>> by_color;
      for (const auto& rq : reqs) {
        if (rq.color != kUndefinedColor) by_color[rq.color].push_back(rq);
      }
      for (auto& [col, members] : by_color) {
        std::stable_sort(members.begin(), members.end(),
                         [](const SplitRequest& a, const SplitRequest& b) {
                           return a.key != b.key ? a.key < b.key : a.rank < b.rank;
                         });
        Group ng;
        for (const auto& rq : members) {
          ng.pids.push_back(g.pids[static_cast<size_t>(rq.rank)]);
        }
        ctx_of_color[col] = detail::rt().create_context(std::move(ng))->id;
      }
      for (int r = 0; r < g.size(); ++r) {
        const int col = reqs[static_cast<size_t>(r)].color;
        replies[static_cast<size_t>(r)] = {
            kSuccess, col == kUndefinedColor ? 0 : ctx_of_color[col]};
      }
    }
    for (int r = 1; r < g.size(); ++r) {
      // A member that died after its request still gets its reply attempted;
      // the death is observed uniformly at the next collective.
      ftr::observe_error(
          detail::ctrl_send(g.pids[static_cast<size_t>(r)], id, tags::kSplitDown,
                            &replies[static_cast<size_t>(r)], sizeof(SplitReply)),
          "split.reply");
    }
    if (outcome == kSuccess && color != kUndefinedColor) {
      *out = Comm(detail::rt().find_context(ctx_of_color[color]), 0, me.pid);
    }
    if (outcome == kSuccess) {
      detail::rt().trace().record(detail::now(), me.pid, TraceEvent::Split,
                                  static_cast<long long>(ctx_of_color.size()));
    }
    return finish(c, outcome);
  }

  const SplitRequest rq{color, key, c.rank()};
  int rc = detail::ctrl_send(g.pids[0], id, tags::kSplitUp, &rq, sizeof(rq));
  if (rc != kSuccess) return finish(c, kErrProcFailed);
  std::vector<std::byte> payload;
  rc = detail::ctrl_recv(g.pids[0], id, tags::kSplitDown, &payload, opts);
  if (rc != kSuccess) return finish(c, rc == kErrRevoked ? rc : kErrProcFailed);
  const auto reply = detail::unpack<SplitReply>(payload);
  if (reply.outcome == kSuccess && reply.ctx_id != 0) {
    *out = Comm(detail::rt().find_context(reply.ctx_id), 0, me.pid);
  }
  return finish(c, reply.outcome);
}

int comm_dup(const Comm& c, Comm* out) { return comm_split(c, 0, c.rank(), out); }

namespace {

/// Leader announcement of the freshly built intercommunicator to its local
/// group (or a failure notice when the cross-leader exchange died).
struct InterCreateInfo {
  int outcome;
  int side;              // which group of the inter context we belong to
  std::uint64_t ctx_id;  // 0 on failure
};

}  // namespace

int intercomm_create(const Comm& local, int local_leader, const Comm& bridge,
                     int remote_leader, int tag, Comm* out) {
  detail::check_alive();
  *out = Comm{};
  if (local.is_null() || local.is_inter()) return kErrComm;
  if (local_leader < 0 || local_leader >= local.size()) return kErrArg;
  if (detail::rt().checks().protocol) {
    psan::on_collective(local, "intercomm_create", local_leader);
  }
  if (local.is_revoked()) return finish(local, kErrRevoked);

  Runtime& r = detail::rt();
  const std::uint64_t id = local.context()->id;
  const Group& g = local.group();
  const ProcessState& me = detail::self();
  detail::RecvOpts opts;
  opts.revoke_ctx = local.context();

  if (local.rank() != local_leader) {
    // Non-leaders only wait for the leader's announcement; the bridge
    // communicator is significant at the leaders alone (as in MPI).
    std::vector<std::byte> payload;
    const int rc = detail::ctrl_recv(g.pids[static_cast<size_t>(local_leader)], id,
                                     tags::kInterCreateInfo, &payload, opts);
    if (rc != kSuccess) return finish(local, rc == kErrRevoked ? rc : kErrProcFailed);
    const auto info = detail::unpack<InterCreateInfo>(payload);
    if (info.outcome != kSuccess || info.ctx_id == 0) {
      return finish(local, info.outcome == kSuccess ? kErrProcFailed : info.outcome);
    }
    *out = Comm(r.find_context(info.ctx_id), info.side, me.pid);
    return kSuccess;
  }

  // Leader path.  The exchange rides the bridge communicator's control
  // plane, addressed by pid, so it works even while the bridge's own user
  // plane is quiesced (overlapped recovery builds the repaired world while
  // survivors still compute on derived sub-communicators).
  auto announce = [&](const InterCreateInfo& info) {
    for (int m = 0; m < g.size(); ++m) {
      if (m == local_leader) continue;
      // A member that died meanwhile is observed uniformly at the next
      // operation on the new intercommunicator; keep delivering to the rest.
      ftr::observe_error(detail::ctrl_send(g.pids[static_cast<size_t>(m)], id,
                                           tags::kInterCreateInfo, &info,
                                           sizeof(InterCreateInfo)),
                         "intercreate.announce");
    }
  };
  auto fail_out = [&](int code) {
    announce({code, 0, 0});
    return finish(local, code);
  };

  if (bridge.is_null() || remote_leader < 0 || remote_leader >= bridge.size()) {
    return fail_out(kErrArg);
  }
  const std::uint64_t bridge_id = bridge.context()->id;
  const ProcId peer = bridge.group().pids[static_cast<size_t>(remote_leader)];
  // Revoking the bridge must unblock a leader parked in the cross exchange
  // (the abort path of overlapped recovery converges through exactly that).
  detail::RecvOpts bopts;
  bopts.revoke_ctx = bridge.context();

  // Cross exchange: [user tag, member count, member pids...].  The user tag
  // disambiguates concurrent creates over the same bridge, as in MPI.
  std::vector<int> wire;
  wire.push_back(tag);
  wire.push_back(g.size());
  for (ProcId p : g.pids) wire.push_back(p);
  if (detail::ctrl_send(peer, bridge_id, tags::kInterCreateCross, wire.data(),
                        wire.size() * sizeof(int)) != kSuccess) {
    return fail_out(kErrProcFailed);
  }
  std::vector<std::byte> payload;
  const int xrc = detail::ctrl_recv(peer, bridge_id, tags::kInterCreateCross, &payload, bopts);
  if (xrc != kSuccess) {
    return fail_out(xrc == kErrRevoked ? kErrRevoked : kErrProcFailed);
  }
  const auto rwire = detail::unpack_vec<int>(payload);
  if (rwire.size() < 2 || rwire[0] != tag ||
      rwire.size() != static_cast<size_t>(rwire[1]) + 2) {
    return fail_out(kErrArg);
  }
  Group remote;
  remote.pids.assign(rwire.begin() + 2, rwire.end());

  // The lower-pid leader materializes the context (group[0] = its side) and
  // ships the id across; sides are then fixed for everyone by construction.
  InterCreateInfo info{kSuccess, 0, 0};
  if (me.pid < peer) {
    const auto ctx = r.create_context(g, remote, /*inter=*/true);
    info.ctx_id = ctx->id;
    info.side = 0;
    if (detail::ctrl_send(peer, bridge_id, tags::kInterCreateCross, &info.ctx_id,
                          sizeof(info.ctx_id)) != kSuccess) {
      return fail_out(kErrProcFailed);
    }
  } else {
    std::vector<std::byte> idbuf;
    const int irc = detail::ctrl_recv(peer, bridge_id, tags::kInterCreateCross, &idbuf, bopts);
    if (irc != kSuccess) {
      return fail_out(irc == kErrRevoked ? kErrRevoked : kErrProcFailed);
    }
    info.ctx_id = detail::unpack<std::uint64_t>(idbuf);
    info.side = 1;
    if (info.ctx_id == 0) return fail_out(kErrProcFailed);
  }
  announce(info);
  *out = Comm(r.find_context(info.ctx_id), info.side, me.pid);
  return finish(local, kSuccess);
}

int comm_free(Comm* c) {
  if (c == nullptr) return kErrArg;
  if (detail::rt().checks().protocol) psan::on_free(*c);
  *c = Comm{};
  return kSuccess;
}

const char* error_string(int code) {
  switch (code) {
    case kSuccess: return "MPI_SUCCESS";
    case kErrComm: return "MPI_ERR_COMM: invalid communicator";
    case kErrArg: return "MPI_ERR_ARG: invalid argument";
    case kErrProcFailed: return "MPI_ERR_PROC_FAILED: a peer process has failed";
    case kErrRevoked: return "MPI_ERR_REVOKED: the communicator has been revoked";
    case kErrPending: return "MPI_ERR_PENDING";
    case kErrSpawn: return "MPI_ERR_SPAWN: replacement processes could not be placed";
    case kErrOther: return "MPI_ERR_OTHER";
  }
  return "unknown error code";
}

}  // namespace ftmpi
