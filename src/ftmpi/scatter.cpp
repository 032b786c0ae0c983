// Scatter collectives: the root distributes per-rank slices.  Root-
// coordinated like the other collectives; the reply-style delivery gives
// near-uniform failure reporting.

#include "ftmpi/api.hpp"
#include "ftmpi/detail.hpp"
#include "ftmpi/psan.hpp"

namespace ftmpi {

int scatter_bytes(const void* send, std::size_t per_rank, void* recv, int root,
                  const Comm& c) {
  detail::check_alive();
  if (c.is_null() || c.is_inter()) return kErrComm;
  if (root < 0 || root >= c.size()) return finish(c, kErrArg);
  if (detail::rt().checks().protocol) psan::on_collective(c, "scatter_bytes", root);
  if (c.is_revoked()) return finish(c, kErrRevoked);

  const std::uint64_t id = c.context()->id;
  const Group& g = c.group();
  detail::RecvOpts opts;
  opts.revoke_ctx = c.context();

  if (c.rank() == root) {
    int outcome = kSuccess;
    const auto* base = static_cast<const std::byte*>(send);
    for (int r = 0; r < g.size(); ++r) {
      if (r == root) continue;
      const int st = detail::ctrl_send(g.pids[static_cast<size_t>(r)], id, tags::kScatter,
                                       base + static_cast<size_t>(r) * per_rank, per_rank);
      if (st != kSuccess) outcome = kErrProcFailed;
    }
    if (recv != nullptr) {
      std::memcpy(recv, base + static_cast<size_t>(root) * per_rank, per_rank);
    }
    return finish(c, outcome);
  }
  std::vector<std::byte> payload;
  const int rc = detail::ctrl_recv(g.pids[static_cast<size_t>(root)], id, tags::kScatter,
                                   &payload, opts);
  if (rc != kSuccess) return finish(c, rc == kErrRevoked ? rc : kErrProcFailed);
  if (recv != nullptr) std::memcpy(recv, payload.data(), std::min(per_rank, payload.size()));
  return finish(c, kSuccess);
}

/// Variable-size scatter: the root provides one buffer per rank.
int scatterv_bytes(const std::vector<std::vector<std::byte>>& parts,
                   std::vector<std::byte>* recv, int root, const Comm& c) {
  detail::check_alive();
  if (c.is_null() || c.is_inter()) return kErrComm;
  if (root < 0 || root >= c.size()) return finish(c, kErrArg);
  if (detail::rt().checks().protocol) psan::on_collective(c, "scatterv_bytes", root);
  if (c.is_revoked()) return finish(c, kErrRevoked);

  const std::uint64_t id = c.context()->id;
  const Group& g = c.group();
  detail::RecvOpts opts;
  opts.revoke_ctx = c.context();

  if (c.rank() == root) {
    int outcome = kSuccess;
    for (int r = 0; r < g.size(); ++r) {
      if (r == root) continue;
      const auto& part = parts.at(static_cast<size_t>(r));
      const int st = detail::ctrl_send(g.pids[static_cast<size_t>(r)], id, tags::kScatter,
                                       part.data(), part.size());
      if (st != kSuccess) outcome = kErrProcFailed;
    }
    if (recv != nullptr) *recv = parts.at(static_cast<size_t>(root));
    return finish(c, outcome);
  }
  std::vector<std::byte> payload;
  const int rc = detail::ctrl_recv(g.pids[static_cast<size_t>(root)], id, tags::kScatter,
                                   &payload, opts);
  if (rc != kSuccess) return finish(c, rc == kErrRevoked ? rc : kErrProcFailed);
  if (recv != nullptr) *recv = std::move(payload);
  return finish(c, kSuccess);
}

}  // namespace ftmpi
