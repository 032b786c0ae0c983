// Clean fixture for FTL006: the sanctioned lifecycle idioms of the repair
// protocol must stay silent.
#include "api_stub.hpp"

using ftmpi::Comm;

// The revoke-and-bail idiom: the revoke lives on an error path that exits,
// so the fall-through path still holds an active handle.
int revoke_and_bail(Comm& c, double* buf) {
  int rc = ftmpi::send(buf, 1, 0, 0, c);
  if (rc != 0) {
    rc = ftmpi::comm_revoke(c);
    return rc;
  }
  return ftmpi::barrier(c);
}

// A helper whose summary revokes its parameter, then reports the failure.
int revoke_and_report(Comm& c) {
  int rc = ftmpi::comm_revoke(c);
  return rc;
}

// The same bail-out without braces: the revoking call sits in a return,
// so the fall-through path still holds an active handle.
int braceless_bail(Comm& c, double* buf) {
  int rc = ftmpi::send(buf, 1, 0, 0, c);
  if (rc != 0) return revoke_and_report(c);
  return ftmpi::barrier(c);
}

// After a fall-through revoke, only the sanctioned salvage/repair set runs:
// buffered probes, buffered receives, shrink, free.
int revoke_then_salvage(Comm& c, double* buf) {
  int rc = ftmpi::comm_revoke(c);
  int have = 0;
  ftmpi::Status st;
  rc = ftmpi::iprobe_buffered(c, 0, &have, &st);
  if (have != 0) rc = ftmpi::recv_buffered(buf, 1, 0, 0, c, &st);
  Comm shrunk;
  rc = ftmpi::comm_shrink(c, &shrunk);
  rc = ftmpi::comm_free(&shrunk);
  return rc;
}

// A created intermediate owned by a guard: every return path frees it.
int guarded_create(const ftmpi::compat::MPI_Comm& world, int color) {
  ftmpi::compat::MPI_Comm tmp;
  int rc = ftmpi::compat::MPI_Comm_split(world, color, 0, &tmp);
  if (rc != 0) return rc;
  ftr::core::CommGuard guard(&tmp);
  return 0;
}

// Reassignment resets the lifecycle: the revoked handle is replaced by the
// repaired one before the next use.
int repair_in_place(Comm& c, Comm& repaired) {
  int rc = ftmpi::comm_revoke(c);
  c = repaired;
  rc = ftmpi::barrier(c);
  return rc;
}

// A created handle stored into the caller's slot has an owner.
int create_into(const Comm& c, Comm* out) {
  Comm fresh;
  int rc = ftmpi::comm_shrink(c, &fresh);
  if (rc != 0) return rc;
  *out = fresh;
  return 0;
}
