// Nesting-safe SIGINT -> SelfPipe fan-out for the campaign masters/service.
//
// The dispatch layer used to keep a single global `SelfPipe*` for its SIGINT
// handler: two Master instances in one process (e.g. two one-shot masters
// under test, or the campaign service next to a one-shot master) would
// overwrite each other's registration and restore the wrong previous
// disposition on exit. This replaces that with a small slot
// table: every registered pipe is notified on SIGINT (the signal is
// process-wide, so every drain-capable loop should drain), the handler is
// installed on the first registration only, and the original disposition is
// restored when the last registrant leaves. Registration beyond the slot
// capacity fails loudly instead of clobbering an earlier registrant.
#pragma once

#include "net/socket.hpp"

namespace gemfi::net {

/// RAII registration of a SelfPipe to be notified on SIGINT. Safe to nest
/// and to hold from several threads' loops at once. With enabled == false
/// the object does nothing (so callers can keep one unconditional member).
/// Throws std::runtime_error if all registration slots are taken.
class ScopedSigint {
 public:
  ScopedSigint(SelfPipe* pipe, bool enabled);
  ~ScopedSigint();

  ScopedSigint(const ScopedSigint&) = delete;
  ScopedSigint& operator=(const ScopedSigint&) = delete;

 private:
  int slot_ = -1;  // -1: not registered (disabled)
};

}  // namespace gemfi::net
