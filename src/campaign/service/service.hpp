// The campaign-manager service: multi-tenant FI-as-a-Service.
//
// A single long-running gemfi_campaignd process owns one worker fleet and
// serves many clients at once: clients submit CampaignSpecs, poll status,
// cancel, and stream results over the control plane; workers join with the
// same Hello as for the one-shot master and are leased to campaigns one
// connection at a time (the Welcome fixes which app a connection runs, so
// moving a worker between campaigns means closing its connection and letting
// the worker's reconnect loop bring it back for reassignment).
//
// Durability: every accepted spec and every completed experiment is written
// to a crash-recovery Journal before it is acknowledged anywhere else. A
// SIGKILLed service restarted on the same journal directory re-runs
// calibration (deterministic), re-queues exactly the experiments whose
// results were never journaled, and finishes every in-flight campaign with
// each experiment id appearing exactly once in its results file.
//
// Threading: the service is the fleet engine (campaign/fleet.hpp) grown a
// control plane — everything network- and journal-facing runs on the single
// run() thread. The one exception is calibration (seconds of simulation per
// app), which runs on a background thread and posts completions back through
// a queue + self-pipe wake.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "campaign/fleet.hpp"
#include "campaign/service/spec.hpp"

namespace gemfi::campaign::service {

/// Daemon settings on top of the shared fleet tuning. With handle_sigint,
/// SIGINT stops gracefully: workers get Shutdown, live campaigns stay
/// journaled and resume on the next start.
struct ServiceConfig : FleetConfig {
  std::string journal_dir;    // required: crash-recovery journal root
  double client_send_timeout_s = 10.0;

  /// How often the fair-share rebalancer may move a worker between
  /// campaigns (each move costs the worker a reconnect).
  double rebalance_interval_s = 1.0;

  /// > 0: print a per-campaign status block to `status_out` (default
  /// stderr) this often — the daemon's progress display.
  double status_interval_s = 0.0;
  std::FILE* status_out = nullptr;
};

struct ServiceReport : FleetCounters {
  std::uint64_t campaigns_submitted = 0;  // accepted over the wire this run
  std::uint64_t campaigns_recovered = 0;  // resumed from the journal
  std::uint64_t campaigns_done = 0;
  std::uint64_t campaigns_cancelled = 0;
  std::uint64_t campaigns_failed = 0;
  std::uint64_t campaigns_stopped_early = 0;  // sequential stop rule fired
  std::uint64_t results_journaled = 0;    // lines appended this run
  unsigned clients_served = 0;
  std::uint64_t rebalance_moves = 0;      // workers parted for fair share
  double wall_seconds = 0.0;
};

class CampaignService {
 public:
  /// Opens (and recovers) the journal and binds the listener immediately;
  /// serves nothing until run(). Throws on an unusable journal directory or
  /// bind failure.
  explicit CampaignService(ServiceConfig scfg);
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Serve until request_stop() (or SIGINT with handle_sigint). Recovered
  /// campaigns are recalibrated and resumed automatically. A journal write
  /// that fails throws out of run(): nothing further is acknowledged.
  ServiceReport run();

  /// Thread-safe graceful stop: finish the current tick, send Shutdown to
  /// every worker, leave live campaigns in the journal for the next start.
  void request_stop() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gemfi::campaign::service
