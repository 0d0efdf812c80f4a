// True multi-process NoW campaign dispatch (paper Sec. III-E, done for real).
//
// The master is the fleet engine (fleet.hpp) serving exactly one
// pre-calibrated, unjournaled campaign to worker processes on any host;
// now_makespan (now_runner.hpp) models the paper's 27x4 cluster from measured
// durations instead of running it:
//
//   master                                 worker (xN processes/hosts)
//   ------                                 ------
//   bind/listen, serialize Welcome once    connect (bounded backoff)
//                                    <---  Hello{version, slots}
//   Welcome{app, config, checkpoint} --->  rebuild CalibratedApp, parse the
//                                          CheckpointImage once, start one
//                                          persistent-Simulation thread/slot
//   Batch{(index, fault)...}         --->  run experiments
//                                    <---  Result{index, ExperimentResult}  (streamed)
//                                    <---  Heartbeat (liveness)
//   Shutdown                         --->  join slots, exit
//
// Robustness is first-class: dead workers (EOF, send failure, heartbeat
// silence) have their in-flight experiments requeued, and results are
// deduplicated by experiment id so every experiment completes exactly once —
// first result wins, replays are counted and dropped. Fault identity is
// preserved verbatim over the wire (Fault::to_line round-trip), so the
// deterministic splitmix64 seeding and `--replay` work unchanged. SIGINT
// (opt-in) drains gracefully: stop dispatching, collect in-flight results,
// then shut workers down and report the partial campaign.
//
// Results stream into the existing CampaignObserver pipeline
// (JsonlSink/ProgressPrinter) from the master's single event-loop thread as
// they arrive — a distributed campaign is observable exactly like a local one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/analytics/aggregator.hpp"
#include "campaign/fleet.hpp"
#include "campaign/runner.hpp"

namespace gemfi::campaign {

/// Master settings on top of the shared fleet tuning. With handle_sigint,
/// SIGINT drains the campaign gracefully.
struct DispatchConfig : FleetConfig {
  /// Give up if no worker has ever joined within this window.
  double first_worker_timeout_s = 60.0;

  /// Sequential early-stop rule (--stop-ci). When enabled, every result
  /// feeds a streaming Aggregator; once the index-ordered prefix satisfies
  /// the rule the master cancels the queue (its own and, via CancelQueue
  /// frames, the workers'), drains in-flight work, and emits a
  /// `stopped_early` summary record through the observer.
  StopPolicy stop;
};

/// What the master adds on top of the merged CampaignReport and the fleet
/// counters.
///
/// Results are streamed to cfg.observer as they arrive and are NOT retained:
/// campaign.results stays empty so a million-experiment campaign holds only
/// the done bitmap in master memory. campaign.counts and the aggregate
/// timings below are accumulated incrementally instead.
struct DispatchReport : FleetCounters {
  CampaignReport campaign;          // counts/wall only; results intentionally empty
  std::vector<std::uint8_t> done;   // per-experiment completion mask
  std::size_t completed = 0;
  double experiment_wall_seconds = 0.0;  // sum of per-result wall_seconds
  bool drained_early = false;       // drain (SIGINT or early stop): done[] partial
  double wall_seconds = 0.0;

  // Sequential early stop.
  bool stopped_early = false;       // the stop rule fired
  std::uint64_t stop_index = 0;     // prefix length that satisfied the rule
  std::uint64_t cancelled = 0;      // experiments reclaimed unrun
  std::string aggregate_summary;    // last summary JSON emitted ("" if none)
};

/// The campaign master: owns the listening socket and runs the poll-based
/// event loop to completion. Single-threaded; cfg.observer is invoked from
/// the loop thread only.
class Master {
 public:
  /// Binds and listens immediately (so workers spawned right after
  /// construction can connect) but serves nothing until run().
  Master(const CalibratedApp& ca, const apps::AppScale& scale,
         const std::vector<fi::Fault>& faults, const CampaignConfig& cfg,
         const DispatchConfig& dcfg);
  ~Master();

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Serve the campaign until every experiment has exactly one result (or a
  /// SIGINT drain). Throws std::runtime_error if no worker ever joins.
  DispatchReport run();

  /// Request a graceful drain programmatically (thread-safe, also callable
  /// from an observer callback): stop dispatching, collect in-flight
  /// results, shut down. run() then returns with drained_early set.
  void request_drain() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Worker-side connection policy.
struct WorkerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  unsigned slots = 1;  // parallel experiments in this worker process

  /// Connect/reconnect budget: attempts per connect() call, with exponential
  /// backoff starting at backoff_s; and how many times a *lost established*
  /// connection may be re-established before the worker gives up.
  unsigned connect_attempts = 20;
  double connect_backoff_s = 0.1;
  unsigned max_reconnects = 3;
};

/// Run one worker process: connect, register, execute batches until the
/// master sends Shutdown (returns 0), or until the connection/reconnect
/// budget is exhausted (returns nonzero). Never throws.
int run_worker(const WorkerConfig& wcfg);

/// A pool of forked loopback worker processes (`gemfi_cli --now-local`, the
/// benchmarks, and the chaos tests' crash targets).
class LocalWorkerPool {
 public:
  /// Fork `workers` children, each running run_worker() against
  /// 127.0.0.1:port with `slots` slots, then _exit(). Call before the parent
  /// spawns threads (Master::run is single-threaded, so the natural order —
  /// construct Master, spawn pool, run — is safe). `max_reconnects` is the
  /// per-worker budget for re-establishing a lost connection: the campaign
  /// service leases workers by closing and letting them reconnect, so its
  /// pools need a far larger budget than a one-shot master's.
  static LocalWorkerPool spawn(unsigned workers, std::uint16_t port, unsigned slots,
                               unsigned max_reconnects = 3);

  LocalWorkerPool() = default;
  LocalWorkerPool(LocalWorkerPool&&) = default;
  LocalWorkerPool& operator=(LocalWorkerPool&&) = default;

  [[nodiscard]] const std::vector<int>& pids() const noexcept { return pids_; }
  /// Send `signo` to worker i (SIGKILL in the chaos tests).
  void kill_worker(std::size_t i, int signo) const;
  /// Reap every child; returns how many exited nonzero or by signal.
  int wait_all();

 private:
  std::vector<int> pids_;
};

/// One-call convenience for library callers: a loopback master plus N forked
/// workers with `slots` slots each, serving `faults` of the calibrated app.
DispatchReport run_campaign_service_local(const CalibratedApp& ca,
                                          const apps::AppScale& scale,
                                          const std::vector<fi::Fault>& faults,
                                          const CampaignConfig& cfg, unsigned workers,
                                          unsigned slots, DispatchConfig dcfg = {});

}  // namespace gemfi::campaign
