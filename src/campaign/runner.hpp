// Campaign runner: calibration, random fault generation, experiment
// execution (ExperimentWorker, optionally fast-forwarded from a checkpoint),
// and parallel campaign execution — the machinery behind the paper's
// Sec. IV/V results.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "campaign/classify.hpp"
#include "chkpt/checkpoint.hpp"
#include "fi/fault.hpp"
#include "fi/syscall_fault.hpp"
#include "util/rng.hpp"

namespace gemfi::campaign {

class CampaignObserver;

struct CampaignConfig {
  sim::CpuKind cpu = sim::CpuKind::Pipelined;
  // Both stay true on NoW workers and the daemon: the Welcome (protocol v11)
  // does not carry them, and wire::Welcome::from refuses false.
  bool switch_to_atomic_after_fault = true;  // Sec. IV-B-1 speed trick
  bool use_checkpoint = true;                // Sec. III-D fast-forwarding
  // Engine tiers (sim::SimConfig): in-process only, never shipped to a
  // worker or written to a record, since records are byte-identical either
  // way. The oracle tests and in-process A/B benches turn them off.
  bool predecode = true;                     // predecoded-instruction cache
  bool fastpath = true;                      // timing-model fast lane
  bool fastmode = true;                      // superblock golden-path tier
  unsigned workers = 1;                      // local experiment parallelism
  std::uint64_t watchdog_mult = 8;           // watchdog = mult * golden ticks

  /// Root seed of the campaign. Each experiment derives its own RNG stream
  /// as splitmix64(campaign_seed ^ index) (see experiment_seed()), so any
  /// single experiment can be regenerated in isolation from its telemetry
  /// record without replaying the campaign's draw order.
  std::uint64_t campaign_seed = 0;

  /// Host wall-clock deadline per experiment attempt, seconds (0 = none).
  /// Cuts off experiments the tick watchdog cannot: a generous simulated-
  /// time budget on a wedged or contended host. Deadline exits classify as
  /// Outcome::Timeout and never stall the remaining workers.
  double deadline_seconds = 0.0;

  /// Bounded retries for experiments that die on simulator-internal errors
  /// (exceptions from the simulator, e.g. a damaged checkpoint) or on the
  /// wall-clock deadline — failures of the substrate, not effects of the
  /// injected fault. Each retry doubles the deadline.
  unsigned max_retries = 2;

  /// Telemetry sink; not owned, may be null. See observer.hpp for the
  /// thread-safety contract.
  CampaignObserver* observer = nullptr;

  /// Syscall-fault plans armed for every experiment (on top of the per-
  /// experiment register/PC fault). Single-run and A/B configurations.
  std::vector<fi::SyscallFaultPlan> syscall_plans;

  /// Syscall-fault campaign mode: each experiment additionally arms
  /// seeded_syscall_plan(campaign_seed, index) — synthesized from the same
  /// per-experiment seed as the register fault, so a --replay regenerates
  /// the exact plan from (campaign_seed, index) alone.
  bool random_syscall_faults = false;

  /// Override the guest file-store capacity in bytes (0 = simulator
  /// default). Shrinking the slack below an app's output size is how the
  /// taxonomy benches make torn writes displace later ones into ENOSPC —
  /// the cascade scenario. Applied at calibration too, so the checkpoint
  /// (which serializes the OS layer, capacity included) stays consistent.
  std::uint64_t sys_file_capacity = 0;
};

/// An app plus everything calibration learned about its fault-free run.
struct CalibratedApp {
  apps::App app;
  chkpt::Checkpoint checkpoint;          // taken at fi_read_init_all()
  std::uint64_t golden_ticks = 0;        // full run, campaign CPU model
  std::uint64_t golden_committed = 0;    // master only: not in the Welcome
  std::uint64_t kernel_fetches = 0;      // fetches inside the FI window
  std::uint64_t ticks_to_checkpoint = 0; // pre-checkpoint (init+boot) ticks
  double calib_wall_seconds = 0.0;       // host wall time of the golden run
};

/// Run the app fault-free on the campaign CPU model, capture the checkpoint
/// at fi_read_init_all(), verify the output matches the golden model
/// (paper Sec. IV-A validation), and measure the run costs.
/// Throws std::runtime_error if the guest output mismatches the golden.
CalibratedApp calibrate(apps::App app, const CampaignConfig& cfg);

/// Uniform single-event-upset fault at the given location: uniform Time over
/// the FI window, uniform bit, uniform register (Sec. IV-B-1 methodology).
/// Register draws exclude R31/F31 — the architecturally-zero registers —
/// since a flip there is a guaranteed no-op that would silently inflate the
/// Masked (non-propagated) fraction vs. the paper's Fig. 5 methodology.
fi::Fault random_fault(util::Rng& rng, fi::FaultLocation location,
                       std::uint64_t kernel_fetches);

/// Uniform over the SEU locations as well (Skip/Opcode excluded: attacks
/// are sampled explicitly via random_model_fault, never by SEU campaigns).
fi::Fault random_fault_any(util::Rng& rng, std::uint64_t kernel_fetches);

/// A fault drawn from one of the extended model families: transient SEU
/// (= random_fault_any), permanent stuck-at bit, duty-cycled intermittent,
/// contiguous multi-bit burst, or an attack (instruction skip / opcode
/// corruption). Used by model-taxonomy campaigns and benches.
fi::Fault random_model_fault(util::Rng& rng, fi::FaultModelKind kind,
                             std::uint64_t kernel_fetches);

/// The RNG seed of experiment `index` in a campaign rooted at
/// `campaign_seed`: splitmix64(campaign_seed ^ index). Deterministic and
/// order-independent, so one experiment is replayable from its record alone.
[[nodiscard]] constexpr std::uint64_t experiment_seed(std::uint64_t campaign_seed,
                                                      std::uint64_t index) noexcept {
  std::uint64_t state = campaign_seed ^ index;
  return util::splitmix64(state);
}

/// The fault experiment `index` would draw in a seeded campaign (uniform
/// over all locations). Regenerates bit-for-bit from (campaign_seed, index).
fi::Fault seeded_fault_any(std::uint64_t campaign_seed, std::uint64_t index,
                           std::uint64_t kernel_fetches);

/// Random syscall-fault plan: a uniformly drawn injectable syscall, a single
/// firing call index, and one of the four behaviors (errno — biased toward
/// errnos realistic for the target —, latency, partial, corrupt).
fi::SyscallFaultPlan random_syscall_plan(util::Rng& rng);

/// The syscall plan experiment `index` draws when cfg.random_syscall_faults
/// is set; regenerates bit-for-bit from (campaign_seed, index).
fi::SyscallFaultPlan seeded_syscall_plan(std::uint64_t campaign_seed,
                                         std::uint64_t index);

/// The full plan set experiment `index` runs under `cfg`: the fixed
/// cfg.syscall_plans plus, in random_syscall_faults mode, the index's seeded
/// draw. The one source of truth shared by local workers, the NoW dispatch
/// paths and --replay, so every path arms identical plans for an index.
std::vector<fi::SyscallFaultPlan> plans_for_experiment(const CampaignConfig& cfg,
                                                       std::uint64_t index);

/// The first `n` seeded faults of a campaign, i.e. seeded_fault_any(seed, i)
/// for i in [0, n).
std::vector<fi::Fault> seeded_fault_set(std::uint64_t campaign_seed, std::size_t n,
                                        std::uint64_t kernel_fetches);

struct ExperimentResult {
  Classification classification;
  sim::ExitReason exit_reason = sim::ExitReason::AllThreadsExited;
  cpu::TrapKind trap = cpu::TrapKind::None;
  fi::Fault fault;
  bool fault_applied = false;
  double time_fraction = 0.0;   // fault time / kernel length (Fig. 6 x-axis)
  std::uint64_t sim_ticks = 0;  // simulated ticks consumed by the experiment
  std::uint64_t crash_pc = 0;   // pc of the fatal trap (exit_reason Crashed)
  double wall_seconds = 0.0;    // host wall time (all attempts)
  unsigned retries = 0;         // attempts beyond the first (see max_retries)
  bool fastmode = true;         // unused: nothing in src/ sets, reads or
                                // serialises it; kept because perfbench assigns it
  std::string sim_error;        // simulator-internal failure, retries exhausted

  // Checkpoint-restore telemetry (0/absent when the experiment ran from
  // reset without a checkpoint).
  std::uint8_t ckpt_version = 0;     // CheckpointFormat that seeded the run
  std::uint64_t restore_pages = 0;   // pages materialized by the restore
  std::uint64_t restore_bytes = 0;   // bytes copied/decoded by the restore

  // Syscall-fault telemetry (empty/None when no plans were armed).
  std::vector<fi::SyscallFaultPlan> syscall_plans;  // plans armed for the run
  SyscallClassification syscall_class;
  std::uint64_t syscalls_injected = 0;  // calls that saw an injection fire
};

/// The tick watchdog of one experiment: cfg.watchdog_mult golden runs plus
/// a fixed slack of 1M ticks, so a fault that stalls the guest ends as a
/// Timeout instead of running forever.
[[nodiscard]] std::uint64_t watchdog_ticks(const CalibratedApp& ca,
                                           const CampaignConfig& cfg);

/// Run one fault-injection experiment (single attempt, no retry; simulator-
/// internal errors propagate as exceptions) on a transient ExperimentWorker.
/// `syscall_plans` overrides cfg.syscall_plans for this run when non-null
/// (campaign per-experiment plan synthesis); null means "use
/// cfg.syscall_plans".
ExperimentResult run_experiment(const CalibratedApp& ca, const fi::Fault& fault,
                                const CampaignConfig& cfg,
                                const std::vector<fi::SyscallFaultPlan>* syscall_plans = nullptr);

/// Run one experiment with the campaign robustness policy
/// (ExperimentWorker::run_with_retry) on a transient ExperimentWorker.
/// Never throws on simulator errors: after the last retry the result carries
/// the message in sim_error and classifies as Crashed.
ExperimentResult run_experiment_with_retry(const CalibratedApp& ca, const fi::Fault& fault,
                                           const CampaignConfig& cfg,
                                           const std::vector<fi::SyscallFaultPlan>* syscall_plans = nullptr);

/// The campaign restore policy, decided once per campaign: the checkpoint
/// parsed into the baseline every ExperimentWorker restores from, or nullopt
/// — no checkpoint in use, or one that fails to parse. A damaged checkpoint
/// is not fatal to the campaign: its workers fall back to the per-experiment
/// restore, which reports the damage as a bounded per-experiment substrate
/// failure (Crashed + sim_error).
std::optional<chkpt::CheckpointImage> campaign_baseline(const CalibratedApp& ca,
                                                        const CampaignConfig& cfg);

/// The one code path that runs a faulted experiment: it positions a
/// Simulation at the experiment's start, arms the faults and syscall plans,
/// runs under the watchdog and classifies. Campaign workers keep one per
/// thread/slot; run_experiment, the single run of gemfi_cli and the benches
/// use a transient one.
///
/// Positioning is its own step (restore()). With a baseline image the
/// worker keeps one Simulation alive across experiments: the first run
/// restores the full baseline image, every later run copies back only the
/// pages the previous experiment dirtied (PhysMem's dirty bitmap) plus the
/// small machine-state stream — equivalent bit-for-bit to a full restore, at
/// a fraction of the cost. With a null image every run builds a fresh
/// Simulation, restored from the checkpoint blob (cfg.use_checkpoint) or
/// started from reset. On a simulator-internal error the Simulation is
/// discarded so the retry starts from a pristine full restore.
///
/// Sec. IV-B-1's switch to the atomic model after the fault applies only to
/// single-fault runs: with several faults the detailed model runs to the end.
class ExperimentWorker {
 public:
  ExperimentWorker(const CalibratedApp& ca, const chkpt::CheckpointImage* image,
                   const CampaignConfig& cfg);
  ~ExperimentWorker();

  ExperimentWorker(const ExperimentWorker&) = delete;
  ExperimentWorker& operator=(const ExperimentWorker&) = delete;

  /// Single attempt; simulator-internal errors propagate as exceptions
  /// (the Simulation is discarded first). A run with several faults reports
  /// the first one in ExperimentResult::fault and time_fraction.
  ExperimentResult run(std::span<const fi::Fault> faults,
                       const std::vector<fi::SyscallFaultPlan>* syscall_plans = nullptr);
  ExperimentResult run(const fi::Fault& fault,
                       const std::vector<fi::SyscallFaultPlan>* syscall_plans = nullptr) {
    return run(std::span(&fault, 1), syscall_plans);
  }

  /// The campaign robustness policy on top of run(): up to cfg.max_retries
  /// re-runs on simulator-internal exceptions or wall-clock deadline exits,
  /// doubling the deadline each time. Tick-watchdog exits are deterministic
  /// and never retried. After the last retry a simulator error becomes a
  /// Crashed result carrying the message in sim_error.
  ExperimentResult run_with_retry(const fi::Fault& fault,
                                  const std::vector<fi::SyscallFaultPlan>* syscall_plans = nullptr);

  /// The Simulation of the last run, for callers that read more of it than
  /// the result carries (guest output, injection log, fault states).
  /// Requires a run that did not throw.
  [[nodiscard]] const sim::Simulation& simulation() const { return *sim_; }

 private:
  /// Position the Simulation at the experiment's start; returns the start
  /// tick and fills the result's restore telemetry.
  std::uint64_t restore(bool switch_to_atomic, ExperimentResult& er);
  ExperimentResult attempt(std::span<const fi::Fault> faults, double deadline_seconds,
                           const std::vector<fi::SyscallFaultPlan>* syscall_plans);

  const CalibratedApp& ca_;
  const chkpt::CheckpointImage* image_;   // null: fresh Simulation per run
  const CampaignConfig& cfg_;
  std::unique_ptr<sim::Simulation> sim_;  // null until the first run
};

/// One completed experiment as seen by a CampaignObserver.
struct ExperimentRecord {
  std::size_t index = 0;   // position in the campaign's fault list
  unsigned worker = 0;     // worker/slot id that ran it
  std::uint64_t seed = 0;  // experiment_seed(cfg.campaign_seed, index)
  ExperimentResult result;
};

struct CampaignReport {
  std::array<std::size_t, apps::kNumOutcomes> counts{};  // by Outcome
  std::vector<ExperimentResult> results;
  double wall_seconds = 0.0;  // whole campaign, host wall time

  // Syscall-fault taxonomy tallies, indexed by SyscallOutcome. Runs where no
  // injection fired (plans missed, or none were armed) land in [None].
  std::array<std::size_t, kNumSyscallOutcomes> syscall_counts{};
  unsigned max_cascade = 0;  // longest observed failure chain

  /// Tally one result into counts, syscall_counts and max_cascade.
  void add(const ExperimentResult& er) noexcept;

  [[nodiscard]] std::size_t total() const noexcept;
  [[nodiscard]] double fraction(apps::Outcome o) const noexcept;
};

/// Run a whole campaign (one experiment per fault) with cfg.workers-way
/// parallelism on this host.
CampaignReport run_campaign(const CalibratedApp& ca, const std::vector<fi::Fault>& faults,
                            const CampaignConfig& cfg);

}  // namespace gemfi::campaign
