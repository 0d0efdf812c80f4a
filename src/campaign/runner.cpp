#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "campaign/observer.hpp"
#include "isa/registers.hpp"
#include "util/log.hpp"

namespace gemfi::campaign {

namespace {

using Clock = std::chrono::steady_clock;

/// Factor by which each retry multiplies the experiment's wall-clock deadline.
constexpr double kRetryBackoff = 2.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

sim::SimConfig make_sim_config(const CampaignConfig& cfg) {
  sim::SimConfig scfg;
  scfg.cpu = cfg.cpu;
  scfg.fi_enabled = true;
  scfg.switch_to_atomic_after_fault = cfg.switch_to_atomic_after_fault;
  scfg.predecode = cfg.predecode;
  scfg.fastpath = cfg.fastpath;
  scfg.fastmode = cfg.fastmode;
  if (cfg.sys_file_capacity != 0) scfg.sys_file_capacity = cfg.sys_file_capacity;
  return scfg;
}

double time_fraction(const CalibratedApp& ca, const fi::Fault& fault) {
  return ca.kernel_fetches == 0 ? 0.0 : double(fault.time) / double(ca.kernel_fetches);
}

/// "The guest recovered": it terminated on its own, and no thread bailed out
/// through its error-exit path.
bool guest_recovered(const sim::Simulation& s, const sim::RunResult& rr) {
  if (rr.reason != sim::ExitReason::AllThreadsExited) return false;
  const os::Scheduler& sched = s.scheduler();
  for (std::uint64_t tid = 0; tid < sched.thread_count(); ++tid)
    if (sched.thread(tid).exit_code != 0) return false;
  return true;
}

}  // namespace

CalibratedApp calibrate(apps::App app, const CampaignConfig& cfg) {
  CalibratedApp ca;
  const auto t0 = Clock::now();

  sim::Simulation s(make_sim_config(cfg), app.program);
  s.spawn_main_thread();
  chkpt::Checkpoint ckpt;
  std::uint64_t ticks_at_ckpt = 0;
  s.set_checkpoint_handler([&](sim::Simulation& sim) {
    ckpt = chkpt::Checkpoint::capture(sim);
    ticks_at_ckpt = sim.now();
  });

  const sim::RunResult rr = s.run();
  if (rr.reason != sim::ExitReason::AllThreadsExited)
    throw std::runtime_error("calibration run of '" + app.name +
                             "' did not terminate cleanly: " +
                             sim::exit_reason_name(rr.reason));
  if (s.output(0) != app.golden_output)
    throw std::runtime_error("guest output of '" + app.name +
                             "' diverges from its golden model");
  if (ckpt.empty())
    throw std::runtime_error("app '" + app.name + "' never called fi_read_init_all()");

  ca.golden_ticks = rr.ticks;
  ca.golden_committed = rr.committed;
  ca.kernel_fetches = s.fault_manager().last_deactivated_fetched();
  ca.ticks_to_checkpoint = ticks_at_ckpt;
  ca.checkpoint = std::move(ckpt);
  ca.calib_wall_seconds = seconds_since(t0);
  ca.app = std::move(app);
  if (ca.kernel_fetches == 0)
    throw std::runtime_error("app '" + ca.app.name + "' has an empty FI window");
  return ca;
}

fi::Fault random_fault(util::Rng& rng, fi::FaultLocation location,
                       std::uint64_t kernel_fetches) {
  fi::Fault f;
  f.location = location;
  f.thread_id = 0;
  f.core = 0;
  f.occurrences = 1;
  f.time_kind = fi::FaultTimeKind::Instruction;
  f.time = 1 + rng.below(kernel_fetches);
  f.behavior = fi::FaultBehavior::Flip;
  switch (location) {
    case fi::FaultLocation::IntReg:
    case fi::FaultLocation::FpReg:
      // R31/F31 are architecturally zero: a flip there can never propagate,
      // so drawing it would inflate the Masked fraction. Draw from the 31
      // writable registers instead.
      static_assert(isa::kZeroReg == 31 && isa::kFpZeroReg == 31);
      f.reg = unsigned(rng.below(isa::kZeroReg));
      f.operand = rng.below(64);
      break;
    case fi::FaultLocation::Fetch:
      f.operand = rng.below(32);
      break;
    case fi::FaultLocation::Decode:
      f.decode_field = static_cast<fi::DecodeField>(rng.below(3));
      f.operand = rng.below(5);
      break;
    case fi::FaultLocation::Execute:
    case fi::FaultLocation::LoadStore:
    case fi::FaultLocation::PC:
      f.operand = rng.below(64);
      break;
    case fi::FaultLocation::Skip:
      f.operand = 0;
      break;
    case fi::FaultLocation::Opcode:
      f.operand = rng.below(6);
      break;
  }
  return f;
}

fi::Fault random_fault_any(util::Rng& rng, std::uint64_t kernel_fetches) {
  // Uniform over the SEU-prone structures only; Skip/Opcode model deliberate
  // attacks and would skew the paper-style outcome distributions.
  const auto loc = static_cast<fi::FaultLocation>(rng.below(fi::kNumSeuFaultLocations));
  return random_fault(rng, loc, kernel_fetches);
}

fi::Fault random_model_fault(util::Rng& rng, fi::FaultModelKind kind,
                             std::uint64_t kernel_fetches) {
  if (kind == fi::FaultModelKind::Attack) {
    const auto loc =
        rng.chance(0.5) ? fi::FaultLocation::Skip : fi::FaultLocation::Opcode;
    fi::Fault f = random_fault(rng, loc, kernel_fetches);
    if (loc == fi::FaultLocation::Skip) f.occurrences = 1 + rng.below(4);
    return f;
  }

  fi::Fault f = random_fault_any(rng, kernel_fetches);
  const unsigned width = fi::fault_target_width(f.location);
  switch (kind) {
    case fi::FaultModelKind::Transient:
      break;  // random_fault_any already is the paper's SEU
    case fi::FaultModelKind::StuckAt: {
      const std::uint64_t mask = 1ull << (f.operand % 64);
      f.behavior =
          rng.chance(0.5) ? fi::FaultBehavior::StuckOne : fi::FaultBehavior::StuckZero;
      f.operand = mask;
      f.occurrences = fi::kPermanent;
      break;
    }
    case fi::FaultModelKind::Intermittent:
      f.occurrences = fi::kPermanent;
      f.duty_period = 8ull << rng.below(6);  // period 8 .. 256 instructions
      f.duty_active = 1 + rng.below(f.duty_period / 2);
      break;
    case fi::FaultModelKind::Burst: {
      const unsigned len = 2 + unsigned(rng.below(3));  // 2..4 adjacent bits
      const unsigned start = unsigned(rng.below(width >= len ? width - len + 1 : 1));
      f.behavior = fi::FaultBehavior::Burst;
      f.operand = fi::Fault::burst_operand(start, len);
      break;
    }
    case fi::FaultModelKind::Attack:
      break;  // handled above
  }
  return f;
}

fi::SyscallFaultPlan random_syscall_plan(util::Rng& rng) {
  fi::SyscallFaultPlan p;
  // Uniform over the eight injectable syscalls (Version is deliberately
  // excluded: it is the ABI handshake every app checks before any error
  // handling exists, so failing it only measures the boot path).
  p.target = static_cast<os::Sysno>(1 + rng.below(8));
  // A single firing call index: syscall counts per (thread, sysno) are small
  // (a handful of allocs, tens of writes), so a 1..24 window covers the
  // interesting lifetimes without drawing mostly-missed indices.
  p.idx_lo = p.idx_hi = 1 + rng.below(24);
  switch (rng.below(4)) {
    case 0: {
      // Biased 80/20 toward errnos the target could really return, so most
      // experiments exercise reachable handler paths while a measured
      // minority probes the unrealistic-errno flag.
      static constexpr std::uint16_t kErrnos[] = {
          os::kENOENT, os::kEIO,    os::kEBADF,  os::kEAGAIN,
          os::kENOMEM, os::kEFAULT, os::kEEXIST, os::kEINVAL,
          os::kEMFILE, os::kENOSPC, os::kENOSYS, os::kEMSGSIZE};
      constexpr std::size_t kNumErrnos = sizeof(kErrnos) / sizeof(kErrnos[0]);
      std::uint16_t err = kErrnos[rng.below(kNumErrnos)];
      if (rng.chance(0.8)) {
        while (!os::errno_realistic(p.target, err))
          err = kErrnos[rng.below(kNumErrnos)];
      }
      p.has_errno = true;
      p.errno_code = err;
      break;
    }
    case 1:
      p.has_latency = true;
      p.latency_ticks = 1 + rng.below(5000);
      break;
    case 2:
      p.has_partial = true;
      p.partial_ppm = 125'000 * (1 + rng.below(7));  // 1/8 .. 7/8
      break;
    default:
      p.has_corrupt = true;
      p.corrupt_bits = std::uint8_t(1 + rng.below(4));
      p.corrupt_seed = rng.next();
      break;
  }
  return p;
}

fi::SyscallFaultPlan seeded_syscall_plan(std::uint64_t campaign_seed,
                                         std::uint64_t index) {
  // Independent of the architectural-fault draw: a distinct stream derived
  // from the same per-experiment seed, so arming syscall plans never shifts
  // which register fault an index maps to (and vice versa).
  util::Rng rng(experiment_seed(campaign_seed, index) ^ 0x5ca11fa017ull);
  return random_syscall_plan(rng);
}

std::vector<fi::SyscallFaultPlan> plans_for_experiment(const CampaignConfig& cfg,
                                                       std::uint64_t index) {
  std::vector<fi::SyscallFaultPlan> plans = cfg.syscall_plans;
  if (cfg.random_syscall_faults)
    plans.push_back(seeded_syscall_plan(cfg.campaign_seed, index));
  return plans;
}

fi::Fault seeded_fault_any(std::uint64_t campaign_seed, std::uint64_t index,
                           std::uint64_t kernel_fetches) {
  util::Rng rng(experiment_seed(campaign_seed, index));
  return random_fault_any(rng, kernel_fetches);
}

std::vector<fi::Fault> seeded_fault_set(std::uint64_t campaign_seed, std::size_t n,
                                        std::uint64_t kernel_fetches) {
  std::vector<fi::Fault> faults;
  faults.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    faults.push_back(seeded_fault_any(campaign_seed, i, kernel_fetches));
  return faults;
}

std::uint64_t watchdog_ticks(const CalibratedApp& ca, const CampaignConfig& cfg) {
  return cfg.watchdog_mult * ca.golden_ticks + 1'000'000;
}

ExperimentResult run_experiment(const CalibratedApp& ca, const fi::Fault& fault,
                                const CampaignConfig& cfg,
                                const std::vector<fi::SyscallFaultPlan>* syscall_plans) {
  return ExperimentWorker(ca, nullptr, cfg).run(fault, syscall_plans);
}

ExperimentResult run_experiment_with_retry(const CalibratedApp& ca, const fi::Fault& fault,
                                           const CampaignConfig& cfg,
                                           const std::vector<fi::SyscallFaultPlan>* syscall_plans) {
  return ExperimentWorker(ca, nullptr, cfg).run_with_retry(fault, syscall_plans);
}

std::optional<chkpt::CheckpointImage> campaign_baseline(const CalibratedApp& ca,
                                                        const CampaignConfig& cfg) {
  if (!cfg.use_checkpoint || ca.checkpoint.empty()) return std::nullopt;
  try {
    return chkpt::CheckpointImage::parse(ca.checkpoint);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

ExperimentWorker::ExperimentWorker(const CalibratedApp& ca,
                                   const chkpt::CheckpointImage* image,
                                   const CampaignConfig& cfg)
    : ca_(ca), image_(image), cfg_(cfg) {}

ExperimentWorker::~ExperimentWorker() = default;

std::uint64_t ExperimentWorker::restore(bool switch_to_atomic, ExperimentResult& er) {
  const bool reuse =
      image_ && sim_ && sim_->config().switch_to_atomic_after_fault == switch_to_atomic;
  if (!reuse) {
    sim::SimConfig scfg = make_sim_config(cfg_);
    scfg.switch_to_atomic_after_fault = switch_to_atomic;
    sim_ = std::make_unique<sim::Simulation>(scfg, ca_.app.program);
    sim_->spawn_main_thread();
  }
  if (image_) {
    const std::uint64_t pages =
        reuse ? image_->restore_dirty_into(*sim_) : image_->restore_into(*sim_);
    er.restore_pages = pages;
    er.restore_bytes = pages * mem::PhysMem::kPageBytes;
  } else if (cfg_.use_checkpoint) {
    chkpt::CheckpointImage::parse(ca_.checkpoint).restore_into(*sim_);
    er.restore_pages = sim_->memsys().phys().page_count();
    er.restore_bytes = ca_.checkpoint.size_bytes();
  } else {
    return 0;  // from reset
  }
  er.ckpt_version = std::uint8_t(chkpt::CheckpointFormat::V2);
  return ca_.ticks_to_checkpoint;
}

ExperimentResult ExperimentWorker::attempt(
    std::span<const fi::Fault> faults, double deadline_seconds,
    const std::vector<fi::SyscallFaultPlan>* syscall_plans) {
  ExperimentResult er;
  const std::uint64_t start_ticks =
      restore(cfg_.switch_to_atomic_after_fault && faults.size() == 1, er);
  sim::Simulation& s = *sim_;
  if (!faults.empty()) {
    er.fault = faults.front();
    er.time_fraction = time_fraction(ca_, er.fault);
  }
  s.fault_manager().load_faults({faults.begin(), faults.end()});
  s.syscall_injector().clear();
  const std::vector<fi::SyscallFaultPlan>& plans =
      syscall_plans ? *syscall_plans : cfg_.syscall_plans;
  for (const fi::SyscallFaultPlan& p : plans) s.syscall_injector().add_plan(p);

  const sim::RunResult rr = s.run(watchdog_ticks(ca_, cfg_), deadline_seconds);

  er.exit_reason = rr.reason;
  er.trap = rr.trap.kind;
  er.crash_pc = rr.crash_pc;
  er.fault_applied = s.fault_manager().any_applied();
  // A checkpoint restore resumes the tick counter at ticks_to_checkpoint, so
  // rr.ticks >= start_ticks is an invariant; guard it anyway so a violation
  // surfaces as a zero instead of an underflowed ~1.8e19 that would wreck
  // every mean-duration statistic downstream.
  assert(rr.ticks >= start_ticks && "experiment ended before its checkpoint tick");
  er.sim_ticks = rr.ticks >= start_ticks ? rr.ticks - start_ticks : 0;
  er.classification = classify(ca_.app, rr, s.fault_manager(), s.output(0));

  if (!plans.empty()) {
    er.syscall_plans = plans;
    er.syscalls_injected = s.syscalls().injected_calls();
    er.syscall_class =
        classify_syscalls(s.syscalls().full_trace(), !guest_recovered(s, rr));
  }
  return er;
}

ExperimentResult ExperimentWorker::run(std::span<const fi::Fault> faults,
                                       const std::vector<fi::SyscallFaultPlan>* syscall_plans) {
  const auto t0 = Clock::now();
  try {
    ExperimentResult er = attempt(faults, cfg_.deadline_seconds, syscall_plans);
    er.wall_seconds = seconds_since(t0);
    return er;
  } catch (...) {
    // The Simulation may be mid-deserialize or otherwise torn; discard it
    // so the next run starts from a pristine full restore.
    sim_.reset();
    throw;
  }
}

ExperimentResult ExperimentWorker::run_with_retry(const fi::Fault& fault,
                                                  const std::vector<fi::SyscallFaultPlan>* syscall_plans) {
  const auto t0 = Clock::now();
  double deadline = cfg_.deadline_seconds;
  for (unsigned attempt_no = 0;; ++attempt_no) {
    const bool last = attempt_no >= cfg_.max_retries;
    try {
      ExperimentResult er = attempt(std::span(&fault, 1), deadline, syscall_plans);
      // A deadline exit may be host contention rather than an effect of the
      // injected fault: retry with a longer leash.
      if (er.exit_reason == sim::ExitReason::Deadline && !last) {
        deadline *= kRetryBackoff;
        continue;
      }
      er.retries = attempt_no;
      er.wall_seconds = seconds_since(t0);
      return er;
    } catch (const std::exception& e) {
      sim_.reset();
      if (!last) {
        deadline *= kRetryBackoff;  // no deadline (0) stays none
        continue;
      }
      // Simulator-internal failure survived every retry: report it as a
      // crash carrying the message, so the campaign completes and the
      // record points at the substrate rather than the injected fault.
      ExperimentResult er;
      er.fault = fault;
      er.retries = attempt_no;
      er.sim_error = e.what();
      er.exit_reason = sim::ExitReason::Crashed;
      er.classification.outcome = apps::Outcome::Crashed;
      er.time_fraction = time_fraction(ca_, fault);
      er.wall_seconds = seconds_since(t0);
      return er;
    }
  }
}

void CampaignReport::add(const ExperimentResult& er) noexcept {
  ++counts[std::size_t(er.classification.outcome)];
  ++syscall_counts[std::size_t(er.syscall_class.outcome)];
  max_cascade = std::max(max_cascade, er.syscall_class.cascade_len);
}

std::size_t CampaignReport::total() const noexcept {
  std::size_t n = 0;
  for (const std::size_t c : counts) n += c;
  return n;
}

double CampaignReport::fraction(apps::Outcome o) const noexcept {
  const std::size_t n = total();
  return n == 0 ? 0.0 : double(counts[std::size_t(o)]) / double(n);
}

CampaignReport run_campaign(const CalibratedApp& ca, const std::vector<fi::Fault>& faults,
                            const CampaignConfig& cfg) {
  const auto t0 = Clock::now();
  CampaignReport report;
  report.results.resize(faults.size());

  CampaignObserver* const obs = cfg.observer;
  if (obs) obs->on_campaign_begin(faults.size());

  const std::optional<chkpt::CheckpointImage> baseline = campaign_baseline(ca, cfg);

  const unsigned workers = cfg.workers == 0 ? 1 : cfg.workers;
  std::atomic<std::size_t> next{0};
  const auto worker = [&](unsigned worker_id) {
    ExperimentWorker ew(ca, baseline ? &*baseline : nullptr, cfg);
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= faults.size()) return;
      // Per-experiment syscall plan synthesis: every fixed plan plus one
      // seeded draw, regenerable from (campaign_seed, i) alone for --replay.
      const std::vector<fi::SyscallFaultPlan> plans = plans_for_experiment(cfg, i);
      ExperimentResult er = ew.run_with_retry(faults[i], &plans);
      if (obs)
        obs->on_experiment(
            {i, worker_id, experiment_seed(cfg.campaign_seed, i), er});
      report.results[i] = std::move(er);
    }
  };

  if (workers == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) pool.emplace_back(worker, i);
    for (auto& t : pool) t.join();
  }

  for (const ExperimentResult& er : report.results) report.add(er);
  report.wall_seconds = seconds_since(t0);
  if (obs) obs->on_campaign_end(report);
  return report;
}

}  // namespace gemfi::campaign
