#include "campaign/observer.hpp"

#include <chrono>
#include <stdexcept>

#include "campaign/jsonl.hpp"

namespace gemfi::campaign {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string experiment_record_to_json(const ExperimentRecord& rec, bool include_host_timing) {
  const ExperimentResult& er = rec.result;
  jsonl::ObjectWriter w;
  w.field("index", std::uint64_t(rec.index))
      .field("worker", std::uint64_t(rec.worker))
      .field("seed", rec.seed)
      .field("fault", er.fault.to_line())
      .field("location", fi::fault_location_name(er.fault.location))
      .field("outcome", apps::outcome_name(er.classification.outcome))
      .field("metric", er.classification.metric)
      .field("exit", sim::exit_reason_name(er.exit_reason))
      .field("trap", cpu::trap_name(er.trap))
      .field("applied", er.fault_applied)
      .field("time_fraction", er.time_fraction)
      .field("sim_ticks", er.sim_ticks);
  if (include_host_timing)
    w.field("wall_seconds", er.wall_seconds);
  w.field("retries", std::uint64_t(er.retries));
  if (er.ckpt_version != 0) {
    w.field("ckpt_format",
            chkpt::checkpoint_format_name(chkpt::CheckpointFormat(er.ckpt_version)))
        .field("restore_pages", er.restore_pages)
        .field("restore_bytes", er.restore_bytes);
  }
  if (!er.syscall_plans.empty()) {
    // All armed plans, '; '-joined in their canonical grammar so a replay
    // can re-parse the exact set from the record alone.
    std::string plans;
    for (const fi::SyscallFaultPlan& p : er.syscall_plans) {
      if (!plans.empty()) plans += "; ";
      plans += p.to_line();
    }
    w.field("syscall_plan", plans)
        .field("syscall_outcome", syscall_outcome_name(er.syscall_class.outcome))
        .field("cascade", std::uint64_t(er.syscall_class.cascade_len))
        .field("syscalls_injected", er.syscalls_injected);
    if (er.syscall_class.unrealistic) w.field("unrealistic_errno", true);
  }
  if (!er.sim_error.empty()) w.field("error", er.sim_error);
  return w.str();
}

std::string calibration_record_to_json(const std::string& app_name,
                                       const CalibratedApp& ca) {
  jsonl::ObjectWriter w;
  w.field("event", "calibrated")
      .field("app", app_name)
      .field("golden_insts", ca.golden_committed)
      .field("kernel_fetches", ca.kernel_fetches)
      .field("golden_ticks", ca.golden_ticks)
      .field("calib_wall_seconds", ca.calib_wall_seconds);
  return w.str();
}

JsonlSink::JsonlSink(const std::string& path)
    : owned_(path, std::ios::out | std::ios::trunc), os_(&owned_) {
  if (!owned_) throw std::runtime_error("cannot open JSONL output file: " + path);
}

JsonlSink::JsonlSink(std::ostream& os) : os_(&os) {}

void JsonlSink::on_experiment(const ExperimentRecord& rec) {
  write_line(experiment_record_to_json(rec));
}

void JsonlSink::write_line(const std::string& line) {
  std::lock_guard lock(mutex_);
  *os_ << line << '\n';
  os_->flush();
  ++lines_;
}

ProgressPrinter::ProgressPrinter(std::FILE* out, double min_interval_seconds)
    : out_(out), min_interval_(min_interval_seconds) {}

void ProgressPrinter::on_campaign_begin(std::size_t total_experiments) {
  std::lock_guard lock(mutex_);
  total_ = total_experiments;
  done_ = 0;
  for (std::size_t& c : counts_) c = 0;
  mean_wall_ = {};
  t0_ = monotonic_seconds();
  last_print_ = 0.0;  // force the first line
}

void ProgressPrinter::on_experiment(const ExperimentRecord& rec) {
  std::lock_guard lock(mutex_);
  ++done_;
  ++counts_[std::size_t(rec.result.classification.outcome)];
  mean_wall_.add(rec.result.wall_seconds);

  const double now = monotonic_seconds();
  const bool final_line = total_ != 0 && done_ >= total_;
  if (!final_line && now - last_print_ < min_interval_) return;
  last_print_ = now;

  const double elapsed = now - t0_;
  // ETA from observed campaign throughput, which already reflects the
  // worker parallelism (the per-experiment mean does not).
  const double eta =
      done_ == 0 || total_ < done_ ? 0.0 : elapsed * double(total_ - done_) / double(done_);
  std::string hist;
  for (unsigned o = 0; o < apps::kNumOutcomes; ++o) {
    if (counts_[o] == 0) continue;
    if (!hist.empty()) hist += ' ';
    hist += apps::outcome_name(static_cast<apps::Outcome>(o));
    hist += '=';
    hist += std::to_string(counts_[o]);
  }
  std::fprintf(out_, "progress: %zu/%zu (%.0f%%) [%s] mean=%.3fs eta=%.0fs\n", done_,
               total_, total_ == 0 ? 0.0 : 100.0 * double(done_) / double(total_),
               hist.c_str(), mean_wall_.mean(), eta);
  std::fflush(out_);
}

}  // namespace gemfi::campaign
