// Campaign observability (the telemetry side of the paper's Sec. V story):
// campaigns are only cheap at scale if a hung or crashed experiment is
// visible while the campaign runs, not after it joins. Runners notify a
// CampaignObserver as each experiment completes; the two bundled observers
// stream one JSONL record per experiment (enough to re-run it in isolation)
// and print a throttled progress line with an outcome histogram and ETA.
//
// Thread-safety contract: on_experiment() may be invoked concurrently from
// every worker thread of a campaign; implementations must synchronize
// internally (both bundled observers lock). on_campaign_begin()/end() are
// called from the campaign's calling thread, before/after all workers.
#pragma once

#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>

#include "campaign/runner.hpp"
#include "util/stats.hpp"

namespace gemfi::campaign {

/// Render one telemetry record as a single-line JSON object (no newline).
/// The record is self-contained for replay: `fault` round-trips through
/// fi::parse_fault(), and (seed, index) regenerate the fault via
/// seeded_fault_any() when the campaign used seeded generation.
///
/// With `include_host_timing` false, the host-side field wall_seconds is
/// omitted; every remaining field is a pure function of the seeded
/// simulation, so two runs of the same campaign — on any engine tier —
/// produce byte-identical lines, the form the determinism regression tests
/// and `--replay` compare.
std::string experiment_record_to_json(const ExperimentRecord& rec,
                                      bool include_host_timing = true);

/// One "calibrated" header line for a campaign JSONL stream: the golden-run
/// costs and the host wall time calibration took. Emitted before the
/// experiment records by the campaign CLIs.
std::string calibration_record_to_json(const std::string& app_name,
                                       const CalibratedApp& ca);

class CampaignObserver {
 public:
  virtual ~CampaignObserver() = default;

  virtual void on_campaign_begin(std::size_t /*total_experiments*/) {}
  virtual void on_experiment(const ExperimentRecord& /*rec*/) {}
  virtual void on_campaign_end(const CampaignReport& /*report*/) {}

  /// One pre-rendered single-line JSON summary record (e.g. the
  /// `stopped_early` record the sequential stop rule emits, or the final
  /// aggregate). Called from the campaign's dispatch/control thread, at most
  /// a handful of times per campaign. JsonlSink appends it to the stream.
  virtual void on_campaign_summary(const std::string& /*line*/) {}
};

/// Streams one JSON line per completed experiment, flushed per record so a
/// killed campaign loses at most the in-flight experiments.
class JsonlSink final : public CampaignObserver {
 public:
  /// Truncates and writes `path`; throws std::runtime_error if unopenable.
  explicit JsonlSink(const std::string& path);
  /// Writes to an externally owned stream (tests, stdout adapters).
  explicit JsonlSink(std::ostream& os);

  void on_experiment(const ExperimentRecord& rec) override;
  void on_campaign_summary(const std::string& line) override { write_line(line); }

  /// Append one pre-rendered JSON line (e.g. the calibration header record).
  void write_line(const std::string& line);

  [[nodiscard]] std::size_t lines_written() const noexcept { return lines_; }

 private:
  std::mutex mutex_;
  std::ofstream owned_;
  std::ostream* os_;
  std::size_t lines_ = 0;
};

/// Prints a progress line at most every `min_interval_seconds` (and always
/// for the final experiment): done/total, outcome histogram so far, the
/// running mean experiment wall time, and an ETA from observed throughput.
class ProgressPrinter final : public CampaignObserver {
 public:
  explicit ProgressPrinter(std::FILE* out = stderr, double min_interval_seconds = 1.0);

  void on_campaign_begin(std::size_t total_experiments) override;
  void on_experiment(const ExperimentRecord& rec) override;

 private:
  std::mutex mutex_;
  std::FILE* out_;
  double min_interval_;
  std::size_t total_ = 0;
  std::size_t done_ = 0;
  std::size_t counts_[apps::kNumOutcomes] = {};
  util::RunningMean mean_wall_;
  double t0_ = 0.0;          // monotonic seconds at campaign begin
  double last_print_ = 0.0;  // monotonic seconds of the last line
};

/// Fans every event out to a fixed set of observers (e.g. JSONL + progress).
class TeeObserver final : public CampaignObserver {
 public:
  TeeObserver() = default;
  void add(CampaignObserver* obs) {
    if (obs) observers_.push_back(obs);
  }

  void on_campaign_begin(std::size_t total) override {
    for (CampaignObserver* o : observers_) o->on_campaign_begin(total);
  }
  void on_experiment(const ExperimentRecord& rec) override {
    for (CampaignObserver* o : observers_) o->on_experiment(rec);
  }
  void on_campaign_end(const CampaignReport& report) override {
    for (CampaignObserver* o : observers_) o->on_campaign_end(report);
  }
  void on_campaign_summary(const std::string& line) override {
    for (CampaignObserver* o : observers_) o->on_campaign_summary(line);
  }

 private:
  std::vector<CampaignObserver*> observers_;  // not owned
};

}  // namespace gemfi::campaign
