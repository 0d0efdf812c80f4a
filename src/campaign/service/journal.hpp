// Crash-recovery journal for the campaign service.
//
// The service's durability story is two kinds of append-only JSONL files
// under one root directory:
//
//   <root>/campaigns.jsonl      lifecycle events, one JSON object per line:
//                                 {"event":"submit","id":N, ...spec fields}
//                                 {"event":"done"|"cancelled"|"failed","id":N[,"error":...]}
//   <root>/c<id>.results.jsonl  one experiment_record_to_json() line per
//                               completed experiment of campaign N — this IS
//                               the campaign's high-water mark.
//
// Every line is flushed as it is written, so a SIGKILLed service loses at
// most the line being written. On restart, recovery (a) truncates any
// partial trailing line left by the crash (a write cut mid-record), then
// (b) replays campaigns.jsonl to rebuild the campaign table, and (c) reads
// each live campaign's results file to recover the exact set of completed
// experiment ids. The service re-dispatches only the missing ids and appends
// only their records, so the final results file holds every experiment id
// exactly once — the exactly-once guarantee survives the crash.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/service/spec.hpp"

namespace gemfi::campaign::service {

/// One live (non-terminal) campaign reconstructed from the journal.
struct RecoveredCampaign {
  std::uint64_t id = 0;
  CampaignSpec spec;
  std::vector<std::uint64_t> done_indices;  // unique, from the results file
  std::uint64_t duplicate_result_lines = 0;  // same id journaled twice (bug tell)
};

struct RecoveredJournal {
  std::vector<RecoveredCampaign> live;  // submitted, not yet terminal
  std::uint64_t next_campaign_id = 1;   // max journaled id + 1
  std::uint64_t repaired_files = 0;     // files with a truncated tail removed
  std::uint64_t skipped_lines = 0;      // complete but unparsable lines
};

class Journal {
 public:
  /// Opens (creating the directory if needed) and recovers the journal at
  /// `root`. Repairs truncated tails in place before reading. Throws
  /// std::runtime_error if the directory or its files are unusable.
  explicit Journal(std::string root);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  [[nodiscard]] const std::string& root() const noexcept { return root_; }
  /// What recovery found; populated once at construction.
  [[nodiscard]] const RecoveredJournal& recovered() const noexcept { return recovered_; }

  // --- appends (each line flushed before returning) ---
  void record_submit(std::uint64_t id, const CampaignSpec& spec);
  /// One line per completed calibration: the golden-run wall cost.
  /// Informational — recovery recognizes and skips it without counting it
  /// as damage.
  void record_calibrated(std::uint64_t id, double calib_wall_seconds);
  void record_terminal(std::uint64_t id, CampaignState state, const std::string& error);
  void append_result(std::uint64_t id, const std::string& json_line);

  /// All complete result lines journaled so far for campaign `id`, in append
  /// order (used to replay history to a StreamResults subscriber).
  [[nodiscard]] std::vector<std::string> read_result_lines(std::uint64_t id) const;

  [[nodiscard]] std::string results_path(std::uint64_t id) const;

 private:
  std::string root_;
  RecoveredJournal recovered_;
  std::FILE* events_ = nullptr;  // campaigns.jsonl, append mode
  // LRU-of-one append handle for the hot campaign's results file. Instance
  // state, not thread_local: two Journals (a test, or a future multi-journal
  // process) must never share a cached handle keyed only by campaign id.
  std::FILE* results_cache_ = nullptr;
  std::uint64_t results_cache_id_ = 0;

  void append_event_line(const std::string& line);
};

}  // namespace gemfi::campaign::service
