#include "campaign/service/journal.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace gemfi::campaign::service {

namespace fs = std::filesystem;

namespace {

/// Repair a crash-truncated file in place: drop any bytes after the last
/// newline (a line the dying process never finished writing). Returns true
/// if bytes were removed.
bool repair_tail(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size == 0) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("journal: cannot open " + path.string());
  std::string data(std::size_t(size), '\0');
  in.read(data.data(), std::streamsize(size));
  const auto last_nl = data.find_last_of('\n');
  const std::uintmax_t keep = last_nl == std::string::npos ? 0 : last_nl + 1;
  if (keep == size) return false;
  fs::resize_file(path, keep, ec);
  if (ec)
    throw std::runtime_error("journal: cannot repair truncated tail of " +
                             path.string());
  return true;
}

/// Append one line and flush it. A short write or a failed flush (ENOSPC,
/// EIO) throws naming the file, so the caller never acknowledges a line that
/// is not in it.
void append_line(std::FILE* f, const std::string& line, const std::string& path) {
  if (std::fwrite(line.data(), 1, line.size(), f) != line.size() ||
      std::fputc('\n', f) == EOF || std::fflush(f) != 0)
    throw std::runtime_error("journal: cannot write " + path);
}

std::vector<std::string> read_lines(const fs::path& path) {
  std::vector<std::string> lines;
  std::ifstream in(path, std::ios::binary);
  if (!in) return lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

}  // namespace

Journal::Journal(std::string root) : root_(std::move(root)) {
  if (root_.empty()) throw std::runtime_error("journal: empty root directory");
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) throw std::runtime_error("journal: cannot create directory " + root_);

  const fs::path events_path = fs::path(root_) / "campaigns.jsonl";

  // --- recovery: replay lifecycle events ---
  struct Entry {
    CampaignSpec spec;
    bool terminal = false;
  };
  std::map<std::uint64_t, Entry> table;
  if (fs::exists(events_path)) {
    if (repair_tail(events_path)) ++recovered_.repaired_files;
    for (const std::string& line : read_lines(events_path)) {
      try {
        const jsonl::Value v = jsonl::parse(line);
        const std::string event = v.at("event").as_string();
        const std::uint64_t id = v.at("id").as_u64();
        recovered_.next_campaign_id = std::max(recovered_.next_campaign_id, id + 1);
        if (event == "submit") {
          table[id] = Entry{CampaignSpec::from_json(v), false};
        } else if (event == "done" || event == "cancelled" || event == "failed") {
          const auto it = table.find(id);
          if (it != table.end()) it->second.terminal = true;
        } else if (event == "calibrated") {
          // Informational (calibration cost); the restarted service
          // recalibrates anyway, so nothing to replay.
        } else {
          ++recovered_.skipped_lines;
        }
      } catch (const std::exception&) {
        ++recovered_.skipped_lines;
      }
    }
  }

  // --- recovery: per-campaign high-water marks ---
  for (auto& [id, entry] : table) {
    if (entry.terminal) continue;
    RecoveredCampaign rc;
    rc.id = id;
    rc.spec = std::move(entry.spec);
    const fs::path rpath = results_path(id);
    if (fs::exists(rpath)) {
      if (repair_tail(rpath)) ++recovered_.repaired_files;
      std::set<std::uint64_t> seen;
      for (const std::string& line : read_lines(rpath)) {
        try {
          const std::uint64_t index = jsonl::parse(line).at("index").as_u64();
          if (index >= rc.spec.experiments || !seen.insert(index).second) {
            ++rc.duplicate_result_lines;
            continue;
          }
          rc.done_indices.push_back(index);
        } catch (const std::exception&) {
          ++recovered_.skipped_lines;
        }
      }
    }
    recovered_.live.push_back(std::move(rc));
  }

  events_ = std::fopen(events_path.c_str(), "ab");
  if (!events_)
    throw std::runtime_error("journal: cannot open for append: " +
                             events_path.string());
}

Journal::~Journal() {
  if (results_cache_) std::fclose(results_cache_);
  if (events_) std::fclose(events_);
}

void Journal::append_event_line(const std::string& line) {
  append_line(events_, line, (fs::path(root_) / "campaigns.jsonl").string());
}

void Journal::record_submit(std::uint64_t id, const CampaignSpec& spec) {
  // Splice the event/id fields into the spec's own JSON object so one line
  // carries the whole submission.
  const std::string spec_json = spec.to_json();  // "{...}"
  jsonl::ObjectWriter head;
  head.field("event", "submit").field("id", id);
  std::string line = head.str();  // "{"event":...,"id":N}"
  line.pop_back();                // strip '}'
  line += ',';
  line += spec_json.substr(1);  // skip '{'
  append_event_line(line);
}

void Journal::record_calibrated(std::uint64_t id, double calib_wall_seconds) {
  jsonl::ObjectWriter w;
  w.field("event", "calibrated")
      .field("id", id)
      .field("calib_wall_seconds", calib_wall_seconds);
  append_event_line(w.str());
}

void Journal::record_terminal(std::uint64_t id, CampaignState state,
                              const std::string& error) {
  jsonl::ObjectWriter w;
  w.field("event", campaign_state_name(state)).field("id", id);
  if (!error.empty()) w.field("error", error);
  append_event_line(w.str());
}

void Journal::append_result(std::uint64_t id, const std::string& json_line) {
  // Results append with open/write/close per line? No — that would be three
  // syscalls per experiment anyway; keep one FILE* for the hot campaign
  // instead. The LRU-of-one is enough: the service appends in bursts per
  // campaign, and correctness only needs append+flush.
  if (results_cache_id_ != id || results_cache_ == nullptr) {
    if (results_cache_) std::fclose(results_cache_);
    results_cache_ = std::fopen(results_path(id).c_str(), "ab");
    results_cache_id_ = id;
    if (!results_cache_)
      throw std::runtime_error("journal: cannot append results for campaign " +
                               std::to_string(id));
  }
  append_line(results_cache_, json_line, results_path(id));
}

std::vector<std::string> Journal::read_result_lines(std::uint64_t id) const {
  return read_lines(results_path(id));
}

std::string Journal::results_path(std::uint64_t id) const {
  return (fs::path(root_) / ("c" + std::to_string(id) + ".results.jsonl")).string();
}

}  // namespace gemfi::campaign::service
