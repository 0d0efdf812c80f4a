// Campaign determinism regression: a seeded campaign is a pure function of
// (app, seed, fault list, config). Running it twice must stream byte-
// identical canonical JSONL records (host-timing fields excluded); replaying
// one experiment in isolation from its (seed, index) — the gemfi_cli
// --replay path — must reproduce its record, restore cost aside; and the
// predecoded-instruction cache must not perturb any of it: the same campaign
// with predecode off yields the very same bytes.
#include <gtest/gtest.h>

#include <cctype>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/observer.hpp"
#include "campaign/runner.hpp"

namespace {

using namespace gemfi;
using namespace gemfi::campaign;

/// Collects the canonical (host-timing-free) JSON line of every record.
class CanonicalCollector final : public CampaignObserver {
 public:
  void on_experiment(const ExperimentRecord& rec) override {
    std::lock_guard lock(mutex_);
    if (rec.index >= lines_.size()) lines_.resize(rec.index + 1);
    lines_[rec.index] = experiment_record_to_json(rec, /*include_host_timing=*/false);
  }
  [[nodiscard]] const std::vector<std::string>& lines() const noexcept { return lines_; }

 private:
  std::mutex mutex_;
  std::vector<std::string> lines_;
};

constexpr std::uint64_t kSeed = 12345;
constexpr std::size_t kExperiments = 6;

CampaignConfig base_config(bool predecode) {
  CampaignConfig cfg;
  cfg.cpu = sim::CpuKind::Pipelined;
  cfg.workers = 1;  // record order and worker ids are part of the bytes
  cfg.campaign_seed = kSeed;
  cfg.predecode = predecode;
  return cfg;
}

/// A canonical record line without restore_pages and restore_bytes: a
/// campaign restores by dirty-page copy and an isolated replay by a full
/// restore, so those two cost fields are all that may differ between them.
std::string without_restore_cost(std::string line) {
  for (const std::string key : {",\"restore_pages\":", ",\"restore_bytes\":"}) {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) continue;
    std::size_t end = at + key.size();
    while (end < line.size() && std::isdigit(static_cast<unsigned char>(line[end])))
      ++end;
    line.erase(at, end - at);
  }
  return line;
}

std::vector<std::string> run_campaign_canonical(const CalibratedApp& ca,
                                                const CampaignConfig& base) {
  CanonicalCollector collector;
  CampaignConfig cfg = base;
  cfg.observer = &collector;
  const auto faults = seeded_fault_set(kSeed, kExperiments, ca.kernel_fetches);
  const CampaignReport report = run_campaign(ca, faults, cfg);
  EXPECT_EQ(report.total(), kExperiments);
  return collector.lines();
}

TEST(CampaignDeterminism, SeededCampaignIsByteIdenticalAcrossRunsAndReplay) {
  const CampaignConfig cfg = base_config(/*predecode=*/true);
  const CalibratedApp ca = calibrate(apps::build_app("pi"), cfg);

  const std::vector<std::string> first = run_campaign_canonical(ca, cfg);
  const std::vector<std::string> second = run_campaign_canonical(ca, cfg);
  ASSERT_EQ(first.size(), kExperiments);
  ASSERT_EQ(second.size(), kExperiments);
  for (std::size_t i = 0; i < kExperiments; ++i)
    EXPECT_EQ(first[i], second[i]) << "record " << i << " drifted between runs";

  // The gemfi_cli --replay path: regenerate experiment i's fault from
  // (campaign_seed, i) alone and run it in isolation; its canonical record
  // must match the in-campaign bytes.
  for (const std::size_t index : {std::size_t(0), kExperiments - 1}) {
    const fi::Fault f = seeded_fault_any(kSeed, index, ca.kernel_fetches);
    const ExperimentResult er = run_experiment_with_retry(ca, f, cfg);
    const ExperimentRecord rec{index, 0, experiment_seed(kSeed, index), er};
    const std::string replayed =
        experiment_record_to_json(rec, /*include_host_timing=*/false);
    EXPECT_EQ(without_restore_cost(replayed), without_restore_cost(first[index]))
        << "replay of experiment " << index << " diverged from the campaign record";
  }
}

TEST(CampaignDeterminism, SyscallFaultCampaignIsByteIdenticalAcrossRunsAndReplay) {
  // Syscall plans ride the same determinism contract: a campaign mixing a
  // fixed plan with per-experiment seeded random plans must stream identical
  // canonical records run over run, and the --replay path must rebuild the
  // exact plan set for an index from (campaign_seed, index) alone.
  CampaignConfig cfg = base_config(/*predecode=*/true);
  cfg.syscall_plans.push_back(fi::parse_syscall_plan("write@idx:3 errno:EIO"));
  cfg.random_syscall_faults = true;
  const CalibratedApp ca = calibrate(apps::build_app("logwriter"), cfg);

  const std::vector<std::string> first = run_campaign_canonical(ca, cfg);
  const std::vector<std::string> second = run_campaign_canonical(ca, cfg);
  ASSERT_EQ(first.size(), kExperiments);
  ASSERT_EQ(second.size(), kExperiments);
  for (std::size_t i = 0; i < kExperiments; ++i)
    EXPECT_EQ(first[i], second[i]) << "record " << i << " drifted between runs";
  // The plans actually reached the records (the run wasn't vacuously golden).
  for (std::size_t i = 0; i < kExperiments; ++i)
    EXPECT_NE(first[i].find("\"syscall_plan\""), std::string::npos)
        << "record " << i << " carries no syscall plan";

  for (const std::size_t index : {std::size_t(0), kExperiments - 1}) {
    const fi::Fault f = seeded_fault_any(kSeed, index, ca.kernel_fetches);
    const std::vector<fi::SyscallFaultPlan> plans = plans_for_experiment(cfg, index);
    ASSERT_EQ(plans.size(), 2u);  // the fixed plan + the seeded random draw
    const ExperimentResult er = run_experiment_with_retry(ca, f, cfg, &plans);
    const ExperimentRecord rec{index, 0, experiment_seed(kSeed, index), er};
    const std::string replayed =
        experiment_record_to_json(rec, /*include_host_timing=*/false);
    EXPECT_EQ(without_restore_cost(replayed), without_restore_cost(first[index]))
        << "replay of experiment " << index << " diverged from the campaign record";
  }
}

TEST(CampaignDeterminism, PredecodeDoesNotChangeCampaignRecords) {
  // The fast path must be invisible in every simulated-state field:
  // outcomes, classification metrics, sim_ticks, applied flags — the whole
  // canonical record, byte for byte.
  const CalibratedApp ca = calibrate(apps::build_app("pi"), base_config(true));
  const std::vector<std::string> on = run_campaign_canonical(ca, base_config(true));
  const std::vector<std::string> off = run_campaign_canonical(ca, base_config(false));
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i)
    EXPECT_EQ(on[i], off[i]) << "record " << i << " differs with predecode=false";
}

}  // namespace
