// Campaign specs and status records for the FI-as-a-Service control plane.
//
// A CampaignSpec is everything a client must say to get a campaign run: the
// app and its scale, the experiment count and seed, the execution knobs that
// affect results (not the host-side engine tier, which does not), and the
// multi-tenant scheduling inputs (tenant, fair-share weight, worker quota).
// The same struct is the unit of durability — the
// service journals each accepted spec as one JSON line and rebuilds its
// campaign table from those lines after a crash. That JSON line is the
// spec's only encoding: SubmitCampaign carries it on the wire too.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "apps/app.hpp"
#include "campaign/jsonl.hpp"
#include "campaign/runner.hpp"

namespace gemfi::campaign::service {

struct CampaignSpec {
  std::string tenant = "default";  // fair-share accounting key
  std::string name;                // human label, free-form
  std::string app_name;
  bool paper_scale = false;
  std::uint64_t app_scale_seed = 0x5eed0001;

  std::uint64_t experiments = 0;  // campaign size (seeded_fault_set count)
  std::uint64_t campaign_seed = 42;

  // Scheduling inputs.
  std::uint32_t weight = 1;       // fair-share weight of this campaign
  std::uint32_t max_workers = 0;  // worker-lease quota, 0 = unlimited

  // Execution knobs shipped to workers via the Welcome (the subset of
  // CampaignConfig that affects experiment results).
  std::uint8_t cpu = std::uint8_t(sim::CpuKind::Pipelined);
  std::uint64_t watchdog_mult = 8;
  double deadline_seconds = 0.0;
  std::uint32_t max_retries = 2;

  /// Sequential early-stop rule: stop once every outcome proportion's
  /// Wilson CI half-width is below stop_eps at stop_conf confidence,
  /// evaluated on index-ordered prefixes. 0 disables (run all experiments).
  double stop_eps = 0.0;
  double stop_conf = 0.99;

  /// Throws std::invalid_argument on an unusable spec (no app, zero
  /// experiments, out-of-range cpu kind, empty tenant, zero weight).
  void validate() const;

  [[nodiscard]] CampaignConfig to_campaign_config() const;
  [[nodiscard]] apps::AppScale to_scale() const;

  /// Journal form: the spec's fields as one flat JSON object (no newline).
  [[nodiscard]] std::string to_json() const;
  /// Rebuild from a parsed journal object or SubmitCampaign payload; missing
  /// optional fields keep their defaults and unknown ones are ignored, so old
  /// journals load under newer builds. Integers are range-checked before
  /// they are narrowed. Throws std::invalid_argument / std::out_of_range on
  /// malformed input.
  static CampaignSpec from_json(const jsonl::Value& v);
};

/// Lifecycle of a service-managed campaign. Queued/Calibrating/Running are
/// live; Done/Cancelled/Failed are terminal and journaled.
enum class CampaignState : std::uint8_t {
  Queued = 0,
  Calibrating = 1,
  Running = 2,
  Done = 3,
  Cancelled = 4,
  Failed = 5,
};

inline constexpr unsigned kNumCampaignStates = 6;

const char* campaign_state_name(CampaignState s) noexcept;

[[nodiscard]] constexpr bool is_terminal(CampaignState s) noexcept {
  return s == CampaignState::Done || s == CampaignState::Cancelled ||
         s == CampaignState::Failed;
}

/// One campaign's status as reported to clients (StatusReply payload) and
/// printed by the daemon: identity, progress, scheduling share, outcomes.
struct CampaignStatus {
  std::uint64_t id = 0;
  std::string tenant;
  std::string name;
  std::string app_name;
  CampaignState state = CampaignState::Queued;
  std::uint64_t total = 0;
  std::uint64_t completed = 0;
  std::uint64_t inflight = 0;    // dispatched, result not yet in
  std::uint64_t dispatched = 0;  // experiments shipped to workers (share metric)
  std::uint32_t workers = 0;     // workers currently leased
  std::uint32_t weight = 1;
  std::array<std::uint64_t, apps::kNumOutcomes> counts{};
  std::string error;  // Failed: why
  double age_seconds = 0.0;
};

}  // namespace gemfi::campaign::service
