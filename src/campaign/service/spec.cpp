#include "campaign/service/spec.hpp"

#include <stdexcept>

namespace gemfi::campaign::service {

void CampaignSpec::validate() const {
  if (app_name.empty()) throw std::invalid_argument("campaign spec: empty app name");
  if (experiments == 0)
    throw std::invalid_argument("campaign spec: zero experiments");
  if (tenant.empty()) throw std::invalid_argument("campaign spec: empty tenant");
  if (weight == 0) throw std::invalid_argument("campaign spec: zero weight");
  if (cpu > std::uint8_t(sim::CpuKind::Pipelined))
    throw std::invalid_argument("campaign spec: out-of-range cpu kind " +
                                std::to_string(cpu));
  if (stop_eps < 0.0 || stop_eps > 0.5)
    throw std::invalid_argument("campaign spec: stop_eps out of [0, 0.5]");
  if (stop_eps > 0.0 && (stop_conf <= 0.5 || stop_conf >= 1.0))
    throw std::invalid_argument("campaign spec: stop_conf out of (0.5, 1)");
}

CampaignConfig CampaignSpec::to_campaign_config() const {
  CampaignConfig cfg;
  cfg.cpu = static_cast<sim::CpuKind>(cpu);
  cfg.watchdog_mult = watchdog_mult;
  cfg.campaign_seed = campaign_seed;
  cfg.deadline_seconds = deadline_seconds;
  cfg.max_retries = max_retries;
  return cfg;
}

apps::AppScale CampaignSpec::to_scale() const {
  apps::AppScale scale;
  scale.paper = paper_scale;
  scale.seed = app_scale_seed;
  return scale;
}

std::string CampaignSpec::to_json() const {
  jsonl::ObjectWriter w;
  w.field("tenant", tenant)
      .field("name", name)
      .field("app", app_name)
      .field("paper", paper_scale)
      .field("scale_seed", app_scale_seed)
      .field("experiments", experiments)
      .field("seed", campaign_seed)
      .field("weight", std::uint64_t(weight))
      .field("max_workers", std::uint64_t(max_workers))
      .field("cpu", std::uint64_t(cpu))
      .field("watchdog_mult", watchdog_mult)
      .field("deadline", deadline_seconds)
      .field("retries", std::uint64_t(max_retries))
      .field("stop_eps", stop_eps)
      .field("stop_conf", stop_conf);
  return w.str();
}

CampaignSpec CampaignSpec::from_json(const jsonl::Value& v) {
  if (!v.is_object()) throw std::invalid_argument("campaign spec: not a JSON object");
  CampaignSpec s;
  s.tenant = v.at("tenant").as_string();
  s.name = v.has("name") ? v.at("name").as_string() : "";
  s.app_name = v.at("app").as_string();
  if (v.has("paper")) s.paper_scale = v.at("paper").as_bool();
  if (v.has("scale_seed")) s.app_scale_seed = v.at("scale_seed").as_u64();
  s.experiments = v.at("experiments").as_u64();
  s.campaign_seed = v.at("seed").as_u64();
  if (v.has("weight")) s.weight = std::uint32_t(v.at("weight").as_u64());
  if (v.has("max_workers"))
    s.max_workers = std::uint32_t(v.at("max_workers").as_u64());
  if (v.has("cpu")) s.cpu = std::uint8_t(v.at("cpu").as_u64());
  if (v.has("watchdog_mult")) s.watchdog_mult = v.at("watchdog_mult").as_u64();
  if (v.has("deadline")) s.deadline_seconds = v.at("deadline").as_double();
  if (v.has("retries")) s.max_retries = std::uint32_t(v.at("retries").as_u64());
  if (v.has("stop_eps")) s.stop_eps = v.at("stop_eps").as_double();
  if (v.has("stop_conf")) s.stop_conf = v.at("stop_conf").as_double();
  s.validate();
  return s;
}

const char* campaign_state_name(CampaignState s) noexcept {
  switch (s) {
    case CampaignState::Queued: return "queued";
    case CampaignState::Calibrating: return "calibrating";
    case CampaignState::Running: return "running";
    case CampaignState::Done: return "done";
    case CampaignState::Cancelled: return "cancelled";
    case CampaignState::Failed: return "failed";
  }
  return "?";
}

}  // namespace gemfi::campaign::service
