// gemfi_submit — client CLI for the campaign-manager daemon.
//
// Submit a campaign to a running gemfi_campaignd, poll status, cancel, or
// stream a campaign's JSONL results to a file / stdout.
//
// Usage:
//   gemfi_submit --port=<p> [--host=<h>] --app=<name> --experiments=<n>
//       [--tenant=<t>] [--name=<label>] [--seed=<u64>] [--weight=<k>]
//       [--max-workers=<k>] [--cpu=atomic|timing|pipelined] [--paper]
//       [--deadline=<s>] [--retries=<k>] [--watchdog-mult=<k>]
//       [--wait] [--out=<file.jsonl>]     stream results until terminal
//   gemfi_submit --port=<p> --status[=<id>]
//   gemfi_submit --port=<p> --cancel=<id>
//   gemfi_submit --port=<p> --watch=<id> [--out=<file.jsonl>]
//
// Exit codes: 0 ok (and, with --wait/--watch, campaign finished Done),
// 3 campaign ended cancelled/failed, 2 errors.
#include <cstdio>
#include <fstream>
#include <string>

#include "campaign/analytics/aggregator.hpp"
#include "campaign/service/client.hpp"
#include "flag_parse.hpp"

using namespace gemfi;
using namespace gemfi::cliflags;
namespace service = gemfi::campaign::service;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port=<p> [--host=<h>] --app=<name> --experiments=<n>\n"
      "           [--tenant=<t>] [--name=<label>] [--seed=<u64>] [--weight=<k>]\n"
      "           [--max-workers=<k>] [--cpu=atomic|timing|pipelined] [--paper]\n"
      "           [--deadline=<s>] [--retries=<k>] [--watchdog-mult=<k>]\n"
      "           [--stop-ci=EPS[@CONF]] sequential early stop for this campaign\n"
      "           [--wait] [--out=<file.jsonl>]\n"
      "       %s --port=<p> --status[=<id>]\n"
      "       %s --port=<p> --cancel=<id>\n"
      "       %s --port=<p> --watch=<id> [--out=<file.jsonl>]\n",
      argv0, argv0, argv0, argv0);
  std::exit(2);
}

void print_status(const service::CampaignStatus& s) {
  std::printf("c%llu tenant=%s app=%s%s%s %s %llu/%llu workers=%u weight=%u "
              "inflight=%llu age=%.1fs%s%s\n",
              (unsigned long long)s.id, s.tenant.c_str(), s.app_name.c_str(),
              s.name.empty() ? "" : " name=", s.name.c_str(),
              service::campaign_state_name(s.state),
              (unsigned long long)s.completed, (unsigned long long)s.total,
              s.workers, s.weight, (unsigned long long)s.inflight, s.age_seconds,
              s.error.empty() ? "" : " error=", s.error.c_str());
}

/// Stream campaign `id` to `out_path` (or stdout); returns the exit code.
int watch(service::Client& client, std::uint64_t id, const std::string& out_path) {
  std::ofstream out;
  if (!out_path.empty()) {
    out.open(out_path, std::ios::out | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 2;
    }
  }
  std::size_t lines = 0;
  const service::CampaignState end = client.stream(id, [&](const std::string& line) {
    ++lines;
    if (out.is_open()) out << line << '\n';
    else std::printf("%s\n", line.c_str());
  });
  if (out.is_open()) out.flush();
  std::fprintf(stderr, "campaign %llu %s after %zu records%s%s\n",
               (unsigned long long)id, service::campaign_state_name(end), lines,
               out_path.empty() ? "" : " -> ", out_path.c_str());
  return end == service::CampaignState::Done ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string out_path;
  service::CampaignSpec spec;
  bool do_status = false, do_wait = false;
  std::uint64_t status_id = 0, cancel_id = 0, watch_id = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--host=", 0) == 0) host = arg.substr(7);
    else if (arg.rfind("--port=", 0) == 0)
      port = parse_u16_flag("port", arg.substr(7));
    else if (arg.rfind("--app=", 0) == 0) spec.app_name = arg.substr(6);
    else if (arg.rfind("--experiments=", 0) == 0)
      spec.experiments = parse_u64_flag("experiments", arg.substr(14));
    else if (arg.rfind("--tenant=", 0) == 0) spec.tenant = arg.substr(9);
    else if (arg.rfind("--name=", 0) == 0) spec.name = arg.substr(7);
    else if (arg.rfind("--seed=", 0) == 0)
      spec.campaign_seed = parse_u64_flag("seed", arg.substr(7));
    else if (arg.rfind("--weight=", 0) == 0)
      spec.weight = parse_u32_flag("weight", arg.substr(9));
    else if (arg.rfind("--max-workers=", 0) == 0)
      spec.max_workers = parse_u32_flag("max-workers", arg.substr(14));
    else if (arg.rfind("--cpu=", 0) == 0) {
      const std::string kind = arg.substr(6);
      if (kind == "atomic") spec.cpu = std::uint8_t(sim::CpuKind::AtomicSimple);
      else if (kind == "timing") spec.cpu = std::uint8_t(sim::CpuKind::TimingSimple);
      else if (kind == "pipelined") spec.cpu = std::uint8_t(sim::CpuKind::Pipelined);
      else usage(argv[0]);
    } else if (arg == "--paper") spec.paper_scale = true;
    else if (arg.rfind("--deadline=", 0) == 0)
      spec.deadline_seconds = parse_f64_flag("deadline", arg.substr(11));
    else if (arg.rfind("--retries=", 0) == 0)
      spec.max_retries = parse_u32_flag("retries", arg.substr(10));
    else if (arg.rfind("--watchdog-mult=", 0) == 0)
      spec.watchdog_mult = parse_u64_flag("watchdog-mult", arg.substr(16));
    else if (arg.rfind("--stop-ci=", 0) == 0) {
      try {
        const campaign::StopPolicy p = campaign::parse_stop_ci(arg.substr(10));
        spec.stop_eps = p.eps;
        spec.stop_conf = p.confidence;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (arg == "--status") do_status = true;
    else if (arg.rfind("--status=", 0) == 0) {
      do_status = true;
      status_id = parse_u64_flag("status", arg.substr(9));
    } else if (arg.rfind("--cancel=", 0) == 0)
      cancel_id = parse_u64_flag("cancel", arg.substr(9));
    else if (arg.rfind("--watch=", 0) == 0)
      watch_id = parse_u64_flag("watch", arg.substr(8));
    else if (arg == "--wait") do_wait = true;
    else if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
    else usage(argv[0]);
  }
  if (port == 0) usage(argv[0]);
  const bool do_submit = !spec.app_name.empty();
  if (!do_submit && !do_status && cancel_id == 0 && watch_id == 0) usage(argv[0]);

  try {
    service::Client client = service::Client::connect(host, port);
    if (do_status) {
      for (const service::CampaignStatus& s : client.status(status_id))
        print_status(s);
      return 0;
    }
    if (cancel_id != 0) {
      client.cancel(cancel_id);
      std::fprintf(stderr, "campaign %llu cancelled\n",
                   (unsigned long long)cancel_id);
      return 0;
    }
    if (watch_id != 0) return watch(client, watch_id, out_path);
    const std::uint64_t id = client.submit(spec);
    std::fprintf(stderr, "submitted campaign %llu (%s, %llu experiments)\n",
                 (unsigned long long)id, spec.app_name.c_str(),
                 (unsigned long long)spec.experiments);
    std::printf("%llu\n", (unsigned long long)id);
    if (do_wait) return watch(client, id, out_path);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gemfi_submit: %s\n", e.what());
    return 2;
  }
}
