// gemfi_now_worker — one workstation of the NoW campaign service (paper
// Sec. III-E): connects to a `gemfi_cli` NoW master (one started with
// --port, --bind or --now-local), receives the calibrated app and its
// checkpoint once, then runs experiment batches on `--slots` parallel
// persistent-Simulation slots until the master sends Shutdown.
//
// Usage:
//   gemfi_now_worker --host=<master> --port=<p> [--slots=<k>]
//       [--reconnects=<n>]   re-establish a lost connection up to n times
//
// Each connection attempt retries for about 30 s, so workers may start
// before their master.
//
// Exit codes: 0 clean shutdown from the master, 1 connection lost for good,
// 2 never connected.
#include <cstdio>
#include <cstring>
#include <string>

#include "campaign/dispatch.hpp"
#include "flag_parse.hpp"

using namespace gemfi;
using namespace gemfi::cliflags;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --host=<master> --port=<p> [--slots=<k>] [--reconnects=<n>]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  campaign::WorkerConfig wcfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--host=", 0) == 0) wcfg.host = arg.substr(7);
    else if (arg.rfind("--port=", 0) == 0)
      wcfg.port = parse_u16_flag("port", arg.substr(7));
    else if (arg.rfind("--slots=", 0) == 0)
      wcfg.slots = unsigned(parse_count_flag("slots", arg.substr(8)));
    else if (arg.rfind("--reconnects=", 0) == 0)
      wcfg.max_reconnects = parse_u32_flag("reconnects", arg.substr(13));
    else usage(argv[0]);
  }
  if (wcfg.port == 0) usage(argv[0]);

  std::fprintf(stderr, "worker: connecting to %s:%u with %u slots\n",
               wcfg.host.c_str(), unsigned(wcfg.port), wcfg.slots);
  const int rc = campaign::run_worker(wcfg);
  std::fprintf(stderr, "worker: %s\n",
               rc == 0 ? "clean shutdown"
               : rc == 2 ? "could not connect"
                         : "connection lost");
  return rc;
}
