// gemfi_cli — the command-line front end, mirroring how the paper's tool is
// driven: "On GemFI invocation the user also provides — at command line — an
// input file specifying the faults to be injected" (Sec. III-A).
//
// Usage:
//   gemfi_cli --program=<file.s>    run a user-written uAlpha assembly file
//   gemfi_cli --app=<dct|jacobi|pi|knapsack|deblock|canneal|aes>
//             [--faults=<file>]        fault config, one Listing-1 line each
//             [--syscall-fault=<line>] one syscall fault plan (repeatable):
//                                        write@idx:3 errno:EIO
//                                        read@idx:2-5 tid:0 partial:0.5
//                                        * p:0.01@0x1234 latency:2000
//                                        recv corrupt:3@0xbeef
//             [--fault=<line>]         one inline fault spec (repeatable);
//                                      the grammar covers every model family:
//                                        transient   Flip:21 ... occ:1
//                                        stuck-at    StuckAt1:0x200000 ... occ:perm
//                                        intermittent ... occ:perm duty:2/16
//                                        burst       Burst:4+3 / RandK:3@0x1234
//                                        attack      SkipInjectedFault occ:3, or
//                                                    OpcodeInjectedFault ...
//                                                    pcwin:0x2000-0x2040
//             [--cpu=atomic|timing|pipelined]
//             [--paper]                paper-scale inputs
//             [--watchdog-mult=<k>]    watchdog = k * golden ticks
//             [--log]                  print the injection log
//   gemfi_cli --app=<name> --campaign=<n>   seeded random-fault campaign
//             [--seed=<u64>]           campaign seed (default 42)
//             [--random-syscall-faults] additionally arm one seeded random
//                                      syscall plan per experiment (plus any
//                                      --syscall-fault= lines, which apply to
//                                      every experiment)
//             [--workers=<k>]          parallel experiments (default 1)
//             [--out=<file.jsonl>]     stream one JSON record per experiment
//             [--progress]             periodic progress lines on stderr
//             [--deadline=<sec>]       wall-clock deadline per experiment
//             [--retries=<k>]          retries on simulator-internal errors
//   NoW master (paper Sec. III-E): with any of the flags below the campaign
//   is served over TCP to gemfi_now_worker processes instead of running on
//   in-process threads; each worker gets the checkpoint once and streams its
//   results back. Exit 0 when complete or stopped early, 3 when drained
//   short (^C), 2 on error.
//             [--now-local=<n>]        fork n loopback worker processes
//             [--slots=<k>]            experiment slots per --now-local worker
//             [--bind=<addr>]          listen address (default 127.0.0.1;
//                                      0.0.0.0 to serve a real cluster)
//             [--port=<p>]             listen port (default 0 = ephemeral,
//                                      printed with a gemfi_now_worker hint)
//             [--worker-timeout=<s>]   silence before a worker is declared dead
//             [--stop-ci=EPS[@CONF]]   sequential early stop: end the campaign
//                                      once every outcome CI half-width is
//                                      below EPS at CONF (default 0.99);
//                                      deterministic across worker counts
//   gemfi_cli --app=<name> --replay=<index> --seed=<u64> [--record=<file.jsonl>]
//             re-run one campaign experiment in isolation from its JSONL
//             record's (seed, index); prints the record to stdout. With
//             --record, the original campaign JSONL is read and the replay
//             asserts (exit 3) that the re-run's canonical record is
//             byte-identical to the original's (host-timing and checkpoint-
//             restore-telemetry fields aside — those describe the host, not
//             the simulated machine).
//
// A flag that the invocation's mode never reads exits 2 naming the flag.
//
// Every run uses the fastest engine tiers; records are byte-identical on
// every tier, so the tier is not an option. The per-tick reference loops
// are compared against in the oracle tests and in-process A/B benches.
//
// Examples:
//   echo 'RegisterInjectedFault Inst:2457 Flip:21 Threadid:0 system.cpu0 occ:1 int 1' > f.cfg
//   ./gemfi_cli --app=dct --faults=f.cfg --log
//   ./gemfi_cli --app=dct --campaign=100 --seed=7 --workers=4
//       --out=results.jsonl --progress
//   ./gemfi_cli --app=dct --campaign=2500 --bind=0.0.0.0 --port=7000 --out=r.jsonl
//       (then on each host: gemfi_now_worker --host=<master> --port=7000 --slots=4)
//   ./gemfi_cli --app=dct --replay=17 --seed=7
#include <bit>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "assembler/text_asm.hpp"
#include "campaign/dispatch.hpp"
#include "campaign/jsonl.hpp"
#include "campaign/observer.hpp"
#include "campaign/runner.hpp"
#include "flag_parse.hpp"
#include "mem/physmem.hpp"

using namespace gemfi;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --app=<name> [--faults=<file>] [--fault=<line>] "
               "[--syscall-fault=<line>] [--cpu=atomic|timing|"
               "pipelined] [--paper] [--watchdog-mult=<k>] [--log]\n"
               "       %s --app=<name> --campaign=<n> [--seed=<u64>] [--workers=<k>]\n"
               "           [--out=<file.jsonl>] [--progress] [--deadline=<sec>]\n"
               "           [--retries=<k>] [--syscall-fault=<line>] "
               "[--random-syscall-faults]\n"
               "           [--stop-ci=EPS[@CONF]] [--now-local=<n>] [--slots=<k>]\n"
               "           [--bind=<addr>] [--port=<p>] [--worker-timeout=<s>]\n"
               "       %s --app=<name> --replay=<index> --seed=<u64> "
               "[--record=<file.jsonl>]\n",
               argv0, argv0, argv0);
  std::exit(2);
}

using cliflags::parse_count_flag;
using cliflags::parse_f64_flag;
using cliflags::parse_u16_flag;
using cliflags::parse_u32_flag;
using cliflags::parse_u64_flag;

/// The campaign JSONL line of experiment `index` in `path`, or empty.
/// Event/header records (no "index" field) are skipped.
std::string find_record_line(const std::string& path, std::uint64_t index) {
  std::ifstream in(path);
  if (!in) return {};
  const std::string key = "{\"index\":" + std::to_string(index) + ",";
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0) return line;
  return {};
}

/// A record minus the keys that describe the host, not the simulated machine:
/// worker, wall time, the engine tier older builds wrote, and the restore
/// telemetry (a campaign's shared-baseline restore costs something else than
/// a replay's full restore). Throws on malformed JSON.
campaign::jsonl::Value replay_comparable(const std::string& line) {
  campaign::jsonl::Value v = campaign::jsonl::parse(line);
  for (const char* host_key :
       {"worker", "wall_seconds", "fastmode", "ckpt_format", "restore_pages", "restore_bytes"})
    v.object.erase(host_key);
  return v;
}

/// Run `faults` once (a --program run or a single run) and report it: the
/// guest output on stdout; the exit, the outcome when `classified`, the
/// syscall taxonomy and, with `show_log`, the injection log on stderr.
/// Returns 1 if the guest crashed, 2 on a simulator-internal error.
int run_and_report(const campaign::CalibratedApp& ca,
                   const std::vector<fi::Fault>& faults,
                   const campaign::CampaignConfig& cfg, bool classified, bool show_log) {
  campaign::ExperimentWorker ew(ca, nullptr, cfg);
  campaign::ExperimentResult er;
  try {
    er = ew.run(faults);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simulator error: %s\n", e.what());
    return 2;
  }
  const sim::Simulation& s = ew.simulation();
  const bool crashed = er.exit_reason == sim::ExitReason::Crashed;
  std::printf("%s", s.output(0).c_str());
  std::fprintf(stderr, "exit: %s", sim::exit_reason_name(er.exit_reason));
  if (crashed)
    std::fprintf(stderr, " (%s at pc=0x%llx)", cpu::trap_name(er.trap),
                 (unsigned long long)er.crash_pc);
  std::fprintf(stderr, "\n");
  if (classified) {
    const campaign::Classification& c = er.classification;
    std::fprintf(stderr, "outcome: %s", apps::outcome_name(c.outcome));
    if (c.outcome == apps::Outcome::Correct ||
        c.outcome == apps::Outcome::AttackEffective)
      std::fprintf(stderr, " (metric %.3f)", c.metric);
    std::fprintf(stderr, "\n");
  }
  if (!er.syscall_plans.empty()) {
    const campaign::SyscallClassification& sc = er.syscall_class;
    std::fprintf(stderr, "syscalls: %s (cascade %u, %llu injected%s)\n",
                 campaign::syscall_outcome_name(sc.outcome), sc.cascade_len,
                 (unsigned long long)er.syscalls_injected,
                 sc.unrealistic ? ", unrealistic errno" : "");
  }
  if (show_log)
    for (const auto& line : s.fault_manager().injection_log())
      std::fprintf(stderr, "inject: %s\n", line.c_str());
  return crashed ? 1 : 0;
}

/// What one invocation does, settled after parsing.
enum Mode : unsigned {
  kProgram = 1, kSingle = 2, kThreads = 4, kNowServe = 8, kNowLocal = 16, kReplay = 32
};
constexpr const char* kModeNames[] = {"a --program run", "a single run", "a campaign on threads",
                                      "a NoW campaign without --now-local", "a NoW campaign",
                                      "a replay"};  // indexed by the Mode bit
constexpr unsigned kNow = kNowServe | kNowLocal;
constexpr unsigned kCampaign = kThreads | kNow;
constexpr unsigned kApp = kSingle | kCampaign | kReplay;

/// The modes that read each flag. --app/--program, --cpu and --syscall-fault
/// are read by every mode.
struct FlagModes {
  const char* flag;
  unsigned modes;  // Mode bits
  const char* needs;
};
constexpr FlagModes kFlagModes[] = {
    {"faults", kProgram | kSingle, "a single run (no --campaign or --replay)"},
    {"fault", kProgram | kSingle, "a single run (no --campaign or --replay)"},
    {"log", kProgram | kSingle, "a single run (no --campaign or --replay)"},
    {"paper", kApp, "--app"},
    {"watchdog-mult", kApp, "--app"},
    {"campaign", kApp, "--app"},
    {"replay", kApp, "--app"},
    {"random-syscall-faults", kCampaign | kReplay, "--campaign or --replay"},
    {"seed", kCampaign | kReplay, "--campaign or --replay"},
    {"retries", kCampaign | kReplay, "--campaign or --replay"},
    {"deadline", kCampaign | kReplay, "--campaign or --replay"},
    {"out", kCampaign, "--campaign"},
    {"progress", kCampaign, "--campaign"},
    {"workers", kThreads, "--campaign without --now-local, --bind or --port"},
    {"now-local", kNow, "--campaign"},
    {"bind", kNow, "--campaign"},
    {"port", kNow, "--campaign"},
    {"stop-ci", kNow, "--campaign with --now-local, --bind or --port"},
    {"worker-timeout", kNow, "--campaign with --now-local, --bind or --port"},
    {"slots", kNowLocal, "--campaign with --now-local"},
    {"record", kReplay, "--replay"},
};

}  // namespace

int main(int argc, char** argv) {
  std::string app_name;
  std::string program_path;
  std::string fault_path;
  std::vector<std::string> inline_faults;
  std::vector<std::string> inline_syscall_faults;
  bool random_syscall_faults = false;
  std::string out_path;
  sim::CpuKind cpu = sim::CpuKind::Pipelined;
  apps::AppScale scale;
  std::uint64_t watchdog_mult = 8;
  bool show_log = false;
  bool progress = false;
  std::uint64_t campaign_n = 0;  // 0: no --campaign (a given count is >= 1)
  std::uint64_t campaign_seed = 42;
  std::int64_t replay_index = -1;
  std::string record_path;  // --replay: original campaign JSONL to check against
  unsigned workers = 1;
  unsigned now_local = 0;  // 0: no --now-local (a given count is >= 1)
  // NoW master settings: --stop-ci, --bind, --port, --worker-timeout.
  campaign::DispatchConfig dcfg;
  dcfg.handle_sigint = true;  // ^C drains gracefully, partial JSONL survives
  bool serve = false;
  unsigned slots = 1;
  unsigned retries = 2;
  double deadline = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--app=", 0) == 0) {
      app_name = arg.substr(6);
    } else if (arg.rfind("--program=", 0) == 0) {
      program_path = arg.substr(10);
    } else if (arg.rfind("--faults=", 0) == 0) {
      fault_path = arg.substr(9);
    } else if (arg.rfind("--fault=", 0) == 0) {
      inline_faults.push_back(arg.substr(8));
    } else if (arg.rfind("--syscall-fault=", 0) == 0) {
      inline_syscall_faults.push_back(arg.substr(16));
    } else if (arg == "--random-syscall-faults") {
      random_syscall_faults = true;
    } else if (arg.rfind("--cpu=", 0) == 0) {
      const std::string kind = arg.substr(6);
      if (kind == "atomic") cpu = sim::CpuKind::AtomicSimple;
      else if (kind == "timing") cpu = sim::CpuKind::TimingSimple;
      else if (kind == "pipelined") cpu = sim::CpuKind::Pipelined;
      else usage(argv[0]);
    } else if (arg == "--paper") {
      scale.paper = true;
    } else if (arg.rfind("--watchdog-mult=", 0) == 0) {
      watchdog_mult = parse_u64_flag("watchdog-mult", arg.substr(16));
    } else if (arg == "--log") {
      show_log = true;
    } else if (arg.rfind("--campaign=", 0) == 0) {
      campaign_n = parse_count_flag("campaign", arg.substr(11), ~0ull);
    } else if (arg.rfind("--seed=", 0) == 0) {
      campaign_seed = parse_u64_flag("seed", arg.substr(7));
    } else if (arg.rfind("--replay=", 0) == 0) {
      replay_index = std::int64_t(parse_u64_flag("replay", arg.substr(9)));
    } else if (arg.rfind("--record=", 0) == 0) {
      record_path = arg.substr(9);
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = unsigned(parse_count_flag("workers", arg.substr(10)));
    } else if (arg.rfind("--now-local=", 0) == 0) {
      now_local = unsigned(parse_count_flag("now-local", arg.substr(12)));
    } else if (arg.rfind("--stop-ci=", 0) == 0) {
      try {
        dcfg.stop = campaign::parse_stop_ci(arg.substr(10));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (arg.rfind("--bind=", 0) == 0) {
      dcfg.bind_address = arg.substr(7);
      serve = true;
    } else if (arg.rfind("--port=", 0) == 0) {
      dcfg.port = parse_u16_flag("port", arg.substr(7));
      serve = true;
    } else if (arg.rfind("--worker-timeout=", 0) == 0) {
      dcfg.worker_timeout_s = parse_f64_flag("worker-timeout", arg.substr(17));
    } else if (arg.rfind("--slots=", 0) == 0) {
      slots = unsigned(parse_count_flag("slots", arg.substr(8)));
    } else if (arg.rfind("--retries=", 0) == 0) {
      retries = parse_u32_flag("retries", arg.substr(10));
    } else if (arg.rfind("--deadline=", 0) == 0) {
      deadline = parse_f64_flag("deadline", arg.substr(11));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--progress") {
      progress = true;
    } else {
      usage(argv[0]);
    }
  }
  if (app_name.empty() == program_path.empty()) usage(argv[0]);  // exactly one
  if (campaign_n != 0 && replay_index >= 0) usage(argv[0]);
  // The NoW master serves the campaign when it forks workers or listens on a
  // chosen address. A flag its mode never reads is refused by name.
  const Mode mode = !program_path.empty() ? kProgram
                    : replay_index >= 0   ? kReplay
                    : campaign_n == 0     ? kSingle
                    : now_local > 0       ? kNowLocal
                    : serve               ? kNowServe
                                          : kThreads;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view name = arg.substr(2, arg.find('=') - 2);
    for (const FlagModes& f : kFlagModes) {
      if (name != f.flag || (f.modes & mode) != 0) continue;
      std::fprintf(stderr, "--%s has no effect on %s; it needs %s\n", f.flag,
                   kModeNames[std::countr_zero(unsigned(mode))], f.needs);
      return 2;
    }
  }

  std::vector<fi::Fault> faults;
  if (!fault_path.empty()) {
    std::ifstream in(fault_path);
    if (!in) {
      std::fprintf(stderr, "cannot open fault file: %s\n", fault_path.c_str());
      return 2;
    }
    std::ostringstream body;
    body << in.rdbuf();
    try {
      faults = fi::parse_fault_file(body.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  for (const std::string& line : inline_faults) {
    try {
      faults.push_back(fi::parse_fault(line));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--fault=%s: %s\n", line.c_str(), e.what());
      return 2;
    }
  }
  std::vector<fi::SyscallFaultPlan> syscall_plans;
  for (const std::string& line : inline_syscall_faults) {
    try {
      syscall_plans.push_back(fi::parse_syscall_plan(line));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--syscall-fault=%s: %s\n", line.c_str(), e.what());
      return 2;
    }
  }

  campaign::CampaignConfig cfg;
  cfg.cpu = cpu;
  cfg.watchdog_mult = watchdog_mult;
  cfg.switch_to_atomic_after_fault = true;
  cfg.workers = workers;
  cfg.campaign_seed = campaign_seed;
  cfg.deadline_seconds = deadline;
  cfg.max_retries = retries;
  cfg.syscall_plans = syscall_plans;
  cfg.random_syscall_faults = random_syscall_faults;

  if (!program_path.empty()) {
    // User-supplied .s file: assemble, run (with faults, if any), report.
    // There is no golden run to classify against or to size the watchdog by.
    campaign::CalibratedApp prog;
    prog.app.name = program_path;
    try {
      prog.app.program = assembler::assemble_file(program_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    prog.golden_ticks = 500'000'000;  // watchdog: ~500M ticks at multiplier 1
    cfg.watchdog_mult = 1;
    cfg.use_checkpoint = false;
    cfg.switch_to_atomic_after_fault = false;
    return run_and_report(prog, faults, cfg, /*classified=*/false, show_log);
  }

  std::fprintf(stderr, "calibrating %s on the %s model...\n", app_name.c_str(),
               sim::cpu_kind_name(cpu));
  campaign::CalibratedApp ca;
  try {
    ca = campaign::calibrate(apps::build_app(app_name, scale), cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::fprintf(stderr,
               "golden run: %llu instructions (%llu in the FI window), %llu ticks\n",
               (unsigned long long)ca.golden_committed,
               (unsigned long long)ca.kernel_fetches,
               (unsigned long long)ca.golden_ticks);
  if (!ca.checkpoint.empty()) {
    const chkpt::CheckpointStats cs =
        chkpt::CheckpointImage::parse(ca.checkpoint).stats();
    // Where the Welcome's bytes go: the stored pages, raw, and the
    // machine-state section (cache timing state, CPU, scheduler and OS).
    std::fprintf(stderr,
                 "checkpoint: %s, %llu/%llu pages stored (%llu page bytes, "
                 "%llu machine-state bytes), %llu -> %llu bytes (%.1fx)\n",
                 chkpt::checkpoint_format_name(cs.format),
                 (unsigned long long)cs.pages_stored,
                 (unsigned long long)cs.pages_total,
                 (unsigned long long)(cs.pages_stored * mem::PhysMem::kPageBytes),
                 (unsigned long long)(cs.raw_bytes - cs.mem_bytes),
                 (unsigned long long)cs.raw_bytes,
                 (unsigned long long)cs.encoded_bytes,
                 cs.encoded_bytes == 0
                     ? 0.0
                     : double(cs.raw_bytes) / double(cs.encoded_bytes));
  }

  if (replay_index >= 0) {
    // Re-run one campaign experiment in isolation: (seed, index) from its
    // JSONL record regenerate the identical fault deterministically.
    const std::uint64_t index = std::uint64_t(replay_index);
    std::string original;
    if (!record_path.empty()) {
      original = find_record_line(record_path, index);
      if (original.empty()) {
        std::fprintf(stderr, "replay %llu: no record with that index in %s\n",
                     (unsigned long long)index, record_path.c_str());
        return 2;
      }
    }
    const fi::Fault f = campaign::seeded_fault_any(campaign_seed, index, ca.kernel_fetches);
    const auto plans = campaign::plans_for_experiment(cfg, index);
    const auto er = campaign::run_experiment_with_retry(ca, f, cfg, &plans);
    const campaign::ExperimentRecord rec{
        std::size_t(index), 0, campaign::experiment_seed(campaign_seed, index), er};
    // Deterministic form (no host timing): two replays of the same (seed,
    // index, plans) print byte-identical records.
    const std::string canonical =
        campaign::experiment_record_to_json(rec, /*include_host_timing=*/false);
    bool same = true;
    try {
      same = original.empty() || replay_comparable(canonical) == replay_comparable(original);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", record_path.c_str(), e.what());
      return 2;
    }
    if (!same) {
      std::fprintf(stderr, "replay %llu: record diverged from the original\n  ran: %s\n  was: %s\n",
                   (unsigned long long)index, canonical.c_str(), original.c_str());
      return 3;
    }
    std::printf("%s\n", canonical.c_str());
    std::fprintf(stderr, "replay %llu: %s (exit %s)\n", (unsigned long long)index,
                 apps::outcome_name(er.classification.outcome),
                 sim::exit_reason_name(er.exit_reason));
    return 0;
  }

  if (campaign_n != 0) {
    campaign::TeeObserver tee;
    std::unique_ptr<campaign::JsonlSink> sink;
    std::unique_ptr<campaign::ProgressPrinter> reporter;
    if (!out_path.empty()) {
      try {
        sink = std::make_unique<campaign::JsonlSink>(out_path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
      // Calibration header: the golden-run costs and wall time, as the
      // stream's first record.
      sink->write_line(campaign::calibration_record_to_json(app_name, ca));
      tee.add(sink.get());
    }
    if (progress) {
      reporter = std::make_unique<campaign::ProgressPrinter>(stderr);
      tee.add(reporter.get());
    }
    cfg.observer = &tee;

    const auto fset = campaign::seeded_fault_set(campaign_seed, std::size_t(campaign_n),
                                                 ca.kernel_fetches);
    campaign::CampaignReport report;
    int rc = 0;
    if ((mode & kNow) != 0) {
      campaign::DispatchReport dr;
      campaign::LocalWorkerPool pool;
      try {
        campaign::Master master(ca, scale, fset, cfg, dcfg);
        std::fprintf(stderr, "master listening on %s:%u — start workers with:\n",
                     dcfg.bind_address.c_str(), unsigned(master.port()));
        std::fprintf(stderr,
                     "  gemfi_now_worker --host=<this-host> --port=%u --slots=<k>\n",
                     unsigned(master.port()));
        if (now_local > 0)
          pool = campaign::LocalWorkerPool::spawn(now_local, master.port(), slots);
        dr = master.run();
        pool.wait_all();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        for (std::size_t i = 0; i < pool.pids().size(); ++i) pool.kill_worker(i, SIGKILL);
        pool.wait_all();
        return 2;
      }
      report = dr.campaign;
      std::fprintf(stderr,
                   "NoW service: %zu/%zu experiments in %.2fs — %u workers joined, "
                   "%u lost, %llu requeued, %llu duplicates, "
                   "%.1f KiB checkpoint shipped%s\n",
                   dr.completed, fset.size(), dr.wall_seconds, dr.workers_joined,
                   dr.workers_lost, (unsigned long long)dr.requeued,
                   (unsigned long long)dr.duplicate_results,
                   double(dr.checkpoint_bytes_shipped) / 1024.0,
                   dr.drained_early ? " (drained early)" : "");
      if (dr.stopped_early)
        std::fprintf(stderr,
                     "sequential stop: rule satisfied at prefix %llu/%zu "
                     "(%llu queued experiments cancelled)\n",
                     (unsigned long long)dr.stop_index, fset.size(),
                     (unsigned long long)dr.cancelled);
      if (!dr.aggregate_summary.empty())
        std::printf("%s\n", dr.aggregate_summary.c_str());
      // A sequential stop is a successful campaign: the answer is in, within
      // the requested error bound, with the tail of the fault list unspent.
      if (dr.completed != fset.size() && !dr.stopped_early) rc = 3;
    } else {
      report = campaign::run_campaign(ca, fset, cfg);
      std::fprintf(stderr, "campaign: %zu experiments in %.2fs (%u workers, seed %llu)\n",
                   report.total(), report.wall_seconds, cfg.workers,
                   (unsigned long long)campaign_seed);
    }
    for (unsigned o = 0; o < apps::kNumOutcomes; ++o) {
      const auto outcome = static_cast<apps::Outcome>(o);
      std::printf("%-16s %6zu  %5.1f%%\n", apps::outcome_name(outcome),
                  report.counts[o], 100.0 * report.fraction(outcome));
    }
    if (!cfg.syscall_plans.empty() || cfg.random_syscall_faults) {
      std::printf("syscall-fault taxonomy:\n");
      for (unsigned o = 0; o < campaign::kNumSyscallOutcomes; ++o) {
        const auto so = static_cast<campaign::SyscallOutcome>(o);
        std::printf("  %-18s %6zu  %5.1f%%\n", campaign::syscall_outcome_name(so),
                    report.syscall_counts[o],
                    report.total() == 0
                        ? 0.0
                        : 100.0 * double(report.syscall_counts[o]) / double(report.total()));
      }
      std::printf("  max cascade length %u\n", report.max_cascade);
    }
    if (sink)
      std::fprintf(stderr, "wrote %zu records to %s\n", sink->lines_written(),
                   out_path.c_str());
    return rc;
  }

  if (faults.empty() && syscall_plans.empty()) {
    std::printf("%s", ca.app.golden_output.c_str());
    std::fprintf(stderr, "no faults configured: golden output above\n");
    return 0;
  }

  return run_and_report(ca, faults, cfg, /*classified=*/true, show_log);
}
