// Syscall-fault outcome taxonomy: failure-propagation distribution vs
// injected behavior, per application — the Fig. 4/5-style experiment moved
// from the architectural layer to the OS interface.
//
// For each syscall-using app and each behavior family (forced errno, extra
// latency, torn/partial transfer, buffer corruption, plus a seeded random
// mix) we run experiments with one plan armed per run, sweeping the firing
// call index, and print where each run lands in the propagation taxonomy:
//   masked   — the guest's retry/fallback path absorbed the failure;
//   cascade  — N >= 1 later non-injected syscalls failed (the torn-log
//              scenario: partial writes displace the tail of the log into
//              ENOSPC on a capacity-constrained store);
//   unhandled— the guest gave up (nonzero exit) or died.
// Shape expectations:
//   * errno rows on the retrying writer mask almost everywhere (bounded
//     retries absorb a one-shot failure);
//   * partial rows on logwriter produce cascade(N>=2) once the file store
//     has less slack than the torn bytes — the bench shrinks the capacity
//     to records*32+8 exactly to expose this;
//   * latency rows land in masked with zero handler activity (ticks move,
//     contents do not);
//   * corrupt rows on read surface as masked (checksum rejects the record;
//     valid< written is an output-level effect, not a syscall error);
//   * failing logwriter's read-back reopen (open call #2, the one open that
//     happens inside the FI window) drives its error-exit path — unhandled;
//   * jacobi is not a default target although it makes syscalls: all of
//     them (version handshake, heap allocs) run during init, before the
//     checkpoint that opens the FI window — the same window contract the
//     paper applies to architectural faults — so every row would be 100%
//     none. --apps=jacobi still runs it.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

using namespace gemfi;

namespace {

struct BehaviorRow {
  const char* label;
  const char* plan;  // plan line with %IDX placeholder for the call index
};

std::string with_index(const char* plan, std::uint64_t idx) {
  std::string s(plan);
  const auto pos = s.find("%IDX");
  if (pos != std::string::npos) s.replace(pos, 4, std::to_string(idx));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Syscall-fault taxonomy: failure propagation vs injected behavior");

  // Only apps that make syscalls inside the FI window are meaningful
  // targets; everything else would report 100% none.
  std::vector<std::string> apps = opt.apps;
  if (apps.empty()) apps = {"logwriter"};

  static constexpr BehaviorRow kRows[] = {
      {"errno:ENOENT(open)", "open@idx:2 errno:ENOENT"},
      {"errno:EIO(write)", "write@idx:%IDX errno:EIO"},
      {"errno:ENOSPC(write)", "write@idx:%IDX errno:ENOSPC"},
      {"latency(write)", "write@idx:%IDX latency:2000"},
      {"partial(write)", "write@idx:%IDX partial:0.5"},
      {"corrupt(read)", "read@idx:%IDX corrupt:2@0xbeef"},
      {"random", nullptr},  // seeded_syscall_plan draw per experiment
  };
  const std::size_t n = opt.per_cell(24, 8, 96);
  std::printf("  experiments per (app, behavior) cell: %zu\n\n", n);

  bool any_cascade2 = false;
  for (const std::string& name : apps) {
    campaign::CampaignConfig cfg = opt.campaign_config();
    cfg.campaign_seed = opt.seed;
    if (name == "logwriter") {
      // Capacity slack (8) below the torn bytes of a half-applied 32-byte
      // record: a partial write displaces the log tail into ENOSPC.
      const std::uint64_t records = opt.full ? 200 : 48;
      cfg.sys_file_capacity = records * 32 + 8;
    }
    const auto ca = campaign::calibrate(apps::build_app(name, opt.scale()), cfg);
    std::printf("-- %s (kernel: %llu fetched insts) --\n", name.c_str(),
                (unsigned long long)ca.kernel_fetches);
    std::printf("  %-20s %6s %8s %8s %10s %6s\n", "behavior", "none", "masked",
                "cascade", "unhandled", "maxN");

    // A fault the run never reaches: the experiments below measure the
    // syscall plans in isolation, not an architectural upset.
    fi::Fault never;
    never.time = ~0ull;

    for (const BehaviorRow& row : kRows) {
      campaign::CampaignConfig row_cfg = cfg;
      std::array<std::size_t, campaign::kNumSyscallOutcomes> counts{};
      unsigned max_cascade = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<fi::SyscallFaultPlan> plans;
        if (row.plan) {
          plans.push_back(fi::parse_syscall_plan(with_index(row.plan, 1 + i % 16)));
        } else {
          plans.push_back(campaign::seeded_syscall_plan(opt.seed, i));
        }
        const auto er = campaign::run_experiment_with_retry(ca, never, row_cfg, &plans);
        ++counts[std::size_t(er.syscall_class.outcome)];
        if (er.syscall_class.cascade_len > max_cascade)
          max_cascade = er.syscall_class.cascade_len;
        if (er.syscall_class.outcome == campaign::SyscallOutcome::Cascade &&
            er.syscall_class.cascade_len >= 2)
          any_cascade2 = true;
      }
      std::printf("  %-20s %5.1f%% %7.1f%% %7.1f%% %9.1f%% %6u\n", row.label,
                  100.0 * double(counts[0]) / double(n),
                  100.0 * double(counts[1]) / double(n),
                  100.0 * double(counts[2]) / double(n),
                  100.0 * double(counts[3]) / double(n), max_cascade);
      const std::string config = name + "/" + row.label;
      bench::json_record("syscall_masked_fraction", double(counts[1]) / double(n),
                         "fraction", config);
      bench::json_record("syscall_cascade_fraction", double(counts[2]) / double(n),
                         "fraction", config);
      bench::json_record("syscall_unhandled_fraction", double(counts[3]) / double(n),
                         "fraction", config);
      bench::json_record("syscall_max_cascade", double(max_cascade), "calls", config);
    }
    std::printf("\n");
  }

  // The torn-log scenario is the point of the bench: a capacity-constrained
  // logwriter under partial writes must exhibit a failure chain of >= 2.
  if (!any_cascade2) {
    const bool logwriter_ran =
        std::find(apps.begin(), apps.end(), "logwriter") != apps.end();
    if (logwriter_ran) {
      std::fprintf(stderr,
                   "FAIL: no cascade(N>=2) observed on logwriter under partial "
                   "faults\n");
      return 1;
    }
  }
  return bench::json_write(opt.json, "syscall_taxonomy") ? 0 : 1;
}
