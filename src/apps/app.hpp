// Guest benchmark applications (the paper's validation workloads, Sec. IV):
// DCT, Jacobi, Monte Carlo PI, Knapsack (genetic algorithm), AVS Deblocking
// and Canneal (simulated annealing), each written in uAlpha assembly against
// the macro-assembler and paired with a C++ golden model plus the paper's
// per-application acceptability criterion.
//
// Every guest follows the Listing-2 structure:
//     <initialize input data>        (pre-checkpoint phase)
//     fi_read_init_all()             (checkpoint request)
//     fi_activate_inst(0)            (FI on)
//     <kernel>
//     fi_activate_inst(0)            (FI off)
//     <print results>
//     m5_exit(0)
// so checkpoint fast-forwarding skips exactly the initialization the paper's
// Fig. 8 skips, and fault timing is sampled over the kernel only.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"

namespace gemfi::apps {

/// Paper's outcome classes (Sec. IV-B-1), plus Timeout: an experiment cut
/// off by the tick watchdog or the wall-clock deadline. The paper folds
/// these into "Crashed"; we keep them separate so fault-induced livelocks
/// are distinguishable from genuine traps in campaign statistics.
/// AttackEffective covers deliberate-fault experiments (instruction skip,
/// opcode corruption): the attack landed and the program ran to completion
/// with an altered output — the adversary's success case, which would
/// otherwise be indistinguishable from an accidental SDC.
enum class Outcome : std::uint8_t {
  Crashed,
  NonPropagated,
  StrictlyCorrect,
  Correct,
  SDC,
  Timeout,
  AttackEffective,
};
inline constexpr unsigned kNumOutcomes = 7;

const char* outcome_name(Outcome o) noexcept;

/// Scale knob shared by every app so campaigns can trade fidelity for time.
/// `paper` selects the input sizes reported in the paper where feasible.
struct AppScale {
  bool paper = false;
  std::uint64_t seed = 0x5eed0001;
};

struct App {
  std::string name;
  assembler::Program program;

  /// Decide whether a *non-bitwise-identical* terminating output is within
  /// the application's acceptable quality margin ("Correct" vs "SDC").
  /// `metric` reports the quality figure used (PSNR dB, |pi error|, ...).
  std::function<bool(const std::string& output, double& metric)> acceptable;

  /// Optional looser equality for "StrictlyCorrect" (e.g. Jacobi ignores the
  /// iteration-count line; null means plain string equality).
  std::function<bool(const std::string& output, const std::string& golden)> strict_equal;

  /// Golden (fault-free) output.
  std::string golden_output;

  [[nodiscard]] bool outputs_strictly_equal(const std::string& out) const {
    if (strict_equal) return strict_equal(out, golden_output);
    return out == golden_output;
  }
};

// --- builders (one per benchmark) ---
App build_pi(const AppScale& scale = {});
App build_jacobi(const AppScale& scale = {});
App build_dct(const AppScale& scale = {});
App build_knapsack(const AppScale& scale = {});
App build_deblock(const AppScale& scale = {});
App build_canneal(const AppScale& scale = {});
App build_aes(const AppScale& scale = {});
App build_logwriter(const AppScale& scale = {});

/// All apps, in the paper's presentation order.
std::vector<std::string> app_names();
App build_app(const std::string& name, const AppScale& scale = {});

// --- shared guest/host PRNG (identical sequences on both sides) ---
inline constexpr std::uint64_t kLcgMul = 6364136223846793005ull;
inline constexpr std::uint64_t kLcgAdd = 1442695040888963407ull;

inline std::uint64_t lcg_next(std::uint64_t& state) noexcept {
  state = state * kLcgMul + kLcgAdd;
  return state;
}

/// Emit the same step for a guest register: state = state*mul + add.
/// Clobbers `tmp`.
void emit_lcg_step(assembler::Assembler& as, unsigned state_reg, unsigned tmp);

/// Emit the "system boot" stand-in executed before application init.
/// The paper's campaigns run on gem5 full-system, where every experiment
/// without checkpoint fast-forwarding re-simulates OS boot; our substitute
/// is a kernel-style boot sequence (clear a 256 KiB heap arena, build a
/// page-frame list, checksum it) so Fig. 8's pre-/post-checkpoint time
/// ratio exists to be skipped. Clobbers t0-t3; ~330k instructions.
void emit_boot(assembler::Assembler& as);

/// Emit: print a0-clobbering newline.
void emit_newline(assembler::Assembler& as);

}  // namespace gemfi::apps
