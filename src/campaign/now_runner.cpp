#include "campaign/now_runner.hpp"

#include <algorithm>
#include <functional>
#include <queue>

namespace gemfi::campaign {

double now_makespan(std::vector<double> durations, unsigned workstations, unsigned slots,
                    std::size_t checkpoint_bytes, double copy_s_per_mib) {
  // Greedy longest-first: each experiment goes to the slot that frees first.
  std::sort(durations.rbegin(), durations.rend());
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (unsigned i = 0; i < std::max(1u, workstations * slots); ++i) free_at.push(0.0);
  double makespan = 0.0;
  for (const double d : durations) {
    const double end = free_at.top() + d;
    free_at.pop();
    free_at.push(end);
    makespan = std::max(makespan, end);
  }
  // The checkpoint blob is the on-the-wire image (zero pages skipped, the
  // rest raw), so the copy is charged the encoded size a workstation pulls.
  return makespan + double(checkpoint_bytes) / (1024.0 * 1024.0) * copy_s_per_mib;
}

}  // namespace gemfi::campaign
