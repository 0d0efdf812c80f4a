// Modeled Network-of-Workstations makespan (paper Sec. III-E / Fig. 8).
//
// The paper distributes a checkpointed campaign over 27 quad-core
// workstations sharing an NFS volume: each workstation copies the checkpoint
// locally, then its 4 slots repeatedly pull un-run experiments and push
// results back. campaign/dispatch.hpp runs that protocol for real (a TCP
// master plus worker processes). One host cannot provide 27x4 cores, so
// Fig. 8's cluster column is modeled instead: greedy longest-first list
// scheduling of measured per-experiment durations onto the cluster's slots,
// plus the checkpoint copy to every workstation.
#pragma once

#include <cstddef>
#include <vector>

namespace gemfi::campaign {

/// Makespan of `durations` (seconds each, e.g. the wall_seconds run_campaign
/// records) on `workstations` x `slots` slots, plus the time to copy a
/// `checkpoint_bytes` image to the workstations (in parallel) at
/// `copy_s_per_mib` seconds per MiB.
double now_makespan(std::vector<double> durations, unsigned workstations, unsigned slots,
                    std::size_t checkpoint_bytes, double copy_s_per_mib);

}  // namespace gemfi::campaign
