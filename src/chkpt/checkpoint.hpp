// Whole-simulation checkpointing — the reproduction's stand-in for DMTCP
// (paper Sec. III-D).
//
// The paper checkpoints the Linux process running the simulator; we
// serialize the simulation object graph instead, which preserves the
// property the paper exploits: a checkpoint taken right after OS boot and
// application initialization (at fi_read_init_all()) can be restored many
// times, each restore re-reading a different fault-configuration file, to
// fast-forward an entire campaign past the common prefix.
//
// One in-memory format (version word 2): page-granular memory. All-zero 4 KiB
// pages are skipped, every other page is stored raw, and the header, memory
// and machine-state sections carry independent CRC32s. The blob never
// touches disk: the campaign keeps it in memory and the NoW Welcome ships
// it. Restoring goes only through CheckpointImage: parse the blob once into
// an immutable baseline, then restore each experiment either in full or by
// copying only the pages the previous one dirtied. Any other version word,
// and any page encoding but raw, is rejected.
//
// Parsing and restoring validate everything and throw
// util::DeserializeError on damage.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulation.hpp"

namespace gemfi::chkpt {

/// The version word of the one checkpoint format; experiment records name
/// it as "ckpt_format".
enum class CheckpointFormat : std::uint8_t { V2 = 2 };

const char* checkpoint_format_name(CheckpointFormat f) noexcept;

/// How a checkpoint encodes on the wire (what a NoW workstation copies).
struct CheckpointStats {
  CheckpointFormat format = CheckpointFormat::V2;
  std::uint64_t raw_bytes = 0;      // memory image + machine state, flat
  std::uint64_t encoded_bytes = 0;  // blob size actually moved/stored
  std::uint64_t mem_bytes = 0;      // guest physical memory size
  std::uint64_t pages_total = 0;
  std::uint64_t pages_stored = 0;   // non-zero pages present in the image
};

class Checkpoint {
 public:
  Checkpoint() = default;

  /// Snapshot a (quiesced) simulation. Restore it through CheckpointImage.
  static Checkpoint capture(const sim::Simulation& s);

  [[nodiscard]] bool empty() const noexcept { return blob_.empty(); }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return blob_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return blob_; }

  /// Construct from raw bytes (validated by CheckpointImage::parse).
  static Checkpoint from_bytes(std::vector<std::uint8_t> bytes);

 private:
  std::vector<std::uint8_t> blob_;
};

/// A checkpoint parsed once into an immutable, fully decoded baseline:
/// the flat memory image plus the serialized machine-state section.
///
/// This is the campaign shared-restore path (Sec. III-D at scale): the
/// runner parses the image once, every worker keeps one Simulation alive
/// across experiments, and each restore copies back only the pages the
/// previous experiment dirtied (PhysMem's dirty bitmap) plus the small
/// machine-state stream — instead of re-deserializing a multi-MiB blob per
/// experiment. All methods are const; one image may be shared by any number
/// of concurrent workers.
class CheckpointImage {
 public:
  /// Decode a checkpoint; throws util::DeserializeError on damage.
  static CheckpointImage parse(const Checkpoint& c);

  /// Full restore into a simulation constructed with the same config and
  /// program (first experiment of a worker, or a fresh simulation). Resets
  /// fault-injection state per the paper's fi_read_init_all contract.
  /// Returns the number of pages materialized (the whole image).
  std::uint64_t restore_into(sim::Simulation& s) const;

  /// Incremental restore into a simulation previously restored from *this*
  /// image: copies only pages marked dirty since that restore, clears the
  /// bitmap, and re-deserializes the machine state. Returns pages copied.
  std::uint64_t restore_dirty_into(sim::Simulation& s) const;

  [[nodiscard]] const CheckpointStats& stats() const noexcept { return stats_; }

 private:
  void restore_machine(sim::Simulation& s) const;

  std::vector<std::uint8_t> mem_;    // decoded flat memory image
  std::vector<std::uint8_t> state_;  // serialize_machine stream
  CheckpointStats stats_{};
};

}  // namespace gemfi::chkpt
