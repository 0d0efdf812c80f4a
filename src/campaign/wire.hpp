// Wire encoding of the NoW dispatch protocol messages (campaign/dispatch).
//
// Payloads are util/bytesio streams carried inside net::Frame envelopes.
// Decoders validate every enum discriminator and length so a malicious or
// version-skewed peer surfaces as util::DeserializeError (which the dispatch
// layer treats exactly like a damaged frame: drop the peer, requeue its
// work), never as undefined behavior inside the campaign.
//
// The Welcome message is the "checkpoint copy" step of the paper's NoW
// protocol (Sec. III-E step 3): it carries the calibrated app's identity and
// golden-run costs plus the sparse-v2 checkpoint blob, so a worker process
// reconstructs a CalibratedApp without re-running calibration — the whole
// point of shipping the checkpoint once per workstation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "util/bytesio.hpp"

namespace gemfi::campaign::wire {

/// Every peer is built from this tree, so a Hello with any other version is
/// rejected.
inline constexpr std::uint32_t kProtocolVersion = 10;

enum class MsgType : std::uint8_t {
  // --- worker plane ---
  Hello = 1,      // worker -> master: version + slot count
  Welcome = 2,    // master -> worker: campaign config + calibration + checkpoint
  Batch = 3,      // master -> worker: experiment (index, fault) pairs
  Result = 4,     // worker -> master: one finished experiment
  Heartbeat = 5,  // worker -> master: liveness (empty payload)
  Shutdown = 6,   // master -> worker: campaign over, exit after current work

  // --- sequential early-stop plane ---
  CancelQueue = 7,  // master -> worker: drop queued-not-started experiments
  CancelAck = 8,    // worker -> master: indices it dropped (still uniquely owned)

  // --- control plane (client <-> campaign service; codecs live in
  // campaign/service/control.hpp) ---
  SubmitCampaign = 10,  // client -> service: CampaignSpec::to_json line
  SubmitReply = 11,     // service -> client: assigned id or error
  StatusRequest = 12,   // client -> service: one campaign id or 0 = all
  StatusReply = 13,     // service -> client: per-campaign status records
  CancelCampaign = 14,  // client -> service: stop dispatching a campaign
  CancelReply = 15,     // service -> client: ack or error
  StreamResults = 16,   // client -> service: subscribe to a campaign's JSONL
  ResultLines = 17,     // service -> client: a batch of JSONL record lines
  StreamEnd = 18,       // service -> client: campaign reached a terminal state
  AggregateUpdate = 19,  // service -> client: online aggregate summary JSON
};

/// A message of `type` carrying `payload`, framed for the wire (net::Frame).
std::vector<std::uint8_t> frame_for(MsgType type,
                                    std::span<const std::uint8_t> payload = {});

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t slots = 1;
};

struct Welcome {
  // Enough to rebuild the CalibratedApp: apps::build_app(app_name, scale)
  // regenerates the program and classification closures deterministically;
  // the golden-run numbers below are calibration outputs shipped verbatim.
  std::string app_name;
  bool paper_scale = false;
  std::uint64_t app_scale_seed = 0;
  std::string golden_output;
  std::uint64_t golden_ticks = 0;
  std::uint64_t golden_committed = 0;
  std::uint64_t kernel_fetches = 0;
  std::uint64_t ticks_to_checkpoint = 0;
  std::vector<std::uint8_t> checkpoint;  // Checkpoint::bytes(), shipped once

  // The CampaignConfig subset that affects experiment execution. Host-side
  // policy (workers, observer) and the engine tier, which leaves records
  // byte-identical, stay local to each end. use_checkpoint and
  // switch_to_atomic_after_fault are always true on a worker (from() throws
  // on false), so they do not travel.
  std::uint8_t cpu = 0;
  std::uint64_t watchdog_mult = 8;
  std::uint64_t campaign_seed = 0;
  double deadline_seconds = 0.0;
  std::uint32_t max_retries = 2;

  // Syscall-fault campaign setup. Plans travel in their canonical
  // grammar lines; the worker re-parses them, so the grammar is the wire
  // format and a hostile line is rejected by the same validation the CLI uses.
  std::vector<std::string> syscall_plan_lines;
  bool random_syscall_faults = false;

  /// Split a master-side (CalibratedApp, AppScale, CampaignConfig) into the
  /// wire form / reassemble the worker-side equivalents. from() throws
  /// std::invalid_argument, naming the field, if cfg turns off
  /// use_checkpoint or switch_to_atomic_after_fault.
  static Welcome from(const CalibratedApp& ca, const apps::AppScale& scale,
                      const CampaignConfig& cfg);
  [[nodiscard]] CalibratedApp rebuild_app() const;
  [[nodiscard]] CampaignConfig rebuild_config() const;
};

struct BatchItem {
  std::uint64_t index = 0;
  std::string fault_line;  // fi::Fault::to_line(), reparsed on the worker
};

struct ResultMsg {
  std::uint64_t index = 0;
  ExperimentResult result;
};

/// CancelAck payload: the queued experiment indices the worker dropped in
/// response to CancelQueue. (CancelQueue itself carries an empty payload.)
struct CancelAck {
  std::vector<std::uint64_t> dropped;
};

// --- encoders (payload bytes only; framing is net::encode_frame) ---
std::vector<std::uint8_t> encode_hello(const Hello& h);
std::vector<std::uint8_t> encode_welcome(const Welcome& w);
std::vector<std::uint8_t> encode_batch(const std::vector<BatchItem>& items);
std::vector<std::uint8_t> encode_result(const ResultMsg& r);
std::vector<std::uint8_t> encode_cancel_ack(const CancelAck& ack);

// --- decoders; throw util::DeserializeError / std::invalid_argument on
// malformed or out-of-range payloads ---
Hello decode_hello(std::span<const std::uint8_t> payload);
Welcome decode_welcome(std::span<const std::uint8_t> payload);
std::vector<BatchItem> decode_batch(std::span<const std::uint8_t> payload);
ResultMsg decode_result(std::span<const std::uint8_t> payload);
CancelAck decode_cancel_ack(std::span<const std::uint8_t> payload);

/// ExperimentResult as a bytesio stream (shared by Result messages and any
/// future on-disk spill format).
void put_result(util::ByteWriter& w, const ExperimentResult& er);
ExperimentResult get_result(util::ByteReader& r);

}  // namespace gemfi::campaign::wire
