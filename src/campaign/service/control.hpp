// Wire codecs for the client <-> campaign-service control plane.
//
// Same conventions as campaign/wire.hpp: payloads are util/bytesio streams
// carried in net::Frame envelopes, every decoder validates lengths and enum
// discriminators, and malformed input surfaces as util::DeserializeError so
// the service treats a hostile client exactly like a damaged frame (drop the
// peer) — never as undefined behavior.
//
// The one exception is SubmitCampaign: its payload is the spec's journal
// line (CampaignSpec::to_json), so a spec has a single encoding, and any
// payload the service cannot use earns a SubmitReply{ok=false, error}.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "campaign/service/spec.hpp"

namespace gemfi::campaign::service {

/// SubmitReply: the service accepted (ok, id assigned) or rejected
/// (ok=false, error says why — bad spec, unknown app, service stopping).
struct SubmitReply {
  bool ok = false;
  std::uint64_t id = 0;
  std::string error;
};

/// StatusRequest: id = 0 asks for every campaign, otherwise just that one.
struct StatusRequest {
  std::uint64_t id = 0;
};

struct CancelCampaign {
  std::uint64_t id = 0;
};

struct CancelReply {
  bool ok = false;
  std::string error;
};

struct StreamResults {
  std::uint64_t id = 0;
};

/// A batch of complete JSONL record lines (no trailing newlines) from one
/// campaign's results journal, in append order.
struct ResultLines {
  std::uint64_t id = 0;
  std::vector<std::string> lines;
};

/// Terminal notification closing a StreamResults subscription.
struct StreamEnd {
  std::uint64_t id = 0;
  CampaignState state = CampaignState::Done;
  std::string error;  // Failed: why
};

std::vector<std::uint8_t> encode_submit_reply(const SubmitReply& r);
std::vector<std::uint8_t> encode_status_request(const StatusRequest& r);
std::vector<std::uint8_t> encode_status_reply(const std::vector<CampaignStatus>& statuses);
std::vector<std::uint8_t> encode_cancel(const CancelCampaign& c);
std::vector<std::uint8_t> encode_cancel_reply(const CancelReply& r);
std::vector<std::uint8_t> encode_stream_results(const StreamResults& s);
std::vector<std::uint8_t> encode_result_lines(const ResultLines& rl);
std::vector<std::uint8_t> encode_stream_end(const StreamEnd& e);

/// The spec in a SubmitCampaign payload (the JSON of CampaignSpec::to_json).
/// Throws std::invalid_argument / std::out_of_range on malformed JSON or an
/// unusable spec.
CampaignSpec parse_submit(std::span<const std::uint8_t> payload);

// Decoders throw util::DeserializeError on malformed payloads.
SubmitReply decode_submit_reply(std::span<const std::uint8_t> payload);
StatusRequest decode_status_request(std::span<const std::uint8_t> payload);
std::vector<CampaignStatus> decode_status_reply(std::span<const std::uint8_t> payload);
CancelCampaign decode_cancel(std::span<const std::uint8_t> payload);
CancelReply decode_cancel_reply(std::span<const std::uint8_t> payload);
StreamResults decode_stream_results(std::span<const std::uint8_t> payload);
ResultLines decode_result_lines(std::span<const std::uint8_t> payload);
StreamEnd decode_stream_end(std::span<const std::uint8_t> payload);

}  // namespace gemfi::campaign::service
