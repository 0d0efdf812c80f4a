#include "campaign/service/control.hpp"

#include "util/bytesio.hpp"

namespace gemfi::campaign::service {

namespace {

using util::ByteReader;
using util::ByteWriter;
using util::DeserializeError;

std::uint8_t checked_enum(ByteReader& r, unsigned count, const char* what) {
  const std::uint8_t v = r.get_u8();
  if (v >= count)
    throw DeserializeError(std::string("out-of-range ") + what +
                           " discriminator: " + std::to_string(v));
  return v;
}

void expect_end(const ByteReader& r, const char* what) {
  if (!r.at_end())
    throw DeserializeError(std::string("trailing bytes in ") + what);
}

}  // namespace

CampaignSpec parse_submit(std::span<const std::uint8_t> payload) {
  const std::string_view json(reinterpret_cast<const char*>(payload.data()),
                              payload.size());
  return CampaignSpec::from_json(jsonl::parse(json));
}

std::vector<std::uint8_t> encode_submit_reply(const SubmitReply& rep) {
  ByteWriter w;
  w.put_bool(rep.ok);
  w.put_u64(rep.id);
  w.put_string(rep.error);
  return w.take();
}

SubmitReply decode_submit_reply(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  SubmitReply rep;
  rep.ok = r.get_bool();
  rep.id = r.get_u64();
  rep.error = r.get_string();
  expect_end(r, "SubmitReply");
  return rep;
}

std::vector<std::uint8_t> encode_status_request(const StatusRequest& req) {
  ByteWriter w;
  w.put_u64(req.id);
  return w.take();
}

StatusRequest decode_status_request(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  StatusRequest req;
  req.id = r.get_u64();
  expect_end(r, "StatusRequest");
  return req;
}

std::vector<std::uint8_t> encode_status_reply(
    const std::vector<CampaignStatus>& statuses) {
  ByteWriter w;
  w.put_u32(std::uint32_t(statuses.size()));
  for (const CampaignStatus& s : statuses) {
    w.put_u64(s.id);
    w.put_string(s.tenant);
    w.put_string(s.name);
    w.put_string(s.app_name);
    w.put_u8(std::uint8_t(s.state));
    w.put_u64(s.total);
    w.put_u64(s.completed);
    w.put_u64(s.inflight);
    w.put_u64(s.dispatched);
    w.put_u32(s.workers);
    w.put_u32(s.weight);
    for (const std::uint64_t c : s.counts) w.put_u64(c);
    w.put_string(s.error);
    w.put_f64(s.age_seconds);
  }
  return w.take();
}

std::vector<CampaignStatus> decode_status_reply(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  const std::uint32_t count = r.get_u32();
  if (count > 1u << 16) throw DeserializeError("implausible status count");
  std::vector<CampaignStatus> statuses;
  statuses.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CampaignStatus s;
    s.id = r.get_u64();
    s.tenant = r.get_string();
    s.name = r.get_string();
    s.app_name = r.get_string();
    s.state = static_cast<CampaignState>(
        checked_enum(r, kNumCampaignStates, "campaign state"));
    s.total = r.get_u64();
    s.completed = r.get_u64();
    s.inflight = r.get_u64();
    s.dispatched = r.get_u64();
    s.workers = r.get_u32();
    s.weight = r.get_u32();
    for (std::uint64_t& c : s.counts) c = r.get_u64();
    s.error = r.get_string();
    s.age_seconds = r.get_f64();
    statuses.push_back(std::move(s));
  }
  expect_end(r, "StatusReply");
  return statuses;
}

std::vector<std::uint8_t> encode_cancel(const CancelCampaign& c) {
  ByteWriter w;
  w.put_u64(c.id);
  return w.take();
}

CancelCampaign decode_cancel(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  CancelCampaign c;
  c.id = r.get_u64();
  expect_end(r, "CancelCampaign");
  return c;
}

std::vector<std::uint8_t> encode_cancel_reply(const CancelReply& rep) {
  ByteWriter w;
  w.put_bool(rep.ok);
  w.put_string(rep.error);
  return w.take();
}

CancelReply decode_cancel_reply(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  CancelReply rep;
  rep.ok = r.get_bool();
  rep.error = r.get_string();
  expect_end(r, "CancelReply");
  return rep;
}

std::vector<std::uint8_t> encode_stream_results(const StreamResults& s) {
  ByteWriter w;
  w.put_u64(s.id);
  return w.take();
}

StreamResults decode_stream_results(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  StreamResults s;
  s.id = r.get_u64();
  expect_end(r, "StreamResults");
  return s;
}

std::vector<std::uint8_t> encode_result_lines(const ResultLines& rl) {
  ByteWriter w;
  w.put_u64(rl.id);
  w.put_u32(std::uint32_t(rl.lines.size()));
  for (const std::string& line : rl.lines) w.put_string(line);
  return w.take();
}

ResultLines decode_result_lines(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  ResultLines rl;
  rl.id = r.get_u64();
  const std::uint32_t count = r.get_u32();
  if (count > 1u << 20) throw DeserializeError("implausible result-line count");
  rl.lines.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) rl.lines.push_back(r.get_string());
  expect_end(r, "ResultLines");
  return rl;
}

std::vector<std::uint8_t> encode_stream_end(const StreamEnd& e) {
  ByteWriter w;
  w.put_u64(e.id);
  w.put_u8(std::uint8_t(e.state));
  w.put_string(e.error);
  return w.take();
}

StreamEnd decode_stream_end(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  StreamEnd e;
  e.id = r.get_u64();
  e.state = static_cast<CampaignState>(
      checked_enum(r, kNumCampaignStates, "campaign state"));
  e.error = r.get_string();
  expect_end(r, "StreamEnd");
  return e;
}

}  // namespace gemfi::campaign::service
