#include "campaign/service/client.hpp"

#include <stdexcept>

#include "campaign/wire.hpp"

namespace gemfi::campaign::service {

using wire::frame_for;

Client Client::connect(const std::string& host, std::uint16_t port,
                       unsigned attempts, double backoff_s) {
  Client c;
  c.conn_ = net::TcpConn::connect(host, port, attempts, backoff_s);
  return c;
}

net::Frame Client::next_frame(double timeout_s) {
  // A frame may already be fully buffered from a previous oversized read.
  if (auto f = reader_.next()) return std::move(*f);
  const double deadline = net::mono_seconds() + timeout_s;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const double remaining = deadline - net::mono_seconds();
    if (remaining <= 0.0)
      throw net::SocketError("campaign service reply timed out");
    if (!conn_.wait_readable(remaining < 0.25 ? remaining : 0.25)) continue;
    const auto got = conn_.recv_some(buf);
    if (!got) throw net::SocketError("campaign service closed the connection");
    reader_.feed(std::span<const std::uint8_t>(buf, *got));
    if (auto f = reader_.next()) return std::move(*f);
  }
}

std::uint64_t Client::submit(const CampaignSpec& spec) {
  const std::string json = spec.to_json();
  const std::span<const std::uint8_t> payload(
      reinterpret_cast<const std::uint8_t*>(json.data()), json.size());
  conn_.send_all(frame_for(wire::MsgType::SubmitCampaign, payload));
  const net::Frame f = next_frame(30.0);
  if (wire::MsgType(f.type) != wire::MsgType::SubmitReply)
    throw net::ProtocolError("expected SubmitReply, got type " +
                             std::to_string(f.type));
  const SubmitReply reply = decode_submit_reply(f.payload);
  if (!reply.ok)
    throw std::runtime_error("campaign rejected: " + reply.error);
  return reply.id;
}

std::vector<CampaignStatus> Client::status(std::uint64_t id) {
  conn_.send_all(
      frame_for(wire::MsgType::StatusRequest, encode_status_request({id})));
  const net::Frame f = next_frame(30.0);
  if (wire::MsgType(f.type) != wire::MsgType::StatusReply)
    throw net::ProtocolError("expected StatusReply, got type " +
                             std::to_string(f.type));
  return decode_status_reply(f.payload);
}

void Client::cancel(std::uint64_t id) {
  conn_.send_all(frame_for(wire::MsgType::CancelCampaign, encode_cancel({id})));
  const net::Frame f = next_frame(30.0);
  if (wire::MsgType(f.type) != wire::MsgType::CancelReply)
    throw net::ProtocolError("expected CancelReply, got type " +
                             std::to_string(f.type));
  const CancelReply reply = decode_cancel_reply(f.payload);
  if (!reply.ok) throw std::runtime_error("cancel refused: " + reply.error);
}

CampaignState Client::stream(std::uint64_t id,
                             const std::function<void(const std::string&)>& on_line,
                             double timeout_s) {
  conn_.send_all(
      frame_for(wire::MsgType::StreamResults, encode_stream_results({id})));
  for (;;) {
    const net::Frame f = next_frame(timeout_s);
    switch (wire::MsgType(f.type)) {
      case wire::MsgType::ResultLines: {
        const ResultLines rl = decode_result_lines(f.payload);
        if (rl.id != id)
          throw net::ProtocolError("ResultLines for foreign campaign");
        if (on_line)
          for (const std::string& line : rl.lines) on_line(line);
        break;
      }
      case wire::MsgType::StreamEnd: {
        const StreamEnd end = decode_stream_end(f.payload);
        if (end.id != id)
          throw net::ProtocolError("StreamEnd for foreign campaign");
        if (end.state == CampaignState::Failed && !end.error.empty())
          throw std::runtime_error("campaign failed: " + end.error);
        return end.state;
      }
      default:
        throw net::ProtocolError("unexpected stream message type " +
                                 std::to_string(f.type));
    }
  }
}

}  // namespace gemfi::campaign::service
