// Blocking client for the campaign service's control plane — the library
// behind gemfi_submit and the service tests. One Client wraps one TCP
// connection; requests are strictly serial (send, wait for the matching
// reply), which is all the CLI and tests need.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/service/control.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace gemfi::campaign::service {

class Client {
 public:
  /// Connect with bounded backoff (same policy as a worker). Throws
  /// net::SocketError when the budget runs out.
  static Client connect(const std::string& host, std::uint16_t port,
                        unsigned attempts = 10, double backoff_s = 0.1);

  /// Submit a campaign; returns the assigned id. Throws std::runtime_error
  /// if the service rejects the spec (carrying the service's reason).
  std::uint64_t submit(const CampaignSpec& spec);

  /// Status of one campaign (or every campaign with id 0).
  std::vector<CampaignStatus> status(std::uint64_t id = 0);

  /// Cancel; throws std::runtime_error if the service refuses (unknown id,
  /// already terminal).
  void cancel(std::uint64_t id);

  /// Subscribe to a campaign's results: `on_line` receives every journaled
  /// JSONL record exactly once (history first, then live), and the call
  /// returns the campaign's terminal state. Throws on connection loss or if
  /// the service reports the stream failed (unknown campaign).
  CampaignState stream(std::uint64_t id,
                       const std::function<void(const std::string&)>& on_line,
                       double timeout_s = 600.0);

 private:
  Client() : reader_(1 << 24) {}

  /// Next complete frame, waiting up to `timeout_s`. Throws net::SocketError
  /// on EOF or timeout, net::ProtocolError on damage.
  net::Frame next_frame(double timeout_s);

  net::TcpConn conn_;
  net::FrameReader reader_;
};

}  // namespace gemfi::campaign::service
