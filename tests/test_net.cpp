// Unit tests for the net layer (framing, sockets) and the dispatch wire
// encoding — everything below the campaign protocol, testable without
// spawning worker processes.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <thread>

#include "campaign/runner.hpp"
#include "campaign/wire.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "util/bytesio.hpp"

using namespace gemfi;
namespace wire = gemfi::campaign::wire;

namespace {

std::vector<std::uint8_t> bytes_of(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s),
          reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s)};
}

}  // namespace

// --- framing ---

TEST(Frame, RoundTripsPayload) {
  const auto payload = bytes_of("hello campaign");
  const auto wire = net::encode_frame(7, payload);
  EXPECT_EQ(wire.size(), net::kFrameHeaderBytes + payload.size());

  net::FrameReader reader(1 << 16);
  reader.feed(wire);
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 7);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Frame, EmptyPayload) {
  const auto wire = net::encode_frame(3, {});
  net::FrameReader reader(16);
  reader.feed(wire);
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 3);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(Frame, ReassemblesFromSingleByteChunks) {
  // TCP chunks arbitrarily; the reader must survive the worst case.
  const auto payload = bytes_of("0123456789abcdef");
  const auto wire = net::encode_frame(1, payload);
  net::FrameReader reader(1 << 16);
  std::size_t frames = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    reader.feed(std::span<const std::uint8_t>(&wire[i], 1));
    while (auto f = reader.next()) {
      ++frames;
      EXPECT_EQ(f->payload, payload);
    }
  }
  EXPECT_EQ(frames, 1u);
}

TEST(Frame, BackToBackFramesInOneFeed) {
  auto wire = net::encode_frame(1, bytes_of("first"));
  const auto second = net::encode_frame(2, bytes_of("second"));
  wire.insert(wire.end(), second.begin(), second.end());
  net::FrameReader reader(1 << 16);
  reader.feed(wire);
  auto f1 = reader.next();
  auto f2 = reader.next();
  ASSERT_TRUE(f1 && f2);
  EXPECT_EQ(f1->type, 1);
  EXPECT_EQ(f2->type, 2);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Frame, RejectsBadMagic) {
  net::FrameReader reader(1 << 16);
  const auto junk = bytes_of("GET / HTTP/1.1\r\n");
  reader.feed(junk);
  EXPECT_THROW(reader.next(), net::ProtocolError);
}

TEST(Frame, RejectsBadMagicOnPartialPrefix) {
  // The very first wrong byte should already condemn the stream — no need
  // to buffer a full header before rejecting a junk peer.
  net::FrameReader reader(1 << 16);
  const std::uint8_t wrong = 0xFF;
  reader.feed(std::span<const std::uint8_t>(&wrong, 1));
  EXPECT_THROW(reader.next(), net::ProtocolError);
}

TEST(Frame, RejectsCorruptedPayload) {
  auto wire = net::encode_frame(4, bytes_of("payload under crc"));
  wire[net::kFrameHeaderBytes + 3] ^= 0x40;  // flip a payload bit
  net::FrameReader reader(1 << 16);
  reader.feed(wire);
  EXPECT_THROW(reader.next(), net::ProtocolError);
}

TEST(Frame, RejectsCorruptedLength) {
  // A corrupted length that blows past the reader's cap is rejected at the
  // header; one that stays under it merely postpones death to the CRC check.
  auto wire = net::encode_frame(4, bytes_of("x"));
  for (std::size_t i = 5; i < 9; ++i) wire[i] = 0xFF;  // magic u32 | type u8 | length
  net::FrameReader reader(1 << 16);
  reader.feed(wire);
  EXPECT_THROW(reader.next(), net::ProtocolError);

  auto subtle = net::encode_frame(4, bytes_of("xyz"));
  subtle[5] = 1;  // still plausible: frame now claims 1 payload byte
  net::FrameReader reader2(1 << 16);
  reader2.feed(subtle);
  EXPECT_THROW(reader2.next(), net::ProtocolError);  // CRC catches it
}

TEST(Frame, RejectsOversizedAnnouncementBeforeBuffering) {
  // A frame announcing a payload over the cap must throw as soon as the
  // header is visible, not after the peer streams gigabytes at us.
  const auto wire = net::encode_frame(1, std::vector<std::uint8_t>(64, 0xAB));
  net::FrameReader reader(/*max_payload=*/16);
  reader.feed(std::span<const std::uint8_t>(wire.data(), net::kFrameHeaderBytes));
  EXPECT_THROW(reader.next(), net::ProtocolError);
}

TEST(Frame, TruncatedFrameStaysPending) {
  const auto wire = net::encode_frame(1, bytes_of("truncated"));
  net::FrameReader reader(1 << 16);
  reader.feed(std::span<const std::uint8_t>(wire.data(), wire.size() - 1));
  EXPECT_FALSE(reader.next().has_value());  // incomplete, not damaged
  reader.feed(std::span<const std::uint8_t>(wire.data() + wire.size() - 1, 1));
  EXPECT_TRUE(reader.next().has_value());
}

// --- wire messages ---

TEST(Wire, HelloRoundTrip) {
  const auto payload = wire::encode_hello({wire::kProtocolVersion, 12});
  const wire::Hello h = wire::decode_hello(payload);
  EXPECT_EQ(h.version, wire::kProtocolVersion);
  EXPECT_EQ(h.slots, 12u);
}

TEST(Wire, HelloRejectsVersionSkewAndBadSlots) {
  EXPECT_THROW(wire::decode_hello(wire::encode_hello({99, 1})),
               util::DeserializeError);
  EXPECT_THROW(wire::decode_hello(wire::encode_hello({wire::kProtocolVersion, 0})),
               util::DeserializeError);
  EXPECT_THROW(
      wire::decode_hello(wire::encode_hello({wire::kProtocolVersion, 1u << 20})),
      util::DeserializeError);
}

// Every peer is built from one tree: the adjacent versions on both sides are
// refused, not just versions from the future.
TEST(Wire, HelloAcceptsExactlyTheCurrentVersion) {
  for (const std::uint32_t v : {wire::kProtocolVersion - 1, wire::kProtocolVersion + 1})
    EXPECT_THROW(wire::decode_hello(wire::encode_hello({v, 1})), util::DeserializeError)
        << "version " << v;
}

TEST(Wire, ResultRoundTrip) {
  wire::ResultMsg msg;
  msg.index = 1234;
  msg.result.classification.outcome = apps::Outcome::SDC;
  msg.result.classification.metric = 0.25;
  msg.result.exit_reason = sim::ExitReason::AllThreadsExited;
  msg.result.trap = cpu::TrapKind::None;
  msg.result.fault = fi::parse_fault(
      "RegisterInjectedFault Inst:2457 Flip:21 Threadid:0 system.cpu0 occ:1 int 1");
  msg.result.fault_applied = true;
  msg.result.time_fraction = 0.5;
  msg.result.sim_ticks = 987654;
  msg.result.wall_seconds = 1.5;
  msg.result.retries = 1;
  msg.result.sim_error = "none really";
  msg.result.ckpt_version = 2;
  msg.result.restore_pages = 17;
  msg.result.restore_bytes = 69632;

  const wire::ResultMsg back = wire::decode_result(wire::encode_result(msg));
  EXPECT_EQ(back.index, msg.index);
  EXPECT_EQ(back.result.classification.outcome, msg.result.classification.outcome);
  EXPECT_DOUBLE_EQ(back.result.classification.metric, msg.result.classification.metric);
  EXPECT_EQ(back.result.fault.to_line(), msg.result.fault.to_line());
  EXPECT_EQ(back.result.sim_ticks, msg.result.sim_ticks);
  EXPECT_EQ(back.result.retries, msg.result.retries);
  EXPECT_EQ(back.result.sim_error, msg.result.sim_error);
  EXPECT_EQ(back.result.ckpt_version, msg.result.ckpt_version);
  EXPECT_EQ(back.result.restore_bytes, msg.result.restore_bytes);
}

TEST(Wire, ResultRejectsOutOfRangeEnums) {
  wire::ResultMsg msg;
  msg.index = 1;
  auto payload = wire::encode_result(msg);
  // First byte after the u64 index is the outcome discriminator.
  payload[8] = 0xEE;
  EXPECT_THROW(wire::decode_result(payload), util::DeserializeError);
}

TEST(Wire, BatchRoundTripAndLimits) {
  std::vector<wire::BatchItem> items;
  for (std::uint64_t i = 0; i < 5; ++i)
    items.push_back(
        {i * 7, "RegisterInjectedFault Inst:" + std::to_string(100 + i) +
                    " Flip:3 Threadid:0 system.cpu0 occ:1 int 2"});
  const auto back = wire::decode_batch(wire::encode_batch(items));
  ASSERT_EQ(back.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(back[i].index, items[i].index);
    EXPECT_EQ(back[i].fault_line, items[i].fault_line);
  }

  util::ByteWriter w;
  w.put_u32(0xFFFFFFFF);  // implausible batch count
  EXPECT_THROW(wire::decode_batch(w.take()), util::DeserializeError);
}

TEST(Wire, DecodersRejectTrailingBytes) {
  auto payload = wire::encode_hello({wire::kProtocolVersion, 2});
  payload.push_back(0);
  EXPECT_THROW(wire::decode_hello(payload), util::DeserializeError);
}

TEST(Wire, WelcomeRebuildsCalibratedApp) {
  campaign::CampaignConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  cfg.campaign_seed = 1234;
  cfg.deadline_seconds = 2.5;
  // Syscall-fault setup rides the Welcome too: one fixed plan for every
  // experiment plus a seeded random plan each.
  cfg.syscall_plans = {fi::parse_syscall_plan("write@idx:1 errno:EIO")};
  cfg.random_syscall_faults = true;
  const apps::AppScale scale;
  const campaign::CalibratedApp ca = campaign::calibrate(apps::build_app("pi"), cfg);

  const auto payload = wire::encode_welcome(wire::Welcome::from(ca, scale, cfg));
  const wire::Welcome w = wire::decode_welcome(payload);
  const campaign::CalibratedApp back = w.rebuild_app();
  const campaign::CampaignConfig bcfg = w.rebuild_config();

  EXPECT_EQ(back.app.name, ca.app.name);
  EXPECT_EQ(back.app.golden_output, ca.app.golden_output);
  EXPECT_EQ(back.golden_ticks, ca.golden_ticks);
  EXPECT_EQ(back.golden_committed, ca.golden_committed);
  EXPECT_EQ(back.kernel_fetches, ca.kernel_fetches);
  EXPECT_EQ(back.checkpoint.bytes(), ca.checkpoint.bytes());
  EXPECT_EQ(bcfg.cpu, cfg.cpu);
  EXPECT_EQ(bcfg.campaign_seed, cfg.campaign_seed);
  EXPECT_DOUBLE_EQ(bcfg.deadline_seconds, cfg.deadline_seconds);
  ASSERT_EQ(bcfg.syscall_plans.size(), 1u);
  EXPECT_EQ(bcfg.syscall_plans[0].to_line(), cfg.syscall_plans[0].to_line());
  EXPECT_TRUE(bcfg.random_syscall_faults);

  // The rebuilt app must actually run: one experiment on each side of the
  // wire, with the same syscall plans, produces the identical result.
  const fi::Fault f = campaign::seeded_fault_any(cfg.campaign_seed, 3, ca.kernel_fetches);
  const auto plans_here = campaign::plans_for_experiment(cfg, 3);
  const auto plans_there = campaign::plans_for_experiment(bcfg, 3);
  ASSERT_EQ(plans_there.size(), 2u);
  const auto here = campaign::run_experiment(ca, f, cfg, &plans_here);
  const auto there = campaign::run_experiment(back, f, bcfg, &plans_there);
  EXPECT_EQ(here.classification.outcome, there.classification.outcome);
  EXPECT_EQ(here.sim_ticks, there.sim_ticks);
  ASSERT_EQ(there.syscall_plans.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(there.syscall_plans[i].to_line(), here.syscall_plans[i].to_line());
}

TEST(Wire, WelcomeRefusesSettingsAWorkerCannotHonour) {
  const campaign::CalibratedApp ca;
  campaign::CampaignConfig cfg;
  cfg.use_checkpoint = false;
  try {
    (void)wire::Welcome::from(ca, {}, cfg);
    FAIL() << "use_checkpoint=false was shipped";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("use_checkpoint"), std::string::npos)
        << e.what();
  }
  cfg.use_checkpoint = true;
  cfg.switch_to_atomic_after_fault = false;
  try {
    (void)wire::Welcome::from(ca, {}, cfg);
    FAIL() << "switch_to_atomic_after_fault=false was shipped";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("switch_to_atomic_after_fault"),
              std::string::npos)
        << e.what();
  }
}

// --- sockets ---

TEST(Socket, LoopbackSendRecv) {
  auto listener = net::TcpListener::bind_listen("127.0.0.1", 0);
  ASSERT_NE(listener.port(), 0);

  net::TcpConn client = net::TcpConn::connect("127.0.0.1", listener.port(), 5, 0.05);
  std::optional<net::TcpConn> server;
  for (int i = 0; i < 100 && !server; ++i) {
    server = listener.accept();
    if (!server) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(server.has_value());

  const auto msg = bytes_of("over the loopback");
  client.send_all(msg);
  std::vector<std::uint8_t> got;
  std::uint8_t buf[64];
  while (got.size() < msg.size()) {
    ASSERT_TRUE(server->wait_readable(2.0));
    const auto n = server->recv_some(buf);
    ASSERT_TRUE(n.has_value());
    got.insert(got.end(), buf, buf + *n);
  }
  EXPECT_EQ(got, msg);

  client.close();
  ASSERT_TRUE(server->wait_readable(2.0));
  EXPECT_FALSE(server->recv_some(buf).has_value());  // EOF
}

TEST(Socket, ConnectRefusedThrowsAfterBudget) {
  // Bind-then-close to get a port that refuses connections.
  std::uint16_t dead_port;
  {
    auto l = net::TcpListener::bind_listen("127.0.0.1", 0);
    dead_port = l.port();
  }
  EXPECT_THROW(net::TcpConn::connect("127.0.0.1", dead_port, 2, 0.01),
               net::SocketError);
}

TEST(Socket, SelfPipeDrainsWithoutBlocking) {
  net::SelfPipe pipe;
  pipe.notify();
  pipe.notify();
  pipe.drain();  // must consume everything without blocking
  pipe.notify();
  pipe.drain();
  SUCCEED();
}
