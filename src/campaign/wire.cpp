#include "campaign/wire.hpp"

#include <limits>
#include <stdexcept>

#include "net/frame.hpp"

namespace gemfi::campaign::wire {

std::vector<std::uint8_t> frame_for(MsgType type,
                                    std::span<const std::uint8_t> payload) {
  return net::encode_frame(std::uint8_t(type), payload);
}

namespace {

using util::ByteReader;
using util::ByteWriter;
using util::DeserializeError;

std::uint8_t checked_enum(ByteReader& r, unsigned count, const char* what) {
  const std::uint8_t v = r.get_u8();
  if (v >= count)
    throw DeserializeError(std::string("out-of-range ") + what + " discriminator: " +
                           std::to_string(v));
  return v;
}

}  // namespace

void put_result(ByteWriter& w, const ExperimentResult& er) {
  w.put_u8(std::uint8_t(er.classification.outcome));
  w.put_f64(er.classification.metric);
  w.put_u8(std::uint8_t(er.exit_reason));
  w.put_u8(std::uint8_t(er.trap));
  w.put_string(er.fault.to_line());
  w.put_bool(er.fault_applied);
  w.put_f64(er.time_fraction);
  w.put_u64(er.sim_ticks);
  w.put_f64(er.wall_seconds);
  w.put_u32(er.retries);
  w.put_string(er.sim_error);
  w.put_u8(er.ckpt_version);
  w.put_u64(er.restore_pages);
  w.put_u64(er.restore_bytes);
  w.put_u32(std::uint32_t(er.syscall_plans.size()));
  for (const fi::SyscallFaultPlan& p : er.syscall_plans) w.put_string(p.to_line());
  w.put_u8(std::uint8_t(er.syscall_class.outcome));
  w.put_u32(er.syscall_class.cascade_len);
  w.put_bool(er.syscall_class.injected);
  w.put_bool(er.syscall_class.unrealistic);
  w.put_u64(er.syscalls_injected);
}

ExperimentResult get_result(ByteReader& r) {
  ExperimentResult er;
  er.classification.outcome =
      static_cast<apps::Outcome>(checked_enum(r, apps::kNumOutcomes, "outcome"));
  er.classification.metric = r.get_f64();
  er.exit_reason = static_cast<sim::ExitReason>(
      checked_enum(r, unsigned(sim::ExitReason::Deadline) + 1, "exit reason"));
  er.trap = static_cast<cpu::TrapKind>(
      checked_enum(r, unsigned(cpu::TrapKind::Halt) + 1, "trap kind"));
  er.fault = fi::parse_fault(r.get_string());
  er.fault_applied = r.get_bool();
  er.time_fraction = r.get_f64();
  er.sim_ticks = r.get_u64();
  er.wall_seconds = r.get_f64();
  er.retries = r.get_u32();
  er.sim_error = r.get_string();
  er.ckpt_version = r.get_u8();
  er.restore_pages = r.get_u64();
  er.restore_bytes = r.get_u64();
  const std::uint32_t n_plans = r.get_u32();
  if (n_plans > 1u << 16) throw DeserializeError("implausible syscall plan count");
  er.syscall_plans.reserve(n_plans);
  for (std::uint32_t i = 0; i < n_plans; ++i)
    er.syscall_plans.push_back(fi::parse_syscall_plan(r.get_string()));
  er.syscall_class.outcome = static_cast<SyscallOutcome>(
      checked_enum(r, kNumSyscallOutcomes, "syscall outcome"));
  er.syscall_class.cascade_len = r.get_u32();
  er.syscall_class.injected = r.get_bool();
  er.syscall_class.unrealistic = r.get_bool();
  er.syscalls_injected = r.get_u64();
  return er;
}

std::vector<std::uint8_t> encode_hello(const Hello& h) {
  ByteWriter w;
  w.put_u32(h.version);
  w.put_u32(h.slots);
  return w.take();
}

Hello decode_hello(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  Hello h;
  h.version = r.get_u32();
  h.slots = r.get_u32();
  if (h.version != kProtocolVersion)
    throw DeserializeError("protocol version mismatch: worker speaks v" +
                           std::to_string(h.version) + ", master speaks v" +
                           std::to_string(kProtocolVersion));
  if (h.slots == 0 || h.slots > 1024)
    throw DeserializeError("implausible worker slot count: " + std::to_string(h.slots));
  if (!r.at_end()) throw DeserializeError("trailing bytes in Hello");
  return h;
}

Welcome Welcome::from(const CalibratedApp& ca, const apps::AppScale& scale,
                      const CampaignConfig& cfg) {
  // A worker always restores from the shipped checkpoint and switches to the
  // atomic model after a single fault; the wire carries no way to say
  // otherwise.
  if (!cfg.use_checkpoint)
    throw std::invalid_argument(
        "Welcome: use_checkpoint=false cannot be shipped to a worker");
  if (!cfg.switch_to_atomic_after_fault)
    throw std::invalid_argument(
        "Welcome: switch_to_atomic_after_fault=false cannot be shipped to a worker");
  Welcome w;
  w.app_name = ca.app.name;
  w.paper_scale = scale.paper;
  w.app_scale_seed = scale.seed;
  w.golden_output = ca.app.golden_output;
  w.golden_ticks = ca.golden_ticks;
  w.golden_committed = ca.golden_committed;
  w.kernel_fetches = ca.kernel_fetches;
  w.ticks_to_checkpoint = ca.ticks_to_checkpoint;
  w.checkpoint = ca.checkpoint.bytes();
  w.cpu = std::uint8_t(cfg.cpu);
  w.watchdog_mult = cfg.watchdog_mult;
  w.campaign_seed = cfg.campaign_seed;
  w.deadline_seconds = cfg.deadline_seconds;
  w.max_retries = cfg.max_retries;
  w.syscall_plan_lines.reserve(cfg.syscall_plans.size());
  for (const fi::SyscallFaultPlan& p : cfg.syscall_plans)
    w.syscall_plan_lines.push_back(p.to_line());
  w.random_syscall_faults = cfg.random_syscall_faults;
  return w;
}

CalibratedApp Welcome::rebuild_app() const {
  apps::AppScale scale;
  scale.paper = paper_scale;
  scale.seed = app_scale_seed;
  CalibratedApp ca;
  ca.app = apps::build_app(app_name, scale);
  ca.app.golden_output = golden_output;
  ca.checkpoint = chkpt::Checkpoint::from_bytes(checkpoint);
  ca.golden_ticks = golden_ticks;
  ca.golden_committed = golden_committed;
  ca.kernel_fetches = kernel_fetches;
  ca.ticks_to_checkpoint = ticks_to_checkpoint;
  return ca;
}

CampaignConfig Welcome::rebuild_config() const {
  CampaignConfig cfg;
  cfg.cpu = static_cast<sim::CpuKind>(cpu);
  cfg.watchdog_mult = watchdog_mult;
  cfg.campaign_seed = campaign_seed;
  cfg.deadline_seconds = deadline_seconds;
  cfg.max_retries = max_retries;
  cfg.syscall_plans.reserve(syscall_plan_lines.size());
  for (const std::string& line : syscall_plan_lines)
    cfg.syscall_plans.push_back(fi::parse_syscall_plan(line));
  cfg.random_syscall_faults = random_syscall_faults;
  return cfg;
}

std::vector<std::uint8_t> encode_welcome(const Welcome& w) {
  ByteWriter b;
  b.reserve(w.checkpoint.size() + w.golden_output.size() + 256);
  b.put_string(w.app_name);
  b.put_bool(w.paper_scale);
  b.put_u64(w.app_scale_seed);
  b.put_string(w.golden_output);
  b.put_u64(w.golden_ticks);
  b.put_u64(w.golden_committed);
  b.put_u64(w.kernel_fetches);
  b.put_u64(w.ticks_to_checkpoint);
  b.put_blob(w.checkpoint);
  b.put_u8(w.cpu);
  b.put_u64(w.watchdog_mult);
  b.put_u64(w.campaign_seed);
  b.put_f64(w.deadline_seconds);
  b.put_u32(w.max_retries);
  b.put_u32(std::uint32_t(w.syscall_plan_lines.size()));
  for (const std::string& line : w.syscall_plan_lines) b.put_string(line);
  b.put_bool(w.random_syscall_faults);
  return b.take();
}

Welcome decode_welcome(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  Welcome w;
  w.app_name = r.get_string();
  w.paper_scale = r.get_bool();
  w.app_scale_seed = r.get_u64();
  w.golden_output = r.get_string();
  w.golden_ticks = r.get_u64();
  w.golden_committed = r.get_u64();
  w.kernel_fetches = r.get_u64();
  w.ticks_to_checkpoint = r.get_u64();
  w.checkpoint = r.get_blob();
  w.cpu = checked_enum(r, unsigned(sim::CpuKind::Pipelined) + 1, "cpu kind");
  w.watchdog_mult = r.get_u64();
  w.campaign_seed = r.get_u64();
  w.deadline_seconds = r.get_f64();
  w.max_retries = r.get_u32();
  const std::uint32_t n_plans = r.get_u32();
  if (n_plans > 1u << 16) throw DeserializeError("implausible syscall plan count");
  w.syscall_plan_lines.reserve(n_plans);
  for (std::uint32_t i = 0; i < n_plans; ++i)
    w.syscall_plan_lines.push_back(r.get_string());
  w.random_syscall_faults = r.get_bool();
  if (!r.at_end()) throw DeserializeError("trailing bytes in Welcome");
  return w;
}

std::vector<std::uint8_t> encode_batch(const std::vector<BatchItem>& items) {
  ByteWriter w;
  w.put_u32(std::uint32_t(items.size()));
  for (const BatchItem& it : items) {
    w.put_u64(it.index);
    w.put_string(it.fault_line);
  }
  return w.take();
}

std::vector<BatchItem> decode_batch(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  const std::uint32_t count = r.get_u32();
  if (count > 1u << 20) throw DeserializeError("implausible batch size");
  std::vector<BatchItem> items;
  items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    BatchItem it;
    it.index = r.get_u64();
    it.fault_line = r.get_string();
    items.push_back(std::move(it));
  }
  if (!r.at_end()) throw DeserializeError("trailing bytes in Batch");
  return items;
}

std::vector<std::uint8_t> encode_result(const ResultMsg& msg) {
  ByteWriter w;
  w.put_u64(msg.index);
  put_result(w, msg.result);
  return w.take();
}

ResultMsg decode_result(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  ResultMsg msg;
  msg.index = r.get_u64();
  msg.result = get_result(r);
  if (!r.at_end()) throw DeserializeError("trailing bytes in Result");
  return msg;
}

std::vector<std::uint8_t> encode_cancel_ack(const CancelAck& ack) {
  ByteWriter w;
  w.put_u32(std::uint32_t(ack.dropped.size()));
  for (const std::uint64_t idx : ack.dropped) w.put_u64(idx);
  return w.take();
}

CancelAck decode_cancel_ack(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  const std::uint32_t n = r.get_u32();
  // A worker's queue is bounded by slots x pipeline depth; anything huge is
  // a hostile or corrupted frame, not a real ack.
  if (n > 1u << 20) throw DeserializeError("CancelAck count out of range");
  CancelAck ack;
  ack.dropped.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ack.dropped.push_back(r.get_u64());
  if (!r.at_end()) throw DeserializeError("trailing bytes in CancelAck");
  return ack;
}

}  // namespace gemfi::campaign::wire
