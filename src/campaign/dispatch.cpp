#include "campaign/dispatch.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "campaign/observer.hpp"
#include "campaign/wire.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace gemfi::campaign {

namespace {

using net::mono_seconds;
using wire::frame_for;

/// Seconds between a worker's Heartbeat frames.
constexpr double kHeartbeatIntervalS = 1.0;

/// Largest frame accepted from the master; it must fit the Welcome (config
/// plus checkpoint image).
constexpr std::size_t kMaxMasterFrame = std::size_t(1) << 31;

/// Longest sleep of a worker's socket loop while the master is quiet. A
/// finished result leaves on the loop's next pass, so it waits at most this
/// long. The slots never wake the loop per result: that wakeup stalled the
/// simulating thread (up to ~0.8 ms per result on a VM whose vCPUs had been
/// idle) and made sub-millisecond campaigns CPU-bound, so their throughput
/// followed the host's speed from run to run. With two experiments in flight
/// per slot (the fleet's pipeline depth) a slot runs at most about
/// 2 / kResultFlushS experiments per second; only experiments shorter than
/// kResultFlushS / 2 reach that cap.
constexpr double kResultFlushS = 0.004;

}  // namespace

// ---------------------------------------------------------------------------
// Master: the fleet engine serving one pre-calibrated, unjournaled campaign
// ---------------------------------------------------------------------------

struct Master::Impl final : Fleet {
  CampaignConfig cfg;
  DispatchConfig dcfg;
  Lane lane;
  std::atomic<bool> drain_requested{false};

  double first_worker_deadline = 0.0;
  DispatchReport stats;  // master-only counters accumulate here during the run

  Impl(const CalibratedApp& ca, const apps::AppScale& scale,
       const std::vector<fi::Fault>& faults, const CampaignConfig& cfg_in,
       const DispatchConfig& dcfg_in)
      : Fleet(dcfg_in), cfg(cfg_in), dcfg(dcfg_in) {
    lane.id = 1;
    lane.open(ca, scale, cfg, faults, dcfg.stop);
  }

  bool serving() override {
    if (!lane.running || lane.completed == lane.done.size()) return false;
    // A drain ends once the last in-flight result is in.
    return dispatching() || inflight_on(lane.id) != 0;
  }

  Lane* find_lane(std::uint64_t id) override { return id == lane.id ? &lane : nullptr; }

  std::uint64_t pick_lane() override {
    return lane.running && !lane.stopping ? lane.id : 0;
  }

  void on_record(Lane& /*lane*/, const ExperimentRecord& rec) override {
    stats.campaign.add(rec.result);
    stats.experiment_wall_seconds += rec.result.wall_seconds;
    if (cfg.observer) cfg.observer->on_experiment(rec);
  }

  void on_summary(Lane& /*lane*/, const std::string& json) override {
    if (lane.stopping) {
      stats.stopped_early = true;
      stats.stop_index = lane.agg->stop_index();
    }
    stats.aggregate_summary = json;
    if (cfg.observer) cfg.observer->on_campaign_summary(json);
  }

  void on_sigint() override { drain_requested.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool dispatching() const override {
    return !drain_requested.load(std::memory_order_relaxed);
  }

  void tick() override {
    if (counters_.workers_joined == 0 && mono_seconds() > first_worker_deadline)
      throw std::runtime_error("campaign master: no worker joined within " +
                               std::to_string(dcfg.first_worker_timeout_s) + "s");
  }

  DispatchReport run() {
    const double t0 = mono_seconds();
    first_worker_deadline = t0 + dcfg.first_worker_timeout_s;
    if (cfg.observer) cfg.observer->on_campaign_begin(lane.done.size());
    serve();
    static_cast<FleetCounters&>(stats) = counters_;
    stats.completed = lane.completed;
    stats.cancelled = lane.cancelled;
    stats.drained_early = lane.completed < lane.done.size();
    stats.done = std::move(lane.done);
    stats.wall_seconds = mono_seconds() - t0;
    stats.campaign.wall_seconds = stats.wall_seconds;
    if (cfg.observer) cfg.observer->on_campaign_end(stats.campaign);
    return std::move(stats);
  }
};

Master::Master(const CalibratedApp& ca, const apps::AppScale& scale,
               const std::vector<fi::Fault>& faults, const CampaignConfig& cfg,
               const DispatchConfig& dcfg)
    : impl_(std::make_unique<Impl>(ca, scale, faults, cfg, dcfg)) {}

Master::~Master() = default;

std::uint16_t Master::port() const noexcept { return impl_->port(); }

DispatchReport Master::run() { return impl_->run(); }

void Master::request_drain() noexcept {
  impl_->drain_requested.store(true, std::memory_order_relaxed);
  impl_->wake();
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

namespace {

/// Everything one established connection needs: the rebuilt app, the slot
/// threads with their persistent Simulations, and the in/out queues between
/// the socket loop and the slots.
class WorkerSession {
 public:
  WorkerSession(const wire::Welcome& welcome, unsigned slots)
      : ca_(welcome.rebuild_app()),
        cfg_(welcome.rebuild_config()),
        baseline_(campaign_baseline(ca_, cfg_)) {
    threads_.reserve(slots);
    for (unsigned i = 0; i < slots; ++i) threads_.emplace_back([this] { slot_main(); });
  }

  ~WorkerSession() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void enqueue(std::vector<std::pair<std::uint64_t, fi::Fault>> items) {
    {
      std::lock_guard lock(mutex_);
      for (auto& it : items) in_.push_back(std::move(it));
    }
    cv_.notify_all();
  }

  std::vector<wire::ResultMsg> take_results() {
    std::lock_guard lock(mutex_);
    std::vector<wire::ResultMsg> out(std::make_move_iterator(out_.begin()),
                                     std::make_move_iterator(out_.end()));
    out_.clear();
    return out;
  }

  /// Drop every queued-not-started experiment (CancelQueue); returns the
  /// dropped indices for the CancelAck. Experiments already claimed by a
  /// slot keep running and report normally.
  std::vector<std::uint64_t> cancel_queued() {
    std::lock_guard lock(mutex_);
    std::vector<std::uint64_t> dropped;
    dropped.reserve(in_.size());
    for (const auto& [index, fault] : in_) {
      (void)fault;
      dropped.push_back(index);
    }
    in_.clear();
    return dropped;
  }

 private:
  void slot_main() {
    // One persistent Simulation per slot (the shared-baseline fast restore),
    // exactly like a local run_campaign worker thread.
    ExperimentWorker ew(ca_, baseline_ ? &*baseline_ : nullptr, cfg_);
    for (;;) {
      std::pair<std::uint64_t, fi::Fault> item;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return stop_ || !in_.empty(); });
        if (stop_) return;
        item = std::move(in_.front());
        in_.pop_front();
      }
      wire::ResultMsg msg;
      msg.index = item.first;
      try {
        const std::vector<fi::SyscallFaultPlan> plans =
            plans_for_experiment(cfg_, item.first);
        msg.result = ew.run_with_retry(item.second, &plans);
      } catch (const std::exception& e) {
        // run_with_retry contracts never to throw; belt and braces so one
        // experiment cannot take the whole worker process down.
        msg.result.fault = item.second;
        msg.result.sim_error = e.what();
        msg.result.exit_reason = sim::ExitReason::Crashed;
        msg.result.classification.outcome = apps::Outcome::Crashed;
      }
      {
        std::lock_guard lock(mutex_);
        out_.push_back(std::move(msg));
      }
    }
  }

  CalibratedApp ca_;
  CampaignConfig cfg_;
  const std::optional<chkpt::CheckpointImage> baseline_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::deque<std::pair<std::uint64_t, fi::Fault>> in_;
  std::deque<wire::ResultMsg> out_;

  std::vector<std::thread> threads_;
};

/// Outcome of one established connection.
enum class SessionEnd { Shutdown, ConnectionLost };

SessionEnd serve_connection(net::TcpConn& conn, const WorkerConfig& wcfg) {
  conn.send_all(frame_for(wire::MsgType::Hello,
                          wire::encode_hello({wire::kProtocolVersion, wcfg.slots})));

  net::FrameReader reader(kMaxMasterFrame);
  std::uint8_t buf[64 * 1024];

  // Wait for the Welcome (the checkpoint ship can take a moment on a LAN).
  // The master may pipeline the first Batch right behind it; stop draining
  // the reader as soon as the Welcome is out and let the main loop pick up
  // whatever stayed buffered.
  std::optional<wire::Welcome> welcome;
  const double welcome_deadline = mono_seconds() + 60.0;
  while (!welcome) {
    if (mono_seconds() > welcome_deadline) return SessionEnd::ConnectionLost;
    if (!conn.wait_readable(0.25)) continue;
    const auto got = conn.recv_some(buf);
    if (!got) return SessionEnd::ConnectionLost;
    reader.feed(std::span<const std::uint8_t>(buf, *got));
    if (auto f = reader.next()) {
      if (wire::MsgType(f->type) == wire::MsgType::Shutdown) return SessionEnd::Shutdown;
      if (wire::MsgType(f->type) != wire::MsgType::Welcome)
        throw net::ProtocolError("expected Welcome");
      welcome = wire::decode_welcome(f->payload);
    }
  }

  WorkerSession session(*welcome, wcfg.slots);
  double last_heartbeat = 0.0;
  bool shutdown = false;

  while (!shutdown) {
    // Frames may already be buffered (pipelined behind the Welcome or from a
    // previous oversized recv) — drain before blocking on the socket.
    while (auto f = reader.next()) {
      switch (wire::MsgType(f->type)) {
        case wire::MsgType::Batch: {
          std::vector<std::pair<std::uint64_t, fi::Fault>> items;
          for (const wire::BatchItem& it : wire::decode_batch(f->payload))
            items.emplace_back(it.index, fi::parse_fault(it.fault_line));
          session.enqueue(std::move(items));
          break;
        }
        case wire::MsgType::Shutdown:
          shutdown = true;
          break;
        case wire::MsgType::CancelQueue: {
          wire::CancelAck ack;
          ack.dropped = session.cancel_queued();
          conn.send_all(
              frame_for(wire::MsgType::CancelAck, wire::encode_cancel_ack(ack)));
          break;
        }
        default:
          throw net::ProtocolError("unexpected master message type " +
                                   std::to_string(f->type));
      }
      if (shutdown) break;
    }
    if (shutdown) break;

    for (const wire::ResultMsg& msg : session.take_results())
      conn.send_all(frame_for(wire::MsgType::Result, wire::encode_result(msg)));

    const double now = mono_seconds();
    if (now - last_heartbeat >= kHeartbeatIntervalS) {
      last_heartbeat = now;
      conn.send_all(frame_for(wire::MsgType::Heartbeat));
    }

    if (!conn.wait_readable(kResultFlushS)) continue;
    const auto got = conn.recv_some(buf);
    if (!got) return SessionEnd::ConnectionLost;
    reader.feed(std::span<const std::uint8_t>(buf, *got));
  }
  return SessionEnd::Shutdown;
}

}  // namespace

int run_worker(const WorkerConfig& wcfg) {
  unsigned reconnects = 0;
  for (;;) {
    net::TcpConn conn;
    try {
      conn = net::TcpConn::connect(wcfg.host, wcfg.port, wcfg.connect_attempts,
                                   wcfg.connect_backoff_s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gemfi worker: %s\n", e.what());
      return 2;
    }
    try {
      if (serve_connection(conn, wcfg) == SessionEnd::Shutdown) return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gemfi worker: %s\n", e.what());
    }
    // Established connection lost: bounded reconnect (the master will requeue
    // whatever we had in flight and greet us as a fresh worker).
    if (++reconnects > wcfg.max_reconnects) return 1;
  }
}

// ---------------------------------------------------------------------------
// Forked loopback workers
// ---------------------------------------------------------------------------

LocalWorkerPool LocalWorkerPool::spawn(unsigned workers, std::uint16_t port,
                                       unsigned slots, unsigned max_reconnects) {
  LocalWorkerPool pool;
  std::fflush(stdout);
  std::fflush(stderr);
  for (unsigned i = 0; i < workers; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) throw net::SocketError("fork failed");
    if (pid == 0) {
      WorkerConfig wcfg;
      wcfg.host = "127.0.0.1";
      wcfg.port = port;
      wcfg.slots = slots == 0 ? 1 : slots;
      wcfg.max_reconnects = max_reconnects;
      // _exit: never unwind into the parent's atexit/gtest machinery.
      ::_exit(run_worker(wcfg));
    }
    pool.pids_.push_back(int(pid));
  }
  return pool;
}

void LocalWorkerPool::kill_worker(std::size_t i, int signo) const {
  if (i < pids_.size() && pids_[i] > 0) ::kill(pids_[i], signo);
}

int LocalWorkerPool::wait_all() {
  int failures = 0;
  for (int& pid : pids_) {
    if (pid <= 0) continue;
    int status = 0;
    if (::waitpid(pid, &status, 0) == pid)
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failures;
    pid = -1;
  }
  return failures;
}

DispatchReport run_campaign_service_local(const CalibratedApp& ca,
                                          const apps::AppScale& scale,
                                          const std::vector<fi::Fault>& faults,
                                          const CampaignConfig& cfg, unsigned workers,
                                          unsigned slots, DispatchConfig dcfg) {
  dcfg.bind_address = "127.0.0.1";
  Master master(ca, scale, faults, cfg, dcfg);
  LocalWorkerPool pool =
      LocalWorkerPool::spawn(workers == 0 ? 1 : workers, master.port(), slots);
  try {
    DispatchReport report = master.run();
    pool.wait_all();
    return report;
  } catch (...) {
    for (std::size_t i = 0; i < pool.pids().size(); ++i) pool.kill_worker(i, SIGKILL);
    pool.wait_all();
    throw;
  }
}

}  // namespace gemfi::campaign
