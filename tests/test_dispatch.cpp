// Chaos and correctness tests for the NoW dispatch service: a real master
// socket, real forked worker processes over the loopback, and deliberately
// hostile peers. The invariants under test are the tentpole's promises —
// exactly-once experiment completion, bit-equivalent results to a local
// run_campaign, and a master that survives worker death and protocol damage.
#include <gtest/gtest.h>

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/analytics/aggregator.hpp"
#include "campaign/dispatch.hpp"
#include "campaign/observer.hpp"
#include "campaign/runner.hpp"
#include "campaign/wire.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "test_env.hpp"

using namespace gemfi;
using testenv::scaled_ms;
using testenv::scaled_s;

// Sanitized builds run every experiment several times slower, and the forked
// worker processes are sanitized too — on an oversubscribed runner they
// serialize with the master. The early-stop test scales its campaign length
// down under a sanitizer (the invariants are unchanged; the stop rule still
// fires well before the end at the smaller n).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define GEMFI_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define GEMFI_SANITIZED 1
#endif
#endif
#ifndef GEMFI_SANITIZED
#define GEMFI_SANITIZED 0
#endif

namespace {

/// Collects records and forwards each one to an optional hook (which runs on
/// the master's event-loop thread — where chaos is injected mid-campaign).
class CollectingObserver final : public campaign::CampaignObserver {
 public:
  std::function<void(const campaign::ExperimentRecord&)> hook;

  void on_experiment(const campaign::ExperimentRecord& rec) override {
    {
      std::lock_guard lock(mutex_);
      records_.push_back(rec);
    }
    if (hook) hook(rec);  // outside the lock: hooks may call count()
  }

  [[nodiscard]] std::vector<campaign::ExperimentRecord> records() const {
    std::lock_guard lock(mutex_);
    return records_;
  }
  [[nodiscard]] std::size_t count() const {
    std::lock_guard lock(mutex_);
    return records_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<campaign::ExperimentRecord> records_;
};

/// One record, stripped of everything host- or scheduling-dependent (which
/// worker ran it, wall time, full-vs-dirty restore telemetry) and rendered
/// as the deterministic JSON line the determinism suite compares.
std::string normalized_json(campaign::ExperimentRecord rec) {
  rec.worker = 0;
  rec.result.wall_seconds = 0.0;
  rec.result.restore_pages = 0;
  rec.result.restore_bytes = 0;
  return campaign::experiment_record_to_json(rec, /*include_host_timing=*/false);
}

std::vector<std::string> normalized_sorted(std::vector<campaign::ExperimentRecord> recs) {
  std::sort(recs.begin(), recs.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  std::vector<std::string> lines;
  lines.reserve(recs.size());
  for (const auto& r : recs) lines.push_back(normalized_json(r));
  return lines;
}

/// Shared calibration (atomic model for speed): calibrate is the expensive
/// part of every dispatch test, so do it once per binary.
struct Calibrated {
  campaign::CampaignConfig cfg;
  apps::AppScale scale;
  campaign::CalibratedApp ca;
};

const Calibrated& calibrated() {
  static const Calibrated c = [] {
    Calibrated c;
    c.cfg.cpu = sim::CpuKind::AtomicSimple;
    c.cfg.campaign_seed = 1234;
    c.ca = campaign::calibrate(apps::build_app("pi"), c.cfg);
    return c;
  }();
  return c;
}

}  // namespace

// The acceptance-criteria test: a 4-worker multi-process campaign over 200
// experiments produces the same records as the in-process runner, modulo
// ordering and host telemetry, with zero lost or duplicated experiments.
// The second configuration arms a fixed syscall plan plus a seeded random
// plan per experiment: both travel in the Welcome, and every record carries
// its plans, so a worker that lost either would diverge.
TEST(Dispatch, FourWorkerGoldenEquivalence) {
  const Calibrated& c = calibrated();
  const std::size_t n = 200;
  const auto faults =
      campaign::seeded_fault_set(c.cfg.campaign_seed, n, c.ca.kernel_fetches);

  campaign::CampaignConfig with_plans = c.cfg;
  with_plans.syscall_plans = {fi::parse_syscall_plan("write@idx:1 errno:EIO")};
  with_plans.random_syscall_faults = true;

  for (const campaign::CampaignConfig& cfg : {c.cfg, with_plans}) {
    SCOPED_TRACE(cfg.random_syscall_faults ? "with syscall plans" : "plain");
    // Reference: the in-process parallel runner.
    campaign::CampaignConfig local_cfg = cfg;
    CollectingObserver local_obs;
    local_cfg.observer = &local_obs;
    local_cfg.workers = 2;
    const auto local_report = campaign::run_campaign(c.ca, faults, local_cfg);
    ASSERT_EQ(local_report.total(), n);

    // Subject: master + 4 forked loopback worker processes.
    campaign::CampaignConfig now_cfg = cfg;
    CollectingObserver now_obs;
    now_cfg.observer = &now_obs;
    const auto dr = campaign::run_campaign_service_local(c.ca, c.scale, faults, now_cfg,
                                                         /*workers=*/4, /*slots=*/1);

    EXPECT_EQ(dr.completed, n);
    EXPECT_EQ(dr.workers_joined, 4u);
    EXPECT_EQ(dr.workers_lost, 0u);
    EXPECT_EQ(dr.duplicate_results, 0u);
    EXPECT_FALSE(dr.drained_early);
    EXPECT_GT(dr.checkpoint_bytes_shipped, 0u);
    EXPECT_EQ(std::count(dr.done.begin(), dr.done.end(), 1), std::ptrdiff_t(n));
    EXPECT_EQ(dr.campaign.total(), n);
    EXPECT_EQ(now_obs.count(), n);

    // Exactly-once: every index observed exactly once.
    std::vector<unsigned> seen(n, 0);
    for (const auto& rec : now_obs.records()) ++seen.at(rec.index);
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](unsigned k) { return k == 1; }));

    // Record equivalence after sorting by experiment id.
    EXPECT_EQ(normalized_sorted(local_obs.records()),
              normalized_sorted(now_obs.records()));
    EXPECT_EQ(local_report.counts, dr.campaign.counts);
    if (cfg.random_syscall_faults) {
      for (const auto& rec : now_obs.records())
        ASSERT_EQ(rec.result.syscall_plans.size(), 2u) << "index " << rec.index;
    }
  }
}

// A worker SIGKILLed mid-campaign: its in-flight experiments are requeued to
// the survivors and every experiment still completes exactly once, with
// records identical to an undisturbed run.
TEST(Dispatch, WorkerSigkillMidCampaignLosesNothing) {
  const Calibrated& c = calibrated();
  const std::size_t n = 120;
  const auto faults =
      campaign::seeded_fault_set(c.cfg.campaign_seed, n, c.ca.kernel_fetches);

  campaign::CampaignConfig ref_cfg = c.cfg;
  CollectingObserver ref_obs;
  ref_cfg.observer = &ref_obs;
  ref_cfg.workers = 2;
  campaign::run_campaign(c.ca, faults, ref_cfg);

  campaign::CampaignConfig now_cfg = c.cfg;
  CollectingObserver now_obs;
  now_cfg.observer = &now_obs;

  campaign::DispatchConfig dcfg;
  dcfg.worker_timeout_s = scaled_s(10.0);  // EOF detection should beat this by far

  campaign::Master master(c.ca, c.scale, faults, now_cfg, dcfg);
  auto pool = campaign::LocalWorkerPool::spawn(2, master.port(), /*slots=*/1);

  // Kill worker 0 from the master's own loop thread once results are
  // provably flowing — it dies with experiments in flight.
  std::atomic<bool> killed{false};
  now_obs.hook = [&](const campaign::ExperimentRecord&) {
    if (!killed.exchange(true)) pool.kill_worker(0, SIGKILL);
  };

  const auto dr = master.run();
  pool.wait_all();  // reaps the corpse too; its nonzero exit is expected

  EXPECT_TRUE(killed.load());
  EXPECT_EQ(dr.completed, n);
  EXPECT_EQ(dr.workers_lost, 1u);
  EXPECT_GE(dr.workers_joined, 2u);
  EXPECT_EQ(std::count(dr.done.begin(), dr.done.end(), 1), std::ptrdiff_t(n));

  std::vector<unsigned> seen(n, 0);
  for (const auto& rec : now_obs.records()) ++seen.at(rec.index);
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](unsigned k) { return k == 1; }));

  EXPECT_EQ(normalized_sorted(ref_obs.records()), normalized_sorted(now_obs.records()));
}

// Hostile peers: raw garbage and a truncated-then-abandoned frame. The
// master must drop them and still finish the campaign with a real worker.
TEST(Dispatch, GarbageAndTruncatedPeersDontCrashMaster) {
  const Calibrated& c = calibrated();
  const std::size_t n = 30;
  const auto faults =
      campaign::seeded_fault_set(c.cfg.campaign_seed, n, c.ca.kernel_fetches);

  campaign::CampaignConfig now_cfg = c.cfg;
  CollectingObserver now_obs;
  now_cfg.observer = &now_obs;

  campaign::Master master(c.ca, c.scale, faults, now_cfg, {});
  // Fork before starting any threads in this process.
  auto pool = campaign::LocalWorkerPool::spawn(1, master.port(), /*slots=*/1);

  const std::uint16_t port = master.port();
  std::thread hostiles([port] {
    try {
      // Peer 1: pure garbage — rejected at the first bad magic byte.
      auto garbage = net::TcpConn::connect("127.0.0.1", port, 10, 0.05);
      const char junk[] = "GET /experiments HTTP/1.1\r\nHost: not-a-worker\r\n\r\n";
      garbage.send_all(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(junk), sizeof junk - 1));

      // Peer 2: a valid Hello frame truncated mid-payload, then EOF.
      auto truncated = net::TcpConn::connect("127.0.0.1", port, 10, 0.05);
      const auto hello = net::encode_frame(
          1, std::vector<std::uint8_t>{1, 0, 0, 0, 1, 0, 0, 0});
      truncated.send_all(
          std::span<const std::uint8_t>(hello.data(), hello.size() - 3));
      truncated.close();

      // Peer 3: a frame whose announced length exceeds the master's cap.
      auto oversized = net::TcpConn::connect("127.0.0.1", port, 10, 0.05);
      std::vector<std::uint8_t> header = {'W', 'N', 'F', 'G'};  // magic, LE
      header.push_back(1);                                      // type
      for (const std::uint8_t b : {0xFF, 0xFF, 0xFF, 0x7F}) header.push_back(b);
      for (int i = 0; i < 4; ++i) header.push_back(0);  // crc
      oversized.send_all(header);

      // Peer 4: a valid Hello, then a Heartbeat carrying a payload byte.
      auto chatty = net::TcpConn::connect("127.0.0.1", port, 10, 0.05);
      chatty.send_all(net::encode_frame(
          1, campaign::wire::encode_hello({campaign::wire::kProtocolVersion, 1})));
      chatty.send_all(net::encode_frame(5, std::vector<std::uint8_t>{0}));
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    } catch (const std::exception&) {
      // A hostile peer being dropped mid-send is the master working.
    }
  });

  const auto dr = master.run();
  hostiles.join();
  pool.wait_all();

  EXPECT_EQ(dr.completed, n);
  EXPECT_GE(dr.frames_rejected, 1u);  // the garbage peer at minimum
  EXPECT_EQ(now_obs.count(), n);
}

// request_drain(): the master stops dispatching, collects what is in
// flight, shuts workers down cleanly, and reports a partial campaign.
TEST(Dispatch, DrainStopsEarlyAndWorkersExitCleanly) {
  const Calibrated& c = calibrated();
  const std::size_t n = 100;
  const auto faults =
      campaign::seeded_fault_set(c.cfg.campaign_seed, n, c.ca.kernel_fetches);

  campaign::CampaignConfig now_cfg = c.cfg;
  CollectingObserver now_obs;
  now_cfg.observer = &now_obs;

  campaign::Master master(c.ca, c.scale, faults, now_cfg, {});
  auto pool = campaign::LocalWorkerPool::spawn(2, master.port(), /*slots=*/1);

  std::atomic<std::size_t> observed{0};
  now_obs.hook = [&](const campaign::ExperimentRecord&) {
    if (observed.fetch_add(1) + 1 == 3) master.request_drain();
  };

  const auto dr = master.run();
  EXPECT_EQ(pool.wait_all(), 0);  // both workers got Shutdown and exited 0

  EXPECT_TRUE(dr.drained_early);
  EXPECT_GE(dr.completed, 3u);
  EXPECT_LT(dr.completed, n);
  EXPECT_EQ(std::count(dr.done.begin(), dr.done.end(), 1),
            std::ptrdiff_t(dr.completed));
  // Partial but still exactly-once and deterministic per record.
  std::vector<unsigned> seen(n, 0);
  for (const auto& rec : now_obs.records()) ++seen.at(rec.index);
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](unsigned k) { return k <= 1; }));
}

// A trickling peer — one valid Hello, then a frame header dripped one byte
// at a time forever — used to reset the master's idle clock on every byte
// and squat a connection indefinitely. With frame-level liveness the drip
// only buys the bounded partial-frame grace: the peer is reaped, counted in
// peers_timed_out, and the campaign still completes with the real worker.
TEST(Dispatch, DripFeedingPeerIsReapedNotImmortal) {
  const Calibrated& c = calibrated();
  const std::size_t n = 40;
  const auto faults =
      campaign::seeded_fault_set(c.cfg.campaign_seed, n, c.ca.kernel_fetches);

  campaign::CampaignConfig now_cfg = c.cfg;
  CollectingObserver now_obs;
  now_cfg.observer = &now_obs;

  // Workers heartbeat every 1s, so 2.5s of idle means a dead (or hostile)
  // peer; the dripped partial frame only adds the 0.5s grace. The observer
  // hook below paces the campaign so it always outlives the ~3s reap point.
  campaign::DispatchConfig dcfg;
  dcfg.worker_timeout_s = scaled_s(2.5);
  dcfg.frame_grace_s = scaled_s(0.5);
  now_obs.hook = [](const campaign::ExperimentRecord&) {
    std::this_thread::sleep_for(scaled_ms(100));
  };

  campaign::Master master(c.ca, c.scale, faults, now_cfg, dcfg);
  auto pool = campaign::LocalWorkerPool::spawn(1, master.port(), /*slots=*/1);

  const std::uint16_t port = master.port();
  std::atomic<bool> dripping{true};
  std::thread dripper([port, &dripping] {
    try {
      auto conn = net::TcpConn::connect("127.0.0.1", port, 10, 0.05);
      // A complete, valid Hello: the peer is now a bona fide worker whose
      // silence would be measured — then a valid Heartbeat frame dripped one
      // byte at a time, never finished, to hold a partial frame in flight.
      const auto hello = net::encode_frame(
          1, campaign::wire::encode_hello({campaign::wire::kProtocolVersion, 1}));
      conn.send_all(hello);
      const auto drip = net::encode_frame(5, std::vector<std::uint8_t>(12, 0));
      std::size_t sent = 0;
      while (dripping.load()) {
        if (sent + 1 < drip.size())  // never complete the frame
          conn.send_all(std::span<const std::uint8_t>(&drip[sent++], 1));
        std::this_thread::sleep_for(scaled_ms(150));
      }
    } catch (const std::exception&) {
      // The master closing the drip-feed connection is the fix working.
    }
  });

  const auto dr = master.run();
  dripping.store(false);
  dripper.join();
  pool.wait_all();

  EXPECT_EQ(dr.completed, n);
  EXPECT_GE(dr.peers_timed_out, 1u);
  EXPECT_EQ(now_obs.count(), n);
}

// Two masters in one process, both with handle_sigint: one SIGINT must
// drain BOTH loops (the old single-global handler slot let the second
// registration clobber the first, leaving one master uninterruptible).
TEST(Dispatch, SigintDrainsEveryConcurrentMaster) {
  const Calibrated& c = calibrated();
  const std::size_t n = 400;  // big enough that neither finishes first
  const auto faults =
      campaign::seeded_fault_set(c.cfg.campaign_seed, n, c.ca.kernel_fetches);

  campaign::CampaignConfig cfg_a = c.cfg;
  campaign::CampaignConfig cfg_b = c.cfg;
  CollectingObserver obs_a, obs_b;
  cfg_a.observer = &obs_a;
  cfg_b.observer = &obs_b;
  campaign::DispatchConfig dcfg;
  dcfg.handle_sigint = true;

  campaign::Master master_a(c.ca, c.scale, faults, cfg_a, dcfg);
  campaign::Master master_b(c.ca, c.scale, faults, cfg_b, dcfg);
  // Fork every worker before this process spawns threads.
  auto pool_a = campaign::LocalWorkerPool::spawn(1, master_a.port(), /*slots=*/1);
  auto pool_b = campaign::LocalWorkerPool::spawn(1, master_b.port(), /*slots=*/1);

  campaign::DispatchReport dr_a, dr_b;
  std::thread run_a([&] { dr_a = master_a.run(); });
  std::thread run_b([&] { dr_b = master_b.run(); });

  // Interrupt once both campaigns are provably mid-flight.
  while (obs_a.count() < 3 || obs_b.count() < 3)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  raise(SIGINT);

  run_a.join();
  run_b.join();
  EXPECT_EQ(pool_a.wait_all(), 0);
  EXPECT_EQ(pool_b.wait_all(), 0);

  EXPECT_TRUE(dr_a.drained_early);
  EXPECT_TRUE(dr_b.drained_early);
  EXPECT_LT(dr_a.completed, n);
  EXPECT_LT(dr_b.completed, n);
}

// The load-bearing property of the sequential stop rule: the stop index and
// the stopped_early summary are byte-identical across worker counts and
// schedulings, because the rule is evaluated on index-ordered prefixes — not
// arrival order.
TEST(Dispatch, EarlyStopDeterministicAcrossWorkerCountsAndTransports) {
  const Calibrated& c = calibrated();
  const std::size_t n = GEMFI_SANITIZED ? 120 : 300;
  const auto faults =
      campaign::seeded_fault_set(c.cfg.campaign_seed, n, c.ca.kernel_fetches);

  const auto run_with = [&](unsigned workers) {
    campaign::CampaignConfig cfg = c.cfg;
    campaign::DispatchConfig dcfg;
    dcfg.stop = campaign::parse_stop_ci("0.08@0.95");
    return campaign::run_campaign_service_local(c.ca, c.scale, faults, cfg, workers,
                                                /*slots=*/1, dcfg);
  };

  const auto one = run_with(1);
  const auto three = run_with(3);
  const auto two = run_with(2);

  ASSERT_TRUE(one.stopped_early);
  ASSERT_TRUE(three.stopped_early);
  ASSERT_TRUE(two.stopped_early);
  EXPECT_TRUE(one.drained_early);
  EXPECT_GT(one.stop_index, 0u);
  EXPECT_LT(one.stop_index, n);
  EXPECT_EQ(one.stop_index, three.stop_index);
  EXPECT_EQ(one.stop_index, two.stop_index);
  EXPECT_FALSE(one.aggregate_summary.empty());
  EXPECT_EQ(one.aggregate_summary, three.aggregate_summary);
  EXPECT_EQ(one.aggregate_summary, two.aggregate_summary);

  // The stop saves real dispatch work: completions cover the prefix plus the
  // drained in-flight tail, and the cancelled queue accounts for the rest.
  EXPECT_GE(one.completed, one.stop_index);
  EXPECT_LT(one.completed, n);
  EXPECT_EQ(one.completed + one.cancelled, n);
}

// The master gives up with a clear error if no worker ever joins.
TEST(Dispatch, NoWorkerEverJoinsThrows) {
  const Calibrated& c = calibrated();
  const auto faults = campaign::seeded_fault_set(c.cfg.campaign_seed, 4,
                                                 c.ca.kernel_fetches);
  campaign::DispatchConfig dcfg;
  dcfg.first_worker_timeout_s = scaled_s(0.3);
  campaign::CampaignConfig cfg = c.cfg;
  campaign::Master master(c.ca, c.scale, faults, cfg, dcfg);
  EXPECT_THROW(master.run(), std::runtime_error);
}
