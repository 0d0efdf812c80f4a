// Integration and chaos tests for the campaign-manager service: a real
// CampaignService over loopback sockets, real forked worker processes, and
// real SIGKILL. The invariants under test are the tentpole's promises —
// multi-tenant campaigns share one fleet and all finish, results match an
// in-process run_campaign bit-for-bit (modulo host telemetry), and a
// SIGKILLed service restarted on the same journal resumes every campaign
// with every experiment id journaled exactly once.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/dispatch.hpp"
#include "campaign/jsonl.hpp"
#include "campaign/observer.hpp"
#include "campaign/runner.hpp"
#include "campaign/service/client.hpp"
#include "campaign/service/service.hpp"
#include "net/socket.hpp"
#include "test_env.hpp"

using namespace gemfi;
namespace service = gemfi::campaign::service;
namespace fs = std::filesystem;

// Sanitizers run every experiment several times slower (TSAN ~10x, ASAN
// ~3x), which is itself what the big chaos campaign buys on a plain build:
// the SIGKILL always lands with most experiments outstanding. Scale the
// count down so the suite fits its ctest timeout and the in-test status
// deadlines; the invariants under test are unchanged.
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

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("gemfi_service_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

/// Spec for a small atomic-model pi campaign — the shared shape of every
/// test so the binary calibrates only one app configuration.
service::CampaignSpec pi_spec(const std::string& tenant, std::uint64_t n,
                              std::uint64_t seed) {
  service::CampaignSpec s;
  s.tenant = tenant;
  s.app_name = "pi";
  s.experiments = n;
  s.campaign_seed = seed;
  s.cpu = std::uint8_t(sim::CpuKind::AtomicSimple);
  return s;
}

/// Re-render a parsed JSON value deterministically (object keys sorted by
/// std::map, numbers kept as their source tokens).
std::string render(const campaign::jsonl::Value& v) {
  using Kind = campaign::jsonl::Value::Kind;
  switch (v.kind) {
    case Kind::Null: return "null";
    case Kind::Bool: return v.boolean ? "true" : "false";
    case Kind::Number: return v.text;
    case Kind::String: {
      std::string out = "\"";
      for (const char c : v.text) {
        if (c == '"' || c == '\\') { out += '\\'; out += c; }
        else if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else out += c;
      }
      return out + "\"";
    }
    case Kind::Array: {
      std::string out = "[";
      for (const auto& e : v.array) {
        if (out.size() > 1) out += ",";
        out += render(e);
      }
      return out + "]";
    }
    case Kind::Object: {
      std::string out = "{";
      for (const auto& [k, e] : v.object) {
        if (out.size() > 1) out += ",";
        out += "\"" + k + "\":" + render(e);
      }
      return out + "}";
    }
  }
  return "";
}

/// One journaled record line with everything host- or scheduling-dependent
/// removed — which worker ran it, wall time, restore telemetry — so streamed
/// service output can be compared against an in-process reference run.
std::string normalize_line(const std::string& line) {
  campaign::jsonl::Value v = campaign::jsonl::parse(line);
  for (const char* k : {"worker", "wall_seconds", "restore_pages", "restore_bytes"})
    v.object.erase(k);
  return render(v);
}

std::vector<std::string> normalized_sorted_lines(std::vector<std::string> lines) {
  for (auto& l : lines) l = normalize_line(l);
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Thread-safe record collector for the in-process reference runs.
class CollectingObserver final : public campaign::CampaignObserver {
 public:
  void on_experiment(const campaign::ExperimentRecord& rec) override {
    std::lock_guard lock(mutex_);
    records_.push_back(rec);
  }
  [[nodiscard]] std::vector<campaign::ExperimentRecord> records() const {
    std::lock_guard lock(mutex_);
    return records_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<campaign::ExperimentRecord> records_;
};

/// In-process reference: run the same campaign through run_campaign and
/// return its records as normalized JSONL lines. Calibration is shared per
/// binary (every test uses the same app configuration).
std::vector<std::string> reference_lines(const service::CampaignSpec& spec) {
  static const campaign::CalibratedApp ca = [] {
    campaign::CampaignConfig cfg = pi_spec("x", 1, 1).to_campaign_config();
    return campaign::calibrate(apps::build_app("pi", {}), cfg);
  }();
  campaign::CampaignConfig cfg = spec.to_campaign_config();
  CollectingObserver obs;
  cfg.observer = &obs;
  cfg.workers = 2;
  const auto faults = campaign::seeded_fault_set(
      spec.campaign_seed, std::size_t(spec.experiments), ca.kernel_fetches);
  campaign::run_campaign(ca, faults, cfg);
  std::vector<std::string> lines;
  for (const auto& rec : obs.records())
    lines.push_back(campaign::experiment_record_to_json(rec));
  return normalized_sorted_lines(std::move(lines));
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Poll `pred` (given a fresh status snapshot) until it returns true.
/// Reconnects the polling client as needed; fails the test on deadline.
template <typename Pred>
void wait_for_status(std::uint16_t port, double deadline_s, Pred pred) {
  deadline_s = testenv::scaled_s(deadline_s);  // GEMFI_TEST_TIMEOUT_MS floor
  const double t0 = now_seconds();
  while (now_seconds() - t0 < deadline_s) {
    try {
      service::Client c = service::Client::connect("127.0.0.1", port, 4, 0.25);
      if (pred(c.status())) return;
    } catch (const std::exception&) {
      // Service restarting (chaos test) — keep polling.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  FAIL() << "status condition not reached within " << deadline_s << "s";
}

const service::CampaignStatus* find_status(
    const std::vector<service::CampaignStatus>& all, std::uint64_t id) {
  for (const auto& s : all)
    if (s.id == id) return &s;
  return nullptr;
}

/// Collect one campaign's full result stream; returns (lines, end state).
std::pair<std::vector<std::string>, service::CampaignState> stream_all(
    std::uint16_t port, std::uint64_t id) {
  service::Client c = service::Client::connect("127.0.0.1", port);
  std::vector<std::string> lines;
  const service::CampaignState end = c.stream(
      id, [&](const std::string& line) { lines.push_back(line); },
      /*timeout_s=*/testenv::scaled_s(120.0));
  return {std::move(lines), end};
}

/// SIGKILLs any still-running forked children when a test exits early on a
/// failed assertion — orphaned workers would otherwise reconnect forever and
/// hold the ctest output pipe open until the suite timeout.
struct FleetGuard {
  campaign::LocalWorkerPool& pool;
  ~FleetGuard() {
    for (const int pid : pool.pids())
      if (pid > 0) ::kill(pid, SIGKILL);
    pool.wait_all();
  }
};

struct ChildGuard {
  pid_t pid;
  ~ChildGuard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  void disarm() noexcept { pid = -1; }
};

void expect_exactly_once(const std::vector<std::string>& lines, std::uint64_t n) {
  std::vector<unsigned> seen(n, 0);
  for (const auto& line : lines)
    ++seen.at(std::size_t(campaign::jsonl::parse(line).at("index").as_u64()));
  EXPECT_EQ(lines.size(), n);
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](unsigned k) { return k == 1; }))
      << "some experiment id lost or duplicated";
}

}  // namespace

// Two tenants submit concurrent campaigns to one service sharing a 3-worker
// fleet: both finish, both saw workers (fair share gave each a lease), and
// each streamed result set is exactly-once and equal to an in-process run.
TEST(Service, TwoTenantsShareTheFleetAndBothComplete) {
  const fs::path dir = fresh_dir("fair");
  const auto ref1 = reference_lines(pi_spec("alice", 90, 1234));
  const auto ref2 = reference_lines(pi_spec("bob", 90, 4321));

  service::ServiceConfig scfg;
  scfg.journal_dir = dir.string();
  scfg.rebalance_interval_s = 0.2;
  service::CampaignService svc(scfg);
  const std::uint16_t port = svc.port();
  // Fork the fleet before this process spawns any threads.
  auto pool = campaign::LocalWorkerPool::spawn(3, port, /*slots=*/1,
                                               /*max_reconnects=*/1u << 20);
  FleetGuard fleet{pool};
  service::ServiceReport report;
  std::thread server([&] { report = svc.run(); });

  std::uint64_t id1 = 0, id2 = 0;
  {
    service::Client c1 = service::Client::connect("127.0.0.1", port);
    service::Client c2 = service::Client::connect("127.0.0.1", port);
    id1 = c1.submit(pi_spec("alice", 90, 1234));
    id2 = c2.submit(pi_spec("bob", 90, 4321));
  }
  EXPECT_NE(id1, 0u);
  EXPECT_NE(id2, id1);

  bool saw_workers1 = false, saw_workers2 = false;
  wait_for_status(port, 120.0, [&](const auto& all) {
    const auto* s1 = find_status(all, id1);
    const auto* s2 = find_status(all, id2);
    if (!s1 || !s2) return false;
    saw_workers1 |= s1->workers > 0;
    saw_workers2 |= s2->workers > 0;
    return s1->state == service::CampaignState::Done &&
           s2->state == service::CampaignState::Done;
  });
  // Each campaign can only have completed by holding worker leases; the
  // polls must have caught both with workers at least once.
  EXPECT_TRUE(saw_workers1);
  EXPECT_TRUE(saw_workers2);

  const auto [lines1, end1] = stream_all(port, id1);
  const auto [lines2, end2] = stream_all(port, id2);
  EXPECT_EQ(end1, service::CampaignState::Done);
  EXPECT_EQ(end2, service::CampaignState::Done);
  expect_exactly_once(lines1, 90);
  expect_exactly_once(lines2, 90);
  EXPECT_EQ(normalized_sorted_lines(lines1), ref1);
  EXPECT_EQ(normalized_sorted_lines(lines2), ref2);

  svc.request_stop();
  server.join();
  EXPECT_EQ(pool.wait_all(), 0);  // every worker got Shutdown and exited 0

  EXPECT_EQ(report.campaigns_done, 2u);
  EXPECT_EQ(report.campaigns_submitted, 2u);
  EXPECT_EQ(report.results_journaled, 180u);
  EXPECT_EQ(report.duplicate_results, 0u);
  EXPECT_GE(report.clients_served, 2u);
  fs::remove_all(dir);
}

// Cancelling a running campaign stops its dispatch (completed < total), a
// stream subscription ends with Cancelled, a second cancel is refused, and
// an unknown app fails the campaign without taking the service down.
TEST(Service, CancelAndFailurePaths) {
  const fs::path dir = fresh_dir("cancel");
  service::ServiceConfig scfg;
  scfg.journal_dir = dir.string();
  service::CampaignService svc(scfg);
  const std::uint16_t port = svc.port();
  auto pool = campaign::LocalWorkerPool::spawn(2, port, /*slots=*/1,
                                               /*max_reconnects=*/1u << 20);
  FleetGuard fleet{pool};
  service::ServiceReport report;
  std::thread server([&] { report = svc.run(); });

  service::Client client = service::Client::connect("127.0.0.1", port);
  // Big enough that cancellation always lands mid-run.
  const std::uint64_t big = client.submit(pi_spec("alice", 200000, 1234));
  const std::uint64_t doomed = client.submit([&] {
    service::CampaignSpec s = pi_spec("bob", 10, 1);
    s.app_name = "no-such-app";
    return s;
  }());

  // The unknown app fails at calibration with a useful error.
  wait_for_status(port, 60.0, [&](const auto& all) {
    const auto* s = find_status(all, doomed);
    return s && s->state == service::CampaignState::Failed && !s->error.empty();
  });

  // Wait until the big campaign is provably mid-run, then cancel it.
  wait_for_status(port, 60.0, [&](const auto& all) {
    const auto* s = find_status(all, big);
    return s && s->completed > 0;
  });
  client.cancel(big);
  wait_for_status(port, 30.0, [&](const auto& all) {
    const auto* s = find_status(all, big);
    return s && s->state == service::CampaignState::Cancelled;
  });
  EXPECT_THROW(client.cancel(big), std::runtime_error);   // already terminal
  EXPECT_THROW(client.cancel(99999), std::runtime_error);  // unknown id

  const auto [lines, end] = stream_all(port, big);
  EXPECT_EQ(end, service::CampaignState::Cancelled);
  EXPECT_GT(lines.size(), 0u);
  EXPECT_LT(lines.size(), 200000u);

  svc.request_stop();
  server.join();
  EXPECT_EQ(pool.wait_all(), 0);
  EXPECT_EQ(report.campaigns_cancelled, 1u);
  EXPECT_EQ(report.campaigns_failed, 1u);
  fs::remove_all(dir);
}

namespace {

/// Child body for the chaos test: run a service on a fixed port until
/// stopped (SIGINT) or killed. _exit keeps gtest out of the child.
[[noreturn]] void service_child(std::uint16_t port, const std::string& dir) {
  try {
    service::ServiceConfig scfg;
    scfg.journal_dir = dir;
    scfg.port = port;
    scfg.handle_sigint = true;
    service::CampaignService svc(scfg);
    svc.run();
    ::_exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "service child: %s\n", e.what());
    ::_exit(3);
  }
}

}  // namespace

// The crash-recovery acceptance test: SIGKILL the service mid-campaign with
// two tenants in flight, restart it on the same journal, and require both
// campaigns to finish with zero lost and zero duplicated experiment ids and
// records identical to an undisturbed in-process run.
TEST(Service, SigkillRestartLosesNothing) {
  const fs::path dir = fresh_dir("chaos");
  // Big enough that the kill always lands mid-campaign, even on a fast
  // machine: each campaign must outlast the 1 s rebalance that hands the
  // second tenant a worker (pi runs at ~1 ms per experiment on the trace
  // tier), and the first service must die with most experiments
  // outstanding.
  const std::uint64_t n = GEMFI_SANITIZED ? 1000 : 10000;
  const auto ref1 = reference_lines(pi_spec("alice", n, 1234));
  const auto ref2 = reference_lines(pi_spec("bob", n, 4321));

  // Learn a free port, then hand it to the service children. The probe
  // listener never accepts, so closing it leaves no TIME_WAIT behind.
  std::uint16_t port = 0;
  {
    auto probe = net::TcpListener::bind_listen("127.0.0.1", 0);
    port = probe.port();
  }

  const pid_t svc1 = ::fork();
  ASSERT_GE(svc1, 0);
  if (svc1 == 0) service_child(port, dir.string());
  ChildGuard guard1{svc1};

  // The fleet outlives the service: a huge reconnect budget carries the
  // workers across the kill/restart gap.
  auto pool = campaign::LocalWorkerPool::spawn(3, port, /*slots=*/1,
                                               /*max_reconnects=*/1u << 20);
  FleetGuard fleet{pool};

  std::uint64_t id1 = 0, id2 = 0;
  {
    service::Client client = service::Client::connect("127.0.0.1", port,
                                                      /*attempts=*/100, 0.1);
    id1 = client.submit(pi_spec("alice", n, 1234));
    id2 = client.submit(pi_spec("bob", n, 4321));
  }

  // Let both campaigns make real progress so the kill lands mid-flight,
  // with results already journaled and experiments in workers' hands.
  wait_for_status(port, 120.0, [&](const auto& all) {
    const auto* s1 = find_status(all, id1);
    const auto* s2 = find_status(all, id2);
    return s1 && s2 && s1->completed >= 10 && s2->completed >= 10 &&
           s1->state != service::CampaignState::Done &&
           s2->state != service::CampaignState::Done;
  });

  ::kill(svc1, SIGKILL);
  ASSERT_EQ(::waitpid(svc1, nullptr, 0), svc1);
  guard1.disarm();

  const pid_t svc2 = ::fork();
  ASSERT_GE(svc2, 0);
  if (svc2 == 0) service_child(port, dir.string());
  ChildGuard guard2{svc2};

  // The restarted service recovers both campaigns from the journal,
  // recalibrates, re-leases the reconnecting workers, and finishes. The
  // deadline scales like `n` does: under TSAN nearly all 2n experiments are
  // still outstanding at the kill and each runs ~10x slower, so the fixed
  // plain-build deadline is not enough wall clock for the recovery leg.
  wait_for_status(port, GEMFI_SANITIZED ? 480.0 : 180.0, [&](const auto& all) {
    const auto* s1 = find_status(all, id1);
    const auto* s2 = find_status(all, id2);
    return s1 && s2 && s1->state == service::CampaignState::Done &&
           s2->state == service::CampaignState::Done;
  });

  const auto [lines1, end1] = stream_all(port, id1);
  const auto [lines2, end2] = stream_all(port, id2);
  EXPECT_EQ(end1, service::CampaignState::Done);
  EXPECT_EQ(end2, service::CampaignState::Done);
  // The exactly-once guarantee across the crash: every id exactly once.
  expect_exactly_once(lines1, n);
  expect_exactly_once(lines2, n);
  // And the crash was invisible in the data: records match an undisturbed
  // in-process run bit-for-bit after stripping host telemetry.
  EXPECT_EQ(normalized_sorted_lines(lines1), ref1);
  EXPECT_EQ(normalized_sorted_lines(lines2), ref2);

  // Graceful stop: SIGINT drains the service, workers get Shutdown.
  ::kill(svc2, SIGINT);
  int status = 0;
  ASSERT_EQ(::waitpid(svc2, &status, 0), svc2);
  guard2.disarm();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(pool.wait_all(), 0);
  fs::remove_all(dir);
}

// A tenant opts into sequential early-stopping (spec.stop_eps > 0): the
// campaign reaches Done having run fewer experiments than planned, the
// result stream carries exactly one deterministic stopped_early summary
// line, and the service report counts the stop.
TEST(Service, StopCiCampaignStopsEarlyWithOneSummaryRecord) {
  const fs::path dir = fresh_dir("stopci");
  service::ServiceConfig scfg;
  scfg.journal_dir = dir.string();
  service::CampaignService svc(scfg);
  const std::uint16_t port = svc.port();
  auto pool = campaign::LocalWorkerPool::spawn(2, port, /*slots=*/1,
                                               /*max_reconnects=*/1u << 20);
  FleetGuard fleet{pool};
  service::ServiceReport report;
  std::thread server([&] { report = svc.run(); });

  // Sanitized builds: smaller plan (the rule still fires well before n —
  // the finite-population correction tightens as the prefix covers it).
  const std::uint64_t n = GEMFI_SANITIZED ? 240 : 400;
  service::CampaignSpec spec = pi_spec("alice", n, 1234);
  spec.stop_eps = 0.05;
  spec.stop_conf = 0.95;
  std::uint64_t id = 0;
  {
    service::Client client = service::Client::connect("127.0.0.1", port);
    id = client.submit(spec);
  }
  ASSERT_NE(id, 0u);

  wait_for_status(port, 120.0, [&](const auto& all) {
    const auto* s = find_status(all, id);
    return s && s->state == service::CampaignState::Done;
  });

  const auto [lines, end] = stream_all(port, id);
  EXPECT_EQ(end, service::CampaignState::Done);

  // Split the stream into experiment records and summary records.
  std::vector<std::string> results;
  std::vector<std::string> summaries;
  std::uint64_t stop_index = 0;
  for (const auto& line : lines) {
    const auto v = campaign::jsonl::parse(line);
    if (v.has("type") && v.at("type").text == "stopped_early") {
      summaries.push_back(line);
      EXPECT_TRUE(v.at("stopped_early").boolean);
      stop_index = v.at("stop_index").as_u64();
    } else {
      results.push_back(line);
    }
  }
  ASSERT_EQ(summaries.size(), 1u) << "exactly one stopped_early summary";
  EXPECT_GT(stop_index, 0u);
  EXPECT_LT(stop_index, n);
  // The stop saved real work: fewer experiments ran than were planned, and
  // every result that did run covers the certified prefix exactly once.
  EXPECT_LT(results.size(), n);
  EXPECT_GE(results.size(), stop_index);
  std::vector<unsigned> seen(n, 0);
  for (const auto& line : results)
    ++seen.at(std::size_t(campaign::jsonl::parse(line).at("index").as_u64()));
  for (std::uint64_t i = 0; i < stop_index; ++i)
    EXPECT_EQ(seen[std::size_t(i)], 1u) << "prefix index " << i;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](unsigned k) { return k <= 1; }));

  svc.request_stop();
  server.join();
  EXPECT_EQ(pool.wait_all(), 0);
  EXPECT_EQ(report.campaigns_done, 1u);
  EXPECT_EQ(report.campaigns_stopped_early, 1u);
  EXPECT_EQ(report.duplicate_results, 0u);
  fs::remove_all(dir);
}

// A client that subscribes to a live campaign's result stream and then goes
// away stops being a subscriber: the status display counts it while it is
// connected and not after, so repeated watchers leave no stale ids behind.
TEST(Service, DisconnectedStreamClientIsUnsubscribed) {
  const fs::path dir = fresh_dir("unsub");
  std::FILE* status = std::tmpfile();
  ASSERT_NE(status, nullptr);
  service::ServiceConfig scfg;
  scfg.journal_dir = dir.string();
  scfg.status_interval_s = 0.05;
  scfg.status_out = status;
  service::CampaignService svc(scfg);
  const std::uint16_t port = svc.port();
  std::thread server([&] { svc.run(); });

  // No workers: the campaign calibrates, then waits in Running for a fleet.
  std::uint64_t id = 0;
  {
    service::Client c = service::Client::connect("127.0.0.1", port);
    id = c.submit(pi_spec("alice", 100, 1234));
  }
  wait_for_status(port, 60.0, [&](const auto& all) {
    const auto* s = find_status(all, id);
    return s && s->state == service::CampaignState::Running;
  });
  for (int i = 0; i < 3; ++i) {
    service::Client c = service::Client::connect("127.0.0.1", port);
    EXPECT_THROW(c.stream(id, [](const std::string&) {}, /*timeout_s=*/0.3),
                 net::SocketError);
  }  // each watcher's connection closes here
  std::this_thread::sleep_for(
      std::chrono::duration<double>(testenv::scaled_s(0.5)));  // several status ticks
  svc.request_stop();
  server.join();

  // The status display, read back once the service thread is gone.
  std::rewind(status);
  std::string text;
  char buf[4096];
  for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, status)) > 0;)
    text.append(buf, got);
  std::fclose(status);
  const std::string tag = "c" + std::to_string(id) + " tenant=";
  std::vector<unsigned long> counts;
  for (std::size_t at = text.find(tag); at != std::string::npos;
       at = text.find(tag, at + 1)) {
    const std::size_t field = text.find("subscribers=", at);
    ASSERT_NE(field, std::string::npos);
    counts.push_back(std::stoul(text.substr(field + 12)));
  }
  ASSERT_FALSE(counts.empty());
  EXPECT_GE(*std::max_element(counts.begin(), counts.end()), 1u);
  EXPECT_EQ(counts.back(), 0u);
  fs::remove_all(dir);
}
