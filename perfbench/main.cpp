// Campaign-throughput benchmark program.
//
// One run executes one workload as a series of rounds until a host-time
// budget is spent and at least kMinSamples experiments have completed. A
// round is a whole closed-loop campaign: build the app, calibrate (golden
// run, checkpoint), then N seeded experiments handed to two executors
// (worker threads, or forked workers x 1 slot) as they free up. Round r's
// campaign seed is the r-th draw of a generator seeded with --seed, so a run
// samples many distinct experiments and the same seed always gives the same
// sequence of campaigns.
//
//   --trace 0  rounds run untraced; prints the end-to-end metrics.
//   --trace 1  each untraced round is followed by a traced round of the same
//              campaign, driven through this file's own loop of public calls
//              (restore, arm, Simulation::run, classify) with one span per
//              call; prints the per-layer metrics.
//
// The last stdout line is the result object (see harness.hpp); the lines
// before it are a human-readable report. Any correctness-gate failure exits 1
// without a result line.
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.hpp"
#include "campaign/classify.hpp"
#include "campaign/dispatch.hpp"
#include "campaign/jsonl.hpp"
#include "campaign/observer.hpp"
#include "campaign/runner.hpp"
#include "campaign/service/client.hpp"
#include "campaign/service/service.hpp"
#include "campaign/wire.hpp"
#include "chkpt/checkpoint.hpp"
#include "harness.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace {

using namespace gemfi;
namespace fs = std::filesystem;
namespace jsonl = campaign::jsonl;
namespace service = campaign::service;
namespace wire = campaign::wire;
using perfbench::Metric;
using perfbench::now_s;

enum class Path { Local, Now, Service };

struct Workload {
  const char* name;
  const char* app;
  sim::CpuKind cpu;
  Path path;
  std::size_t experiments;  // campaign size of one round
};

// Two executors everywhere: worker threads on the local paths, forked worker
// processes with one slot each on the distributed ones.
constexpr unsigned kExecutors = 2;
// A run pools at least this many experiment samples (per mode), so the tail
// percentile is always p99 and never changes with host speed.
constexpr std::size_t kMinSamples = 1000;
// Indices of the first round re-run in isolation and byte-compared.
constexpr std::size_t kReplaySample = 8;

// Rounds are short (about half a second to a second and a half of
// experiments) so a run takes many set-up samples and many distinct
// experiments.
constexpr Workload kWorkloads[] = {
    {"atomic-dct-local", "dct", sim::CpuKind::AtomicSimple, Path::Local, 250},
    {"pipelined-dct-local", "dct", sim::CpuKind::Pipelined, Path::Local, 100},
    {"atomic-dct-now", "dct", sim::CpuKind::AtomicSimple, Path::Now, 250},
    {"atomic-dct-service", "dct", sim::CpuKind::AtomicSimple, Path::Service, 250},
};

struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string spans_out;
};

campaign::CampaignConfig campaign_config(const Workload& w, std::uint64_t seed) {
  campaign::CampaignConfig cfg;
  cfg.cpu = w.cpu;
  cfg.workers = kExecutors;
  cfg.campaign_seed = seed;
  return cfg;
}

service::CampaignSpec campaign_spec(const Workload& w, std::uint64_t seed) {
  service::CampaignSpec spec;
  spec.tenant = "perfbench";
  spec.app_name = w.app;
  spec.experiments = w.experiments;
  spec.campaign_seed = seed;
  spec.cpu = std::uint8_t(w.cpu);
  return spec;
}

// --- untraced rounds -------------------------------------------------------

/// What one untraced round produced: every result as it arrived, plus the
/// layer counters its path reports.
struct Round {
  double t0 = 0.0;                        // round start, before the app build
  std::vector<double> arrival_at;         // host seconds each result arrived
  std::vector<std::string> arrival_line;  // its JSONL record (host fields kept)
  std::uint64_t welcome_bytes = 0;
  std::uint64_t requeued = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t workers_lost = 0;
  std::uint64_t journaled = 0;
  std::uint64_t journal_bytes = 0;
};

/// Records each result's arrival time; renders the records after the round
/// so the campaign's hot path only pays for a copy under a lock.
class Collector final : public campaign::CampaignObserver {
 public:
  void on_experiment(const campaign::ExperimentRecord& rec) override {
    const double at = now_s();
    std::lock_guard lock(mutex_);
    arrivals_.push_back(at);
    records_.push_back(rec);
  }

  void move_into(Round& r) {
    std::lock_guard lock(mutex_);
    r.arrival_at = std::move(arrivals_);
    for (const campaign::ExperimentRecord& rec : records_)
      r.arrival_line.push_back(campaign::experiment_record_to_json(rec));
  }

 private:
  std::mutex mutex_;
  std::vector<double> arrivals_;
  std::vector<campaign::ExperimentRecord> records_;
};

Round local_or_now_round(const Workload& w, std::uint64_t seed) {
  Round r;
  r.t0 = now_s();
  Collector obs;
  campaign::CampaignConfig cfg = campaign_config(w, seed);
  cfg.observer = &obs;
  const campaign::CalibratedApp ca = campaign::calibrate(apps::build_app(w.app), cfg);
  const auto faults = campaign::seeded_fault_set(seed, w.experiments, ca.kernel_fetches);
  if (w.path == Path::Local) {
    campaign::run_campaign(ca, faults, cfg);
  } else {
    const campaign::DispatchReport dr = campaign::run_campaign_service_local(
        ca, apps::AppScale{}, faults, cfg, kExecutors, /*slots=*/1);
    if (dr.workers_joined != 0)
      r.welcome_bytes = dr.checkpoint_bytes_shipped / dr.workers_joined;
    r.requeued = dr.requeued;
    r.duplicates = dr.duplicate_results;
    r.frames_rejected = dr.frames_rejected;
    r.workers_lost = dr.workers_lost;
  }
  obs.move_into(r);
  return r;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

Round service_round(const Workload& w, std::uint64_t seed, const fs::path& journal_dir) {
  fs::remove_all(journal_dir);
  Round r;
  r.t0 = now_s();
  service::ServiceConfig scfg;
  scfg.journal_dir = journal_dir.string();
  service::CampaignService svc(scfg);
  // Fork the fleet before this process starts the service thread. The
  // service leases a worker by closing its connection, so the reconnect
  // budget is unbounded.
  campaign::LocalWorkerPool pool =
      campaign::LocalWorkerPool::spawn(kExecutors, svc.port(), /*slots=*/1, 1u << 20);
  struct FleetGuard {
    campaign::LocalWorkerPool& pool;
    bool armed = true;
    ~FleetGuard() {
      if (!armed) return;
      for (std::size_t i = 0; i < pool.pids().size(); ++i) pool.kill_worker(i, SIGKILL);
      pool.wait_all();
    }
  } fleet{pool};
  service::ServiceReport report;
  std::thread server([&] { report = svc.run(); });
  struct ServerGuard {
    service::CampaignService& svc;
    std::thread& server;
    ~ServerGuard() {
      svc.request_stop();
      server.join();
    }
  };
  {
    ServerGuard stop{svc, server};
    service::Client client = service::Client::connect("127.0.0.1", svc.port());
    const std::uint64_t id = client.submit(campaign_spec(w, seed));
    const service::CampaignState end = client.stream(id, [&](const std::string& line) {
      r.arrival_at.push_back(now_s());
      r.arrival_line.push_back(line);
    });
    if (end != service::CampaignState::Done)
      throw GateFailure(std::string("service campaign ended ") +
                        service::campaign_state_name(end));
  }
  fleet.armed = false;
  if (pool.wait_all() != 0) throw GateFailure("a service worker exited abnormally");
  r.requeued = report.requeued;
  r.duplicates = report.duplicate_results;
  r.frames_rejected = report.frames_rejected;
  r.workers_lost = report.workers_lost;
  r.journaled = report.results_journaled;
  r.journal_bytes = dir_bytes(journal_dir);
  fs::remove_all(journal_dir);
  return r;
}

/// Figures derived from one round's arrivals, and its records in canonical
/// form (by index; "" where no result arrived).
struct RoundStats {
  double setup_s = 0.0;         // round start -> first experiment's start
  double first_result_s = 0.0;  // round start -> first result
  double window_s = 0.0;        // first experiment's start -> last result
  double wall_s = 0.0;          // sum of experiment wall times
  std::size_t completed = 0;
  std::vector<double> exp_ms;   // experiment wall times
  std::vector<double> gap_ms;   // gaps between consecutive result arrivals
  std::uint64_t failed = 0;     // missing results, simulator errors, deadline exits
  std::uint64_t retries = 0;
  std::vector<std::string> canonical;
};

std::uint64_t records_hash(const std::vector<std::string>& canonical) {
  std::uint64_t h = perfbench::fnv1a("");
  for (const std::string& line : canonical) h = perfbench::fnv1a(line + '\n', h);
  return h;
}

RoundStats summarize(const Round& r, std::size_t experiments) {
  RoundStats s;
  s.canonical.resize(experiments);
  double first_start = 1e300, last = 0.0;
  for (std::size_t k = 0; k < r.arrival_line.size(); ++k) {
    jsonl::Value v = jsonl::parse(r.arrival_line[k]);
    const std::size_t index = std::size_t(v.at("index").as_u64());
    if (index >= experiments || !s.canonical[index].empty())
      throw GateFailure("result for index " + std::to_string(index) +
                        " out of range or repeated");
    const double wall = v.at("wall_seconds").as_double();
    first_start = std::min(first_start, r.arrival_at[k] - wall);
    last = std::max(last, r.arrival_at[k]);
    s.wall_s += wall;
    s.exp_ms.push_back(wall * 1e3);
    s.retries += v.at("retries").as_u64();
    const char* deadline = sim::exit_reason_name(sim::ExitReason::Deadline);
    if (v.has("error") || v.at("exit").as_string() == deadline) ++s.failed;
    s.canonical[index] = perfbench::canonical_record(std::move(v));
  }
  s.completed = r.arrival_line.size();
  s.failed += experiments - s.completed;
  if (s.completed == 0) throw GateFailure("round completed no experiment");
  s.window_s = last - first_start;
  s.setup_s = first_start - r.t0;
  s.first_result_s = *std::min_element(r.arrival_at.begin(), r.arrival_at.end()) - r.t0;
  std::vector<double> at = r.arrival_at;
  std::sort(at.begin(), at.end());
  for (std::size_t k = 1; k < at.size(); ++k)
    s.gap_ms.push_back((at[k] - at[k - 1]) * 1e3);
  return s;
}

std::string canonical(const campaign::ExperimentRecord& rec) {
  const std::string line = campaign::experiment_record_to_json(rec);
  return perfbench::canonical_record(jsonl::parse(line));
}

/// Throws unless `got` equals the reference records index by index.
void expect_same_records(const std::vector<std::string>& want,
                         const std::vector<std::string>& got, const char* what) {
  for (std::size_t i = 0; i < want.size(); ++i)
    if (i >= got.size() || got[i] != want[i])
      throw GateFailure(std::string(what) + ": record " + std::to_string(i) +
                        " differs\n  want " + want[i] + "\n  got  " +
                        (i < got.size() ? got[i] : std::string("<none>")));
}

/// Re-run a fixed sample of a round's indices in isolation with
/// run_experiment_with_retry and byte-compare the canonical records.
void replay_sample(const Workload& w, std::uint64_t seed,
                   const campaign::CalibratedApp& ca,
                   const std::vector<std::string>& want) {
  const campaign::CampaignConfig cfg = campaign_config(w, seed);
  for (std::size_t k = 0; k < kReplaySample; ++k) {
    const std::size_t i = k * w.experiments / kReplaySample;
    const fi::Fault fault = campaign::seeded_fault_any(seed, i, ca.kernel_fetches);
    const auto plans = campaign::plans_for_experiment(cfg, i);
    const std::string got =
        canonical({i, 0, campaign::experiment_seed(seed, i),
                   campaign::run_experiment_with_retry(ca, fault, cfg, &plans)});
    if (got != want[i])
      throw GateFailure("isolated replay of index " + std::to_string(i) +
                        " differs\n  want " + want[i] + "\n  got  " + got);
  }
}

// --- traced rounds ---------------------------------------------------------

/// The simulator configuration the campaign runner gives each experiment.
sim::SimConfig experiment_sim_config(const campaign::CampaignConfig& cfg) {
  sim::SimConfig s;
  s.cpu = cfg.cpu;
  s.fi_enabled = true;
  s.switch_to_atomic_after_fault = cfg.switch_to_atomic_after_fault;
  s.predecode = cfg.predecode;
  s.fastpath = cfg.fastpath;
  s.fastmode = cfg.fastmode;
  return s;
}

/// Deterministic work counters of a traced round.
struct WorkCounts {
  std::uint64_t committed = 0;      // instructions committed after the restore
  std::uint64_t restore_pages = 0;  // pages copied back by dirty-page restores
  std::uint64_t atomic_tail = 0;    // runs that ended on the atomic model
  std::uint64_t watchdog = 0;       // runs cut off by the tick watchdog
  std::uint64_t applied = 0;        // runs whose fault was applied
  std::uint64_t ticks = 0;          // simulated ticks after the checkpoint
  std::array<std::uint64_t, apps::kNumOutcomes> outcomes{};
};

struct TracedRound {
  std::vector<perfbench::Span> spans;
  std::vector<std::string> canonical;  // by index
  WorkCounts counts;
  double window_s = 0.0;  // first experiment span start -> last end
};

/// One executor of a traced round. It takes the next index as it frees up,
/// as the campaign runner's workers do, and mirrors their persistent-worker
/// path step by step; the fidelity gate checks that it does.
void traced_executor(unsigned t, std::atomic<std::size_t>& next,
                     const campaign::CalibratedApp& ca, const chkpt::CheckpointImage& image,
                     const campaign::CampaignConfig& cfg,
                     const std::vector<fi::Fault>& faults, perfbench::SpanRecorder& rec,
                     std::vector<campaign::ExperimentRecord>& out, WorkCounts& counts) {
  const sim::SimConfig scfg = experiment_sim_config(cfg);
  const std::uint64_t watchdog = cfg.watchdog_mult * ca.golden_ticks + 1'000'000;
  std::unique_ptr<sim::Simulation> s;
  for (;;) {
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= faults.size()) break;
    const auto id = std::int64_t(i);
    const std::int64_t exp = rec.begin("experiment", -1, id);
    campaign::ExperimentResult er;
    er.fault = faults[i];
    er.fastmode = cfg.fastmode;
    er.time_fraction = double(faults[i].time) / double(ca.kernel_fetches);

    std::int64_t span = rec.begin("restore", exp, id);
    std::uint64_t pages = 0;
    if (!s) {
      s = std::make_unique<sim::Simulation>(scfg, ca.app.program);
      s->spawn_main_thread();
      pages = image.restore_into(*s);
    } else {
      pages = image.restore_dirty_into(*s);
      counts.restore_pages += pages;
    }
    rec.end(span);

    span = rec.begin("arm", exp, id);
    s->fault_manager().load_faults({faults[i]});
    s->syscall_injector().clear();
    for (const fi::SyscallFaultPlan& p : campaign::plans_for_experiment(cfg, i))
      s->syscall_injector().add_plan(p);
    rec.end(span);

    const std::uint64_t committed_before = s->total_committed();
    span = rec.begin("sim", exp, id);
    const sim::RunResult rr = s->run(watchdog, cfg.deadline_seconds);
    rec.end(span);

    span = rec.begin("classify", exp, id);
    er.classification = campaign::classify(ca.app, rr, s->fault_manager(), s->output(0));
    rec.end(span);

    er.exit_reason = rr.reason;
    er.trap = rr.trap.kind;
    er.fault_applied = s->fault_manager().any_applied();
    const std::uint64_t start = ca.ticks_to_checkpoint;
    er.sim_ticks = rr.ticks >= start ? rr.ticks - start : 0;
    er.ckpt_version = std::uint8_t(image.stats().format);
    er.restore_pages = pages;
    er.restore_bytes = pages * mem::PhysMem::kPageBytes;
    rec.end(exp);
    er.wall_seconds = rec.spans()[std::size_t(exp)].duration();

    counts.committed += rr.committed - committed_before;
    counts.atomic_tail += s->active_cpu_kind() == sim::CpuKind::AtomicSimple;
    counts.watchdog += rr.reason == sim::ExitReason::Watchdog;
    counts.applied += er.fault_applied;
    counts.ticks += er.sim_ticks;
    ++counts.outcomes[std::size_t(er.classification.outcome)];
    out[i] = {i, t, campaign::experiment_seed(cfg.campaign_seed, i), std::move(er)};
  }
  // Copy back what the last experiment dirtied too (outside any span): then
  // every experiment's dirty pages are counted exactly once, whichever
  // executor ran it, and the total is deterministic.
  if (s) counts.restore_pages += image.restore_dirty_into(*s);
}

TracedRound traced_round(const Workload& w, std::uint64_t seed) {
  perfbench::SpanRecorder main;
  const std::int64_t round = main.begin("round", -1);
  std::int64_t span = main.begin("build_app", round);
  apps::App app = apps::build_app(w.app);
  main.end(span);
  const campaign::CampaignConfig cfg = campaign_config(w, seed);
  span = main.begin("calibrate", round);
  const campaign::CalibratedApp ca = campaign::calibrate(std::move(app), cfg);
  main.end(span);
  span = main.begin("parse", round);
  const chkpt::CheckpointImage image = chkpt::CheckpointImage::parse(ca.checkpoint);
  main.end(span);
  const auto faults = campaign::seeded_fault_set(seed, w.experiments, ca.kernel_fetches);

  const std::int64_t run = main.begin("campaign", round);
  std::vector<perfbench::SpanRecorder> recs(kExecutors);
  std::vector<WorkCounts> counts(kExecutors);
  std::vector<campaign::ExperimentRecord> records(faults.size());
  std::vector<std::exception_ptr> errors(kExecutors);
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < kExecutors; ++t)
      pool.emplace_back([&, t] {
        try {
          traced_executor(t, next, ca, image, cfg, faults, recs[t], records, counts[t]);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
  }
  main.end(run);
  main.end(round);
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  TracedRound tr;
  tr.spans = main.spans();
  double first = 1e300, last = 0.0;
  for (const perfbench::SpanRecorder& rec : recs) {
    const std::int64_t offset = std::int64_t(tr.spans.size());
    for (perfbench::Span sp : rec.spans()) {
      sp.parent = sp.parent < 0 ? run : sp.parent + offset;
      if (std::strcmp(sp.name, "experiment") == 0) {
        first = std::min(first, sp.start);
        last = std::max(last, sp.end);
      }
      tr.spans.push_back(sp);
    }
  }
  tr.window_s = last - first;
  for (const WorkCounts& c : counts) {
    tr.counts.committed += c.committed;
    tr.counts.restore_pages += c.restore_pages;
    tr.counts.atomic_tail += c.atomic_tail;
    tr.counts.watchdog += c.watchdog;
    tr.counts.applied += c.applied;
    tr.counts.ticks += c.ticks;
    for (unsigned o = 0; o < apps::kNumOutcomes; ++o)
      tr.counts.outcomes[o] += c.outcomes[o];
  }
  for (const campaign::ExperimentRecord& rec : records)
    tr.canonical.push_back(canonical(rec));
  return tr;
}

// --- metrics ---------------------------------------------------------------

double peak_rss_mb() {
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);  // largest reaped worker
  return double(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

/// Untraced figures over every round of a run. Timings are medians of
/// per-round (or per-block) values, so a burst of host contention that
/// covers a minority of the rounds does not move them.
struct RunFigures {
  std::vector<double> rate, p50_ms, setup_s, first_result_s;  // per round
  std::vector<double> p99_ms;  // per block of >= kMinSamples consecutive samples
  std::vector<double> gap_ms;
  double window_s = 0.0, wall_s = 0.0;
  std::size_t completed = 0;
  std::uint64_t retries = 0;

  explicit RunFigures(const std::vector<RoundStats>& rounds) {
    std::vector<double> block;
    for (const RoundStats& s : rounds) {
      rate.push_back(double(s.completed) / s.window_s);
      p50_ms.push_back(perfbench::median(s.exp_ms));
      block.insert(block.end(), s.exp_ms.begin(), s.exp_ms.end());
      if (block.size() >= kMinSamples) {
        p99_ms.push_back(perfbench::tail_percentile(std::move(block)).value);
        block.clear();
      }
      gap_ms.insert(gap_ms.end(), s.gap_ms.begin(), s.gap_ms.end());
      setup_s.push_back(s.setup_s);
      first_result_s.push_back(s.first_result_s);
      window_s += s.window_s;
      wall_s += s.wall_s;
      completed += s.completed;
      retries += s.retries;
    }
  }
  [[nodiscard]] double exps_per_s() const { return perfbench::median(rate); }
};

/// Per-layer figures pooled over the traced rounds of a run.
struct SpanTotals {
  std::vector<double> restore_ms, arm_ms, sim_ms, classify_ms, parse_s, calibrate_s;
  double experiment_s = 0.0, experiment_self_s = 0.0;
  double restore_s = 0.0, sim_s = 0.0, classify_s = 0.0;
  std::vector<double> rate;  // per round
  std::uint64_t committed = 0;

  explicit SpanTotals(const std::vector<TracedRound>& rounds) {
    for (const TracedRound& tr : rounds) {
      rate.push_back(double(tr.canonical.size()) / tr.window_s);
      committed += tr.counts.committed;
      const std::vector<double> self = perfbench::self_times(tr.spans);
      for (std::size_t i = 0; i < tr.spans.size(); ++i) {
        const std::string_view name = tr.spans[i].name;
        const double d = tr.spans[i].duration();
        if (name == "experiment") {
          experiment_s += d;
          experiment_self_s += self[i];
        } else if (name == "restore") {
          restore_ms.push_back(d * 1e3);
          restore_s += self[i];
        } else if (name == "arm") {
          arm_ms.push_back(d * 1e3);
        } else if (name == "sim") {
          sim_ms.push_back(d * 1e3);
          sim_s += self[i];
        } else if (name == "classify") {
          classify_ms.push_back(d * 1e3);
          classify_s += self[i];
        } else if (name == "parse") {
          parse_s.push_back(d);
        } else if (name == "calibrate") {
          calibrate_s.push_back(d);
        }
      }
    }
  }
};

void write_spans(const std::string& path, const std::vector<TracedRound>& rounds) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const std::vector<double> self = perfbench::self_times(rounds[r].spans);
    for (std::size_t i = 0; i < rounds[r].spans.size(); ++i) {
      const perfbench::Span& sp = rounds[r].spans[i];
      jsonl::ObjectWriter w;
      w.field("round", std::uint64_t(r))
          .field("id", std::uint64_t(i))
          .field("name", sp.name)
          .field("start", sp.start)
          .field("end", sp.end)
          .field("self", self[i]);
      if (sp.parent >= 0) w.field("parent", std::uint64_t(sp.parent));
      if (sp.exp >= 0) w.field("exp", std::uint64_t(sp.exp));
      out << w.str() << '\n';
    }
  }
  if (!out.flush()) throw std::runtime_error("cannot write spans to " + path);
}

std::vector<Metric> end_to_end_metrics(const RunFigures& p, std::uint64_t attempted,
                                       std::uint64_t failed,
                                       std::vector<std::string>& notes) {
  char note[200];
  std::snprintf(note, sizeof note,
                "exps_per_s, exp_p50_ms, setup_s: medians of %zu rounds; exp_p99_ms: "
                "median of %zu blocks' p99, each over >= %zu experiments (>= 10 beyond)",
                p.rate.size(), p.p99_ms.size(), kMinSamples);
  notes.push_back(note);
  std::snprintf(note, sizeof note, "failed_frac = %g (%llu of %llu)",
                double(failed) / double(attempted), (unsigned long long)failed,
                (unsigned long long)attempted);
  notes.push_back(note);
  return {
      {"exps_per_s", p.exps_per_s(), "1/s"},
      {"exp_p50_ms", perfbench::median(p.p50_ms), "ms"},
      {"exp_p99_ms", perfbench::median(p.p99_ms), "ms"},
      {"setup_s", perfbench::median(p.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"completed_frac", 1.0 - double(failed) / double(attempted), "ratio"},
  };
}

std::vector<Metric> per_layer_metrics(const RunFigures& p, const std::vector<Round>& raw,
                                      const std::vector<TracedRound>& traced,
                                      std::vector<std::string>& notes) {
  const auto sum_raw = [&](std::uint64_t Round::*field) {
    std::uint64_t total = 0;
    for (const Round& r : raw) total += r.*field;
    return double(total);
  };
  const SpanTotals t(traced);
  // Work counters come from the first traced round, a campaign fixed by the
  // seed alone, so they repeat exactly on every run of that seed.
  const WorkCounts& c = traced.front().counts;
  const double n = double(traced.front().canonical.size());
  const double traced_rate = perfbench::median(t.rate);
  const double slots_s = p.window_s * kExecutors;

  const perfbench::TailPercentile sim_tail = perfbench::tail_percentile(t.sim_ms);
  char note[160];
  std::snprintf(note, sizeof note,
                "sim.run_ms_p99 is p%g of %zu traced runs; work counters and outcome "
                "counts are over the first traced round (%g experiments)",
                sim_tail.permille / 10.0, sim_tail.samples, n);
  notes.push_back(note);

  std::vector<Metric> m = {
      {"calibrate.wall_s", perfbench::median(t.calibrate_s), "s"},
      {"runner.worker_busy_share", p.wall_s / slots_s, "ratio"},
      {"runner.retries", double(p.retries), "count"},
      {"chkpt.parse_s", perfbench::median(t.parse_s), "s"},
      {"chkpt.restore_ms_p50", perfbench::median(t.restore_ms), "ms"},
      {"chkpt.restore_share", t.restore_s / t.experiment_s, "ratio"},
      {"chkpt.restore_pages_per_exp", double(c.restore_pages) / n, "pages"},
      {"fi.arm_ms_p50", perfbench::median(t.arm_ms), "ms"},
      {"fi.applied_frac", double(c.applied) / n, "ratio"},
      {"sim.run_ms_p50", perfbench::median(t.sim_ms), "ms"},
      {"sim.run_ms_p99", sim_tail.value, "ms"},
      {"sim.share", t.sim_s / t.experiment_s, "ratio"},
      {"sim.mips", double(t.committed) / t.sim_s / 1e6, "MIPS"},
      {"sim.committed_per_exp", double(c.committed) / n, "insts"},
      {"sim.ticks_per_exp", double(c.ticks) / n, "ticks"},
      {"sim.atomic_tail_frac", double(c.atomic_tail) / n, "ratio"},
      {"sim.watchdog_frac", double(c.watchdog) / n, "ratio"},
      {"classify.ms_p50", perfbench::median(t.classify_ms), "ms"},
      {"classify.share", t.classify_s / t.experiment_s, "ratio"},
  };
  for (unsigned o = 0; o < apps::kNumOutcomes; ++o)
    m.push_back({std::string("outcome.") + apps::outcome_name(apps::Outcome(o)),
                 double(c.outcomes[o]), "count"});
  const std::vector<Metric> rest = {
      {"dispatch.overhead_ms_per_exp", (slots_s - p.wall_s) / double(p.completed) * 1e3,
       "ms"},
      {"dispatch.result_gap_ms_p50", perfbench::median(p.gap_ms), "ms"},
      {"dispatch.welcome_bytes", double(raw.front().welcome_bytes), "bytes"},
      {"dispatch.requeued", sum_raw(&Round::requeued), "count"},
      {"dispatch.duplicates", sum_raw(&Round::duplicates), "count"},
      {"dispatch.frames_rejected", sum_raw(&Round::frames_rejected), "count"},
      {"dispatch.workers_lost", sum_raw(&Round::workers_lost), "count"},
      {"service.results_journaled", sum_raw(&Round::journaled), "count"},
      {"service.journal_bytes", sum_raw(&Round::journal_bytes), "bytes"},
      {"service.first_result_s", perfbench::median(p.first_result_s), "s"},
      {"trace.remainder_share", t.experiment_self_s / t.experiment_s, "ratio"},
      {"trace.exps_per_s", traced_rate, "1/s"},
      {"trace.base_exps_per_s", p.exps_per_s(), "1/s"},
      {"trace.overhead_ratio", p.exps_per_s() / traced_rate, "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

// --- the run ---------------------------------------------------------------

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  fs::create_directories(opt.work_dir);
  const fs::path journal_dir =
      fs::path(opt.work_dir) / ("journal-" + std::to_string(::getpid()));

  util::Rng campaign_seeds(opt.seed);
  std::uint64_t first_seed = 0;  // campaign seed of round 0
  std::vector<Round> raw;
  std::vector<RoundStats> rounds;
  std::vector<TracedRound> traced;
  std::vector<std::string> first_records;  // canonical records of round 0
  std::uint64_t attempted = 0, failed = 0;
  std::size_t samples = 0, traced_samples = 0;

  const double start = now_s();
  while (now_s() - start < opt.seconds || samples < kMinSamples ||
         (opt.trace && traced_samples < kMinSamples)) {
    const std::uint64_t seed = campaign_seeds.next();
    Round r = w.path == Path::Service ? service_round(w, seed, journal_dir)
                                      : local_or_now_round(w, seed);
    RoundStats s = summarize(r, w.experiments);
    if (w.path == Path::Service && r.journaled != w.experiments)
      throw GateFailure("service journaled " + std::to_string(r.journaled) + " of " +
                        std::to_string(w.experiments) + " results");
    attempted += w.experiments;
    failed += s.failed;
    samples += s.completed;
    if (opt.trace) {
      TracedRound tr = traced_round(w, seed);
      expect_same_records(s.canonical, tr.canonical, "traced loop vs untraced campaign");
      attempted += w.experiments;
      traced_samples += tr.canonical.size();
      traced.push_back(std::move(tr));
    }
    if (rounds.empty()) {
      first_seed = seed;
      first_records = std::move(s.canonical);
    }
    s.canonical = {};
    r.arrival_line = {};
    raw.push_back(std::move(r));
    rounds.push_back(std::move(s));
  }

  // The first round again, experiment by experiment in isolation.
  const campaign::CalibratedApp ca =
      campaign::calibrate(apps::build_app(w.app), campaign_config(w, first_seed));
  replay_sample(w, first_seed, ca, first_records);
  if (w.path == Path::Service) {
    // ServiceReport carries no Welcome size; encode the one the service
    // sends each worker connection for this campaign.
    const service::CampaignSpec spec = campaign_spec(w, first_seed);
    const wire::Welcome welcome =
        wire::Welcome::from(ca, spec.to_scale(), spec.to_campaign_config());
    raw.front().welcome_bytes = wire::encode_welcome(welcome).size();
  }

  const RunFigures figures(rounds);
  std::vector<std::string> notes;
  const std::vector<Metric> metrics =
      opt.trace ? per_layer_metrics(figures, raw, traced, notes)
                : end_to_end_metrics(figures, attempted, failed, notes);
  if (opt.trace && !opt.spans_out.empty()) {
    write_spans(opt.spans_out, traced);
    notes.push_back("spans written to " + opt.spans_out);
  }

  std::printf("perfbench workload=%s seed=%llu trace=%d rounds=%zu "
              "experiments_per_round=%zu first_round_records_hash=%016llx\n",
              w.name, (unsigned long long)opt.seed, opt.trace ? 1 : 0, rounds.size(),
              w.experiments, (unsigned long long)records_hash(first_records));
  for (const Metric& m : metrics)
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& note : notes) std::printf("  # %s\n", note.c_str());
  std::printf("%s\n", perfbench::result_line(true, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: gemfi_perfbench --workload <name> [--seed <u64>] "
               "[--seconds <s>] [--trace 0|1] [--work-dir <dir>] [--spans-out <file>]\n"
               "workloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads)
          if (value == w.name) opt.workload = &w;
        if (!opt.workload) usage(("unknown workload " + value).c_str());
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else if (flag == "--spans-out") {
        opt.spans_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!opt.workload) usage("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return run(opt);
  } catch (const GateFailure& e) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n", e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 1;
}
