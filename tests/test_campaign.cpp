// Campaign machinery tests: calibration, random fault generation,
// experiment execution with checkpoint fast-forwarding, outcome
// classification invariants, parallel local campaigns, the NoW makespan model, and
// the telemetry/robustness layer (JSONL streaming, wall-clock deadlines,
// retry, per-experiment seeding, concurrent campaigns).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "assembler/assembler.hpp"
#include "campaign/jsonl.hpp"
#include "campaign/now_runner.hpp"
#include "campaign/observer.hpp"
#include "campaign/runner.hpp"
#include "util/stats.hpp"

namespace {

using namespace gemfi;
using campaign::CampaignConfig;

CampaignConfig quick_config() {
  CampaignConfig cfg;
  cfg.cpu = sim::CpuKind::Pipelined;
  cfg.switch_to_atomic_after_fault = true;
  cfg.use_checkpoint = true;
  cfg.workers = 4;
  return cfg;
}

TEST(Calibration, ProducesCheckpointAndCosts) {
  const auto ca = campaign::calibrate(apps::build_app("pi"), quick_config());
  EXPECT_FALSE(ca.checkpoint.empty());
  EXPECT_GT(ca.golden_ticks, 0u);
  EXPECT_GT(ca.kernel_fetches, 0u);
  EXPECT_GT(ca.ticks_to_checkpoint, 0u);
  EXPECT_LT(ca.ticks_to_checkpoint, ca.golden_ticks);
}

TEST(RandomFaults, RespectLocationAndRanges) {
  util::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const auto f = campaign::random_fault_any(rng, 1000);
    EXPECT_GE(f.time, 1u);
    EXPECT_LE(f.time, 1000u);
    EXPECT_EQ(f.occurrences, 1u);
    EXPECT_EQ(f.behavior, fi::FaultBehavior::Flip);
    if (f.location == fi::FaultLocation::IntReg ||
        f.location == fi::FaultLocation::FpReg) {
      EXPECT_LT(f.reg, 32u);
    }
    if (f.location == fi::FaultLocation::Fetch) {
      EXPECT_LT(f.operand, 32u);
    }
    if (f.location == fi::FaultLocation::Decode) {
      EXPECT_LT(f.operand, 5u);
    }
  }
}

TEST(Experiments, FaultFreeExperimentIsNonPropagated) {
  const auto ca = campaign::calibrate(apps::build_app("pi"), quick_config());
  // A fault far beyond the kernel never applies => NonPropagated.
  fi::Fault f;
  f.location = fi::FaultLocation::IntReg;
  f.reg = 9;
  f.time = ca.kernel_fetches * 1000;
  f.behavior = fi::FaultBehavior::Flip;
  f.operand = 5;
  const auto er = campaign::run_experiment(ca, f, quick_config());
  EXPECT_EQ(er.classification.outcome, apps::Outcome::NonPropagated);
  EXPECT_FALSE(er.fault_applied);
}

TEST(Experiments, CheckpointFastForwardSkipsInitTicks) {
  const auto ca = campaign::calibrate(apps::build_app("jacobi"), quick_config());
  fi::Fault f;
  f.location = fi::FaultLocation::FpReg;
  f.reg = 25;  // unused FP register: harmless
  f.time = 1;
  f.behavior = fi::FaultBehavior::Flip;
  f.operand = 0;

  CampaignConfig with = quick_config();
  CampaignConfig without = quick_config();
  without.use_checkpoint = false;
  const auto er_with = campaign::run_experiment(ca, f, with);
  const auto er_without = campaign::run_experiment(ca, f, without);
  EXPECT_EQ(er_with.classification.outcome, er_without.classification.outcome);
  // The checkpointed run simulates strictly fewer ticks (skips init).
  EXPECT_LT(er_with.sim_ticks, er_without.sim_ticks);
  EXPECT_NEAR(double(er_without.sim_ticks - er_with.sim_ticks),
              double(ca.ticks_to_checkpoint),
              0.05 * double(ca.ticks_to_checkpoint) + 1000.0);
}

TEST(Campaigns, SmallCampaignCoversOutcomeSpace) {
  const auto ca = campaign::calibrate(apps::build_app("pi"), quick_config());
  util::Rng rng(42);
  std::vector<fi::Fault> faults;
  for (int i = 0; i < 120; ++i)
    faults.push_back(campaign::random_fault_any(rng, ca.kernel_fetches));
  const auto report = campaign::run_campaign(ca, faults, quick_config());
  EXPECT_EQ(report.total(), faults.size());
  EXPECT_EQ(report.results.size(), faults.size());
  // A uniform SEU campaign over all locations must produce both benign and
  // malignant outcomes.
  EXPECT_GT(report.counts[std::size_t(apps::Outcome::Crashed)], 0u);
  EXPECT_GT(report.counts[std::size_t(apps::Outcome::NonPropagated)] +
                report.counts[std::size_t(apps::Outcome::StrictlyCorrect)],
            0u);
  double frac_sum = 0;
  for (unsigned o = 0; o < apps::kNumOutcomes; ++o)
    frac_sum += report.fraction(static_cast<apps::Outcome>(o));
  EXPECT_NEAR(frac_sum, 1.0, 1e-9);
}

TEST(Campaigns, DeterministicGivenSameFaults) {
  const auto ca = campaign::calibrate(apps::build_app("deblock"), quick_config());
  util::Rng rng(13);
  std::vector<fi::Fault> faults;
  for (int i = 0; i < 20; ++i)
    faults.push_back(campaign::random_fault_any(rng, ca.kernel_fetches));
  const auto r1 = campaign::run_campaign(ca, faults, quick_config());
  const auto r2 = campaign::run_campaign(ca, faults, quick_config());
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_EQ(r1.results[i].classification.outcome, r2.results[i].classification.outcome)
        << i;
}

TEST(Campaigns, SharedBaselineMatchesFullRestoreOutcomes) {
  // The dirty-page fast restore must be invisible in campaign results: same
  // faults, same outcomes, experiment by experiment, as the isolated full
  // restore of run_experiment_with_retry.
  const auto cfg = quick_config();
  const auto ca = campaign::calibrate(apps::build_app("jacobi"), cfg);
  const auto faults = campaign::seeded_fault_set(21, 24, ca.kernel_fetches);

  const auto shared = campaign::run_campaign(ca, faults, cfg);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto full = campaign::run_experiment_with_retry(ca, faults[i], cfg);
    EXPECT_EQ(shared.results[i].classification.outcome, full.classification.outcome) << i;
    EXPECT_EQ(shared.results[i].sim_ticks, full.sim_ticks) << i;
  }
}

TEST(Experiments, WorkerDirtyRestoreMatchesPerExperimentRestore) {
  const auto cfg = quick_config();
  const auto ca = campaign::calibrate(apps::build_app("jacobi"), cfg);
  const auto faults = campaign::seeded_fault_set(5, 6, ca.kernel_fetches);

  const auto image = chkpt::CheckpointImage::parse(ca.checkpoint);
  campaign::ExperimentWorker worker(ca, &image, cfg);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    // Odd indices run faults i and i + 1 at once. Those keep the detailed
    // model to the end, so the worker rebuilds its Simulation whenever the
    // switch-to-atomic rule flips between runs.
    const bool pair = i % 2 == 1 && i + 1 < faults.size();
    const std::span<const fi::Fault> run_faults(&faults[i], pair ? 2 : 1);
    const auto from_worker = worker.run(run_faults);
    const auto standalone = campaign::ExperimentWorker(ca, nullptr, cfg).run(run_faults);
    EXPECT_EQ(from_worker.classification.outcome, standalone.classification.outcome);
    EXPECT_EQ(from_worker.sim_ticks, standalone.sim_ticks);
    EXPECT_EQ(from_worker.exit_reason, standalone.exit_reason);
    EXPECT_EQ(from_worker.ckpt_version, std::uint8_t(chkpt::CheckpointFormat::V2));
    EXPECT_EQ(worker.simulation().config().switch_to_atomic_after_fault,
              run_faults.size() == 1);
  }
}

// Fig. 8's modeled NoW column: longest-first list scheduling of measured
// durations onto workstations x slots, plus the parallel checkpoint copy.
TEST(Campaigns, NowMakespanSchedulesLongestFirstPlusCopy) {
  const std::vector<double> d = {1, 3, 1, 2, 1, 2};  // 10 s of work
  EXPECT_DOUBLE_EQ(campaign::now_makespan(d, 2, 1, 0, 0.05), 5.0);
  EXPECT_DOUBLE_EQ(campaign::now_makespan(d, 1, 2, 0, 0.05), 5.0);
  EXPECT_DOUBLE_EQ(campaign::now_makespan(d, 1, 1, 0, 0.05), 10.0);
  EXPECT_DOUBLE_EQ(campaign::now_makespan(d, 27, 4, 0, 0.05), 3.0);  // the longest
  // The copy term: a 2 MiB image at 0.5 s/MiB.
  EXPECT_DOUBLE_EQ(campaign::now_makespan(d, 2, 1, 2u << 20, 0.5), 6.0);
  EXPECT_DOUBLE_EQ(campaign::now_makespan({}, 27, 4, 1u << 20, 0.05), 0.05);
}

// ---- telemetry / robustness layer ----

TEST(RandomFaults, NeverTargetTheZeroRegister) {
  // R31/F31 are architecturally zero: a flip there is a guaranteed no-op
  // that inflates the Masked fraction (paper Fig. 5 methodology excludes
  // it). Regression for the rng.below(32) draw.
  util::Rng rng(123);
  std::set<unsigned> seen;
  for (int i = 0; i < 4000; ++i) {
    const auto loc = (i % 2) ? fi::FaultLocation::IntReg : fi::FaultLocation::FpReg;
    const auto f = campaign::random_fault(rng, loc, 1000);
    ASSERT_NE(f.reg, 31u) << "fault targets the hardwired zero register";
    seen.insert(f.reg);
  }
  // All 31 writable registers remain reachable.
  EXPECT_EQ(seen.size(), 31u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(30));
}

TEST(Seeding, ExperimentSeedsRegenerateFaultsInIsolation) {
  const std::uint64_t campaign_seed = 0xfeedface;
  const auto set = campaign::seeded_fault_set(campaign_seed, 50, 1000);
  ASSERT_EQ(set.size(), 50u);
  // Any single experiment regenerates bit-for-bit from (seed, index) alone,
  // independent of draw order.
  for (const std::size_t i : {0u, 17u, 49u})
    EXPECT_EQ(campaign::seeded_fault_any(campaign_seed, i, 1000).to_line(),
              set[i].to_line());
  // Distinct indices and distinct campaign seeds give distinct streams.
  EXPECT_NE(campaign::experiment_seed(campaign_seed, 3),
            campaign::experiment_seed(campaign_seed, 4));
  EXPECT_NE(campaign::experiment_seed(campaign_seed, 3),
            campaign::experiment_seed(campaign_seed + 1, 3));
}

TEST(Jsonl, WriterAndParserRoundTrip) {
  campaign::jsonl::ObjectWriter w;
  w.field("s", "a\"b\\c\nd").field("n", std::uint64_t(18446744073709551615ull))
      .field("d", 0.25).field("b", true);
  const auto v = campaign::jsonl::parse(w.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\nd");
  EXPECT_EQ(v.at("n").as_u64(), 18446744073709551615ull);  // no double rounding
  EXPECT_DOUBLE_EQ(v.at("d").as_double(), 0.25);
  EXPECT_TRUE(v.at("b").as_bool());
  EXPECT_THROW(campaign::jsonl::parse("{\"k\":}"), std::invalid_argument);
  EXPECT_THROW(campaign::jsonl::parse("{} trailing"), std::invalid_argument);
}

TEST(Jsonl, NonFiniteDoublesBecomeNull) {
  // "%.17g" renders nan/inf verbatim, which is not JSON; the writer must
  // emit null instead so one weird metric cannot corrupt a record.
  campaign::jsonl::ObjectWriter w;
  w.field("nan", std::nan(""))
      .field("inf", std::numeric_limits<double>::infinity())
      .field("ninf", -std::numeric_limits<double>::infinity())
      .field("fine", 1.5);
  const std::string line = w.str();
  EXPECT_EQ(line, "{\"nan\":null,\"inf\":null,\"ninf\":null,\"fine\":1.5}");
  const auto v = campaign::jsonl::parse(line);  // must parse as valid JSON
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.at("fine").as_double(), 1.5);
}

// Outside bytes (a JSONL file, the daemon's journal) must not blow the
// parser's stack: nesting is bounded, and past the bound parse() throws.
TEST(Jsonl, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(campaign::jsonl::parse(nested(64)));
  EXPECT_THROW(campaign::jsonl::parse(nested(65)), std::invalid_argument);
  EXPECT_THROW(campaign::jsonl::parse(std::string(2'000'000, '[')), std::invalid_argument);
  std::string objects;
  for (int i = 0; i < 100; ++i) objects += "{\"k\":";
  EXPECT_THROW(campaign::jsonl::parse(objects + "0" + std::string(100, '}')),
               std::invalid_argument);
}

TEST(Jsonl, AsU64AcceptsOnlyPlainDecimalUint64) {
  const auto u64 = [](const std::string& token) {
    return campaign::jsonl::parse("{\"n\":" + token + "}").at("n").as_u64();
  };
  EXPECT_EQ(u64("0"), 0u);
  EXPECT_EQ(u64("18446744073709551615"), 18446744073709551615ull);
  // Negative, fractional, exponent and overflowing tokens.
  EXPECT_THROW(u64("-1"), std::invalid_argument);
  EXPECT_THROW(u64("-0"), std::invalid_argument);
  EXPECT_THROW(u64("1.5"), std::invalid_argument);
  EXPECT_THROW(u64("1e3"), std::invalid_argument);
  EXPECT_THROW(u64("18446744073709551616"), std::invalid_argument);
  EXPECT_THROW(u64("99999999999999999999999"), std::invalid_argument);
  // as_double still reads every JSON number.
  EXPECT_DOUBLE_EQ(campaign::jsonl::parse("{\"n\":1e3}").at("n").as_double(), 1000.0);
}

TEST(Observers, JsonlStreamsOneValidRecordPerExperiment) {
  const auto ca = campaign::calibrate(apps::build_app("pi"), quick_config());
  auto cfg = quick_config();
  cfg.campaign_seed = 2026;
  const std::size_t n = 24;
  const auto faults = campaign::seeded_fault_set(cfg.campaign_seed, n, ca.kernel_fetches);

  std::ostringstream out;
  campaign::JsonlSink sink(out);
  cfg.observer = &sink;
  const auto report = campaign::run_campaign(ca, faults, cfg);
  EXPECT_EQ(sink.lines_written(), n);

  // Every line parses as a standalone JSON object with the full schema.
  std::istringstream lines(out.str());
  std::string line;
  std::size_t parsed = 0;
  std::set<std::uint64_t> indices;
  while (std::getline(lines, line)) {
    const auto v = campaign::jsonl::parse(line);
    ASSERT_TRUE(v.is_object());
    for (const char* key : {"index", "worker", "seed", "fault", "location", "outcome",
                            "exit", "trap", "applied", "time_fraction", "sim_ticks",
                            "wall_seconds", "retries", "ckpt_format", "restore_pages",
                            "restore_bytes"})
      EXPECT_TRUE(v.has(key)) << "missing key " << key << " in: " << line;
    EXPECT_EQ(v.at("ckpt_format").as_string(), "v2");
    const std::uint64_t idx = v.at("index").as_u64();
    indices.insert(idx);
    ASSERT_LT(idx, n);
    EXPECT_EQ(v.at("seed").as_u64(), campaign::experiment_seed(cfg.campaign_seed, idx));
    // sim_ticks underflow canary: an underflowed uint64 would be ~1.8e19.
    EXPECT_LT(v.at("sim_ticks").as_u64(), std::uint64_t(1) << 62);
    // The record alone is enough to re-run the experiment deterministically,
    // both from its fault line and from (seed, index).
    const fi::Fault replayed = fi::parse_fault(v.at("fault").as_string());
    EXPECT_EQ(replayed.to_line(), faults[idx].to_line());
    EXPECT_EQ(campaign::seeded_fault_any(cfg.campaign_seed, idx, ca.kernel_fetches)
                  .to_line(),
              replayed.to_line());
    EXPECT_EQ(v.at("outcome").as_string(),
              apps::outcome_name(report.results[idx].classification.outcome));
    ++parsed;
  }
  EXPECT_EQ(parsed, n);
  EXPECT_EQ(indices.size(), n);  // exactly one record per experiment

  // Spot-replay one experiment from its record and compare the outcome.
  const auto er = campaign::run_experiment(ca, faults[7], quick_config());
  EXPECT_EQ(er.classification.outcome, report.results[7].classification.outcome);
}

TEST(Observers, ProgressPrinterCountsEveryExperiment) {
  const auto ca = campaign::calibrate(apps::build_app("pi"), quick_config());
  auto cfg = quick_config();
  const auto faults = campaign::seeded_fault_set(5, 10, ca.kernel_fetches);
  campaign::ProgressPrinter progress(stderr, /*min_interval_seconds=*/3600.0);
  campaign::TeeObserver tee;
  tee.add(&progress);
  cfg.observer = &tee;
  // Throttled to one line (the final one); mainly exercises the locking and
  // histogram paths under the 4-worker pool.
  const auto report = campaign::run_campaign(ca, faults, cfg);
  EXPECT_EQ(report.total(), faults.size());
}

TEST(Deadline, InfiniteLoopIsCutByTheWallClock) {
  using namespace gemfi::assembler;
  Assembler as;
  const Label entry = as.here("main");
  const Label loop = as.here("loop");
  as.addq_i(reg::t0, 1, reg::t0);
  as.br(loop);

  sim::SimConfig scfg;
  scfg.cpu = sim::CpuKind::Pipelined;
  sim::Simulation s(scfg, as.finalize(entry));
  s.spawn_main_thread();
  // No tick watchdog at all: only the wall-clock deadline can end this run.
  const auto rr = s.run(0, /*wall_deadline_seconds=*/0.05);
  EXPECT_EQ(rr.reason, sim::ExitReason::Deadline);
}

TEST(Deadline, HungExperimentsClassifyAsTimeoutWithoutStallingWorkers) {
  const auto ca = campaign::calibrate(apps::build_app("pi"), quick_config());
  auto cfg = quick_config();
  cfg.workers = 3;
  cfg.watchdog_mult = 1'000'000;     // tick watchdog far out of reach
  cfg.deadline_seconds = 1e-6;       // every experiment "hangs" past this
  cfg.max_retries = 1;               // one backed-off retry, then Timeout
  // Harmless faults (unused FP register, trigger at the end of the kernel):
  // the runs would terminate cleanly if the deadline didn't cut them first,
  // and they can never trap before the first wall-clock check.
  std::vector<fi::Fault> faults;
  for (int i = 0; i < 12; ++i) {
    fi::Fault f;
    f.location = fi::FaultLocation::FpReg;
    f.reg = 25;
    f.time = ca.kernel_fetches;
    f.behavior = fi::FaultBehavior::Flip;
    f.operand = 0;
    faults.push_back(f);
  }
  const auto report = campaign::run_campaign(ca, faults, cfg);
  // The campaign completes: no worker stalls on a cut-off experiment.
  EXPECT_EQ(report.total(), faults.size());
  EXPECT_EQ(report.counts[std::size_t(apps::Outcome::Timeout)], faults.size());
  for (const auto& er : report.results) {
    EXPECT_EQ(er.exit_reason, sim::ExitReason::Deadline);
    EXPECT_EQ(er.retries, 1u);  // deadline exits consume the retry budget
  }
}

TEST(Retry, SimulatorInternalErrorIsBoundedAndReported) {
  const auto good = campaign::calibrate(apps::build_app("pi"), quick_config());
  campaign::CalibratedApp bad = good;
  // Damage the checkpoint: every restore now throws DeserializeError — a
  // substrate failure, not an effect of the injected fault.
  auto bytes = good.checkpoint.bytes();
  bytes[bytes.size() / 2] ^= 0xff;
  bad.checkpoint = chkpt::Checkpoint::from_bytes(std::move(bytes));

  auto cfg = quick_config();
  cfg.max_retries = 2;
  const auto f = campaign::seeded_fault_any(1, 0, good.kernel_fetches);
  EXPECT_THROW(campaign::run_experiment(bad, f, cfg), std::exception);
  const auto er = campaign::run_experiment_with_retry(bad, f, cfg);
  EXPECT_EQ(er.retries, 2u);
  EXPECT_FALSE(er.sim_error.empty());
  EXPECT_EQ(er.classification.outcome, apps::Outcome::Crashed);

  // A campaign over the damaged app still completes and reports every
  // experiment instead of tearing down the worker pool.
  const auto faults = campaign::seeded_fault_set(2, 6, good.kernel_fetches);
  const auto report = campaign::run_campaign(bad, faults, cfg);
  EXPECT_EQ(report.total(), faults.size());
}

TEST(Concurrency, ParallelCampaignsMatchTheirGoldenRuns) {
  // Two multi-threaded run_campaign() instances in flight simultaneously,
  // distinct seeds: each must match its own single-threaded golden run
  // bit-for-bit. Guards against campaign state shared across instances and
  // checks the order-independent per-experiment seeding.
  const auto ca = campaign::calibrate(apps::build_app("pi"), quick_config());
  auto cfg = quick_config();
  cfg.workers = 1;

  const auto faults_a = campaign::seeded_fault_set(101, 16, ca.kernel_fetches);
  const auto faults_b = campaign::seeded_fault_set(202, 16, ca.kernel_fetches);
  const auto golden_a = campaign::run_campaign(ca, faults_a, cfg);
  const auto golden_b = campaign::run_campaign(ca, faults_b, cfg);

  auto parallel_cfg = cfg;
  parallel_cfg.workers = 3;
  campaign::CampaignReport par_a, par_b;
  std::thread ta([&] { par_a = campaign::run_campaign(ca, faults_a, parallel_cfg); });
  std::thread tb([&] { par_b = campaign::run_campaign(ca, faults_b, parallel_cfg); });
  ta.join();
  tb.join();

  const auto expect_bit_identical = [](const campaign::CampaignReport& golden,
                                       const campaign::CampaignReport& par) {
    ASSERT_EQ(par.results.size(), golden.results.size());
    for (std::size_t i = 0; i < golden.results.size(); ++i) {
      const auto& g = golden.results[i];
      const auto& d = par.results[i];
      EXPECT_EQ(d.classification.outcome, g.classification.outcome) << i;
      EXPECT_DOUBLE_EQ(d.classification.metric, g.classification.metric) << i;
      EXPECT_EQ(d.exit_reason, g.exit_reason) << i;
      EXPECT_EQ(d.fault_applied, g.fault_applied) << i;
      EXPECT_EQ(d.sim_ticks, g.sim_ticks) << i;
      EXPECT_EQ(d.fault.to_line(), g.fault.to_line()) << i;
    }
  };
  expect_bit_identical(golden_a, par_a);
  expect_bit_identical(golden_b, par_b);
}

TEST(SampleSize, LeveugleFormulaMatchesPaperScale) {
  // Infinite-population limit at 99%/1% is (t/2e)^2 ~ 16588.
  const std::size_t inf = util::required_sample_size(4'000'000'000ull, 0.01, 0.99);
  EXPECT_NEAR(double(inf), 16588.0, 120.0);
  // The paper reports 2501-2504 runs per campaign at 99%/1%; the formula
  // yields that sample size for a finite fault population of ~2.94k.
  const std::size_t n = util::required_sample_size(2944, 0.01, 0.99);
  EXPECT_GE(n, 2490u);
  EXPECT_LE(n, 2510u);
  // Monotonicity and clamping.
  EXPECT_LE(util::required_sample_size(1000, 0.01, 0.99), 1000u);
  EXPECT_LT(util::required_sample_size(10'000, 0.01, 0.99),
            util::required_sample_size(100'000, 0.01, 0.99));
  EXPECT_EQ(util::required_sample_size(0, 0.01, 0.99), 0u);
  // Relaxing the margin shrinks the sample (the quick-mode default).
  EXPECT_LT(util::required_sample_size(1'000'000, 0.05, 0.95),
            util::required_sample_size(1'000'000, 0.01, 0.99));
}

}  // namespace
