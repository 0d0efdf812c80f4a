// Unit tests for the campaign-service building blocks that need no sockets:
// the crash-recovery journal (including truncated-tail repair), CampaignSpec
// JSON round-trips, the v2 control-plane codecs, and the pure fair-share
// scheduler functions.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/jsonl.hpp"
#include "campaign/service/control.hpp"
#include "campaign/service/journal.hpp"
#include "campaign/service/scheduler.hpp"
#include "campaign/service/spec.hpp"
#include "util/bytesio.hpp"

using namespace gemfi;
namespace service = gemfi::campaign::service;
namespace fs = std::filesystem;

namespace {

/// A fresh per-test journal directory under the system temp root.
fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("gemfi_journal_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

service::CampaignSpec sample_spec() {
  service::CampaignSpec s;
  s.tenant = "alice";
  s.name = "sweep-7";
  s.app_name = "pi";
  s.paper_scale = true;
  s.app_scale_seed = 0xabcdef;
  s.experiments = 250;
  s.campaign_seed = 9001;
  s.weight = 3;
  s.max_workers = 5;
  s.cpu = std::uint8_t(sim::CpuKind::AtomicSimple);
  s.watchdog_mult = 12;
  s.deadline_seconds = 1.5;
  s.max_retries = 4;
  s.stop_eps = 0.02;
  s.stop_conf = 0.95;
  return s;
}

void append_raw(const fs::path& p, const std::string& bytes) {
  std::ofstream f(p, std::ios::app | std::ios::binary);
  f << bytes;
}

/// A SubmitCampaign payload as the client sends it: the spec's JSON line.
std::vector<std::uint8_t> submit_payload(const std::string& json) {
  return {json.begin(), json.end()};
}

}  // namespace

// --- CampaignSpec ---

TEST(Spec, JsonRoundTripPreservesEveryField) {
  const service::CampaignSpec s = sample_spec();
  const service::CampaignSpec r =
      service::CampaignSpec::from_json(campaign::jsonl::parse(s.to_json()));
  EXPECT_EQ(r.tenant, s.tenant);
  EXPECT_EQ(r.name, s.name);
  EXPECT_EQ(r.app_name, s.app_name);
  EXPECT_EQ(r.paper_scale, s.paper_scale);
  EXPECT_EQ(r.app_scale_seed, s.app_scale_seed);
  EXPECT_EQ(r.experiments, s.experiments);
  EXPECT_EQ(r.campaign_seed, s.campaign_seed);
  EXPECT_EQ(r.weight, s.weight);
  EXPECT_EQ(r.max_workers, s.max_workers);
  EXPECT_EQ(r.cpu, s.cpu);
  EXPECT_EQ(r.watchdog_mult, s.watchdog_mult);
  EXPECT_EQ(r.deadline_seconds, s.deadline_seconds);
  EXPECT_EQ(r.max_retries, s.max_retries);
  EXPECT_EQ(r.stop_eps, s.stop_eps);
  EXPECT_EQ(r.stop_conf, s.stop_conf);
}

TEST(Spec, MissingOptionalFieldsKeepDefaults) {
  // An old journal line carrying only the required fields must still load.
  const auto v = campaign::jsonl::parse(
      R"({"tenant":"default","app":"pi","experiments":10,"seed":42})");
  const service::CampaignSpec r = service::CampaignSpec::from_json(v);
  EXPECT_EQ(r.app_name, "pi");
  EXPECT_EQ(r.experiments, 10u);
  EXPECT_EQ(r.tenant, "default");
  EXPECT_EQ(r.weight, 1u);
  EXPECT_EQ(r.cpu, std::uint8_t(sim::CpuKind::Pipelined));
}

TEST(Spec, ValidateRejectsUnusableSpecs) {
  auto reject = [](auto mutate) {
    service::CampaignSpec s = sample_spec();
    mutate(s);
    EXPECT_THROW(s.validate(), std::invalid_argument);
  };
  reject([](auto& s) { s.app_name.clear(); });
  reject([](auto& s) { s.experiments = 0; });
  reject([](auto& s) { s.tenant.clear(); });
  reject([](auto& s) { s.weight = 0; });
  reject([](auto& s) { s.cpu = 99; });
  EXPECT_NO_THROW(sample_spec().validate());
}

// A field that does not fit its narrower type is rejected, never wrapped:
// "cpu":256 must not come back as 0 (atomic), nor a 2^32+1 weight as 1.
TEST(Spec, FromJsonRejectsOutOfRangeIntegers) {
  const auto with = [](const std::string& field) {
    return campaign::jsonl::parse(
        R"({"tenant":"default","app":"pi","experiments":10,"seed":42,)" + field + "}");
  };
  EXPECT_NO_THROW(service::CampaignSpec::from_json(with(R"("cpu":2)")));
  const std::vector<std::string> out_of_range = {
      R"("cpu":256)",
      R"("cpu":3)",
      R"("cpu":-1)",
      R"("weight":4294967297)",
      R"("weight":1.5)",
      R"("max_workers":4294967296)",
      R"("retries":4294967296)",
      R"("experiments":1e3)",
      R"("seed":18446744073709551616)",
  };
  for (const std::string& field : out_of_range)
    EXPECT_THROW(service::CampaignSpec::from_json(with(field)), std::invalid_argument)
        << field;
}

// --- Journal ---

TEST(Journal, RoundTripRecoversLiveCampaignsAndResults) {
  const fs::path dir = fresh_dir("roundtrip");
  {
    service::Journal j(dir.string());
    EXPECT_EQ(j.recovered().live.size(), 0u);
    EXPECT_EQ(j.recovered().next_campaign_id, 1u);

    j.record_submit(1, sample_spec());
    service::CampaignSpec other = sample_spec();
    other.tenant = "bob";
    other.campaign_seed = 7;
    j.record_submit(2, other);
    j.record_submit(3, sample_spec());

    j.append_result(1, R"({"index":0,"outcome":"Masked"})");
    j.append_result(1, R"({"index":5,"outcome":"SDC"})");
    j.append_result(2, R"({"index":3,"outcome":"Crash"})");
    j.record_terminal(3, service::CampaignState::Cancelled, "");
  }
  // Campaign 4 as an older build journaled it: its submit line carries the
  // engine-tier and retry_backoff fields, its calibrated line and result
  // records a fastmode flag. Those fields are ignored; nothing is lost.
  append_raw(dir / "campaigns.jsonl",
             R"({"event":"submit","id":4,"tenant":"carol","name":"","app":"pi",)"
             R"("paper":false,"scale_seed":1592590337,"experiments":3,"seed":5,)"
             R"("weight":1,"max_workers":0,"cpu":2,"watchdog_mult":8,"deadline":0,)"
             R"("retries":2,"retry_backoff":2,"predecode":true,"fastpath":true,)"
             R"("fastmode":true,"stop_eps":0,"stop_conf":0.98999999999999999})"
             "\n"
             R"({"event":"calibrated","id":4,"calib_wall_seconds":0.0437,"fastmode":true})"
             "\n");
  const std::string old_result =
      R"({"index":1,"worker":0,"seed":7958955049054603978,"fault":"PCInjectedFault )"
      R"(Inst:134428 Flip:49 Threadid:0 system.cpu0 occ:1","location":"PCInjectedFault",)"
      R"("outcome":"crashed","metric":0,"exit":"crashed","trap":"fetch-fault",)"
      R"("applied":true,"time_fraction":0.83868633176112406,"sim_ticks":134581,)"
      R"("wall_seconds":0.019,"fastmode":true,"retries":0,"ckpt_format":"v2",)"
      R"("restore_pages":0,"restore_bytes":0})";
  append_raw(dir / "c4.results.jsonl", old_result + "\n");

  service::Journal j(dir.string());
  const service::RecoveredJournal& rec = j.recovered();
  ASSERT_EQ(rec.live.size(), 3u);  // campaign 3 reached a terminal state
  EXPECT_EQ(rec.next_campaign_id, 5u);
  EXPECT_EQ(rec.repaired_files, 0u);
  EXPECT_EQ(rec.skipped_lines, 0u);

  EXPECT_EQ(rec.live[0].id, 1u);
  EXPECT_EQ(rec.live[0].spec.tenant, "alice");
  EXPECT_EQ(rec.live[0].done_indices, (std::vector<std::uint64_t>{0, 5}));
  EXPECT_EQ(rec.live[1].id, 2u);
  EXPECT_EQ(rec.live[1].spec.tenant, "bob");
  EXPECT_EQ(rec.live[1].spec.campaign_seed, 7u);
  EXPECT_EQ(rec.live[1].done_indices, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(rec.live[2].id, 4u);
  EXPECT_EQ(rec.live[2].spec.tenant, "carol");
  EXPECT_EQ(rec.live[2].spec.experiments, 3u);
  EXPECT_EQ(rec.live[2].spec.campaign_seed, 5u);
  EXPECT_EQ(rec.live[2].done_indices, (std::vector<std::uint64_t>{1}));

  const auto lines = j.read_result_lines(1);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], R"({"index":0,"outcome":"Masked"})");
  EXPECT_EQ(j.read_result_lines(4), (std::vector<std::string>{old_result}));
  fs::remove_all(dir);
}

TEST(Journal, TruncatedTailsAreRepairedOnRecovery) {
  const fs::path dir = fresh_dir("truncated");
  {
    service::Journal j(dir.string());
    j.record_submit(1, sample_spec());
    j.append_result(1, R"({"index":0,"outcome":"Masked"})");
    j.append_result(1, R"({"index":1,"outcome":"Masked"})");
  }
  // Simulate a SIGKILL mid-write: both files end in a partial line.
  append_raw(dir / "campaigns.jsonl", R"({"event":"submit","id":2,"app":"p)");
  append_raw(dir / "c1.results.jsonl", R"({"index":2,"outc)");

  service::Journal j(dir.string());
  EXPECT_GE(j.recovered().repaired_files, 1u);
  ASSERT_EQ(j.recovered().live.size(), 1u);
  EXPECT_EQ(j.recovered().live[0].done_indices,
            (std::vector<std::uint64_t>{0, 1}));  // the partial index 2 is gone
  EXPECT_EQ(j.recovered().next_campaign_id, 2u);  // partial submit dropped

  // The journal stays appendable after repair: the next write begins a
  // fresh, complete line.
  j.append_result(1, R"({"index":2,"outcome":"SDC"})");
  const auto lines = j.read_result_lines(1);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines.back(), R"({"index":2,"outcome":"SDC"})");
  fs::remove_all(dir);
}

TEST(Journal, DuplicateResultLinesAreCountedOnce) {
  const fs::path dir = fresh_dir("dups");
  {
    service::Journal j(dir.string());
    j.record_submit(1, sample_spec());
    j.append_result(1, R"({"index":4,"outcome":"Masked"})");
    j.append_result(1, R"({"index":4,"outcome":"Masked"})");
  }
  service::Journal j(dir.string());
  ASSERT_EQ(j.recovered().live.size(), 1u);
  EXPECT_EQ(j.recovered().live[0].done_indices, (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(j.recovered().live[0].duplicate_result_lines, 1u);
  fs::remove_all(dir);
}

// A results file that cannot take the write (a full disk: /dev/full behind
// the results path) throws instead of letting the service acknowledge a
// result that never reached the file.
TEST(Journal, AppendResultThrowsWhenTheWriteFails) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  const fs::path dir = fresh_dir("enospc");
  {
    service::Journal j(dir.string());
    fs::create_symlink("/dev/full", j.results_path(1));
    EXPECT_THROW(j.append_result(1, R"({"index":0,"outcome":"SDC"})"),
                 std::runtime_error);
  }
  fs::remove_all(dir);
}

// --- control-plane codecs ---

TEST(Control, SubmitRoundTrip) {
  const service::CampaignSpec s = sample_spec();
  const service::CampaignSpec r = service::parse_submit(submit_payload(s.to_json()));
  EXPECT_EQ(r.tenant, s.tenant);
  EXPECT_EQ(r.app_name, s.app_name);
  EXPECT_EQ(r.experiments, s.experiments);
  EXPECT_EQ(r.campaign_seed, s.campaign_seed);
  EXPECT_EQ(r.weight, s.weight);
  EXPECT_EQ(r.max_workers, s.max_workers);
  EXPECT_EQ(r.cpu, s.cpu);
  EXPECT_EQ(r.deadline_seconds, s.deadline_seconds);
  EXPECT_EQ(r.watchdog_mult, s.watchdog_mult);
  EXPECT_EQ(r.max_retries, s.max_retries);
  EXPECT_EQ(r.stop_eps, s.stop_eps);
  EXPECT_EQ(r.stop_conf, s.stop_conf);
}

TEST(Control, RepliesRoundTrip) {
  const auto sr = service::decode_submit_reply(
      service::encode_submit_reply({true, 42, ""}));
  EXPECT_TRUE(sr.ok);
  EXPECT_EQ(sr.id, 42u);

  const auto rej = service::decode_submit_reply(
      service::encode_submit_reply({false, 0, "unknown app 'nope'"}));
  EXPECT_FALSE(rej.ok);
  EXPECT_EQ(rej.error, "unknown app 'nope'");

  const auto cr = service::decode_cancel_reply(
      service::encode_cancel_reply({false, "campaign 9 already done"}));
  EXPECT_FALSE(cr.ok);
  EXPECT_EQ(cr.error, "campaign 9 already done");

  EXPECT_EQ(service::decode_status_request(
                service::encode_status_request({17})).id, 17u);
  EXPECT_EQ(service::decode_cancel(service::encode_cancel({3})).id, 3u);
  EXPECT_EQ(service::decode_stream_results(
                service::encode_stream_results({8})).id, 8u);
}

TEST(Control, StatusReplyRoundTrip) {
  service::CampaignStatus a;
  a.id = 1;
  a.tenant = "alice";
  a.name = "n1";
  a.app_name = "pi";
  a.state = service::CampaignState::Running;
  a.total = 100;
  a.completed = 40;
  a.inflight = 6;
  a.dispatched = 46;
  a.workers = 2;
  a.weight = 3;
  a.counts[0] = 30;
  a.counts[1] = 10;
  a.age_seconds = 2.5;
  service::CampaignStatus b;
  b.id = 2;
  b.state = service::CampaignState::Failed;
  b.error = "unknown app";

  const auto out =
      service::decode_status_reply(service::encode_status_reply({a, b}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tenant, "alice");
  EXPECT_EQ(out[0].state, service::CampaignState::Running);
  EXPECT_EQ(out[0].completed, 40u);
  EXPECT_EQ(out[0].counts[0], 30u);
  EXPECT_EQ(out[0].workers, 2u);
  EXPECT_EQ(out[0].age_seconds, 2.5);
  EXPECT_EQ(out[1].state, service::CampaignState::Failed);
  EXPECT_EQ(out[1].error, "unknown app");
}

TEST(Control, StreamMessagesRoundTrip) {
  service::ResultLines rl;
  rl.id = 5;
  rl.lines = {R"({"index":0})", R"({"index":1})"};
  const auto out = service::decode_result_lines(service::encode_result_lines(rl));
  EXPECT_EQ(out.id, 5u);
  EXPECT_EQ(out.lines, rl.lines);

  const auto end = service::decode_stream_end(service::encode_stream_end(
      {5, service::CampaignState::Cancelled, ""}));
  EXPECT_EQ(end.id, 5u);
  EXPECT_EQ(end.state, service::CampaignState::Cancelled);
}

TEST(Control, DecodersRejectMalformedPayloads) {
  // Trailing bytes after a complete message.
  auto bytes = service::encode_cancel({3});
  bytes.push_back(0);
  EXPECT_THROW(service::decode_cancel(bytes), util::DeserializeError);

  // A truncated submit is malformed JSON: the service answers it with a
  // polite SubmitReply{ok=false} (invalid_argument), not a dropped peer.
  auto sub = submit_payload(sample_spec().to_json());
  sub.resize(sub.size() - 1);
  EXPECT_THROW(service::parse_submit(sub), std::invalid_argument);

  // Out-of-range CampaignState discriminator.
  auto end = service::encode_stream_end({1, service::CampaignState::Done, ""});
  end[sizeof(std::uint64_t)] = 0xEE;  // state byte follows the u64 id
  EXPECT_THROW(service::decode_stream_end(end), util::DeserializeError);

  // A structurally valid submit carrying an unusable spec is a polite
  // rejection (invalid_argument), not a protocol error.
  service::CampaignSpec bad = sample_spec();
  bad.experiments = 0;
  EXPECT_THROW(service::parse_submit(submit_payload(bad.to_json())),
               std::invalid_argument);
}

// --- fair-share scheduler ---

TEST(Scheduler, FreeWorkerGoesToLeastLoadedTenant) {
  // alice already holds 2 workers, bob holds 0 — bob wins regardless of ids.
  const std::vector<service::SchedEntry> entries = {
      {1, "alice", 1, 0, /*pending=*/50, /*workers=*/2},
      {2, "bob", 1, 0, /*pending=*/50, /*workers=*/0},
  };
  EXPECT_EQ(service::pick_campaign_for_worker(entries), 2u);
}

TEST(Scheduler, WeightTiltsTheShare) {
  // alice weight 3 vs bob weight 1: with 3 vs 1 workers the scores tie
  // (3/3 == 1/1) and the tie breaks toward the campaign with fewer workers.
  const std::vector<service::SchedEntry> tied = {
      {1, "alice", 3, 0, 50, 3},
      {2, "bob", 1, 0, 50, 1},
  };
  EXPECT_EQ(service::pick_campaign_for_worker(tied), 2u);

  // With 2 vs 1 workers, alice's score 2/3 < bob's 1/1 — alice wins.
  const std::vector<service::SchedEntry> skewed = {
      {1, "alice", 3, 0, 50, 2},
      {2, "bob", 1, 0, 50, 1},
  };
  EXPECT_EQ(service::pick_campaign_for_worker(skewed), 1u);
}

TEST(Scheduler, QuotaAndPendingFilterEligibility) {
  const std::vector<service::SchedEntry> entries = {
      {1, "alice", 1, /*max_workers=*/2, /*pending=*/50, /*workers=*/2},  // at quota
      {2, "bob", 1, 0, /*pending=*/0, /*workers=*/0},                     // no work
      {3, "carol", 1, 0, /*pending=*/10, /*workers=*/1},
  };
  EXPECT_EQ(service::pick_campaign_for_worker(entries), 3u);

  // Nothing runnable: the worker stays parked.
  const std::vector<service::SchedEntry> none = {
      {1, "alice", 1, 2, 50, 2},
      {2, "bob", 1, 0, 0, 0},
  };
  EXPECT_EQ(service::pick_campaign_for_worker(none), 0u);
}

TEST(Scheduler, WithinTenantFewestWorkersThenLowestId) {
  const std::vector<service::SchedEntry> entries = {
      {4, "alice", 1, 0, 50, 1},
      {2, "alice", 1, 0, 50, 0},
      {3, "alice", 1, 0, 50, 0},
  };
  EXPECT_EQ(service::pick_campaign_for_worker(entries), 2u);
}

TEST(Scheduler, RebalanceDonorSparesTheRichest) {
  const std::vector<service::SchedEntry> entries = {
      {1, "alice", 1, 0, /*pending=*/50, /*workers=*/3},
      {2, "bob", 1, 0, /*pending=*/50, /*workers=*/1},   // cannot spare its only one
      {3, "carol", 1, 0, /*pending=*/50, /*workers=*/0},  // starved
  };
  EXPECT_TRUE(service::has_starved_campaign(entries));
  EXPECT_EQ(service::pick_rebalance_donor(entries), 1u);

  // A campaign with one worker but no pending work can donate it.
  const std::vector<service::SchedEntry> idle_donor = {
      {1, "alice", 1, 0, /*pending=*/0, /*workers=*/1},
      {2, "bob", 1, 0, /*pending=*/50, /*workers=*/0},
  };
  EXPECT_EQ(service::pick_rebalance_donor(idle_donor), 1u);

  // Nobody can spare a worker: the starved campaign waits.
  const std::vector<service::SchedEntry> stuck = {
      {1, "alice", 1, 0, 50, 1},
      {2, "bob", 1, 0, 50, 0},
  };
  EXPECT_EQ(service::pick_rebalance_donor(stuck), 0u);
  EXPECT_FALSE(service::has_starved_campaign({{1, "alice", 1, 0, 0, 0}}));
}
