#include "campaign/service/service.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "campaign/observer.hpp"
#include "campaign/service/control.hpp"
#include "campaign/service/journal.hpp"
#include "campaign/service/scheduler.hpp"
#include "campaign/wire.hpp"
#include "util/bytesio.hpp"

namespace gemfi::campaign::service {

namespace {

using net::mono_seconds;
using wire::frame_for;

/// Longest a reply or result stream may block on one client before the
/// client is dropped as defunct.
constexpr double kClientSendTimeoutS = 10.0;

/// Reverse of experiment_record_to_json's outcome field (counts recovery).
std::optional<apps::Outcome> outcome_from_name(const std::string& name) {
  for (unsigned i = 0; i < apps::kNumOutcomes; ++i)
    if (name == apps::outcome_name(apps::Outcome(i))) return apps::Outcome(i);
  return std::nullopt;
}

}  // namespace

/// The fleet engine plus what only the daemon has: a journaled multi-tenant
/// campaign table, background calibration, fair-share leasing and
/// rebalancing, and the client control plane.
struct CampaignService::Impl final : Fleet {
  ServiceConfig scfg;
  Journal journal;
  std::atomic<bool> stop_requested{false};

  // -------------------------------------------------------------------------
  // Campaign table
  // -------------------------------------------------------------------------

  struct Campaign {
    std::uint64_t id = 0;
    CampaignSpec spec;
    CampaignState state = CampaignState::Queued;
    std::string error;
    double submitted_at = 0.0;
    bool recovered = false;
    std::vector<std::uint64_t> recovered_done;  // journal high-water mark
    std::array<std::uint64_t, apps::kNumOutcomes> counts{};
    Lane lane;                          // opened once calibrated (Running)
    std::vector<unsigned> subscribers;  // peer ids streaming this campaign
  };
  std::map<std::uint64_t, Campaign> campaigns;
  std::uint64_t next_id = 1;

  // -------------------------------------------------------------------------
  // Calibration thread: calibrate() costs seconds of simulation per app, so
  // it runs off the poll loop. Jobs carry a copy of the spec; completions
  // come back through `calib_done` + wake(). The cache (identical
  // app/scale/config calibrate identically — the whole protocol depends on
  // that determinism) is touched only by the calibration thread.
  // -------------------------------------------------------------------------

  struct CalibJob {
    std::uint64_t id = 0;
    CampaignSpec spec;
  };
  struct CalibDone {
    std::uint64_t id = 0;
    bool ok = false;
    CalibratedApp ca;
    std::string error;
  };
  std::mutex calib_mutex;
  std::condition_variable calib_cv;
  bool calib_stop = false;
  std::deque<CalibJob> calib_queue;
  std::deque<CalibDone> calib_done;
  std::thread calib_thread;

  ServiceReport stats;
  double started_at = 0.0;
  double last_rebalance = 0.0;
  double last_status = 0.0;

  // -------------------------------------------------------------------------

  explicit Impl(const ServiceConfig& scfg_in)
      : Fleet(scfg_in), scfg(scfg_in), journal(scfg.journal_dir) {
    for (const RecoveredCampaign& rc : journal.recovered().live) {
      Campaign& c = add_campaign(rc.id, rc.spec);
      c.recovered = true;
      c.recovered_done = rc.done_indices;
      ++stats.campaigns_recovered;
    }
    next_id = journal.recovered().next_campaign_id;
  }

  ~Impl() override { stop_calibration(); }

  // --- calibration ---------------------------------------------------------

  void calib_main() {
    // Cache key covers everything calibrate() depends on.
    std::map<std::string, CalibratedApp> cache;
    for (;;) {
      CalibJob job;
      {
        std::unique_lock lock(calib_mutex);
        calib_cv.wait(lock, [this] { return calib_stop || !calib_queue.empty(); });
        if (calib_stop) return;
        job = std::move(calib_queue.front());
        calib_queue.pop_front();
      }
      CalibDone done;
      done.id = job.id;
      const std::string key =
          job.spec.app_name + "|" + (job.spec.paper_scale ? "p" : "s") + "|" +
          std::to_string(job.spec.app_scale_seed) + "|" +
          std::to_string(job.spec.cpu) + "|" +
          std::to_string(job.spec.watchdog_mult);
      try {
        auto it = cache.find(key);
        if (it == cache.end()) {
          apps::App app = apps::build_app(job.spec.app_name, job.spec.to_scale());
          it = cache.emplace(key, calibrate(std::move(app),
                                            job.spec.to_campaign_config()))
                   .first;
        }
        done.ca = it->second;
        done.ok = true;
      } catch (const std::exception& e) {
        done.error = e.what();
      }
      {
        std::lock_guard lock(calib_mutex);
        calib_done.push_back(std::move(done));
      }
      wake();
    }
  }

  void queue_calibrations() {
    std::lock_guard lock(calib_mutex);
    for (auto& [id, c] : campaigns) {
      if (c.state != CampaignState::Queued) continue;
      calib_queue.push_back({id, c.spec});
      c.state = CampaignState::Calibrating;
    }
    calib_cv.notify_one();
  }

  void integrate_calibrations() {
    std::deque<CalibDone> batch;
    {
      std::lock_guard lock(calib_mutex);
      batch.swap(calib_done);
    }
    for (CalibDone& d : batch) {
      const auto it = campaigns.find(d.id);
      if (it == campaigns.end() || is_terminal(it->second.state)) continue;
      Campaign& c = it->second;
      if (!d.ok) {
        finish_campaign(c, CampaignState::Failed, d.error);
        continue;
      }
      const CampaignConfig cfg = c.spec.to_campaign_config();
      // Durable calibration cost record: a restarted service recalibrates, so
      // the journal keeps one "calibrated" line per completed calibration.
      journal.record_calibrated(c.id, d.ca.calib_wall_seconds);
      c.lane.open(d.ca, c.spec.to_scale(), cfg,
                  seeded_fault_set(c.spec.campaign_seed,
                                   std::size_t(c.spec.experiments), d.ca.kernel_fetches),
                  StopPolicy{c.spec.stop_eps, c.spec.stop_conf}, c.recovered_done);
      if (c.recovered) recover_counts(c);
      c.recovered_done.clear();
      c.state = CampaignState::Running;
      if (c.lane.completed == c.lane.done.size())
        finish_campaign(c, CampaignState::Done, "");
    }
  }

  /// Rebuild the outcome histogram of a resumed campaign from its journaled
  /// result lines (status would otherwise only count post-restart results).
  void recover_counts(Campaign& c) {
    for (const std::string& line : journal.read_result_lines(c.id)) {
      try {
        const jsonl::Value v = jsonl::parse(line);
        if (const auto o = outcome_from_name(v.at("outcome").as_string()))
          ++c.counts[std::size_t(*o)];
      } catch (const std::exception&) {
        // A line recovery already skipped; counts stay approximate.
      }
    }
  }

  void stop_calibration() {
    if (!calib_thread.joinable()) return;
    {
      std::lock_guard lock(calib_mutex);
      calib_stop = true;
    }
    calib_cv.notify_all();
    calib_thread.join();
  }

  // --- campaign lifecycle --------------------------------------------------

  Campaign& add_campaign(std::uint64_t id, CampaignSpec spec) {
    Campaign& c = campaigns[id];
    c.id = c.lane.id = id;
    c.spec = std::move(spec);
    c.submitted_at = mono_seconds();  // a recovered campaign's age restarts
    return c;
  }

  void finish_campaign(Campaign& c, CampaignState state, const std::string& error) {
    c.state = state;
    c.error = error;
    journal.record_terminal(c.id, state, error);
    switch (state) {
      case CampaignState::Done: ++stats.campaigns_done; break;
      case CampaignState::Cancelled: ++stats.campaigns_cancelled; break;
      case CampaignState::Failed: ++stats.campaigns_failed; break;
      default: break;
    }
    // Close out subscribers.
    StreamEnd end;
    end.id = c.id;
    end.state = state;
    end.error = error;
    const auto end_frame =
        frame_for(wire::MsgType::StreamEnd, encode_stream_end(end));
    for (const unsigned peer_id : c.subscribers) {
      Peer* p = find_peer(peer_id);
      if (p != nullptr && !p->defunct)
        send_or_defunct(*p, end_frame, kClientSendTimeoutS);
    }
    c.subscribers.clear();
    // Release the bulk memory; results still arriving for it are dropped.
    c.lane.close();
  }

  [[nodiscard]] std::vector<SchedEntry> sched_snapshot() const {
    std::vector<SchedEntry> entries;
    for (const auto& [id, c] : campaigns) {
      SchedEntry e;
      e.id = id;
      e.tenant = c.spec.tenant;
      e.weight = c.spec.weight;
      e.max_workers = c.spec.max_workers;
      e.pending = c.lane.pending.size();  // empty unless running
      e.workers = workers_on(id);
      if (e.pending > 0 || e.workers > 0) entries.push_back(std::move(e));
    }
    return entries;
  }

  [[nodiscard]] CampaignStatus status_of(const Campaign& c, double now) const {
    CampaignStatus s;
    s.id = c.id;
    s.tenant = c.spec.tenant;
    s.name = c.spec.name;
    s.app_name = c.spec.app_name;
    s.state = c.state;
    s.total = c.spec.experiments;
    s.completed = c.lane.completed;
    s.inflight = inflight_on(c.id);
    s.dispatched = c.lane.dispatched;
    s.workers = workers_on(c.id);
    s.weight = c.spec.weight;
    s.counts = c.counts;
    s.error = c.error;
    s.age_seconds = now - c.submitted_at;
    return s;
  }

  /// Journal a campaign-scoped JSON line and fan it out to streaming
  /// subscribers. Summary lines ride the same path as result lines; journal
  /// recovery skips any line without an "index" field, so they are inert
  /// across restarts.
  void broadcast_line(Campaign& c, const std::string& line) {
    journal.append_result(c.id, line);
    if (c.subscribers.empty()) return;
    ResultLines rl;
    rl.id = c.id;
    rl.lines.push_back(line);
    const auto rl_frame =
        frame_for(wire::MsgType::ResultLines, encode_result_lines(rl));
    for (const unsigned peer_id : c.subscribers) {
      Peer* p = find_peer(peer_id);
      if (p != nullptr && !p->defunct)
        send_or_defunct(*p, rl_frame, kClientSendTimeoutS);
    }
  }

  // --- fleet hooks ---------------------------------------------------------

  bool serving() override { return !stop_requested.load(std::memory_order_relaxed); }

  void on_sigint() override { stop_requested.store(true, std::memory_order_relaxed); }

  Lane* find_lane(std::uint64_t id) override {
    const auto it = campaigns.find(id);
    return it == campaigns.end() ? nullptr : &it->second.lane;
  }

  std::uint64_t pick_lane() override {
    return pick_campaign_for_worker(sched_snapshot());
  }

  void on_record(Lane& lane, const ExperimentRecord& rec) override {
    Campaign& c = campaigns.at(lane.id);
    ++c.counts[std::size_t(rec.result.classification.outcome)];
    // Journal first (durable before any ack leaves), then stream.
    broadcast_line(c, experiment_record_to_json(rec));
    ++stats.results_journaled;
  }

  void on_summary(Lane& lane, const std::string& json) override {
    if (lane.stopping) ++stats.campaigns_stopped_early;
    broadcast_line(campaigns.at(lane.id), json);
  }

  void on_lane_done(Lane& lane) override {
    finish_campaign(campaigns.at(lane.id), CampaignState::Done, "");
  }

  void tick() override {
    integrate_calibrations();
    const double now = mono_seconds();
    rebalance(now);
    print_status(now);
  }

  /// A starved campaign with no parked worker to take: part the donor's
  /// least-loaded worker. Its reconnect comes back through fair-share
  /// assignment (the Welcome fixed the connection's app, so there is no
  /// in-band "switch campaigns" message).
  void rebalance(double now) {
    if (now - last_rebalance < scfg.rebalance_interval_s) return;
    last_rebalance = now;
    // A parked worker about to be assigned covers any starvation already.
    for (const auto& p : peers_)
      if (p->kind == PeerKind::Worker && !p->defunct && p->lease == 0) return;
    const auto entries = sched_snapshot();
    if (!has_starved_campaign(entries)) return;
    const std::uint64_t donor = pick_rebalance_donor(entries);
    if (donor == 0) return;
    Peer* victim = nullptr;
    for (const auto& p : peers_) {
      if (p->defunct || p->lease != donor) continue;
      if (victim == nullptr || p->inflight.size() < victim->inflight.size())
        victim = p.get();
    }
    if (victim == nullptr) return;
    part_worker(*victim);
    ++stats.rebalance_moves;
  }

  // --- client plane --------------------------------------------------------

  void handle_submit(Peer& p, std::span<const std::uint8_t> payload) {
    SubmitReply reply;
    std::optional<CampaignSpec> spec;
    try {
      spec = parse_submit(payload);
    } catch (const std::exception& e) {
      reply.error = e.what();  // malformed JSON or an unusable spec: polite no
    }
    if (spec) {
      const std::uint64_t id = next_id++;
      journal.record_submit(id, *spec);  // durable before the ack
      add_campaign(id, std::move(*spec));
      reply.ok = true;
      reply.id = id;
      ++stats.campaigns_submitted;
      queue_calibrations();
    }
    send_or_defunct(p, frame_for(wire::MsgType::SubmitReply, encode_submit_reply(reply)),
                    kClientSendTimeoutS);
  }

  void handle_status(Peer& p, std::span<const std::uint8_t> payload) {
    const StatusRequest req = decode_status_request(payload);
    const double now = mono_seconds();
    std::vector<CampaignStatus> statuses;
    if (req.id == 0) {
      for (const auto& [id, c] : campaigns) statuses.push_back(status_of(c, now));
    } else if (const auto it = campaigns.find(req.id); it != campaigns.end()) {
      statuses.push_back(status_of(it->second, now));
    }
    send_or_defunct(p,
                    frame_for(wire::MsgType::StatusReply, encode_status_reply(statuses)),
                    kClientSendTimeoutS);
  }

  void handle_cancel(Peer& p, std::span<const std::uint8_t> payload) {
    const CancelCampaign req = decode_cancel(payload);
    CancelReply reply;
    const auto it = campaigns.find(req.id);
    if (it == campaigns.end()) {
      reply.error = "unknown campaign " + std::to_string(req.id);
    } else if (is_terminal(it->second.state)) {
      reply.error = "campaign " + std::to_string(req.id) + " already " +
                    campaign_state_name(it->second.state);
    } else {
      finish_campaign(it->second, CampaignState::Cancelled, "");
      reply.ok = true;
    }
    send_or_defunct(p, frame_for(wire::MsgType::CancelReply, encode_cancel_reply(reply)),
                    kClientSendTimeoutS);
  }

  void handle_stream(Peer& p, std::span<const std::uint8_t> payload) {
    const StreamResults req = decode_stream_results(payload);
    const auto it = campaigns.find(req.id);
    if (it == campaigns.end()) {
      StreamEnd end;
      end.id = req.id;
      end.state = CampaignState::Failed;
      end.error = "unknown campaign " + std::to_string(req.id);
      send_or_defunct(p, frame_for(wire::MsgType::StreamEnd, encode_stream_end(end)),
                      kClientSendTimeoutS);
      return;
    }
    Campaign& c = it->second;
    // Replay journaled history first, in batches, then subscribe for live
    // results — the client sees every line exactly once, in append order.
    ResultLines rl;
    rl.id = c.id;
    for (std::string& line : journal.read_result_lines(c.id)) {
      rl.lines.push_back(std::move(line));
      if (rl.lines.size() >= 256) {
        send_or_defunct(p, frame_for(wire::MsgType::ResultLines, encode_result_lines(rl)),
                        kClientSendTimeoutS);
        rl.lines.clear();
        if (p.defunct) return;
      }
    }
    if (!rl.lines.empty())
      send_or_defunct(p, frame_for(wire::MsgType::ResultLines, encode_result_lines(rl)),
                      kClientSendTimeoutS);
    if (p.defunct) return;
    if (is_terminal(c.state)) {
      StreamEnd end;
      end.id = c.id;
      end.state = c.state;
      end.error = c.error;
      send_or_defunct(p, frame_for(wire::MsgType::StreamEnd, encode_stream_end(end)),
                      kClientSendTimeoutS);
    } else {
      c.subscribers.push_back(p.id);
    }
  }

  /// A streaming client that goes away stops being a subscriber.
  void on_peer_dropped(Peer& p) override {
    if (p.kind != PeerKind::Client) return;
    for (auto& [id, c] : campaigns) std::erase(c.subscribers, p.id);
  }

  void on_client_frame(Peer& p, const net::Frame& f) override {
    switch (wire::MsgType(f.type)) {
      case wire::MsgType::SubmitCampaign: handle_submit(p, f.payload); break;
      case wire::MsgType::StatusRequest: handle_status(p, f.payload); break;
      case wire::MsgType::CancelCampaign: handle_cancel(p, f.payload); break;
      case wire::MsgType::StreamResults: handle_stream(p, f.payload); break;
      default:
        throw net::ProtocolError("unexpected client message type " +
                                 std::to_string(f.type));
    }
    if (p.kind == PeerKind::Unknown) {
      p.kind = PeerKind::Client;
      ++stats.clients_served;
    }
  }

  // --- status display ------------------------------------------------------

  void print_status(double now) {
    if (scfg.status_interval_s <= 0.0) return;
    if (now - last_status < scfg.status_interval_s) return;
    last_status = now;
    std::FILE* out = scfg.status_out != nullptr ? scfg.status_out : stderr;
    unsigned fleet = 0;
    for (const auto& p : peers_)
      if (p->kind == PeerKind::Worker && !p->defunct) ++fleet;
    std::fprintf(out, "[campaignd] t=%.1fs workers=%u campaigns=%zu\n",
                 now - started_at, fleet, campaigns.size());
    for (const auto& [id, c] : campaigns) {
      const CampaignStatus s = status_of(c, now);
      std::fprintf(out,
                   "[campaignd]   c%llu tenant=%s app=%s %s %llu/%llu "
                   "workers=%u weight=%u inflight=%llu subscribers=%zu%s%s\n",
                   (unsigned long long)s.id, s.tenant.c_str(), s.app_name.c_str(),
                   campaign_state_name(s.state), (unsigned long long)s.completed,
                   (unsigned long long)s.total, s.workers, s.weight,
                   (unsigned long long)s.inflight, c.subscribers.size(),
                   s.error.empty() ? "" : " error=", s.error.c_str());
    }
    std::fflush(out);
  }

  // --- main loop -----------------------------------------------------------

  ServiceReport run() {
    started_at = mono_seconds();
    last_rebalance = started_at;
    last_status = 0.0;
    calib_thread = std::thread([this] { calib_main(); });
    queue_calibrations();  // recovered campaigns recalibrate immediately
    // Ends with Shutdown to every worker; live campaigns stay journaled and
    // resume on the next start.
    serve();
    stop_calibration();
    static_cast<FleetCounters&>(stats) = counters_;
    stats.wall_seconds = mono_seconds() - started_at;
    return stats;
  }
};

CampaignService::CampaignService(ServiceConfig scfg)
    : impl_(std::make_unique<Impl>(scfg)) {}

CampaignService::~CampaignService() = default;

std::uint16_t CampaignService::port() const noexcept { return impl_->port(); }

ServiceReport CampaignService::run() { return impl_->run(); }

void CampaignService::request_stop() noexcept {
  impl_->stop_requested.store(true, std::memory_order_relaxed);
  impl_->wake();
}

}  // namespace gemfi::campaign::service
