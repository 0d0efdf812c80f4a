// The worker-fleet engine behind both campaign front ends (paper Sec. III-E).
//
// The one-shot NoW master (dispatch.hpp) and the multi-tenant campaign
// service (service/service.hpp) run the same worker plane: one listener, one
// poll loop, and workers that say Hello, wait parked, and receive a Welcome
// (the checkpoint copy) when the engine leases them to a campaign. From then
// on the engine tops each worker up to slots x 2 experiments,
// keeps the first result per experiment id and drops replays, requeues a lost
// worker's in-flight experiments, reaps silent peers, and applies the
// sequential stop rule (CancelQueue/CancelAck). Each of those exists only
// here. A front end is a Fleet subclass that owns its campaigns' Lanes and
// decides what the engine cannot: which campaign a parked worker serves,
// where a result goes, and when the loop ends.
//
// Single-threaded: every virtual hook runs on the serve() thread.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "campaign/analytics/aggregator.hpp"
#include "campaign/runner.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace gemfi::campaign {

/// Listener and worker-plane tuning, shared by DispatchConfig and
/// service::ServiceConfig.
struct FleetConfig {
  std::string bind_address = "127.0.0.1";  // 0.0.0.0 to serve a real cluster
  std::uint16_t port = 0;                  // 0 = ephemeral (see port())

  /// A leased worker that completes no frame for this long is declared dead
  /// and its in-flight experiments requeued. Raw bytes do NOT count as
  /// liveness: a peer drip-feeding bytes without ever finishing a frame is
  /// reaped too (see frame_grace_s).
  double worker_timeout_s = 15.0;

  /// Extra budget for a partial frame in flight: once a peer is idle past
  /// worker_timeout_s, a half-received frame keeps it alive for at most this
  /// long from the moment the frame started arriving.
  double frame_grace_s = 10.0;

  /// Install a SIGINT handler for the duration of the serve loop (CLIs set
  /// this; library callers usually do not). The front end decides what
  /// SIGINT means: the master drains, the service stops.
  bool handle_sigint = false;
};

/// Worker-plane counters both front ends report.
struct FleetCounters {
  unsigned workers_joined = 0;      // Hellos (a reconnect counts again)
  unsigned workers_lost = 0;        // EOF / timeout / damage; not retired or parted
  std::uint64_t requeued = 0;       // in-flight experiments taken off departed workers
  std::uint64_t duplicate_results = 0;  // dropped by exactly-once dedup
  std::uint64_t frames_rejected = 0;    // protocol-damaged peers dropped
  std::uint64_t peers_timed_out = 0;    // reaped by the liveness deadline
  std::uint64_t checkpoint_bytes_shipped = 0;  // Welcome payload total
};

/// One campaign's dispatch state inside the fleet.
struct Lane {
  std::uint64_t id = 0;
  std::uint64_t campaign_seed = 0;
  std::vector<fi::Fault> faults;
  // Serialized once: every worker leased to this lane gets the same bytes.
  std::vector<std::uint8_t> welcome_frame;
  std::size_t welcome_payload_bytes = 0;
  std::deque<std::uint64_t> pending;  // not yet dispatched
  std::vector<std::uint8_t> done;     // exactly-once bitmap
  std::uint64_t completed = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t cancelled = 0;        // reclaimed unrun by the stop rule
  std::unique_ptr<Aggregator> agg;    // sequential stop rule; null = none
  bool running = false;   // dispatching and accepting results
  bool stopping = false;  // stop rule fired; draining in-flight work

  /// Start serving `faults_in` of the calibrated app. Indices in
  /// `already_done` (journal recovery) count as completed and are not queued.
  void open(const CalibratedApp& ca, const apps::AppScale& scale,
            const CampaignConfig& cfg, std::vector<fi::Fault> faults_in,
            const StopPolicy& stop, const std::vector<std::uint64_t>& already_done = {});
  /// Stop serving and release the bulk memory; `done` and the counters stay.
  void close();
};

class Fleet {
 public:
  /// Binds and listens immediately, so workers spawned right after
  /// construction can connect; serves nothing until serve().
  explicit Fleet(const FleetConfig& cfg);
  virtual ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// Wake the serve loop from another thread (it re-checks serving()).
  void wake() noexcept { wake_.notify(); }

 protected:
  enum class PeerKind : std::uint8_t { Unknown, Worker, Client };

  /// One connection. The first frame decides the kind: Hello makes a worker,
  /// anything else goes to on_client_frame().
  struct Peer {
    unsigned id = 0;
    PeerKind kind = PeerKind::Unknown;
    net::TcpConn conn;
    net::FrameReader reader;
    net::FrameLiveness liveness;
    bool defunct = false;   // dropped at the next sweep
    bool retiring = false;  // parted on purpose: not a loss
    unsigned slots = 0;
    std::uint64_t lease = 0;  // lane this worker serves; 0 = parked or not a worker
    std::unordered_set<std::uint64_t> inflight;

    Peer(net::TcpConn c, std::size_t max_frame, double now)
        : conn(std::move(c)), reader(max_frame) {
      liveness.reset(now);
    }
  };

  /// Run the poll loop while serving() holds, then Shutdown every worker.
  void serve();

  // --- front-end hooks -----------------------------------------------------
  virtual bool serving() = 0;
  virtual Lane* find_lane(std::uint64_t id) = 0;
  /// Lane a parked worker should be leased to; 0 keeps it parked.
  virtual std::uint64_t pick_lane() = 0;
  /// First result for an experiment (already deduplicated).
  virtual void on_record(Lane& lane, const ExperimentRecord& rec) = 0;
  /// An aggregate summary line: "stopped_early" when the rule fires (the
  /// lane is then stopping), or the full-run "summary" of a stop-rule
  /// campaign that ran to completion.
  virtual void on_summary(Lane& lane, const std::string& json) = 0;
  /// Every experiment has a result, or a stopped lane drained.
  virtual void on_lane_done(Lane& /*lane*/) {}
  virtual void on_sigint() = 0;
  /// Per-iteration front-end work, after the frame pump and before dispatch.
  virtual void tick() {}
  /// False pauses all dispatch (the master's drain).
  [[nodiscard]] virtual bool dispatching() const { return true; }
  /// Frames from a peer that did not open with Hello. The default rejects
  /// them; the service serves its control plane here.
  virtual void on_client_frame(Peer& p, const net::Frame& f);
  /// A peer is about to be erased (its id will not come back).
  virtual void on_peer_dropped(Peer& /*p*/) {}

  // --- engine services for the front ends ----------------------------------
  [[nodiscard]] Peer* find_peer(unsigned id) const;
  [[nodiscard]] std::uint32_t workers_on(std::uint64_t lane_id) const;
  /// Includes defunct peers not yet swept: their experiments are still owed
  /// to the lane (requeued or cancelled when drop_peer releases them).
  [[nodiscard]] std::uint64_t inflight_on(std::uint64_t lane_id) const;
  /// Send a frame; on failure mark the peer defunct for the next sweep.
  void send_or_defunct(Peer& p, std::span<const std::uint8_t> frame,
                       double timeout_s = 30.0);
  /// Move a worker off its lane: requeue its in-flight work and close the
  /// connection (its reconnect loop brings it back parked).
  void part_worker(Peer& w);

  FleetConfig fleet_cfg_;
  FleetCounters counters_;
  std::vector<std::unique_ptr<Peer>> peers_;

 private:
  bool pump(Peer& p);
  void handle_frame(Peer& p, const net::Frame& f);
  void handle_result(Peer& w, std::uint64_t index, const ExperimentResult& er);
  void stop_lane(Lane& lane);
  void finish_lane(Lane& lane);
  void maybe_finish_stopped(Lane& lane);
  void release_inflight(Peer& w);
  void drop_peer(std::size_t i);
  void remove_defunct_peers();
  void reap_silent_peers();
  void assign_and_dispatch();

  net::TcpListener listener_;
  net::SelfPipe sigint_;
  net::SelfPipe wake_;
  unsigned next_peer_id_ = 0;
};

}  // namespace gemfi::campaign
