#include "campaign/fleet.hpp"

#include <poll.h>

#include "campaign/wire.hpp"
#include "net/sigint.hpp"
#include "util/bytesio.hpp"

namespace gemfi::campaign {

namespace {

using net::mono_seconds;
using wire::frame_for;

/// Longest sleep of the event loop when no socket is ready.
constexpr double kPollIntervalS = 0.05;

/// In-flight experiments per worker = slots * kPipelineDepth, which keeps
/// its slots busy while batches are in transit.
constexpr unsigned kPipelineDepth = 2;

/// Largest frame accepted from any peer. Results and control requests are
/// small; a peer announcing a huge payload is dropped before allocation.
constexpr std::size_t kMaxPeerFrame = std::size_t(1) << 20;

}  // namespace

void Lane::open(const CalibratedApp& ca, const apps::AppScale& scale,
                const CampaignConfig& cfg, std::vector<fi::Fault> faults_in,
                const StopPolicy& stop, const std::vector<std::uint64_t>& already_done) {
  const auto payload = wire::encode_welcome(wire::Welcome::from(ca, scale, cfg));
  welcome_payload_bytes = payload.size();
  welcome_frame = frame_for(wire::MsgType::Welcome, payload);
  campaign_seed = cfg.campaign_seed;
  faults = std::move(faults_in);
  done.assign(faults.size(), 0);
  // A recovered campaign keeps its aggregator too: journaled results are
  // never fed to it, so the contiguous-prefix rule cannot fire past them and
  // the campaign conservatively runs to completion.
  if (stop.enabled()) agg = std::make_unique<Aggregator>(stop, faults.size());
  for (const std::uint64_t index : already_done) {
    if (index >= done.size() || done[index]) continue;
    done[index] = 1;
    ++completed;
  }
  dispatched = completed;
  for (std::uint64_t index = 0; index < done.size(); ++index)
    if (!done[index]) pending.push_back(index);
  running = true;
}

void Lane::close() {
  running = false;
  pending.clear();
  faults.clear();
  faults.shrink_to_fit();
  welcome_frame.clear();
  welcome_frame.shrink_to_fit();
}

Fleet::Fleet(const FleetConfig& cfg)
    : fleet_cfg_(cfg),
      listener_(net::TcpListener::bind_listen(cfg.bind_address, cfg.port)) {}

Fleet::~Fleet() = default;

void Fleet::serve() {
  net::ScopedSigint sigint(&sigint_, fleet_cfg_.handle_sigint);
  while (serving()) {
    remove_defunct_peers();
    std::vector<pollfd> fds;
    fds.push_back({listener_.fd(), POLLIN, 0});
    fds.push_back({sigint_.read_fd(), POLLIN, 0});
    fds.push_back({wake_.read_fd(), POLLIN, 0});
    for (const auto& p : peers_) fds.push_back({p->conn.fd(), POLLIN, 0});
    ::poll(fds.data(), nfds_t(fds.size()), int(kPollIntervalS * 1000.0) + 1);

    if (fds[1].revents & POLLIN) {
      sigint_.drain();
      on_sigint();
      continue;  // re-check serving() first
    }
    if (fds[2].revents & POLLIN) wake_.drain();
    if (fds[0].revents & POLLIN)
      while (auto conn = listener_.accept()) {
        peers_.push_back(std::make_unique<Peer>(
            std::move(*conn), kMaxPeerFrame, mono_seconds()));
        peers_.back()->id = next_peer_id_++;
      }

    // fds[i + 3] belongs to peers_[i] as the loop entered poll() (accepts
    // only append); pump back-to-front so drop_peer()'s erase cannot shift
    // unvisited entries.
    for (std::size_t i = fds.size() - 3; i-- > 0;) {
      if ((fds[i + 3].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!pump(*peers_[i])) drop_peer(i);
    }

    reap_silent_peers();
    remove_defunct_peers();
    tick();
    assign_and_dispatch();
  }
  const auto shutdown = frame_for(wire::MsgType::Shutdown);
  for (const auto& p : peers_)
    if (p->kind == PeerKind::Worker && !p->defunct) send_or_defunct(*p, shutdown, 2.0);
  listener_.close();
}

/// Drain readable bytes and process complete frames. False: drop the peer.
bool Fleet::pump(Peer& p) {
  std::uint8_t buf[64 * 1024];
  try {
    for (;;) {
      const auto got = p.conn.recv_some(buf);
      if (!got) return false;      // EOF
      if (*got == 0) return true;  // drained
      p.reader.feed(std::span<const std::uint8_t>(buf, *got));
      bool frame_completed = false;
      while (auto f = p.reader.next()) {
        frame_completed = true;
        handle_frame(p, *f);
      }
      p.liveness.on_read(mono_seconds(), frame_completed, p.reader.buffered());
      if (p.defunct) return false;
    }
  } catch (const net::ProtocolError&) {
  } catch (const net::SocketError&) {
  } catch (const util::DeserializeError&) {
  } catch (const std::logic_error&) {  // a parser's invalid_argument/out_of_range
  }
  // The peer is damaged or unreachable. Anything else, such as a failed
  // journal write, is the front end's own failure and propagates.
  ++counters_.frames_rejected;
  return false;
}

void Fleet::handle_frame(Peer& p, const net::Frame& f) {
  const auto type = wire::MsgType(f.type);
  if (p.kind == PeerKind::Unknown && type == wire::MsgType::Hello) {
    p.slots = wire::decode_hello(f.payload).slots;
    p.kind = PeerKind::Worker;
    ++counters_.workers_joined;
    return;  // parked: the Welcome comes with a lease
  }
  if (p.kind != PeerKind::Worker) {
    on_client_frame(p, f);
    return;
  }
  switch (type) {
    case wire::MsgType::Result: {
      const wire::ResultMsg msg = wire::decode_result(f.payload);
      handle_result(p, msg.index, msg.result);
      return;
    }
    case wire::MsgType::Heartbeat:
      // Liveness is any valid frame; a Heartbeat carries nothing.
      if (!f.payload.empty()) throw util::DeserializeError("payload in Heartbeat");
      return;
    case wire::MsgType::CancelAck: {
      // Queued experiments the worker dropped on CancelQueue: no result will
      // come, so they leave the in-flight set as cancelled.
      Lane* lane = find_lane(p.lease);
      for (const std::uint64_t index : wire::decode_cancel_ack(f.payload).dropped)
        if (p.inflight.erase(index) != 0 && lane != nullptr && !lane->done[index])
          ++lane->cancelled;
      if (lane != nullptr) maybe_finish_stopped(*lane);
      return;
    }
    default:
      throw net::ProtocolError("unexpected worker message type " +
                               std::to_string(f.type));
  }
}

void Fleet::on_client_frame(Peer& /*p*/, const net::Frame& f) {
  throw net::ProtocolError("unexpected message type " + std::to_string(f.type));
}

void Fleet::handle_result(Peer& w, std::uint64_t index, const ExperimentResult& er) {
  Lane* lane = find_lane(w.lease);
  if (lane == nullptr) throw net::ProtocolError("Result before Welcome");
  w.inflight.erase(index);
  if (!lane->running) return;  // the campaign ended while this was in flight
  if (index >= lane->done.size())
    throw net::ProtocolError("result for unknown experiment " + std::to_string(index));
  if (lane->done[index]) {
    // Exactly-once: a requeued copy already landed; first result wins.
    ++counters_.duplicate_results;
    return;
  }
  lane->done[index] = 1;
  ++lane->completed;
  const ExperimentRecord rec{std::size_t(index), w.id,
                             experiment_seed(lane->campaign_seed, index), er};
  on_record(*lane, rec);
  if (lane->agg != nullptr && lane->agg->add(rec)) {
    stop_lane(*lane);
  } else if (lane->completed == lane->done.size()) {
    // Full-run summary only when the aggregator saw every experiment (a
    // recovered campaign's aggregate is partial by construction).
    if (lane->agg != nullptr && !lane->stopping && lane->agg->n() == lane->done.size())
      on_summary(*lane, lane->agg->summary_json("summary"));
    finish_lane(*lane);
  } else {
    maybe_finish_stopped(*lane);
  }
}

/// The stop rule newly held on the index-ordered prefix: reclaim the queue,
/// tell the lane's workers to drop their queued batches (CancelQueue), and
/// emit the deterministic stopped_early summary. In-flight experiments
/// finish normally; the lane is done once they drain.
void Fleet::stop_lane(Lane& lane) {
  lane.stopping = true;
  lane.cancelled += lane.pending.size();
  lane.pending.clear();
  on_summary(lane, lane.agg->summary_json("stopped_early"));
  const auto cancel = frame_for(wire::MsgType::CancelQueue);
  for (const auto& p : peers_)
    if (!p->defunct && p->lease == lane.id) send_or_defunct(*p, cancel, 2.0);
  maybe_finish_stopped(lane);
}

void Fleet::finish_lane(Lane& lane) {
  lane.close();
  on_lane_done(lane);
}

void Fleet::maybe_finish_stopped(Lane& lane) {
  if (lane.running && lane.stopping && inflight_on(lane.id) == 0) finish_lane(lane);
}

/// Hand a departing worker's in-flight experiments back to its lane. A
/// stopping lane wants fewer results, not replacements: there they count as
/// cancelled instead.
void Fleet::release_inflight(Peer& w) {
  Lane* lane = find_lane(w.lease);
  if (lane != nullptr && lane->running) {
    for (const std::uint64_t index : w.inflight) {
      if (lane->done[index]) continue;
      if (lane->stopping) {
        ++lane->cancelled;
      } else {
        lane->pending.push_front(index);
        ++counters_.requeued;
      }
    }
  }
  w.inflight.clear();
  if (lane != nullptr) maybe_finish_stopped(*lane);
}

void Fleet::part_worker(Peer& w) {
  release_inflight(w);
  w.conn.close();
  w.retiring = true;
  w.defunct = true;
}

void Fleet::drop_peer(std::size_t i) {
  Peer& p = *peers_[i];
  if (p.kind == PeerKind::Worker) {
    if (!p.retiring) ++counters_.workers_lost;
    release_inflight(p);
  }
  on_peer_dropped(p);
  peers_.erase(peers_.begin() + std::ptrdiff_t(i));
}

void Fleet::remove_defunct_peers() {
  for (std::size_t i = peers_.size(); i-- > 0;)
    if (peers_[i]->defunct) drop_peer(i);
}

void Fleet::reap_silent_peers() {
  const double now = mono_seconds();
  const double timeout = fleet_cfg_.worker_timeout_s;
  const double grace = fleet_cfg_.frame_grace_s;
  for (std::size_t i = peers_.size(); i-- > 0;) {
    const Peer& p = *peers_[i];
    // Clients idle legitimately between requests, and a parked worker sits
    // silent in its Welcome wait: for them only the partial-frame deadline
    // applies (closes the drip-feed hole without reaping quiet peers).
    const bool may_idle =
        p.kind == PeerKind::Client || (p.kind == PeerKind::Worker && p.lease == 0);
    const bool dead = may_idle ? p.liveness.partial_since != 0.0 &&
                                     now - p.liveness.partial_since > timeout + grace
                               : p.liveness.expired(now, timeout, grace);
    if (dead) {
      ++counters_.peers_timed_out;
      drop_peer(i);
    }
  }
}

/// Lease parked workers (their one Welcome), then top every leased worker up
/// to slots x kPipelineDepth from its lane's queue.
void Fleet::assign_and_dispatch() {
  if (!dispatching()) return;
  const double now = mono_seconds();
  for (const auto& p : peers_) {
    if (p->kind != PeerKind::Worker || p->defunct || p->lease != 0) continue;
    const std::uint64_t id = pick_lane();
    if (id == 0) break;  // nothing runnable; later workers see the same
    const Lane& lane = *find_lane(id);
    send_or_defunct(*p, lane.welcome_frame);
    if (p->defunct) continue;
    p->lease = id;
    p->liveness.reset(now);
    counters_.checkpoint_bytes_shipped += lane.welcome_payload_bytes;
  }

  for (const auto& p : peers_) {
    if (p->defunct || p->lease == 0) continue;
    Lane* lane = find_lane(p->lease);
    if (lane == nullptr || !lane->running) continue;
    const std::size_t target = std::size_t(p->slots) * kPipelineDepth;
    std::vector<wire::BatchItem> items;
    while (p->inflight.size() + items.size() < target && !lane->pending.empty()) {
      const std::uint64_t index = lane->pending.front();
      lane->pending.pop_front();
      if (!lane->done[index]) items.push_back({index, lane->faults[index].to_line()});
    }
    if (items.empty()) continue;
    send_or_defunct(*p, frame_for(wire::MsgType::Batch, wire::encode_batch(items)));
    if (p->defunct) {
      // Never delivered: put them back for someone else.
      for (const wire::BatchItem& item : items) lane->pending.push_front(item.index);
      continue;
    }
    for (const wire::BatchItem& item : items) p->inflight.insert(item.index);
    lane->dispatched += items.size();
  }
}

void Fleet::send_or_defunct(Peer& p, std::span<const std::uint8_t> frame,
                            double timeout_s) {
  try {
    p.conn.send_all(frame, timeout_s);
  } catch (const std::exception&) {
    p.defunct = true;  // the next sweep drops it and requeues its work
  }
}

Fleet::Peer* Fleet::find_peer(unsigned id) const {
  for (const auto& p : peers_)
    if (p->id == id) return p.get();
  return nullptr;
}

std::uint32_t Fleet::workers_on(std::uint64_t lane_id) const {
  std::uint32_t n = 0;
  for (const auto& p : peers_)
    if (!p->defunct && p->lease == lane_id) ++n;
  return n;
}

std::uint64_t Fleet::inflight_on(std::uint64_t lane_id) const {
  std::uint64_t n = 0;
  for (const auto& p : peers_)
    if (p->lease == lane_id) n += p->inflight.size();
  return n;
}

}  // namespace gemfi::campaign
