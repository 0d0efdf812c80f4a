#include "cpu/atomic_cpu.hpp"

#include <algorithm>

namespace gemfi::cpu {

namespace {
/// Adapts StageHooks to the MemHooks consumed by do_mem().
class MemHookAdapter final : public MemHooks {
 public:
  MemHookAdapter(StageHooks& hooks, std::uint64_t fi_seq) : hooks_(hooks), fi_seq_(fi_seq) {}
  std::uint64_t on_load(std::uint64_t addr, std::uint64_t raw, unsigned bytes) override {
    return hooks_.on_load(addr, raw, bytes, fi_seq_);
  }
  std::uint64_t on_store(std::uint64_t addr, std::uint64_t raw, unsigned bytes) override {
    return hooks_.on_store(addr, raw, bytes, fi_seq_);
  }

 private:
  StageHooks& hooks_;
  std::uint64_t fi_seq_;
};
}  // namespace

CommitEvent SimpleCpu::step_one() {
  CommitEvent ev;
  ev.pc = arch_.pc();

  // --- fetch + decode ---
  // Fast path: serve the Decoded straight from the page-granular predecode
  // cache (the raw word rides along in Decoded::raw for the fetch hook).
  // Slow path — cache disabled, unmapped/misaligned PC, or a fetch-stage
  // fault that corrupted the word in flight — fetches and decodes live.
  ++stats_.fetched;
  if (timing_) busy_ += ms_.fetch_latency(ev.pc);
  const isa::Decoded* pre = ms_.predecode(ev.pc);
  std::uint32_t word = 0;
  if (pre != nullptr) {
    word = pre->raw;
  } else {
    const mem::AccessError fe = ms_.fetch(ev.pc, word);
    if (fe != mem::AccessError::None) {
      ev.trap = {TrapKind::FetchFault, fe, ev.pc};
      return ev;
    }
  }
  if (hooks_ != nullptr) {
    const auto fr = hooks_->on_fetch(ev.pc, word);
    ev.fi_seq = fr.fi_seq;
    if (pre != nullptr && fr.word == word) {
      ev.d = *pre;
    } else {
      // FI corrupted the instruction word between memory and decode: the
      // cached entry describes the uncorrupted word, so decode live.
      if (pre != nullptr) ms_.note_predecode_bypass();
      ev.d = isa::decode(fr.word);
    }
    hooks_->on_decode(ev.d, ev.pc, ev.fi_seq);
  } else {
    ev.d = pre != nullptr ? *pre : isa::decode(word);
  }

  exec_one(ev);
  return ev;
}

void SimpleCpu::exec_one(CommitEvent& ev) {
  // --- execute ---
  const Operands ops = read_operands(ev.d, arch_);
  ExecOut out = execute(ev.d, ops, ev.pc);
  if (hooks_ != nullptr) hooks_->on_execute(out, ev.d, ev.pc, ev.fi_seq);
  if (out.trap.pending()) {
    ev.trap = out.trap;
    return;
  }

  // --- memory ---
  if (ev.d.is_mem_access()) {
    if (timing_) busy_ += ms_.data_latency(out.mem_addr, ev.d.is_store());
    TrapInfo mt;
    if (hooks_ != nullptr) {
      MemHookAdapter mh(*hooks_, ev.fi_seq);
      mt = do_mem(ev.d, out, ms_, &mh);
    } else {
      mt = do_mem(ev.d, out, ms_);
    }
    if (mt.pending()) {
      ev.trap = mt;
      return;
    }
  }

  // --- writeback / commit ---
  writeback(ev.d, out, arch_);
  ev.is_pseudo = out.is_pseudo;
  if (hooks_ != nullptr) hooks_->on_commit(ev.d, ev.pc, ev.fi_seq);
  ++stats_.committed;
}

void SimpleCpu::make_stop_event(CommitEvent& ev, const isa::Decoded* d, std::uint64_t pc,
                                const TrapInfo& trap, bool is_pseudo) noexcept {
  ev = CommitEvent{};
  if (d != nullptr) ev.d = *d;  // null only on a fetch fault
  ev.pc = pc;
  ev.trap = trap;
  ev.is_pseudo = is_pseudo;
}

bool SimpleCpu::atomic_batch_step(BatchResult& br, CommitEvent& ev, std::uint64_t watch) {
  const std::uint64_t pc = arch_.pc();
  const isa::Decoded* d = ms_.predecode(pc);
  isa::Decoded live;
  if (d == nullptr) {
    // Cache miss path: disabled cache, unmapped/misaligned PC. Fetch and
    // decode live, reproducing the exact AccessError on a bad PC.
    std::uint32_t word = 0;
    const mem::AccessError fe = ms_.fetch(pc, word);
    if (fe != mem::AccessError::None) {
      ++br.ticks;
      make_stop_event(ev, nullptr, pc, {TrapKind::FetchFault, fe, pc}, false);
      br.stopped = true;
      return false;
    }
    live = isa::decode(word);
    d = &live;
  }
  if ((d->watch_mask() & watch) != 0) return false;
  ++br.ticks;
  const Operands ops = read_operands(*d, arch_);
  ExecOut out = execute(*d, ops, pc);
  if (out.trap.pending()) {
    make_stop_event(ev, d, pc, out.trap, false);
    br.stopped = true;
    return false;
  }
  if (d->is_mem_access()) {
    const TrapInfo mt = do_mem(*d, out, ms_);
    if (mt.pending()) {
      make_stop_event(ev, d, pc, mt, false);
      br.stopped = true;
      return false;
    }
  }
  writeback(*d, out, arch_);
  ++br.commits;
  if (out.is_pseudo) {
    make_stop_event(ev, d, pc, TrapInfo{}, true);
    br.stopped = true;
    return false;
  }
  return true;
}

BatchResult SimpleCpu::run_timing_batch(std::uint64_t max_ticks, std::uint64_t max_commits,
                                        CommitEvent& ev) {
  BatchResult br;
  if (!timing_ || hooks_ != nullptr || !fetch_enabled_) return br;
  while (br.ticks < max_ticks && br.commits < max_commits && !br.stopped) {
    if (busy_ > 0) {
      // Drain a stall carried in from a previous batch boundary; surfacing
      // happens on the tick the counter reaches zero, as in cycle().
      const std::uint64_t step = std::min<std::uint64_t>(busy_, max_ticks - br.ticks);
      busy_ -= std::uint32_t(step);
      br.ticks += step;
      if (busy_ != 0) break;  // budget expired mid-stall
      if (pending_) {
        ev = std::move(*pending_);
        pending_.reset();
        if (ev.trap.pending() || ev.is_pseudo) {
          if (ev.is_pseudo) ++br.commits;
          br.stopped = true;
          break;
        }
        ++br.commits;
      }
      continue;
    }

    // Execute one instruction, accumulating its charged latency instead of
    // idling busy_ down tick by tick. Identical event flow to step_one(),
    // but the CommitEvent (and its embedded Decoded copy) is materialized
    // only on the rare trap/pseudo/boundary exits — the retire-and-continue
    // path touches nothing but the architectural state and counters.
    const std::uint64_t pc = arch_.pc();
    ++stats_.fetched;
    std::uint32_t lat = ms_.fetch_latency(pc);
    const isa::Decoded* pre = ms_.predecode(pc);
    isa::Decoded live;
    TrapInfo trap;
    bool is_pseudo = false;
    if (pre == nullptr) {
      std::uint32_t word = 0;
      const mem::AccessError fe = ms_.fetch(pc, word);
      if (fe != mem::AccessError::None) {
        trap = {TrapKind::FetchFault, fe, pc};
      } else {
        live = isa::decode(word);
        pre = &live;
      }
    }
    if (!trap.pending()) {
      const Operands ops = read_operands(*pre, arch_);
      ExecOut out = execute(*pre, ops, pc);
      if (out.trap.pending()) {
        trap = out.trap;
      } else {
        TrapInfo mt;
        if (pre->is_mem_access()) {
          lat += ms_.data_latency(out.mem_addr, pre->is_store());
          mt = do_mem(*pre, out, ms_);
        }
        if (mt.pending()) {
          trap = mt;
        } else {
          writeback(*pre, out, arch_);
          is_pseudo = out.is_pseudo;
          ++stats_.committed;
        }
      }
    }

    const std::uint64_t cost = lat > 0 ? lat : 1;  // the executing tick itself
    const std::uint64_t avail = max_ticks - br.ticks;
    const bool stopping = trap.pending() || is_pseudo;
    if (cost <= avail && !stopping) {
      br.ticks += cost;
      ++br.commits;
      continue;
    }
    CommitEvent cev;
    make_stop_event(cev, pre, pc, trap, is_pseudo);
    if (cost > avail) {
      // The stall crosses the batch boundary: consume what is left and park
      // the event exactly as the per-tick loop stands mid-stall (commit not
      // yet surfaced, so it is not in br.commits).
      busy_ = std::uint32_t(cost - avail);
      pending_ = std::move(cev);
      br.ticks += avail;
      break;
    }
    br.ticks += cost;
    if (is_pseudo && !trap.pending()) ++br.commits;
    ev = std::move(cev);
    br.stopped = true;
    break;
  }
  stats_.ticks += br.ticks;
  return br;
}

CycleResult SimpleCpu::cycle() {
  ++stats_.ticks;
  if (busy_ > 0) {
    --busy_;
    if (busy_ == 0 && pending_) {
      CycleResult r{std::move(pending_)};
      pending_.reset();
      return r;
    }
    return {};
  }
  if (pending_) {  // busy_ was zero with a queued commit (timing edge case)
    CycleResult r{std::move(pending_)};
    pending_.reset();
    return r;
  }
  if (!fetch_enabled_) return {};

  CommitEvent ev = step_one();
  if (timing_ && busy_ > 0) {
    // Charge the stall before surfacing the commit so ticks line up.
    pending_ = std::move(ev);
    --busy_;
    if (busy_ == 0) {
      CycleResult r{std::move(pending_)};
      pending_.reset();
      return r;
    }
    return {};
  }
  busy_ = 0;
  return {std::move(ev)};
}

void SimpleCpu::flush_and_redirect(std::uint64_t new_pc) {
  arch_.set_pc(new_pc);
  busy_ = 0;
  pending_.reset();
}

void SimpleCpu::serialize(util::ByteWriter& w) const {
  arch_.serialize(w);
  w.put_bool(timing_);
  w.put_u64(stats_.ticks);
  w.put_u64(stats_.committed);
  w.put_u64(stats_.fetched);
  w.put_u64(stats_.squashed);
}

void SimpleCpu::deserialize(util::ByteReader& r) {
  arch_.deserialize(r);
  timing_ = r.get_bool();
  stats_.ticks = r.get_u64();
  stats_.committed = r.get_u64();
  stats_.fetched = r.get_u64();
  stats_.squashed = r.get_u64();
  busy_ = 0;
  pending_.reset();
}

}  // namespace gemfi::cpu
