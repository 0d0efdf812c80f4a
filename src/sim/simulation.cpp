#include "sim/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "util/log.hpp"

namespace gemfi::sim {

const char* cpu_kind_name(CpuKind k) noexcept {
  switch (k) {
    case CpuKind::AtomicSimple: return "atomic-simple";
    case CpuKind::TimingSimple: return "timing-simple";
    case CpuKind::Pipelined: return "pipelined";
  }
  return "?";
}

const char* exit_reason_name(ExitReason r) noexcept {
  switch (r) {
    case ExitReason::AllThreadsExited: return "all-threads-exited";
    case ExitReason::Crashed: return "crashed";
    case ExitReason::Watchdog: return "watchdog";
    case ExitReason::TickLimit: return "tick-limit";
    case ExitReason::Deadline: return "deadline";
  }
  return "?";
}

Simulation::Simulation(SimConfig cfg, const assembler::Program& program)
    : cfg_(cfg), program_(program), ms_(cfg.mem), sched_(cfg.quantum_insts) {
  program_.load_into(ms_);
  ms_.set_predecode_enabled(cfg_.predecode);
  ms_.set_fastpath_enabled(cfg_.fastpath);
  next_stack_top_ = ms_.phys().size() & ~15ull;
  // The sys_alloc heap sits above the apps' 256 KiB boot arena; clamp it so
  // handed-out addresses can never reach the first thread's stack.
  os::SyscallLayerConfig scfg;
  scfg.heap_base = program_.heap_base() + 256 * 1024;
  const std::uint64_t heap_lim =
      ms_.phys().size() > cfg_.stack_bytes ? ms_.phys().size() - cfg_.stack_bytes : 0;
  scfg.heap_bytes = scfg.heap_base < heap_lim
                        ? std::min(cfg_.sys_heap_bytes, heap_lim - scfg.heap_base)
                        : 0;
  scfg.file_capacity = cfg_.sys_file_capacity;
  scfg.chan_capacity = cfg_.sys_chan_capacity;
  sys_.configure(scfg);
  make_cpu(cfg_.cpu);
}

void Simulation::make_cpu(CpuKind kind) {
  cpu::ArchState saved;
  const bool had = cpu_ != nullptr;
  if (had) saved = cpu_->arch();
  switch (kind) {
    case CpuKind::AtomicSimple:
      cpu_ = std::make_unique<cpu::SimpleCpu>(ms_, /*timing=*/false);
      break;
    case CpuKind::TimingSimple:
      cpu_ = std::make_unique<cpu::SimpleCpu>(ms_, /*timing=*/true);
      break;
    case CpuKind::Pipelined:
      cpu_ = std::make_unique<cpu::PipelinedCpu>(ms_, cfg_.predictor);
      break;
  }
  active_cpu_ = kind;
  if (cfg_.fi_enabled) cpu_->set_hooks(&fm_);
  if (had) {
    cpu_->arch() = saved;
    cpu_->flush_and_redirect(saved.pc());
  }
}

std::uint64_t Simulation::spawn_thread(std::uint64_t entry,
                                       std::initializer_list<std::uint64_t> args) {
  if (args.size() > 6) throw std::invalid_argument("at most 6 thread arguments");
  cpu::ArchState ctx;
  ctx.set_pc(entry);
  ctx.set_ireg(isa::kRegGP, program_.data_base());
  if (next_stack_top_ < cfg_.stack_bytes + program_.heap_base())
    throw std::runtime_error("out of stack space for new thread");
  ctx.set_ireg(isa::kRegSP, next_stack_top_);
  next_stack_top_ -= cfg_.stack_bytes;
  unsigned argreg = isa::kRegA0;
  for (const std::uint64_t a : args) ctx.set_ireg(argreg++, a);
  return sched_.add_thread(ctx);
}

std::uint64_t Simulation::spawn_main_thread(std::initializer_list<std::uint64_t> args) {
  return spawn_thread(program_.entry, args);
}

std::uint64_t Simulation::total_committed() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t tid = 0; tid < sched_.thread_count(); ++tid)
    total += sched_.thread(tid).committed;
  return total;
}

void Simulation::ensure_thread_scheduled() {
  // Only switch when somebody is runnable; if every live thread sleeps, the
  // run loop's idle path advances the clock to the next wake instead.
  if (!sched_.has_current() && sched_.runnable_count() != 0) perform_context_switch();
}

void Simulation::perform_context_switch() {
  const os::ContextSwitchEvent ev = sched_.switch_to_next(*cpu_);
  if (cfg_.fi_enabled) fm_.on_context_switch(ev.new_pcb);
  cpu_->set_fetch_enabled(true);
  GEMFI_DEBUG("sim", "context switch -> tid=%" PRIu64 " pcb=0x%" PRIx64, ev.new_tid,
              ev.new_pcb);
}

void Simulation::dispatch_pseudo(const cpu::CommitEvent& ev) {
  using isa::PseudoFunc;
  if (ev.d.klass == isa::InstClass::Pal) return;  // CALLSYS: reserved, no-op

  os::Thread& t = sched_.current();
  const std::uint64_t a0 = cpu_->arch().ireg(isa::kRegA0);
  switch (static_cast<PseudoFunc>(ev.d.palcode)) {
    case PseudoFunc::FI_ACTIVATE:
      if (cfg_.fi_enabled) fm_.on_fi_activate(t.pcb_addr, int(std::int64_t(a0)));
      break;
    case PseudoFunc::FI_READ_INIT:
      if (checkpoint_handler_) checkpoint_handler_(*this);
      break;
    case PseudoFunc::EXIT:
      sched_.finish_current(int(std::int64_t(a0)));
      break;
    case PseudoFunc::PRINT_CHAR:
      t.output.push_back(char(a0 & 0xff));
      break;
    case PseudoFunc::PRINT_INT: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%" PRId64, std::int64_t(a0));
      t.output += buf;
      break;
    }
    case PseudoFunc::PRINT_FP: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", cpu_->arch().freg(isa::kRegA0));
      t.output += buf;
      break;
    }
    case PseudoFunc::GET_INSTRET:
      cpu_->arch().set_ireg(isa::kRegV0, t.committed);
      break;
    case PseudoFunc::YIELD:
      sched_.yield();
      break;
    case PseudoFunc::SYSCALL:
      dispatch_syscall(t);
      break;
  }
}

void Simulation::dispatch_syscall(os::Thread& t) {
  const std::uint64_t raw = cpu_->arch().ireg(isa::kRegV0);
  const os::Sysno s =
      raw < os::kNumSysnos ? static_cast<os::Sysno>(raw) : os::Sysno::Invalid;
  const std::uint64_t args[3] = {cpu_->arch().ireg(isa::kRegA0),
                                 cpu_->arch().ireg(isa::kRegA0 + 1),
                                 cpu_->arch().ireg(isa::kRegA0 + 2)};
  // The call index advances exactly once per logical call, here at first
  // dispatch, and the injection is resolved against it in the same step —
  // a preemption or latency sleep mid-call can never re-roll the decision
  // or double-apply a partial write on resume.
  const std::uint64_t idx = sys_.next_call_index(t.tid, s);
  os::SyscallInjection inj;
  if (!sysfi_.empty()) inj = sysfi_.decide(s, idx, t.tid);
  if (inj.latency != 0) {
    // Park the call; it completes (with these exact decisions) when the
    // thread wakes, writing the result into the saved context's v0. The
    // commit stream is identical to the zero-latency run — only ticks move.
    // The SYSCALL instruction's own commit is accounted here because the
    // run loop's post-dispatch on_commit() is skipped for a parked thread.
    sched_.on_commit();
    sys_.park(t.tid, s, args, idx, inj);
    sched_.sleep_current(tick_ + inj.latency);
    sched_.deschedule_current(*cpu_);
    return;
  }
  const std::int64_t res = sys_.execute(t.tid, s, args, idx, inj, ms_.phys());
  cpu_->arch().set_ireg(isa::kRegV0, std::uint64_t(res));
}

void Simulation::service_wakeups() {
  // Wake in tid order and complete each parked call with its stored
  // decisions, depositing the result in the sleeper's saved v0.
  std::vector<std::uint64_t> woken;
  sched_.wake_sleepers(tick_, woken);
  for (const std::uint64_t tid : woken) {
    if (!sys_.has_pending(tid)) continue;
    const std::int64_t res = sys_.complete_pending(tid, ms_.phys());
    sched_.thread(tid).ctx.set_ireg(isa::kRegV0, std::uint64_t(res));
  }
}

void Simulation::leave_finished_thread() {
  if (sched_.runnable_count() != 0) perform_context_switch();
  else if (!sched_.all_finished()) sched_.retire_current();
}

Simulation::Retired Simulation::retire(std::uint64_t commits, const cpu::CommitEvent* ev,
                                       RunResult& result) {
  bool need_switch = commits != 0 && sched_.on_commits(commits);
  if (ev != nullptr) {
    if (ev->trap.pending()) {
      if (ev->trap.kind != cpu::TrapKind::Halt) {
        result.reason = ExitReason::Crashed;
        result.trap = ev->trap;
        result.crash_pc = ev->pc;
        return Retired::Crashed;
      }
      sched_.finish_current(0);
      cpu_->flush_and_redirect(cpu_->arch().pc());
      leave_finished_thread();
      return Retired::ThreadLeft;
    }
    if (commit_observer_) commit_observer_(*ev, cpu_->arch());
    if (ev->is_pseudo) {
      // Pseudo-ops are serialized in ID; discard any speculative fetches
      // beyond them so FI boundaries and checkpoints see a quiesced
      // machine, then dispatch (fi_read_init_all may capture a checkpoint).
      // Dispatch sees the committed counts of everything before the
      // pseudo-op (GET_INSTRET); its own commit is accounted after.
      cpu_->flush_and_redirect(cpu_->arch().pc());
      dispatch_pseudo(*ev);
      // A latency-injected syscall parked the thread (its commit was
      // accounted inside the dispatch); the loop top reschedules.
      if (!sched_.has_current()) return Retired::ThreadLeft;
      if (sched_.current().finished) {
        leave_finished_thread();
        return Retired::ThreadLeft;
      }
    }
    if (sched_.on_commit()) need_switch = true;
  }
  if (need_switch) {
    drain_for_switch_ = true;
    cpu_->set_fetch_enabled(false);
  }
  if (drain_for_switch_ && cpu_->quiesced()) {
    drain_for_switch_ = false;
    perform_context_switch();
  }
  return Retired::Ok;
}

RunResult Simulation::run(std::uint64_t watchdog_ticks, double wall_deadline_seconds) {
  RunResult result;
  const std::uint64_t deadline = watchdog_ticks == 0 ? ~0ull : tick_ + watchdog_ticks;
  using WallClock = std::chrono::steady_clock;
  const bool wall_limited = wall_deadline_seconds > 0.0;
  const WallClock::time_point wall_deadline =
      wall_limited ? WallClock::now() + std::chrono::duration_cast<WallClock::duration>(
                                            std::chrono::duration<double>(wall_deadline_seconds))
                   : WallClock::time_point{};

  ensure_thread_scheduled();

  // Batched dispatch: with no commit observer, the simple models run
  // instructions in batches — no per-tick virtual call, CycleResult or
  // scheduler bookkeeping. Atomic batches run through the superblock tier
  // (cfg_.fastmode, on top of the predecode cache); TimingSimple batches,
  // with no FI hooks, fold each instruction's cache-latency stall into one
  // accumulation and belong to the fastpath gate. Batch boundaries land
  // exactly where the per-tick loop would act (quantum expiry, watchdog
  // budget, wall-clock sampling points, traps, pseudo-ops), so the loops are
  // bit-identical in every architectural and statistical observable; the
  // lockstep and fastmode suites check it. With fi_enabled the atomic batch
  // is bounded by the FaultManager's horizon — the instructions that
  // provably precede any armed fault's trigger — with the fetch-window
  // bookkeeping applied in bulk after the batch. The horizon
  // moves as faults arm, fire and resolve, and the active model itself can
  // switch mid-run, so atomic engagement is re-decided every iteration; the
  // timing gate's inputs are all run-constant.
  const bool fast_timing = cfg_.fastpath && !cfg_.fi_enabled && !commit_observer_ &&
                           active_cpu_ == CpuKind::TimingSimple;

  // Warp attempts cost a virtual stall_cycles() call per tick, which is pure
  // overhead on commit-dense code that never stalls. A stall window can only
  // be entered through a commitless cycle, so the attempt is skipped right
  // after a committing cycle (and right after a warp, whose next tick is by
  // construction the stall-ending event). At worst this delays a warp by one
  // tick; it never changes what warp() does, so tick-exactness is unaffected.
  bool try_warp = true;

  while (!sched_.all_finished()) {
    if (tick_ >= deadline) {
      result.reason = ExitReason::Watchdog;
      break;
    }
    // The wall clock is sampled every 4096 ticks: ~0.5 ms of simulation on
    // this host, cheap enough to never show up in Fig. 7's overhead.
    if (wall_limited && (tick_ & 0xfffull) == 0 && WallClock::now() >= wall_deadline) {
      result.reason = ExitReason::Deadline;
      break;
    }

    // Latency-delayed syscalls: wake due sleepers (completing their parked
    // calls) before any budget below is computed, then — if the CPU is empty
    // because its thread parked itself — reschedule, or idle the clock
    // forward to the earliest wake when every live thread sleeps. One branch
    // on the hot path when nobody sleeps.
    if (sched_.has_sleepers() || !sched_.has_current()) {
      service_wakeups();
      if (!sched_.has_current()) {
        if (sched_.runnable_count() != 0) {
          perform_context_switch();
        } else {
          std::uint64_t target = std::min(sched_.next_wake_tick(), deadline);
          // Honor the wall-clock sampling cadence across the idle gap.
          if (wall_limited) target = std::min<std::uint64_t>(target, (tick_ | 0xfffull) + 1);
          idle_ticks_ += target - tick_;
          tick_ = target;
          continue;  // deadline/wall checks re-run, then the wake services
        }
      }
    }

    // FI compiled in: the fault horizon bounds the atomic batch (0 hands the
    // next instruction to the per-tick interpreter and its hooks), and its
    // watch set ends a trace in front of any instruction a hook must see.
    // With fastmode off every atomic instruction runs on the per-tick loop.
    bool fast_atomic = cfg_.fastmode && cfg_.predecode && !commit_observer_ &&
                       active_cpu_ == CpuKind::AtomicSimple;
    fi::FaultManager::FastmodeBound bound;
    if (fast_atomic && cfg_.fi_enabled) {
      bound = fm_.fastmode_horizon(tick_);
      fast_atomic = bound.insts != 0;
    }
    if ((fast_atomic || fast_timing) && !drain_for_switch_) {
      std::uint64_t n = std::min(deadline - tick_, bound.insts);
      const std::uint64_t pre = sched_.commits_before_preempt();
      // Atomic retires one instruction per tick, so the commit bound is a
      // tick bound too; the timing batch takes it separately.
      if (fast_atomic && pre < n) n = pre;
      if (sched_.has_sleepers()) {
        // End the batch exactly at the earliest wake so the sleeper resumes
        // on the same tick as in the per-tick loop (>0: due wakes serviced).
        const std::uint64_t room = sched_.ticks_before_tick_event(tick_);
        if (room < n) n = room;
      }
      if (wall_limited) {
        // Stop on the next 4096-tick boundary so the wall clock is sampled
        // at the same cadence as the per-tick loop.
        const std::uint64_t chunk = 0x1000 - (tick_ & 0xfffull);
        if (chunk < n) n = chunk;
      } else if (n > 65536) {
        n = 65536;  // keep the outer loop conditions fresh
      }
      auto& scpu = static_cast<cpu::SimpleCpu&>(*cpu_);
      cpu::CommitEvent ev;
      const cpu::BatchResult br = fast_atomic
                                      ? scpu.run_trace_batch(n, ev, bound.watch)
                                      : scpu.run_timing_batch(n, pre, ev);
      tick_ += br.ticks;
      tiers_.trace += br.traced;
      tiers_.batch += br.commits - br.traced;
      if (cfg_.fi_enabled && br.ticks != 0) {
        // Bulk FI bookkeeping for the hook-free batch: every executed tick
        // was one fetch attempt, but a faulting fetch never reaches
        // on_fetch's counter in the per-tick loop, so it is not counted
        // here either. Resync now_ before any dispatch below can consult it
        // (fi_activate records its activation tick from it).
        std::uint64_t fetches = br.ticks;
        if (br.stopped && ev.trap.kind == cpu::TrapKind::FetchFault) --fetches;
        fm_.add_window_fetches(fetches);
        fm_.set_now(tick_);
      }
      if (br.ticks != 0 || br.stopped) {
        // A stop event is a trap (never committed) or a pseudo-op (the last
        // of br.commits); the commits before it retire plainly.
        const bool pseudo = br.stopped && !ev.trap.pending();
        if (retire(br.commits - (pseudo ? 1 : 0), br.stopped ? &ev : nullptr, result) ==
            Retired::Crashed)
          break;
        continue;
      }
      // Batch could not engage (e.g. fetch gated, or a watched register at
      // the PC); fall through to cycle().
    }

    // Stall-cycle warping: when the CPU guarantees its next `stall` cycles
    // are pure stall-counter decrements, advance the clock in one step
    // instead of that many no-op cycle() calls — unless an external event
    // lands in the window: the watchdog deadline, a wall-clock sampling
    // boundary, a due register/PC fault (sticky tick-relative behaviors
    // re-apply every tick, so their due tick caps the window), or a
    // scheduler tick event (none today — preemption is commit-indexed).
    // Works under FI and commit observers: neither can fire on a commitless
    // pure-stall tick.
    if (cfg_.fastpath && try_warp) {
      if (const std::uint64_t stall = cpu_->stall_cycles(); stall != 0) {
        std::uint64_t k = std::min(stall, deadline - tick_);
        if (wall_limited) {
          const std::uint64_t chunk = 0x1000 - (tick_ & 0xfffull);
          if (chunk < k) k = chunk;
        }
        if (cfg_.fi_enabled && fm_.has_direct_faults()) {
          // Warped ticks skip set_now + apply_direct_faults; stop short of
          // the first tick at which an application could fire.
          const std::uint64_t room = fm_.next_direct_fault_tick(tick_ + 1) - (tick_ + 1);
          if (room < k) k = room;
        }
        if (const std::uint64_t room = sched_.ticks_before_tick_event(tick_); room < k)
          k = room;
        if (k != 0) {
          cpu_->warp(k);
          tick_ += k;
          warped_ticks_ += k;
          // A full warp lands on the stall-ending event; a clamped one
          // leaves more warpable window.
          try_warp = k != stall;
          continue;
        }
      }
    }
    ++tick_;

    if (cfg_.fi_enabled) {
      fm_.set_now(tick_);
      // Direct faults mutate committed state between instructions; flush so
      // in-flight instructions re-execute against the corrupted state (and
      // so a corrupted PC redirects fetch).
      if (fm_.has_direct_faults() && fm_.apply_direct_faults(cpu_->arch()))
        cpu_->flush_and_redirect(cpu_->arch().pc());
    }

    const cpu::CycleResult cr = cpu_->cycle();
    try_warp = !cr.commit;
    if (cr.commit && !cr.commit->trap.pending())
      ++(active_cpu_ == CpuKind::Pipelined ? tiers_.detailed : tiers_.tick);
    if (cr.commit || drain_for_switch_) {
      const Retired r = retire(0, cr.commit ? &*cr.commit : nullptr, result);
      if (r == Retired::Crashed) break;
      if (r == Retired::ThreadLeft) continue;
    }

    // Detailed -> atomic model switch once all transient faults resolved.
    if (!mode_switch_done_ && cfg_.switch_to_atomic_after_fault &&
        active_cpu_ == CpuKind::Pipelined && cfg_.fi_enabled && !fm_.states().empty() &&
        fm_.safe_to_switch_cpu()) {
      cpu_->set_fetch_enabled(false);
      if (cpu_->quiesced()) {
        make_cpu(CpuKind::AtomicSimple);
        mode_switch_done_ = true;
        GEMFI_DEBUG("sim", "switched to atomic model at tick %" PRIu64, tick_);
      }
    }
  }

  if (sched_.all_finished()) result.reason = ExitReason::AllThreadsExited;
  result.ticks = tick_;
  result.committed = total_committed();
  return result;
}

std::string Simulation::stats_report() const {
  std::string out;
  char line[160];
  const auto put = [&](const char* name, std::uint64_t v) {
    std::snprintf(line, sizeof line, "%-40s %20" PRIu64 "\n", name, v);
    out += line;
  };
  const auto putf = [&](const char* name, double v) {
    std::snprintf(line, sizeof line, "%-40s %20.6f\n", name, v);
    out += line;
  };

  put("sim.ticks", tick_);
  put("sim.warped_ticks", warped_ticks_);
  put("sim.idle_ticks", idle_ticks_);
  put("sim.insts", total_committed());
  put("sim.tier.trace_insts", tiers_.trace);
  put("sim.tier.batch_insts", tiers_.batch);
  put("sim.tier.tick_insts", tiers_.tick);
  put("sim.tier.detailed_insts", tiers_.detailed);
  std::snprintf(line, sizeof line, "%-40s %20s\n", "cpu.model",
                cpu_kind_name(active_cpu_));
  out += line;
  const cpu::CpuStats& cs = cpu_->stats();
  put("cpu.ticks", cs.ticks);
  put("cpu.committed", cs.committed);
  put("cpu.fetched", cs.fetched);
  put("cpu.squashed", cs.squashed);
  putf("cpu.ipc", cs.ticks == 0 ? 0.0 : double(cs.committed) / double(cs.ticks));
  if (const auto* pipe = dynamic_cast<const cpu::PipelinedCpu*>(cpu_.get())) {
    const cpu::PredictorStats& ps = pipe->predictor().stats();
    put("cpu.branch.lookups", ps.lookups);
    put("cpu.branch.mispredicts", ps.mispredicts);
    putf("cpu.branch.mispredict_rate",
         ps.lookups == 0 ? 0.0 : double(ps.mispredicts) / double(ps.lookups));
  }
  const auto put_cache = [&](const char* name, const mem::CacheStats& st) {
    std::string p = std::string("mem.") + name;
    put((p + ".hits").c_str(), st.hits);
    put((p + ".misses").c_str(), st.misses);
    put((p + ".writebacks").c_str(), st.writebacks);
    putf((p + ".miss_rate").c_str(), st.miss_rate());
  };
  put_cache("l1i", ms_.l1i_stats());
  put_cache("l1d", ms_.l1d_stats());
  put_cache("l2", ms_.l2_stats());
  const isa::PredecodeStats& pd = ms_.predecode_stats();
  put("mem.predecode.hits", pd.hits);
  put("mem.predecode.fills", pd.fills);
  put("mem.predecode.stale", pd.stale);
  put("mem.predecode.bypasses", pd.bypasses);
  const isa::SuperblockStats& sb = ms_.superblock_stats();
  put("mem.superblock.hits", sb.hits);
  put("mem.superblock.builds", sb.builds);
  put("mem.superblock.stale", sb.stale);
  put("mem.superblock.evictions", sb.evictions);
  put("mem.superblock.exec_insts", sb.exec_insts);
  put("mem.superblock.traces", ms_.superblock_traces());
  for (std::uint64_t tid = 0; tid < sched_.thread_count(); ++tid) {
    const os::Thread& t = sched_.thread(tid);
    char key[64];  // separate buffer: put() renders into `line`
    std::snprintf(key, sizeof key, "thread.%" PRIu64 ".committed", tid);
    put(key, t.committed);
    std::snprintf(key, sizeof key, "thread.%" PRIu64 ".finished", tid);
    put(key, t.finished ? 1 : 0);
    std::snprintf(key, sizeof key, "thread.%" PRIu64 ".output_bytes", tid);
    put(key, t.output.size());
  }
  return out;
}

void Simulation::serialize_machine(util::ByteWriter& w) const {
  w.put_u8(std::uint8_t(active_cpu_));
  ms_.serialize_timing(w);
  cpu_->serialize(w);
  sched_.serialize(w);
  sys_.serialize(w);
  w.put_u64(tick_);
  w.put_u64(next_stack_top_);
  w.put_bool(mode_switch_done_);
}

void Simulation::deserialize_machine(util::ByteReader& r) {
  const std::uint8_t kind = r.get_u8();
  if (kind > std::uint8_t(CpuKind::Pipelined))
    throw util::DeserializeError("unknown checkpoint CPU kind");
  if (CpuKind(kind) != active_cpu_) make_cpu(CpuKind(kind));
  ms_.deserialize_timing(r);
  cpu_->deserialize(r);
  sched_.deserialize(r);
  sys_.deserialize(r);
  tick_ = r.get_u64();
  next_stack_top_ = r.get_u64();
  mode_switch_done_ = r.get_bool();
  drain_for_switch_ = false;
  tiers_ = {};
  cpu_->flush_and_redirect(cpu_->arch().pc());
  cpu_->set_fetch_enabled(true);
  // Paper contract: restoring a checkpoint resets all GemFI bookkeeping so
  // the fault configuration file can be re-read for a fresh experiment —
  // syscall-fault fired counters included.
  fm_.reset_campaign_state();
  sysfi_.reset_applied();
  fm_.set_now(tick_);
}

}  // namespace gemfi::sim
