#include "fi/fault_manager.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "isa/encoding.hpp"
#include "isa/registers.hpp"
#include "util/bits.hpp"
#include "util/log.hpp"

namespace gemfi::fi {

namespace {

/// End of a fault's live window: f.time + f.occurrences, saturating.
/// Plain addition wraps for finite occurrence counts near kPermanent
/// (e.g. occ = kPermanent - 1), silently deactivating a fault that should
/// stay live for the rest of the run.
constexpr std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) noexcept {
  const std::uint64_t s = a + b;
  return s < a ? ~0ull : s;
}

/// The canonical uAlpha NOP (bis r31, r31, r31): what a skip attack leaves
/// in place of the fetched instruction.
constexpr std::uint32_t kNopWord = isa::encode_operate(isa::Opcode::INTL, 0x20, 31, 31, 31);

/// Bound injection-log growth: a permanent stuck-at fault re-asserts every
/// tick for the rest of the run, which would otherwise accumulate one log
/// line per tick. Applications beyond the cap still count in FaultState.
constexpr std::size_t kMaxLogEntries = 4096;

}  // namespace

void FaultManager::load_faults(std::vector<Fault> faults) {
  config_ = std::move(faults);
  reset_campaign_state();
}

void FaultManager::reset_campaign_state() {
  threads_.clear();
  cur_ = nullptr;
  log_.clear();
  states_.clear();
  states_.reserve(config_.size());
  for (const Fault& f : config_) {
    FaultState fs;
    fs.fault = f;
    states_.push_back(std::move(fs));
  }

  q_fetch_.clear();
  q_decode_.clear();
  q_execute_.clear();
  q_mem_.clear();
  q_direct_.clear();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    switch (states_[i].fault.location) {
      case FaultLocation::Fetch:
      case FaultLocation::Skip:
      case FaultLocation::Opcode: q_fetch_.push_back(i); break;
      case FaultLocation::Decode: q_decode_.push_back(i); break;
      case FaultLocation::Execute: q_execute_.push_back(i); break;
      case FaultLocation::LoadStore: q_mem_.push_back(i); break;
      case FaultLocation::IntReg:
      case FaultLocation::FpReg:
      case FaultLocation::PC: q_direct_.push_back(i); break;
    }
  }
  const auto by_time = [this](std::size_t a, std::size_t b) {
    return states_[a].fault.time < states_[b].fault.time;
  };
  std::sort(q_fetch_.begin(), q_fetch_.end(), by_time);
  std::sort(q_decode_.begin(), q_decode_.end(), by_time);
  std::sort(q_execute_.begin(), q_execute_.end(), by_time);
  std::sort(q_mem_.begin(), q_mem_.end(), by_time);
  std::sort(q_direct_.begin(), q_direct_.end(), by_time);
}

ThreadEnabledFault* FaultManager::find_thread(std::uint64_t pcb) noexcept {
  const auto it = threads_.find(pcb);
  return it == threads_.end() ? nullptr : it->second.get();
}

bool FaultManager::on_fi_activate(std::uint64_t pcb, int user_id) {
  if (ThreadEnabledFault* t = find_thread(pcb); t != nullptr) {
    // Second invocation toggles fault injection off (paper Sec. III-A).
    last_deactivated_fetched_ = t->fetched;
    if (cur_ == t) cur_ = nullptr;
    threads_.erase(pcb);
    GEMFI_DEBUG("fi", "fi_activate: FI disabled for pcb=0x%llx",
                static_cast<unsigned long long>(pcb));
    return false;
  }
  auto t = std::make_unique<ThreadEnabledFault>();
  t->user_id = user_id;
  t->pcb = pcb;
  t->activation_tick = now_;
  cur_ = t.get();
  threads_.emplace(pcb, std::move(t));
  GEMFI_DEBUG("fi", "fi_activate: FI enabled for pcb=0x%llx id=%d",
              static_cast<unsigned long long>(pcb), user_id);
  return true;
}

void FaultManager::on_context_switch(std::uint64_t new_pcb) {
  cur_ = find_thread(new_pcb);
}

// Memory-transaction faults ride on load/store instructions, which are a
// sparse subsequence of the fetch stream: an Inst:N trigger arms the fault
// at the Nth fetched instruction and it fires on the next `occurrences`
// memory transactions from that point, so a fault scheduled "at" a
// non-memory instruction hits the transaction that follows it.
bool FaultManager::mem_triggers(const FaultState& fs, std::uint64_t fi_seq) const noexcept {
  const Fault& f = fs.fault;
  if (cur_ == nullptr || f.thread_id != cur_->user_id || f.core != core_id_) return false;
  if (f.occurrences != kPermanent && fs.applied >= f.occurrences) return false;
  if (f.time_kind == FaultTimeKind::Instruction)
    return fi_seq >= f.time && f.duty_on(fi_seq - f.time);
  return now_ - cur_->activation_tick >= f.time && f.duty_on(fi_seq);
}

bool FaultManager::stage_triggers(const FaultState& fs, std::uint64_t fi_seq) const noexcept {
  const Fault& f = fs.fault;
  if (cur_ == nullptr || f.thread_id != cur_->user_id || f.core != core_id_) return false;
  if (f.occurrences != kPermanent && fs.applied >= f.occurrences) return false;
  if (f.time_kind == FaultTimeKind::Instruction) {
    if (fi_seq < f.time) return false;
    // Duty cycling is phased off the per-thread fetch counter relative to
    // the trigger: deterministic under replay, and the first duty_active
    // instructions after the trigger are the first active window.
    if (!f.duty_on(fi_seq - f.time)) return false;
    // A PC-windowed attack waits for the target window instead of firing on
    // consecutive fetches; the applied count alone bounds its occurrences.
    if (f.has_pc_window()) return true;
    return f.occurrences == kPermanent || fi_seq < sat_add(f.time, f.occurrences);
  }
  if (now_ - cur_->activation_tick < f.time) return false;
  return f.duty_on(fi_seq);
}

void FaultManager::record(FaultState& fs, std::uint64_t fi_seq, std::uint64_t pc,
                          const std::string& what, std::uint64_t before,
                          std::uint64_t after) {
  ++fs.applied;
  fs.affected_seq = fi_seq;
  if (fs.applied == 1) {
    fs.original_value = before;
    fs.corrupted_value = after;
  }
  if (before != after) fs.value_changed = true;
  if (log_.size() >= kMaxLogEntries) return;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "tick=%" PRIu64 " pc=0x%" PRIx64 " seq=%" PRIu64
                " %s: %s 0x%" PRIx64 " -> 0x%" PRIx64,
                now_, pc, fi_seq, fault_location_name(fs.fault.location), what.c_str(),
                before, after);
  log_.emplace_back(buf);
  GEMFI_DEBUG("fi", "inject %s", buf);
}

FaultManager::FetchResult FaultManager::on_fetch(std::uint64_t pc, std::uint32_t word) {
  if (cur_ == nullptr) return {word, 0};
  const std::uint64_t seq = ++cur_->fetched;
  for (const std::size_t i : q_fetch_) {
    FaultState& fs = states_[i];
    if (!stage_triggers(fs, seq) || fs.last_marker == seq) continue;
    if (!fs.fault.pc_in_window(pc)) continue;  // attack waits for its window
    fs.last_marker = seq;
    std::uint32_t corrupted;
    const char* what;
    switch (fs.fault.location) {
      case FaultLocation::Skip:
        // Attack model: the targeted instruction is replaced wholesale with
        // a NOP, as if the fault suppressed its issue (InjectV-style skip).
        corrupted = kNopWord;
        what = "skipped-instruction '";
        break;
      case FaultLocation::Opcode:
        // Attack model: only the opcode field [31:26] is corrupted, turning
        // the instruction into a different operation on the same operands.
        corrupted = std::uint32_t(
            util::insert_bits(word, 26, 6, fs.fault.corrupt(util::bits(word, 26, 6), 6)));
        what = "opcode-field '";
        break;
      default:
        corrupted = std::uint32_t(fs.fault.corrupt(word, 32));
        what = "instruction-word '";
        break;
    }
    // For the attack models the victim instruction is the forensically
    // interesting one; for plain fetch corruption, what now executes.
    const std::uint32_t shown =
        fs.fault.location == FaultLocation::Skip ? word : corrupted;
    fs.affected_disasm = isa::disassemble(isa::decode(shown), pc);
    record(fs, seq, pc, what + fs.affected_disasm + "'", word, corrupted);
    word = corrupted;
  }
  return {word, seq};
}

void FaultManager::on_decode(isa::Decoded& d, std::uint64_t pc, std::uint64_t fi_seq) {
  if (fi_seq == 0) return;
  for (const std::size_t i : q_decode_) {
    FaultState& fs = states_[i];
    if (!stage_triggers(fs, fi_seq) || fs.last_marker == fi_seq) continue;
    fs.last_marker = fi_seq;
    const unsigned lo = fs.fault.decode_field == DecodeField::Ra   ? 21u
                        : fs.fault.decode_field == DecodeField::Rb ? 16u
                                                                   : 0u;
    const std::uint64_t before = util::bits(d.raw, lo, 5);
    const std::uint64_t after = fs.fault.corrupt(before, 5);
    const std::uint32_t raw2 =
        std::uint32_t(util::insert_bits(d.raw, lo, 5, after));
    d = isa::decode(raw2);
    fs.affected_disasm = isa::disassemble(d, pc);
    record(fs, fi_seq, pc, "register-selection '" + fs.affected_disasm + "'", before, after);
  }
}

void FaultManager::on_execute(cpu::ExecOut& out, const isa::Decoded& d, std::uint64_t pc,
                              std::uint64_t fi_seq) {
  if (fi_seq == 0) return;
  for (const std::size_t i : q_execute_) {
    FaultState& fs = states_[i];
    if (!stage_triggers(fs, fi_seq) || fs.last_marker == fi_seq) continue;
    fs.last_marker = fi_seq;
    fs.affected_disasm = isa::disassemble(d, pc);
    if (d.is_mem_access()) {
      // The execution stage computes the virtual address of memory
      // transfers; faults here corrupt it (paper Sec. IV-B-2).
      const std::uint64_t before = out.mem_addr;
      out.mem_addr = fs.fault.corrupt(before, 64);
      record(fs, fi_seq, pc, "effective-address of '" + fs.affected_disasm + "'", before,
             out.mem_addr);
    } else if (d.is_control()) {
      const std::uint64_t before = out.next_pc;
      out.next_pc = fs.fault.corrupt(before, 64);
      record(fs, fi_seq, pc, "branch-outcome of '" + fs.affected_disasm + "'", before,
             out.next_pc);
    } else if (out.writes_dst) {
      const std::uint64_t before = out.value;
      out.value = fs.fault.corrupt(before, 64);
      record(fs, fi_seq, pc, "result of '" + fs.affected_disasm + "'", before, out.value);
    } else {
      // Instruction with no architectural result (e.g. a pseudo-op):
      // the fault occupies the stage but has nothing to corrupt.
      record(fs, fi_seq, pc, "no-result '" + fs.affected_disasm + "'", 0, 0);
    }
  }
}

std::uint64_t FaultManager::on_load(std::uint64_t addr, std::uint64_t raw, unsigned bytes,
                                    std::uint64_t fi_seq) {
  if (fi_seq == 0) return raw;
  for (const std::size_t i : q_mem_) {
    FaultState& fs = states_[i];
    if (!mem_triggers(fs, fi_seq) || fs.last_marker == fi_seq) continue;
    fs.last_marker = fi_seq;
    const std::uint64_t before = raw;
    raw = fs.fault.corrupt(raw, bytes * 8);
    char what[64];
    std::snprintf(what, sizeof what, "load-data @0x%" PRIx64, addr);
    record(fs, fi_seq, 0, what, before, raw);
  }
  return raw;
}

std::uint64_t FaultManager::on_store(std::uint64_t addr, std::uint64_t raw, unsigned bytes,
                                     std::uint64_t fi_seq) {
  if (fi_seq == 0) return raw;
  for (const std::size_t i : q_mem_) {
    FaultState& fs = states_[i];
    if (!mem_triggers(fs, fi_seq) || fs.last_marker == fi_seq) continue;
    fs.last_marker = fi_seq;
    const std::uint64_t before = raw;
    raw = fs.fault.corrupt(raw, bytes * 8);
    char what[64];
    std::snprintf(what, sizeof what, "store-data @0x%" PRIx64, addr);
    record(fs, fi_seq, 0, what, before, raw);
  }
  return raw;
}

std::uint64_t FaultManager::next_direct_fault_tick(std::uint64_t from) const noexcept {
  if (cur_ == nullptr) return ~0ull;  // (re)activation is a commit-side event
  std::uint64_t next = ~0ull;
  for (const std::size_t i : q_direct_) {
    const FaultState& fs = states_[i];
    const Fault& f = fs.fault;
    if (f.thread_id != cur_->user_id || f.core != core_id_) continue;
    if (f.occurrences != kPermanent && fs.applied >= f.occurrences) continue;
    if (f.time_kind == FaultTimeKind::Instruction) {
      // Keyed on the fetched-instruction index, which is frozen during a
      // stall: armed-and-unapplied fires immediately, everything else not
      // before the next fetch. The duty phase is keyed on the same frozen
      // counter, so an inactive phase stays inactive for the whole stall.
      if (cur_->fetched < f.time) continue;
      if (f.occurrences != kPermanent &&
          cur_->fetched >= sat_add(f.time, f.occurrences))
        continue;
      if (!f.duty_on(cur_->fetched - f.time)) continue;
      if (fs.last_marker == cur_->fetched) continue;
      return from;
    }
    if (!f.duty_on(cur_->fetched)) continue;
    const bool instruction_marked = !Fault::sticky_behavior(f.behavior);
    if (instruction_marked && fs.last_marker == cur_->fetched) continue;
    const std::uint64_t due = cur_->activation_tick + f.time;
    next = std::min(next, due > from ? due : from);
  }
  return next;
}

bool FaultManager::apply_direct_faults(cpu::ArchState& st) {
  if (cur_ == nullptr) return false;
  bool applied_any = false;
  for (const std::size_t i : q_direct_) {
    FaultState& fs = states_[i];
    const Fault& f = fs.fault;
    if (f.thread_id != cur_->user_id || f.core != core_id_) continue;
    if (f.occurrences != kPermanent && fs.applied >= f.occurrences) continue;

    // Timing: instruction-relative faults fire once per new fetched index;
    // tick-relative faults fire once per tick. Sticky behaviors (Imm,
    // AllZero, AllOne, StuckAt0/1) model persistent defects when reapplied;
    // self-inverting behaviors (Flip, Xor, Burst, RandK) are applied at
    // instruction boundaries so a "permanent" flip does not cancel itself
    // out within one instruction.
    std::uint64_t marker;
    if (f.time_kind == FaultTimeKind::Instruction) {
      if (cur_->fetched < f.time) continue;
      if (f.occurrences != kPermanent &&
          cur_->fetched >= sat_add(f.time, f.occurrences))
        continue;
      if (!f.duty_on(cur_->fetched - f.time)) continue;
      marker = cur_->fetched;
    } else {
      if (now_ - cur_->activation_tick < f.time) continue;
      if (!f.duty_on(cur_->fetched)) continue;
      marker = Fault::sticky_behavior(f.behavior) ? now_ : cur_->fetched;
    }
    if (fs.last_marker == marker) continue;
    fs.last_marker = marker;

    if (f.location == FaultLocation::PC) {
      const std::uint64_t before = st.pc();
      const std::uint64_t after = f.corrupt(before, 64);
      st.set_pc(after);
      record(fs, cur_->fetched, before, "PC", before, after);
      fs.consumed = true;  // a corrupted PC is consumed immediately
      if (after != before) applied_any = true;
    } else {
      const bool fp = f.location == FaultLocation::FpReg;
      const std::uint64_t before = fp ? st.freg_bits(f.reg) : st.ireg(f.reg);
      const std::uint64_t after = f.corrupt(before, 64);
      if (fp)
        st.set_freg_bits(f.reg, after);
      else
        st.set_ireg(f.reg, after);
      const std::string name(fp ? isa::fp_reg_name(f.reg) : isa::int_reg_name(f.reg));
      record(fs, cur_->fetched, st.pc(), "register " + name, before, after);
      // Writes to the hardwired zero register can never propagate.
      if ((fp && f.reg == isa::kFpZeroReg) || (!fp && f.reg == isa::kZeroReg))
        fs.value_changed = false;
      // Only a value-changing application needs the precise-boundary flush;
      // idempotent stuck-at re-applications must not stall the pipeline.
      if (after != before) applied_any = true;
    }
  }
  return applied_any;
}

void FaultManager::on_commit(const isa::Decoded& d, std::uint64_t pc, std::uint64_t fi_seq) {
  (void)pc;
  for (FaultState& fs : states_) {
    if (fs.applied == 0) continue;
    switch (fs.fault.location) {
      case FaultLocation::Fetch:
      case FaultLocation::Decode:
      case FaultLocation::Execute:
      case FaultLocation::LoadStore:
      case FaultLocation::Skip:
      case FaultLocation::Opcode:
        if (!fs.consumed && !fs.squashed && fs.affected_seq == fi_seq && fi_seq != 0)
          fs.consumed = true;
        break;
      case FaultLocation::IntReg:
      case FaultLocation::FpReg: {
        if (fs.consumed || fs.overwritten) break;
        const bool fp = fs.fault.location == FaultLocation::FpReg;
        const unsigned r = fs.fault.reg;
        const bool reads = (d.src1 == r && d.src1_fp == fp) ||
                           (d.src2 == r && d.src2_fp == fp);
        // A still-live sticky fault (stuck-at) re-asserts after any
        // overwrite, so the overwrite does not end its ability to propagate.
        const bool live_sticky =
            Fault::sticky_behavior(fs.fault.behavior) &&
            (fs.fault.occurrences == kPermanent || fs.applied < fs.fault.occurrences);
        if (reads) {
          fs.consumed = true;
        } else if (d.dst == r && d.dst_fp == fp && !live_sticky) {
          fs.overwritten = true;
        }
        break;
      }
      case FaultLocation::PC:
        break;  // consumed at injection
    }
  }
}

void FaultManager::on_squash(std::uint64_t fi_seq) {
  if (fi_seq == 0) return;
  for (FaultState& fs : states_) {
    switch (fs.fault.location) {
      case FaultLocation::Fetch:
      case FaultLocation::Decode:
      case FaultLocation::Execute:
      case FaultLocation::LoadStore:
      case FaultLocation::Skip:
      case FaultLocation::Opcode:
        if (fs.applied > 0 && !fs.consumed && fs.affected_seq == fi_seq) fs.squashed = true;
        break;
      default:
        break;
    }
  }
}

bool FaultManager::any_applied() const noexcept {
  for (const FaultState& fs : states_)
    if (fs.applied > 0) return true;
  return false;
}

bool FaultManager::any_propagated() const noexcept {
  for (const FaultState& fs : states_)
    if (fs.propagated()) return true;
  return false;
}

bool FaultManager::safe_to_switch_cpu() const noexcept {
  for (const FaultState& fs : states_) {
    const Fault& f = fs.fault;
    if (f.occurrences != 1) return false;  // intermittent/permanent: stay detailed
    if (fs.applied == 0) return false;     // not injected yet
    switch (f.location) {
      case FaultLocation::Fetch:
      case FaultLocation::Decode:
      case FaultLocation::Execute:
      case FaultLocation::LoadStore:
      case FaultLocation::Skip:
      case FaultLocation::Opcode:
        // Paper: continue detailed until the affected instruction commits
        // or squashes.
        if (!fs.consumed && !fs.squashed) return false;
        break;
      case FaultLocation::IntReg:
      case FaultLocation::FpReg:
      case FaultLocation::PC:
        break;  // damage applied directly to architectural state
    }
  }
  return true;
}

FaultManager::FastmodeBound FaultManager::fastmode_horizon(
    std::uint64_t now) const noexcept {
  FastmodeBound bound;
  for (const FaultState& fs : states_) {
    const Fault& f = fs.fault;
    const bool fp = f.location == FaultLocation::FpReg;
    const bool reg = fp || f.location == FaultLocation::IntReg;
    const bool direct = reg || f.location == FaultLocation::PC;
    if (fs.applied != 0 && !fs.consumed) {
      if (!direct && !fs.squashed) return {0, 0};
      if (reg && !fs.overwritten) bound.watch |= 1ull << (f.reg + (fp ? 32 : 0));
    }
    const bool live = f.occurrences == kPermanent || fs.applied < f.occurrences;
    if (cur_ == nullptr || !live || f.thread_id != cur_->user_id || f.core != core_id_)
      continue;
    std::uint64_t room = 0;
    if (f.time_kind == FaultTimeKind::Tick) {
      const std::uint64_t due = sat_add(cur_->activation_tick, f.time);
      if (due > now + 1) room = due - now - 1;
    } else {
      const std::uint64_t seen = cur_->fetched + (direct ? 0 : 1);
      if (seen < f.time) {
        room = f.time - seen;
      } else if (f.location != FaultLocation::LoadStore && !f.has_pc_window() &&
                 f.occurrences != kPermanent && seen >= sat_add(f.time, f.occurrences)) {
        continue;  // the trigger window closed without the fault firing
      }
    }
    if (room == 0 && f.location == FaultLocation::LoadStore) {
      bound.watch |= isa::kWatchMemAccess;  // fires on the next transaction
      continue;
    }
    if (room == 0) return {0, 0};
    bound.insts = std::min(bound.insts, room);
  }
  return bound;
}

}  // namespace gemfi::fi
