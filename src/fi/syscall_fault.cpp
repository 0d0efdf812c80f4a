#include "fi/syscall_fault.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace gemfi::fi {

namespace {

constexpr std::uint64_t kPpm = 1'000'000;

[[noreturn]] void bad(const std::string& line, const std::string& why) {
  throw std::invalid_argument("bad syscall plan '" + line + "': " + why);
}

/// Render a ppm value as a trimmed decimal fraction: 1000000 -> "1",
/// 500000 -> "0.5", 123456 -> "0.123456", 0 -> "0".
std::string ppm_to_frac(std::uint64_t ppm) {
  if (ppm == kPpm) return "1";
  if (ppm == 0) return "0";
  char buf[24];  // any u64 in decimal, plus the terminator
  std::snprintf(buf, sizeof buf, "%06" PRIu64, ppm);
  std::string digits = buf;
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  return "0." + digits;
}

/// Parse a decimal fraction in [0, 1] with at most 6 fractional digits into
/// ppm — the exact inverse of ppm_to_frac(), so round-trips are byte-exact.
std::uint64_t frac_to_ppm(const std::string& line, const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789.") != std::string::npos)
    bad(line, "malformed fraction '" + s + "'");
  const std::size_t dot = s.find('.');
  const std::string ip = dot == std::string::npos ? s : s.substr(0, dot);
  const std::string fp = dot == std::string::npos ? "" : s.substr(dot + 1);
  if (ip.empty() || fp.size() > 6 || s.find('.', dot + 1) != std::string::npos)
    bad(line, "malformed fraction '" + s + "'");
  const std::uint64_t whole = std::strtoull(ip.c_str(), nullptr, 10);
  std::uint64_t frac = 0;
  for (std::size_t i = 0; i < 6; ++i)
    frac = frac * 10 + (i < fp.size() ? std::uint64_t(fp[i] - '0') : 0);
  const std::uint64_t ppm = whole * kPpm + frac;
  if (ppm > kPpm) bad(line, "fraction '" + s + "' out of [0, 1]");
  return ppm;
}

std::uint64_t parse_u64(const std::string& line, const std::string& s, int base) {
  if (s.empty()) bad(line, "missing number");
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, base);
  if (end == nullptr || *end != '\0') bad(line, "malformed number '" + s + "'");
  return v;
}

/// Split "VALUE@0xSEED" (seed optional) for p:/corrupt: clauses.
void split_seed(const std::string& line, const std::string& s, std::string& value,
                std::uint64_t& seed) {
  const std::size_t at = s.find('@');
  value = s.substr(0, at);
  seed = 0;
  if (at != std::string::npos) {
    const std::string sd = s.substr(at + 1);
    if (sd.rfind("0x", 0) != 0) bad(line, "seed must be 0x-hex in '" + s + "'");
    seed = parse_u64(line, sd.substr(2), 16);
  }
}

}  // namespace

std::string SyscallFaultPlan::to_line() const {
  std::ostringstream os;
  os << (matches_any_syscall() ? "*" : os::sysno_name(target));
  if (idx_lo != 1 || idx_hi != ~0ull) {
    os << "@idx:" << idx_lo;
    if (idx_hi != idx_lo) os << "-" << idx_hi;
  }
  if (tid >= 0) os << " tid:" << tid;
  if (prob_ppm != kPpm) {
    os << " p:" << ppm_to_frac(prob_ppm);
    char buf[24];
    std::snprintf(buf, sizeof buf, "@0x%" PRIx64, prob_seed);
    os << buf;
  }
  if (has_errno) os << " errno:" << os::errno_name(errno_code);
  if (has_latency) os << " latency:" << latency_ticks;
  if (has_partial) os << " partial:" << ppm_to_frac(partial_ppm);
  if (has_corrupt) {
    os << " corrupt";
    if (corrupt_bits != 1 || corrupt_seed != 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, ":%u@0x%" PRIx64, unsigned(corrupt_bits),
                    corrupt_seed);
      os << buf;
    }
  }
  return os.str();
}

SyscallFaultPlan parse_syscall_plan(const std::string& line) {
  SyscallFaultPlan p;
  std::istringstream is(line);
  std::vector<std::string> toks;
  for (std::string t; is >> t;) toks.push_back(t);
  if (toks.empty()) bad(line, "empty");

  // Selector: <name|*>[@idx:LO[-HI]]
  std::string sel = toks[0];
  const std::size_t at = sel.find('@');
  if (at != std::string::npos) {
    const std::string window = sel.substr(at + 1);
    sel = sel.substr(0, at);
    if (window.rfind("idx:", 0) != 0) bad(line, "expected @idx:... in selector");
    const std::string range = window.substr(4);
    const std::size_t dash = range.find('-');
    p.idx_lo = parse_u64(line, range.substr(0, dash), 10);
    p.idx_hi = dash == std::string::npos ? p.idx_lo
                                         : parse_u64(line, range.substr(dash + 1), 10);
    if (p.idx_lo == 0 || p.idx_hi < p.idx_lo) bad(line, "bad call-index window");
  }
  if (sel != "*") {
    p.target = os::sysno_from_name(sel.c_str());
    if (p.target == os::Sysno::Invalid) bad(line, "unknown syscall '" + sel + "'");
  }

  bool have_behavior = false;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    const std::string& t = toks[i];
    if (t.rfind("tid:", 0) == 0) {
      p.tid = std::int64_t(parse_u64(line, t.substr(4), 10));
    } else if (t.rfind("p:", 0) == 0) {
      std::string frac;
      split_seed(line, t.substr(2), frac, p.prob_seed);
      p.prob_ppm = frac_to_ppm(line, frac);
    } else if (t.rfind("errno:", 0) == 0) {
      p.errno_code = os::errno_from_name(t.substr(6).c_str());
      if (p.errno_code == 0) bad(line, "unknown errno '" + t.substr(6) + "'");
      p.has_errno = true;
      have_behavior = true;
    } else if (t.rfind("latency:", 0) == 0) {
      p.latency_ticks = parse_u64(line, t.substr(8), 10);
      if (p.latency_ticks == 0) bad(line, "latency must be nonzero");
      p.has_latency = true;
      have_behavior = true;
    } else if (t.rfind("partial:", 0) == 0) {
      p.partial_ppm = frac_to_ppm(line, t.substr(8));
      p.has_partial = true;
      have_behavior = true;
    } else if (t == "corrupt" || t.rfind("corrupt:", 0) == 0) {
      if (t.size() > 8) {
        std::string k;
        split_seed(line, t.substr(8), k, p.corrupt_seed);
        const std::uint64_t bits = parse_u64(line, k, 10);
        if (bits == 0 || bits > 255) bad(line, "corrupt bit count out of [1, 255]");
        p.corrupt_bits = std::uint8_t(bits);
      }
      p.has_corrupt = true;
      have_behavior = true;
    } else {
      bad(line, "unknown clause '" + t + "'");
    }
  }
  if (!have_behavior) bad(line, "no behavior (errno:/latency:/partial:/corrupt)");
  return p;
}

std::uint64_t SyscallFaultInjector::total_applied() const noexcept {
  std::uint64_t n = 0;
  for (const std::uint64_t a : applied_) n += a;
  return n;
}

void SyscallFaultInjector::reset_applied() noexcept {
  for (std::uint64_t& a : applied_) a = 0;
}

os::SyscallInjection SyscallFaultInjector::decide(os::Sysno s, std::uint64_t call_index,
                                                  std::uint64_t tid) {
  os::SyscallInjection inj;
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    const SyscallFaultPlan& p = plans_[i];
    if (!p.matches_any_syscall() && p.target != s) continue;
    if (call_index < p.idx_lo || call_index > p.idx_hi) continue;
    if (p.tid >= 0 && std::uint64_t(p.tid) != tid) continue;
    if (p.prob_ppm == 0) continue;
    if (p.prob_ppm < kPpm) {
      // Pure hash of (seed, syscall, thread, call index): replay-stable and
      // independent of evaluation order across plans.
      std::uint64_t key = p.prob_seed ^ (std::uint64_t(s) << 48) ^ (tid << 32) ^
                          call_index;
      if (util::splitmix64(key) % kPpm >= p.prob_ppm) continue;
    }
    ++applied_[i];
    inj.fired = true;
    if (p.has_errno && inj.force_errno == 0) inj.force_errno = p.errno_code;
    if (p.has_latency && p.latency_ticks > inj.latency) inj.latency = p.latency_ticks;
    if (p.has_partial && !inj.has_partial) {
      inj.has_partial = true;
      inj.partial_ppm = p.partial_ppm;
    }
    if (p.has_corrupt && inj.corrupt_bits == 0) {
      inj.corrupt_bits = p.corrupt_bits;
      inj.corrupt_seed = p.corrupt_seed;
    }
  }
  return inj;
}

}  // namespace gemfi::fi
