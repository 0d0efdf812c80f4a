#include "assembler/text_asm.hpp"

#include <cctype>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "assembler/assembler.hpp"
#include "isa/encoding.hpp"

namespace gemfi::assembler {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& line, const std::string& why) {
  throw AsmError("line " + std::to_string(line_no) + ": " + why + " in \"" + line + "\"");
}

std::string strip(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Split on commas that are outside parentheses and double quotes.
std::vector<std::string> split_operands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  bool quoted = false;
  for (const char ch : s) {
    if (ch == '"') quoted = !quoted;
    if (ch == '(') ++depth;
    if (ch == ')') --depth;
    if (ch == ',' && depth == 0 && !quoted) {
      out.push_back(strip(cur));
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  if (!strip(cur).empty()) out.push_back(strip(cur));
  return out;
}

const std::map<std::string, unsigned>& int_reg_table() {
  static const std::map<std::string, unsigned> table = [] {
    std::map<std::string, unsigned> t;
    const char* names[] = {"v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
                           "t7", "s0", "s1", "s2", "s3", "s4", "s5", "fp",
                           "a0", "a1", "a2", "a3", "a4", "a5", "t8", "t9",
                           "t10", "t11", "ra", "pv", "at", "gp", "sp", "zero"};
    for (unsigned i = 0; i < 32; ++i) t[names[i]] = i;
    for (unsigned i = 0; i < 32; ++i) {
      std::string r = "r";  // not "r" + to_string(i): GCC 12 -Wrestrict
      r += std::to_string(i);
      t[r] = i;
    }
    return t;
  }();
  return table;
}

std::optional<unsigned> parse_ireg(const std::string& tok) {
  const auto it = int_reg_table().find(tok);
  if (it == int_reg_table().end()) return std::nullopt;
  return it->second;
}

std::optional<unsigned> parse_freg(const std::string& tok) {
  if (tok.size() < 2 || tok[0] != 'f') return std::nullopt;
  if (tok == "fp") return std::nullopt;  // the integer frame pointer
  for (std::size_t i = 1; i < tok.size(); ++i)
    if (!std::isdigit(static_cast<unsigned char>(tok[i]))) return std::nullopt;
  const unsigned n = unsigned(std::stoul(tok.substr(1)));
  return n < 32 ? std::optional<unsigned>(n) : std::nullopt;
}

std::optional<std::int64_t> parse_int(const std::string& tok) {
  if (tok.empty()) return std::nullopt;
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(tok, &pos, 0);
    if (pos != tok.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

struct IntOpInfo {
  isa::Opcode op;
  unsigned func;
};

const std::map<std::string, IntOpInfo>& int_op_table() {
  static const std::map<std::string, IntOpInfo> t = {
      {"addl", {isa::Opcode::INTA, 0x00}},   {"addq", {isa::Opcode::INTA, 0x20}},
      {"s4addq", {isa::Opcode::INTA, 0x22}}, {"s8addq", {isa::Opcode::INTA, 0x32}},
      {"subl", {isa::Opcode::INTA, 0x09}},   {"subq", {isa::Opcode::INTA, 0x29}},
      {"cmpult", {isa::Opcode::INTA, 0x1D}}, {"cmpeq", {isa::Opcode::INTA, 0x2D}},
      {"cmpule", {isa::Opcode::INTA, 0x3D}}, {"cmplt", {isa::Opcode::INTA, 0x4D}},
      {"cmple", {isa::Opcode::INTA, 0x6D}},  {"and", {isa::Opcode::INTL, 0x00}},
      {"bic", {isa::Opcode::INTL, 0x08}},    {"cmovlbs", {isa::Opcode::INTL, 0x14}},
      {"cmovlbc", {isa::Opcode::INTL, 0x16}},{"bis", {isa::Opcode::INTL, 0x20}},
      {"cmoveq", {isa::Opcode::INTL, 0x24}}, {"cmovne", {isa::Opcode::INTL, 0x26}},
      {"ornot", {isa::Opcode::INTL, 0x28}},  {"xor", {isa::Opcode::INTL, 0x40}},
      {"cmovlt", {isa::Opcode::INTL, 0x44}}, {"cmovge", {isa::Opcode::INTL, 0x46}},
      {"eqv", {isa::Opcode::INTL, 0x48}},    {"cmovle", {isa::Opcode::INTL, 0x64}},
      {"cmovgt", {isa::Opcode::INTL, 0x66}}, {"srl", {isa::Opcode::INTS, 0x34}},
      {"sll", {isa::Opcode::INTS, 0x39}},    {"sra", {isa::Opcode::INTS, 0x3C}},
      {"mull", {isa::Opcode::INTM, 0x00}},   {"mulq", {isa::Opcode::INTM, 0x20}},
      {"umulh", {isa::Opcode::INTM, 0x30}},  {"divq", {isa::Opcode::INTM, 0x40}},
      {"remq", {isa::Opcode::INTM, 0x41}},
  };
  return t;
}

const std::map<std::string, IntOpInfo>& fp_op_table() {
  static const std::map<std::string, IntOpInfo> t = {
      {"addt", {isa::Opcode::FLTI, 0x0A0}},   {"subt", {isa::Opcode::FLTI, 0x0A1}},
      {"mult", {isa::Opcode::FLTI, 0x0A2}},   {"divt", {isa::Opcode::FLTI, 0x0A3}},
      {"cmptun", {isa::Opcode::FLTI, 0x0A4}}, {"cmpteq", {isa::Opcode::FLTI, 0x0A5}},
      {"cmptlt", {isa::Opcode::FLTI, 0x0A6}}, {"cmptle", {isa::Opcode::FLTI, 0x0A7}},
      {"cpys", {isa::Opcode::FLTL, 0x020}},   {"cpysn", {isa::Opcode::FLTL, 0x021}},
      {"fcmoveq", {isa::Opcode::FLTL, 0x02A}},{"fcmovne", {isa::Opcode::FLTL, 0x02B}},
  };
  return t;
}

const std::map<std::string, isa::Opcode>& mem_op_table() {
  static const std::map<std::string, isa::Opcode> t = {
      {"lda", isa::Opcode::LDA},  {"ldah", isa::Opcode::LDAH},
      {"ldl", isa::Opcode::LDL},  {"ldq", isa::Opcode::LDQ},
      {"stl", isa::Opcode::STL},  {"stq", isa::Opcode::STQ},
      {"lds", isa::Opcode::LDS},  {"ldt", isa::Opcode::LDT},
      {"sts", isa::Opcode::STS},  {"stt", isa::Opcode::STT},
  };
  return t;
}

const std::map<std::string, isa::Opcode>& branch_op_table() {
  static const std::map<std::string, isa::Opcode> t = {
      {"beq", isa::Opcode::BEQ},   {"bne", isa::Opcode::BNE},
      {"blt", isa::Opcode::BLT},   {"ble", isa::Opcode::BLE},
      {"bge", isa::Opcode::BGE},   {"bgt", isa::Opcode::BGT},
      {"blbs", isa::Opcode::BLBS}, {"blbc", isa::Opcode::BLBC},
      {"fbeq", isa::Opcode::FBEQ}, {"fbne", isa::Opcode::FBNE},
      {"fblt", isa::Opcode::FBLT}, {"fble", isa::Opcode::FBLE},
      {"fbge", isa::Opcode::FBGE}, {"fbgt", isa::Opcode::FBGT},
  };
  return t;
}

const std::map<std::string, std::function<void(Assembler&)>>& noarg_table() {
  static const std::map<std::string, std::function<void(Assembler&)>> t = {
      {"fi_activate", [](Assembler& a) { a.fi_activate(); }},
      {"fi_read_init", [](Assembler& a) { a.fi_read_init(); }},
      {"exit", [](Assembler& a) { a.exit_(); }},
      {"print_char", [](Assembler& a) { a.print_char(); }},
      {"print_int", [](Assembler& a) { a.print_int(); }},
      {"print_fp", [](Assembler& a) { a.print_fp(); }},
      {"instret", [](Assembler& a) { a.instret(); }},
      {"yield", [](Assembler& a) { a.yield(); }},
      {"syscall", [](Assembler& a) { a.syscall_(); }},
      {"halt", [](Assembler& a) { a.halt(); }},
      {"ret", [](Assembler& a) { a.ret(); }},
  };
  return t;
}

struct Parser {
  Assembler as;
  std::map<std::string, Label> labels;
  std::map<std::string, DataRef> data_syms;
  bool in_text = false;
  std::optional<Label> entry;

  Label label_for(const std::string& name) {
    const auto it = labels.find(name);
    if (it != labels.end()) return it->second;
    const Label l = as.make_label(name);
    labels.emplace(name, l);
    return l;
  }
};

void handle_data_directive(Parser& p, const std::string& label, const std::string& dir,
                           const std::string& rest, std::size_t ln, const std::string& raw) {
  DataRef ref{};
  if (dir == ".zero") {
    const auto n = parse_int(strip(rest));
    if (!n || *n < 0) fail(ln, raw, ".zero needs a non-negative size");
    ref = p.as.data_zeros(std::uint64_t(*n));
  } else if (dir == ".quad") {
    std::vector<std::int64_t> vals;
    for (const auto& tok : split_operands(rest)) {
      const auto v = parse_int(tok);
      if (!v) fail(ln, raw, "bad integer '" + tok + "'");
      vals.push_back(*v);
    }
    if (vals.empty()) fail(ln, raw, ".quad needs at least one value");
    ref = p.as.data_i64(vals);
  } else if (dir == ".double") {
    std::vector<double> vals;
    for (const auto& tok : split_operands(rest)) {
      try {
        vals.push_back(std::stod(tok));
      } catch (const std::exception&) {
        fail(ln, raw, "bad double '" + tok + "'");
      }
    }
    if (vals.empty()) fail(ln, raw, ".double needs at least one value");
    ref = p.as.data_f64(vals);
  } else {
    fail(ln, raw, "unknown data directive '" + dir + "'");
  }
  if (!label.empty()) {
    p.data_syms[label] = ref;
    p.as.name_data(label, ref);
  }
}

void handle_instruction(Parser& p, const std::string& mnem, const std::string& rest,
                        std::size_t ln, const std::string& raw) {
  Assembler& as = p.as;
  const std::vector<std::string> ops = split_operands(rest);
  const auto need = [&](std::size_t n) {
    if (ops.size() != n)
      fail(ln, raw, "expected " + std::to_string(n) + " operands, got " +
                        std::to_string(ops.size()));
  };
  const auto ireg = [&](const std::string& tok) {
    const auto r = parse_ireg(tok);
    if (!r) fail(ln, raw, "bad integer register '" + tok + "'");
    return *r;
  };
  const auto freg = [&](const std::string& tok) {
    const auto r = parse_freg(tok);
    if (!r) fail(ln, raw, "bad FP register '" + tok + "'");
    return *r;
  };

  // --- no-operand ops ---
  if (const auto it = noarg_table().find(mnem); it != noarg_table().end()) {
    if (!ops.empty()) fail(ln, raw, "'" + mnem + "' takes no operands");
    it->second(as);
    return;
  }

  // --- integer operate (register or literal second operand) ---
  if (const auto it = int_op_table().find(mnem); it != int_op_table().end()) {
    need(3);
    const unsigned a = ireg(ops[0]);
    const unsigned c = ireg(ops[2]);
    if (const auto rb = parse_ireg(ops[1])) {
      as.emit(isa::encode_operate(it->second.op, it->second.func, a, *rb, c));
    } else if (const auto lit = parse_int(ops[1])) {
      if (*lit < 0 || *lit > 255) fail(ln, raw, "literal must be in [0,255]");
      as.emit(isa::encode_operate_lit(it->second.op, it->second.func, a,
                                      unsigned(*lit), c));
    } else {
      fail(ln, raw, "second operand must be a register or 8-bit literal");
    }
    return;
  }

  // --- FP operate ---
  if (const auto it = fp_op_table().find(mnem); it != fp_op_table().end()) {
    need(3);
    as.emit(isa::encode_fp(it->second.op, it->second.func, freg(ops[0]), freg(ops[1]),
                           freg(ops[2])));
    return;
  }
  if (mnem == "sqrtt" || mnem == "cvttq" || mnem == "cvtqt") {
    need(2);
    const unsigned func = mnem == "sqrtt" ? 0x0AB : mnem == "cvttq" ? 0x0AF : 0x0BE;
    as.emit(isa::encode_fp(isa::Opcode::FLTI, func, 31, freg(ops[0]), freg(ops[1])));
    return;
  }
  if (mnem == "fmov" || mnem == "fneg" || mnem == "fabs") {
    need(2);
    const unsigned b = freg(ops[0]);
    const unsigned c = freg(ops[1]);
    if (mnem == "fmov") as.fmov(b, c);
    else if (mnem == "fneg") as.fneg(b, c);
    else as.fabs_(b, c);
    return;
  }
  if (mnem == "itoft") {
    need(2);
    as.itoft(ireg(ops[0]), freg(ops[1]));
    return;
  }
  if (mnem == "ftoit") {
    need(2);
    as.ftoit(freg(ops[0]), ireg(ops[1]));
    return;
  }

  // --- memory: "reg, disp(base)" ---
  if (const auto it = mem_op_table().find(mnem); it != mem_op_table().end()) {
    need(2);
    const bool fp = mnem == "ldt" || mnem == "stt" || mnem == "lds" || mnem == "sts";
    const unsigned r = fp ? freg(ops[0]) : ireg(ops[0]);
    const std::string& addr = ops[1];
    const auto open = addr.find('(');
    const auto close = addr.find(')');
    if (open == std::string::npos || close == std::string::npos || close < open)
      fail(ln, raw, "memory operand must be disp(base)");
    const std::string disp_s = strip(addr.substr(0, open));
    const std::string base_s = strip(addr.substr(open + 1, close - open - 1));
    std::int64_t disp = 0;
    if (!disp_s.empty()) {
      const auto d = parse_int(disp_s);
      if (!d || *d < -32768 || *d > 32767) fail(ln, raw, "displacement out of range");
      disp = *d;
    }
    as.emit(isa::encode_mem(it->second, r, ireg(base_s), std::int32_t(disp)));
    return;
  }

  // --- branches / jumps ---
  if (mnem == "br") {
    need(1);
    as.br(p.label_for(ops[0]));
    return;
  }
  if (mnem == "bsr") {
    need(2);
    as.bsr(ireg(ops[0]), p.label_for(ops[1]));
    return;
  }
  if (mnem == "call") {
    need(1);
    as.call(p.label_for(ops[0]));
    return;
  }
  if (const auto it = branch_op_table().find(mnem); it != branch_op_table().end()) {
    need(2);
    const bool fp = mnem[0] == 'f';
    const unsigned r = fp ? freg(ops[0]) : ireg(ops[0]);
    const Label target = p.label_for(ops[1]);
    // Route through the Assembler so the fixup machinery applies.
    switch (it->second) {
      case isa::Opcode::BEQ: as.beq(r, target); break;
      case isa::Opcode::BNE: as.bne(r, target); break;
      case isa::Opcode::BLT: as.blt(r, target); break;
      case isa::Opcode::BLE: as.ble(r, target); break;
      case isa::Opcode::BGE: as.bge(r, target); break;
      case isa::Opcode::BGT: as.bgt(r, target); break;
      case isa::Opcode::BLBS: as.blbs(r, target); break;
      case isa::Opcode::BLBC: as.blbc(r, target); break;
      case isa::Opcode::FBEQ: as.fbeq(r, target); break;
      case isa::Opcode::FBNE: as.fbne(r, target); break;
      case isa::Opcode::FBLT: as.fblt(r, target); break;
      case isa::Opcode::FBLE: as.fble(r, target); break;
      case isa::Opcode::FBGE: as.fbge(r, target); break;
      case isa::Opcode::FBGT: as.fbgt(r, target); break;
      default: fail(ln, raw, "internal branch table error");
    }
    return;
  }
  if (mnem == "jmp" || mnem == "jsr") {
    need(2);
    const unsigned link = ireg(ops[0]);
    std::string target = ops[1];
    if (target.size() >= 2 && target.front() == '(' && target.back() == ')')
      target = strip(target.substr(1, target.size() - 2));
    if (mnem == "jmp") as.jmp(link, ireg(target));
    else as.jsr(link, ireg(target));
    return;
  }

  // --- pseudo instructions ---
  if (mnem == "li") {
    need(2);
    const auto v = parse_int(ops[1]);
    if (!v) fail(ln, raw, "bad immediate '" + ops[1] + "'");
    as.li(ireg(ops[0]), *v);
    return;
  }
  if (mnem == "la") {
    need(2);
    const auto it = p.data_syms.find(ops[1]);
    if (it == p.data_syms.end()) fail(ln, raw, "unknown data symbol '" + ops[1] + "'");
    as.la(ireg(ops[0]), it->second);
    return;
  }
  if (mnem == "fli") {
    need(2);
    try {
      as.fli(freg(ops[0]), std::stod(ops[1]));
    } catch (const std::exception&) {
      fail(ln, raw, "bad FP immediate '" + ops[1] + "'");
    }
    return;
  }
  if (mnem == "mov") {
    need(2);
    as.mov(ireg(ops[0]), ireg(ops[1]));
    return;
  }
  if (mnem == "print_str") {
    need(1);
    const std::string& s = ops[0];
    if (s.size() < 2 || s.front() != '"' || s.back() != '"')
      fail(ln, raw, "print_str needs a quoted string");
    std::string text;
    for (std::size_t i = 1; i + 1 < s.size(); ++i) {
      if (s[i] == '\\' && i + 2 < s.size() && s[i + 1] == 'n') {
        text.push_back('\n');
        ++i;
      } else {
        text.push_back(s[i]);
      }
    }
    as.print_str(text);
    return;
  }

  fail(ln, raw, "unknown mnemonic '" + mnem + "'");
}

}  // namespace

Program assemble_text(const std::string& source) {
  Parser p;
  std::istringstream in(source);
  std::string raw;
  std::size_t ln = 0;
  while (std::getline(in, raw)) {
    ++ln;
    std::string line = raw;
    // Strip comments (';' or '#') outside string literals.
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '"') quoted = !quoted;
      if (!quoted && (line[i] == ';' || line[i] == '#')) {
        line = line.substr(0, i);
        break;
      }
    }
    line = strip(line);
    if (line.empty()) continue;

    // Leading label?
    std::string label;
    const auto colon = line.find(':');
    if (colon != std::string::npos) {
      const std::string candidate = strip(line.substr(0, colon));
      bool is_ident = !candidate.empty();
      for (const char ch : candidate)
        if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_') is_ident = false;
      if (is_ident) {
        label = candidate;
        line = strip(line.substr(colon + 1));
      }
    }

    if (line == ".data") {
      if (!label.empty()) fail(ln, raw, "label on a section directive");
      p.in_text = false;
      continue;
    }
    if (line == ".text") {
      if (!label.empty()) fail(ln, raw, "label on a section directive");
      p.in_text = true;
      continue;
    }

    if (!p.in_text) {
      if (line.empty()) {
        if (!label.empty()) fail(ln, raw, "data label needs a directive");
        continue;
      }
      const auto sp = line.find_first_of(" \t");
      const std::string dir = sp == std::string::npos ? line : line.substr(0, sp);
      const std::string rest = sp == std::string::npos ? "" : strip(line.substr(sp));
      handle_data_directive(p, label, dir, rest, ln, raw);
      continue;
    }

    // Text section: bind label (if any), then parse the instruction.
    if (!label.empty()) {
      const Label l = p.label_for(label);
      p.as.bind(l);
      // First .text label is the entry unless a later `main` claims it.
      if (!p.entry || label == "main") p.entry = l;
    }
    if (line.empty()) continue;
    const auto sp = line.find_first_of(" \t");
    const std::string mnem = sp == std::string::npos ? line : line.substr(0, sp);
    const std::string rest = sp == std::string::npos ? "" : strip(line.substr(sp));
    handle_instruction(p, mnem, rest, ln, raw);
  }

  if (!p.entry) throw AsmError("no .text label to use as the entry point");
  return p.as.finalize(*p.entry);
}

Program assemble_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw AsmError("cannot open assembly file: " + path);
  std::ostringstream body;
  body << in.rdbuf();
  return assemble_text(body.str());
}

}  // namespace gemfi::assembler
