#include "src/vm/c_backend.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

namespace osguard {
namespace {

// C identifier from a guardrail name ("low-false-submit" -> "low_false_submit").
std::string Mangle(const std::string& name) {
  std::string out;
  for (char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) != 0) {
    out = "g_" + out;
  }
  return out;
}

std::string CEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        continue;
      case '\\':
        out += "\\\\";
        continue;
      case '\n':
        out += "\\n";
        continue;
      case '\t':
        out += "\\t";
        continue;
      case '\r':
        out += "\\r";
        continue;
      default:
        break;
    }
    if (u < 0x20 || u >= 0x7f) {
      // Three-digit octal escapes are unambiguous even when a digit follows
      // (C caps octal escapes at three digits).
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\%03o", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// Renders a double so the C compiler reads back the exact same value:
// %.17g is round-trip precise for finite doubles, but bare integral output
// ("2") must gain a ".0" to stay a floating literal, and non-finite values
// have no literal form at all.
std::string FloatToC(double d) {
  if (std::isnan(d)) {
    return "OSG_NAN";
  }
  if (std::isinf(d)) {
    return d < 0 ? "-OSG_INF" : "OSG_INF";
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  std::string out = buf;
  if (out.find_first_of(".eE") == std::string::npos) {
    out += ".0";
  }
  return out;
}

std::string ConstToC(const Value& v) {
  switch (v.type()) {
    case ValueType::kNil:
      return "osg_nil()";
    case ValueType::kInt:
      return "osg_int(" + std::to_string(v.AsInt().value()) + "LL)";
    case ValueType::kFloat:
      return "osg_float(" + FloatToC(v.AsFloat().value()) + ")";
    case ValueType::kBool:
      return v.AsBool().value() ? "osg_bool(1)" : "osg_bool(0)";
    case ValueType::kString:
      return "osg_str(\"" + CEscape(v.AsString().value()) + "\")";
    case ValueType::kList: {
      // Lists in the constant pool only ever hold strings (name lists).
      std::string out = "osg_namelist(";
      const auto list = v.AsList().value();
      out += std::to_string(list.size());
      for (const Value& element : list) {
        out += ", \"" + CEscape(element.AsString().value_or("?")) + "\"";
      }
      out += ")";
      return out;
    }
  }
  return "osg_nil()";
}

const char* BinOpToC(Op op) {
  switch (op) {
    case Op::kAdd:
      return "osg_add";
    case Op::kSub:
      return "osg_sub";
    case Op::kMul:
      return "osg_mul";
    case Op::kDiv:
      return "osg_div";
    case Op::kMod:
      return "osg_mod";
    case Op::kCmpLt:
      return "osg_lt";
    case Op::kCmpLe:
      return "osg_le";
    case Op::kCmpGt:
      return "osg_gt";
    case Op::kCmpGe:
      return "osg_ge";
    case Op::kCmpEq:
      return "osg_eq";
    case Op::kCmpNe:
      return "osg_ne";
    default:
      return "osg_bad";
  }
}

// "OSG_HELPER_<NAME>" for known builtins, the raw numeric id otherwise (so a
// fuzzed program keeps the interpreter's "unknown helper id N" fault).
std::string HelperToken(int32_t id) {
  const Builtin* builtin = FindBuiltinById(static_cast<HelperId>(id));
  if (builtin != nullptr) {
    return "OSG_HELPER_" + std::string(builtin->name);
  }
  return std::to_string(id);
}

// Jump targets of `program`, as original-pc indices. Targets may include
// program.insns.size() (a jump straight off the end).
std::set<size_t> CollectJumpTargets(const Program& program) {
  std::set<size_t> targets;
  for (size_t pc = 0; pc < program.insns.size(); ++pc) {
    const Insn& insn = program.insns[pc];
    if (insn.op == Op::kJump || insn.op == Op::kJumpIfFalse || insn.op == Op::kJumpIfTrue) {
      targets.insert(pc + 1 + static_cast<size_t>(insn.imm));
    } else if (insn.op == Op::kCmpConstJf || insn.op == Op::kCmpConstJt ||
               insn.op == Op::kCmpRegJf || insn.op == Op::kCmpRegJt) {
      targets.insert(pc + 1 + static_cast<size_t>(insn.aux));
    }
  }
  return targets;
}

// Whether control can reach past the last instruction (a verified program
// always ends in Ret, but emitted C must stay well-formed for any input).
bool CanRunOffEnd(const Program& program, const std::set<size_t>& targets) {
  if (targets.count(program.insns.size()) > 0) {
    return true;
  }
  if (program.insns.empty()) {
    return true;
  }
  const Op last = program.insns.back().op;
  return last != Op::kRet && last != Op::kJump;
}

}  // namespace

std::string EmitCFunction(const Program& program, const std::string& function_name) {
  std::ostringstream out;
  const std::set<size_t> targets = CollectJumpTargets(program);
  out << "/* compiled from program '" << program.name << "' (" << program.insns.size()
      << " insns) */\n";
  out << "static osg_value " << function_name << "(struct osg_ctx *ctx) {\n";
  out << "  osg_value r[" << std::max<uint32_t>(1, program.register_count)
      << "] = {{OSG_NIL, 0, 0.0, 0}};\n";
  out << "  (void)ctx;\n";
  out << "  (void)r;\n";
  for (size_t pc = 0; pc < program.insns.size(); ++pc) {
    if (targets.count(pc) > 0) {
      out << "L" << pc << ":\n";
    }
    const Insn& insn = program.insns[pc];
    const int a = insn.a;
    const int b = insn.b;
    const int c = insn.c;
    switch (insn.op) {
      case Op::kLoadConst:
        out << "  r[" << a << "] = " << ConstToC(program.consts[static_cast<size_t>(insn.imm)])
            << ";\n";
        break;
      case Op::kMov:
        out << "  r[" << a << "] = r[" << b << "];\n";
        break;
      case Op::kNeg:
        out << "  r[" << a << "] = osg_neg(r[" << b << "]);\n";
        break;
      case Op::kNot:
        out << "  r[" << a << "] = osg_not(r[" << b << "]);\n";
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod:
      case Op::kCmpLt:
      case Op::kCmpLe:
      case Op::kCmpGt:
      case Op::kCmpGe:
      case Op::kCmpEq:
      case Op::kCmpNe:
        out << "  r[" << a << "] = " << BinOpToC(insn.op) << "(r[" << b << "], r[" << c
            << "]);\n";
        break;
      case Op::kJump:
        out << "  goto L" << (pc + 1 + static_cast<size_t>(insn.imm)) << ";\n";
        break;
      case Op::kJumpIfFalse:
        out << "  if (!osg_truthy(r[" << a << "])) goto L"
            << (pc + 1 + static_cast<size_t>(insn.imm)) << ";\n";
        break;
      case Op::kJumpIfTrue:
        out << "  if (osg_truthy(r[" << a << "])) goto L"
            << (pc + 1 + static_cast<size_t>(insn.imm)) << ";\n";
        break;
      case Op::kMakeList:
        out << "  r[" << a << "] = osg_list(&r[" << b << "], " << insn.imm << ");\n";
        break;
      case Op::kCall:
        out << "  r[" << a << "] = osg_call(ctx, " << HelperToken(insn.imm) << ", &r[" << b
            << "], " << c << ");\n";
        break;
      case Op::kRet:
        out << "  return r[" << a << "];\n";
        break;
      // Superinstructions decompose back into their unfused C forms: the
      // kernel-module compiler re-fuses whatever it finds profitable.
      case Op::kCmpConst:
        out << "  r[" << a << "] = " << BinOpToC(CmpKindToOp(c)) << "(r[" << b << "], "
            << ConstToC(program.consts[static_cast<size_t>(insn.imm)]) << ");\n";
        break;
      case Op::kCmpConstJf:
      case Op::kCmpConstJt:
        out << "  r[" << a << "] = " << BinOpToC(CmpKindToOp(c)) << "(r[" << b << "], "
            << ConstToC(program.consts[static_cast<size_t>(insn.imm)]) << ");\n";
        out << "  if (" << (insn.op == Op::kCmpConstJf ? "!" : "") << "osg_truthy(r[" << a
            << "])) goto L" << (pc + 1 + static_cast<size_t>(insn.aux)) << ";\n";
        break;
      case Op::kCmpRegJf:
      case Op::kCmpRegJt:
        out << "  r[" << a << "] = " << BinOpToC(CmpKindToOp(insn.imm)) << "(r[" << b
            << "], r[" << c << "]);\n";
        out << "  if (" << (insn.op == Op::kCmpRegJf ? "!" : "") << "osg_truthy(r[" << a
            << "])) goto L" << (pc + 1 + static_cast<size_t>(insn.aux)) << ";\n";
        break;
      case Op::kCallKeyed:
        // The key lives in the constant pool; C has no slot ids, so the key
        // goes back in r[b] for the string-keyed helper call.
        out << "  r[" << b << "] = " << ConstToC(program.consts[KeyedCallKey(insn)]) << ";\n";
        out << "  r[" << a << "] = osg_call(ctx, "
            << HelperToken(static_cast<int32_t>(KeyedCallHelper(insn))) << ", &r[" << b << "], "
            << c << ");\n";
        break;
    }
  }
  if (CanRunOffEnd(program, targets)) {
    if (targets.count(program.insns.size()) > 0) {
      out << "L" << program.insns.size() << ":\n";
    }
    out << "  return osg_nil();\n";
  }
  out << "}\n";
  return out.str();
}

std::string EmitKernelModuleSource(const CompiledGuardrail& guardrail) {
  const std::string ident = Mangle(guardrail.name);
  std::ostringstream out;
  out << "/*\n * Guardrail monitor '" << guardrail.name << "'\n"
      << " * Generated by osguard; do not edit.\n */\n"
      << "#include <osguard/kmod.h>\n\n";
  out << EmitCFunction(guardrail.rule, ident + "_rule") << "\n";
  out << EmitCFunction(guardrail.action, ident + "_action") << "\n";
  if (!guardrail.on_satisfy.empty()) {
    out << EmitCFunction(guardrail.on_satisfy, ident + "_on_satisfy") << "\n";
  }
  out << "static struct osg_monitor " << ident << "_monitor = {\n"
      << "  .name = \"" << CEscape(guardrail.name) << "\",\n"
      << "  .severity = " << static_cast<int>(guardrail.meta.severity) << ",\n"
      << "  .cooldown_ns = " << guardrail.meta.cooldown << "LL,\n"
      << "  .hysteresis = " << guardrail.meta.hysteresis << ",\n"
      << "  .rule = " << ident << "_rule,\n"
      << "  .action = " << ident << "_action,\n"
      << "  .on_satisfy = "
      << (guardrail.on_satisfy.empty() ? std::string("NULL") : ident + "_on_satisfy") << ",\n"
      << "};\n\n";
  for (const CompiledTrigger& trigger : guardrail.triggers) {
    switch (trigger.kind) {
      case TriggerKind::kTimer:
        out << "OSG_TRIGGER_TIMER(" << ident << "_monitor, " << trigger.start << "LL, "
            << trigger.interval << "LL, " << trigger.stop << "LL);\n";
        break;
      case TriggerKind::kFunction:
        out << "OSG_TRIGGER_FUNCTION(" << ident << "_monitor, " << trigger.function_name
            << ");\n";
        break;
      case TriggerKind::kOnChange:
        out << "OSG_TRIGGER_ONCHANGE(" << ident << "_monitor, \""
            << CEscape(trigger.watch_key) << "\");\n";
        break;
    }
  }
  out << "OSG_MODULE(" << ident << "_monitor);\n";
  return out.str();
}

}  // namespace osguard
