#include "src/vm/bytecode.h"

#include <cstdio>

namespace osguard {

std::string_view OpName(Op op) {
  switch (op) {
    case Op::kLoadConst:
      return "ldc";
    case Op::kMov:
      return "mov";
    case Op::kAdd:
      return "add";
    case Op::kSub:
      return "sub";
    case Op::kMul:
      return "mul";
    case Op::kDiv:
      return "div";
    case Op::kMod:
      return "mod";
    case Op::kNeg:
      return "neg";
    case Op::kNot:
      return "not";
    case Op::kCmpLt:
      return "clt";
    case Op::kCmpLe:
      return "cle";
    case Op::kCmpGt:
      return "cgt";
    case Op::kCmpGe:
      return "cge";
    case Op::kCmpEq:
      return "ceq";
    case Op::kCmpNe:
      return "cne";
    case Op::kJump:
      return "jmp";
    case Op::kJumpIfFalse:
      return "jz";
    case Op::kJumpIfTrue:
      return "jnz";
    case Op::kMakeList:
      return "lst";
    case Op::kCall:
      return "call";
    case Op::kRet:
      return "ret";
    case Op::kCmpConst:
      return "cmpc";
    case Op::kCmpConstJf:
      return "cmpc.jz";
    case Op::kCmpConstJt:
      return "cmpc.jnz";
    case Op::kCmpRegJf:
      return "cmp.jz";
    case Op::kCmpRegJt:
      return "cmp.jnz";
    case Op::kCallKeyed:
      return "callk";
  }
  return "???";
}

uint64_t RegistersRead(const Insn& insn) {
  auto window = [](int first, int count) {
    uint64_t mask = 0;
    for (int i = 0; i < count; ++i) {
      mask |= uint64_t{1} << (first + i);
    }
    return mask;
  };
  switch (insn.op) {
    case Op::kLoadConst:
    case Op::kJump:
      return 0;
    case Op::kMov:
    case Op::kNeg:
    case Op::kNot:
    case Op::kCmpConst:
    case Op::kCmpConstJf:
    case Op::kCmpConstJt:
      return window(insn.b, 1);
    case Op::kJumpIfFalse:
    case Op::kJumpIfTrue:
    case Op::kRet:
      return window(insn.a, 1);
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
    case Op::kCmpRegJf:
    case Op::kCmpRegJt:
      return window(insn.b, 1) | window(insn.c, 1);
    case Op::kMakeList:
      return window(insn.b, insn.imm);
    case Op::kCall:
      return window(insn.b, insn.c);
    case Op::kCallKeyed:  // the key is a constant: r[b] is not read
      return window(insn.b + 1, insn.c - 1);
  }
  return 0;
}

std::string Program::Disassemble() const {
  std::string out;
  out += "; program '" + name + "', " + std::to_string(insns.size()) + " insns, " +
         std::to_string(consts.size()) + " consts, " + std::to_string(register_count) +
         " regs\n";
  char line[160];
  for (size_t pc = 0; pc < insns.size(); ++pc) {
    const Insn& insn = insns[pc];
    switch (insn.op) {
      case Op::kLoadConst: {
        std::string c = insn.imm >= 0 && static_cast<size_t>(insn.imm) < consts.size()
                            ? consts[static_cast<size_t>(insn.imm)].ToString()
                            : "<bad const>";
        std::snprintf(line, sizeof(line), "%4zu  ldc   r%u, %s\n", pc, insn.a, c.c_str());
        break;
      }
      case Op::kMov:
        std::snprintf(line, sizeof(line), "%4zu  mov   r%u, r%u\n", pc, insn.a, insn.b);
        break;
      case Op::kNeg:
      case Op::kNot:
        std::snprintf(line, sizeof(line), "%4zu  %-5s r%u, r%u\n", pc,
                      std::string(OpName(insn.op)).c_str(), insn.a, insn.b);
        break;
      case Op::kJump:
        std::snprintf(line, sizeof(line), "%4zu  jmp   +%d (-> %zu)\n", pc, insn.imm,
                      pc + 1 + static_cast<size_t>(insn.imm));
        break;
      case Op::kJumpIfFalse:
      case Op::kJumpIfTrue:
        std::snprintf(line, sizeof(line), "%4zu  %-5s r%u, +%d (-> %zu)\n", pc,
                      std::string(OpName(insn.op)).c_str(), insn.a, insn.imm,
                      pc + 1 + static_cast<size_t>(insn.imm));
        break;
      case Op::kMakeList:
        std::snprintf(line, sizeof(line), "%4zu  lst   r%u, r%u..r%u\n", pc, insn.a, insn.b,
                      insn.b + (insn.imm > 0 ? insn.imm - 1 : 0));
        break;
      case Op::kCall: {
        const Builtin* builtin = FindBuiltinById(static_cast<HelperId>(insn.imm));
        std::snprintf(line, sizeof(line), "%4zu  call  r%u, %s(r%u..r%u)\n", pc, insn.a,
                      builtin != nullptr ? std::string(builtin->name).c_str() : "<bad helper>",
                      insn.b, insn.b + (insn.c > 0 ? insn.c - 1 : 0));
        break;
      }
      case Op::kRet:
        std::snprintf(line, sizeof(line), "%4zu  ret   r%u\n", pc, insn.a);
        break;
      case Op::kCmpConst: {
        const std::string kind(OpName(CmpKindToOp(insn.c)));
        std::string c = insn.imm >= 0 && static_cast<size_t>(insn.imm) < consts.size()
                            ? consts[static_cast<size_t>(insn.imm)].ToString()
                            : "<bad const>";
        std::snprintf(line, sizeof(line), "%4zu  %s.c r%u, r%u, %s\n", pc, kind.c_str(),
                      insn.a, insn.b, c.c_str());
        break;
      }
      case Op::kCmpConstJf:
      case Op::kCmpConstJt: {
        const std::string kind(OpName(CmpKindToOp(insn.c)));
        std::string c = insn.imm >= 0 && static_cast<size_t>(insn.imm) < consts.size()
                            ? consts[static_cast<size_t>(insn.imm)].ToString()
                            : "<bad const>";
        std::snprintf(line, sizeof(line), "%4zu  %s.c.%s r%u, r%u, %s, +%d (-> %zu)\n", pc,
                      kind.c_str(), insn.op == Op::kCmpConstJf ? "jz" : "jnz", insn.a, insn.b,
                      c.c_str(), insn.aux, pc + 1 + static_cast<size_t>(insn.aux));
        break;
      }
      case Op::kCmpRegJf:
      case Op::kCmpRegJt: {
        const std::string kind(OpName(CmpKindToOp(insn.imm)));
        std::snprintf(line, sizeof(line), "%4zu  %s.%s r%u, r%u, r%u, +%d (-> %zu)\n", pc,
                      kind.c_str(), insn.op == Op::kCmpRegJf ? "jz" : "jnz", insn.a, insn.b,
                      insn.c, insn.aux, pc + 1 + static_cast<size_t>(insn.aux));
        break;
      }
      case Op::kCallKeyed: {
        const Builtin* builtin = FindBuiltinById(KeyedCallHelper(insn));
        const size_t key = KeyedCallKey(insn);
        std::string args = key < consts.size() ? consts[key].ToString() : "<bad const>";
        if (insn.c > 1) {
          args += ", r" + std::to_string(insn.b + 1) + "..r" + std::to_string(insn.b + insn.c - 1);
        }
        std::snprintf(line, sizeof(line), "%4zu  callk r%u, %s(%s) slot=%d\n", pc, insn.a,
                      builtin != nullptr ? std::string(builtin->name).c_str() : "<bad helper>",
                      args.c_str(), insn.aux);
        break;
      }
      default:
        std::snprintf(line, sizeof(line), "%4zu  %-5s r%u, r%u, r%u\n", pc,
                      std::string(OpName(insn.op)).c_str(), insn.a, insn.b, insn.c);
        break;
    }
    out += line;
  }
  return out;
}

}  // namespace osguard
