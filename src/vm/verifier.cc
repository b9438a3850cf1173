#include "src/vm/verifier.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace osguard {
namespace {

std::string At(size_t pc) { return " at pc " + std::to_string(pc); }

bool IsMutatingHelperId(HelperId id) {
  return id == HelperId::kSave || id == HelperId::kIncr || id == HelperId::kObserve;
}

// Which registers an instruction reads / writes. Returns false if the opcode
// is unknown.
struct Effects {
  uint64_t uses = 0;
  std::optional<uint8_t> def;
  bool is_jump = false;          // has a jump offset (imm, or aux when fused)
  bool jump_in_aux = false;      // fused compare-and-branch: offset lives in aux
  bool falls_through = true;     // execution may continue at pc+1
};

// The jump offset of an instruction whose Effects said is_jump.
int32_t JumpOffsetOf(const Insn& insn, const Effects& effects) {
  return effects.jump_in_aux ? insn.aux : insn.imm;
}

// Range-checked bit helper: register indices must be validated BEFORE any
// mask computation — a shift by >= 64 is undefined behavior (and on x86
// silently wraps, which would let out-of-range registers slip past the
// dataflow analysis; found by tests/fuzz_test.cc's mutation fuzzer).
Result<uint64_t> Bit(int reg) {
  if (reg < 0 || reg >= kMaxRegisters) {
    return VerifierError("register r" + std::to_string(reg) + " out of range");
  }
  return 1ull << reg;
}

Result<Effects> EffectsOf(const Insn& insn) {
  Effects e;
  auto use = [&e](int reg) -> Status {
    OSGUARD_ASSIGN_OR_RETURN(uint64_t bit, Bit(reg));
    e.uses |= bit;
    return OkStatus();
  };
  auto def = [&e](int reg) -> Status {
    OSGUARD_RETURN_IF_ERROR(Bit(reg).status());  // range check only
    e.def = static_cast<uint8_t>(reg);
    return OkStatus();
  };
  switch (insn.op) {
    case Op::kLoadConst:
      OSGUARD_RETURN_IF_ERROR(def(insn.a));
      return e;
    case Op::kMov:
    case Op::kNeg:
    case Op::kNot:
      OSGUARD_RETURN_IF_ERROR(use(insn.b));
      OSGUARD_RETURN_IF_ERROR(def(insn.a));
      return e;
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
      OSGUARD_RETURN_IF_ERROR(use(insn.b));
      OSGUARD_RETURN_IF_ERROR(use(insn.c));
      OSGUARD_RETURN_IF_ERROR(def(insn.a));
      return e;
    case Op::kJump:
      e.is_jump = true;
      e.falls_through = false;
      return e;
    case Op::kJumpIfFalse:
    case Op::kJumpIfTrue:
      OSGUARD_RETURN_IF_ERROR(use(insn.a));
      e.is_jump = true;
      return e;
    case Op::kMakeList: {
      for (int i = 0; i < insn.imm; ++i) {
        OSGUARD_RETURN_IF_ERROR(use(insn.b + i));
      }
      OSGUARD_RETURN_IF_ERROR(def(insn.a));
      return e;
    }
    case Op::kCall: {
      for (int i = 0; i < insn.c; ++i) {
        OSGUARD_RETURN_IF_ERROR(use(insn.b + i));
      }
      OSGUARD_RETURN_IF_ERROR(def(insn.a));
      return e;
    }
    case Op::kRet:
      OSGUARD_RETURN_IF_ERROR(use(insn.a));
      e.falls_through = false;
      return e;
    case Op::kCmpConst:
      OSGUARD_RETURN_IF_ERROR(use(insn.b));
      OSGUARD_RETURN_IF_ERROR(def(insn.a));
      return e;
    case Op::kCmpConstJf:
    case Op::kCmpConstJt:
      // r[a] is written on both the branch-taken and fall-through paths.
      OSGUARD_RETURN_IF_ERROR(use(insn.b));
      OSGUARD_RETURN_IF_ERROR(def(insn.a));
      e.is_jump = true;
      e.jump_in_aux = true;
      return e;
    case Op::kCmpRegJf:
    case Op::kCmpRegJt:
      OSGUARD_RETURN_IF_ERROR(use(insn.b));
      OSGUARD_RETURN_IF_ERROR(use(insn.c));
      OSGUARD_RETURN_IF_ERROR(def(insn.a));
      e.is_jump = true;
      e.jump_in_aux = true;
      return e;
    case Op::kCallKeyed: {
      // The key comes from the constant pool: r[b] is not read.
      for (int i = 1; i < insn.c; ++i) {
        OSGUARD_RETURN_IF_ERROR(use(insn.b + i));
      }
      OSGUARD_RETURN_IF_ERROR(def(insn.a));
      return e;
    }
  }
  return VerifierError("unknown opcode " + std::to_string(static_cast<int>(insn.op)));
}

}  // namespace

Status Verify(const Program& program, const VerifyOptions& options) {
  const size_t n = program.insns.size();
  if (n == 0) {
    return VerifierError("program '" + program.name + "' is empty");
  }
  if (n > kMaxInstructions) {
    return VerifierError("program '" + program.name + "' exceeds " +
                         std::to_string(kMaxInstructions) + " instructions");
  }
  if (program.consts.size() > kMaxConstants) {
    return VerifierError("program '" + program.name + "' exceeds the constant pool limit");
  }
  if (program.register_count < 1 || program.register_count > kMaxRegisters) {
    return VerifierError("program '" + program.name + "' declares an invalid register count " +
                         std::to_string(program.register_count));
  }
  const int regs = program.register_count;

  // Pass 1: structural checks on each instruction.
  for (size_t pc = 0; pc < n; ++pc) {
    const Insn& insn = program.insns[pc];
    OSGUARD_ASSIGN_OR_RETURN(Effects effects, EffectsOf(insn));

    auto check_reg = [&](uint8_t reg, const char* what) -> Status {
      if (reg >= regs) {
        return VerifierError("program '" + program.name + "': " + what + " r" +
                             std::to_string(reg) + " out of range" + At(pc));
      }
      return OkStatus();
    };
    if (effects.def.has_value()) {
      OSGUARD_RETURN_IF_ERROR(check_reg(*effects.def, "destination register"));
    }
    for (int r = 0; r < kMaxRegisters; ++r) {
      if ((effects.uses >> r) & 1) {
        OSGUARD_RETURN_IF_ERROR(check_reg(static_cast<uint8_t>(r), "source register"));
      }
    }

    auto check_jump = [&](int32_t offset) -> Status {
      if (offset < 1) {
        return VerifierError("program '" + program.name +
                             "': non-forward jump (offset " + std::to_string(offset) + ")" +
                             At(pc));
      }
      const size_t target = pc + 1 + static_cast<size_t>(offset);
      if (target >= n) {
        return VerifierError("program '" + program.name + "': jump target " +
                             std::to_string(target) + " out of range" + At(pc));
      }
      return OkStatus();
    };
    auto check_const = [&](int32_t index) -> Status {
      if (index < 0 || static_cast<size_t>(index) >= program.consts.size()) {
        return VerifierError("program '" + program.name + "': constant index " +
                             std::to_string(index) + " out of range" + At(pc));
      }
      return OkStatus();
    };
    auto check_cmp_kind = [&](int kind) -> Status {
      if (kind < 0 || kind >= kCmpKindCount) {
        return VerifierError("program '" + program.name + "': invalid compare kind " +
                             std::to_string(kind) + At(pc));
      }
      return OkStatus();
    };
    auto check_call = [&](int32_t helper, int argc) -> Status {
      const Builtin* builtin = FindBuiltinById(static_cast<HelperId>(helper));
      if (builtin == nullptr) {
        return VerifierError("program '" + program.name + "': unknown helper " +
                             std::to_string(helper) + At(pc));
      }
      if (argc < builtin->min_args ||
          (builtin->max_args >= 0 && argc > builtin->max_args)) {
        return VerifierError("program '" + program.name + "': helper " +
                             std::string(builtin->name) + " called with " +
                             std::to_string(argc) + " args" + At(pc));
      }
      if (insn.b + argc > regs) {
        return VerifierError("program '" + program.name + "': helper argument window out of "
                             "range" + At(pc));
      }
      if (!options.allow_actions &&
          (builtin->is_action || IsMutatingHelperId(builtin->id))) {
        return VerifierError("program '" + program.name + "': side-effecting helper " +
                             std::string(builtin->name) +
                             " is not allowed in a rule program" + At(pc));
      }
      return OkStatus();
    };

    switch (insn.op) {
      case Op::kLoadConst:
        OSGUARD_RETURN_IF_ERROR(check_const(insn.imm));
        break;
      case Op::kJump:
      case Op::kJumpIfFalse:
      case Op::kJumpIfTrue:
        OSGUARD_RETURN_IF_ERROR(check_jump(insn.imm));
        break;
      case Op::kMakeList:
        if (insn.imm < 0 || insn.b + insn.imm > regs) {
          return VerifierError("program '" + program.name + "': list window out of range" +
                               At(pc));
        }
        break;
      case Op::kCall:
        OSGUARD_RETURN_IF_ERROR(check_call(insn.imm, insn.c));
        break;
      case Op::kCallKeyed:
        // The slot id (aux) is bound to a concrete store at load time; the
        // verifier only requires it to be non-negative — a stale or
        // out-of-range slot degrades to the string-keyed slow path at run
        // time, never to a fault. Only a keyed helper takes a key.
        if (insn.aux < 0) {
          return VerifierError("program '" + program.name + "': negative store slot" + At(pc));
        }
        if (!IsKeyedHelper(KeyedCallHelper(insn))) {
          return VerifierError("program '" + program.name + "': keyed call of helper " +
                               std::to_string(static_cast<int>(KeyedCallHelper(insn))) +
                               ", which takes no store key" + At(pc));
        }
        if (insn.c < 1 || KeyedCallKey(insn) >= program.consts.size() ||
            program.consts[KeyedCallKey(insn)].IfString() == nullptr) {
          return VerifierError("program '" + program.name +
                               "': keyed call without a string key constant" + At(pc));
        }
        OSGUARD_RETURN_IF_ERROR(check_call(static_cast<int32_t>(KeyedCallHelper(insn)), insn.c));
        break;
      case Op::kCmpConst:
        OSGUARD_RETURN_IF_ERROR(check_cmp_kind(insn.c));
        OSGUARD_RETURN_IF_ERROR(check_const(insn.imm));
        break;
      case Op::kCmpConstJf:
      case Op::kCmpConstJt:
        OSGUARD_RETURN_IF_ERROR(check_cmp_kind(insn.c));
        OSGUARD_RETURN_IF_ERROR(check_const(insn.imm));
        OSGUARD_RETURN_IF_ERROR(check_jump(insn.aux));
        break;
      case Op::kCmpRegJf:
      case Op::kCmpRegJt:
        OSGUARD_RETURN_IF_ERROR(check_cmp_kind(insn.imm));
        OSGUARD_RETURN_IF_ERROR(check_jump(insn.aux));
        break;
      default:
        break;
    }
  }

  // Pass 2: reachability + def-before-use dataflow. Jumps are forward-only
  // so a single in-order sweep reaches a fixpoint.
  std::vector<uint64_t> in_mask(n, 0);
  std::vector<bool> reachable(n, false);
  reachable[0] = true;
  bool saw_ret = false;
  for (size_t pc = 0; pc < n; ++pc) {
    if (!reachable[pc]) {
      continue;
    }
    const Insn& insn = program.insns[pc];
    Effects effects = EffectsOf(insn).value();  // validated in pass 1

    const uint64_t have = in_mask[pc];
    if ((effects.uses & ~have) != 0) {
      for (int r = 0; r < kMaxRegisters; ++r) {
        if (((effects.uses & ~have) >> r) & 1) {
          return VerifierError("program '" + program.name + "': register r" +
                               std::to_string(r) + " used before definition" + At(pc));
        }
      }
    }
    uint64_t out = have;
    if (effects.def.has_value()) {
      out |= Bit(*effects.def).value();  // validated in pass 1
    }

    auto propagate = [&](size_t target) {
      if (reachable[target]) {
        in_mask[target] &= out;  // intersection at join points
      } else {
        reachable[target] = true;
        in_mask[target] = out;
      }
    };
    if (effects.is_jump) {
      propagate(pc + 1 + static_cast<size_t>(JumpOffsetOf(insn, effects)));
    }
    if (effects.falls_through) {
      if (pc + 1 >= n) {
        return VerifierError("program '" + program.name +
                             "': execution can fall off the end" + At(pc));
      }
      propagate(pc + 1);
    }
    if (insn.op == Op::kRet) {
      saw_ret = true;
    }
  }
  if (!saw_ret) {
    return VerifierError("program '" + program.name + "' has no reachable return");
  }
  return OkStatus();
}

}  // namespace osguard
