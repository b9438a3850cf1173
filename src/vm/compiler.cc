#include "src/vm/compiler.h"

#include <algorithm>

#include "src/dsl/parser.h"
#include "src/vm/verifier.h"

namespace osguard {
namespace {

// Emits one program. Registers are allocated with stack discipline: a scope
// mark is taken before compiling a subexpression and restored once its value
// has been consumed.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name) { program_.name = std::move(name); }

  Result<int> AllocReg() {
    if (next_reg_ >= kMaxRegisters) {
      return VerifierError("program '" + program_.name + "' needs more than " +
                           std::to_string(kMaxRegisters) + " registers");
    }
    const int reg = next_reg_++;
    program_.register_count = std::max(program_.register_count, next_reg_);
    return reg;
  }
  int Mark() const { return next_reg_; }
  void Release(int mark) { next_reg_ = mark; }

  size_t Emit(Op op, uint8_t a = 0, uint8_t b = 0, uint8_t c = 0, int32_t imm = 0) {
    program_.insns.push_back(Insn{op, a, b, c, imm});
    return program_.insns.size() - 1;
  }

  // Emits a jump with a to-be-patched offset; PatchJump fixes it to point at
  // the current end of the program.
  size_t EmitJump(Op op, uint8_t cond_reg = 0) { return Emit(op, cond_reg, 0, 0, 0); }
  void PatchJump(size_t jump_pc) {
    program_.insns[jump_pc].imm =
        static_cast<int32_t>(program_.insns.size() - jump_pc - 1);
  }

  Result<int> InternConst(const Value& value) {
    for (size_t i = 0; i < program_.consts.size(); ++i) {
      if (program_.consts[i] == value) {
        return static_cast<int>(i);
      }
    }
    if (program_.consts.size() >= kMaxConstants) {
      return VerifierError("program '" + program_.name + "' exceeds the constant pool limit");
    }
    program_.consts.push_back(value);
    return static_cast<int>(program_.consts.size() - 1);
  }

  // Loads a constant into a fresh register.
  Result<int> EmitConst(const Value& value) {
    OSGUARD_ASSIGN_OR_RETURN(int index, InternConst(value));
    OSGUARD_ASSIGN_OR_RETURN(int reg, AllocReg());
    Emit(Op::kLoadConst, static_cast<uint8_t>(reg), 0, 0, index);
    return reg;
  }

  // r[dst] = canonical bool of r[src], via double negation.
  Result<int> EmitTruthy(int src) {
    OSGUARD_ASSIGN_OR_RETURN(int tmp, AllocReg());
    Emit(Op::kNot, static_cast<uint8_t>(tmp), static_cast<uint8_t>(src));
    Emit(Op::kNot, static_cast<uint8_t>(tmp), static_cast<uint8_t>(tmp));
    return tmp;
  }

  Program Take() { return std::move(program_); }

 private:
  Program program_;
  int next_reg_ = 0;
};

class ExprCompiler {
 public:
  explicit ExprCompiler(std::string name) : builder_(std::move(name)) {}

  ProgramBuilder& builder() { return builder_; }

  // Compiles `expr`, returning the register holding its value.
  Result<int> Compile(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kLiteral:
        return builder_.EmitConst(expr.literal);
      case ExprKind::kIdent:
        return CompileImplicitLoad(expr);
      case ExprKind::kUnary:
        return CompileUnary(expr);
      case ExprKind::kBinary:
        return CompileBinary(expr);
      case ExprKind::kCall:
        return CompileCall(expr);
      case ExprKind::kList:
        return SemanticError("a {...} list is only valid as a call argument: " +
                             expr.ToString());
    }
    return InternalError("unhandled expression kind");
  }

  // Finishes the program with `ret r`.
  Program Finish(int result_reg) {
    builder_.Emit(Op::kRet, static_cast<uint8_t>(result_reg));
    return builder_.Take();
  }

 private:
  Result<int> CompileImplicitLoad(const Expr& expr) {
    // Bare identifier: LOAD(key).
    OSGUARD_ASSIGN_OR_RETURN(int key_reg, builder_.EmitConst(Value(expr.name)));
    OSGUARD_ASSIGN_OR_RETURN(int dst, builder_.AllocReg());
    builder_.Emit(Op::kCall, static_cast<uint8_t>(dst), static_cast<uint8_t>(key_reg), 1,
                  static_cast<int32_t>(HelperId::kLoad));
    return dst;
  }

  Result<int> CompileUnary(const Expr& expr) {
    const int mark = builder_.Mark();
    OSGUARD_ASSIGN_OR_RETURN(int operand, Compile(*expr.children[0]));
    builder_.Release(mark);
    OSGUARD_ASSIGN_OR_RETURN(int dst, builder_.AllocReg());
    builder_.Emit(expr.unary_op == UnaryOp::kNeg ? Op::kNeg : Op::kNot,
                  static_cast<uint8_t>(dst), static_cast<uint8_t>(operand));
    return dst;
  }

  Result<int> CompileBinary(const Expr& expr) {
    if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
      return CompileShortCircuit(expr);
    }
    const int mark = builder_.Mark();
    OSGUARD_ASSIGN_OR_RETURN(int lhs, Compile(*expr.children[0]));
    OSGUARD_ASSIGN_OR_RETURN(int rhs, Compile(*expr.children[1]));
    builder_.Release(mark);
    OSGUARD_ASSIGN_OR_RETURN(int dst, builder_.AllocReg());
    Op op;
    switch (expr.binary_op) {
      case BinaryOp::kAdd:
        op = Op::kAdd;
        break;
      case BinaryOp::kSub:
        op = Op::kSub;
        break;
      case BinaryOp::kMul:
        op = Op::kMul;
        break;
      case BinaryOp::kDiv:
        op = Op::kDiv;
        break;
      case BinaryOp::kMod:
        op = Op::kMod;
        break;
      case BinaryOp::kLt:
        op = Op::kCmpLt;
        break;
      case BinaryOp::kLe:
        op = Op::kCmpLe;
        break;
      case BinaryOp::kGt:
        op = Op::kCmpGt;
        break;
      case BinaryOp::kGe:
        op = Op::kCmpGe;
        break;
      case BinaryOp::kEq:
        op = Op::kCmpEq;
        break;
      case BinaryOp::kNe:
        op = Op::kCmpNe;
        break;
      default:
        return InternalError("unexpected binary op");
    }
    builder_.Emit(op, static_cast<uint8_t>(dst), static_cast<uint8_t>(lhs),
                  static_cast<uint8_t>(rhs));
    return dst;
  }

  // dst = truthy(a); if (op==AND && !dst) skip b; dst = truthy(b)
  Result<int> CompileShortCircuit(const Expr& expr) {
    OSGUARD_ASSIGN_OR_RETURN(int dst, builder_.AllocReg());
    const int mark = builder_.Mark();
    OSGUARD_ASSIGN_OR_RETURN(int lhs, Compile(*expr.children[0]));
    builder_.Emit(Op::kNot, static_cast<uint8_t>(dst), static_cast<uint8_t>(lhs));
    builder_.Emit(Op::kNot, static_cast<uint8_t>(dst), static_cast<uint8_t>(dst));
    builder_.Release(mark);
    const Op skip_op =
        expr.binary_op == BinaryOp::kAnd ? Op::kJumpIfFalse : Op::kJumpIfTrue;
    const size_t jump_pc = builder_.EmitJump(skip_op, static_cast<uint8_t>(dst));
    OSGUARD_ASSIGN_OR_RETURN(int rhs, Compile(*expr.children[1]));
    builder_.Emit(Op::kNot, static_cast<uint8_t>(dst), static_cast<uint8_t>(rhs));
    builder_.Emit(Op::kNot, static_cast<uint8_t>(dst), static_cast<uint8_t>(dst));
    builder_.Release(mark);
    builder_.PatchJump(jump_pc);
    return dst;
  }

  // Evaluates one call argument according to its declared mode, leaving the
  // value in a freshly allocated register (so consecutive arguments occupy
  // consecutive registers).
  Result<int> CompileCallArg(const Expr& arg, ArgMode mode) {
    switch (mode) {
      case ArgMode::kKey: {
        // Bare identifier or string literal -> string constant.
        std::string key;
        if (arg.kind == ExprKind::kIdent) {
          key = arg.name;
        } else if (arg.kind == ExprKind::kLiteral &&
                   arg.literal.type() == ValueType::kString) {
          key = arg.literal.AsString().value();
        } else {
          return SemanticError("expected a key identifier, got: " + arg.ToString());
        }
        return builder_.EmitConst(Value(std::move(key)));
      }
      case ArgMode::kNameList: {
        if (arg.kind != ExprKind::kList) {
          return SemanticError("expected a {name, ...} list, got: " + arg.ToString());
        }
        std::vector<Value> names;
        for (const ExprPtr& element : arg.children) {
          if (element->kind == ExprKind::kIdent) {
            names.emplace_back(element->name);
          } else if (element->kind == ExprKind::kLiteral &&
                     element->literal.type() == ValueType::kString) {
            names.push_back(element->literal);
          } else {
            return SemanticError("name lists may only contain identifiers: " +
                                 element->ToString());
          }
        }
        return builder_.EmitConst(Value(std::move(names)));
      }
      case ArgMode::kValueList: {
        if (arg.kind != ExprKind::kList) {
          return SemanticError("expected a {value, ...} list, got: " + arg.ToString());
        }
        // Evaluate elements into consecutive registers, then fold into one
        // list register at the position the argument window expects.
        OSGUARD_ASSIGN_OR_RETURN(int dst, builder_.AllocReg());
        const int mark = builder_.Mark();
        int first = -1;
        for (const ExprPtr& element : arg.children) {
          const int element_mark = builder_.Mark();
          OSGUARD_ASSIGN_OR_RETURN(int value_reg, Compile(*element));
          // Pin the element value at the next consecutive slot.
          if (value_reg != element_mark) {
            builder_.Emit(Op::kMov, static_cast<uint8_t>(element_mark),
                          static_cast<uint8_t>(value_reg));
            builder_.Release(element_mark + 1);
          }
          if (first < 0) {
            first = element_mark;
          }
        }
        builder_.Emit(Op::kMakeList, static_cast<uint8_t>(dst),
                      static_cast<uint8_t>(first < 0 ? 0 : first), 0,
                      static_cast<int32_t>(arg.children.size()));
        builder_.Release(mark);
        return dst;
      }
      case ArgMode::kValue: {
        const int slot = builder_.Mark();
        OSGUARD_ASSIGN_OR_RETURN(int value_reg, Compile(arg));
        if (value_reg != slot) {
          builder_.Emit(Op::kMov, static_cast<uint8_t>(slot),
                        static_cast<uint8_t>(value_reg));
          builder_.Release(slot + 1);
        }
        return slot;
      }
    }
    return InternalError("unhandled argument mode");
  }

  Result<int> CompileCall(const Expr& expr) {
    const Builtin* builtin = FindBuiltin(expr.name);
    if (builtin == nullptr) {
      return SemanticError("unknown function '" + expr.name + "'");
    }
    const int mark = builder_.Mark();
    int first_arg = -1;
    for (size_t i = 0; i < expr.children.size(); ++i) {
      ArgMode mode = ArgMode::kValue;
      if (!builtin->arg_modes.empty()) {
        const size_t mode_index = std::min(i, builtin->arg_modes.size() - 1);
        mode = builtin->arg_modes[mode_index];
      }
      OSGUARD_ASSIGN_OR_RETURN(int reg, CompileCallArg(*expr.children[i], mode));
      if (first_arg < 0) {
        first_arg = reg;
      }
    }
    builder_.Release(mark);
    OSGUARD_ASSIGN_OR_RETURN(int dst, builder_.AllocReg());
    builder_.Emit(Op::kCall, static_cast<uint8_t>(dst),
                  static_cast<uint8_t>(first_arg < 0 ? 0 : first_arg),
                  static_cast<uint8_t>(expr.children.size()),
                  static_cast<int32_t>(builtin->id));
    return dst;
  }

  ProgramBuilder builder_;
};

// Compiles the conjunction of `rules` into a program returning bool.
Result<Program> CompileRuleProgram(const std::vector<ExprPtr>& rules, const std::string& name) {
  ExprCompiler compiler(name);
  ProgramBuilder& b = compiler.builder();
  OSGUARD_ASSIGN_OR_RETURN(int dst, b.AllocReg());
  std::vector<size_t> exit_jumps;
  for (size_t i = 0; i < rules.size(); ++i) {
    const int mark = b.Mark();
    OSGUARD_ASSIGN_OR_RETURN(int value_reg, compiler.Compile(*rules[i]));
    b.Emit(Op::kNot, static_cast<uint8_t>(dst), static_cast<uint8_t>(value_reg));
    b.Emit(Op::kNot, static_cast<uint8_t>(dst), static_cast<uint8_t>(dst));
    b.Release(mark);
    if (i + 1 < rules.size()) {
      exit_jumps.push_back(b.EmitJump(Op::kJumpIfFalse, static_cast<uint8_t>(dst)));
    }
  }
  for (size_t jump_pc : exit_jumps) {
    b.PatchJump(jump_pc);
  }
  Program program = PeepholeOptimize(compiler.Finish(dst));
  OSGUARD_RETURN_IF_ERROR(Verify(program, VerifyOptions{.allow_actions = false}));
  return program;
}

// Compiles a sequence of action statements into a program returning nil.
Result<Program> CompileActionProgram(const std::vector<ExprPtr>& statements,
                                     const std::string& name) {
  ExprCompiler compiler(name);
  ProgramBuilder& b = compiler.builder();
  for (const ExprPtr& stmt : statements) {
    const int mark = b.Mark();
    OSGUARD_RETURN_IF_ERROR(compiler.Compile(*stmt).status());
    b.Release(mark);
  }
  OSGUARD_ASSIGN_OR_RETURN(int nil_reg, b.EmitConst(Value()));
  Program program = PeepholeOptimize(compiler.Finish(nil_reg));
  OSGUARD_RETURN_IF_ERROR(Verify(program, VerifyOptions{.allow_actions = true}));
  return program;
}

}  // namespace

// ---------------------------------------------------------------------------
// Peephole optimizer.
//
// Operates on the builder's output before verification. Because verified
// programs only ever jump forward, a single backward sweep computes exact
// liveness and a single forward sweep can apply local rewrites; deletions are
// committed at the end of each round by compacting the instruction vector and
// remapping every jump offset. Rounds iterate to a small fixpoint so that,
// e.g., a LoadConst+Cmp fusion in round 1 exposes a CmpConst+branch fusion in
// round 2.
// ---------------------------------------------------------------------------

namespace {

struct PeepEffects {
  uint64_t uses = 0;
  uint64_t defs = 0;
  bool is_jump = false;
  bool jump_in_aux = false;   // fused branches keep their offset in aux
  bool falls_through = true;
};

PeepEffects PeepEffectsOf(const Insn& insn) {
  PeepEffects e;
  e.uses = RegistersRead(insn);
  switch (insn.op) {
    case Op::kJump:
      e.is_jump = true;
      e.falls_through = false;
      break;
    case Op::kJumpIfFalse:
    case Op::kJumpIfTrue:
      e.is_jump = true;
      break;
    case Op::kRet:
      e.falls_through = false;
      break;
    case Op::kCmpConstJf:
    case Op::kCmpConstJt:
    case Op::kCmpRegJf:
    case Op::kCmpRegJt:
      e.defs = uint64_t{1} << insn.a;
      e.is_jump = true;
      e.jump_in_aux = true;
      break;
    default:  // every other op writes r[a]
      e.defs = uint64_t{1} << insn.a;
      break;
  }
  return e;
}

int32_t PeepJumpOffset(const Insn& insn, const PeepEffects& e) {
  return e.jump_in_aux ? insn.aux : insn.imm;
}

bool IsPlainCmp(Op op) {
  const int v = static_cast<int>(op);
  return v >= static_cast<int>(Op::kCmpLt) && v <= static_cast<int>(Op::kCmpNe);
}

// Ops that always leave a canonical bool in their destination register.
bool IsBoolProducer(Op op) {
  return IsPlainCmp(op) || op == Op::kNot || op == Op::kCmpConst;
}

// cmp<kind> with swapped operands: const OP x  ==  x OP' const.
int MirrorCmpKind(int kind) {
  switch (kind) {
    case 0:  // Lt -> Gt
      return 2;
    case 1:  // Le -> Ge
      return 3;
    case 2:  // Gt -> Lt
      return 0;
    case 3:  // Ge -> Le
      return 1;
    default:  // Eq / Ne are symmetric
      return kind;
  }
}

// Cheap structural sanity check so the optimizer can assume in-range register
// indices (shift safety) and in-bounds forward jumps. Anything questionable
// makes PeepholeOptimize a no-op; Verify() reports the real diagnostic.
bool PeepSafe(const Program& program) {
  const size_t n = program.insns.size();
  for (size_t pc = 0; pc < n; ++pc) {
    const Insn& insn = program.insns[pc];
    if (static_cast<int>(insn.op) >= kOpCount) {
      return false;
    }
    if (insn.a >= kMaxRegisters || insn.b >= kMaxRegisters || insn.c >= kMaxRegisters) {
      return false;
    }
    if (insn.op == Op::kMakeList &&
        (insn.imm < 0 || insn.b + insn.imm > kMaxRegisters)) {
      return false;
    }
    if ((insn.op == Op::kCall || insn.op == Op::kCallKeyed) &&
        insn.b + insn.c > kMaxRegisters) {
      return false;
    }
    const PeepEffects e = PeepEffectsOf(insn);
    if (e.is_jump) {
      const int32_t off = PeepJumpOffset(insn, e);
      if (off < 1 || pc + 1 + static_cast<size_t>(off) >= n) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

Program PeepholeOptimize(Program program) {
  if (program.insns.empty() || !PeepSafe(program)) {
    return program;
  }

  for (int round = 0; round < 4; ++round) {
    std::vector<Insn>& insns = program.insns;
    const size_t m = insns.size();

    // Which pcs are jump targets. Fusions never span a target pc: the second
    // instruction of a fused pair must be reachable only by falling out of
    // the first, otherwise the join path would observe different state.
    std::vector<char> is_target(m, 0);
    for (size_t k = 0; k < m; ++k) {
      const PeepEffects e = PeepEffectsOf(insns[k]);
      if (e.is_jump) {
        is_target[k + 1 + static_cast<size_t>(PeepJumpOffset(insns[k], e))] = 1;
      }
    }

    // Exact backward liveness — forward-only jumps mean one sweep suffices.
    std::vector<uint64_t> live_in(m + 1, 0);
    std::vector<uint64_t> live_out(m, 0);
    for (size_t k = m; k-- > 0;) {
      const PeepEffects e = PeepEffectsOf(insns[k]);
      uint64_t out = 0;
      if (e.falls_through && k + 1 < m) {
        out |= live_in[k + 1];
      }
      if (e.is_jump) {
        out |= live_in[k + 1 + static_cast<size_t>(PeepJumpOffset(insns[k], e))];
      }
      live_out[k] = out;
      live_in[k] = (out & ~e.defs) | e.uses;
    }

    std::vector<char> deleted(m, 0);
    bool changed = false;

    size_t i = 0;
    while (i < m) {
      // Pattern: <bool-producer> r ; not t, r ; not t, t
      // The double negation only canonicalizes truthiness, and a compare/not
      // already yields a canonical bool.
      if (i + 2 < m && IsBoolProducer(insns[i].op) && insns[i + 1].op == Op::kNot &&
          insns[i + 2].op == Op::kNot && !is_target[i + 1] && !is_target[i + 2] &&
          insns[i + 1].b == insns[i].a && insns[i + 2].a == insns[i + 1].a &&
          insns[i + 2].b == insns[i + 1].a) {
        const uint8_t r = insns[i].a;
        const uint8_t t = insns[i + 1].a;
        if (t == r) {
          deleted[i + 1] = deleted[i + 2] = 1;
        } else if (((live_out[i + 2] >> r) & 1) == 0) {
          // r dies here: produce the bool directly into t.
          insns[i].a = t;
          deleted[i + 1] = deleted[i + 2] = 1;
        } else {
          insns[i + 1] = Insn{Op::kMov, t, r, 0, 0, 0};
          deleted[i + 2] = 1;
        }
        changed = true;
        i += 3;
        continue;
      }
      // Pattern: ldc r, <const> ; cmp a, b, c with r as exactly one operand
      // and r dead afterwards  ->  cmpc against the constant pool directly
      // (mirrored predicate when the constant was the left operand).
      if (i + 1 < m && insns[i].op == Op::kLoadConst && IsPlainCmp(insns[i + 1].op) &&
          !is_target[i + 1]) {
        const uint8_t r = insns[i].a;
        Insn& cmp = insns[i + 1];
        const bool rhs_const = cmp.c == r;
        const bool lhs_const = cmp.b == r;
        if (rhs_const != lhs_const && ((live_out[i + 1] >> r) & 1) == 0) {
          const int kind = CmpOpToKind(cmp.op);
          if (rhs_const) {
            cmp = Insn{Op::kCmpConst, cmp.a, cmp.b, static_cast<uint8_t>(kind),
                       insns[i].imm, 0};
          } else {
            cmp = Insn{Op::kCmpConst, cmp.a, cmp.c,
                       static_cast<uint8_t>(MirrorCmpKind(kind)), insns[i].imm, 0};
          }
          deleted[i] = 1;
          changed = true;
          i += 2;
          continue;
        }
      }
      // Pattern: cmp/cmpc a, ... ; jz/jnz a  ->  fused compare-and-branch.
      // The fused form still writes a on both paths, so later readers of the
      // compare result are unaffected.
      if (i + 1 < m && !is_target[i + 1] &&
          (insns[i + 1].op == Op::kJumpIfFalse || insns[i + 1].op == Op::kJumpIfTrue) &&
          insns[i + 1].a == insns[i].a &&
          (IsPlainCmp(insns[i].op) || insns[i].op == Op::kCmpConst)) {
        const bool jf = insns[i + 1].op == Op::kJumpIfFalse;
        // Same absolute target, measured from pc i instead of pc i+1.
        const int32_t aux = insns[i + 1].imm + 1;
        if (insns[i].op == Op::kCmpConst) {
          insns[i] = Insn{jf ? Op::kCmpConstJf : Op::kCmpConstJt, insns[i].a, insns[i].b,
                          insns[i].c, insns[i].imm, aux};
        } else {
          insns[i] = Insn{jf ? Op::kCmpRegJf : Op::kCmpRegJt, insns[i].a, insns[i].b,
                          insns[i].c, CmpOpToKind(insns[i].op), aux};
        }
        deleted[i + 1] = 1;
        changed = true;
        i += 2;
        continue;
      }
      ++i;
    }

    if (!changed) {
      break;
    }

    // Deleting instructions can collapse a jump onto its own fall-through
    // (offset 0 after remap), which the verifier rejects. Drop such jumps —
    // plain ones disappear, fused ones revert to their branch-free compare.
    // Each conversion removes a jump, so this inner loop terminates.
    for (;;) {
      std::vector<size_t> new_index(m + 1, 0);
      for (size_t k = 0; k < m; ++k) {
        new_index[k + 1] = new_index[k] + (deleted[k] ? 0 : 1);
      }
      bool jump_removed = false;
      for (size_t k = 0; k < m; ++k) {
        if (deleted[k]) {
          continue;
        }
        const PeepEffects e = PeepEffectsOf(insns[k]);
        if (!e.is_jump) {
          continue;
        }
        const size_t t = k + 1 + static_cast<size_t>(PeepJumpOffset(insns[k], e));
        if (new_index[t] != new_index[k + 1]) {
          continue;  // still jumps over something
        }
        if (insns[k].op == Op::kJump || insns[k].op == Op::kJumpIfFalse ||
            insns[k].op == Op::kJumpIfTrue) {
          deleted[k] = 1;
        } else if (insns[k].op == Op::kCmpRegJf || insns[k].op == Op::kCmpRegJt) {
          insns[k] = Insn{CmpKindToOp(insns[k].imm), insns[k].a, insns[k].b, insns[k].c,
                          0, 0};
        } else {  // kCmpConstJf / kCmpConstJt
          insns[k] = Insn{Op::kCmpConst, insns[k].a, insns[k].b, insns[k].c,
                          insns[k].imm, 0};
        }
        jump_removed = true;
      }
      if (!jump_removed) {
        break;
      }
    }

    // Compact and remap every jump offset.
    std::vector<size_t> new_index(m + 1, 0);
    for (size_t k = 0; k < m; ++k) {
      new_index[k + 1] = new_index[k] + (deleted[k] ? 0 : 1);
    }
    std::vector<Insn> out;
    out.reserve(new_index[m]);
    for (size_t k = 0; k < m; ++k) {
      if (deleted[k]) {
        continue;
      }
      Insn insn = insns[k];
      const PeepEffects e = PeepEffectsOf(insn);
      if (e.is_jump) {
        const size_t t = k + 1 + static_cast<size_t>(PeepJumpOffset(insn, e));
        const int32_t off =
            static_cast<int32_t>(new_index[t]) - static_cast<int32_t>(new_index[k]) - 1;
        if (e.jump_in_aux) {
          insn.aux = off;
        } else {
          insn.imm = off;
        }
      }
      out.push_back(insn);
    }
    program.insns = std::move(out);
  }
  return program;
}

Result<Program> CompileExpr(const Expr& expr, const std::string& name) {
  ExprCompiler compiler(name);
  OSGUARD_ASSIGN_OR_RETURN(int result_reg, compiler.Compile(expr));
  Program program = PeepholeOptimize(compiler.Finish(result_reg));
  OSGUARD_RETURN_IF_ERROR(Verify(program, VerifyOptions{.allow_actions = false}));
  return program;
}

Result<CompiledGuardrail> CompileGuardrail(const AnalyzedGuardrail& guardrail) {
  CompiledGuardrail out;
  out.name = guardrail.decl.name;
  out.meta = guardrail.meta;
  for (const TriggerDecl& trigger : guardrail.decl.triggers) {
    CompiledTrigger compiled;
    compiled.kind = trigger.kind;
    compiled.start = trigger.start;
    compiled.interval = trigger.interval;
    compiled.stop = trigger.stop;
    compiled.function_name = trigger.function_name;
    compiled.watch_key = trigger.watch_key;
    out.triggers.push_back(std::move(compiled));
  }
  OSGUARD_ASSIGN_OR_RETURN(out.rule,
                           CompileRuleProgram(guardrail.decl.rules, out.name + ".rule"));
  OSGUARD_ASSIGN_OR_RETURN(
      out.action, CompileActionProgram(guardrail.decl.actions, out.name + ".action"));
  if (!guardrail.decl.satisfy_actions.empty()) {
    OSGUARD_ASSIGN_OR_RETURN(
        out.on_satisfy,
        CompileActionProgram(guardrail.decl.satisfy_actions, out.name + ".on_satisfy"));
  }
  return out;
}

Result<std::vector<CompiledGuardrail>> CompileSpec(const AnalyzedSpec& spec) {
  std::vector<CompiledGuardrail> out;
  out.reserve(spec.guardrails.size());
  for (const AnalyzedGuardrail& guardrail : spec.guardrails) {
    OSGUARD_ASSIGN_OR_RETURN(CompiledGuardrail compiled, CompileGuardrail(guardrail));
    out.push_back(std::move(compiled));
  }
  return out;
}

Result<std::vector<CompiledGuardrail>> CompileSource(const std::string& source) {
  OSGUARD_ASSIGN_OR_RETURN(SpecFile spec, ParseSpecSource(source));
  OSGUARD_ASSIGN_OR_RETURN(AnalyzedSpec analyzed, Analyze(std::move(spec)));
  return CompileSpec(analyzed);
}

}  // namespace osguard
