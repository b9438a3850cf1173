#include "src/vm/vm.h"

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

// The interpreter dispatches with computed goto (a label address table
// indexed by opcode), which gives each handler its own indirect branch and
// lets the CPU's branch predictor learn per-opcode successor patterns — the
// classic "threaded code" win over a single switch whose one indirect branch
// aliases every opcode transition. Labels-as-values is a GNU extension that
// both compilers able to build this tree (GCC and Clang) provide.
#if !defined(__GNUC__) && !defined(__clang__)
#error "the VM's threaded dispatch needs the labels-as-values extension (GCC or Clang)"
#endif

namespace osguard {

Result<Value> HelperContext::CallHelperKeyed(HelperId id, uint32_t slot, const Value& key,
                                             std::span<const Value> rest) {
  (void)slot;
  std::vector<Value> args;
  args.reserve(rest.size() + 1);
  args.push_back(key);
  args.insert(args.end(), rest.begin(), rest.end());
  return CallHelper(id, args);
}

bool TruthyValue(const Value& value) {
  switch (value.type()) {
    case ValueType::kNil:
      return false;
    case ValueType::kBool:
      return *value.IfBool();
    case ValueType::kInt:
      return *value.IfInt() != 0;
    case ValueType::kFloat:
      return *value.IfFloat() != 0.0;
    case ValueType::kString:
      return !value.IfString()->empty();
    case ValueType::kList:
      return !value.IfList()->empty();
  }
  return false;
}

namespace {

bool Truthy(const Value& v) { return TruthyValue(v); }

// Two's-complement wrapping int64 arithmetic (the kernel-friendly overflow
// behavior the VM guarantees). Routed through uint64 so it is defined
// behavior — signed overflow would be UB and trips UBSan.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) - static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) * static_cast<uint64_t>(b));
}
inline int64_t WrapNeg(int64_t a) {
  return static_cast<int64_t>(0u - static_cast<uint64_t>(a));
}

inline Result<Value> Arith(Op op, const Value& lhs, const Value& rhs) {
  if (!lhs.is_numeric() && lhs.type() != ValueType::kBool) {
    return ExecutionError("arithmetic on non-numeric value " + lhs.ToString());
  }
  if (!rhs.is_numeric() && rhs.type() != ValueType::kBool) {
    return ExecutionError("arithmetic on non-numeric value " + rhs.ToString());
  }
  const bool both_int = lhs.type() == ValueType::kInt && rhs.type() == ValueType::kInt;
  const double a = lhs.NumericOr(0.0);
  const double b = rhs.NumericOr(0.0);
  switch (op) {
    case Op::kAdd:
      return both_int ? Value(WrapAdd(lhs.AsInt().value(), rhs.AsInt().value())) : Value(a + b);
    case Op::kSub:
      return both_int ? Value(WrapSub(lhs.AsInt().value(), rhs.AsInt().value())) : Value(a - b);
    case Op::kMul:
      return both_int ? Value(WrapMul(lhs.AsInt().value(), rhs.AsInt().value())) : Value(a * b);
    case Op::kDiv:
      if (b == 0.0) {
        return ExecutionError("division by zero");
      }
      return Value(a / b);
    case Op::kMod: {
      if (b == 0.0) {
        return ExecutionError("modulo by zero");
      }
      if (both_int) {
        const int64_t divisor = rhs.AsInt().value();
        // INT64_MIN % -1 overflows in hardware; the wrapped answer is 0.
        if (divisor == -1) {
          return Value(int64_t{0});
        }
        return Value(lhs.AsInt().value() % divisor);
      }
      return Value(std::fmod(a, b));
    }
    default:
      return InternalError("not an arithmetic op");
  }
}

// Numbers and bools all participate in numeric comparison (bool as 0/1),
// matching EvalConst's semantics.
inline bool NumericLike(const Value& v) {
  return v.is_numeric() || v.type() == ValueType::kBool;
}

inline Result<Value> Compare(Op op, const Value& lhs, const Value& rhs) {
  if (op == Op::kCmpEq) {
    return Value(lhs == rhs || (NumericLike(lhs) && NumericLike(rhs) &&
                                lhs.NumericOr(0.0) == rhs.NumericOr(0.0)));
  }
  if (op == Op::kCmpNe) {
    return Value(!(lhs == rhs || (NumericLike(lhs) && NumericLike(rhs) &&
                                  lhs.NumericOr(0.0) == rhs.NumericOr(0.0))));
  }
  // Ordered comparisons: strings compare lexicographically, numerics (and
  // bools) numerically; anything else faults.
  if (lhs.type() == ValueType::kString && rhs.type() == ValueType::kString) {
    const std::string& a = *lhs.IfString();
    const std::string& b = *rhs.IfString();
    switch (op) {
      case Op::kCmpLt:
        return Value(a < b);
      case Op::kCmpLe:
        return Value(a <= b);
      case Op::kCmpGt:
        return Value(a > b);
      case Op::kCmpGe:
        return Value(a >= b);
      default:
        break;
    }
  }
  const bool lhs_ok = NumericLike(lhs);
  const bool rhs_ok = NumericLike(rhs);
  if (!lhs_ok || !rhs_ok) {
    return ExecutionError("ordered comparison on non-numeric values " + lhs.ToString() +
                          " and " + rhs.ToString());
  }
  const double a = lhs.NumericOr(0.0);
  const double b = rhs.NumericOr(0.0);
  switch (op) {
    case Op::kCmpLt:
      return Value(a < b);
    case Op::kCmpLe:
      return Value(a <= b);
    case Op::kCmpGt:
      return Value(a > b);
    case Op::kCmpGe:
      return Value(a >= b);
    default:
      return InternalError("not a comparison op");
  }
}

// Int/float view used by the numeric fast paths. Bools and everything else
// decline, falling back to the generic Arith/Compare routines, so semantics
// are bit-identical to the slow path: both already funnel mixed numeric
// operands through doubles via NumericOr.
inline bool ToDouble(const Value& v, double* out) {
  if (const int64_t* i = v.IfInt()) {
    *out = static_cast<double>(*i);
    return true;
  }
  if (const double* d = v.IfFloat()) {
    *out = *d;
    return true;
  }
  return false;
}

inline bool CmpKindDouble(int kind, double a, double b) {
  switch (kind) {
    case 0:
      return a < b;
    case 1:
      return a <= b;
    case 2:
      return a > b;
    case 3:
      return a >= b;
    case 4:
      return a == b;
    default:
      return a != b;
  }
}

// cmp<kind>(lhs, rhs) with the numeric fast path. Returns false on fault with
// *fault set; otherwise *out holds the comparison result.
inline bool DoCompare(int kind, const Value& lhs, const Value& rhs, bool* out,
                      Status* fault) {
  double a;
  double b;
  if (ToDouble(lhs, &a) && ToDouble(rhs, &b)) {
    *out = CmpKindDouble(kind, a, b);
    return true;
  }
  auto result = Compare(CmpKindToOp(kind), lhs, rhs);
  if (!result.ok()) {
    *fault = result.status();
    return false;
  }
  *out = TruthyValue(result.value());
  return true;
}

}  // namespace

Result<Value> Vm::Execute(const Program& program, HelperContext& context, int64_t max_steps) {
  // Register file: normally the member scratch array (reused across calls so
  // a 1 kHz monitor doesn't churn 64 Value constructions per tick); on
  // re-entrant execution a heap-allocated spare.
  std::unique_ptr<std::array<Value, kMaxRegisters>> spare;
  Value* regs;
  if (!scratch_in_use_) {
    scratch_in_use_ = true;
    regs = scratch_regs_.data();
  } else {
    spare = std::make_unique<std::array<Value, kMaxRegisters>>();
    regs = spare->data();
  }
  struct ScratchGuard {
    Vm* vm;
    bool release;
    ~ScratchGuard() {
      if (release) {
        vm->scratch_in_use_ = false;
      }
    }
  } scratch_guard{this, spare == nullptr};

  const Insn* const insns = program.insns.data();
  const Value* const consts = program.consts.data();
  const size_t n = program.insns.size();
  size_t pc = 0;
  int64_t executed = 0;
  // One compare per instruction covers both bounds; lbl_budget tells them
  // apart.
  const int64_t step_limit =
      max_steps > 0 && max_steps < kMaxInstructions ? max_steps : kMaxInstructions;
  const Insn* insn = nullptr;
  Status fault;

  // Indexed by static_cast<int>(Op); must stay in enum declaration order.
  static const void* const kDispatch[kOpCount] = {
      &&lbl_LoadConst, &&lbl_Mov,         &&lbl_Add,        &&lbl_Sub,
      &&lbl_Mul,       &&lbl_Div,         &&lbl_Mod,        &&lbl_Neg,
      &&lbl_Not,       &&lbl_Cmp,         &&lbl_Cmp,        &&lbl_Cmp,
      &&lbl_Cmp,       &&lbl_Cmp,         &&lbl_Cmp,        &&lbl_Jump,
      &&lbl_JumpIfFalse, &&lbl_JumpIfTrue, &&lbl_MakeList,  &&lbl_Call,
      &&lbl_Ret,       &&lbl_CmpConst,    &&lbl_CmpConstJf, &&lbl_CmpConstJt,
      &&lbl_CmpRegJf,  &&lbl_CmpRegJt,    &&lbl_CallKeyed,
  };

#define VM_CASE(name) lbl_##name:
#define VM_NEXT()                                             \
  do {                                                        \
    if (pc >= n) goto lbl_off_end;                            \
    if (++executed > step_limit) goto lbl_budget;             \
    insn = &insns[pc];                                        \
    if (static_cast<int>(insn->op) >= kOpCount) goto lbl_bad_op; \
    goto* kDispatch[static_cast<int>(insn->op)];              \
  } while (0)

  VM_NEXT();  // initial dispatch

  VM_CASE(LoadConst) {
    regs[insn->a] = consts[static_cast<size_t>(insn->imm)];
    ++pc;
    VM_NEXT();
  }
  VM_CASE(Mov) {
    regs[insn->a] = regs[insn->b];
    ++pc;
    VM_NEXT();
  }
  VM_CASE(Add) {
    const Value& lhs = regs[insn->b];
    const Value& rhs = regs[insn->c];
    if (const int64_t* li = lhs.IfInt()) {
      if (const int64_t* ri = rhs.IfInt()) {
        regs[insn->a] = Value(WrapAdd(*li, *ri));
        ++pc;
        VM_NEXT();
      }
    }
    double a;
    double b;
    if (ToDouble(lhs, &a) && ToDouble(rhs, &b)) {
      regs[insn->a] = Value(a + b);
      ++pc;
      VM_NEXT();
    }
    auto result = Arith(Op::kAdd, lhs, rhs);
    if (!result.ok()) {
      fault = result.status();
      goto lbl_fault;
    }
    regs[insn->a] = std::move(result).value();
    ++pc;
    VM_NEXT();
  }
  VM_CASE(Sub) {
    const Value& lhs = regs[insn->b];
    const Value& rhs = regs[insn->c];
    if (const int64_t* li = lhs.IfInt()) {
      if (const int64_t* ri = rhs.IfInt()) {
        regs[insn->a] = Value(WrapSub(*li, *ri));
        ++pc;
        VM_NEXT();
      }
    }
    double a;
    double b;
    if (ToDouble(lhs, &a) && ToDouble(rhs, &b)) {
      regs[insn->a] = Value(a - b);
      ++pc;
      VM_NEXT();
    }
    auto result = Arith(Op::kSub, lhs, rhs);
    if (!result.ok()) {
      fault = result.status();
      goto lbl_fault;
    }
    regs[insn->a] = std::move(result).value();
    ++pc;
    VM_NEXT();
  }
  VM_CASE(Mul) {
    const Value& lhs = regs[insn->b];
    const Value& rhs = regs[insn->c];
    if (const int64_t* li = lhs.IfInt()) {
      if (const int64_t* ri = rhs.IfInt()) {
        regs[insn->a] = Value(WrapMul(*li, *ri));
        ++pc;
        VM_NEXT();
      }
    }
    double a;
    double b;
    if (ToDouble(lhs, &a) && ToDouble(rhs, &b)) {
      regs[insn->a] = Value(a * b);
      ++pc;
      VM_NEXT();
    }
    auto result = Arith(Op::kMul, lhs, rhs);
    if (!result.ok()) {
      fault = result.status();
      goto lbl_fault;
    }
    regs[insn->a] = std::move(result).value();
    ++pc;
    VM_NEXT();
  }
  VM_CASE(Div) {
    double a;
    double b;
    if (ToDouble(regs[insn->b], &a) && ToDouble(regs[insn->c], &b) && b != 0.0) {
      regs[insn->a] = Value(a / b);
      ++pc;
      VM_NEXT();
    }
    auto result = Arith(Op::kDiv, regs[insn->b], regs[insn->c]);
    if (!result.ok()) {
      fault = result.status();
      goto lbl_fault;
    }
    regs[insn->a] = std::move(result).value();
    ++pc;
    VM_NEXT();
  }
  VM_CASE(Mod) {
    auto result = Arith(Op::kMod, regs[insn->b], regs[insn->c]);
    if (!result.ok()) {
      fault = result.status();
      goto lbl_fault;
    }
    regs[insn->a] = std::move(result).value();
    ++pc;
    VM_NEXT();
  }
  VM_CASE(Neg) {
    const Value& v = regs[insn->b];
    if (const int64_t* i = v.IfInt()) {
      regs[insn->a] = Value(WrapNeg(*i));
    } else if (const double* d = v.IfFloat()) {
      regs[insn->a] = Value(-*d);
    } else if (const bool* bv = v.IfBool()) {
      regs[insn->a] = Value(*bv ? -1 : 0);
    } else {
      fault = ExecutionError("cannot negate " + v.ToString());
      goto lbl_fault;
    }
    ++pc;
    VM_NEXT();
  }
  VM_CASE(Not) {
    regs[insn->a] = Value(!Truthy(regs[insn->b]));
    ++pc;
    VM_NEXT();
  }
  VM_CASE(Cmp) {
    bool flag;
    if (!DoCompare(CmpOpToKind(insn->op), regs[insn->b], regs[insn->c], &flag,
                   &fault)) {
      goto lbl_fault;
    }
    regs[insn->a] = Value(flag);
    ++pc;
    VM_NEXT();
  }
  VM_CASE(Jump) {
    pc += 1 + static_cast<size_t>(insn->imm);
    VM_NEXT();
  }
  VM_CASE(JumpIfFalse) {
    pc += Truthy(regs[insn->a]) ? 1 : 1 + static_cast<size_t>(insn->imm);
    VM_NEXT();
  }
  VM_CASE(JumpIfTrue) {
    pc += Truthy(regs[insn->a]) ? 1 + static_cast<size_t>(insn->imm) : 1;
    VM_NEXT();
  }
  VM_CASE(MakeList) {
    std::vector<Value> list;
    list.reserve(static_cast<size_t>(insn->imm));
    for (int i = 0; i < insn->imm; ++i) {
      list.push_back(regs[insn->b + i]);
    }
    regs[insn->a] = Value(std::move(list));
    ++pc;
    VM_NEXT();
  }
  VM_CASE(Call) {
    ++stats_.helper_calls;
    std::span<const Value> args(&regs[insn->b], static_cast<size_t>(insn->c));
    auto result = context.CallHelper(static_cast<HelperId>(insn->imm), args);
    if (!result.ok()) {
      stats_.insns_executed += executed;
      return ExecutionError("program '" + program.name + "': helper failed: " +
                            result.status().ToString());
    }
    regs[insn->a] = std::move(result).value();
    ++pc;
    VM_NEXT();
  }
  VM_CASE(Ret) {
    stats_.insns_executed += executed;
    return regs[insn->a];
  }
  VM_CASE(CmpConst) {
    bool flag;
    if (!DoCompare(insn->c, regs[insn->b], consts[static_cast<size_t>(insn->imm)],
                   &flag, &fault)) {
      goto lbl_fault;
    }
    regs[insn->a] = Value(flag);
    ++pc;
    VM_NEXT();
  }
  VM_CASE(CmpConstJf) {
    bool flag;
    if (!DoCompare(insn->c, regs[insn->b], consts[static_cast<size_t>(insn->imm)],
                   &flag, &fault)) {
      goto lbl_fault;
    }
    regs[insn->a] = Value(flag);
    pc += flag ? 1 : 1 + static_cast<size_t>(insn->aux);
    VM_NEXT();
  }
  VM_CASE(CmpConstJt) {
    bool flag;
    if (!DoCompare(insn->c, regs[insn->b], consts[static_cast<size_t>(insn->imm)],
                   &flag, &fault)) {
      goto lbl_fault;
    }
    regs[insn->a] = Value(flag);
    pc += flag ? 1 + static_cast<size_t>(insn->aux) : 1;
    VM_NEXT();
  }
  VM_CASE(CmpRegJf) {
    bool flag;
    if (!DoCompare(insn->imm, regs[insn->b], regs[insn->c], &flag, &fault)) {
      goto lbl_fault;
    }
    regs[insn->a] = Value(flag);
    pc += flag ? 1 : 1 + static_cast<size_t>(insn->aux);
    VM_NEXT();
  }
  VM_CASE(CmpRegJt) {
    bool flag;
    if (!DoCompare(insn->imm, regs[insn->b], regs[insn->c], &flag, &fault)) {
      goto lbl_fault;
    }
    regs[insn->a] = Value(flag);
    pc += flag ? 1 + static_cast<size_t>(insn->aux) : 1;
    VM_NEXT();
  }
  VM_CASE(CallKeyed) {
    ++stats_.helper_calls;
    std::span<const Value> rest(regs + insn->b + 1, static_cast<size_t>(insn->c) - 1);
    auto result = context.CallHelperKeyed(KeyedCallHelper(*insn), static_cast<uint32_t>(insn->aux),
                                          consts[KeyedCallKey(*insn)], rest);
    if (!result.ok()) {
      stats_.insns_executed += executed;
      return ExecutionError("program '" + program.name + "': helper failed: " +
                            result.status().ToString());
    }
    regs[insn->a] = std::move(result).value();
    ++pc;
    VM_NEXT();
  }

#undef VM_CASE
#undef VM_NEXT

lbl_off_end:
  stats_.insns_executed += executed;
  return ExecutionError("program '" + program.name + "' ran off the end");
lbl_budget:
  stats_.insns_executed += executed;
  if (executed > kMaxInstructions) {
    return ExecutionError("program '" + program.name + "' exceeded the instruction budget");
  }
  ++stats_.budget_aborts;
  return ResourceExhaustedError("program '" + program.name +
                                "' exceeded its runtime budget after " +
                                std::to_string(executed) + " steps");
lbl_bad_op:
  stats_.insns_executed += executed;
  return ExecutionError("program '" + program.name + "': unknown opcode " +
                        std::to_string(static_cast<int>(insn->op)));
lbl_fault:
  stats_.insns_executed += executed;
  return fault;
}

}  // namespace osguard
