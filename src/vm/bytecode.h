// Bytecode format for compiled guardrail monitors.
//
// The paper compiles guardrails into monitors that run inside the kernel "as
// eBPF programs or kernel modules". We mirror the eBPF execution model with a
// small register machine:
//
//   * fixed register file (kMaxRegisters), registers hold Values
//   * a constant pool per program
//   * forward-only jumps — every verified program is a DAG, so termination
//     is structural, exactly like (classic) eBPF's no-back-edges rule
//   * side effects only through numbered helpers (the DSL builtins)
//
// A guardrail compiles into up to three programs: the rule program (returns
// a truth value; true = property holds), the action program, and optionally
// the on_satisfy program.

#ifndef SRC_VM_BYTECODE_H_
#define SRC_VM_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/dsl/builtins.h"
#include "src/store/value.h"

namespace osguard {

inline constexpr int kMaxRegisters = 64;
inline constexpr int kMaxInstructions = 4096;
inline constexpr int kMaxConstants = 1024;

enum class Op : uint8_t {
  kLoadConst = 0,  // r[a] = consts[imm]
  kMov,            // r[a] = r[b]
  kAdd,            // r[a] = r[b] + r[c]   (numeric; int+int stays int)
  kSub,
  kMul,
  kDiv,            // always float division; div-by-zero faults the program
  kMod,
  kNeg,            // r[a] = -r[b]
  kNot,            // r[a] = !truthy(r[b])
  kCmpLt,          // r[a] = r[b] < r[c]
  kCmpLe,
  kCmpGt,
  kCmpGe,
  kCmpEq,          // deep equality on Values
  kCmpNe,
  kJump,           // pc += imm (imm >= 1, forward only)
  kJumpIfFalse,    // if !truthy(r[a]) pc += imm
  kJumpIfTrue,     // if  truthy(r[a]) pc += imm
  kMakeList,       // r[a] = list(r[b] .. r[b]+imm-1)
  kCall,           // r[a] = helper<imm>(r[b] .. r[b]+c-1)
  kRet,            // return r[a]
  // --- Superinstructions (peephole-fused forms of the ops above). ---
  // Compare kinds for the fused compares: 0..5 = Lt Le Gt Ge Eq Ne, the same
  // order as kCmpLt..kCmpNe.
  kCmpConst,       // r[a] = cmp<c>(r[b], consts[imm])
  kCmpConstJf,     // r[a] = cmp<c>(r[b], consts[imm]); if !r[a] pc += aux
  kCmpConstJt,     // r[a] = cmp<c>(r[b], consts[imm]); if  r[a] pc += aux
  kCmpRegJf,       // r[a] = cmp<imm>(r[b], r[c]); if !r[a] pc += aux
  kCmpRegJt,       // r[a] = cmp<imm>(r[b], r[c]); if  r[a] pc += aux
  // Keyed helper call, made by Engine::Load from a kCall whose key argument
  // is a string constant: the key is read from the constant pool, not from
  // r[b], and aux carries the feature-store slot id pre-resolved for it. imm
  // packs the helper id and the key's constant index (KeyedCallImm). The
  // helper context may use the slot to skip the string lookup; semantics
  // are identical to kCall.
  kCallKeyed,      // r[a] = helper(consts[key] at slot aux; r[b+1] .. r[b]+c-1)
};

inline constexpr int kOpCount = static_cast<int>(Op::kCallKeyed) + 1;

// Number of fused compare kinds, and the mapping back to the base opcode.
inline constexpr int kCmpKindCount = 6;
inline constexpr Op CmpKindToOp(int kind) {
  return static_cast<Op>(static_cast<int>(Op::kCmpLt) + kind);
}
inline constexpr int CmpOpToKind(Op op) {
  return static_cast<int>(op) - static_cast<int>(Op::kCmpLt);
}

std::string_view OpName(Op op);

struct Insn {
  Op op = Op::kRet;
  uint8_t a = 0;   // destination / condition register
  uint8_t b = 0;   // first source register
  uint8_t c = 0;   // second source register / arg count / fused compare kind
  int32_t imm = 0; // constant index / jump offset / helper id / list length
  int32_t aux = 0; // superinstruction extra: fused jump offset / store slot id
};

// kCallKeyed's imm: the helper id in the low 16 bits (HelperId is 16 bits
// wide), the key's constant-pool index above them.
inline constexpr int32_t KeyedCallImm(HelperId helper, int32_t key_const) {
  return static_cast<int32_t>(helper) | (key_const << 16);
}
inline HelperId KeyedCallHelper(const Insn& insn) {
  return static_cast<HelperId>(static_cast<uint32_t>(insn.imm) & 0xffffu);
}
inline size_t KeyedCallKey(const Insn& insn) { return static_cast<uint32_t>(insn.imm) >> 16; }

// The registers `insn` reads, bit r for r[r]. The instruction must be
// structurally valid: every register it names is below kMaxRegisters.
uint64_t RegistersRead(const Insn& insn);

struct Program {
  std::string name;               // e.g. "low-false-submit.rule"
  std::vector<Insn> insns;
  std::vector<Value> consts;
  int register_count = 0;         // registers actually used

  bool empty() const { return insns.empty(); }
  // Human-readable listing, one instruction per line.
  std::string Disassemble() const;
};

}  // namespace osguard

#endif  // SRC_VM_BYTECODE_H_
