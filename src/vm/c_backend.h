// C-source backend: renders a compiled guardrail as the kernel-module
// monitor the paper's §3.3 describes ("compiled into guardrail monitors that
// run inside the kernel, either as eBPF programs or as kernel modules").
// The verified bytecode run by src/vm/vm.h stands in for the eBPF program;
// this backend produces the kernel-module form: a human-readable
// transliteration against the include/osguard/kmod.h ABI, with
// module/trigger registration boilerplate. Compile-checked with
// -Wall -Wextra -Werror by the test suite, but not executed.

#ifndef SRC_VM_C_BACKEND_H_
#define SRC_VM_C_BACKEND_H_

#include <string>

#include "src/vm/compiler.h"

namespace osguard {

// Emits one C translation unit containing the rule/action/on_satisfy
// functions plus the module registration boilerplate for `guardrail`.
std::string EmitKernelModuleSource(const CompiledGuardrail& guardrail);

// Emits just one program as a kernel-module C function.
std::string EmitCFunction(const Program& program, const std::string& function_name);

}  // namespace osguard

#endif  // SRC_VM_C_BACKEND_H_
