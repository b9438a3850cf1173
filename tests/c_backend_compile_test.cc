// Compile-checks the C backend's kernel-module flavor with a real host
// compiler: every guardrail in specs/ and tests/corpus/ must emit a
// translation unit (EmitKernelModuleSource against include/osguard/kmod.h)
// that builds with -Wall -Wextra -Werror, and so must a lone EmitCFunction.
// "Every verified program emits warning-clean C" is the claim; a single
// -Wconversion-style slip in the emitter fails this suite, not a kernel
// build three hops away. The compiler is the one CMake found
// (OSGUARD_HOST_CC), else `cc`; the suite skips, with a log line, only when
// that compiler cannot run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/dsl/parser.h"
#include "src/dsl/sema.h"
#include "src/vm/c_backend.h"
#include "src/vm/compiler.h"
#include "tests/test_dir.h"

namespace osguard {
namespace {

const char* HostCompiler() {
#if defined(OSGUARD_HOST_CC)
  return OSGUARD_HOST_CC;
#else
  return "cc";
#endif
}

bool HostCompilerRuns() {
  const std::string probe = std::string("'") + HostCompiler() + "' --version > /dev/null 2>&1";
  return std::system(probe.c_str()) == 0;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::filesystem::path> SpecFiles() {
  std::vector<std::filesystem::path> files;
  for (const char* dir : {OSGUARD_SPECS_DIR, OSGUARD_CORPUS_DIR}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string stem = entry.path().stem().string();
      if (entry.path().extension() == ".osg" ||
          (entry.path().extension() == ".spec" && stem.rfind("valid_", 0) == 0)) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Compiles `source` against include/osguard/kmod.h to an object file with
// -Wall -Wextra -Werror; any diagnostic at all is a failure whose message
// carries the compiler log.
testing::AssertionResult CompilesClean(const std::string& source, const std::string& tag) {
  const std::filesystem::path dir = TestRoot() / "cbackend-check";
  std::filesystem::create_directories(dir);
  const std::string c_path = (dir / (tag + ".c")).string();
  const std::string o_path = (dir / (tag + ".o")).string();
  const std::string log_path = (dir / (tag + ".log")).string();
  {
    std::ofstream out(c_path);
    out << source;
  }
  const std::string command = std::string("'") + HostCompiler() +
                              "' -Wall -Wextra -Werror -O2 -c -I '" + OSGUARD_INCLUDE_DIR +
                              "' -o '" + o_path + "' '" + c_path + "' > '" + log_path + "' 2>&1";
  if (std::system(command.c_str()) != 0) {
    return testing::AssertionFailure()
           << tag << " did not compile warning-clean:\n"
           << command << "\n"
           << ReadFile(log_path);
  }
  return testing::AssertionSuccess();
}

class CBackendCompileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static const bool runs = HostCompilerRuns();
    if (!runs) {
      GTEST_SKIP() << "host C compiler '" << HostCompiler()
                   << "' does not run; compile checks skipped "
                      "(emission itself is pinned by c_backend_test)";
    }
  }
};

TEST_F(CBackendCompileTest, EveryCorpusGuardrailCompilesAsKernelModule) {
  int guardrails = 0;
  for (const auto& path : SpecFiles()) {
    auto spec = ParseSpecSource(ReadFile(path));
    ASSERT_TRUE(spec.ok()) << path << ": " << spec.status().message();
    auto analyzed = Analyze(std::move(spec).value());
    ASSERT_TRUE(analyzed.ok()) << path << ": " << analyzed.status().message();
    auto compiled = CompileSpec(analyzed.value());
    ASSERT_TRUE(compiled.ok()) << path << ": " << compiled.status().message();
    for (const CompiledGuardrail& guardrail : compiled.value()) {
      const std::string tag =
          path.stem().string() + "_" + std::to_string(guardrails++);
      EXPECT_TRUE(CompilesClean(EmitKernelModuleSource(guardrail), tag + "_kmod"))
          << path << " guardrail '" << guardrail.name << "'";
    }
  }
  // Chaos-only corpus specs contribute no guardrails; the named specs do.
  EXPECT_GE(guardrails, 5) << "spec corpus went missing";
}

TEST_F(CBackendCompileTest, SingleFunctionEmittersCompileClean) {
  auto spec = ParseSpecSource(R"(
    guardrail single {
      trigger: { TIMER(1s, 1s) },
      rule: { COUNT(lat, 10s) == 0 || MEAN(lat, 10s) <= 2 && !(LOAD_OR(e, 0) > 0.5) },
      action: { SAVE(flag, false); INCR(trips); OBSERVE(lat, 1.5);
                REPORT("msg", MEAN(lat, 10s), NOW()) }
    }
  )");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  auto analyzed = Analyze(std::move(spec).value());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().message();
  auto compiled = CompileSpec(analyzed.value());
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  const CompiledGuardrail& guardrail = compiled.value()[0];
  // EmitCFunction emits a static definition (the kmod TU references it from
  // its registration table); a standalone compile needs one caller or
  // -Wunused-function trips.
  EXPECT_TRUE(CompilesClean(
      "#include <osguard/kmod.h>\n\n" + EmitCFunction(guardrail.rule, "check_rule") +
          "\nosg_value osg_entry(struct osg_ctx *ctx) { return check_rule(ctx); }\n",
      "single_fn_kmod"));
}

}  // namespace
}  // namespace osguard
