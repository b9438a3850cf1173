// Listing 1/2 pipeline microbenchmarks.
//
// Measures each stage of the guardrail compilation pipeline — lex, parse,
// analyze, compile+verify — plus the runtime cost of one compiled rule
// evaluation. This is the "synthesize efficient guardrail monitors" cost
// model: compilation is control-plane (once per load), evaluation is
// data-plane (every trigger firing). Each row is NsPerOp's best-of-five
// batch (bench/timing.h).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/timing.h"
#include "src/dsl/lexer.h"
#include "src/dsl/parser.h"
#include "src/dsl/sema.h"
#include "src/runtime/helper_env.h"
#include "src/vm/compiler.h"
#include "src/vm/vm.h"

namespace osguard {
namespace {

const char* kListing2 = R"(
  guardrail low-false-submit {
    trigger: { TIMER(1s, 1e9) },
    rule: { LOAD_OR(false_submit_rate, 0) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
  }
)";

const char* kComplexSpec = R"(
  guardrail complex {
    trigger: { TIMER(500ms, 250ms, 60s), FUNCTION(blk_submit_io) },
    rule: {
      COUNT(io_lat, 10s) == 0 || MEAN(io_lat, 10s) <= 2ms && P99(io_lat, 10s) <= 20ms,
      STDDEV(rate_out, 5s) <= 3 * STDDEV(rtt_in, 5s) + 0.000001,
      LOAD_OR(err_rate, 0) <= 0.1
    },
    action: {
      REPORT("complex violated", err_rate, NOW());
      REPLACE(learned_policy, fallback_policy);
      RETRAIN(learned_policy, recent_window);
      DEPRIORITIZE({batch, scan, backup}, {0.5, 0.2, 0.1});
    },
    on_satisfy: { SAVE(ml_enabled, true) },
    meta: { severity = critical, cooldown = 5s, hysteresis = 2 }
  }
)";

// Analyze consumes its parsed spec, so the parses happen outside the timed
// loop: 1000 specs are parsed up front, then analyzed back to back. Best of
// five such batches.
double AnalyzeNsPerOp(const std::string& source) {
  constexpr int kSpecs = 1000;
  double best = 0.0;
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<SpecFile> specs;
    specs.reserve(kSpecs);
    for (int i = 0; i < kSpecs; ++i) {
      specs.push_back(std::move(ParseSpecSource(source)).value());
    }
    const int64_t start = WallNs();
    for (SpecFile& spec : specs) {
      auto analyzed = Analyze(std::move(spec));
      KeepAlive(analyzed);
    }
    const double ns = static_cast<double>(WallNs() - start) / kSpecs;
    best = batch == 0 ? ns : std::min(best, ns);
  }
  return best;
}

void PipelineStages() {
  std::printf("# (a) control plane: pipeline stage cost per guardrail load\n");
  std::printf("%-10s %-18s %12s\n", "spec", "stage", "ns_per_op");
  struct NamedSpec {
    const char* name;
    const char* source;
  };
  for (const NamedSpec& named : {NamedSpec{"listing2", kListing2},
                                 NamedSpec{"complex", kComplexSpec}}) {
    const char* spec_name = named.name;
    const std::string source = named.source;
    const auto analyzed = Analyze(std::move(ParseSpecSource(source)).value());
    const auto row = [&](const char* stage, double ns) {
      std::printf("%-10s %-18s %12.0f\n", spec_name, stage, ns);
    };
    row("lex", NsPerOp([&] {
          Lexer lexer(source);
          auto tokens = lexer.Tokenize();
          KeepAlive(tokens);
        }));
    row("parse", NsPerOp([&] {
          auto spec = ParseSpecSource(source);
          KeepAlive(spec);
        }));
    row("analyze", AnalyzeNsPerOp(source));
    row("compile+verify", NsPerOp([&] {
          auto compiled = CompileSpec(analyzed.value());
          KeepAlive(compiled);
        }));
    row("full pipeline", NsPerOp([&] {
          auto compiled = CompileSource(source);
          KeepAlive(compiled);
        }));
  }
}

void RuleEvaluation() {
  std::printf("\n# (b) data plane: one compiled rule evaluation\n");
  std::printf("%-34s %12s\n", "rule", "ns_per_eval");
  {
    auto compiled = CompileSource(kListing2);
    FeatureStore store;
    store.Save("false_submit_rate", Value(0.01));
    MonitorHelperEnv env(&store, nullptr);
    env.SetEnvelope(ActionEnvelope{"bench", Severity::kInfo, 0});
    Vm vm;
    std::printf("%-34s %12.0f\n", "listing2", NsPerOp([&] {
                  auto result = vm.Execute(compiled.value()[0].rule, env);
                  KeepAlive(result);
                }));
  }
  // A windowed aggregate over a populated series (the common shape for
  // behavioral properties).
  for (int64_t samples : {100, 1000, 10000}) {
    auto expr = ParseExprSource("MEAN(io_lat, 10s) <= 2000");
    auto program = CompileExpr(*expr.value(), "agg");
    FeatureStore store;
    for (int64_t i = 0; i < samples; ++i) {
      store.Observe("io_lat", Milliseconds(i), 120.0);
    }
    MonitorHelperEnv env(&store, nullptr);
    env.SetEnvelope(ActionEnvelope{"bench", Severity::kInfo, Milliseconds(samples)});
    Vm vm;
    const double ns = NsPerOp([&] {
      auto result = vm.Execute(program.value(), env);
      KeepAlive(result);
    });
    char label[48];
    std::snprintf(label, sizeof(label), "MEAN over %lld samples",
                  static_cast<long long>(samples));
    std::printf("%-34s %12.0f\n", label, ns);
  }
}

int Main() {
  std::printf("# L1: DSL pipeline and rule evaluation cost\n");
  PipelineStages();
  RuleEvaluation();
  return 0;
}

}  // namespace
}  // namespace osguard

int main() { return osguard::Main(); }
