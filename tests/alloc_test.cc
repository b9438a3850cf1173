// Zero steady-state allocations on the evaluation paths.
//
// This binary replaces the global operator new with one that counts every
// allocation, then checks that warmed-up callouts and timer evaluations
// allocate nothing: a hooked Engine::OnFunctionCall, Kernel::Run over TIMER
// monitors, and Kernel::Callout. The interned store slots, heterogeneous
// hook lookup, member register file and reused action envelope
// (DESIGN.md, "Decision overhead (P5)") are what make these paths
// allocation-free; any temporary std::string or container growth on them
// fails here.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "src/runtime/engine.h"
#include "src/sim/kernel.h"
#include "src/support/logging.h"
#include "src/support/time.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace osguard {
namespace {

uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

class AllocTest : public ::testing::Test {
 protected:
  AllocTest() { Logger::Global().set_level(LogLevel::kOff); }
};

// A rule over a 10 s window of `metric<index>`, on a TIMER of `interval`.
std::string TimerGuardrail(int index, Duration interval) {
  const std::string n = std::to_string(index);
  const std::string every = std::to_string(interval);
  return "guardrail g" + n + " { trigger: { TIMER(" + every + ", " + every +
         ") }, rule: { COUNT(metric" + n + ", 10s) == 0 || MEAN(metric" + n +
         ", 10s) <= 100 }, action: { REPORT() } }\n";
}

TEST_F(AllocTest, HookedFunctionCalloutDoesNotAllocate) {
  FeatureStore store;
  PolicyRegistry registry;
  EngineOptions options;
  options.measure_wall_time = false;
  Engine engine(&store, &registry, nullptr, options);
  ASSERT_TRUE(engine
                  .LoadSource("guardrail f0 { trigger: { FUNCTION(blk_mq_submit_bio_hotpath) }, "
                              "rule: { LOAD_OR(x, 0) <= 1 }, action: { REPORT() } }\n")
                  .ok());
  // Warm-up: lazy one-time work (report ring, first-eval paths) happens here.
  for (int i = 0; i < 1000; ++i) {
    engine.OnFunctionCall("blk_mq_submit_bio_hotpath", i);
  }
  constexpr int kCalls = 1000000;
  const uint64_t before = Allocations();
  for (int i = 0; i < kCalls; ++i) {
    engine.OnFunctionCall("blk_mq_submit_bio_hotpath", 1000 + i);
  }
  const uint64_t allocations = Allocations() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(engine.stats().function_firings, 1000u + kCalls);
}

TEST_F(AllocTest, KernelRunOverTimerMonitorsDoesNotAllocate) {
  Kernel kernel;
  // One monitor on a 1 ms timer over a window holding 1000 samples (the
  // aggregate-dominated regime), plus eight on 100 ms timers.
  std::string spec = TimerGuardrail(0, Milliseconds(1));
  for (int i = 1; i <= 8; ++i) {
    spec += TimerGuardrail(i, Milliseconds(100));
  }
  ASSERT_TRUE(kernel.LoadGuardrails(spec).ok());
  for (int i = 0; i < 1000; ++i) {
    kernel.store().Observe("metric0", Milliseconds(i * 60), 50.0);
  }
  for (int i = 1; i <= 8; ++i) {
    std::string key = "metric";
    key += std::to_string(i);
    kernel.store().Observe(key, 0, 50.0);
  }
  kernel.Run(Seconds(1));  // warm-up
  const uint64_t evaluations_before = kernel.engine().stats().evaluations;
  const uint64_t before = Allocations();
  kernel.Run(Seconds(60));
  const uint64_t allocations = Allocations() - before;
  const uint64_t evaluations = kernel.engine().stats().evaluations - evaluations_before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(evaluations, 59000u + 8u * 590u);
}

TEST_F(AllocTest, KernelCalloutDoesNotAllocate) {
  Kernel kernel;
  ASSERT_TRUE(kernel
                  .LoadGuardrails(R"(
    guardrail hot-a { trigger: { FUNCTION(hot_path) },
                      rule: { LOAD_OR(sys.load, 0) <= 100 },
                      action: { REPORT("hot-a") } }
    guardrail hot-b { trigger: { FUNCTION(hot_path) },
                      rule: { COUNT(io.lat, 1s) == 0 || MEAN(io.lat, 1s) <= 5ms },
                      action: { REPORT("hot-b") } }
  )")
                  .ok());
  kernel.store().Observe("io.lat", 0, 1.0e6);
  SimTime t = 0;
  for (int i = 0; i < 1000; ++i) {  // warm-up
    t += Microseconds(10);
    kernel.Run(t);
    kernel.Callout("hot_path");
  }
  constexpr int kCallouts = 100000;
  const uint64_t before = Allocations();
  for (int i = 0; i < kCallouts; ++i) {
    t += Microseconds(10);
    kernel.Run(t);
    kernel.Callout("hot_path");
  }
  const uint64_t allocations = Allocations() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(kernel.engine().stats().function_firings, 2u * (1000u + kCallouts));
}

}  // namespace
}  // namespace osguard
