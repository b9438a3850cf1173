// Action-library tests: policy registry, reporter, retrain queue, task
// control, and the dispatcher's crash-free semantics.

#include <gtest/gtest.h>

#include "src/actions/dispatcher.h"
#include "src/support/logging.h"

namespace osguard {
namespace {

class TestPolicy : public Policy {
 public:
  TestPolicy(std::string name, bool learned) : name_(std::move(name)), learned_(learned) {}
  std::string name() const override { return name_; }
  bool is_learned() const override { return learned_; }

 private:
  std::string name_;
  bool learned_;
};

// --- PolicyRegistry ---

TEST(PolicyRegistryTest, RegisterAndGet) {
  PolicyRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_shared<TestPolicy>("p1", true)).ok());
  EXPECT_EQ(registry.Get("p1").value()->name(), "p1");
  EXPECT_EQ(registry.policy_count(), 1u);
  EXPECT_EQ(registry.Get("nope").status().code(), ErrorCode::kNotFound);
}

TEST(PolicyRegistryTest, DuplicateRegistrationRejected) {
  PolicyRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_shared<TestPolicy>("p", false)).ok());
  EXPECT_EQ(registry.Register(std::make_shared<TestPolicy>("p", true)).code(),
            ErrorCode::kAlreadyExists);
}

TEST(PolicyRegistryTest, NullAndUnnamedRejected) {
  PolicyRegistry registry;
  EXPECT_FALSE(registry.Register(nullptr).ok());
  EXPECT_FALSE(registry.Register(std::make_shared<TestPolicy>("", false)).ok());
}

TEST(PolicyRegistryTest, SlotBindingAndActive) {
  PolicyRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_shared<TestPolicy>("p", true)).ok());
  EXPECT_FALSE(registry.BindSlot("slot", "missing").ok());
  ASSERT_TRUE(registry.BindSlot("slot", "p").ok());
  EXPECT_EQ(registry.Active("slot").value()->name(), "p");
  EXPECT_FALSE(registry.Active("other").ok());
  EXPECT_EQ(registry.SlotNames(), (std::vector<std::string>{"slot"}));
}

TEST(PolicyRegistryTest, ActiveAsChecksType) {
  class Derived : public TestPolicy {
   public:
    Derived() : TestPolicy("derived", true) {}
  };
  PolicyRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_shared<Derived>()).ok());
  ASSERT_TRUE(registry.Register(std::make_shared<TestPolicy>("base", false)).ok());
  ASSERT_TRUE(registry.BindSlot("s1", "derived").ok());
  ASSERT_TRUE(registry.BindSlot("s2", "base").ok());
  EXPECT_TRUE(registry.ActiveAs<Derived>("s1").ok());
  EXPECT_EQ(registry.ActiveAs<Derived>("s2").status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(PolicyRegistryTest, ReplaceRebindsMatchingSlots) {
  PolicyRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_shared<TestPolicy>("learned", true)).ok());
  ASSERT_TRUE(registry.Register(std::make_shared<TestPolicy>("safe", false)).ok());
  ASSERT_TRUE(registry.BindSlot("a", "learned").ok());
  ASSERT_TRUE(registry.BindSlot("b", "learned").ok());
  ASSERT_TRUE(registry.BindSlot("c", "safe").ok());

  auto rebound = registry.Replace("learned", "safe", Seconds(1));
  ASSERT_TRUE(rebound.ok());
  EXPECT_EQ(rebound.value(), 2);
  EXPECT_EQ(registry.Active("a").value()->name(), "safe");
  EXPECT_EQ(registry.Active("b").value()->name(), "safe");
  EXPECT_EQ(registry.replace_history().size(), 2u);
}

TEST(PolicyRegistryTest, ReplaceIsIdempotent) {
  PolicyRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_shared<TestPolicy>("learned", true)).ok());
  ASSERT_TRUE(registry.Register(std::make_shared<TestPolicy>("safe", false)).ok());
  ASSERT_TRUE(registry.BindSlot("a", "learned").ok());
  EXPECT_EQ(registry.Replace("learned", "safe", 0).value(), 1);
  EXPECT_EQ(registry.Replace("learned", "safe", 0).value(), 0);  // no-op, no error
}

TEST(PolicyRegistryTest, ReplaceToUnknownPolicyFails) {
  PolicyRegistry registry;
  EXPECT_EQ(registry.Replace("a", "ghost", 0).status().code(), ErrorCode::kNotFound);
}

// --- Reporter ---

TEST(ReporterTest, RecordsAndCounts) {
  Logger::Global().set_level(LogLevel::kOff);
  Reporter reporter;
  reporter.Report(ReportRecord{0, Seconds(1), ReportKind::kViolation, Severity::kWarning,
                               "g1", "m", {}});
  reporter.Report(ReportRecord{0, Seconds(2), ReportKind::kActionPayload, Severity::kInfo,
                               "g2", "m", {Value(1)}});
  EXPECT_EQ(reporter.total_reports(), 2u);
  EXPECT_EQ(reporter.CountFor("g1"), 1u);
  EXPECT_EQ(reporter.CountFor("g3"), 0u);
  EXPECT_EQ(reporter.CountOfKind(ReportKind::kViolation), 1u);
  ASSERT_EQ(reporter.Records().size(), 2u);
  EXPECT_EQ(reporter.Records()[0].sequence, 0u);
  EXPECT_EQ(reporter.Records()[1].sequence, 1u);
  EXPECT_EQ(reporter.RecordsFor("g2").size(), 1u);
}

TEST(ReporterTest, CapacityBoundsRing) {
  Logger::Global().set_level(LogLevel::kOff);
  Reporter reporter(/*capacity=*/3);
  for (int i = 0; i < 10; ++i) {
    reporter.Report(ReportRecord{0, i, ReportKind::kViolation, Severity::kInfo, "g", "", {}});
  }
  EXPECT_EQ(reporter.Records().size(), 3u);
  EXPECT_EQ(reporter.Records()[0].sequence, 7u);  // oldest retained
  EXPECT_EQ(reporter.total_reports(), 10u);       // counters keep the full total
}

TEST(ReporterTest, ToStringIncludesContext) {
  // The exact line: every log sink that formats records sees these bytes.
  ReportRecord record{7, Seconds(2), ReportKind::kViolation, Severity::kCritical,
                      "my-guard", "bad news", {Value(0.2)}};
  EXPECT_EQ(record.ToString(),
            "[2.00s] critical violation guardrail=my-guard msg=\"bad news\" payload=0.2");
  // No message: the msg field is left out. Several payload values are
  // comma-separated.
  ReportRecord bare{8, Milliseconds(1) + Microseconds(500), ReportKind::kActionPayload,
                    Severity::kInfo, "g", "", {Value(int64_t{1}), Value(true)}};
  EXPECT_EQ(bare.ToString(), "[1.5ms] info report guardrail=g payload=1,true");
}

TEST(ReporterTest, ClearResets) {
  Logger::Global().set_level(LogLevel::kOff);
  Reporter reporter;
  reporter.Report(ReportRecord{});
  reporter.Clear();
  EXPECT_EQ(reporter.total_reports(), 0u);
  EXPECT_TRUE(reporter.Records().empty());
}

// --- RetrainQueue ---

TEST(RetrainQueueTest, AcceptsAndDrains) {
  RetrainQueue queue;
  EXPECT_TRUE(queue.Request("m1", "window", Seconds(1)));
  EXPECT_EQ(queue.depth(), 1u);
  auto request = queue.Pop();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->model, "m1");
  EXPECT_EQ(request->data_key, "window");
  EXPECT_EQ(request->requested_at, Seconds(1));
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(RetrainQueueTest, ThrottlesByMinInterval) {
  RetrainQueue queue(RetrainQueueOptions{.min_interval = Seconds(60), .max_depth = 10});
  EXPECT_TRUE(queue.Request("m", "", Seconds(0)));
  queue.Pop();
  // Abuse protection (§3.2 A3): rapid re-requests are rejected.
  EXPECT_FALSE(queue.Request("m", "", Seconds(1)));
  EXPECT_FALSE(queue.Request("m", "", Seconds(59)));
  EXPECT_TRUE(queue.Request("m", "", Seconds(61)));
  EXPECT_EQ(queue.stats().throttled, 2u);
  EXPECT_EQ(queue.stats().accepted, 2u);
}

TEST(RetrainQueueTest, ThrottleIsPerModel) {
  RetrainQueue queue(RetrainQueueOptions{.min_interval = Seconds(60), .max_depth = 10});
  EXPECT_TRUE(queue.Request("m1", "", 0));
  EXPECT_TRUE(queue.Request("m2", "", 0));
}

TEST(RetrainQueueTest, CoalescesQueuedDuplicates) {
  RetrainQueue queue(RetrainQueueOptions{.min_interval = 0, .max_depth = 10});
  EXPECT_TRUE(queue.Request("m", "", 0));
  EXPECT_FALSE(queue.Request("m", "", Seconds(100)));  // still queued
  EXPECT_EQ(queue.stats().coalesced, 1u);
  queue.Pop();
  EXPECT_TRUE(queue.Request("m", "", Seconds(200)));
}

TEST(RetrainQueueTest, OverflowRejected) {
  RetrainQueue queue(RetrainQueueOptions{.min_interval = 0, .max_depth = 2});
  EXPECT_TRUE(queue.Request("a", "", 0));
  EXPECT_TRUE(queue.Request("b", "", 0));
  EXPECT_FALSE(queue.Request("c", "", 0));
  EXPECT_EQ(queue.stats().overflowed, 1u);
}

TEST(RetrainQueueTest, DrainStatsTracked) {
  RetrainQueue queue(RetrainQueueOptions{.min_interval = 0, .max_depth = 10});
  queue.Request("a", "", 0);
  queue.Request("b", "", 0);
  queue.Pop();
  queue.Pop();
  EXPECT_EQ(queue.stats().drained, 2u);
}

// --- Dispatcher ---

class DispatcherTest : public ::testing::Test {
 protected:
  DispatcherTest() : dispatcher_(&reporter_, &registry_, &retrain_, &task_control_) {
    Logger::Global().set_level(LogLevel::kOff);
  }

  Result<Value> Dispatch(HelperId id, std::vector<Value> args) {
    return dispatcher_.Dispatch(id, args,
                                ActionEnvelope{"test-guard", Severity::kWarning, Seconds(5)});
  }

  Reporter reporter_;
  PolicyRegistry registry_;
  RetrainQueue retrain_;
  RecordingTaskControl task_control_;
  ActionDispatcher dispatcher_;
};

TEST_F(DispatcherTest, ReportStoresPayloadAndEnvelope) {
  ASSERT_TRUE(Dispatch(HelperId::kReport, {Value("drift detected"), Value(0.3)}).ok());
  const auto records = reporter_.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].guardrail, "test-guard");
  EXPECT_EQ(records[0].time, Seconds(5));
  EXPECT_EQ(records[0].message, "drift detected");
  EXPECT_EQ(records[0].payload.size(), 2u);
  EXPECT_EQ(dispatcher_.stats().reports, 1u);
}

TEST_F(DispatcherTest, ReportWithNoArgsStillRecords) {
  ASSERT_TRUE(Dispatch(HelperId::kReport, {}).ok());
  EXPECT_EQ(reporter_.total_reports(), 1u);
}

TEST_F(DispatcherTest, ReplaceGoesThroughRegistry) {
  ASSERT_TRUE(registry_.Register(std::make_shared<TestPolicy>("old", true)).ok());
  ASSERT_TRUE(registry_.Register(std::make_shared<TestPolicy>("new", false)).ok());
  ASSERT_TRUE(registry_.BindSlot("slot", "old").ok());
  auto result = Dispatch(HelperId::kReplace, {Value("old"), Value("new")});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().AsInt().value(), 1);
  EXPECT_EQ(dispatcher_.stats().replaces, 1u);
  // Re-fire: idempotent no-op.
  ASSERT_TRUE(Dispatch(HelperId::kReplace, {Value("old"), Value("new")}).ok());
  EXPECT_EQ(dispatcher_.stats().replace_noops, 1u);
}

TEST_F(DispatcherTest, ReplaceUnknownTargetFails) {
  auto result = Dispatch(HelperId::kReplace, {Value("a"), Value("ghost")});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(dispatcher_.stats().failures, 1u);
}

TEST_F(DispatcherTest, RetrainReturnsAcceptance) {
  auto first = Dispatch(HelperId::kRetrain, {Value("model"), Value("window")});
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().AsBool().value());
  // Second immediately after: suppressed (coalesce/throttle), not an error.
  auto second = Dispatch(HelperId::kRetrain, {Value("model")});
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().AsBool().value());
  EXPECT_EQ(dispatcher_.stats().retrains_requested, 1u);
  EXPECT_EQ(dispatcher_.stats().retrains_suppressed, 1u);
}

TEST_F(DispatcherTest, DeprioritizeForwardsPairs) {
  auto result = Dispatch(
      HelperId::kDeprioritize,
      {Value(std::vector<Value>{Value("t1"), Value("t2")}),
       Value(std::vector<Value>{Value(0.5), Value(-1)})});
  ASSERT_TRUE(result.ok());
  const auto events = task_control_.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tasks, (std::vector<std::string>{"t1", "t2"}));
  EXPECT_EQ(events[0].priorities, (std::vector<double>{0.5, -1}));
  EXPECT_EQ(events[0].time, Seconds(5));
}

TEST_F(DispatcherTest, DeprioritizeLengthMismatchFails) {
  auto result = Dispatch(HelperId::kDeprioritize,
                         {Value(std::vector<Value>{Value("t1")}),
                          Value(std::vector<Value>{Value(1), Value(2)})});
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("different lengths"), std::string::npos);
}

TEST_F(DispatcherTest, DeprioritizeNonNumericPriorityFails) {
  auto result = Dispatch(HelperId::kDeprioritize,
                         {Value(std::vector<Value>{Value("t1")}),
                          Value(std::vector<Value>{Value("high")})});
  EXPECT_FALSE(result.ok());
}

TEST_F(DispatcherTest, NullTaskControlFallsBackToRecorder) {
  ActionDispatcher dispatcher(&reporter_, &registry_, &retrain_, nullptr);
  ASSERT_TRUE(dispatcher
                  .Dispatch(HelperId::kDeprioritize,
                            std::vector<Value>{Value(std::vector<Value>{Value("t")}),
                                               Value(std::vector<Value>{Value(1)})},
                            ActionEnvelope{"g", Severity::kInfo, 0})
                  .ok());
  EXPECT_EQ(dispatcher.fallback_task_control().events().size(), 1u);
}

TEST_F(DispatcherTest, NonActionHelperIsInternalError) {
  auto result = Dispatch(HelperId::kLoad, {Value("k")});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInternal);
}

}  // namespace
}  // namespace osguard
