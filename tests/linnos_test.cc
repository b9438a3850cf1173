// LinnOS reproduction tests: training pipeline, classifier quality, policy
// wiring, and the Figure-2 experiment shape (scaled down for test speed).

#include <gtest/gtest.h>

#include "src/linnos/harness.h"
#include "src/sim/kernel.h"
#include "src/support/logging.h"

namespace osguard {
namespace {

// Small-but-meaningful experiment configuration (a few seconds of trace).
Figure2Options FastOptions() {
  Figure2Options options;
  options.before_drift = Seconds(6);
  options.after_drift = Seconds(6);
  options.arrivals_per_sec = 1500.0;
  return options;
}

class LinnosTest : public ::testing::Test {
 protected:
  LinnosTest() { Logger::Global().set_level(LogLevel::kOff); }
};

TEST_F(LinnosTest, TrainingDataHasBothClassesAndRightShape) {
  Figure2Options options = FastOptions();
  TrainingRunOptions training;
  training.device = options.device;
  training.duration = Seconds(6);
  IoPhase phase;
  phase.write_fraction = 0.05;
  phase.zipf_skew = 0.6;
  auto data = CollectTrainingData(phase, training);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_GT(data.value().size(), 5000u);
  EXPECT_EQ(data.value().feature_dim(), kIoFeatureDim);
  size_t slow = 0;
  for (double label : data.value().labels) {
    slow += label >= 0.5 ? 1 : 0;
  }
  EXPECT_GT(slow, 10u);                          // some slow I/Os observed
  EXPECT_LT(slow, data.value().size() / 2);      // but fast dominates
}

TEST_F(LinnosTest, ModelTrainsAndBeatsAlwaysFastOnRecall) {
  Figure2Options options = FastOptions();
  TrainingRunOptions training;
  training.device = options.device;
  training.duration = Seconds(8);
  IoPhase phase;
  phase.write_fraction = 0.05;
  phase.zipf_skew = 0.6;
  auto model = TrainLinnosModel(phase, training);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE((*model)->trained());

  TrainingRunOptions holdout = training;
  holdout.trace_seed = training.trace_seed + 1;
  auto holdout_data = CollectTrainingData(phase, holdout);
  ASSERT_TRUE(holdout_data.ok());
  const ConfusionMatrix quality = (*model)->Evaluate(holdout_data.value());
  EXPECT_GT(quality.accuracy(), 0.95);
  // The model must be better than the degenerate always-fast classifier:
  // nonzero recall on slow I/Os.
  EXPECT_GT(quality.true_positive, 0u);
}

TEST_F(LinnosTest, UntrainedModelVouchesNothingSlow) {
  auto model = LinnosModel::Create(kIoFeatureDim);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().PredictSlowProbability(std::vector<double>(kIoFeatureDim, 1.0)),
            0.0);
}

TEST_F(LinnosTest, PolicyExposesLinnosContract) {
  auto model_or = LinnosModel::Create(kIoFeatureDim);
  ASSERT_TRUE(model_or.ok());
  auto model = std::make_shared<LinnosModel>(std::move(model_or).value());
  LinnosSubmitPolicy policy(model, Microseconds(5));
  EXPECT_EQ(policy.name(), "linnos_model");
  EXPECT_TRUE(policy.is_learned());
  EXPECT_EQ(policy.inference_cost(), Microseconds(5));
}

TEST_F(LinnosTest, Listing2GuardrailCompiles) {
  auto compiled = CompileSource(kListing2Guardrail);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled.value()[0].name, "low-false-submit");
  EXPECT_EQ(compiled.value()[0].triggers[0].interval, Seconds(1));
}

TEST_F(LinnosTest, Figure2ShapeHolds) {
  auto result = RunFigure2Experiment(FastOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Figure2Result& r = result.value();

  // 1. Before the drift, guardrailed and unguardrailed LinnOS are identical
  //    (the guardrail never fires pre-drift).
  EXPECT_DOUBLE_EQ(r.without_guardrail.mean_latency_us_before,
                   r.with_guardrail.mean_latency_us_before);
  EXPECT_GE(r.with_guardrail.trigger_time_s, r.drift_time_s);

  // 2. The guardrail fires shortly after the drift (within a few check
  //    intervals) and disables the model.
  ASSERT_TRUE(r.with_guardrail.guardrail_fired);
  EXPECT_LE(r.with_guardrail.trigger_time_s, r.drift_time_s + 3.0);
  EXPECT_FALSE(r.with_guardrail.ml_enabled_at_end);

  // 3. Post-drift, the guardrailed run is clearly better than the
  //    unguardrailed one...
  EXPECT_LT(r.with_guardrail.mean_latency_us_after,
            r.without_guardrail.mean_latency_us_after * 0.8);
  // ...and lands near the reactive baseline (within 50%).
  EXPECT_LT(r.with_guardrail.mean_latency_us_after,
            r.baseline.mean_latency_us_after * 1.5);

  // 4. The unguardrailed run accumulates far more false submits.
  EXPECT_GT(r.without_guardrail.blk.false_submits,
            r.with_guardrail.blk.false_submits * 2);

  // 5. Post-drift latency of un-guarded LinnOS is visibly worse than its
  //    own pre-drift level (the degradation is real).
  EXPECT_GT(r.without_guardrail.mean_latency_us_after,
            r.without_guardrail.mean_latency_us_before * 1.5);
}

// E6 containment: Figure 2 at 10 s + 10 s under the canonical fault storm
// (4 ms latency spikes on 8% of primary I/Os, I/O errors, and misprediction
// bursts). The storm is armed from the first I/O, so the guardrail must
// fire, and the unguarded run must accumulate at least twice the guarded
// run's false submits (4,935 against 184 on this seed).
TEST_F(LinnosTest, GuardrailContainsTheFaultStorm) {
  Figure2Options options;
  options.before_drift = Seconds(10);
  options.after_drift = Seconds(10);
  options.chaos_source = MakeFaultStormChaosSpec(1729, 0.08, 0.6);
  auto result = RunFigure2Experiment(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Figure2Result& r = result.value();
  ASSERT_TRUE(r.with_guardrail.guardrail_fired);
  EXPECT_GE(r.with_guardrail.trigger_time_s, 0.0);
  const uint64_t guarded = r.with_guardrail.blk.false_submits;
  const uint64_t unguarded = r.without_guardrail.blk.false_submits;
  EXPECT_GE(unguarded, 2 * guarded);
  EXPECT_GT(unguarded, guarded);
}

TEST_F(LinnosTest, NoGuardrailRunNeverDisablesModel) {
  Figure2Options options = FastOptions();
  auto model = TrainLinnosModel(
      [] {
        IoPhase phase;
        phase.write_fraction = 0.05;
        return phase;
      }(),
      [&options] {
        TrainingRunOptions training;
        training.device = options.device;
        training.duration = Seconds(4);
        return training;
      }());
  ASSERT_TRUE(model.ok());
  auto run = RunLinnosConfiguration(options, model.value(), "");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->guardrail_loaded);
  EXPECT_FALSE(run->guardrail_fired);
  EXPECT_TRUE(run->ml_enabled_at_end);
  EXPECT_EQ(run->blk.revokes, 0u);  // model path disables reactive revocation
}

TEST_F(LinnosTest, BaselineRunUsesReactiveRevocation) {
  auto run = RunLinnosConfiguration(FastOptions(), nullptr, "");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->blk.model_decisions, 0u);
  EXPECT_GT(run->blk.revokes, 0u);
  EXPECT_EQ(run->blk.false_submits, 0u);
}

TEST_F(LinnosTest, SeriesCoversWholeRun) {
  Figure2Options options = FastOptions();
  auto result = RunLinnosConfiguration(options, nullptr, "");
  ASSERT_TRUE(result.ok());
  const Duration total = options.before_drift + options.after_drift;
  ASSERT_FALSE(result->series.empty());
  EXPECT_EQ(result->series.size(),
            static_cast<size_t>((total + options.bucket - 1) / options.bucket));
  uint64_t total_ios = 0;
  for (const LatencyPoint& point : result->series) {
    total_ios += point.ios;
  }
  EXPECT_EQ(total_ios, result->blk.total_ios);
}

}  // namespace
}  // namespace osguard
