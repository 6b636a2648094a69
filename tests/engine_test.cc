// Tests for the execution engine: ParallelFor coverage / nesting /
// cross-thread-count determinism, the curve engine's content-hash cache,
// and the ExperimentRunner session API.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/parallel_for.h"
#include "core/experiment.h"
#include "data/synthetic.h"
#include "engine/curve_engine.h"
#include "engine/experiment_runner.h"
#include "obs/metrics.h"

namespace slicetuner {
namespace engine {
namespace {

// ---------------------------------------------------------------------------
// ParallelFor
// ---------------------------------------------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  ParallelOptions options;
  options.pool = &pool;
  constexpr size_t kN = 257;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h = 0;
  ParallelFor(kN, [&](size_t i) { ++hits[i]; }, options);
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, SeededIsIdenticalAtAnyThreadCount) {
  ThreadPool pool(8);
  constexpr size_t kN = 64;
  auto run = [&](int num_threads) {
    std::vector<double> out(kN);
    ParallelOptions options;
    options.pool = &pool;
    options.num_threads = num_threads;
    ParallelForSeeded(
        /*root_seed=*/2024, kN,
        [&](size_t i, Rng& rng) { out[i] = rng.Uniform() + rng.Normal(); },
        options);
    return out;
  };
  const std::vector<double> serial = run(1);
  const std::vector<double> two = run(2);
  const std::vector<double> eight = run(8);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
}

TEST(ParallelForTest, NestedCallsCannotDeadlockThePool) {
  // A 2-worker pool with 4 outer iterations each running an inner loop:
  // every lane can block inside the inner ParallelFor, so only caller
  // participation guarantees progress.
  ThreadPool pool(2);
  ParallelOptions options;
  options.pool = &pool;
  std::atomic<int> total{0};
  ParallelFor(
      4,
      [&](size_t) {
        ParallelFor(4, [&](size_t) { ++total; }, options);
      },
      options);
  EXPECT_EQ(total.load(), 16);
}

// ---------------------------------------------------------------------------
// CurveEstimationEngine
// ---------------------------------------------------------------------------

struct CurveFixture {
  DatasetPreset preset = MakeCensusLike();
  Dataset train;
  Dataset validation;

  CurveFixture() {
    Rng rng(11);
    train = preset.generator.GenerateDataset({100, 100, 100, 100}, &rng);
    validation = preset.generator.GenerateDataset({80, 80, 80, 80}, &rng);
  }

  LearningCurveOptions FastOptions(bool exhaustive = false) const {
    LearningCurveOptions o;
    o.num_points = 4;
    o.num_curve_draws = 1;
    o.seed = 5;
    o.exhaustive = exhaustive;
    return o;
  }

  Result<CurveEstimationResult> Estimate(CurveEstimationEngine* engine,
                                         const LearningCurveOptions& o) {
    return engine->Estimate(train, validation, preset.num_slices(),
                            preset.model_spec, preset.trainer, o);
  }
};

void ExpectSameCurve(const SliceCurveEstimate& x,
                     const SliceCurveEstimate& y) {
  EXPECT_DOUBLE_EQ(x.curve.a, y.curve.a);
  EXPECT_DOUBLE_EQ(x.curve.b, y.curve.b);
}

TEST(CurveEngineTest, FirstCallMatchesUncachedEstimation) {
  CurveFixture f;
  CurveEstimationEngine engine;
  const auto cached = f.Estimate(&engine, f.FastOptions());
  const auto plain = EstimateLearningCurves(
      f.train, f.validation, f.preset.num_slices(), f.preset.model_spec,
      f.preset.trainer, f.FastOptions());
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(plain.ok());
  for (size_t s = 0; s < cached->slices.size(); ++s) {
    ExpectSameCurve(cached->slices[s], plain->slices[s]);
  }
}

TEST(CurveEngineTest, UnchangedDataIsServedFromCacheWithZeroTrainings) {
  CurveFixture f;
  CurveEstimationEngine engine;
  const auto first = f.Estimate(&engine, f.FastOptions());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->model_trainings, 4);

  const auto second = f.Estimate(&engine, f.FastOptions());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->model_trainings, 0);
  for (size_t s = 0; s < first->slices.size(); ++s) {
    ExpectSameCurve(first->slices[s], second->slices[s]);
  }
  EXPECT_EQ(engine.stats().served_from_cache, 1u);
  EXPECT_GT(engine.stats().trainings_saved, 0);
}

TEST(CurveEngineTest, TrainAndFitTimesAreRecordedOnlyWhenTraining) {
  obs::Histogram* train_ns =
      obs::MetricsRegistry::Global().histogram("engine_train_ns");
  obs::Histogram* fit_ns =
      obs::MetricsRegistry::Global().histogram("engine_fit_ns");
  CurveFixture f;
  CurveEstimationEngine engine;
  const uint64_t train_before = train_ns->Snapshot().count;
  const uint64_t fit_before = fit_ns->Snapshot().count;

  const auto cold = f.Estimate(&engine, f.FastOptions());
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->train_seconds, 0.0);
  EXPECT_GT(cold->fit_seconds, 0.0);
  EXPECT_EQ(train_ns->Snapshot().count, train_before + 1);
  EXPECT_EQ(fit_ns->Snapshot().count, fit_before + 1);

  // Fully cached: nothing trains, nothing fits, nothing is recorded.
  const auto cached = f.Estimate(&engine, f.FastOptions());
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->model_trainings, 0);
  EXPECT_EQ(cached->train_seconds, 0.0);
  EXPECT_EQ(cached->fit_seconds, 0.0);
  EXPECT_EQ(train_ns->Snapshot().count, train_before + 1);
  EXPECT_EQ(fit_ns->Snapshot().count, fit_before + 1);
}

TEST(CurveEngineTest, AcquisitionInvalidatesOnlyTouchedSlices) {
  CurveFixture f;
  CurveEstimationEngine engine;
  const auto options = f.FastOptions(/*exhaustive=*/true);
  const auto first = f.Estimate(&engine, options);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->model_trainings, 4 * 4);  // K x |S|

  // An acquisition round that only grows slice 2.
  Rng rng(77);
  const Dataset batch =
      f.preset.generator.GenerateDataset({0, 0, 30, 0}, &rng);
  ASSERT_TRUE(f.train.Merge(batch).ok());

  const auto second = f.Estimate(&engine, options);
  ASSERT_TRUE(second.ok());
  // Only the stale slice was re-trained (K trainings instead of K x |S|).
  EXPECT_EQ(second->model_trainings, 4);
  EXPECT_EQ(engine.stats().partial_refits, 1u);
  EXPECT_EQ(engine.stats().slices_refit, 4u + 1u);
  for (int s : {0, 1, 3}) {
    ExpectSameCurve(first->slices[static_cast<size_t>(s)],
                    second->slices[static_cast<size_t>(s)]);
  }
}

// Replaces slice 2's rows with draws from a drifted model (rows REPLACED,
// not appended — real distribution drift, the sim subsystem's injector).
Dataset DriftSlice2(CurveFixture* f, double sigma_factor) {
  SliceModel* model = f->preset.generator.mutable_slice_model(2);
  for (auto& component : model->components) component.sigma *= sigma_factor;
  Dataset drifted(f->train.dim());
  for (size_t i = 0; i < f->train.size(); ++i) {
    if (f->train.slice(i) == 2) continue;
    EXPECT_TRUE(drifted.Append(f->train.ExampleAt(i)).ok());
  }
  Rng rng(321);
  EXPECT_TRUE(
      drifted.Merge(f->preset.generator.GenerateDataset({0, 0, 100, 0}, &rng))
          .ok());
  return drifted;
}

TEST(CurveEngineTest, DriftRefitsOnlyStaleSlicesAndMatchesColdRunBitForBit) {
  // Exhaustive mode: after slice 2 drifts mid-session, only that slice is
  // re-trained; its refreshed curve must equal what a cold-cache engine
  // fits on the same post-drift data, bit for bit, and the unchanged
  // slices keep their cached fits.
  CurveFixture f;
  CurveEstimationEngine warm;
  const auto options = f.FastOptions(/*exhaustive=*/true);
  const auto before = f.Estimate(&warm, options);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->model_trainings, 4 * 4);

  f.train = DriftSlice2(&f, /*sigma_factor=*/1.5);

  const auto after = f.Estimate(&warm, options);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->model_trainings, 4);  // K trainings: the stale slice only
  EXPECT_EQ(warm.stats().partial_refits, 1u);

  CurveEstimationEngine cold;
  const auto cold_run = f.Estimate(&cold, options);
  ASSERT_TRUE(cold_run.ok());
  EXPECT_EQ(cold_run->model_trainings, 4 * 4);
  ExpectSameCurve(after->slices[2], cold_run->slices[2]);
  for (int s : {0, 1, 3}) {
    ExpectSameCurve(after->slices[static_cast<size_t>(s)],
                    before->slices[static_cast<size_t>(s)]);
  }
}

TEST(CurveEngineTest, EfficientModeDriftRefreshMatchesColdRunBitForBit) {
  // Efficient (amortized) mode: one stale slice forces a full K-training
  // re-run, so the refreshed result must be indistinguishable from a
  // cold-cache engine on the drifted data — every slice, bit for bit.
  CurveFixture f;
  CurveEstimationEngine warm;
  const auto options = f.FastOptions(/*exhaustive=*/false);
  ASSERT_TRUE(f.Estimate(&warm, options).ok());

  f.train = DriftSlice2(&f, /*sigma_factor=*/2.0);

  const auto warm_run = f.Estimate(&warm, options);
  CurveEstimationEngine cold;
  const auto cold_run = f.Estimate(&cold, options);
  ASSERT_TRUE(warm_run.ok());
  ASSERT_TRUE(cold_run.ok());
  EXPECT_EQ(warm_run->model_trainings, cold_run->model_trainings);
  for (size_t s = 0; s < warm_run->slices.size(); ++s) {
    ExpectSameCurve(warm_run->slices[s], cold_run->slices[s]);
  }
}

TEST(CurveEngineTest, EstimationIsIdenticalAtAnyThreadCount) {
  CurveFixture f;
  for (const bool exhaustive : {false, true}) {
    std::vector<CurveEstimationResult> results;
    for (const int threads : {1, 2, 8}) {
      LearningCurveOptions o = f.FastOptions(exhaustive);
      o.num_threads = threads;
      const auto r = EstimateLearningCurves(
          f.train, f.validation, f.preset.num_slices(), f.preset.model_spec,
          f.preset.trainer, o);
      ASSERT_TRUE(r.ok());
      results.push_back(*r);
    }
    for (size_t i = 1; i < results.size(); ++i) {
      for (size_t s = 0; s < results[0].slices.size(); ++s) {
        ExpectSameCurve(results[0].slices[s], results[i].slices[s]);
      }
    }
  }
}

TEST(CurveEngineTest, UnreliableCurvesAreNotCached) {
  // Ask for 5 slices when only 4 have data: slice 4's fit always fails and
  // must be retried (not cache-served) on the next call.
  CurveFixture f;
  CurveEstimationEngine engine;
  const int num_slices = 5;
  auto estimate = [&] {
    return engine.Estimate(f.train, f.validation, num_slices,
                           f.preset.model_spec, f.preset.trainer,
                           f.FastOptions());
  };
  const auto first = estimate();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->slices[4].reliable);

  const auto second = estimate();
  ASSERT_TRUE(second.ok());
  // Slice 4 stays stale, so the call re-estimates instead of serving
  // everything from cache.
  EXPECT_GT(second->model_trainings, 0);
}

TEST(CurveEngineTest, CallerSliceFilterBypassesTheCache) {
  CurveFixture f;
  CurveEstimationEngine engine;
  LearningCurveOptions filtered = f.FastOptions(/*exhaustive=*/true);
  filtered.slices_to_estimate = {1};
  const auto partial = f.Estimate(&engine, filtered);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->model_trainings, 4);  // K x 1, filter honored
  EXPECT_FALSE(partial->slices[0].reliable);

  // The partial result must not have populated the cache: a full request
  // still trains every slice.
  const auto full = f.Estimate(&engine, f.FastOptions(/*exhaustive=*/true));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->model_trainings, 4 * 4);
  EXPECT_TRUE(full->slices[0].reliable);
}

TEST(CurveEngineTest, ModelConfigChangeInvalidatesTheCache) {
  CurveFixture f;
  CurveEstimationEngine engine;
  ASSERT_TRUE(f.Estimate(&engine, f.FastOptions()).ok());

  ModelSpec changed = f.preset.model_spec;
  changed.dropout = 0.5;
  const auto refreshed =
      engine.Estimate(f.train, f.validation, f.preset.num_slices(), changed,
                      f.preset.trainer, f.FastOptions());
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->model_trainings, 4);  // re-trained, not cache-served
}

TEST(CurveEngineTest, PartialEstimateMatchesFullRunPerSlice) {
  // The (slice, point) seed streams are position-stable: estimating only
  // slice 1 must reproduce the full run's slice-1 curve bit for bit.
  CurveFixture f;
  LearningCurveOptions full = f.FastOptions(/*exhaustive=*/true);
  LearningCurveOptions partial = full;
  partial.slices_to_estimate = {1};
  const auto r_full = EstimateLearningCurves(
      f.train, f.validation, f.preset.num_slices(), f.preset.model_spec,
      f.preset.trainer, full);
  const auto r_partial = EstimateLearningCurves(
      f.train, f.validation, f.preset.num_slices(), f.preset.model_spec,
      f.preset.trainer, partial);
  ASSERT_TRUE(r_full.ok());
  ASSERT_TRUE(r_partial.ok());
  EXPECT_EQ(r_partial->model_trainings, 4);
  ExpectSameCurve(r_full->slices[1], r_partial->slices[1]);
  EXPECT_FALSE(r_partial->slices[0].reliable);  // not estimated
}

// ---------------------------------------------------------------------------
// ExperimentRunner
// ---------------------------------------------------------------------------

ExperimentConfig SmallConfig(uint64_t seed) {
  ExperimentConfig config;
  config.preset = MakeCensusLike();
  config.initial_sizes = EqualSizes(4, 80);
  config.val_per_slice = 60;
  config.budget = 200.0;
  config.trials = 1;
  config.seed = seed;
  config.curve_options.num_points = 3;
  config.curve_options.num_curve_draws = 1;
  return config;
}

TEST(ExperimentRunnerTest, RunsConcurrentSessionsAndStreamsProgress) {
  std::mutex mu;
  std::vector<SessionEvent> events;
  ExperimentRunner::Options options;
  options.on_event = [&](const SessionEvent& event) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(event);
  };
  ExperimentRunner runner(options);
  runner.Submit("original", SmallConfig(1), Method::kOriginal);
  runner.Submit("uniform", SmallConfig(2), Method::kUniform);
  runner.Submit("waterfill", SmallConfig(3), Method::kWaterFilling);
  ASSERT_EQ(runner.num_sessions(), 3u);

  const std::vector<SessionResult> results = runner.RunAll();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].name, "original");
  EXPECT_EQ(results[1].name, "uniform");
  EXPECT_EQ(results[2].name, "waterfill");
  for (const SessionResult& r : results) {
    EXPECT_TRUE(r.status.ok()) << r.status;
    EXPECT_GT(r.outcome.loss_mean, 0.0);
  }
  // Every session streamed queued -> running -> succeeded.
  for (size_t id = 0; id < 3; ++id) {
    std::vector<SessionState> states;
    for (const SessionEvent& e : events) {
      if (e.session_id == id) states.push_back(e.state);
    }
    ASSERT_EQ(states.size(), 3u) << "session " << id;
    EXPECT_EQ(states[0], SessionState::kQueued);
    EXPECT_EQ(states[1], SessionState::kRunning);
    EXPECT_EQ(states[2], SessionState::kSucceeded);
  }
}

TEST(ExperimentRunnerTest, SubmitRacingRunAllDefersToTheNextRun) {
  // Pinned semantics: a session submitted while RunAll is in flight is NOT
  // picked up by that run — it stays queued and the next RunAll covers it.
  ExperimentRunner runner;
  std::mutex mu;
  std::condition_variable cv;
  bool first_running = false;
  bool late_submitted = false;
  runner.SubmitTask("first", [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      first_running = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return late_submitted; });
    return Status::OK();
  });

  std::vector<SessionResult> first_results;
  std::thread run_thread([&] { first_results = runner.RunAll(); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return first_running; });
  }
  // The in-flight run is mid-session; this submission must defer.
  std::atomic<int> late_runs{0};
  runner.SubmitTask("late", [&] {
    ++late_runs;
    return Status::OK();
  });
  EXPECT_EQ(runner.num_sessions(), 2u);
  {
    std::lock_guard<std::mutex> lock(mu);
    late_submitted = true;
  }
  cv.notify_all();
  run_thread.join();

  ASSERT_EQ(first_results.size(), 1u);
  EXPECT_TRUE(first_results[0].status.ok());
  EXPECT_EQ(late_runs.load(), 0);

  const std::vector<SessionResult> second_results = runner.RunAll();
  ASSERT_EQ(second_results.size(), 2u);
  EXPECT_TRUE(second_results[1].status.ok());
  EXPECT_EQ(late_runs.load(), 1);
}

TEST(ExperimentRunnerTest, CancelOnFailureSparesSessionsAlreadyRunning) {
  // Pinned semantics: when a session fails under cancel_on_failure, only
  // sessions that have not started are cancelled; a session already running
  // completes and reports its own result.
  std::mutex mu;
  std::condition_variable cv;
  bool second_running = false;
  bool failure_emitted = false;

  ExperimentRunner::Options options;
  options.max_concurrent_sessions = 2;
  options.cancel_on_failure = true;
  options.on_event = [&](const SessionEvent& event) {
    if (event.state == SessionState::kFailed) {
      std::lock_guard<std::mutex> lock(mu);
      failure_emitted = true;
      cv.notify_all();
    }
  };
  ExperimentRunner runner(options);
  runner.SubmitTask("doomed", [&]() -> Status {
    // Fail only once the survivor is demonstrably mid-flight.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return second_running; });
    return Status::Internal("boom");
  });
  runner.SubmitTask("survivor", [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      second_running = true;
    }
    cv.notify_all();
    // Outlive the failure so cancellation arrives while running.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return failure_emitted; });
    return Status::OK();
  });
  std::atomic<bool> third_ran{false};
  runner.SubmitTask("never-started", [&] {
    third_ran = true;
    return Status::OK();
  });

  const std::vector<SessionResult> results = runner.RunAll();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInternal);
  EXPECT_TRUE(results[1].status.ok()) << results[1].status;
  EXPECT_EQ(results[2].status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(third_ran.load());
}

TEST(ExperimentRunnerTest, ThrowingTaskResolvesAsFailureInsteadOfTerminating) {
  // A throwing session resolves in-band as Internal (never as "cancelled
  // before it started"), and under cancel_on_failure it cancels the
  // sessions behind it like any other failure.
  std::vector<SessionEvent> events;
  ExperimentRunner::Options options;
  options.max_concurrent_sessions = 1;
  options.cancel_on_failure = true;
  options.on_event = [&events](const SessionEvent& event) {
    events.push_back(event);
  };
  ExperimentRunner runner(options);
  runner.SubmitTask("thrower", []() -> Status {
    throw std::runtime_error("boom");
  });
  std::atomic<bool> ran_b{false};
  runner.SubmitTask("b", [&] {
    ran_b = true;
    return Status::OK();
  });

  const std::vector<SessionResult> results = runner.RunAll();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInternal);
  EXPECT_NE(results[0].status.message().find("boom"), std::string::npos);
  EXPECT_EQ(results[1].status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(ran_b.load());
  std::vector<SessionState> thrower_states;
  for (const SessionEvent& e : events) {
    if (e.session_id == 0) thrower_states.push_back(e.state);
  }
  EXPECT_EQ(thrower_states,
            (std::vector<SessionState>{SessionState::kQueued,
                                       SessionState::kRunning,
                                       SessionState::kFailed}));
}

TEST(ExperimentRunnerTest, ConcurrencyDoesNotChangeOutcomes) {
  auto run = [&](int max_concurrent) {
    ExperimentRunner::Options options;
    options.max_concurrent_sessions = max_concurrent;
    ExperimentRunner runner(options);
    runner.Submit("a", SmallConfig(5), Method::kUniform);
    runner.Submit("b", SmallConfig(6), Method::kWaterFilling);
    runner.Submit("c", SmallConfig(7), Method::kProportional);
    return runner.RunAll();
  };
  const auto sequential = run(1);
  const auto concurrent = run(0);
  ASSERT_EQ(sequential.size(), concurrent.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_TRUE(sequential[i].status.ok());
    ASSERT_TRUE(concurrent[i].status.ok());
    EXPECT_DOUBLE_EQ(sequential[i].outcome.loss_mean,
                     concurrent[i].outcome.loss_mean);
    EXPECT_DOUBLE_EQ(sequential[i].outcome.avg_eer_mean,
                     concurrent[i].outcome.avg_eer_mean);
  }
}

}  // namespace
}  // namespace engine
}  // namespace slicetuner
