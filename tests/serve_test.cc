// Tests for the tuning service: protocol encoding/decoding, admission
// control (shedding, micro-batching, executor-backlog probe), session
// lifecycle with the incremental partial-refit resume path, and an
// in-process end-to-end pass over the real TCP server.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/trace_context.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/connection.h"
#include "serve/event_loop.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session_manager.h"

namespace slicetuner {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ProtocolTest, RequestRoundTripsThroughWireForm) {
  Request submit;
  submit.type = RequestType::kSubmitJob;
  submit.job.session = "s1";
  submit.job.num_slices = 6;
  submit.job.rows_per_slice = 80;
  submit.job.budget = 90.0;
  submit.job.rounds = 3;
  submit.job.method = "water_filling";
  submit.job.seed = 42;
  submit.job.append_rows = 10;
  submit.job.append_slice = 5;

  const Result<Request> reparsed = Request::Parse(submit.Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->type, RequestType::kSubmitJob);
  EXPECT_EQ(reparsed->job.session, "s1");
  EXPECT_EQ(reparsed->job.num_slices, 6);
  EXPECT_EQ(reparsed->job.rows_per_slice, 80);
  EXPECT_DOUBLE_EQ(reparsed->job.budget, 90.0);
  EXPECT_EQ(reparsed->job.rounds, 3);
  EXPECT_EQ(reparsed->job.method, "water_filling");
  EXPECT_EQ(reparsed->job.seed, 42u);
  EXPECT_EQ(reparsed->job.append_rows, 10);
  EXPECT_EQ(reparsed->job.append_slice, 5);

  for (const RequestType type :
       {RequestType::kPoll, RequestType::kStream, RequestType::kCancel}) {
    Request request;
    request.type = type;
    request.session = "abc";
    const Result<Request> back = Request::Parse(request.Serialize());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->type, type);
    EXPECT_EQ(back->session, "abc");
  }
  for (const RequestType type :
       {RequestType::kStats, RequestType::kShutdown}) {
    Request request;
    request.type = type;
    const Result<Request> back = Request::Parse(request.Serialize());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->type, type);
  }
}

TEST(ProtocolTest, RejectsInvalidRequests) {
  EXPECT_FALSE(Request::Parse("not json").ok());
  EXPECT_FALSE(Request::Parse("{}").ok());                    // missing type
  EXPECT_FALSE(Request::Parse("{\"type\":\"nope\"}").ok());   // unknown
  EXPECT_FALSE(Request::Parse("{\"type\":\"poll\"}").ok());   // no session
  // submit_job validation.
  EXPECT_FALSE(
      Request::Parse("{\"type\":\"submit_job\"}").ok());      // no session
  EXPECT_FALSE(Request::Parse("{\"type\":\"submit_job\",\"session\":\"x\","
                              "\"rounds\":0}")
                   .ok());
  EXPECT_FALSE(Request::Parse("{\"type\":\"submit_job\",\"session\":\"x\","
                              "\"method\":\"alchemy\"}")
                   .ok());
  EXPECT_FALSE(Request::Parse("{\"type\":\"submit_job\",\"session\":\"x\","
                              "\"append_slice\":-1}")
                   .ok());
  // One request must not be able to demand unbounded data generation.
  EXPECT_FALSE(Request::Parse("{\"type\":\"submit_job\",\"session\":\"x\","
                              "\"append_rows\":1000000000000}")
                   .ok());
  EXPECT_FALSE(Request::Parse("{\"type\":\"submit_job\",\"session\":\"x\","
                              "\"budget\":1e12}")
                   .ok());
  // append_slice's upper bound is checked at resolution time (the session
  // may inherit its slice count), not at parse time.
  EXPECT_TRUE(Request::Parse("{\"type\":\"submit_job\",\"session\":\"x\","
                             "\"append_slice\":7}")
                  .ok());
}

TEST(ProtocolTest, ErrorResponseCarriesRetryAfter) {
  const json::Value shed =
      ErrorResponse(Status::ResourceExhausted("queue full"), 75);
  EXPECT_FALSE(IsOkResponse(shed));
  EXPECT_EQ(shed.GetString("code"), "ResourceExhausted");
  EXPECT_EQ(shed.GetInt("retry_after_ms"), 75);
  const json::Value plain = ErrorResponse(Status::NotFound("nope"));
  EXPECT_FALSE(plain.Has("retry_after_ms"));
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(AdmissionTest, ShedsWhenQueueFull) {
  AdmissionOptions options;
  options.max_queue_depth = 2;
  options.retry_after_ms = 30;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit(1).ok());
  EXPECT_TRUE(admission.Admit(2).ok());
  const Status shed = admission.Admit(3);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.retry_after_ms(), 30);
  EXPECT_EQ(admission.depth(), 2u);
  EXPECT_EQ(admission.stats().admitted, 2u);
  EXPECT_EQ(admission.stats().shed_queue_full, 1u);
}

TEST(AdmissionTest, DrainsFifoOneSessionAtATime) {
  AdmissionOptions options;
  options.max_queue_depth = 16;
  AdmissionController admission(options);
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(admission.Admit(id).ok());
  }
  for (uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(admission.Next(), std::optional<uint64_t>(id));
    EXPECT_EQ(admission.depth(), 5u - id);
  }
  EXPECT_EQ(admission.stats().max_depth_seen, 5u);
}

TEST(AdmissionTest, BacklogProbeShedsOnExecutorSaturation) {
  std::atomic<size_t> backlog{0};
  AdmissionOptions options;
  options.max_executor_backlog = 4;
  options.backlog_probe = [&backlog] { return backlog.load(); };
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit(1).ok());
  backlog = 10;
  const Status shed = admission.Admit(2);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.stats().shed_backlog, 1u);
  backlog = 0;
  EXPECT_TRUE(admission.Admit(3).ok());
}

TEST(AdmissionTest, StopUnblocksWaitersAndDrainsRemainder) {
  AdmissionController admission;
  ASSERT_TRUE(admission.Admit(7).ok());
  std::thread stopper([&admission] { admission.Stop(); });
  // The first pop drains the leftover, the second observes shutdown.
  EXPECT_EQ(admission.Next(), std::optional<uint64_t>(7));
  EXPECT_EQ(admission.Next(), std::nullopt);
  stopper.join();
  EXPECT_EQ(admission.Admit(8).code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Session lifecycle and the incremental resume path
// ---------------------------------------------------------------------------

JobSpec SmallJob(const std::string& session, int rounds = 1) {
  JobSpec job;
  job.session = session;
  job.num_slices = 4;
  job.rows_per_slice = 60;
  job.budget = 40.0;
  job.rounds = rounds;
  job.method = "moderate";
  job.seed = 5;
  return job;
}

TEST(SessionTest, ColdJobRunsRoundsAndStreamsFrames) {
  SessionManager manager;
  const Result<TuningSession*> session = manager.Register(SmallJob("s", 2));
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ((*session)->phase(), SessionPhase::kQueued);

  ASSERT_TRUE((*session)->RunJob().ok());
  EXPECT_EQ((*session)->phase(), SessionPhase::kDone);
  ASSERT_EQ((*session)->FrameCount(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const json::Value frame = (*session)->FrameAt(i);
    EXPECT_EQ(frame.GetString("frame"), "progress");
    EXPECT_EQ(frame.GetString("session"), "s");
    EXPECT_EQ(frame.GetInt("seq"), static_cast<long long>(i));
    EXPECT_EQ(frame.GetInt("round"), static_cast<long long>(i));
    EXPECT_GT(frame.GetInt("trainings"), 0);
  }
  const json::Value snapshot = (*session)->Snapshot();
  EXPECT_EQ(snapshot.GetString("state"), "done");
  EXPECT_EQ(snapshot.GetInt("rounds_completed"), 2);
  EXPECT_TRUE(snapshot.Has("curves"));
}

TEST(SessionTest, ResubmitWhileBusyIsRejected) {
  SessionManager manager;
  const Result<TuningSession*> session = manager.Register(SmallJob("s"));
  ASSERT_TRUE(session.ok());
  const Result<TuningSession*> dup = manager.Register(SmallJob("s"));
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(SessionTest, CancelBeforeStartResolvesWithoutRunning) {
  SessionManager manager;
  const Result<TuningSession*> session = manager.Register(SmallJob("s"));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(manager.Cancel("s").ok());
  const Status status = (*session)->RunJob();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ((*session)->phase(), SessionPhase::kCancelled);
  EXPECT_EQ((*session)->FrameCount(), 0u);
  EXPECT_FALSE(manager.Cancel("missing").ok());
}

// A job cancelled before it starts runs nothing, so it has no span tree of
// its own. The previous job's tree must not stand in for it: the done frame
// pairs TraceTree() with the session's current trace id.
TEST(SessionTest, CancelBeforeStartLeavesNoStaleTree) {
  constexpr uint64_t kFirst = 0xaaaaaaaaaaaaaaaaull;
  constexpr uint64_t kSecond = 0xbbbbbbbbbbbbbbbbull;
  constexpr uint64_t kThird = 0xccccccccccccccccull;
  SessionManager manager;
  const Result<TuningSession*> session = manager.Register(SmallJob("stale"));
  ASSERT_TRUE(session.ok());
  (*session)->SetTraceId(kFirst);
  ASSERT_TRUE((*session)->RunJob().ok());
  ASSERT_EQ((*session)->TraceTree().GetString("trace_id"),
            trace::FormatTraceId(kFirst));

  // The shed-resumption path: re-armed, cancelled, resolved unrun.
  ASSERT_TRUE((*session)->Resume(SmallJob("stale")).ok());
  (*session)->SetTraceId(kSecond);
  (*session)->RequestCancel();
  EXPECT_EQ((*session)->RunJob().code(), StatusCode::kCancelled);
  const json::Value tree = (*session)->TraceTree();
  EXPECT_TRUE(!tree.is_object() ||
              tree.GetString("trace_id") == trace::FormatTraceId(kSecond))
      << tree.Dump();

  // The next job that runs gets its own tree again.
  ASSERT_TRUE((*session)->Resume(SmallJob("stale")).ok());
  (*session)->SetTraceId(kThird);
  ASSERT_TRUE((*session)->RunJob().ok());
  EXPECT_EQ((*session)->TraceTree().GetString("trace_id"),
            trace::FormatTraceId(kThird));
}

// Each interval is measured once, and every sink reports that one value: a
// round's progress-frame span and its recorder events, and the job's tree,
// its wall seconds and its job_done event.
TEST(SessionTest, EverySinkReportsTheSameMeasurement) {
  constexpr uint64_t kTrace = 0x5eed0000000051a5ull;
  constexpr size_t kRounds = 2;
  SessionManager manager;
  const Result<TuningSession*> session =
      manager.Register(SmallJob("sinks", static_cast<int>(kRounds)));
  ASSERT_TRUE(session.ok()) << session.status();
  (*session)->SetTraceId(kTrace);
  ASSERT_TRUE((*session)->RunJob().ok());

  std::vector<int64_t> plan_ns;
  std::vector<int64_t> acquire_ns;
  std::vector<int64_t> job_done_ns;
  for (const obs::RecordedEvent& event :
       obs::Recorder::Global().Snapshot(/*session_filter=*/"", kTrace)) {
    if (event.kind == obs::EventKind::kPlan) plan_ns.push_back(event.arg);
    if (event.kind == obs::EventKind::kAcquire) {
      acquire_ns.push_back(event.arg);
    }
    if (event.kind == obs::EventKind::kJobDone) {
      job_done_ns.push_back(event.arg);
    }
  }
  ASSERT_EQ(plan_ns.size(), kRounds);
  ASSERT_EQ(acquire_ns.size(), kRounds);
  ASSERT_EQ(job_done_ns.size(), 1u);

  ASSERT_EQ((*session)->FrameCount(), kRounds);
  for (size_t r = 0; r < kRounds; ++r) {
    const json::Value frame = (*session)->FrameAt(r);
    const json::Value* span = frame.Find("span");
    ASSERT_NE(span, nullptr) << frame.Dump();
    const json::Value* stages = span->Find("stages");
    ASSERT_NE(stages, nullptr) << frame.Dump();
    EXPECT_EQ(stages->GetDouble("plan_ms"),
              static_cast<double>(plan_ns[r]) / 1e6)
        << "round " << r;
    EXPECT_EQ(stages->GetDouble("acquire_ms"),
              static_cast<double>(acquire_ns[r]) / 1e6)
        << "round " << r;
  }

  const json::Value tree = (*session)->TraceTree();
  const double wall_seconds = (*session)->last_job_wall_seconds();
  const double done_ns = static_cast<double>(job_done_ns[0]);
  EXPECT_EQ(tree.GetDouble("total_ms"), done_ns / 1e6);
  EXPECT_EQ(wall_seconds, done_ns / 1e9);
  EXPECT_DOUBLE_EQ(tree.GetDouble("total_ms"), wall_seconds * 1e3);
}

// The acceptance check of the serving tentpole: resubmitting a session with
// appended rows must ride the curve cache's partial refit and be measurably
// cheaper than the cold run.
TEST(SessionTest, ResubmitWithAppendedRowsRidesPartialRefit) {
  SessionManager manager;
  // Large enough that training work dominates wall time: the warm/cold
  // comparison below must be about refit counts, not scheduler noise.
  JobSpec cold_job = SmallJob("warm");
  cold_job.rows_per_slice = 240;
  const Result<TuningSession*> session = manager.Register(cold_job);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->RunJob().ok());
  const long long cold_trainings = (*session)->last_job_trainings();
  const double cold_wall = (*session)->last_job_wall_seconds();
  // Cold job: at least one full K x |S| estimation (K=3 points, 4 slices).
  EXPECT_GE(cold_trainings, 12);

  JobSpec resume = cold_job;
  resume.append_rows = 60;
  resume.append_slice = 2;
  const Result<TuningSession*> resumed = manager.Register(resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(*resumed, *session);  // same session object, warm state
  EXPECT_EQ(manager.stats().resumed, 1u);

  ASSERT_TRUE((*resumed)->RunJob().ok());
  const long long warm_trainings = (*resumed)->last_job_trainings();

  // Measurably faster: the warm job re-trains strictly fewer models — only
  // stale slices refit (deterministic, unlike wall time under a loaded
  // ctest -j run, where preemption can invert sub-50ms timings). The cold
  // wall is recorded above so a human eyeballing the log still sees the
  // wall-clock win.
  EXPECT_LT(warm_trainings, cold_trainings);
  EXPECT_GT(cold_wall, 0.0);

  // The append consumes its own acquisition-round index (the cold 1-round
  // job used round 0, the append round 1), so the resumed job's round is 2
  // and its acquisitions cannot replay the appended rows' draws. Resume
  // dropped the cold job's frame.
  ASSERT_EQ((*resumed)->FrameCount(), 1u);
  EXPECT_EQ((*resumed)->FrameAt(0).GetInt("round"), 2);

  const json::Value snapshot = (*resumed)->Snapshot();
  const json::Value* cache = snapshot.Find("curve_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->GetInt("partial_refits"), 1);
  EXPECT_GT(cache->GetInt("slices_reused"), 0);
  EXPECT_GT(cache->GetInt("trainings_saved"), 0);
}

// Closing curve values of a session snapshot as IEEE-754 bit patterns.
std::vector<std::string> CurveBits(const json::Value& snapshot,
                                   const char* key) {
  std::vector<std::string> out;
  const json::Value* curves = snapshot.Find("curves");
  if (curves == nullptr || curves->Find(key) == nullptr) return out;
  for (const json::Value& v : curves->Find(key)->items()) {
    const double d = v.number_value();
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(bits));
    out.emplace_back(hex);
  }
  return out;
}

// Pins the serve path's answers bit for bit: a cold moderate job and an
// append_rows resubmission of the same session must close with exactly
// these curves. Any change to the training kernels, the loss or the
// estimation order that moves a single bit of the serve model fails here.
TEST(SessionTest, ServeSessionClosingCurvesArePinned) {
  SessionManager manager;
  JobSpec job = SmallJob("pinned", /*rounds=*/2);
  job.rows_per_slice = 200;
  job.seed = 7;
  const Result<TuningSession*> session = manager.Register(job);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE((*session)->RunJob().ok());
  const json::Value cold = (*session)->Snapshot();

  JobSpec append = job;
  append.append_rows = 40;
  append.append_slice = 2;
  ASSERT_TRUE(manager.Register(append).ok());
  ASSERT_TRUE((*session)->RunJob().ok());
  const json::Value warm = (*session)->Snapshot();

  const std::vector<std::string> cold_b = {
      "3fd94413845cc156", "3fd9f85f1beb6616",
      "3fe1a7758aa0b09a", "3fd4ed7ead528aa1"};
  const std::vector<std::string> cold_a = {
      "3f9661e8561fc9d4", "3f910935a5d9cf39",
      "3f9b45472b3eda9c", "3f57d7d5aa22f2a7"};
  const std::vector<std::string> warm_b = {
      "3fd94413845cc156", "3fd9f85f1beb6616",
      "3fe1848240b4247c", "3fd4ed7ead528aa1"};
  const std::vector<std::string> warm_a = {
      "3f9661e8561fc9d4", "3f910935a5d9cf39",
      "3f902f296e1496e4", "3f57d7d5aa22f2a7"};
  EXPECT_EQ(CurveBits(cold, "b"), cold_b);
  EXPECT_EQ(CurveBits(cold, "a"), cold_a);
  EXPECT_EQ(CurveBits(warm, "b"), warm_b);
  EXPECT_EQ(CurveBits(warm, "a"), warm_a);
}

TEST(SessionTest, RejectsSliceCountChangeOnResume) {
  SessionManager manager;
  const Result<TuningSession*> session = manager.Register(SmallJob("s"));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->RunJob().ok());
  JobSpec changed = SmallJob("s");
  changed.num_slices = 8;
  EXPECT_EQ(manager.Register(changed).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionTest, AppendOnlyResubmitInheritsSliceCount) {
  // The documented resubmission form omits num_slices entirely; a session
  // with a non-default slice count must still accept it (and validate
  // append_slice against the inherited count).
  SessionManager manager;
  JobSpec job = SmallJob("wide");
  job.num_slices = 6;
  const Result<TuningSession*> session = manager.Register(job);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->RunJob().ok());

  JobSpec resume;
  resume.session = "wide";  // every other field left at its default
  resume.append_rows = 20;
  resume.append_slice = 5;  // valid for 6 slices, invalid for the default 4
  const Result<TuningSession*> resumed = manager.Register(resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE((*resumed)->RunJob().ok());

  JobSpec bad = resume;
  bad.append_slice = 6;  // outside the inherited [0, 6)
  EXPECT_EQ(manager.Register(bad).status().code(), StatusCode::kOutOfRange);

  // A fresh session resolves the default count, so append_slice 5 is out
  // of range there.
  JobSpec fresh;
  fresh.session = "fresh";
  fresh.append_slice = 5;
  EXPECT_EQ(manager.Register(fresh).status().code(),
            StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// End-to-end over the real TCP server (in-process)
// ---------------------------------------------------------------------------

Request SubmitRequest(const JobSpec& job) {
  Request request;
  request.type = RequestType::kSubmitJob;
  request.job = job;
  request.session = job.session;
  return request;
}

Request SessionRequest(RequestType type, const std::string& session) {
  Request request;
  request.type = type;
  request.session = session;
  return request;
}

TEST(TuningServerTest, SubmitStreamStatsShutdownEndToEnd) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto connection = ClientConnection::Connect(server.port());
  ASSERT_TRUE(connection.ok()) << connection.status();

  // Submit a 2-round job and subscribe to its progress.
  auto submitted = connection->Call(SubmitRequest(SmallJob("e2e", 2)));
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  ASSERT_TRUE(IsOkResponse(*submitted)) << submitted->Dump();

  auto streaming = connection->Call(SessionRequest(RequestType::kStream,
                                                   "e2e"));
  ASSERT_TRUE(streaming.ok());
  ASSERT_TRUE(IsOkResponse(*streaming)) << streaming->Dump();

  int progress_frames = 0;
  std::string final_state;
  for (;;) {
    auto frame = connection->ReadJson(/*timeout_ms=*/60000);
    ASSERT_TRUE(frame.ok()) << frame.status();
    const std::string kind = frame->GetString("frame");
    if (kind == "progress") {
      ++progress_frames;
      continue;
    }
    ASSERT_EQ(kind, "done") << frame->Dump();
    final_state = frame->GetString("state");
    break;
  }
  EXPECT_GE(progress_frames, 2);
  EXPECT_EQ(final_state, "done");

  // Unknown sessions are NotFound; stats reports the completed session.
  auto missing = connection->Call(SessionRequest(RequestType::kPoll, "nope"));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(IsOkResponse(*missing));
  EXPECT_EQ(missing->GetString("code"), "NotFound");

  auto stats = connection->Call(Request{});  // default type is kStats
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(IsOkResponse(*stats)) << stats->Dump();
  const json::Value* sessions = stats->Find("sessions");
  ASSERT_NE(sessions, nullptr);
  EXPECT_EQ(sessions->GetInt("completed"), 1);

  auto shutdown = connection->Call(
      SessionRequest(RequestType::kShutdown, ""));
  ASSERT_TRUE(shutdown.ok());
  EXPECT_TRUE(IsOkResponse(*shutdown));
  server.Wait();  // graceful: returns once both threads exited
}

// A resumed session streams only its new job's frames: Resume drops the
// previous job's frames, so the second stream starts again at seq 0
// (docs/PROTOCOL.md: frames survive until the next job re-arms the
// session).
TEST(TuningServerTest, StreamOfResumedSessionCarriesOnlyTheNewJob) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  auto connection = ClientConnection::Connect(server.port());
  ASSERT_TRUE(connection.ok()) << connection.status();

  const auto run_and_stream = [&](int rounds) {
    std::vector<long long> seqs;
    auto submitted = connection->Call(SubmitRequest(SmallJob("rf", rounds)));
    EXPECT_TRUE(submitted.ok() && IsOkResponse(*submitted));
    auto streaming =
        connection->Call(SessionRequest(RequestType::kStream, "rf"));
    EXPECT_TRUE(streaming.ok() && IsOkResponse(*streaming));
    for (;;) {
      auto frame = connection->ReadJson(/*timeout_ms=*/60000);
      if (!frame.ok() || frame->GetString("frame") != "progress") break;
      seqs.push_back(frame->GetInt("seq"));
    }
    return seqs;
  };
  EXPECT_EQ(run_and_stream(2), (std::vector<long long>{0, 1}));
  EXPECT_EQ(run_and_stream(3), (std::vector<long long>{0, 1, 2}));

  server.RequestShutdown();
  server.Wait();
}

TEST(TuningServerTest, MetricsVerbExposesInstrumentedStack) {
  obs::MetricsRegistry::Global().Reset();
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  auto connection = ClientConnection::Connect(server.port());
  ASSERT_TRUE(connection.ok());

  auto submitted = connection->Call(SubmitRequest(SmallJob("mx", 2)));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(IsOkResponse(*submitted)) << submitted->Dump();
  TuningSession* session = server.sessions().Find("mx");
  ASSERT_NE(session, nullptr);
  ASSERT_TRUE(session->WaitTerminal(/*timeout_ms=*/60000));
  ASSERT_EQ(session->phase(), SessionPhase::kDone);

  // The metrics verb returns the whole registry: serve stage latencies,
  // queue/session gauges, job outcomes, engine counters. The dispatch
  // stage timer closes just after the session turns terminal, so poll the
  // verb until that last sample lands.
  json::Value metrics_doc;
  for (int attempt = 0; attempt < 3000; ++attempt) {
    auto metrics = connection->Call(
        SessionRequest(RequestType::kMetrics, ""));
    ASSERT_TRUE(metrics.ok());
    ASSERT_TRUE(IsOkResponse(*metrics)) << metrics->Dump();
    metrics_doc = *metrics;
    const json::Value* histograms = metrics_doc.Find("histograms");
    ASSERT_NE(histograms, nullptr) << metrics_doc.Dump();
    const json::Value* dispatch =
        histograms->Find("serve_stage_ns{stage=\"dispatch\"}");
    if (dispatch != nullptr && dispatch->GetInt("count") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const json::Value* counters = metrics_doc.Find("counters");
  ASSERT_NE(counters, nullptr) << metrics_doc.Dump();
  EXPECT_GE(counters->GetInt("serve_requests_total"), 1);
  EXPECT_GE(counters->GetInt("serve_admitted_total"), 1);
  EXPECT_EQ(counters->GetInt("serve_jobs_done_total"), 1);
  EXPECT_GE(counters->GetInt("engine_estimate_calls_total"), 1);
  const json::Value* gauges = metrics_doc.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->GetDouble("serve_sessions"), 1.0);
  const json::Value* histograms = metrics_doc.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  for (const char* key :
       {"serve_stage_ns{stage=\"parse\"}", "serve_stage_ns{stage=\"admit\"}",
        "serve_stage_ns{stage=\"dispatch\"}",
        "serve_stage_ns{stage=\"run\"}", "serve_submit_to_done_ns",
        "serve_round_stage_ns{stage=\"estimate\"}"}) {
    const json::Value* h = histograms->Find(key);
    ASSERT_NE(h, nullptr) << key;
    EXPECT_GE(h->GetInt("count"), 1) << key;
    EXPECT_GE(h->GetDouble("p99"), h->GetDouble("p50")) << key;
  }
  // The estimate stage is booked once per round; the closing estimate
  // after the last round has a histogram of its own.
  const json::Value* round_estimates =
      histograms->Find("serve_round_stage_ns{stage=\"estimate\"}");
  ASSERT_NE(round_estimates, nullptr);
  EXPECT_EQ(round_estimates->GetInt("count"), 2);
  const json::Value* closing = histograms->Find("serve_closing_estimate_ns");
  ASSERT_NE(closing, nullptr);
  EXPECT_EQ(closing->GetInt("count"), 1);

  // The enriched stats response: shed totals, retry-after count, and the
  // p50/p99 latency block derived from the same histograms.
  auto stats = connection->Call(Request{});
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(IsOkResponse(*stats)) << stats->Dump();
  const json::Value* admission = stats->Find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_TRUE(admission->Has("shed_total"));
  EXPECT_TRUE(admission->Has("retry_after_sent"));
  const json::Value* latency = stats->Find("latency");
  ASSERT_NE(latency, nullptr) << stats->Dump();
  EXPECT_GT(latency->GetDouble("submit_to_done_p50_ms"), 0.0);
  EXPECT_GE(latency->GetDouble("submit_to_done_p99_ms"),
            latency->GetDouble("submit_to_done_p50_ms"));

  server.RequestShutdown();
  server.Wait();
}

TEST(TuningServerTest, ProgressFramesCarryRoundSpans) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  auto connection = ClientConnection::Connect(server.port());
  ASSERT_TRUE(connection.ok());

  auto submitted = connection->Call(SubmitRequest(SmallJob("spans", 2)));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(IsOkResponse(*submitted)) << submitted->Dump();
  auto streaming = connection->Call(
      SessionRequest(RequestType::kStream, "spans"));
  ASSERT_TRUE(streaming.ok());
  ASSERT_TRUE(IsOkResponse(*streaming)) << streaming->Dump();

  int spans_seen = 0;
  for (;;) {
    auto frame = connection->ReadJson(/*timeout_ms=*/60000);
    ASSERT_TRUE(frame.ok()) << frame.status();
    if (frame->GetString("frame") == "done") {
      // The job tree holds one span per round plus the closing estimate,
      // which is no round's stage.
      const json::Value* tree = frame->Find("trace");
      ASSERT_NE(tree, nullptr) << frame->Dump();
      ASSERT_NE(tree->Find("rounds"), nullptr) << frame->Dump();
      EXPECT_EQ(tree->Find("rounds")->items().size(), 2u);
      EXPECT_GT(tree->GetDouble("closing_ms"), 0.0) << frame->Dump();
      break;
    }
    // Every progress frame carries the round's span: where the round's
    // wall time went, stage by stage.
    const json::Value* span = frame->Find("span");
    ASSERT_NE(span, nullptr) << frame->Dump();
    EXPECT_EQ(span->GetString("name"), "round");
    EXPECT_GE(span->GetDouble("total_ms"), 0.0);
    const json::Value* stages = span->Find("stages");
    ASSERT_NE(stages, nullptr);
    EXPECT_TRUE(stages->Has("estimate_ms")) << frame->Dump();
    EXPECT_TRUE(stages->Has("plan_ms")) << frame->Dump();
    EXPECT_TRUE(stages->Has("acquire_ms")) << frame->Dump();
    ++spans_seen;
  }
  EXPECT_GE(spans_seen, 2);
  server.RequestShutdown();
  server.Wait();
}

TEST(TuningServerTest, CancelStopsARunningSession) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  auto connection = ClientConnection::Connect(server.port());
  ASSERT_TRUE(connection.ok());

  // A long job (many rounds) so cancel lands mid-run or while queued.
  JobSpec job = SmallJob("victim", /*rounds=*/500);
  auto submitted = connection->Call(SubmitRequest(job));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(IsOkResponse(*submitted)) << submitted->Dump();

  auto cancelled = connection->Call(
      SessionRequest(RequestType::kCancel, "victim"));
  ASSERT_TRUE(cancelled.ok());
  EXPECT_TRUE(IsOkResponse(*cancelled)) << cancelled->Dump();

  TuningSession* session = server.sessions().Find("victim");
  ASSERT_NE(session, nullptr);
  ASSERT_TRUE(session->WaitTerminal(/*timeout_ms=*/60000));
  EXPECT_EQ(session->phase(), SessionPhase::kCancelled);

  auto poll = connection->Call(SessionRequest(RequestType::kPoll, "victim"));
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->GetString("state"), "cancelled");

  server.RequestShutdown();
  server.Wait();
}

TEST(TuningServerTest, ShedsLoadWithRetryAfterWhenQueueIsFull) {
  ServerOptions options;
  options.max_concurrent_sessions = 1;
  options.admission.max_queue_depth = 1;
  options.admission.retry_after_ms = 40;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto connection = ClientConnection::Connect(server.port());
  ASSERT_TRUE(connection.ok());

  // Saturate: one long job runs, one sits in the single queue slot, the
  // burst behind them must shed with the retry-after hint.
  int shed = 0;
  for (int j = 0; j < 6; ++j) {
    JobSpec job = SmallJob("burst" + std::to_string(j), /*rounds=*/300);
    auto response = connection->Call(SubmitRequest(job));
    ASSERT_TRUE(response.ok());
    if (!IsOkResponse(*response)) {
      EXPECT_EQ(response->GetString("code"), "ResourceExhausted")
          << response->Dump();
      EXPECT_EQ(response->GetInt("retry_after_ms"), 40);
      ++shed;
    }
  }
  EXPECT_GE(shed, 1);
  EXPECT_GE(server.admission().stats().shed_queue_full, 1u);
  // Shed submissions with fresh session names must not grow the registry:
  // only the admitted ones keep a session object.
  EXPECT_EQ(server.sessions().session_count(), static_cast<size_t>(6 - shed));
  EXPECT_EQ(server.sessions().stats().created, static_cast<size_t>(6 - shed));

  for (int j = 0; j < 6; ++j) {
    (void)connection->Call(SessionRequest(RequestType::kCancel,
                                          "burst" + std::to_string(j)));
  }
  server.RequestShutdown();
  server.Wait();
}

TEST(TuningServerTest, OversizedRequestLineIsRejectedAndDropped) {
  ServerOptions options;
  options.max_request_bytes = 512;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto connection = ClientConnection::Connect(server.port());
  ASSERT_TRUE(connection.ok());

  // A line over the cap is answered with an error, and the connection is
  // dropped instead of buffering without bound.
  ASSERT_TRUE(connection->SendLine(std::string(2048, 'x')).ok());
  auto response = connection->ReadJson();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(IsOkResponse(*response));
  EXPECT_EQ(response->GetString("code"), "InvalidArgument")
      << response->Dump();
  EXPECT_FALSE(connection->ReadLine(/*timeout_ms=*/10000).ok());

  server.RequestShutdown();
  server.Wait();
}

TEST(TuningServerTest, ShutdownCancelsQueuedSessions) {
  // The graceful-shutdown contract (server.h): the job in flight runs to
  // completion, but sessions still queued when shutdown is requested must
  // resolve cancelled without running.
  ServerOptions options;
  options.max_concurrent_sessions = 1;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto connection = ClientConnection::Connect(server.port());
  ASSERT_TRUE(connection.ok());

  // Occupy the shard's only slot with a long-running job before queueing
  // more.
  auto submitted = connection->Call(SubmitRequest(SmallJob("runner", 500)));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(IsOkResponse(*submitted)) << submitted->Dump();
  TuningSession* runner = server.sessions().Find("runner");
  ASSERT_NE(runner, nullptr);
  for (int i = 0; i < 60000 && runner->phase() != SessionPhase::kRunning;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(runner->phase(), SessionPhase::kRunning);

  for (const char* name : {"q1", "q2"}) {
    auto queued = connection->Call(SubmitRequest(SmallJob(name, 2)));
    ASSERT_TRUE(queued.ok());
    ASSERT_TRUE(IsOkResponse(*queued)) << queued->Dump();
  }

  server.RequestShutdown();
  // Unblock the in-flight job so shutdown completes promptly.
  ASSERT_TRUE(server.sessions().Cancel("runner").ok());
  server.Wait();

  for (const char* name : {"q1", "q2"}) {
    TuningSession* session = server.sessions().Find(name);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->phase(), SessionPhase::kCancelled) << name;
    EXPECT_EQ(session->FrameCount(), 0u) << name << " ran a round";
  }
}

TEST(TuningServerTest, ShortSessionFinishesWhileLongOneRunsOnTheSameShard) {
  // Dispatch has no batch barrier: with two in-flight slots on one shard,
  // a session admitted after a long one started takes the free slot and
  // finishes while the long one is still running.
  ServerOptions options;
  options.max_concurrent_sessions = 2;
  options.admission.num_shards = 1;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto connection = ClientConnection::Connect(server.port());
  ASSERT_TRUE(connection.ok());

  // A budget that buys rows every round makes each of the 500 rounds
  // refit (seconds in total), so "long" outlives "short" by a wide margin.
  JobSpec long_job = SmallJob("long", 500);
  long_job.budget = 10000.0;
  auto submitted = connection->Call(SubmitRequest(long_job));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(IsOkResponse(*submitted)) << submitted->Dump();
  TuningSession* long_session = server.sessions().Find("long");
  ASSERT_NE(long_session, nullptr);
  for (int i = 0;
       i < 60000 && long_session->phase() != SessionPhase::kRunning; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(long_session->phase(), SessionPhase::kRunning);

  submitted = connection->Call(SubmitRequest(SmallJob("short", 1)));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(IsOkResponse(*submitted)) << submitted->Dump();
  TuningSession* short_session = server.sessions().Find("short");
  ASSERT_NE(short_session, nullptr);
  ASSERT_TRUE(short_session->WaitTerminal(/*timeout_ms=*/60000));
  EXPECT_EQ(short_session->phase(), SessionPhase::kDone);
  EXPECT_EQ(long_session->phase(), SessionPhase::kRunning);

  ASSERT_TRUE(server.sessions().Cancel("long").ok());
  ASSERT_TRUE(long_session->WaitTerminal(/*timeout_ms=*/60000));
  EXPECT_EQ(long_session->phase(), SessionPhase::kCancelled);
  server.RequestShutdown();
  server.Wait();
}

// ---------------------------------------------------------------------------
// Connection: buffer-reusing framing + bounded output (unit, socketpair)
// ---------------------------------------------------------------------------

void MakeNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ASSERT_GE(flags, 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
}

TEST(ConnectionTest, LineFramingReusesBufferAcrossPipelinedRequests) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  MakeNonBlocking(fds[0]);
  Connection conn(fds[0], /*tag=*/1, ConnectionLimits{});

  // Two complete lines plus an unterminated tail in one read.
  ASSERT_EQ(::send(fds[1], "alpha\nbeta\ngam", 14, 0), 14);
  ASSERT_EQ(conn.ReadInput(), Connection::ReadStatus::kDrained);
  std::string_view line;
  ASSERT_TRUE(conn.NextLine(&line));
  EXPECT_EQ(line, "alpha");
  ASSERT_TRUE(conn.NextLine(&line));
  EXPECT_EQ(line, "beta");
  EXPECT_FALSE(conn.NextLine(&line)) << "tail has no terminator yet";

  // Compacting between framing passes must not lose the partial tail.
  conn.CompactInput();
  ASSERT_EQ(::send(fds[1], "ma\n", 3, 0), 3);
  ASSERT_EQ(conn.ReadInput(), Connection::ReadStatus::kDrained);
  ASSERT_TRUE(conn.NextLine(&line));
  EXPECT_EQ(line, "gamma");
  EXPECT_FALSE(conn.input_overflow());

  // Orderly peer close surfaces as kPeerClosed, not an error.
  ASSERT_EQ(::close(fds[1]), 0);
  EXPECT_EQ(conn.ReadInput(), Connection::ReadStatus::kPeerClosed);
}

TEST(ConnectionTest, OversizedUnterminatedTailLatchesInputOverflow) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  MakeNonBlocking(fds[0]);
  ConnectionLimits limits;
  limits.max_request_bytes = 32;
  Connection conn(fds[0], /*tag=*/1, limits);

  const std::string big(128, 'x');  // no newline: a line that never ends
  ASSERT_EQ(::send(fds[1], big.data(), big.size(), 0),
            static_cast<ssize_t>(big.size()));
  ASSERT_EQ(conn.ReadInput(), Connection::ReadStatus::kDrained);
  std::string_view line;
  EXPECT_FALSE(conn.NextLine(&line));
  EXPECT_TRUE(conn.input_overflow())
      << "an unterminated over-limit tail must latch the overflow flag "
         "instead of buffering without bound";
  ASSERT_EQ(::close(fds[1]), 0);
}

TEST(ConnectionTest, StalledPeerPausesThenOverflowsOutput) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A tiny kernel send buffer makes the peer's stall visible after a few
  // KiB instead of a few hundred.
  int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  MakeNonBlocking(fds[0]);
  ConnectionLimits limits;
  limits.output_pause_bytes = 8 * 1024;
  limits.max_output_bytes = 64 * 1024;
  Connection conn(fds[0], /*tag=*/1, limits);

  // Queue + flush against a peer that never reads: once the kernel buffer
  // fills, pending output builds and crosses the pause threshold.
  const std::string payload(1024, 'y');
  int guard = 0;
  while (!conn.output_paused() && guard++ < 1000) {
    conn.QueueLine(payload);
    (void)conn.FlushOutput();
  }
  ASSERT_TRUE(conn.output_paused());
  EXPECT_FALSE(conn.output_overflow());

  // Still not reading: queued output eventually crosses the hard limit.
  while (!conn.output_overflow() && guard++ < 2000) {
    conn.QueueLine(payload);
  }
  ASSERT_TRUE(conn.output_overflow());

  // Draining the peer clears both conditions: the pause is a pause, not a
  // death sentence for a slow-but-alive reader.
  std::vector<char> sink(64 * 1024);
  guard = 0;
  while (conn.pending_output() > 0 && guard++ < 10000) {
    ASSERT_NE(conn.FlushOutput(), Connection::FlushStatus::kClosed);
    while (::recv(fds[1], sink.data(), sink.size(), MSG_DONTWAIT) > 0) {
    }
  }
  EXPECT_EQ(conn.pending_output(), 0u);
  EXPECT_FALSE(conn.output_paused());
  EXPECT_FALSE(conn.output_overflow());
  ASSERT_EQ(::close(fds[1]), 0);
}

// ---------------------------------------------------------------------------
// EventLoop (unit)
// ---------------------------------------------------------------------------

TEST(EventLoopTest, EdgeTriggeredReadEventsAndCrossThreadWake) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(loop.Add(fds[0], /*tag=*/7, /*want_write=*/false,
                       /*edge_triggered=*/true)
                  .ok());

  std::vector<EventLoop::Event> events;
  EXPECT_EQ(loop.Poll(/*timeout_ms=*/0, &events), 0);

  ASSERT_EQ(::send(fds[1], "x", 1, 0), 1);
  ASSERT_EQ(loop.Poll(/*timeout_ms=*/1000, &events), 1);
  EXPECT_EQ(events[0].tag, 7u);
  EXPECT_TRUE(events[0].readable);
  // Edge-triggered: the same unread byte does not fire again.
  EXPECT_EQ(loop.Poll(/*timeout_ms=*/0, &events), 0);

  // A peer hangup is a fresh edge and carries the hangup flag.
  ASSERT_EQ(::close(fds[1]), 0);
  ASSERT_EQ(loop.Poll(/*timeout_ms=*/1000, &events), 1);
  EXPECT_EQ(events[0].tag, 7u);
  EXPECT_TRUE(events[0].hangup);

  // Wake() from another thread unblocks a sleeping Poll without
  // fabricating an fd event.
  std::thread waker([&loop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.Wake();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(loop.Poll(/*timeout_ms=*/30000, &events), 0);
  waker.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));

  loop.Remove(fds[0]);
  ASSERT_EQ(::close(fds[0]), 0);
}

// ---------------------------------------------------------------------------
// Regression: shed resumptions resolve off the worker thread (ISSUE 7)
// ---------------------------------------------------------------------------

TEST(TuningServerTest, ShedResumedSessionResolvesOnCancelThread) {
  ServerOptions options;
  options.max_concurrent_sessions = 1;
  options.admission.max_queue_depth = 1;
  options.admission.retry_after_ms = 30;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto connection = ClientConnection::Connect(server.port());
  ASSERT_TRUE(connection.ok());

  // Run "r" to completion so the next submit for it is a resume.
  auto first = connection->Call(SubmitRequest(SmallJob("r", 1)));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(IsOkResponse(*first)) << first->Dump();
  TuningSession* r = server.sessions().Find("r");
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->WaitTerminal(/*timeout_ms=*/60000));
  ASSERT_EQ(r->phase(), SessionPhase::kDone);

  // Occupy the shard's single slot, then the depth-1 queue.
  auto blocker = connection->Call(SubmitRequest(SmallJob("blocker", 500)));
  ASSERT_TRUE(blocker.ok());
  ASSERT_TRUE(IsOkResponse(*blocker)) << blocker->Dump();
  TuningSession* blk = server.sessions().Find("blocker");
  ASSERT_NE(blk, nullptr);
  for (int i = 0; i < 60000 && blk->phase() != SessionPhase::kRunning; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(blk->phase(), SessionPhase::kRunning);
  auto filler = connection->Call(SubmitRequest(SmallJob("filler", 1)));
  ASSERT_TRUE(filler.ok());
  ASSERT_TRUE(IsOkResponse(*filler)) << filler->Dump();

  // The resumption of "r" is shed (queue full). The regression this pins:
  // resolving the shed resumption must never run the session's job on the
  // serving thread — the connection gets the retry hint immediately and
  // the session turns cancelled via the dedicated cancel-resolver thread.
  auto shed = connection->Call(SubmitRequest(SmallJob("r", 1)));
  ASSERT_TRUE(shed.ok());
  EXPECT_FALSE(IsOkResponse(*shed));
  EXPECT_EQ(shed->GetString("code"), "ResourceExhausted") << shed->Dump();
  EXPECT_EQ(shed->GetInt("retry_after_ms"), 30);
  EXPECT_TRUE(r->WaitTerminal(/*timeout_ms=*/10000))
      << "shed resumption never resolved";
  EXPECT_EQ(r->phase(), SessionPhase::kCancelled);
  EXPECT_GE(server.admission().stats().cancels_admitted, 1u);
  const json::Value stats = server.StatsJson();
  const json::Value* admission = stats.Find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_GE(admission->GetInt("cancels_resolved"), 1);

  // The worker that took the shed submit stayed responsive throughout.
  auto poll_r = connection->Call(SessionRequest(RequestType::kPoll, "r"));
  ASSERT_TRUE(poll_r.ok());
  EXPECT_EQ(poll_r->GetString("state"), "cancelled") << poll_r->Dump();

  // Once the lane clears, the resumption is admitted and runs to done.
  ASSERT_TRUE(server.sessions().Cancel("blocker").ok());
  bool resubmitted = false;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    auto retry = connection->Call(SubmitRequest(SmallJob("r", 1)));
    ASSERT_TRUE(retry.ok());
    if (IsOkResponse(*retry)) {
      resubmitted = true;
      break;
    }
    const long long backoff = retry->GetInt("retry_after_ms", 0);
    ASSERT_GT(backoff, 0) << retry->Dump();
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
  ASSERT_TRUE(resubmitted);
  ASSERT_TRUE(r->WaitTerminal(/*timeout_ms=*/60000));
  EXPECT_EQ(r->phase(), SessionPhase::kDone);

  server.RequestShutdown();
  server.Wait();
}

// ---------------------------------------------------------------------------
// Backpressure: a stalled reader is bounded, then dropped (ISSUE 7)
// ---------------------------------------------------------------------------

// A raw client socket with a tiny receive buffer (set before connect so it
// clamps the advertised TCP window): the kernel-side slack between server
// and client stays small, so a reader that stops reading backs the server
// up after a few KiB instead of a few hundred.
int ConnectStalledSocket(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int rcvbuf = 4096;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(TuningServerTest, StalledReaderIsBoundedAndDroppedAtOutputCap) {
  ServerOptions options;
  options.output_pause_bytes = 2 * 1024;
  options.max_output_bytes = 16 * 1024;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto observer = ClientConnection::Connect(server.port());
  ASSERT_TRUE(observer.ok());

  // The stalled reader pipelines metrics requests (fat responses) and
  // never reads a byte back. Its pending output must be bounded: once it
  // crosses max_output_bytes the server drops the connection instead of
  // buffering without bound.
  const int stalled = ConnectStalledSocket(server.port());
  ASSERT_GE(stalled, 0);
  Request metrics_request;
  metrics_request.type = RequestType::kMetrics;
  const std::string line = metrics_request.Serialize() + "\n";

  long long dropped = 0;
  for (int i = 0; i < 5000 && dropped < 1; ++i) {
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(stalled, line.data() + sent,
                               line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;  // server closed on us: the drop happened
      sent += static_cast<size_t>(n);
    }
    if (sent < line.size()) break;
    if ((i & 63) == 0) {
      auto stats = observer->Call(Request{});
      ASSERT_TRUE(stats.ok());
      const json::Value* transport = stats->Find("transport");
      ASSERT_NE(transport, nullptr) << stats->Dump();
      dropped = transport->GetInt("dropped_output_overflow");
    }
  }
  // The drop may land just after the last sampled stats read.
  for (int i = 0; i < 5000 && dropped < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto stats = observer->Call(Request{});
    ASSERT_TRUE(stats.ok());
    dropped = stats->Find("transport")->GetInt("dropped_output_overflow");
  }
  EXPECT_GE(dropped, 1) << "stalled reader was never dropped";
  ::close(stalled);

  // Other connections were never hostage to the stalled one.
  auto submitted = observer->Call(SubmitRequest(SmallJob("healthy", 1)));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(IsOkResponse(*submitted)) << submitted->Dump();
  TuningSession* healthy = server.sessions().Find("healthy");
  ASSERT_NE(healthy, nullptr);
  ASSERT_TRUE(healthy->WaitTerminal(/*timeout_ms=*/60000));
  EXPECT_EQ(healthy->phase(), SessionPhase::kDone);

  server.RequestShutdown();
  server.Wait();
}

// ---------------------------------------------------------------------------
// Many concurrent connections across workers and shards (ISSUE 7)
// ---------------------------------------------------------------------------

TEST(TuningServerTest, ManyConnectionsInterleaveSubmitStreamCancel) {
  ServerOptions options;
  options.num_workers = 4;
  options.admission.num_shards = 4;
  options.admission.max_queue_depth = 512;
  options.admission.retry_after_ms = 5;
  options.max_connections = 300;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // 6 client threads x 20 connections each, all alive at once. Every
  // connection submits one cheap baseline job ("uniform" skips curve
  // estimation) and then exercises one of the three read paths: streaming
  // to the done frame, polling to a terminal state, or cancelling first.
  // This is the suite the TSan CI job leans on: accept, framing, dispatch,
  // frame flushing, and cancels all running against each other.
  constexpr int kThreads = 6;
  constexpr int kConnsPerThread = 20;
  std::atomic<int> failures{0};
  std::atomic<int> done_or_cancelled{0};
  auto client_thread = [&server, &failures, &done_or_cancelled](int t) {
    std::vector<Result<ClientConnection>> conns;
    for (int i = 0; i < kConnsPerThread; ++i) {
      conns.push_back(ClientConnection::Connect(server.port()));
      if (!conns.back().ok()) {
        ++failures;
        return;
      }
    }
    // Submit on every connection first so the waves genuinely overlap.
    for (int i = 0; i < kConnsPerThread; ++i) {
      const std::string name =
          "mc-" + std::to_string(t) + "-" + std::to_string(i);
      JobSpec job = SmallJob(name, /*rounds=*/1);
      job.method = "uniform";
      job.rows_per_slice = 16;
      job.budget = 16.0;
      bool admitted = false;
      for (int attempt = 0; attempt < 2000; ++attempt) {
        auto response = conns[i]->Call(SubmitRequest(job));
        if (!response.ok()) break;
        if (IsOkResponse(*response)) {
          admitted = true;
          break;
        }
        const long long backoff = response->GetInt("retry_after_ms", 0);
        if (backoff <= 0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      if (!admitted) {
        ++failures;
        return;
      }
    }
    for (int i = 0; i < kConnsPerThread; ++i) {
      const std::string name =
          "mc-" + std::to_string(t) + "-" + std::to_string(i);
      if (i % 3 == 0) {
        // Stream to the done frame.
        auto streaming =
            conns[i]->Call(SessionRequest(RequestType::kStream, name));
        if (!streaming.ok() || !IsOkResponse(*streaming)) {
          ++failures;
          continue;
        }
        for (;;) {
          auto frame = conns[i]->ReadJson(/*timeout_ms=*/60000);
          if (!frame.ok()) {
            ++failures;
            break;
          }
          if (frame->GetString("frame") == "done") {
            ++done_or_cancelled;
            break;
          }
        }
      } else {
        if (i % 3 == 2) {
          // Cancel races the run; either outcome is fine, but it must
          // resolve to a terminal state.
          (void)conns[i]->Call(SessionRequest(RequestType::kCancel, name));
        }
        bool terminal = false;
        for (int attempt = 0; attempt < 60000; ++attempt) {
          auto response =
              conns[i]->Call(SessionRequest(RequestType::kPoll, name));
          if (!response.ok()) break;
          const std::string state = response->GetString("state");
          if (state == "done" || state == "cancelled" || state == "failed") {
            terminal = state != "failed";
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (terminal) {
          ++done_or_cancelled;
        } else {
          ++failures;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(client_thread, t);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(done_or_cancelled.load(), kThreads * kConnsPerThread);
  const json::Value stats = server.StatsJson();
  const json::Value* transport = stats.Find("transport");
  ASSERT_NE(transport, nullptr);
  EXPECT_EQ(transport->GetInt("workers"), 4);
  EXPECT_EQ(transport->GetInt("dispatch_shards"), 4);
  EXPECT_EQ(transport->GetInt("dropped_output_overflow"), 0);

  server.RequestShutdown();
  server.Wait();
}

}  // namespace
}  // namespace serve
}  // namespace slicetuner
