// Serve-layer metric handles (src/obs/), resolved once per process and
// shared by the server, admission controller, and session manager so the
// request path records through raw pointers. docs/OBSERVABILITY.md is the
// catalog; the stage histograms cover the request lifecycle
// accept -> parse -> admit -> dispatch -> run -> flush.

#ifndef SLICETUNER_SERVE_SERVE_METRICS_H_
#define SLICETUNER_SERVE_SERVE_METRICS_H_

#include "obs/metrics.h"

namespace slicetuner {
namespace serve {

struct ServeMetrics {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  // Request path.
  obs::Counter* requests = registry.counter("serve_requests_total");
  obs::Histogram* accept_ns =
      registry.histogram("serve_stage_ns", "stage", "accept");
  obs::Histogram* parse_ns =
      registry.histogram("serve_stage_ns", "stage", "parse");
  obs::Histogram* admit_ns =
      registry.histogram("serve_stage_ns", "stage", "admit");
  obs::Histogram* dispatch_ns =
      registry.histogram("serve_stage_ns", "stage", "dispatch");
  obs::Histogram* run_ns = registry.histogram("serve_stage_ns", "stage",
                                              "run");
  obs::Histogram* flush_ns =
      registry.histogram("serve_stage_ns", "stage", "flush");

  // Event loop / transport. Per-worker variants of the hot counters are
  // registered by each worker at startup as `serve_worker_*{worker="N"}`.
  obs::Counter* accepts = registry.counter("serve_accepts_total");
  obs::Counter* conns_rejected =
      registry.counter("serve_connections_rejected_total");
  obs::Counter* eintr_retries = registry.counter("serve_eintr_retries_total");
  obs::Counter* poll_errors = registry.counter("serve_poll_errors_total");
  obs::Counter* stream_pauses = registry.counter("serve_stream_pauses_total");
  obs::Counter* output_overflow =
      registry.counter("serve_output_overflow_dropped_total");

  // Admission.
  obs::Counter* admitted = registry.counter("serve_admitted_total");
  obs::Counter* shed_queue_full =
      registry.counter("serve_shed_queue_full_total");
  obs::Counter* shed_backlog = registry.counter("serve_shed_backlog_total");
  obs::Counter* retry_after_sent =
      registry.counter("serve_retry_after_sent_total");
  obs::Counter* shed_restoring =
      registry.counter("serve_shed_restoring_total");
  obs::Counter* cancels_resolved =
      registry.counter("serve_cancels_resolved_total");
  obs::Gauge* queue_depth = registry.gauge("serve_queue_depth");

  // Sessions / jobs.
  obs::Gauge* sessions = registry.gauge("serve_sessions");
  obs::Gauge* connections = registry.gauge("serve_connections");
  obs::Counter* jobs_done = registry.counter("serve_jobs_done_total");
  obs::Counter* jobs_cancelled =
      registry.counter("serve_jobs_cancelled_total");
  obs::Counter* jobs_failed = registry.counter("serve_jobs_failed_total");
  obs::Histogram* queue_wait_ns = registry.histogram("serve_queue_wait_ns");
  obs::Histogram* submit_to_done_ns =
      registry.histogram("serve_submit_to_done_ns");

  // Per-round span stages inside a running job.
  obs::Histogram* round_estimate_ns =
      registry.histogram("serve_round_stage_ns", "stage", "estimate");
  obs::Histogram* round_plan_ns =
      registry.histogram("serve_round_stage_ns", "stage", "plan");
  obs::Histogram* round_acquire_ns =
      registry.histogram("serve_round_stage_ns", "stage", "acquire");
  // The closing estimate after a curve-based job's last round; not a round
  // stage, so it has its own histogram.
  obs::Histogram* closing_estimate_ns =
      registry.histogram("serve_closing_estimate_ns");

  // Startup recovery up to the listen socket: the total, and its split by
  // phase. The startup checkpoint runs after listen, on the maintenance
  // thread, which sets store_replay_phase_ms{phase="checkpoint"}.
  obs::Gauge* replay_ms = registry.gauge("store_replay_ms");
  obs::Gauge* replay_open_ms =
      registry.gauge("store_replay_phase_ms", "phase", "open");
  obs::Gauge* replay_restore_ms =
      registry.gauge("store_replay_phase_ms", "phase", "restore");

  static ServeMetrics& Get() {
    static ServeMetrics& metrics = *new ServeMetrics();
    return metrics;
  }
};

}  // namespace serve
}  // namespace slicetuner

#endif  // SLICETUNER_SERVE_SERVE_METRICS_H_
