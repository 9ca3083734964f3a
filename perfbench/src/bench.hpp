// The benchmark's workloads, its single-threaded reference, and the
// engine pass that drives droppkt's serving path from outside.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alert/pipeline.hpp"
#include "core/estimator.hpp"
#include "engine/engine.hpp"
#include "engine/feed.hpp"
#include "spans.hpp"

namespace perfbench {

namespace dp = droppkt;

struct Workload {
  std::string name;
  std::size_t clients = 0;
  std::size_t sessions_per_client = 0;
  std::size_t txns_per_session = 0;
  /// MonitorConfig::provisional_every (0 = no in-flight estimates).
  std::size_t provisional_every = 0;
  /// Fixed offered rate of the open-loop pass, records/s.
  double offered_rate = 0.0;
  /// Size of the simulated Svc1 training set.
  std::size_t train_sessions = 0;
};

/// Looks up a workload by name; `tiny` shrinks it for the smoke test.
/// Returns false for an unknown name.
bool find_workload(const std::string& name, bool tiny, Workload& out);

/// Feed number `part` of the workload, built entirely from `seed`; parts
/// are independent feeds of the same shape.
dp::engine::Feed make_feed(const Workload& wl, std::uint64_t seed,
                           std::size_t part);

/// The serving configuration every pass and the reference share.
dp::engine::EngineConfig engine_config(const Workload& wl);
dp::alert::AlertPipelineConfig pipeline_config();

std::uint64_t session_hash(const dp::core::MonitoredSessionView& s);
std::uint64_t provisional_hash(const dp::core::ProvisionalEstimate& e);
std::vector<std::uint64_t> alert_hashes(
    const std::vector<dp::alert::AlertEvent>& log);

/// Outputs of one run over the feed: what the correctness check compares.
struct Outputs {
  std::vector<std::uint64_t> sessions;      // sorted multiset
  std::vector<std::uint64_t> provisionals;  // sorted multiset
  std::vector<std::uint64_t> alerts;        // in sequence
};

/// Single-threaded reference: one StreamingMonitor feeding a 1-lane
/// AlertPipeline, with the engine's watermark schedule replayed inline.
struct Reference {
  Outputs out;
  double seconds = 0.0;
};
Reference run_reference(const Workload& wl,
                        const dp::core::QoeEstimator& estimator,
                        const dp::engine::Feed& feed, SpanBuffer* spans);

/// Operations a pass attempted and how many of them failed against the
/// reference: records offered (failed when shed) plus every verdict and
/// alert event the reference expects (failed when missing or different).
struct Check {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
Check check_outputs(const Outputs& got, const Outputs& want,
                    std::uint64_t records, std::uint64_t records_shed);

/// Replays each client's records through the core primitives the monitor
/// uses (boundary scan, accumulator fold, snapshot) and the estimator's
/// predict_into, recording one span per run of calls.
void replay_core(const Workload& wl, const dp::core::QoeEstimator& estimator,
                 const dp::engine::Feed& feed, SpanBuffer& spans);

struct PassConfig {
  bool paced = false;       // open loop at the workload's offered rate
  bool traced = false;      // record spans around every public call
  bool sample_rss = false;  // track peak RSS during the pass
};

struct PassResult {
  double seconds = 0.0;      // first ingest until finish() returns
  double construct_s = 0.0;  // engine + pipeline + streamer construction
  std::vector<double> latency_ms;  // paced only: due time -> verdict
  std::uint64_t unmatched_verdicts = 0;  // verdict time not in the feed
  std::vector<double> late_ms;     // paced only: generator lateness per call
  std::uint64_t ingest_calls = 0;
  Outputs out;
  dp::engine::EngineStatsSnapshot stats;
  dp::engine::AlertCounts counts;
  std::uint64_t rss_before = 0;
  std::uint64_t rss_peak = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t runq_ns = 0;
  std::uint64_t predictions = 0;  // traced only (ml.predictions counter)
  std::uint64_t tm_dropped = 0;
  std::uint64_t tm_wire_bytes = 0;
  /// Traced only: generator, session-sink and per-shard span buffers.
  std::vector<std::unique_ptr<SpanBuffer>> spans;
};

/// Runs one engine pass over the feed: a 2-shard IngestEngine with an
/// AlertPipeline sink, fed from the calling thread, which also ticks the
/// telemetry streamer.
PassResult run_engine_pass(const Workload& wl,
                           dp::core::QoeEstimator& estimator,
                           const dp::engine::Feed& feed,
                           const std::vector<double>& starts,
                           const PassConfig& config);

}  // namespace perfbench
