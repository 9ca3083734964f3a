#include <algorithm>
#include <span>
#include <stdexcept>

#include "bench.hpp"
#include "proc.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/streamer.hpp"
#include "util/string_pool.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kTickIntervalNs = 10'000'000;  // 10 ms telemetry

/// An AlertSink decorator around AlertPipeline: forwards every call, then
/// stamps the verdict's delivery time (for latency) and keeps the
/// provisional estimates' hashes (for the check). Each shard lane is
/// written only by that shard's worker. With tracing on it also records a
/// span per call into the lane's buffer.
class VerdictTap final : public dp::engine::AlertSink {
 public:
  struct Verdict {
    std::int64_t delivered_ns = 0;
    double feed_s = 0.0;  // detected_s / last_activity_s
  };
  struct alignas(64) Lane {
    std::vector<Verdict> verdicts;
    std::vector<std::uint64_t> provisionals;
    std::unique_ptr<SpanBuffer> spans;
  };

  /// Lanes are sized and their buffers touched here, before the pass's
  /// memory baseline is read, so the benchmark's own bookkeeping does not
  /// count as engine memory.
  VerdictTap(std::size_t num_shards, SpanBuffer* finish_spans,
             std::size_t expected_verdicts)
      : finish_spans_(finish_spans), lanes_(num_shards) {
    for (std::size_t i = 0; i < num_shards; ++i) {
      Lane& lane = lanes_[i];
      lane.verdicts.resize(expected_verdicts);
      lane.verdicts.clear();
      lane.provisionals.resize(expected_verdicts);
      lane.provisionals.clear();
      if (finish_spans_ != nullptr) {
        lane.spans = std::make_unique<SpanBuffer>("shard" + std::to_string(i));
        lane.spans->reserve(expected_verdicts + 1024);
      }
    }
  }

  /// The pipeline every call is forwarded to; set before the engine binds.
  void forward_to(dp::alert::AlertPipeline& inner) { inner_ = &inner; }

  void bind(std::size_t num_shards) override {
    if (inner_ == nullptr || num_shards != lanes_.size()) {
      throw std::logic_error("VerdictTap: bound before forward_to or with "
                             "a different shard count");
    }
    inner_->bind(num_shards);
  }

  void bind_telemetry(dp::telemetry::MetricRegistry& registry) override {
    inner_->bind_telemetry(registry);
  }

  void on_provisional(std::size_t shard,
                      const dp::core::ProvisionalEstimate& e) override {
    Lane& lane = lanes_[shard];
    const std::int64_t t0 = lane.spans ? now_ns() : 0;
    inner_->on_provisional(shard, e);
    const std::int64_t t1 = now_ns();
    lane.verdicts.push_back({t1, e.last_activity_s});
    lane.provisionals.push_back(provisional_hash(e));
    if (lane.spans) {
      lane.spans->add(SpanName::kAlertProvisional, t0, t1,
                      dp::util::well_mixed_hash(e.client));
    }
  }

  void on_session(std::size_t shard, const dp::core::MonitoredSessionView& s,
                  bool at_close) override {
    Lane& lane = lanes_[shard];
    const std::int64_t t0 = lane.spans ? now_ns() : 0;
    inner_->on_session(shard, s, at_close);
    const std::int64_t t1 = now_ns();
    // Force-flushed sessions have no feed-time trigger: no latency.
    if (!at_close) lane.verdicts.push_back({t1, s.detected_s});
    if (lane.spans) {
      lane.spans->add(SpanName::kAlertSession, t0, t1,
                      dp::util::well_mixed_hash(s.client));
    }
  }

  void on_watermark(std::size_t shard, double watermark_s) override {
    Lane& lane = lanes_[shard];
    if (!lane.spans) {
      inner_->on_watermark(shard, watermark_s);
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_->on_watermark(shard, watermark_s);
    lane.spans->add(SpanName::kAlertWatermark, t0, now_ns());
  }

  void on_finish() override {
    ScopedSpan span(finish_spans_, SpanName::kAlertFinish);
    inner_->on_finish();
  }

  dp::engine::AlertCounts counts() const override { return inner_->counts(); }

  std::vector<Lane>& lanes() { return lanes_; }

 private:
  dp::alert::AlertPipeline* inner_ = nullptr;
  SpanBuffer* finish_spans_;
  std::vector<Lane> lanes_;
};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

PassResult run_engine_pass(const Workload& wl,
                           dp::core::QoeEstimator& estimator,
                           const dp::engine::Feed& feed,
                           const std::vector<double>& starts,
                           const PassConfig& config) {
  PassResult r;
  const std::size_t n = feed.size();
  auto gen = config.traced ? std::make_unique<SpanBuffer>("gen") : nullptr;
  auto sink_spans =
      config.traced ? std::make_unique<SpanBuffer>("sink") : nullptr;
  // Per-lane reservation: half the expected verdicts plus shard skew.
  const std::size_t verdicts =
      wl.clients * wl.sessions_per_client +
      (wl.provisional_every > 0 ? n / wl.provisional_every : 0);
  const std::size_t expected_verdicts = verdicts * 5 / 8 + 1024;

  dp::telemetry::MetricRegistry registry;
  if (config.traced) {
    estimator.bind_telemetry(&registry.counter("ml.predictions"));
  }
  dp::engine::EngineConfig ecfg = engine_config(wl);
  // The benchmark's own buffers are sized and touched before the memory
  // baseline.
  VerdictTap tap(ecfg.num_shards, gen.get(), expected_verdicts);
  std::vector<std::uint64_t> session_hashes(n / wl.txns_per_session + 1024);
  session_hashes.clear();
  if (config.sample_rss) r.rss_before = rss_bytes();
  r.rss_peak = r.rss_before;

  const std::int64_t c0 = now_ns();
  const std::size_t construct_span =
      gen ? gen->open(SpanName::kEngineConstruct) : 0;
  dp::alert::AlertPipeline pipeline(pipeline_config());
  tap.forward_to(pipeline);
  ecfg.alert_sink = &tap;
  ecfg.registry = &registry;
  SpanBuffer* sink_buf = sink_spans.get();
  dp::engine::IngestEngine engine(
      estimator,
      [&session_hashes, sink_buf](const dp::core::MonitoredSessionView& s) {
        // Serialized by the engine's sink mutex, so one buffer suffices.
        const std::int64_t t0 = sink_buf ? now_ns() : 0;
        session_hashes.push_back(session_hash(s));
        if (sink_buf) {
          sink_buf->add(SpanName::kSessionSink, t0, now_ns(),
                        dp::util::well_mixed_hash(s.client));
        }
      },
      ecfg);
  dp::telemetry::IntervalStreamer streamer(registry,
                                           dp::telemetry::monotonic_clock());
  std::vector<std::uint8_t> wire = streamer.header_frame();
  if (gen) gen->close(construct_span);
  r.construct_s = static_cast<double>(now_ns() - c0) / 1e9;

  const auto tick = [&] {
    {
      ScopedSpan span(gen.get(), SpanName::kTelemetryTick);
      engine.refresh_gauges();
      streamer.tick();
    }
    ScopedSpan span(gen.get(), SpanName::kTelemetryPoll);
    streamer.poll(wire);
  };

  const std::size_t block = ecfg.drain_block;
  const double ns_per_record = 1e9 / wl.offered_rate;
  const auto runq_before = runq_delay_by_thread();
  const std::uint64_t cpu_before = process_cpu_ns();
  std::size_t sent = 0;
  std::int64_t t0 = 0;
  {
    ScopedSpan pass_span(gen.get(), config.paced ? SpanName::kPassPaced
                                                 : SpanName::kPassLineRate);
    t0 = now_ns();
    std::int64_t next_tick = t0 + kTickIntervalNs;
    while (sent < n) {
      const std::int64_t now = now_ns();
      if (now >= next_tick) {
        tick();
        next_tick = now + kTickIntervalNs;
      }
      std::size_t count = std::min(block, n - sent);
      if (config.paced) {
        // Records i with t0 + i/rate <= now are due; send them, at most
        // one drain block per call.
        const auto due = std::min<std::size_t>(
            n, static_cast<std::size_t>(static_cast<double>(now - t0) /
                                        ns_per_record) +
                   1);
        if (due <= sent) {
          cpu_relax();
          continue;
        }
        count = std::min(count, due - sent);
        r.late_ms.push_back(
            (static_cast<double>(now - t0) -
             static_cast<double>(sent) * ns_per_record) /
            1e6);
      }
      {
        ScopedSpan span(gen.get(), SpanName::kIngestBatch);
        span.set_calls(static_cast<std::uint32_t>(count));
        engine.ingest_batch(
            std::span<const dp::engine::FeedRecord>(feed.data() + sent, count));
      }
      sent += count;
      ++r.ingest_calls;
      if (config.sample_rss) r.rss_peak = std::max(r.rss_peak, rss_bytes());
    }
    r.runq_ns = runq_delay_growth(runq_before, runq_delay_by_thread());
    ScopedSpan span(gen.get(), SpanName::kFinish);
    engine.finish();
  }
  r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  r.cpu_ns = process_cpu_ns() - cpu_before;
  if (config.sample_rss) r.rss_peak = std::max(r.rss_peak, rss_bytes());
  tick();
  r.stats = engine.stats();
  r.counts = tap.counts();
  r.tm_dropped = streamer.dropped_intervals();
  r.tm_wire_bytes = wire.size();
  if (config.traced) {
    r.predictions = registry.value("ml.predictions");
    estimator.bind_telemetry(nullptr);
  }

  // Verdict latency: from the due time of the record whose start time is
  // the verdict's feed time (the latest such record on ties) to delivery.
  for (auto& lane : tap.lanes()) {
    if (config.paced) {
      for (const auto& v : lane.verdicts) {
        const auto it =
            std::upper_bound(starts.begin(), starts.end(), v.feed_s);
        if (it == starts.begin() || *(it - 1) != v.feed_s) {
          ++r.unmatched_verdicts;
          continue;
        }
        const auto idx = static_cast<double>(it - starts.begin() - 1);
        r.latency_ms.push_back(
            (static_cast<double>(v.delivered_ns - t0) - idx * ns_per_record) /
            1e6);
      }
    }
    r.out.provisionals.insert(r.out.provisionals.end(),
                              lane.provisionals.begin(),
                              lane.provisionals.end());
    if (lane.spans) r.spans.push_back(std::move(lane.spans));
  }
  std::sort(r.out.provisionals.begin(), r.out.provisionals.end());
  std::sort(session_hashes.begin(), session_hashes.end());
  r.out.sessions = std::move(session_hashes);
  r.out.alerts = alert_hashes(pipeline.log_snapshot());
  if (gen) r.spans.push_back(std::move(gen));
  if (sink_spans) r.spans.push_back(std::move(sink_spans));
  return r;
}

}  // namespace perfbench
