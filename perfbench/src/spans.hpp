// In-memory spans for the traced run.
//
// Each span covers one call (or a run of identical calls) into a public
// droppkt function, timed from the benchmark's own code. A SpanBuffer is
// written by exactly one thread; the enclosing open span on that thread is
// the parent. Spans that belong to one verdict share a key (a hash of the
// client id), so a session's engine sink call and its alert hook can be
// joined across threads after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : std::uint8_t {
  kSetupSimulate,      // core::build_dataset (has simulator)
  kSetupFit,           // core::QoeEstimator::train
  kEngineConstruct,    // IngestEngine + AlertPipeline construction
  kPassLineRate,       // one closed-loop pass, first ingest to finish()
  kPassPaced,          // one open-loop pass
  kIngestBatch,        // IngestEngine::ingest_batch
  kFinish,             // IngestEngine::finish
  kTelemetryTick,      // refresh_gauges + IntervalStreamer::tick
  kTelemetryPoll,      // IntervalStreamer::poll
  kSessionSink,        // the engine's SessionSink callback
  kAlertProvisional,   // AlertPipeline::on_provisional
  kAlertSession,       // AlertPipeline::on_session
  kAlertWatermark,     // AlertPipeline::on_watermark
  kAlertFinish,        // AlertPipeline::on_finish
  kReferenceObserve,   // single-threaded StreamingMonitor over the feed
  kReplayClient,       // one client's replay through the core primitives
  kBoundaryScan,       // IncrementalBoundaryScan::on_append (+ rebuild)
  kAccumulatorObserve, // TlsFeatureAccumulator::observe
  kSnapshot,           // TlsFeatureAccumulator::snapshot_into
  kPredict,            // QoeEstimator::predict_into
  kCount
};

inline const char* span_name(SpanName n) {
  static const char* const kNames[] = {
      "has.simulate",          "ml.fit",
      "engine.construct",      "pass.line_rate",
      "pass.paced",            "engine.ingest_batch",
      "engine.finish",         "telemetry.tick",
      "telemetry.poll",        "engine.session_sink",
      "alert.on_provisional",  "alert.on_session",
      "alert.on_watermark",    "alert.on_finish",
      "core.monitor_observe",  "core.client_replay",
      "core.boundary_scan",    "core.accumulator_observe",
      "core.snapshot",         "ml.predict"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<std::size_t>(SpanName::kCount));
  return kNames[static_cast<std::size_t>(n)];
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t key = 0;     // verdict id (client hash); 0 = none
  std::uint32_t parent = 0;  // 1-based index in the same buffer; 0 = root
  std::uint32_t calls = 1;   // public calls the span covers
  SpanName name = SpanName::kCount;
};

/// Single-writer span store with a parent stack.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::string label) : label_(std::move(label)) {}

  /// Open a span; returns its handle for close().
  std::size_t open(SpanName name, std::uint64_t key = 0) {
    Span s;
    s.name = name;
    s.key = key;
    s.parent = current_;
    s.start_ns = now_ns();
    spans_.push_back(s);
    current_ = static_cast<std::uint32_t>(spans_.size());
    return spans_.size() - 1;
  }

  void close(std::size_t handle, std::uint32_t calls = 1) {
    Span& s = spans_[handle];
    s.end_ns = now_ns();
    s.calls = calls;
    current_ = s.parent;
  }

  /// Record an already-timed leaf span under the current parent.
  void add(SpanName name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t key = 0, std::uint32_t calls = 1) {
    spans_.push_back(Span{start_ns, end_ns, key, current_, calls, name});
  }

  void reserve(std::size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }
  const std::string& label() const { return label_; }

 private:
  std::string label_;
  std::vector<Span> spans_;
  std::uint32_t current_ = 0;
};

/// RAII span on an optional buffer (nullptr: untraced, no clock reads).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, SpanName name, std::uint64_t key = 0)
      : buf_(buf), handle_(buf ? buf->open(name, key) : 0) {}
  ~ScopedSpan() {
    if (buf_) buf_->close(handle_, calls_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_calls(std::uint32_t calls) { calls_ = calls; }

 private:
  SpanBuffer* buf_;
  std::size_t handle_;
  std::uint32_t calls_ = 1;
};

/// Per-name totals over a set of buffers. Self time is a span's duration
/// minus the part of it covered by its direct children.
struct SpanTotals {
  std::uint64_t spans = 0;
  std::uint64_t calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  double ns_per_call() const {
    return calls == 0 ? 0.0 : total_ns / static_cast<double>(calls);
  }
};

class SpanTable {
 public:
  void add(const SpanBuffer& buf) {
    const auto& spans = buf.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent != 0) {
        child_ns[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      SpanTotals& t = totals_[static_cast<std::size_t>(s.name)];
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      ++t.spans;
      t.calls += s.calls;
      t.total_ns += d;
      t.self_ns += d - child_ns[i];
    }
  }

  const SpanTotals& operator[](SpanName n) const {
    return totals_[static_cast<std::size_t>(n)];
  }

  /// The per-layer table, one line per span name seen.
  void print(std::FILE* out) const {
    std::fprintf(out, "%-26s %9s %10s %12s %12s %12s\n", "span", "spans",
                 "calls", "total_ms", "self_ms", "ns/call");
    for (std::size_t i = 0; i < totals_.size(); ++i) {
      const SpanTotals& t = totals_[i];
      if (t.spans == 0) continue;
      std::fprintf(out, "%-26s %9llu %10llu %12.3f %12.3f %12.1f\n",
                   span_name(static_cast<SpanName>(i)),
                   static_cast<unsigned long long>(t.spans),
                   static_cast<unsigned long long>(t.calls),
                   t.total_ns / 1e6, t.self_ns / 1e6, t.ns_per_call());
    }
  }

 private:
  std::vector<SpanTotals> totals_ =
      std::vector<SpanTotals>(static_cast<std::size_t>(SpanName::kCount));
};

/// Write buffers as CSV: buffer,index,parent,name,key,start_ns,end_ns,calls.
inline bool write_spans(const std::string& path, const std::string& header,
                        const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# %s\n", header.c_str());
  std::fprintf(f, "buffer,index,parent,name,key,start_ns,end_ns,calls\n");
  for (const SpanBuffer* b : buffers) {
    const auto& spans = b->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s,%zu,%u,%s,%016llx,%lld,%lld,%u\n",
                   b->label().c_str(), i + 1, s.parent, span_name(s.name),
                   static_cast<unsigned long long>(s.key),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.calls);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
