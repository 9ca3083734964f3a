#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "bench.hpp"
#include "core/monitor.hpp"
#include "core/session_id.hpp"
#include "core/tls_record.hpp"
#include "util/string_pool.hpp"

namespace perfbench {

namespace {

// Every workload loads a different layer (see BENCHMARK.json). Offered
// rates are fixed numbers, never derived from a run: about a quarter of
// the line rate on a 4-core host. At half the line rate a scheduler stall
// of a few milliseconds backs up enough verdicts to move the p99, so the
// tail measured the host more than the engine.
const Workload kWorkloads[] = {
    // Long HAS sessions: per-record routing, mailbox, boundary scan and
    // accumulator fold dominate; ML and alerting run once per session.
    {"steady_video", 1000, 2, 240, 0, 0.6e6, 2111},
    // The same session shape with an in-flight estimate every 4th record:
    // snapshot + forest predict + hysteresis step dominate.
    {"early_verdict", 250, 2, 240, 4, 0.75e5, 2111},
    // Many short-lived subscribers: client creation, interning, eviction
    // and a session verdict every 12 records.
    {"subscriber_churn", 25000, 1, 12, 0, 2.5e5, 2111},
};

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ULL;
    }
  }
  void str(std::string_view s) {
    const std::uint64_t n = s.size();
    bytes(&n, sizeof(n));
    bytes(s.data(), s.size());
  }
  template <typename T>
  void pod(T v) {
    bytes(&v, sizeof(v));
  }
};

// Deterministic coarse location mapping so alerting aggregates the
// per-subscriber feed into 64 locations.
std::string location_of(std::string_view client) {
  return "loc-" + std::to_string(dp::util::well_mixed_hash(client) % 64);
}

}  // namespace

bool find_workload(const std::string& name, bool tiny, Workload& out) {
  for (const Workload& w : kWorkloads) {
    if (w.name != name) continue;
    out = w;
    if (tiny) {
      out.clients = std::max<std::size_t>(8, w.clients / 50);
      out.train_sessions = 150;
    }
    return true;
  }
  return false;
}

dp::engine::Feed make_feed(const Workload& wl, std::uint64_t seed,
                           std::size_t part) {
  dp::engine::SynthFeedConfig cfg;
  cfg.num_clients = wl.clients;
  cfg.sessions_per_client = wl.sessions_per_client;
  cfg.txns_per_session = wl.txns_per_session;
  cfg.seed = seed * 0x9E3779B97F4A7C15ULL + part;
  dp::engine::Feed feed = dp::engine::synthetic_feed(cfg);
  // Starve a hash-selected 1 in 8 subscribers so the forest emits a mix
  // of QoE classes and the alert sequence is not empty.
  for (auto& r : feed) {
    if (dp::util::well_mixed_hash(r.client) % 8 == 0) r.txn.dl_bytes *= 0.02;
  }
  return feed;
}

dp::engine::EngineConfig engine_config(const Workload& wl) {
  dp::engine::EngineConfig cfg;
  cfg.num_shards = 2;
  cfg.queue_capacity = 8192;
  cfg.backpressure = dp::util::BackpressurePolicy::kBlock;
  cfg.monitor.materialize_transactions = false;
  cfg.monitor.provisional_every = wl.provisional_every;
  return cfg;
}

dp::alert::AlertPipelineConfig pipeline_config() {
  dp::alert::AlertPipelineConfig cfg;
  cfg.location_of = location_of;
  // Sensitive detection so the mostly healthy synthetic feed raises and
  // clears alerts: the check compares real event sequences.
  cfg.detector.alert_rate = 0.05;
  cfg.detector.min_effective_sessions = 2.0;
  return cfg;
}

std::uint64_t session_hash(const dp::core::MonitoredSessionView& s) {
  Fnv f;
  f.str(s.client);
  f.pod<std::uint64_t>(s.records.size());
  f.pod(s.predicted_class);
  f.pod(s.confidence);
  f.pod(s.start_s);
  f.pod(s.end_s);
  f.pod(s.detected_s);
  return f.h;
}

std::uint64_t provisional_hash(const dp::core::ProvisionalEstimate& e) {
  Fnv f;
  f.str(e.client);
  f.pod<std::uint64_t>(e.transactions_observed);
  f.pod(e.predicted_class);
  f.pod(e.confidence);
  f.pod(e.session_start_s);
  f.pod(e.last_activity_s);
  return f.h;
}

std::vector<std::uint64_t> alert_hashes(
    const std::vector<dp::alert::AlertEvent>& log) {
  std::vector<std::uint64_t> out;
  out.reserve(log.size());
  for (const auto& e : log) {
    Fnv f;
    f.pod(e.id);
    f.pod(static_cast<int>(e.kind));
    f.str(e.location);
    f.pod(e.time_s);
    f.pod(e.rate_low);
    f.pod(e.rate_high);
    f.pod(e.effective_sessions);
    out.push_back(f.h);
  }
  return out;
}

Reference run_reference(const Workload& wl,
                        const dp::core::QoeEstimator& estimator,
                        const dp::engine::Feed& feed, SpanBuffer* spans) {
  Reference ref;
  const dp::engine::EngineConfig ecfg = engine_config(wl);
  dp::alert::AlertPipeline pipeline(pipeline_config());
  pipeline.bind(1);
  bool draining = false;
  dp::core::StreamingMonitor monitor(
      dp::core::StreamingMonitor::ViewSinkTag{}, estimator,
      [&](const dp::core::MonitoredSessionView& s) {
        pipeline.on_session(0, s, draining);
        ref.out.sessions.push_back(session_hash(s));
      },
      ecfg.monitor);
  if (wl.provisional_every > 0) {
    monitor.set_provisional_callback(
        [&](const dp::core::ProvisionalEstimate& e) {
          pipeline.on_provisional(0, e);
          ref.out.provisionals.push_back(provisional_hash(e));
        });
  }
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span(spans, SpanName::kReferenceObserve);
    span.set_calls(static_cast<std::uint32_t>(feed.size()));
    // The engine's watermark schedule: a broadcast before the first record
    // and whenever feed time has moved one interval past the last one.
    double last_watermark_s = 0.0;
    bool saw_record = false;
    for (const auto& r : feed) {
      if (!saw_record ||
          r.txn.start_s - last_watermark_s >= ecfg.watermark_interval_s) {
        last_watermark_s = r.txn.start_s;
        saw_record = true;
        monitor.advance_time(last_watermark_s);
        pipeline.on_watermark(0, last_watermark_s);
      }
      monitor.observe(r.client, r.txn);
    }
    draining = true;
    monitor.finish();
    pipeline.on_finish();
  }
  ref.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  std::sort(ref.out.sessions.begin(), ref.out.sessions.end());
  std::sort(ref.out.provisionals.begin(), ref.out.provisionals.end());
  ref.out.alerts = alert_hashes(pipeline.log_snapshot());
  return ref;
}

namespace {

/// Elements of one sorted multiset that the other lacks, whichever side
/// has more: a differing verdict counts once, a missing one once.
std::uint64_t multiset_mismatch(const std::vector<std::uint64_t>& a,
                                const std::vector<std::uint64_t>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint64_t only_a = 0;
  std::uint64_t only_b = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++only_a;
      ++i;
    } else {
      ++only_b;
      ++j;
    }
  }
  only_a += a.size() - i;
  only_b += b.size() - j;
  return std::max(only_a, only_b);
}

std::uint64_t sequence_mismatch(const std::vector<std::uint64_t>& a,
                                const std::vector<std::uint64_t>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::uint64_t diff = std::max(a.size(), b.size()) - n;
  for (std::size_t i = 0; i < n; ++i) diff += a[i] != b[i] ? 1 : 0;
  return diff;
}

}  // namespace

Check check_outputs(const Outputs& got, const Outputs& want,
                    std::uint64_t records, std::uint64_t records_shed) {
  Check c;
  c.attempted = records + want.sessions.size() + want.provisionals.size() +
                want.alerts.size();
  c.failed = records_shed + multiset_mismatch(got.sessions, want.sessions) +
             multiset_mismatch(got.provisionals, want.provisionals) +
             sequence_mismatch(got.alerts, want.alerts);
  return c;
}

void replay_core(const Workload& wl, const dp::core::QoeEstimator& estimator,
                 const dp::engine::Feed& feed, SpanBuffer& spans) {
  const dp::core::MonitorConfig mcfg = engine_config(wl).monitor;
  // Each client's records in feed order, clients in order of first record.
  std::vector<std::string_view> order;
  std::unordered_map<std::string_view, std::vector<std::uint32_t>> by_client;
  for (std::size_t i = 0; i < feed.size(); ++i) {
    auto [it, fresh] = by_client.try_emplace(feed[i].client);
    if (fresh) order.push_back(feed[i].client);
    it->second.push_back(static_cast<std::uint32_t>(i));
  }

  dp::util::StringPool snis;
  std::vector<dp::core::TlsRecord> recs;
  std::vector<dp::core::TlsRecord> window;
  std::vector<std::size_t> ends;
  dp::core::IncrementalBoundaryScan scan;
  dp::core::TlsFeatureAccumulator acc = estimator.make_accumulator();
  std::vector<double> features(estimator.feature_count());
  std::vector<double> proba(static_cast<std::size_t>(dp::core::kNumQoeClasses));
  const std::size_t every = wl.provisional_every;

  for (const std::string_view client : order) {
    recs.clear();
    for (const std::uint32_t i : by_client[client]) {
      recs.push_back(dp::core::to_tls_record(feed[i].txn, snis));
    }
    const std::uint64_t key = dp::util::well_mixed_hash(client);
    ScopedSpan client_span(&spans, SpanName::kReplayClient, key);

    // Session delimitation as the monitor runs it: idle gaps and the
    // incremental burst + fresh-server scan over the pending window.
    ends.clear();
    window.clear();
    scan.reset();
    {
      ScopedSpan span(&spans, SpanName::kBoundaryScan, key);
      span.set_calls(static_cast<std::uint32_t>(recs.size()));
      std::size_t window_begin = 0;
      for (std::size_t i = 0; i < recs.size(); ++i) {
        if (!window.empty() && recs[i].start_s - recs[i - 1].start_s >
                                   mcfg.client_idle_timeout_s) {
          ends.push_back(i);
          window.clear();
          scan.reset();
          window_begin = i;
        }
        window.push_back(recs[i]);
        const std::size_t k = scan.on_append(window, mcfg.session_id);
        if (k != 0) {
          ends.push_back(window_begin + k);
          window.erase(window.begin(),
                       window.begin() + static_cast<std::ptrdiff_t>(k));
          window_begin += k;
          scan.rebuild(window, mcfg.session_id);
        }
      }
    }
    ends.push_back(recs.size());

    // Per session: fold records, snapshot + predict at every in-flight
    // estimate point and at the session's end.
    std::size_t begin = 0;
    for (const std::size_t end : ends) {
      acc.reset();
      std::size_t i = begin;
      while (i < end) {
        std::size_t stop = end;
        if (every > 0) {
          std::size_t next = ((i - begin) / every + 1) * every;
          while (next < mcfg.min_transactions) next += every;
          stop = std::min(end, begin + next);
        }
        {
          ScopedSpan span(&spans, SpanName::kAccumulatorObserve, key);
          span.set_calls(static_cast<std::uint32_t>(stop - i));
          for (; i < stop; ++i) {
            const auto& r = recs[i];
            acc.observe(r.start_s, r.end_s, r.ul_bytes, r.dl_bytes);
          }
        }
        const std::size_t len = i - begin;
        const bool in_flight = every > 0 && len % every == 0 && i < end;
        const bool closing = i == end;
        if (len >= mcfg.min_transactions && (in_flight || closing)) {
          {
            ScopedSpan span(&spans, SpanName::kSnapshot, key);
            acc.snapshot_into(features);
          }
          ScopedSpan span(&spans, SpanName::kPredict, key);
          estimator.predict_into(features, proba);
        }
      }
      begin = end;
    }
  }
}

}  // namespace perfbench
