// perfbench: the repository benchmark for droppkt's serving path.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size tiny] [--out-dir <dir>]
//
// One process: set-up (simulate the Svc1 training set and train the
// estimator, several times), build the workload's proxy feed from the
// seed, a first warm-up engine pass (where memory growth is read), the
// single-threaded reference, then alternating closed-loop (line-rate) and
// open-loop (fixed offered rate) engine passes for --seconds. Every pass
// is checked against the reference. The last stdout line is one JSON
// object: end-to-end metrics with --trace 0, per-layer metrics (from
// spans kept in memory and written to --out-dir) with --trace 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/dataset_builder.hpp"
#include "has/service_profile.hpp"
#include "proc.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupReps = 5;
constexpr std::size_t kFeeds = 4;

/// One of the run's feeds with what its passes are checked against.
struct FeedSet {
  droppkt::engine::Feed feed;
  std::vector<double> starts;  // record start times, feed order
  Reference ref;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--size tiny] [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed must be an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("--seconds must be > 0");
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--size") {
      if (v != "tiny" && v != "full") usage("--size must be tiny or full");
      o.tiny = v == "tiny";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

int run(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Workload wl;
  if (!find_workload(opt.workload, opt.tiny, wl)) {
    usage(("unknown workload " + opt.workload).c_str());
  }
  const HostInfo host = host_info();
  char host_line[1024];
  std::snprintf(
      host_line, sizeof(host_line),
      "{\"seed\": %llu, \"workload\": \"%s\", \"size\": \"%s\", "
      "\"offered_rate_per_s\": %.0f, \"nproc\": %u, \"cpu_model\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"shards\": 2}",
      static_cast<unsigned long long>(opt.seed), wl.name.c_str(),
      opt.tiny ? "tiny" : "full", wl.offered_rate, host.nproc,
      json_escape(host.cpu_model).c_str(), json_escape(host.compiler).c_str(),
      json_escape(host.build_type).c_str());
  std::printf("host: %s\n", host_line);

  // Set-up, repeated: simulate the training set, fit the estimator.
  SpanBuffer setup_spans("setup");
  SpanBuffer* setup_buf = opt.trace ? &setup_spans : nullptr;
  std::vector<double> simulate_s;
  std::vector<double> fit_s;
  droppkt::core::QoeEstimator estimator;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    droppkt::core::DatasetConfig dcfg;
    dcfg.num_sessions = wl.train_sessions;
    dcfg.seed = opt.seed;
    const std::int64_t t0 = now_ns();
    droppkt::core::LabeledDataset data;
    {
      ScopedSpan span(setup_buf, SpanName::kSetupSimulate);
      data = droppkt::core::build_dataset(droppkt::has::svc1_profile(), dcfg);
    }
    const std::int64_t t1 = now_ns();
    {
      ScopedSpan span(setup_buf, SpanName::kSetupFit);
      estimator.train(data);
    }
    simulate_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    fit_s.push_back(static_cast<double>(now_ns() - t1) / 1e9);
  }

  // Several independent feeds from the one seed, visited in turn: tail
  // latency is set by a few bursts of session ends per feed, so one feed
  // would make the tail a property of that seed's bursts alone.
  std::vector<FeedSet> feeds(kFeeds);
  std::size_t feed_records = 0;
  for (std::size_t k = 0; k < kFeeds; ++k) {
    feeds[k].feed = make_feed(wl, opt.seed, k);
    feeds[k].starts.reserve(feeds[k].feed.size());
    for (const auto& r : feeds[k].feed) {
      feeds[k].starts.push_back(r.txn.start_s);
    }
    feed_records += feeds[k].feed.size();
  }
  std::printf("feeds: %zu x %zu clients, %zu records in all, "
              "provisional_every %zu\n",
              kFeeds, wl.clients, feed_records, wl.provisional_every);
  const auto run_pass = [&](const FeedSet& f, const PassConfig& cfg) {
    return run_engine_pass(wl, estimator, f.feed, f.starts, cfg);
  };

  // The first engine of the process: warm-up, and where memory is read.
  PassResult warm =
      run_pass(feeds[0], {.paced = false, .traced = false, .sample_rss = true});
  const double rss_growth_mb =
      static_cast<double>(warm.rss_peak - warm.rss_before) / 1e6;

  SpanBuffer core_spans("core");
  double reference_s = 0.0;
  for (FeedSet& f : feeds) {
    f.ref = run_reference(wl, estimator, f.feed,
                          opt.trace ? &core_spans : nullptr);
    reference_s += f.ref.seconds;
  }
  if (opt.trace) replay_core(wl, estimator, feeds[0].feed, core_spans);

  Check total;
  std::vector<double> construct_s;
  const auto account = [&](const PassResult& p, const FeedSet& f) {
    const Check c = check_outputs(p.out, f.ref.out, f.feed.size(),
                                  p.stats.records_dropped);
    total.attempted += c.attempted;
    total.failed += c.failed + p.unmatched_verdicts;
    construct_s.push_back(p.construct_s);
  };
  account(warm, feeds[0]);

  // Measurement: alternate line-rate and paced passes for --seconds,
  // visiting the feeds in turn.
  std::vector<double> lr_rps;         // untraced line-rate records/s
  std::vector<double> traced_lr_rps;  // traced line-rate records/s
  // Latency percentiles per paced pass; the run reports their medians,
  // so a pass disturbed by another process moves the result little.
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  std::size_t verdicts = 0;
  std::vector<double> late_ms;
  std::uint64_t lr_cpu_ns = 0;
  std::uint64_t lr_records = 0;
  std::uint64_t runq_ns = 0;
  std::uint64_t shed = warm.stats.records_dropped;
  std::uint64_t tm_dropped = warm.tm_dropped;
  // Traced aggregates.
  SpanTable lr_table;
  SpanTable paced_table;
  std::uint64_t traced_lr_records = 0;
  std::vector<double> lr_batch_ns;  // per-record cost of each ingest call
  std::uint64_t traced_paced_records = 0;
  std::uint64_t traced_paced_calls = 0;
  std::uint64_t traced_predictions = 0;
  std::uint64_t traced_records = 0;
  std::uint64_t traced_paced_passes = 0;
  std::uint64_t wire_bytes = 0;
  PassResult last_paced;
  std::vector<std::unique_ptr<SpanBuffer>> kept;  // first traced passes

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::size_t reps = 0;
  const auto finish_pass = [&](PassResult& p, const FeedSet& f) {
    account(p, f);
    runq_ns += p.runq_ns;
    shed += p.stats.records_dropped;
    tm_dropped += p.tm_dropped;
  };
  while (reps == 0 || now_ns() < deadline) {
    const FeedSet& f = feeds[reps % kFeeds];
    const double records = static_cast<double>(f.feed.size());
    {
      PassResult p = run_pass(f, {});
      finish_pass(p, f);
      lr_rps.push_back(records / p.seconds);
      lr_cpu_ns += p.cpu_ns;
      lr_records += f.feed.size();
    }
    if (opt.trace) {
      PassResult p = run_pass(f, {.paced = false, .traced = true});
      finish_pass(p, f);
      traced_lr_rps.push_back(records / p.seconds);
      traced_lr_records += f.feed.size();
      traced_records += f.feed.size();
      traced_predictions += p.predictions;
      for (const auto& b : p.spans) {
        lr_table.add(*b);
        for (const Span& sp : b->spans()) {
          if (sp.name == SpanName::kIngestBatch) {
            lr_batch_ns.push_back(
                static_cast<double>(sp.end_ns - sp.start_ns) / sp.calls);
          }
        }
      }
      if (reps == 0) {
        for (auto& b : p.spans) kept.push_back(std::move(b));
      }
    }
    PassResult p = run_pass(f, {.paced = true, .traced = opt.trace});
    finish_pass(p, f);
    p50_ms.push_back(percentile(p.latency_ms, 0.50));
    p99_ms.push_back(percentile(p.latency_ms, 0.99));
    verdicts += p.latency_ms.size();
    late_ms.insert(late_ms.end(), p.late_ms.begin(), p.late_ms.end());
    if (opt.trace) {
      traced_paced_records += f.feed.size();
      traced_paced_calls += p.ingest_calls;
      traced_records += f.feed.size();
      traced_predictions += p.predictions;
      ++traced_paced_passes;
      wire_bytes += p.tm_wire_bytes;
      for (const auto& b : p.spans) paced_table.add(*b);
      if (reps == 0) {
        for (auto& b : p.spans) kept.push_back(std::move(b));
      }
    }
    p.spans.clear();
    last_paced = std::move(p);
    ++reps;
  }

  const double setup_s = median(simulate_s) + median(fit_s) +
                         median(construct_s);
  const double failed_share =
      static_cast<double>(total.failed) / static_cast<double>(total.attempted);
  std::size_t ref_sessions = 0;
  std::size_t ref_provisionals = 0;
  std::size_t ref_alerts = 0;
  for (const FeedSet& f : feeds) {
    ref_sessions += f.ref.out.sessions.size();
    ref_provisionals += f.ref.out.provisionals.size();
    ref_alerts += f.ref.out.alerts.size();
  }
  std::printf("reference: %.3f s single-threaded over the feeds (%zu "
              "sessions, %zu provisionals, %zu alert events)\n",
              reference_s, ref_sessions, ref_provisionals, ref_alerts);
  std::printf("passes: %zu line-rate + %zu paced at %.0f records/s; %zu "
              "verdicts timed; generator late p99 %.4f ms\n",
              reps, reps, wl.offered_rate, verdicts,
              percentile(late_ms, 0.99));
  const auto print_series = [](const char* label,
                               const std::vector<double>& v) {
    std::printf("%s:", label);
    for (const double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  print_series("line-rate records/s per pass", lr_rps);
  print_series("verdict p50 ms per paced pass", p50_ms);
  print_series("verdict p99 ms per paced pass", p99_ms);
  print_series("set-up simulate s", simulate_s);
  print_series("set-up fit s", fit_s);
  std::printf("check: %llu of %llu operations failed (failed_share %.6g)\n",
              static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(total.attempted), failed_share);

  std::vector<Metric> e2e = {
      {"records_per_s", median(lr_rps), "1/s"},
      {"verdict_p50_ms", median(p50_ms), "ms"},
      {"verdict_p99_ms", median(p99_ms), "ms"},
      {"rss_growth_mb", rss_growth_mb, "MB"},
      {"setup_s", setup_s, "s"},
      {"ok_share", 1.0 - failed_share, "share"},
  };
  std::printf("end-to-end (medians over passes):\n");
  print_metrics(e2e);
  std::printf("  %-36s %16.6g %s\n", "failed_share", failed_share, "share");

  std::vector<Metric> out = e2e;
  if (opt.trace) {
    SpanTable core_table;
    core_table.add(core_spans);
    std::printf("per-layer span table (traced passes, reference, replay):\n");
    SpanTable all;
    all.add(setup_spans);
    all.add(core_spans);
    for (const auto& b : kept) all.add(*b);
    all.print(stdout);

    const auto& st = last_paced.stats;
    const double ingest_ns =
        paced_table[SpanName::kIngestBatch].total_ns /
        static_cast<double>(std::max<std::uint64_t>(1, traced_paced_records));
    const double lr_ingest_total = lr_table[SpanName::kIngestBatch].total_ns;
    double max_shard = 0.0;
    double sum_shard = 0.0;
    for (const auto& s : st.shards) {
      max_shard = std::max(max_shard, static_cast<double>(s.records));
      sum_shard += static_cast<double>(s.records);
    }
    const double mean_shard =
        sum_shard / static_cast<double>(std::max<std::size_t>(1, st.shards.size()));
    const SpanTotals& prov = paced_table[SpanName::kAlertProvisional];
    const SpanTotals& sess = paced_table[SpanName::kAlertSession];
    const SpanTotals& wm = paced_table[SpanName::kAlertWatermark];
    const SpanTotals& fin = paced_table[SpanName::kAlertFinish];
    const SpanTotals& tick = paced_table[SpanName::kTelemetryTick];
    const SpanTotals& poll = paced_table[SpanName::kTelemetryPoll];
    const double passes = static_cast<double>(traced_paced_passes);
    const auto& ac = last_paced.counts;
    out = {
        {"engine.ingest_ns_per_record", ingest_ns, "ns"},
        // Unstalled cost: the 10th percentile of per-record cost over the
        // line-rate calls (a full mailbox makes a call slower, never faster).
        {"engine.ingest_stall_share",
         1.0 - static_cast<double>(traced_lr_records) *
                   percentile(lr_batch_ns, 0.10) / lr_ingest_total,
         "share"},
        {"engine.finish_s",
         lr_table[SpanName::kFinish].total_ns /
             static_cast<double>(lr_table[SpanName::kFinish].spans) / 1e9,
         "s"},
        {"engine.queue_high_water",
         static_cast<double>(st.max_queue_high_water), "records"},
        {"engine.shard_skew", max_shard / mean_shard, "ratio"},
        {"engine.records_shed", static_cast<double>(shed), "records"},
        {"engine.interned_clients", static_cast<double>(st.interned_clients),
         "count"},
        {"engine.interned_snis", static_cast<double>(st.interned_snis),
         "count"},
        {"core.monitor_ns_per_record",
         reference_s * 1e9 / static_cast<double>(feed_records), "ns"},
        {"core.boundary_scan_ns_per_record",
         core_table[SpanName::kBoundaryScan].ns_per_call(), "ns"},
        {"core.accumulator_observe_ns",
         core_table[SpanName::kAccumulatorObserve].ns_per_call(), "ns"},
        {"core.snapshot_ns", core_table[SpanName::kSnapshot].ns_per_call(),
         "ns"},
        {"core.sessions", static_cast<double>(st.sessions_reported), "count"},
        {"core.clients_evicted", static_cast<double>(st.clients_evicted),
         "count"},
        {"core.noise_dropped", static_cast<double>(st.sessions_noise_dropped),
         "count"},
        {"ml.predict_ns", core_table[SpanName::kPredict].ns_per_call(), "ns"},
        {"ml.predictions_per_record",
         static_cast<double>(traced_predictions) /
             static_cast<double>(std::max<std::uint64_t>(1, traced_records)),
         "ratio"},
        {"ml.fit_s", median(fit_s), "s"},
        {"has.simulate_s", median(simulate_s), "s"},
        {"alert.verdict_hook_ns",
         (prov.total_ns + sess.total_ns) /
             static_cast<double>(std::max<std::uint64_t>(
                 1, prov.calls + sess.calls)),
         "ns"},
        {"alert.on_provisional_calls", static_cast<double>(prov.calls) / passes,
         "count"},
        {"alert.on_session_ns", sess.ns_per_call(), "ns"},
        {"alert.on_session_calls", static_cast<double>(sess.calls) / passes,
         "count"},
        {"alert.on_watermark_ns", wm.ns_per_call(), "ns"},
        {"alert.on_watermark_calls", static_cast<double>(wm.calls) / passes,
         "count"},
        {"alert.on_finish_s", fin.total_ns / passes / 1e9, "s"},
        {"alert.transition_ratio",
         static_cast<double>(ac.transitions) /
             static_cast<double>(
                 std::max<std::uint64_t>(1, ac.transitions + ac.suppressed)),
         "ratio"},
        {"telemetry.tick_ns",
         (tick.total_ns + poll.total_ns) /
             static_cast<double>(std::max<std::uint64_t>(1, tick.calls)),
         "ns"},
        {"telemetry.dropped_intervals", static_cast<double>(tm_dropped),
         "count"},
        {"telemetry.wire_bytes", static_cast<double>(wire_bytes) / passes,
         "bytes"},
        {"proc.cpu_us_per_record",
         static_cast<double>(lr_cpu_ns) / 1e3 /
             static_cast<double>(lr_records),
         "us"},
        {"proc.runq_wait_s", static_cast<double>(runq_ns) / 1e9, "s"},
        {"gen.late_p99_ms", percentile(late_ms, 0.99), "ms"},
        {"gen.batch_mean",
         static_cast<double>(traced_paced_records) /
             static_cast<double>(std::max<std::uint64_t>(1, traced_paced_calls)),
         "records"},
        {"trace.overhead_share", 1.0 - median(traced_lr_rps) / median(lr_rps),
         "share"},
    };
    std::printf("per-layer:\n");
    print_metrics(out);

    std::vector<const SpanBuffer*> bufs = {&setup_spans, &core_spans};
    for (const auto& b : kept) bufs.push_back(b.get());
    const std::string path = opt.out_dir + "/spans-" + wl.name + ".csv";
    if (write_spans(path, host_line, bufs)) {
      std::printf("spans: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  const bool correct = total.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed),
              metrics_json(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
