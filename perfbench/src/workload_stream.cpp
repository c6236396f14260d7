// resnet50-int8-stream: open-loop Poisson arrivals into one DynamicBatcher
// over the int8 ResNet-50 deployment, served by a single dispatch thread.

#include <algorithm>
#include <chrono>
#include <memory>

#include "bench.hpp"
#include "graph/zoo.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "profile.hpp"
#include "serve/batcher.hpp"
#include "serve/fleet.hpp"
#include "serve/traffic.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace vedliot;

namespace {

constexpr std::int64_t kImage = 64;       // reduced image, as bench_runtime
constexpr std::int64_t kClasses = 10;
constexpr std::int64_t kMaxBatch = 8;
// About a tenth of the dispatcher's capacity on a 4-core AVX2 host (a width-1
// run takes ~15 ms). On a shared host, queueing amplifies every slow spell:
// at 30 req/s the queue ran into backlog and the median moved tenfold between
// identical runs; at 12 req/s one neighbour burst drove p90 past 800 ms and
// the p90 spread up to 29% (IQR over ten runs). At 6 req/s requests rarely
// queue, so p90 is the two-lane service time and spreads like the median.
constexpr double kRateHz = 6.0;
constexpr double kMultiLaneShare = 0.2;
constexpr std::uint64_t kWeightSeed = 7;  // the model is fixed; only requests are seeded
// The arrival schedule is one fixed Poisson draw: across draws of a 20 s
// window the p90 latency spread by half its median, which would swamp any
// change in the program. The run seed picks every request's payload, hence
// every input tensor, and the responses the gate checks.
constexpr std::uint64_t kScheduleSeed = 0x5C4ED;
constexpr std::uint64_t kCalibSeed = 9;
constexpr int kSetups = 3;
constexpr std::size_t kGateSamples = 24;

/// The deployed model and its batcher, with what each setup step cost.
struct Deployment {
  explicit Deployment(Graph g) : graph(std::move(g)) {}
  Graph graph;
  std::unique_ptr<serve::DynamicBatcher> batcher;
  double build_s = 0;
  double fuse_s = 0;
  double calibrate_s = 0;
  double total_s = 0;
};

std::unique_ptr<Deployment> deploy(unsigned threads) {
  const auto t0 = Clock::now();
  auto t = t0;
  auto d = std::make_unique<Deployment>(zoo::resnet50(1, kClasses, kImage));
  Rng wrng(kWeightSeed);
  d->graph.materialize_weights(wrng);
  d->build_s = seconds_since(t);

  t = Clock::now();
  opt::FuseBatchNormPass bn;
  bn.run(d->graph);
  opt::FuseActivationPass act;
  act.run(d->graph);
  d->fuse_s = seconds_since(t);

  t = Clock::now();
  std::vector<Tensor> calib;
  Rng crng(kCalibSeed);
  for (int i = 0; i < 2; ++i) {
    calib.emplace_back(Shape{1, 3, kImage, kImage},
                       crng.normal_vector(static_cast<std::size_t>(3 * kImage * kImage)));
  }
  opt::calibrate_activations(d->graph, calib, Calibration::kMinMax);
  d->calibrate_s = seconds_since(t);

  serve::DynamicBatcher::Config bc;
  bc.max_batch = kMaxBatch;
  bc.quantized = true;
  bc.exec.threads = threads;
  d->batcher = std::make_unique<serve::DynamicBatcher>(d->graph, bc);
  for (std::int64_t w : d->batcher->bucket_widths()) {  // warm-up every bucket
    std::vector<Tensor> lanes(1, Tensor(Shape{w, 3, kImage, kImage}));
    (void)d->batcher->run(lanes);
  }
  d->total_s = seconds_since(t0);
  return d;
}

std::int64_t bucket_of(std::int64_t lanes) {
  std::int64_t w = 1;
  while (w < lanes) w *= 2;
  return w;
}

}  // namespace

std::vector<serve::Request> stream_traffic(std::uint64_t seed, double seconds) {
  serve::TrafficConfig tc;
  tc.pattern = serve::TrafficPattern::kSteady;
  tc.duration_s = seconds;
  tc.base_hz = kRateHz;
  tc.multi_lane_share = kMultiLaneShare;
  tc.seed = kScheduleSeed;
  std::vector<serve::Request> requests = serve::generate_traffic(tc);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = i + 1;
    requests[i].payload = (seed + 1) * 0x9E3779B97F4A7C15ull + i + 1;
  }
  return requests;
}

Outcome run_stream(const Options& opt) {
  Outcome out;

  // Setup, several times; the last deployment serves.
  std::vector<double> setup_s, build_s, fuse_s, calib_s;
  std::unique_ptr<Deployment> dep;
  for (int i = 0; i < kSetups; ++i) {
    dep.reset();
    dep = deploy(opt.threads);
    setup_s.push_back(dep->total_s);
    build_s.push_back(dep->build_s);
    fuse_s.push_back(dep->fuse_s);
    calib_s.push_back(dep->calibrate_s);
  }
  const Graph& graph = dep->graph;
  serve::DynamicBatcher& batcher = *dep->batcher;

  // Offered load: the fixed schedule, with payloads from the seed. A traced
  // run splits its time between the loop, the op profile and the fleet.
  const double loop_s = opt.trace ? opt.seconds / 3 : opt.seconds;
  std::vector<serve::Request> requests = stream_traffic(opt.seed, loop_s);
  std::vector<Arrival> arrivals;
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    arrivals.push_back({requests[i].arrival_s, requests[i].batch});
    inputs.push_back(serve::synthesize_input(graph, opt.seed, requests[i]));
  }
  // Seeded sample of responses kept for the bitwise gate.
  std::vector<bool> sampled(requests.size(), false);
  Rng pick(opt.seed ^ 0x5A3F1Eull);
  for (std::size_t k = 0; k < kGateSamples && !requests.empty(); ++k) {
    sampled[static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(requests.size()) - 1))] = true;
  }
  std::vector<Tensor> kept(requests.size());

  // The loop. Time zero is a little after now, so the first arrivals are
  // not already late when the loop starts. The dispatcher spins until the
  // next arrival is due instead of sleeping: on a shared host, waking a
  // descheduled core made the median latency drift by ~12% between
  // identical runs, against ~5% with the spin.
  const auto epoch = Clock::now() + std::chrono::milliseconds(20);
  LoopClock clock{
      [&] { return seconds_since(epoch); },
      [&](double t) {
        const auto until = epoch + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(t));
        while (Clock::now() < until) {
        }
      }};
  std::map<std::int64_t, std::vector<double>> batch_ms;  // by bucket width
  const std::uint64_t warm_batches = batcher.batches_run();  // setup's warm-up runs
  const std::uint64_t warm_lanes = batcher.lanes_run();
  const std::uint64_t warm_padded = batcher.padded_lanes();
  std::uint64_t failed_requests = 0;
  const OpenLoopResult loop = run_open_loop(
      arrivals, batcher.effective_max_batch(), clock, [&](std::span<const std::size_t> group) {
        std::vector<Tensor> in;
        std::int64_t lanes = 0;
        for (std::size_t i : group) {
          in.push_back(inputs[i]);
          lanes += arrivals[i].lanes;
        }
        const auto t = Clock::now();
        try {
          std::vector<Tensor> y = batcher.run(in);
          batch_ms[bucket_of(lanes)].push_back(ms_between(t, Clock::now()));
          for (std::size_t k = 0; k < group.size(); ++k) {
            if (sampled[group[k]]) kept[group[k]] = std::move(y[k]);
          }
        } catch (const std::exception& e) {
          failed_requests += group.size();
          out.gate(false, std::string("batcher.run threw: ") + e.what(), group.size());
        }
      });
  out.attempted = requests.size();

  // Gate: sampled responses equal singleton runs of the same request.
  std::map<std::int64_t, std::unique_ptr<Graph>> ref_graphs;
  std::map<std::int64_t, std::unique_ptr<runtime::Session>> ref;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!sampled[i] || kept[i].numel() == 0) continue;
    const std::int64_t b = requests[i].batch;
    if (!ref.count(b)) {
      ref_graphs[b] = std::make_unique<Graph>(rebatched(graph, b));
      runtime::RunOptions ro;
      ro.exec.threads = opt.threads;
      ref[b] = runtime::make_quantized_session(*ref_graphs[b], ro);
    }
    out.gate(bitwise_equal(ref[b]->run_single(inputs[i]), kept[i]),
             "request " + std::to_string(i + 1) + ": batched output != singleton output");
  }

  std::vector<double> latency_ms, wait_ms, lag_ms;
  double lanes = 0;
  double end_s = 0;
  for (std::size_t i = 0; i < loop.served.size(); ++i) {
    latency_ms.push_back(loop.served[i].latency_s() * 1e3);
    wait_ms.push_back(loop.served[i].queue_wait_s() * 1e3);
    lanes += static_cast<double>(arrivals[i].lanes);
    end_s = std::max(end_s, loop.served[i].done_s);
  }
  for (double l : loop.lag_s) lag_ms.push_back(l * 1e3);
  const Summary lat = summarize(latency_ms);
  out.report.push_back("requests " + std::to_string(requests.size()) + ", batches " +
                       std::to_string(loop.batches.size()) + ", latency samples " +
                       std::to_string(lat.n) + ", rate " + std::to_string(kRateHz) + " req/s");

  for (const auto& [w, xs] : batch_ms) {
    const Summary b = summarize(xs);
    out.report.push_back("batcher.run width " + std::to_string(w) + ": n " + std::to_string(b.n) +
                         ", p50 " + std::to_string(b.p50) + " ms, p90 " + std::to_string(b.p90) +
                         " ms, max " + std::to_string(*std::max_element(xs.begin(), xs.end())) +
                         " ms");
  }
  if (!opt.trace) {
    out.set("latency_p50_ms", lat.p50, "ms");
    out.set("latency_p90_ms", lat.p90, "ms");
    out.set("throughput_img_s", end_s > 0 ? lanes / end_s : 0, "img/s");
    out.set("setup_s", median_of(setup_s), "s");
    return out;
  }

  // Traced run: the same loop's per-layer split, then a runtime op profile.
  for (const auto& [w, xs] : batch_ms) {
    out.set("serve.batcher.run_ms.w" + std::to_string(w), median_of(xs), "ms");
  }
  const double batches = static_cast<double>(batcher.batches_run() - warm_batches);
  const double real = static_cast<double>(batcher.lanes_run() - warm_lanes);
  const double padded = static_cast<double>(batcher.padded_lanes() - warm_padded);
  out.set("serve.batcher.batches", batches, "count");
  out.set("serve.batcher.lanes_per_batch", real / batches, "lanes");
  out.set("serve.batcher.pad_ratio", padded / (real + padded), "ratio");
  const Summary wait = summarize(wait_ms);
  out.set("serve.queue_wait_ms.p50", wait.p50, "ms");
  out.set("serve.queue_wait_ms.p90", wait.p90, "ms");
  out.set("driver.lag_ms.p90", summarize(lag_ms).p90, "ms");
  out.set("driver.sent", static_cast<double>(requests.size()), "count");
  out.set("driver.succeeded", static_cast<double>(requests.size() - failed_requests), "count");
  out.set("driver.failed", static_cast<double>(failed_requests), "count");
  out.set("graph.build_s", median_of(build_s), "s");
  out.set("opt.fuse_s", median_of(fuse_s), "s");
  out.set("opt.calibrate_s", median_of(calib_s), "s");

  const OpProfile prof = profile_ops(
      graph,
      [](const Graph& g, const runtime::RunOptions& o) {
        return runtime::make_quantized_session(g, o);
      },
      inputs.empty() ? Tensor(Shape{1, 3, kImage, kImage}) : inputs.front().clone(),
      opt.threads, opt.seconds / 3);
  report_profile(prof, out);

  // Spans: one per request (due -> response) with its queue wait and its
  // execution, one per batch linking the requests it carried, the runtime's
  // node spans of the last profiled run, then the fleet's lap phases.
  SpanLog log;
  const auto ns = [&](double s) {
    return steady_ns(epoch) + static_cast<std::uint64_t>(s * 1e9);
  };
  for (std::size_t b = 0; b < loop.batches.size(); ++b) {
    const auto& group = loop.batches[b];
    const Served& first = loop.served[group.front()];
    const std::size_t bs =
        log.add("serve.batch", "serve.batcher", ns(first.start_s), ns(first.done_s));
    std::string ids;
    for (std::size_t i : group) {
      if (!ids.empty()) ids += ',';
      ids += std::to_string(i + 1);
    }
    log.at(bs).attrs.emplace_back("requests", ids);
    log.at(bs).num_attrs.emplace_back("batch", static_cast<double>(b));
    for (std::size_t i : group) {
      const Served& r = loop.served[i];
      const std::size_t rs = log.add("request", "driver", ns(r.due_s), ns(r.done_s));
      log.at(rs).num_attrs.emplace_back("request_id", static_cast<double>(i + 1));
      log.add("serve.queue_wait", "serve.queue", ns(r.due_s), ns(r.start_s), rs);
      const std::size_t es = log.add("serve.execute", "serve.execute", ns(r.start_s),
                                     ns(r.done_s), rs);
      log.at(es).num_attrs.emplace_back("batch", static_cast<double>(b));
    }
  }
  log.append(prof.last_spans);
  measure_fleet(opt, opt.seconds / 3, out, log);
  finish_trace(opt, log, out);
  return out;
}

}  // namespace perfbench
