// mnv3-f32-scrub: one closed-loop caller on a MobileNetV3 f32 session while a
// WeightScrubber ticks after every response, seeded single-bit flips land in
// the live weights, and ModelStore::repair heals them.

#include <memory>

#include "bench.hpp"
#include "graph/zoo.hpp"
#include "profile.hpp"
#include "runtime/session.hpp"
#include "safety/model_store.hpp"
#include "safety/robustness.hpp"
#include "safety/scrub.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace vedliot;

namespace {

constexpr std::int64_t kImage = 96;       // reduced image
constexpr std::int64_t kClasses = 10;
constexpr std::uint64_t kWeightSeed = 11; // the model is fixed; inputs and flips are seeded
constexpr std::size_t kPool = 8;          // distinct inputs cycled by the caller
constexpr std::size_t kFlipEvery = 24;    // requests between injected bit flips
constexpr int kSetups = 5;  // set-up takes ~0.5 s; the median of five rides out a slow spell
constexpr int kMaterializeSamples = 3;
const char* const kModel = "mnv3";

/// Live model, its golden store, session, scrubber and golden outputs.
struct Deployment {
  explicit Deployment(Graph g) : live(std::move(g)) {}
  Graph live;
  safety::ModelStore store;
  std::unique_ptr<runtime::Session> session;
  std::unique_ptr<safety::WeightScrubber> scrubber;
  std::vector<Tensor> pool;
  std::vector<Tensor> golden;
  double build_s = 0;
  double total_s = 0;
};

std::unique_ptr<Deployment> deploy(const Options& opt) {
  const auto t0 = Clock::now();
  auto d = std::make_unique<Deployment>(zoo::mobilenet_v3_large(1, kClasses, kImage));
  Rng wrng(kWeightSeed);
  d->live.materialize_weights(wrng);
  d->build_s = seconds_since(t0);
  d->store.install(kModel, d->live);
  runtime::RunOptions ro;
  ro.exec.threads = opt.threads;
  d->session = runtime::make_session(d->live, ro);
  d->scrubber = std::make_unique<safety::WeightScrubber>(d->live);
  d->pool = scrub_pool(opt.seed);
  for (const Tensor& x : d->pool) {
    d->golden.push_back(d->session->run_single(x).clone());  // also warms up
  }
  d->total_s = seconds_since(t0);
  return d;
}

}  // namespace

std::vector<Tensor> scrub_pool(std::uint64_t seed) {
  std::vector<Tensor> pool;
  Rng rng(seed);
  for (std::size_t i = 0; i < kPool; ++i) {
    pool.emplace_back(Shape{1, 3, kImage, kImage},
                      rng.normal_vector(static_cast<std::size_t>(3 * kImage * kImage)));
  }
  return pool;
}

Outcome run_scrub(const Options& opt) {
  Outcome out;
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Deployment> dep;
  for (int i = 0; i < kSetups; ++i) {
    dep.reset();
    dep = deploy(opt);
    setup_s.push_back(dep->total_s);
    build_s.push_back(dep->build_s);
  }
  Deployment& d = *dep;

  Rng fault_rng(opt.seed ^ 0xF11Bull);
  safety::FaultInjector injector(fault_rng);
  const double loop_s = opt.trace ? opt.seconds / 2 : opt.seconds;

  std::vector<double> cycle_ms, run_ms, tick_us, repair_ms, recovery_ms, repack_ms, detect;
  std::size_t corrupt_served = 0;
  std::size_t repairs = 0;
  bool flip_live = false;
  std::size_t flipped_at = 0;
  bool recovering = false;
  Clock::time_point hit_at;
  SpanLog log;

  const auto t_loop = Clock::now();
  std::size_t i = 0;
  for (; seconds_since(t_loop) < loop_s; ++i) {
    if (i % kFlipEvery == kFlipEvery - 1 && !flip_live) {
      injector.flip_weight_bits(d.live, 1);  // the fault is not part of any cycle
      flip_live = true;
      flipped_at = i;
    }
    const std::size_t k = i % kPool;
    const auto t0 = Clock::now();
    Tensor y;
    bool threw = false;
    try {
      y = d.session->run_single(d.pool[k]);
    } catch (const std::exception& e) {
      threw = true;
      out.gate(false, std::string("session.run threw: ") + e.what());
    }
    const auto t_run = Clock::now();
    const bool good = !threw && bitwise_equal(y, d.golden[k]);
    if (!good && !threw) {
      if (flip_live) {
        ++corrupt_served;  // served while a flip was live: counted, not failed
      } else {
        out.gate(false, "request " + std::to_string(i) + ": output != golden with no flip live");
      }
    }
    const auto t_check = Clock::now();
    const double run = ms_between(t0, t_run);
    if (recovering && good) {
      recovery_ms.push_back(ms_between(hit_at, t_check));
      repack_ms.push_back(run);  // first run after a repair repacks; baseline subtracted below
      recovering = false;
    } else {
      run_ms.push_back(run);
    }

    const std::vector<safety::WeightScrubber::Hit> hits = d.scrubber->tick();
    const auto t_tick = Clock::now();
    tick_us.push_back(ms_between(t_check, t_tick) * 1e3);
    Clock::time_point t_repair = t_tick;
    Clock::time_point t_rebase = t_tick;
    if (!hits.empty()) {
      hit_at = t_tick;
      try {
        d.store.repair(kModel, d.live, hits);
      } catch (const std::exception& e) {
        out.gate(false, std::string("repair threw: ") + e.what());
      }
      t_repair = Clock::now();
      d.scrubber->rebaseline();
      t_rebase = Clock::now();
      repair_ms.push_back(ms_between(t_tick, t_repair));
      detect.push_back(static_cast<double>(i - flipped_at));
      flip_live = false;
      recovering = true;
      ++repairs;
    }
    const auto t1 = Clock::now();
    cycle_ms.push_back(ms_between(t0, t1));

    if (opt.trace) {
      const std::size_t rs = log.add("request", "driver", steady_ns(t0), steady_ns(t1));
      log.at(rs).num_attrs.emplace_back("request_id", static_cast<double>(i));
      log.add("runtime.run", "runtime", steady_ns(t0), steady_ns(t_run), rs);
      log.add("check", "driver", steady_ns(t_run), steady_ns(t_check), rs);
      log.add("safety.scrub.tick", "safety", steady_ns(t_check), steady_ns(t_tick), rs);
      if (!hits.empty()) {
        log.add("safety.repair", "safety", steady_ns(t_tick), steady_ns(t_repair), rs);
        log.add("safety.rebaseline", "safety", steady_ns(t_repair), steady_ns(t_rebase), rs);
      }
    }
  }
  const double elapsed = seconds_since(t_loop);
  out.attempted = i;
  out.gate(!flip_live || i - flipped_at <= d.scrubber->ticks_per_sweep(),
           "a flip outlived one scrub sweep undetected", 0);

  const Summary cycle = summarize(cycle_ms);
  out.report.push_back("requests " + std::to_string(i) + ", repairs " + std::to_string(repairs) +
                       ", corrupt served " + std::to_string(corrupt_served) + ", scrub entries " +
                       std::to_string(d.scrubber->entries()) + " (" +
                       std::to_string(d.scrubber->ticks_per_sweep()) + " ticks per sweep)");
  if (!opt.trace) {
    out.set("latency_p50_ms", cycle.p50, "ms");
    out.set("latency_p90_ms", cycle.p90, "ms");
    out.set("throughput_img_s", static_cast<double>(i) / elapsed, "img/s");
    out.set("setup_s", median_of(setup_s), "s");
    out.report.push_back("recovery_ms p50 " + std::to_string(median_of(recovery_ms)) + " over " +
                         std::to_string(recovery_ms.size()) + " repairs");
    return out;
  }

  const Summary run = summarize(run_ms);
  const Summary tick = summarize(tick_us);
  std::vector<double> repack;
  for (double r : repack_ms) repack.push_back(r - run.p50);
  out.set("safety.scrub.tick_us.p50", tick.p50, "us");
  out.set("safety.scrub.tick_us.p90", tick.p90, "us");
  out.set("safety.scrub.detect_requests", median_of(detect), "count");
  out.set("safety.repairs", static_cast<double>(repairs), "count");
  out.set("safety.repair_ms", median_of(repair_ms), "ms");
  out.set("safety.recovery_ms", median_of(recovery_ms), "ms");
  out.set("safety.corrupt_served", static_cast<double>(corrupt_served), "count");
  out.set("runtime.repack_ms", median_of(repack), "ms");
  out.set("graph.build_s", median_of(build_s), "s");
  std::vector<double> materialize_ms;
  for (int m = 0; m < kMaterializeSamples; ++m) {
    const auto t = Clock::now();
    const Graph g = d.store.materialize(kModel);
    materialize_ms.push_back(seconds_since(t) * 1e3);
  }
  out.set("graph.materialize_ms", median_of(materialize_ms), "ms");

  const OpProfile prof = profile_ops(
      d.live,
      [](const Graph& g, const runtime::RunOptions& o) { return runtime::make_session(g, o); },
      d.pool.front(), opt.threads, opt.seconds - seconds_since(t_loop));
  report_profile(prof, out);
  log.append(prof.last_spans);
  finish_trace(opt, log, out);
  return out;
}

}  // namespace perfbench
