#include "bench.hpp"

#include <cstring>

namespace perfbench {

bool bitwise_equal(const vedliot::Tensor& a, const vedliot::Tensor& b) {
  return a.shape() == b.shape() && a.numel() == b.numel() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size_bytes()) == 0;
}

const std::vector<std::string_view>& traced_op_classes() {
  static const std::vector<std::string_view> ops = {
      "Conv2d", "Conv2dDepthwise", "Dense",   "BatchNorm", "Relu",
      "HSwish", "HSigmoid",        "Add",     "Mul",       "MaxPool",
      "GlobalAvgPool", "Flatten",  "Softmax", "Identity",  "Other"};
  return ops;
}

const std::vector<MetricSpec>& end_to_end_catalogue() {
  static const std::vector<MetricSpec> specs = {
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"throughput_img_s", "img/s"},
      {"setup_s", "s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_catalogue() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s;
    for (std::string_view op : traced_op_classes()) {
      s.push_back({"runtime.op." + std::string(op) + "_ms", "ms"});
    }
    const std::vector<MetricSpec> rest = {
        {"runtime.op_sum_frac", "ratio"},
        {"runtime.run_ms.p50", "ms"},
        {"runtime.run_ms.p90", "ms"},
        {"runtime.prepare_s", "s"},
        {"runtime.repack_ms", "ms"},
        {"serve.batcher.run_ms.w1", "ms"},
        {"serve.batcher.run_ms.w2", "ms"},
        {"serve.batcher.run_ms.w4", "ms"},
        {"serve.batcher.run_ms.w8", "ms"},
        {"serve.batcher.batches", "count"},
        {"serve.batcher.lanes_per_batch", "lanes"},
        {"serve.batcher.pad_ratio", "ratio"},
        {"serve.queue_wait_ms.p50", "ms"},
        {"serve.queue_wait_ms.p90", "ms"},
        {"serve.traffic.generate_s", "s"},
        {"serve.fleet.construct_s", "s"},
        {"serve.fleet.submit_s", "s"},
        {"serve.fleet.run_s", "s"},
        {"serve.fleet.events_per_s", "1/s"},
        {"serve.fleet.sim_req_per_s", "req/s"},
        {"serve.fleet.sim_goodput", "ratio"},
        {"serve.fleet.offered", "count"},
        {"serve.fleet.batches", "count"},
        {"serve.fleet.lanes", "count"},
        {"serve.fleet.padded_lanes", "count"},
        {"serve.fleet.cache_hits", "count"},
        {"serve.fleet.shed", "count"},
        {"serve.fleet.displaced", "count"},
        {"serve.fleet.scale_ups", "count"},
        {"serve.fleet.scale_downs", "count"},
        {"serve.fleet.max_brownout_level", "count"},
        {"serve.fleet.pad_ratio", "ratio"},
        {"serve.fleet.cache_hit_ratio", "ratio"},
        {"serve.fleet.shed_ratio", "ratio"},
        {"safety.scrub.tick_us.p50", "us"},
        {"safety.scrub.tick_us.p90", "us"},
        {"safety.scrub.detect_requests", "count"},
        {"safety.repairs", "count"},
        {"safety.repair_ms", "ms"},
        {"safety.recovery_ms", "ms"},
        {"safety.corrupt_served", "count"},
        {"graph.build_s", "s"},
        {"graph.materialize_ms", "ms"},
        {"opt.fuse_s", "s"},
        {"opt.calibrate_s", "s"},
        {"obs.trace_overhead_frac", "ratio"},
        {"obs.fleet_trace_overhead_frac", "ratio"},
        {"driver.lag_ms.p90", "ms"},
        {"driver.sent", "count"},
        {"driver.succeeded", "count"},
        {"driver.failed", "count"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

}  // namespace perfbench
