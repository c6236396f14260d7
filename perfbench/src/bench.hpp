#pragma once
/// \file bench.hpp
/// \brief Shared types of the wall-clock benchmark: run options, the metric
/// catalogue every workload reports against, and the per-run outcome.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;       ///< measured interval of one run
  bool trace = false;        ///< per-layer (traced) run instead of end-to-end
  std::string trace_path;    ///< Chrome trace written here when tracing
  unsigned threads = 1;      ///< intra-op threads (nproc, counting the caller)
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run measured and checked.
struct Outcome {
  std::uint64_t attempted = 0;  ///< requests offered (a traced stream run adds its fleet laps)
  std::uint64_t failed = 0;     ///< exceptions and correctness-gate misses
  std::vector<std::string> gate_failures;  ///< one line per failed gate
  std::map<std::string, Metric> metrics;   ///< end-to-end or per-layer, by mode
  std::vector<std::string> report;         ///< human-readable lines (sample counts, tables)

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void gate(bool ok, const std::string& what, std::uint64_t failed_requests = 1) {
    if (ok) return;
    gate_failures.push_back(what);
    failed += failed_requests;
  }
};

/// One catalogue entry: every run of a mode reports exactly these names, so
/// the trace-1 catalogue is the union over workloads and a layer a workload
/// bypasses reads 0.
struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec>& end_to_end_catalogue();
const std::vector<MetricSpec>& per_layer_catalogue();

/// Op classes whose self time the traced run reports (runtime.op.<Op>_ms):
/// the union of the ops in the deployed ResNet-50 and MobileNetV3 graphs.
const std::vector<std::string_view>& traced_op_classes();

Outcome run_stream(const Options& opt);  ///< resnet50-int8-stream
Outcome run_scrub(const Options& opt);   ///< mnv3-f32-scrub

class SpanLog;
/// The serve::Fleet phase of the stream's traced run: flash-crowd laps for
/// \p seconds, reporting the serve.fleet.* metrics, gating each lap into
/// \p out and logging its phases into \p log.
void measure_fleet(const Options& opt, double seconds, Outcome& out, SpanLog& log);

/// The seeded inputs of each workload; the program under test sees only
/// these. Same seed, same bytes.
std::vector<vedliot::serve::Request> stream_traffic(std::uint64_t seed, double seconds);
std::vector<vedliot::Tensor> scrub_pool(std::uint64_t seed);
std::vector<vedliot::serve::Request> fleet_traffic(std::uint64_t seed, std::uint64_t draw);

/// Bitwise equality of two tensors (shape and every float's bits).
bool bitwise_equal(const vedliot::Tensor& a, const vedliot::Tensor& b);

}  // namespace perfbench
