#include "profile.hpp"

#include <algorithm>

#include "bench.hpp"
#include "graph/op.hpp"
#include "spans.hpp"

namespace perfbench {

using vedliot::obs::Span;

std::string op_class(const vedliot::Graph& graph, const Span& node_span) {
  std::string cls = node_span.category;
  if (cls == vedliot::op_name(vedliot::OpKind::kConv2d)) {
    const vedliot::NodeId id = graph.find(node_span.name);
    if (id >= 0 && graph.node(id).attrs.get_int_or("groups", 1) > 1) cls = "Conv2dDepthwise";
  }
  const auto& known = traced_op_classes();
  if (std::find(known.begin(), known.end(), cls) == known.end()) cls = "Other";
  return cls;
}

OpProfile profile_ops(const vedliot::Graph& graph, const SessionFactory& make,
                      const vedliot::Tensor& input, unsigned threads, double budget_s,
                      int min_runs) {
  OpProfile out;
  vedliot::runtime::RunOptions plain;
  plain.exec.threads = threads;
  const auto t_prepare = Clock::now();
  auto untraced = make(graph, plain);
  out.prepare_s = seconds_since(t_prepare);

  vedliot::obs::Tracer tracer;
  vedliot::runtime::RunOptions traced_opts = plain;
  traced_opts.trace = &tracer;
  auto traced = make(graph, traced_opts);

  (void)untraced->run_single(input);  // warm-up: packing, arena, scratch
  (void)traced->run_single(input);
  tracer.clear();

  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  std::vector<double> sum_frac;
  std::map<std::string, std::vector<double>> per_class;
  const auto t0 = Clock::now();
  for (int i = 0; i < min_runs || seconds_since(t0) < budget_s; ++i) {
    auto a = Clock::now();
    (void)untraced->run_single(input);
    plain_ms.push_back(seconds_since(a) * 1e3);

    tracer.clear();
    a = Clock::now();
    (void)traced->run_single(input);
    traced_ms.push_back(seconds_since(a) * 1e3);

    const auto spans = tracer.spans();
    const std::vector<std::uint64_t> self = self_times_ns(spans);
    std::map<std::string, double> run_ms;
    double node_ns = 0;
    double run_ns = 0;
    for (std::size_t s = 0; s < spans.size(); ++s) {
      if (spans[s].category == "vedliot.runtime") {
        if (spans[s].depth == 0) run_ns += static_cast<double>(spans[s].end_ns - spans[s].start_ns);
        continue;
      }
      run_ms[op_class(graph, spans[s])] += static_cast<double>(self[s]) / 1e6;
      node_ns += static_cast<double>(self[s]);
    }
    for (std::string_view cls : traced_op_classes()) {
      per_class[std::string(cls)].push_back(run_ms[std::string(cls)]);
    }
    if (run_ns > 0) sum_frac.push_back(node_ns / run_ns);
  }
  out.last_spans.assign(tracer.spans().begin(), tracer.spans().end());
  for (auto& [cls, xs] : per_class) out.op_ms[cls] = median_of(xs);
  out.op_sum_frac = median_of(sum_frac);
  out.untraced_ms = summarize(plain_ms);
  out.traced_ms = summarize(traced_ms);
  return out;
}

void report_profile(const OpProfile& prof, Outcome& out) {
  constexpr double kOpSumTolerance = 0.95;
  for (const auto& [cls, ms] : prof.op_ms) out.set("runtime.op." + cls + "_ms", ms, "ms");
  out.set("runtime.op_sum_frac", prof.op_sum_frac, "ratio");
  out.gate(prof.op_sum_frac >= kOpSumTolerance && prof.op_sum_frac <= 1.0 + 1e-9,
           "op self times cover " + std::to_string(prof.op_sum_frac) +
               " of session.run, outside [" + std::to_string(kOpSumTolerance) + ", 1]",
           0);
  out.set("runtime.run_ms.p50", prof.untraced_ms.p50, "ms");
  out.set("runtime.run_ms.p90", prof.untraced_ms.p90, "ms");
  out.set("runtime.prepare_s", prof.prepare_s, "s");
  out.set("obs.trace_overhead_frac", prof.overhead_frac(), "ratio");
  out.report.push_back("runtime profile: " + std::to_string(prof.untraced_ms.n) +
                       " untraced + " + std::to_string(prof.traced_ms.n) + " traced runs");
}

}  // namespace perfbench
