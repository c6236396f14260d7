#pragma once
/// \file profile.hpp
/// \brief Per-op-class profile of a width-1 session, from the runtime's own
/// node spans (RunOptions::trace), plus the cost of tracing it.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/trace.hpp"
#include "runtime/session.hpp"
#include "stats.hpp"

namespace perfbench {

struct Outcome;

struct OpProfile {
  std::map<std::string, double> op_ms;  ///< per op class: median self ms per run
  double op_sum_frac = 0;   ///< median over runs: summed node self time / session.run span
  Summary untraced_ms;      ///< run_single wall time, tracing off
  Summary traced_ms;        ///< run_single wall time, tracing on
  double prepare_s = 0;     ///< constructing the untraced session
  std::vector<vedliot::obs::Span> last_spans;  ///< spans of the final traced run
  double overhead_frac() const {
    return untraced_ms.p50 > 0 ? (traced_ms.p50 - untraced_ms.p50) / untraced_ms.p50 : 0;
  }
};

/// The op class a node span is reported under: its op name, except that a
/// grouped Conv2d is "Conv2dDepthwise"; op classes outside
/// traced_op_classes() fold into "Other".
std::string op_class(const vedliot::Graph& graph, const vedliot::obs::Span& node_span);

using SessionFactory = std::function<std::unique_ptr<vedliot::runtime::Session>(
    const vedliot::Graph&, const vedliot::runtime::RunOptions&)>;

/// Alternate untraced and traced runs of \p input on two width-1 sessions
/// over \p graph until \p budget_s has passed (at least \p min_runs each).
OpProfile profile_ops(const vedliot::Graph& graph, const SessionFactory& make,
                      const vedliot::Tensor& input, unsigned threads, double budget_s,
                      int min_runs = 5);

/// Report the runtime.* and obs.trace_overhead_frac metrics of \p prof, and
/// gate that the op-class self times cover at least 95% of the traced
/// session.run span (the rest is executor bookkeeping between nodes).
void report_profile(const OpProfile& prof, Outcome& out);

}  // namespace perfbench
