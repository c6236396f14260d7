#pragma once
/// \file spans.hpp
/// \brief The benchmark's own span log and the self-time analysis over it.
///
/// obs::Tracer stamps spans as they open and close, which cannot express an
/// open-loop request whose span starts at its due time, before the
/// dispatcher sees it. SpanLog therefore records obs::Span values with
/// explicit times; the result exports through obs::write_chrome_trace like
/// any tracer's spans.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct Options;
struct Outcome;

class SpanLog {
 public:
  /// Append a span; \p parent is an index returned by an earlier add().
  /// Returns the new span's index.
  std::size_t add(std::string name, std::string category, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::size_t parent = vedliot::obs::Span::kNoParent);

  vedliot::obs::Span& at(std::size_t index) { return spans_.at(index); }

  /// Append every span of \p other, re-basing its parent links.
  void append(std::span<const vedliot::obs::Span> other);

  std::span<const vedliot::obs::Span> spans() const { return spans_; }

 private:
  std::vector<vedliot::obs::Span> spans_;
};

/// Self time of each span in ns: its duration minus the part of its
/// interval that its direct children cover (overlapping children count
/// once, and child time outside the parent is ignored).
std::vector<std::uint64_t> self_times_ns(std::span<const vedliot::obs::Span> spans);

/// Self time summed per span category, in ms.
std::map<std::string, double> self_ms_by_category(std::span<const vedliot::obs::Span> spans);

/// "layer | self ms | share" table over a self-time map.
std::string self_time_table(const std::map<std::string, double>& self_ms);

/// End of a traced run: write \p log as a Chrome trace to opt.trace_path
/// (when set) and add the per-category self-time table to the report.
void finish_trace(const Options& opt, const SpanLog& log, Outcome& out);

}  // namespace perfbench
