#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bench.hpp"
#include "obs/export.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace perfbench {

using vedliot::obs::Span;

std::size_t SpanLog::add(std::string name, std::string category, std::uint64_t start_ns,
                         std::uint64_t end_ns, std::size_t parent) {
  VEDLIOT_CHECK(end_ns >= start_ns, "span ends before it starts");
  VEDLIOT_CHECK(parent == Span::kNoParent || parent < spans_.size(), "unknown parent span");
  Span s;
  s.name = std::move(name);
  s.category = std::move(category);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.depth = parent == Span::kNoParent ? 0 : spans_[parent].depth + 1;
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void SpanLog::append(std::span<const Span> other) {
  const std::size_t base = spans_.size();
  for (const Span& s : other) {
    spans_.push_back(s);
    if (s.parent != Span::kNoParent) spans_.back().parent = s.parent + base;
  }
}

std::vector<std::uint64_t> self_times_ns(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == Span::kNoParent) continue;
    VEDLIOT_CHECK(s.parent < spans.size(), "span parent out of range");
    const Span& p = spans[s.parent];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = 0;
    for (const auto& [lo, hi] : iv) {
      const std::uint64_t from = std::max(lo, cursor);
      if (hi > from) covered += hi - from;
      cursor = std::max(cursor, hi);
    }
    const std::uint64_t dur = spans[i].end_ns > spans[i].start_ns
                                  ? spans[i].end_ns - spans[i].start_ns
                                  : 0;
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

std::map<std::string, double> self_ms_by_category(std::span<const Span> spans) {
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].category] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

std::string self_time_table(const std::map<std::string, double>& self_ms) {
  double total = 0;
  for (const auto& [name, ms] : self_ms) total += ms;
  vedliot::Table t({"layer", "self ms", "share"});
  for (const auto& [name, ms] : self_ms) {
    char a[32];
    char b[32];
    std::snprintf(a, sizeof(a), "%.3f", ms);
    std::snprintf(b, sizeof(b), "%.1f%%", total > 0 ? 100.0 * ms / total : 0.0);
    t.add_row({name, a, b});
  }
  return t.to_string();
}

void finish_trace(const Options& opt, const SpanLog& log, Outcome& out) {
  if (!opt.trace_path.empty()) {
    vedliot::obs::write_chrome_trace(opt.trace_path, log.spans());
    out.report.push_back("chrome trace: " + opt.trace_path + " (" +
                         std::to_string(log.spans().size()) + " spans)");
  }
  out.report.push_back("self time per layer:\n" +
                       self_time_table(self_ms_by_category(log.spans())));
}

}  // namespace perfbench
