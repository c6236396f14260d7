#include "stats.hpp"

#include "util/error.hpp"
#include "util/stats.hpp"

namespace perfbench {

Summary summarize(std::span<const double> xs) {
  if (xs.empty()) return {};
  return {vedliot::stats::percentile(xs, 50.0), vedliot::stats::percentile(xs, 90.0), xs.size()};
}

double median_of(std::span<const double> xs) { return xs.empty() ? 0.0 : vedliot::stats::median(xs); }

OpenLoopResult run_open_loop(std::span<const Arrival> arrivals, std::int64_t max_lanes,
                             const LoopClock& clock,
                             const std::function<void(std::span<const std::size_t>)>& serve) {
  VEDLIOT_CHECK(max_lanes >= 1, "open loop needs a positive batch cap");
  OpenLoopResult out;
  out.served.resize(arrivals.size());
  std::size_t next = 0;
  while (next < arrivals.size()) {
    double now = clock.now_s();
    if (arrivals[next].due_s > now) {
      // Idle: nothing is due. Wake for the next arrival; the overshoot is
      // the generator's lateness, not queueing.
      clock.sleep_until_s(arrivals[next].due_s);
      now = clock.now_s();
      out.lag_s.push_back(now - arrivals[next].due_s);
    }
    std::vector<std::size_t> group;
    std::int64_t lanes = 0;
    while (next < arrivals.size() && arrivals[next].due_s <= now &&
           lanes + arrivals[next].lanes <= max_lanes) {
      VEDLIOT_CHECK(arrivals[next].lanes >= 1, "arrival with no lanes");
      lanes += arrivals[next].lanes;
      group.push_back(next++);
    }
    VEDLIOT_CHECK(!group.empty(), "arrival wider than the batch cap");
    const std::size_t batch = out.batches.size();
    for (std::size_t i : group) {
      out.served[i].due_s = arrivals[i].due_s;
      out.served[i].start_s = now;
      out.served[i].batch = batch;
    }
    serve(group);
    const double done = clock.now_s();
    for (std::size_t i : group) out.served[i].done_s = done;
    out.batches.push_back(std::move(group));
  }
  return out;
}

}  // namespace perfbench
