#pragma once
/// \file stats.hpp
/// \brief Sample summaries and the open-loop dispatcher of the benchmark.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A steady-clock instant as span nanoseconds (obs::SteadyClock's epoch).
inline std::uint64_t steady_ns(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count());
}

/// Median and p90 of a sample, with its size. An empty sample reads 0.
struct Summary {
  double p50 = 0;
  double p90 = 0;
  std::size_t n = 0;
};

Summary summarize(std::span<const double> xs);
double median_of(std::span<const double> xs);

/// One request of an open-loop schedule: due time (seconds from loop
/// start) and the batch lanes it occupies.
struct Arrival {
  double due_s = 0;
  std::int64_t lanes = 1;
};

/// When one request was due, dispatched and answered, on the loop's clock.
/// Latency is measured from the due time, so a stall also charges the
/// requests that queued behind it.
struct Served {
  double due_s = 0;
  double start_s = 0;
  double done_s = 0;
  std::size_t batch = 0;  ///< index of the batch that carried it

  double latency_s() const { return done_s - due_s; }
  double queue_wait_s() const { return start_s - due_s; }
};

struct OpenLoopResult {
  std::vector<Served> served;         ///< one per arrival, in arrival order
  std::vector<double> lag_s;          ///< idle wake-ups: how late a due arrival was seen
  std::vector<std::vector<std::size_t>> batches;  ///< arrival indices per batch, FIFO
};

/// The single-threaded open-loop dispatcher: sleeps until the next arrival
/// is due, then coalesces every due arrival FIFO while the lanes fit in
/// max_lanes() and hands the group to serve(). Arrivals must be sorted by
/// due time, each with lanes in [1, max_lanes()].
struct LoopClock {
  std::function<double()> now_s;                 ///< seconds since loop start
  std::function<void(double)> sleep_until_s;
};
OpenLoopResult run_open_loop(std::span<const Arrival> arrivals, std::int64_t max_lanes,
                             const LoopClock& clock,
                             const std::function<void(std::span<const std::size_t>)>& serve);

}  // namespace perfbench
