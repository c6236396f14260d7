// Tests of the benchmark's own helpers: sample summaries, self time over a
// span tree, seeded input generation, and due-time open-loop latency.

#include <gtest/gtest.h>

#include <cstring>

#include "bench.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "spans.hpp"
#include "stats.hpp"

using namespace perfbench;

TEST(Summary, MedianAndP90InterpolateLinearly) {
  const std::vector<double> xs = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.p50, 5.5);
  EXPECT_DOUBLE_EQ(s.p90, 9.1);
  EXPECT_EQ(s.n, 10u);
  EXPECT_EQ(summarize(std::vector<double>{}).n, 0u);
  EXPECT_DOUBLE_EQ(median_of(std::vector<double>{}), 0.0);
}

// root [0, 100) with children a [10, 30) and b [50, 90); a has a child
// [15, 25). Self: root 100-20-40 = 40, a 20-10 = 10, b 40, grandchild 10.
TEST(SelfTime, FakeClockSpanTree) {
  vedliot::obs::FakeClock clock;
  vedliot::obs::Tracer tracer(&clock);
  {
    auto root = tracer.span("root", "driver");
    clock.advance_ns(10);
    {
      auto a = tracer.span("a", "serve");
      clock.advance_ns(5);
      {
        auto g = tracer.span("g", "runtime");
        clock.advance_ns(10);
      }
      clock.advance_ns(5);
    }
    clock.advance_ns(20);
    {
      auto b = tracer.span("b", "runtime");
      clock.advance_ns(40);
    }
    clock.advance_ns(10);
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  EXPECT_EQ(self, (std::vector<std::uint64_t>{40, 10, 10, 40}));

  const auto by_cat = self_ms_by_category(spans);
  EXPECT_DOUBLE_EQ(by_cat.at("driver"), 40e-6);
  EXPECT_DOUBLE_EQ(by_cat.at("serve"), 10e-6);
  EXPECT_DOUBLE_EQ(by_cat.at("runtime"), 50e-6);
  std::uint64_t total = 0;
  for (std::uint64_t s : self) total += s;
  EXPECT_EQ(total, spans[0].end_ns - spans[0].start_ns);  // self times tile the root
}

TEST(SelfTime, OverlappingChildrenCountOnceAndClipToParent) {
  SpanLog log;
  const std::size_t root = log.add("root", "x", 100, 200);
  log.add("c1", "x", 110, 150, root);
  log.add("c2", "x", 140, 170, root);  // overlaps c1 by 10
  log.add("c3", "x", 190, 230, root);  // runs past the parent's end
  const std::vector<std::uint64_t> self = self_times_ns(log.spans());
  EXPECT_EQ(self[0], 100u - 60u - 10u);
  EXPECT_EQ(self[1], 40u);
  EXPECT_EQ(self[3], 40u);
}

TEST(SpanLog, AppendRebasesParents) {
  SpanLog a;
  a.add("r", "x", 0, 10);
  SpanLog b;
  const std::size_t r = b.add("r2", "y", 0, 5);
  b.add("c", "y", 1, 2, r);
  a.append(b.spans());
  EXPECT_EQ(a.spans()[2].parent, 1u);
  EXPECT_EQ(a.spans()[2].depth, 1u);
}

namespace {

std::string request_bytes(const std::vector<vedliot::serve::Request>& rs) {
  std::string out;
  for (const auto& r : rs) {
    out += r.client + "|" + r.idempotency_key + "|";
    out.append(reinterpret_cast<const char*>(&r.arrival_s), sizeof(r.arrival_s));
    out.append(reinterpret_cast<const char*>(&r.deadline_s), sizeof(r.deadline_s));
    out.append(reinterpret_cast<const char*>(&r.batch), sizeof(r.batch));
    out.append(reinterpret_cast<const char*>(&r.payload), sizeof(r.payload));
  }
  return out;
}

bool same_pool(const std::vector<vedliot::Tensor>& a, const std::vector<vedliot::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bitwise_equal(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

TEST(SeededInputs, SameSeedSameBytesOtherSeedDiffers) {
  EXPECT_EQ(request_bytes(stream_traffic(3, 2.0)), request_bytes(stream_traffic(3, 2.0)));
  EXPECT_NE(request_bytes(stream_traffic(3, 2.0)), request_bytes(stream_traffic(4, 2.0)));
  EXPECT_EQ(request_bytes(fleet_traffic(3, 0)), request_bytes(fleet_traffic(3, 0)));
  EXPECT_NE(request_bytes(fleet_traffic(3, 0)), request_bytes(fleet_traffic(4, 0)));
  EXPECT_NE(request_bytes(fleet_traffic(3, 0)), request_bytes(fleet_traffic(3, 1)));
  EXPECT_TRUE(same_pool(scrub_pool(3), scrub_pool(3)));
  EXPECT_FALSE(same_pool(scrub_pool(3), scrub_pool(4)));
}

// Arrivals at 5, 15 and 25 ms; the loop wakes 1 ms late for the first and
// every batch takes 50 ms. The first is served alone [6, 56); the other two
// queue behind it and share [56, 106). Their latency runs from the due time
// (91 and 81 ms), not from the send at 56 ms (which would read 50 ms).
TEST(OpenLoop, LatencyIsMeasuredFromTheDueTime) {
  double now = 0;
  LoopClock clock{[&] { return now; }, [&](double t) { now = std::max(now, t + 0.001); }};
  const std::vector<Arrival> arrivals = {{0.005, 1}, {0.015, 1}, {0.025, 1}};
  std::vector<std::size_t> widths;
  const OpenLoopResult r = run_open_loop(arrivals, 8, clock, [&](std::span<const std::size_t> g) {
    widths.push_back(g.size());
    now += 0.050;
  });
  ASSERT_EQ(widths, (std::vector<std::size_t>{1, 2}));
  ASSERT_EQ(r.lag_s.size(), 1u);  // one idle wake-up, 1 ms late
  EXPECT_NEAR(r.lag_s[0], 0.001, 1e-12);
  EXPECT_NEAR(r.served[0].latency_s(), 0.051, 1e-12);
  EXPECT_NEAR(r.served[1].latency_s(), 0.091, 1e-12);
  EXPECT_NEAR(r.served[2].latency_s(), 0.081, 1e-12);
  EXPECT_NEAR(r.served[2].queue_wait_s(), 0.031, 1e-12);
  EXPECT_EQ(r.served[1].batch, r.served[2].batch);
}

TEST(OpenLoop, CoalescingStopsAtTheLaneCap) {
  double now = 1.0;  // everything is already due
  LoopClock clock{[&] { return now; }, [&](double t) { now = std::max(now, t); }};
  const std::vector<Arrival> arrivals = {{0, 2}, {0, 1}, {0, 2}, {0, 1}};
  std::vector<std::size_t> widths;
  run_open_loop(arrivals, 4, clock, [&](std::span<const std::size_t> g) {
    widths.push_back(g.size());
    now += 0.01;
  });
  EXPECT_EQ(widths, (std::vector<std::size_t>{2, 2}));  // 2+1 fits, +2 does not; then 2+1
}
