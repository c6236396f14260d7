#include "host.hpp"

#include <sched.h>

#include <cstdio>
#include <thread>

#include "hw/roofline.hpp"
#include "util/cpu.hpp"

namespace perfbench {

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

std::string host_record() {
  using vedliot::util::SimdLevel;
  const SimdLevel level = vedliot::util::resolve_simd_level(SimdLevel::kAuto);
  const vedliot::hw::HostRoofline roof = vedliot::hw::measure_host_roofline(level);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"host\":{\"nproc\":%u,\"hardware_concurrency\":%u,\"simd\":\"%s\","
                "\"roof_f32_gflops\":%.2f,\"roof_s8_gops\":%.2f}}",
                nproc(), std::thread::hardware_concurrency(),
                std::string(vedliot::util::simd_level_name(level)).c_str(), roof.f32_gflops,
                roof.s8_gops);
  return buf;
}

}  // namespace perfbench
