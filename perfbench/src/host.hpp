#pragma once
/// \file host.hpp
/// \brief The host record every benchmark output carries, so numbers from
/// different machines are never compared silently.

#include <string>

namespace perfbench {

/// CPUs this process may run on (sched_getaffinity; hardware_concurrency
/// as a fallback).
unsigned nproc();

/// One-line JSON: nproc, hardware_concurrency, the resolved SIMD level and
/// the measured f32 / int8 compute roofs of one core.
std::string host_record();

}  // namespace perfbench
