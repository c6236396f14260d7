// perfbench: one run of one workload of the wall-clock benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome-trace.json>]
//
// Prints the host record, human-readable detail, then as the last line one
// JSON object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (a layer the
// workload bypasses reads 0). Exits 1 when a correctness gate fails, 2 on a
// usage error.

#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "bench.hpp"
#include "host.hpp"

using namespace perfbench;

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload resnet50-int8-stream|mnv3-f32-scrub"
               " --seed N --seconds S --trace 0|1 [--trace-out PATH]\n";
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("arguments come in --flag value pairs");
  for (const auto& [flag, value] : args) {
    static const std::set<std::string> known = {"--workload", "--seed", "--seconds", "--trace",
                                                "--trace-out"};
    if (!known.count(flag)) return usage("unknown flag " + flag);
  }
  if (!args.count("--workload") || !args.count("--seed") || !args.count("--seconds") ||
      !args.count("--trace")) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  try {
    opt.workload = args["--workload"];
    opt.seed = std::stoull(args["--seed"]);
    opt.seconds = std::stod(args["--seconds"]);
    opt.trace = std::stoi(args["--trace"]) != 0;
  } catch (const std::exception&) {
    return usage("malformed numeric argument");
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  if (args.count("--trace-out")) opt.trace_path = args["--trace-out"];
  opt.threads = nproc();

  using Runner = Outcome (*)(const Options&);
  static const std::map<std::string, Runner> workloads = {
      {"resnet50-int8-stream", run_stream},
      {"mnv3-f32-scrub", run_scrub},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) return usage("unknown workload " + opt.workload);

  std::cout << host_record() << "\n";
  std::cout << "workload " << opt.workload << " seed " << opt.seed << " seconds " << opt.seconds
            << " trace " << opt.trace << " threads " << opt.threads << std::endl;

  Outcome out;
  try {
    out = it->second(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  // Report exactly the catalogue of this mode; a layer the workload did not
  // exercise reads 0. A name outside the catalogue is a benchmark bug.
  const auto& catalogue = opt.trace ? per_layer_catalogue() : end_to_end_catalogue();
  std::map<std::string, Metric> metrics;
  for (const MetricSpec& spec : catalogue) metrics[spec.name] = {0, spec.unit};
  for (const auto& [name, m] : out.metrics) {
    const auto slot = metrics.find(name);
    if (slot == metrics.end() || slot->second.unit != m.unit) {
      std::cerr << "perfbench: metric " << name << " [" << m.unit << "] is not in the catalogue\n";
      return 2;
    }
    slot->second = m;
  }

  for (const std::string& line : out.report) std::cout << line << "\n";
  for (const MetricSpec& spec : catalogue) {
    std::printf("%-34s %16.6f %s\n", spec.name.c_str(), metrics[spec.name].value,
                spec.unit.c_str());
  }
  const double failed_frac =
      out.attempted ? static_cast<double>(out.failed) / static_cast<double>(out.attempted) : 1.0;
  std::printf("%-34s %16.6f ratio (%llu of %llu)\n", "failed_frac", failed_frac,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& g : out.gate_failures) std::cout << "GATE FAILED: " << g << "\n";

  const bool correct = out.gate_failures.empty() && out.failed == 0 && out.attempted > 0;
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : catalogue) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[spec.name].value);
    line += (first ? "" : ", ") + json_string(spec.name) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(spec.unit) + "}";
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
