// perfbench: the repo benchmark's binary (perfbench/README.md).
//
//   perfbench --workload long_serial|short_batched|fleet_open --seed N
//             --seconds S --trace 0|1 --bin-dir DIR --out-dir DIR
//             [--plant-bad-hash]
//
// Prints a report line ({"report": {...}}: host, inputs, trace files)
// and, last, the result line {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.  Exit status 0 when every result matched
// the reference, 1 on a wrong result or a run that could not finish,
// 2 on bad arguments.  --plant-bad-hash corrupts one reference hash,
// so the run must fail (the smoke test's negative check).
#include <sys/stat.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "cdg/simd.h"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload long_serial|short_batched|"
               "fleet_open --seed N --seconds S --trace 0|1 --bin-dir DIR "
               "--out-dir DIR [--plant-bad-hash]\n";
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

JsonValue host_block() {
  const char* simd_env = std::getenv("PARSEC_SIMD");
  return JsonValue::make_object({
      {"cpu_model", JsonValue::make_string(cpu_model())},
      {"nproc", JsonValue::make_number(std::thread::hardware_concurrency())},
      {"simd_tier", JsonValue::make_string(parsec::cdg::simd::tier_name(
                        parsec::cdg::simd::active_tier()))},
      {"PARSEC_SIMD", JsonValue::make_string(simd_env ? simd_env : "")},
      {"build_type", JsonValue::make_string(PERFBENCH_BUILD_TYPE)},
  });
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value");
        return argv[++i];
      };
      if (arg == "--workload")
        args.workload = next();
      else if (arg == "--seed")
        args.seed = std::stoull(next());
      else if (arg == "--seconds")
        args.seconds = std::stod(next());
      else if (arg == "--trace")
        args.trace = std::stoi(next()) != 0;
      else if (arg == "--bin-dir")
        args.bin_dir = next();
      else if (arg == "--out-dir")
        args.out_dir = next();
      else if (arg == "--plant-bad-hash")
        args.plant_bad_hash = true;
      else
        return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (args.seconds <= 0.0 || args.bin_dir.empty() || args.out_dir.empty())
    return usage();
  ::mkdir(args.out_dir.c_str(), 0755);

  Result r;
  try {
    if (args.workload == "long_serial")
      r = run_long_serial(args);
    else if (args.workload == "short_batched")
      r = run_short_batched(args);
    else if (args.workload == "fleet_open")
      r = run_fleet_open(args);
    else
      return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (r.attempted == 0) {
    std::cerr << "perfbench: " << args.workload << ": nothing was attempted\n";
    return 1;
  }

  r.report["host"] = host_block();
  r.report["workload"] = JsonValue::make_string(args.workload);
  r.report["seed"] = JsonValue::make_number(static_cast<double>(args.seed));
  r.report["hash_mismatches"] =
      JsonValue::make_number(static_cast<double>(r.mismatches));
  const std::string report = parsec::analyze::to_json(JsonValue::make_object(
      {{"report", JsonValue::make_object(r.report)}}));
  std::ofstream(args.out_dir + "/report.json") << report << "\n";

  std::map<std::string, JsonValue> metrics;
  for (const auto& [name, m] : r.metrics)
    metrics[name] = JsonValue::make_object(
        {{"value", JsonValue::make_number(m.value)},
         {"unit", JsonValue::make_string(m.unit)}});
  std::cout << report << "\n"
            << parsec::analyze::to_json(JsonValue::make_object({
                   {"correct", JsonValue::make_bool(r.correct)},
                   {"attempted", JsonValue::make_number(
                                     static_cast<double>(r.attempted))},
                   {"failed",
                    JsonValue::make_number(static_cast<double>(r.failed))},
                   {"metrics", JsonValue::make_object(std::move(metrics))},
               }))
            << std::endl;
  return r.correct ? 0 : 1;
}
