// perfbench: the Menos end-to-end benchmark.
//
//   perfbench --workload <trunk_compute|gpu_pressure|session_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// Drives an in-process core::Server (or fleet::Fleet) with core::Clients
// from this one process and prints, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics from a
// run whose window is traced whole, and writes its spans to --spans.
// README.md describes the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "trace.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<trunk_compute|gpu_pressure|session_churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  try {
    perfbench::RunResult result;
    if (args.workload == "trunk_compute") {
      perfbench::run_trunk_compute(args, result);
    } else if (args.workload == "gpu_pressure") {
      perfbench::run_gpu_pressure(args, result);
    } else if (args.workload == "session_churn") {
      perfbench::run_session_churn(args, result);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
    if (args.trace) {
      result.mm_gflops = perfbench::measure_mm_gflops();
      if (!args.spans_path.empty() &&
          !perfbench::Tracer::instance().write_csv(args.spans_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.spans_path.c_str());
        return 1;
      }
    }
    perfbench::report(args, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
