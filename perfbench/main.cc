// perfbench: the repository benchmark. Usage:
//
//   perfbench --workload {train-stream|serve-open|refresh-live}
//             --seed N --seconds S --trace {0|1} --work-dir DIR
//   perfbench --workload calibrate --work-dir DIR   (serving saturation)
//
// Every run sets up its seeded inputs (three times; setup_s is the median),
// then runs the three phases — train-stream, serve-open, refresh-live — so
// every end-to-end metric is measured on every workload; the named workload
// gets the full --seconds window, the other two 60% of it. --trace 0
// prints the end-to-end metrics, --trace 1 the per-layer split. Both run
// the correctness checks. The last stdout line is the JSON result.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/obs.h"
#include "core/thread_pool.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{train-stream|serve-open|refresh-live|calibrate} --seed N "
               "--seconds S --trace {0|1} --work-dir DIR\n",
               problem.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  const unsigned hw = std::thread::hardware_concurrency();
  o.threads = hw > 0 ? static_cast<int>(hw) : 1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o.seconds > 0.0) ||
          o.seconds > 60.0) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (o.workload != "train-stream" && o.workload != "serve-open" &&
      o.workload != "refresh-live" && o.workload != "calibrate") {
    Usage("unknown workload '" + o.workload + "'");
  }
  if (o.work_dir.empty()) Usage("--work-dir is required");
  return o;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  namespace fs = std::filesystem;
  const Options options = ParseOptions(argc, argv);
  const Budget budget = MakeBudget(options);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  std::printf("fingerprint: {\"nproc\": %d, \"cpu\": \"%s\", \"compiler\": "
              "\"%s\", \"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
              "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"pool\": {\"setup\": %d, \"train-stream\": %d, "
              "\"serve-open\": 1, \"refresh-live\": 1}, \"engines\": %d, "
              "\"prefetch\": %d}\n",
              options.threads, CpuModel().c_str(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, std::max(1, options.threads - 1),
              std::max(1, options.threads - 1), kEngines, kPrefetchDepth);

  std::error_code ec;
  fs::remove_all(options.work_dir, ec);
  dcmt::obs::SetEnabled(false);
  dcmt::core::ThreadPool::Global().SetNumThreads(std::max(1, options.threads - 1));

  // Set up several times; keep the last. setup_s is the median.
  std::vector<double> setup_s;
  Inputs inputs;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (k > 0) fs::remove_all(inputs.dir, ec);
    const auto t0 = Clock::now();
    inputs = Setup(options, budget,
                   options.work_dir + "/setup" + std::to_string(k));
    setup_s.push_back(SecondsSince(t0));
  }
  std::printf("setup: %d repeats, median %.4f s\n", kSetupRepeats,
              Median(setup_s));

  if (options.workload == "calibrate") {
    for (double offered : {100e3, 150e3, 200e3, 250e3, 300e3, 400e3}) {
      const double rps = MeasureSaturationRps(inputs, offered, 2.0);
      std::printf("calibrate: goodput %.0f/s (kSaturationRps is %.0f)\n",
                  rps, kSaturationRps);
    }
    fs::remove_all(options.work_dir, ec);
    return 0;
  }

  Report report;
  RunTrainPhase(options, budget, inputs, &report);
  RunServePhase(options, budget, inputs, &report);
  RunRefreshPhase(options, budget, inputs, &report);
  dcmt::obs::SetEnabled(false);
  if (!options.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  report.PrintTable(options.trace ? "per-layer metrics (traced run)"
                                  : "end-to-end metrics (untraced run)");
  fs::remove_all(options.work_dir, ec);
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
