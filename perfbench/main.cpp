// perfbench: one named workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>]
//   perfbench --selftest
//
// Prints a header line, then (last line) one JSON object with `correct`,
// `attempted`, `failed` and `metrics`. --trace 0 reports the end-to-end
// metrics and traces nothing; --trace 1 reports the per-layer metrics and
// writes the run's spans to <out-dir>/spans-<workload>-<seed>.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "util/logging.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
int run_selftests();
}

namespace {

using namespace perfbench;

std::string quote(const std::string& text) { return mfv::util::Json(text).dump(); }

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += quote(name) + ": {\"value\": " + number(metric.value) +
           ", \"unit\": " + quote(metric.unit) + "}";
  }
  return out + "}";
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <boot-mv60|sweep-k2-wan200|"
               "daemon-mix-wan200|explore-wan4> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--git-sha <sha>]\n       perfbench --selftest\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--selftest") return run_selftests();
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return usage(("bad argument " + key).c_str());
    args[key.substr(2)] = argv[++i];
  }
  static const std::map<std::string, void (*)(Run&)> kWorkloads = {
      {"boot-mv60", run_boot},
      {"sweep-k2-wan200", run_sweep},
      {"daemon-mix-wan200", run_daemon},
      {"explore-wan4", run_explore},
  };
  RunConfig config;
  config.workload = args["workload"];
  auto workload = kWorkloads.find(config.workload);
  if (workload == kWorkloads.end()) return usage("unknown --workload");
  char* end = nullptr;
  config.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (args["seed"].empty() || *end != '\0') return usage("--seed needs an integer");
  config.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (args["seconds"].empty() || *end != '\0' || config.seconds <= 0)
    return usage("--seconds needs a positive number");
  if (args["trace"] != "0" && args["trace"] != "1") return usage("--trace needs 0 or 1");
  config.trace = args["trace"] == "1";
  if (args.count("out-dir")) config.out_dir = args["out-dir"];
  config.nproc = std::max(1u, std::thread::hardware_concurrency());

  // The summary code is cheap to check; a run never reports through a
  // broken summary.
  if (run_selftests() != 0) return 1;
  mfv::util::set_log_level(mfv::util::LogLevel::kWarn);

  std::printf("# header {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"nproc\": %u, \"build_type\": %s, \"compiler\": %s, \"git_sha\": %s}\n",
              quote(config.workload).c_str(), static_cast<unsigned long long>(config.seed),
              number(config.seconds).c_str(), config.trace ? 1 : 0, config.nproc,
              quote(PERFBENCH_BUILD_TYPE).c_str(), quote(PERFBENCH_COMPILER).c_str(),
              quote(args.count("git-sha") ? args["git-sha"] : "unknown").c_str());
  std::fflush(stdout);

  Run run(config);
  workload->second(run);

  for (const std::string& message : run.gate.messages())
    std::fprintf(stderr, "perfbench: check failed: %s\n", message.c_str());
  if (run.tracer != nullptr) {
    std::string path = config.out_dir + "/spans-" + config.workload + "-" +
                       std::to_string(config.seed) + ".json";
    if (std::FILE* file = std::fopen(path.c_str(), "w")) {
      std::string text = run.tracer->to_json().dump();
      std::fwrite(text.data(), 1, text.size(), file);
      std::fclose(file);
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  // The result carries exactly the catalogue's metrics; anything else a
  // workload measured is printed on the `extra` line.
  const std::vector<MetricSpec>& expected = config.trace ? kPerLayerMetrics : kEndToEndMetrics;
  Metrics reported;
  for (const MetricSpec& spec : expected) {
    auto it = run.metrics.find(spec.name);
    if (it == run.metrics.end()) {
      std::fprintf(stderr, "perfbench: workload did not report %s\n", spec.name);
      return 1;
    }
    reported.insert(run.metrics.extract(it));
  }
  run.extra.merge(run.metrics);
  if (!run.extra.empty()) std::printf("# extra %s\n", metrics_json(run.extra).c_str());
  const bool correct = run.gate.failed() == 0 && run.gate.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", run.gate.attempted(), run.gate.failed(),
              metrics_json(reported).c_str());
  return 0;
}
