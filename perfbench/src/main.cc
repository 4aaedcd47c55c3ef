// The PayLess benchmark binary. One invocation runs one workload in
// its own process and prints, on stdout: a meta line, the notes (gate
// outcomes, validity checks), one line per metric with its unit and sample
// count, and as the very last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where metrics are the end-to-end ones (--trace 0) or the per-layer ones
// (--trace 1). perfbench/run.py builds this binary and invokes it.
//
//   payless_perfbench --workload whw_cold --seed 1 --seconds 10 --trace 0
//                     [--trace_out spans.jsonl] [--commit <id>]
//                     [--source_digest <sha256>]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (const char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: payless_perfbench --workload "
               "{whw_cold|whw_hot|bind_rtt|bind_fragmented} --seed N "
               "--seconds S --trace {0|1} [--trace_out PATH] [--commit ID] "
               "[--source_digest HEX]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.count("workload") == 0) return Usage();
  RunOptions options;
  options.workload = args["workload"];
  char* end = nullptr;
  options.seed = std::strtoull(args.count("seed") ? args["seed"].c_str() : "1",
                               &end, 10);
  options.seconds = std::strtod(
      args.count("seconds") ? args["seconds"].c_str() : "10", &end);
  options.trace = args.count("trace") > 0 && args["trace"] == "1";
  options.trace_out = args.count("trace_out") ? args["trace_out"] : "";
  if (!(options.seconds > 0.0) || options.seconds > 600.0) return Usage();

  Report report;
  if (options.workload == "whw_cold") {
    RunWhwCold(options, &report);
  } else if (options.workload == "whw_hot") {
    RunWhwHot(options, &report);
  } else if (options.workload == "bind_rtt") {
    RunBindRtt(options, &report);
  } else if (options.workload == "bind_fragmented") {
    RunBindFragmented(options, &report);
  } else {
    return Usage();
  }

  std::printf(
      "# meta {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"nproc\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"git_commit\":\"%s\",\"source_digest\":\"%s\"}\n",
      JsonEscape(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      Number(options.seconds).c_str(), options.trace ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, JsonEscape(args["commit"]).c_str(),
      JsonEscape(args["source_digest"]).c_str());
  for (const std::string& note : report.notes) {
    std::printf("# note %s\n", note.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("# metric %-32s %14.6f %-8s samples=%zu\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(m.name) + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
