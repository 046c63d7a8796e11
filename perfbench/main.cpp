// End-to-end and per-layer benchmark of the online executor and the offline
// planner. Usage (normally through run.py, which builds this first):
//
//   lobster_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--git-sha <sha>] [--src-sha <sha>]
//
// Workloads: warm_drain, lobster_online, pytorch_online, plan_des (see
// README.md). --trace 0 prints the end-to-end metrics, measured with
// tracing off; --trace 1 prints the per-layer metrics from a run that
// alternates traced and untraced passes. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/logging.hpp"
#include "telemetry/telemetry.hpp"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; run.py checks that they agree.
constexpr MetricSpec kEndToEnd[] = {
    {"samples_per_s", "1/s"},      {"iter_p50_ms", "ms"},    {"cpu_ms_per_ksample", "ms"},
    {"setup_s", "s"},              {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"executor.enqueue_us", "us"},
    {"executor.drain_us", "us"},
    {"executor.preproc_us", "us"},
    {"executor.maintenance_us", "us"},
    {"executor.other_us", "us"},
    {"executor.iter_p99_ms", "ms"},
    {"executor.iter_p99_samples", "count"},
    {"executor.local_hits", "count"},
    {"executor.remote_fetches", "count"},
    {"executor.pfs_fetches", "count"},
    {"executor.prefetch_requests", "count"},
    {"executor.spilled_requests", "count"},
    {"executor.degraded_fetches", "count"},
    {"executor.demand_pfs_frac", "ratio"},
    {"executor.demand_pfs_range", "ratio"},
    {"executor.virtual_s", "s"},
    {"payload.materialize_ns_per_kb", "ns/KiB"},
    {"payload.verify_ns_per_kb", "ns/KiB"},
    {"arena.tls_hits", "count"},
    {"arena.pool_hits", "count"},
    {"arena.fresh_allocs", "count"},
    {"dm.serve_lookups", "count"},
    {"dm.serve_lookup_ns", "ns"},
    {"dm.serve_hit_ratio", "ratio"},
    {"dm.retries", "count"},
    {"dm.timeouts", "count"},
    {"comm.slow_path_sends", "count"},
    {"sampler.minibatch_us", "us"},
    {"directory.peer_holder_ns", "ns"},
    {"planner.plan_s", "s"},
    {"pipeline.construct_s", "s"},
    {"sim.replay_us_per_iter", "us"},
    {"pipeline.other_us_per_iter", "us"},
    {"sim.events_fired", "count"},
    {"pipeline.hit_ratio", "ratio"},
    {"pipeline.imbalanced_fraction", "ratio"},
    {"pipeline.virtual_samples_per_s", "1/s"},
    {"telemetry.trace_overhead_frac", "ratio"},
    {"telemetry.ledger_gap_frac", "ratio"},
    {"check.failed_frac", "ratio"},
    {"host.peak_threads", "count"},
};

std::span<const MetricSpec> metric_table(bool trace) {
  if (trace) return kPerLayer;
  return kEndToEnd;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: lobster_perfbench --workload <warm_drain|lobster_online|"
               "pytorch_online|plan_des> --seed <n> --seconds <s> --trace <0|1> "
               "[--git-sha <sha>] [--src-sha <sha>]\n",
               message);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--git-sha") {
        options.git_sha = value;
      } else if (flag == "--src-sha") {
        options.src_sha = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

void print_fingerprint(const perfbench::Options& options) {
  std::printf("host: {\"nproc\": %u, \"compiler\": \"g++ %s\", \"build_type\": \"%s\", "
              "\"git_sha\": \"%s\", \"src_sha256\": \"%s\", \"peak_threads\": %u}\n",
              std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
              options.git_sha.c_str(), options.src_sha.c_str(), perfbench::peak_threads());
}

void print_result(const perfbench::Result& result, bool trace) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : metric_table(trace)) {
    const auto it = result.metrics.values.find(spec.name);
    if (it == result.metrics.values.end()) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second.value);
    json += first ? "" : ", ";
    first = false;
    json += std::string("\"") + spec.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            it->second.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  lobster::log::set_level(lobster::log::Level::kWarn);
  perfbench::sample_thread_count();

  // Traced runs keep spans in per-thread rings that live as long as the
  // process, and the executor starts new pool threads on every run(); a
  // ring of 2048 records holds one pass of an online node thread's spans.
  if (options.trace) lobster::telemetry::Tracer::instance().set_buffer_capacity(2048);

  perfbench::Result result;
  try {
    if (options.workload == "warm_drain") {
      perfbench::run_warm_drain(options, result);
    } else if (options.workload == "lobster_online") {
      perfbench::run_online(options, /*lobster_plan=*/true, result);
    } else if (options.workload == "pytorch_online") {
      perfbench::run_online(options, /*lobster_plan=*/false, result);
    } else if (options.workload == "plan_des") {
      perfbench::run_plan_des(options, result);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  perfbench::sample_thread_count();
  result.metrics.set("host.peak_threads", perfbench::peak_threads(), "count");

  // A layer the workload bypasses does no work: its metrics read 0.
  std::string bypassed;
  for (const auto& spec : metric_table(options.trace)) {
    if (result.metrics.values.count(spec.name) > 0) continue;
    if (!options.trace) {
      std::fprintf(stderr, "error: end-to-end metric %s not measured\n", spec.name);
      return 1;
    }
    result.metrics.set(spec.name, 0.0, spec.unit);
    bypassed += std::string(" ") + spec.name;
  }
  if (!bypassed.empty()) {
    std::printf("layers bypassed by %s (0):%s\n", options.workload.c_str(), bypassed.c_str());
  }
  print_fingerprint(options);
  std::fflush(stdout);
  print_result(result, options.trace);
  return result.correct ? 0 : 1;
}
