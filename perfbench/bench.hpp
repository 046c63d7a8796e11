// Shared plumbing of the end-to-end benchmark: options, the timed pass loop,
// process measurements, statistics, the output checks and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "baselines/strategies.hpp"
#include "cache/directory.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "pipeline/calibration.hpp"
#include "runtime/executor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_sha = "unknown";
};

double seconds_since(Clock::time_point start);
/// Process user + system CPU seconds so far.
double process_cpu_seconds();
/// Peak resident set size of the process in MiB.
double peak_rss_mb();
/// Current OS thread count of the process; also folded into peak_threads().
std::uint32_t sample_thread_count();
std::uint32_t peak_threads();

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// Prints one per-pass series on a line of its own.
void print_series(const char* name, const std::vector<double>& values);

/// Metric name -> (value, unit).
struct Metrics {
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> values;
  void set(const std::string& name, double value, const std::string& unit) {
    values[name] = Value{value, unit};
  }
};

/// Outcome of one invocation: the result line's four keys.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

/// Output check of one executor pass over every node's report.
/// `expected_demand` is the delivery count the sampler prescribes; DM
/// retries and timeouts count as failures because no workload injects
/// faults.
struct PassCheck {
  std::uint64_t demanded = 0;
  std::uint64_t failed = 0;  ///< lost + duplicate + bad payloads + retries + timeouts
  std::string reason;        ///< first violation, empty when clean
};
PassCheck check_executor_pass(const std::vector<lobster::runtime::ExecutionReport>& reports,
                              std::uint64_t expected_demand, std::uint64_t dm_retries,
                              std::uint64_t dm_timeouts);

/// Runs `setup`, then `pass` until `seconds` of wall time have been spent
/// in passes (at least 6 passes). The argument tells the pass whether it is
/// traced: with `alternate_trace`, odd passes run with tracing armed.
/// `setup` runs 7 times in all, spread evenly over the run so that its
/// samples fall in different episodes of host interference; returns the
/// median set-up time.
double run_timed(double seconds, bool alternate_trace, const std::function<void()>& setup,
                 const std::function<void(bool traced)>& pass);

/// Percentile of passes the end-to-end figures report (0 = the fastest).
/// Other tenants of the host slow a vCPU in episodes of seconds to tens of
/// seconds, by up to 2x, so the median pass of a run swings 10-20% between
/// identical runs. A single-threaded pass needs one quiet vCPU, which every
/// run of tens of seconds finds: its best decile measures the code on an
/// uncontended core. Passes of threads on several vCPUs are rarely quiet on
/// all of them at once, so their best decile is an outlier; their best
/// quartile still skips the slow episodes.
inline constexpr double kSingleThreadPercentile = 10.0;
inline constexpr double kMultiThreadPercentile = 25.0;

/// Sets the end-to-end metrics from per-pass series of untraced passes:
/// samples/s, median iteration time and CPU per 1000 samples, each at
/// `percentile` of passes (counted from the fastest), plus `setup_s` and
/// the process's peak RSS. Prints the series too.
void emit_end_to_end(const std::vector<double>& samples_per_s, const std::vector<double>& iter_ms,
                     const std::vector<double>& cpu_ms_per_ksample, double percentile,
                     double setup_s, Metrics& metrics);

/// Arms the program's Tracer spans (and its metric counters).
void set_tracing(bool on);

/// Wall-clock span time per span name (microseconds) and span counts,
/// collected from the Tracer and reset after each traced pass.
struct SpanTotals {
  std::map<std::string, double> us;
  std::map<std::string, std::uint64_t> count;
  std::uint64_t dropped = 0;  ///< records the rings overwrote
  void collect_and_reset();
};

/// Allowed relative gap between the per-layer span ledger and the measured
/// wall time it should add up to. Span timestamps are whole microseconds, so
/// each span carries up to 1 us of rounding against iterations of ~100 us.
inline constexpr double kLedgerTolerance = 0.05;

// Layer probes: time one public call from outside over the workload's own
// inputs (traced runs only).
struct PayloadProbe {
  double materialize_ns_per_kb = 0.0;  ///< make_sample_payload_shared
  double verify_ns_per_kb = 0.0;       ///< verify_sample_payload
};
PayloadProbe probe_payload(const lobster::data::SampleCatalog& catalog);
double probe_minibatch_us(const lobster::data::EpochSampler& sampler);
double probe_peer_holder_ns(const lobster::cache::CacheDirectory& directory,
                            std::uint32_t samples);
/// Median wall time of constructing the planner's TrainingSimulator.
double probe_construct_s(const lobster::pipeline::ExperimentPreset& preset,
                         const lobster::baselines::LoaderStrategy& strategy);

// Workloads. Each fills `result`; metrics depend on options.trace.
void run_warm_drain(const Options& options, Result& result);
void run_online(const Options& options, bool lobster_plan, Result& result);
void run_plan_des(const Options& options, Result& result);

}  // namespace perfbench
