#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include <sys/resource.h>

#include "bench.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

namespace {
std::atomic<std::uint32_t> g_peak_threads{0};
}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto to_s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint32_t sample_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  std::uint32_t threads = 0;
  while (status >> key) {
    if (key == "Threads:") {
      status >> threads;
      break;
    }
  }
  std::uint32_t seen = g_peak_threads.load(std::memory_order_relaxed);
  while (threads > seen && !g_peak_threads.compare_exchange_weak(seen, threads)) {
  }
  return threads;
}

std::uint32_t peak_threads() { return g_peak_threads.load(std::memory_order_relaxed); }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void print_series(const char* name, const std::vector<double>& values) {
  std::printf("pass %s:", name);
  for (const double v : values) std::printf(" %.6g", v);
  std::printf("\n");
}

PassCheck check_executor_pass(const std::vector<lobster::runtime::ExecutionReport>& reports,
                              std::uint64_t expected_demand, std::uint64_t dm_retries,
                              std::uint64_t dm_timeouts) {
  PassCheck check;
  check.demanded = expected_demand;
  std::uint64_t delivered = 0;
  std::uint64_t enqueued = 0;
  for (const auto& report : reports) {
    delivered += report.samples_delivered;
    check.failed += report.lost_deliveries + report.duplicate_deliveries + report.payload_failures;
    for (const auto& iteration : report.iterations) enqueued += iteration.demand_requests;
    if (!report.clean() && check.reason.empty()) check.reason = "report not clean";
  }
  // A delivery missing from the reports' own counters still shows here.
  if (delivered < expected_demand) check.failed += expected_demand - delivered;
  if (delivered != expected_demand && check.reason.empty()) check.reason = "delivered != demanded";
  if (enqueued != expected_demand && check.reason.empty()) check.reason = "enqueued != demanded";
  check.failed += dm_retries + dm_timeouts;
  if (dm_retries + dm_timeouts > 0 && check.reason.empty()) check.reason = "dm retries/timeouts";
  if (!check.reason.empty() && check.failed == 0) check.failed = 1;
  return check;
}

double run_timed(double seconds, bool alternate_trace, const std::function<void()>& setup,
                 const std::function<void(bool traced)>& pass) {
  constexpr int kMinPasses = 6;
  constexpr int kSetupSamples = 7;
  const auto timed_setup = [&setup] {
    const auto start = Clock::now();
    setup();
    return seconds_since(start);
  };
  std::vector<double> setup_times{timed_setup()};
  const double setup_every = seconds / (kSetupSamples - 1);
  double spent = 0.0;
  for (int index = 0; index < kMinPasses || spent < seconds; ++index) {
    const auto start = Clock::now();
    pass(alternate_trace && index % 2 == 1);
    spent += seconds_since(start);
    if (setup_times.size() < kSetupSamples &&
        spent >= setup_every * static_cast<double>(setup_times.size())) {
      setup_times.push_back(timed_setup());
    }
  }
  while (setup_times.size() < kSetupSamples) setup_times.push_back(timed_setup());
  return median(setup_times);
}

void emit_end_to_end(const std::vector<double>& samples_per_s, const std::vector<double>& iter_ms,
                     const std::vector<double>& cpu_ms_per_ksample, double percentile_of_passes,
                     double setup_s, Metrics& metrics) {
  print_series("samples_per_s", samples_per_s);
  print_series("iter_p50_ms", iter_ms);
  print_series("cpu_ms_per_ksample", cpu_ms_per_ksample);
  metrics.set("samples_per_s", percentile(samples_per_s, 100.0 - percentile_of_passes), "1/s");
  metrics.set("iter_p50_ms", percentile(iter_ms, percentile_of_passes), "ms");
  metrics.set("cpu_ms_per_ksample", percentile(cpu_ms_per_ksample, percentile_of_passes), "ms");
  metrics.set("setup_s", setup_s, "s");
  metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

void set_tracing(bool on) { lobster::telemetry::Tracer::instance().set_enabled(on); }

void SpanTotals::collect_and_reset() {
  auto& tracer = lobster::telemetry::Tracer::instance();
  const auto snapshot = tracer.snapshot();
  dropped += snapshot.dropped;
  for (const auto& event : snapshot.events) {
    if (event.phase != lobster::telemetry::Phase::kComplete ||
        event.domain != lobster::telemetry::Domain::kWall) {
      continue;
    }
    const std::string& name = snapshot.names.at(event.name_id);
    us[name] += static_cast<double>(event.dur_us);
    ++count[name];
  }
  tracer.reset();
}

}  // namespace perfbench
