// Executor workloads: warm_drain (one node, the whole epoch resident) and
// the two-node online runs over a planned Lobster or PyTorch plan.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "baselines/strategies.hpp"
#include "bench.hpp"
#include "cache/directory.hpp"
#include "comm/bus.hpp"
#include "common/payload_arena.hpp"
#include "core/planner.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "pipeline/calibration.hpp"
#include "runtime/distribution_manager.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

using lobster::SampleId;
namespace data = lobster::data;
namespace runtime = lobster::runtime;

namespace {

struct TierCounts {
  double local = 0, remote = 0, pfs = 0, prefetch = 0, spilled = 0, degraded = 0, demand = 0;
};

TierCounts tally(const std::vector<runtime::ExecutionReport>& reports) {
  TierCounts counts;
  for (const auto& report : reports) {
    for (const auto& it : report.iterations) {
      counts.local += it.local_hits;
      counts.remote += it.remote_fetches;
      counts.pfs += it.pfs_fetches;
      counts.prefetch += it.prefetch_requests;
      counts.spilled += it.spilled_requests;
      counts.degraded += it.degraded_fetches;
      counts.demand += it.demand_requests;
    }
  }
  return counts;
}

/// Everything the executor workloads record per pass.
struct PassLog {
  std::vector<double> rate;              ///< untraced passes, samples/s
  std::vector<double> traced_rate;       ///< traced passes, samples/s
  std::vector<double> cpu_ms_per_ksample;  ///< untraced passes
  std::vector<double> iter_p50_ms;       ///< untraced passes, median iteration
  std::vector<double> iter_ms;           ///< every iteration of untraced passes
  std::vector<TierCounts> tiers;         ///< every pass
  std::vector<double> virtual_s;         ///< every pass, max over nodes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  SpanTotals spans;                      ///< traced passes only
  double traced_iter_wall_s = 0.0;       ///< sum of IterationExecution::wall_s, traced
  std::uint64_t traced_iterations = 0;
  std::vector<runtime::ExecutionReport> sample_reports;  ///< one clean pass, for the controls

  void count(const PassCheck& check) {
    attempted += check.demanded;
    failed += check.failed;
    if (!check.reason.empty() && first_failure.empty()) first_failure = check.reason;
  }

  void record(const std::vector<runtime::ExecutionReport>& reports, double wall_s, double cpu_s,
              const PassCheck& check, bool traced) {
    count(check);
    if (check.reason.empty() && sample_reports.empty()) sample_reports = reports;
    double delivered = 0.0;
    double cluster_virtual = 0.0;
    for (const auto& report : reports) {
      delivered += static_cast<double>(report.samples_delivered);
      cluster_virtual = std::max(cluster_virtual, report.virtual_total);
    }
    tiers.push_back(tally(reports));
    virtual_s.push_back(cluster_virtual);
    if (traced) {
      traced_rate.push_back(delivered / wall_s);
      spans.collect_and_reset();
      for (const auto& report : reports) {
        for (const auto& it : report.iterations) traced_iter_wall_s += it.wall_s;
        traced_iterations += report.iterations.size();
      }
      return;
    }
    rate.push_back(delivered / wall_s);
    cpu_ms_per_ksample.push_back(cpu_s * 1e3 / (delivered / 1e3));
    std::vector<double> pass_iter_ms;
    for (const auto& report : reports) {
      for (const auto& it : report.iterations) pass_iter_ms.push_back(it.wall_s * 1e3);
    }
    iter_ms.insert(iter_ms.end(), pass_iter_ms.begin(), pass_iter_ms.end());
    iter_p50_ms.push_back(median(std::move(pass_iter_ms)));
  }
};

/// Per-pass median of one tier field.
double median_of(const std::vector<TierCounts>& tiers, double TierCounts::*field) {
  std::vector<double> values;
  for (const auto& t : tiers) values.push_back(t.*field);
  return median(values);
}

/// The benchmark's own correctness check must be able to fail: a clean pass
/// passes it, and the same pass doctored with one duplicate delivery, with
/// one lost delivery, or with one DM retry does not.
bool controls_trip(const std::vector<runtime::ExecutionReport>& clean, std::uint64_t demand) {
  if (clean.empty()) return false;
  auto duplicate = clean;
  duplicate.front().duplicate_deliveries += 1;
  auto lost = clean;
  lost.front().samples_delivered -= 1;
  return check_executor_pass(clean, demand, 0, 0).failed == 0 &&
         check_executor_pass(duplicate, demand, 0, 0).failed > 0 &&
         check_executor_pass(lost, demand, 0, 0).failed > 0 &&
         check_executor_pass(clean, demand, 1, 0).failed > 0;
}

/// Per-layer metrics the executor workloads share: the span ledger, the
/// tier counts, and the trace overhead.
void emit_executor_layers(const PassLog& log, Result& result, bool& ledger_ok) {
  auto& m = result.metrics;
  const double iterations = static_cast<double>(std::max<std::uint64_t>(log.traced_iterations, 1));
  const auto span_us = [&](const char* name) {
    const auto it = log.spans.us.find(name);
    return it == log.spans.us.end() ? 0.0 : it->second;
  };
  const double iteration_us = span_us("iteration");
  const double enqueue = span_us("enqueue");
  const double drain = span_us("drain");
  const double preproc = span_us("preproc");
  const double maintenance = span_us("cache_maintenance");
  const double other = iteration_us - enqueue - drain - preproc - maintenance;
  m.set("executor.enqueue_us", enqueue / iterations, "us");
  m.set("executor.drain_us", drain / iterations, "us");
  m.set("executor.preproc_us", preproc / iterations, "us");
  m.set("executor.maintenance_us", maintenance / iterations, "us");
  m.set("executor.other_us", other / iterations, "us");
  // Ledger: the five self times sum to the iteration spans by construction;
  // those must match the executor's own steady-clock iteration wall time.
  const double ledger = iteration_us * 1e-6 / std::max(log.traced_iter_wall_s, 1e-12);
  const auto spans_seen = log.spans.count.count("iteration") ? log.spans.count.at("iteration") : 0;
  ledger_ok = other >= 0.0 && std::abs(ledger - 1.0) <= kLedgerTolerance &&
              spans_seen == log.traced_iterations;
  m.set("telemetry.ledger_gap_frac", std::abs(ledger - 1.0), "ratio");
  m.set("executor.iter_p99_ms", percentile(log.iter_ms, 99.0), "ms");
  m.set("executor.iter_p99_samples", static_cast<double>(log.iter_ms.size()), "count");

  m.set("executor.local_hits", median_of(log.tiers, &TierCounts::local), "count");
  m.set("executor.remote_fetches", median_of(log.tiers, &TierCounts::remote), "count");
  m.set("executor.pfs_fetches", median_of(log.tiers, &TierCounts::pfs), "count");
  m.set("executor.prefetch_requests", median_of(log.tiers, &TierCounts::prefetch), "count");
  m.set("executor.spilled_requests", median_of(log.tiers, &TierCounts::spilled), "count");
  m.set("executor.degraded_fetches", median_of(log.tiers, &TierCounts::degraded), "count");
  std::vector<double> pfs_frac;
  for (const auto& t : log.tiers) pfs_frac.push_back(t.pfs / std::max(t.demand, 1.0));
  const auto [lo, hi] = std::minmax_element(pfs_frac.begin(), pfs_frac.end());
  m.set("executor.demand_pfs_frac", median(pfs_frac), "ratio");
  m.set("executor.demand_pfs_range", pfs_frac.empty() ? 0.0 : *hi - *lo, "ratio");
  m.set("executor.virtual_s", log.virtual_s.empty() ? 0.0 : log.virtual_s.front(), "s");
  m.set("telemetry.trace_overhead_frac", 1.0 - median(log.traced_rate) / median(log.rate),
        "ratio");

  std::printf("passes: %zu untraced, %zu traced\n", log.rate.size(), log.traced_rate.size());
  std::printf("per-pass demand tiers (local/remote/pfs of demand):");
  for (const auto& t : log.tiers) std::printf(" %.0f/%.0f/%.0f", t.local, t.remote, t.pfs);
  std::printf(" of %.0f\n", log.tiers.empty() ? 0.0 : log.tiers.front().demand);
  bool virtual_repeats = true;
  for (const double v : log.virtual_s) virtual_repeats = virtual_repeats && v == log.virtual_s.front();
  std::printf("executor.virtual_s repeats across passes: %s\n", virtual_repeats ? "yes" : "no");
  std::printf("ledger: spans %.0f us over %llu iterations vs wall %.0f us (ratio %.4f, tolerance %.2f)\n",
              iteration_us, static_cast<unsigned long long>(log.traced_iterations),
              log.traced_iter_wall_s * 1e6, ledger, kLedgerTolerance);
}

void finish(const PassLog& log, bool controls_ok, bool ledger_ok, Result& result) {
  result.attempted = log.attempted;
  result.failed = log.failed;
  if (!log.first_failure.empty()) std::printf("check failed: %s\n", log.first_failure.c_str());
  if (!controls_ok) std::printf("check failed: a doctored report passed the output check\n");
  if (!ledger_ok) std::printf("check failed: per-layer ledger does not add up\n");
  result.correct = log.failed == 0 && controls_ok && ledger_ok;
  result.metrics.set("check.failed_frac",
                     static_cast<double>(log.failed) /
                         static_cast<double>(std::max<std::uint64_t>(log.attempted, 1)),
                     "ratio");
}

struct ArenaDelta {
  lobster::PayloadArena::Stats start = lobster::PayloadArena::stats();
  void emit(Metrics& m, double passes) const {
    const auto now = lobster::PayloadArena::stats();
    m.set("arena.tls_hits", static_cast<double>(now.tls_hits - start.tls_hits) / passes, "count");
    m.set("arena.pool_hits", static_cast<double>(now.pool_hits - start.pool_hits) / passes, "count");
    m.set("arena.fresh_allocs",
          static_cast<double>(now.fresh_allocs - start.fresh_allocs) / passes, "count");
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// warm_drain: 1 node, 4 GPU queues, the whole epoch resident, verify off.
// ---------------------------------------------------------------------------

void run_warm_drain(const Options& options, Result& result) {
  constexpr std::uint16_t kGpus = 4;
  constexpr std::uint32_t kBatch = 256;
  constexpr std::uint32_t kIters = 256;
  constexpr lobster::Bytes kBytes = 4096;
  constexpr std::uint32_t kSamples = kGpus * kBatch * kIters;

  std::unique_ptr<data::SampleCatalog> catalog;
  std::unique_ptr<data::EpochSampler> sampler;
  runtime::Plan plan;
  std::unique_ptr<runtime::PlanExecutor> executor;
  runtime::ExecutorConfig config;
  config.verify_payloads = false;
  config.balance.max_pool_threads = 2;
  config.iteration_hook = [](lobster::IterId iter, const auto&, auto&) {
    if (iter == 1) sample_thread_count();
  };

  PassLog log;
  const auto setup = [&] {
    executor.reset();
    sampler.reset();
    catalog.reset();
    catalog = std::make_unique<data::SampleCatalog>(
        data::DatasetSpec::uniform(kSamples, kBytes), options.seed);
    data::SamplerConfig sc;
    sc.num_samples = kSamples;
    sc.nodes = 1;
    sc.gpus_per_node = kGpus;
    sc.batch_size = kBatch;
    sc.seed = options.seed;
    sampler = std::make_unique<data::EpochSampler>(sc);
    plan = runtime::Plan{};
    plan.cluster_nodes = 1;
    plan.gpus_per_node = kGpus;
    plan.epochs = 1;
    plan.iterations_per_epoch = kIters;
    plan.batch_size = kBatch;
    plan.seed = options.seed;
    for (lobster::IterId i = 0; i < kIters; ++i) {
      runtime::IterationPlan iteration;
      iteration.iter = i;
      iteration.nodes.resize(1);
      iteration.nodes[0].load_threads.assign(kGpus, 1);
      plan.iterations.push_back(std::move(iteration));
    }
    executor = std::make_unique<runtime::PlanExecutor>(config, *catalog, *sampler, plan);
    // Cold pass: materializes the epoch, making it resident.
    log.count(check_executor_pass({executor->run()}, kSamples, 0, 0));
  };
  const auto pass = [&](bool traced) {
    set_tracing(traced);
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    std::vector<runtime::ExecutionReport> reports{executor->run()};
    const double wall = seconds_since(start);
    const double cpu = process_cpu_seconds() - cpu0;
    set_tracing(false);
    log.record(reports, wall, cpu, check_executor_pass(reports, kSamples, 0, 0), traced);
  };
  // One warm pass emits about 3K records on the thread that calls run().
  lobster::telemetry::Tracer::instance().set_buffer_capacity(4096);
  const double setup_s = run_timed(options.seconds, options.trace, setup, pass);

  const bool controls_ok = controls_trip(log.sample_reports, kSamples);
  bool ledger_ok = true;
  if (!options.trace) {
    emit_end_to_end(log.rate, log.iter_p50_ms, log.cpu_ms_per_ksample, kMultiThreadPercentile,
                    setup_s, result.metrics);
  } else {
    emit_executor_layers(log, result, ledger_ok);
    auto& m = result.metrics;
    const auto payload = probe_payload(*catalog);
    m.set("payload.materialize_ns_per_kb", payload.materialize_ns_per_kb, "ns/KiB");
    m.set("payload.verify_ns_per_kb", payload.verify_ns_per_kb, "ns/KiB");
    m.set("sampler.minibatch_us", probe_minibatch_us(*sampler), "us");
  }
  finish(log, controls_ok, ledger_ok, result);
}

// ---------------------------------------------------------------------------
// lobster_online / pytorch_online: 2 nodes x 2 GPUs over the message bus.
// ---------------------------------------------------------------------------

void run_online(const Options& options, bool lobster_plan, Result& result) {
  constexpr double kScale = 400.0;  // ImageNet-1K / 400: 3.2K samples of ~110 KB
  constexpr std::uint16_t kNodes = 2;
  const auto strategy = lobster_plan ? lobster::baselines::LoaderStrategy::lobster()
                                     : lobster::baselines::LoaderStrategy::pytorch();

  // Counters of the benchmark-owned has_sample callback (traced passes).
  std::atomic<bool> timing{false};
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> lookup_ns{0};

  struct Setup {
    lobster::pipeline::ExperimentPreset preset;
    lobster::core::PlannerResult planned;
    std::unique_ptr<data::SampleCatalog> catalog;
    std::unique_ptr<data::EpochSampler> sampler;
    std::unique_ptr<lobster::cache::CacheDirectory> directory;
    std::unique_ptr<lobster::comm::MessageBus> bus;
    /// The executor each node's distribution manager serves from during a
    /// pass; null between passes.
    std::array<std::atomic<runtime::PlanExecutor*>, kNodes> serving{};
    /// Declared after the bus and `serving`, so they stop first.
    std::vector<std::unique_ptr<runtime::DistributionManager>> managers;
  };
  std::unique_ptr<Setup> state;
  std::vector<double> plan_times;

  std::uint64_t dm_served = 0, dm_failed = 0, dm_retries = 0, dm_timeouts = 0;
  std::uint64_t slow_sends = 0;
  std::uint64_t expected = 0;
  PassLog log;

  const auto pass = [&](bool traced) {
    auto& s = *state;
    std::vector<std::unique_ptr<runtime::PlanExecutor>> executors;
    for (lobster::NodeId n = 0; n < kNodes; ++n) {
      runtime::ExecutorConfig config;
      config.node = n;
      config.verify_payloads = true;
      config.balance.max_pool_threads = 1;
      if (n == 0) {
        config.iteration_hook = [](lobster::IterId iter, const auto&, auto&) {
          if (iter == 1) sample_thread_count();
        };
      }
      executors.push_back(std::make_unique<runtime::PlanExecutor>(config, *s.catalog, *s.sampler,
                                                                  s.planned.plan));
      executors[n]->set_manager(s.managers[n].get());
      executors[n]->set_directory(s.directory.get());
      s.serving[n].store(executors[n].get(), std::memory_order_release);
    }
    std::uint64_t served0 = 0, failed0 = 0, retries0 = 0, timeouts0 = 0;
    for (const auto& manager : s.managers) {
      served0 += manager->served_requests();
      failed0 += manager->failed_requests();
      retries0 += manager->retries();
      timeouts0 += manager->timeouts();
    }
    const std::uint64_t slow_before = s.bus->slow_path_sends();

    std::vector<runtime::ExecutionReport> reports(kNodes);
    timing.store(traced, std::memory_order_relaxed);
    set_tracing(traced);
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    {
      std::vector<std::jthread> nodes;
      for (lobster::NodeId n = 0; n < kNodes; ++n) {
        nodes.emplace_back([&, n] { reports[n] = executors[n]->run(); });
      }
    }
    const double wall = seconds_since(start);
    const double cpu = process_cpu_seconds() - cpu0;
    set_tracing(false);
    timing.store(false, std::memory_order_relaxed);
    // Every fetch was answered before run() returned, so no server is
    // inside has_sample any more.
    for (auto& slot : s.serving) slot.store(nullptr, std::memory_order_release);

    std::uint64_t served = 0, failed = 0, retries = 0, timeouts = 0;
    for (const auto& manager : s.managers) {
      served += manager->served_requests();
      failed += manager->failed_requests();
      retries += manager->retries();
      timeouts += manager->timeouts();
    }
    retries -= retries0;
    timeouts -= timeouts0;
    dm_retries += retries;
    dm_timeouts += timeouts;
    if (traced) {
      dm_served += served - served0;
      dm_failed += failed - failed0;
      slow_sends += s.bus->slow_path_sends() - slow_before;
    }
    log.record(reports, wall, cpu, check_executor_pass(reports, expected, retries, timeouts),
               traced);
  };

  const auto setup = [&] {
    state.reset();
    auto fresh = std::make_unique<Setup>();
    auto& s = *fresh;
    s.preset = lobster::pipeline::preset_imagenet1k_multi_node(kScale, kNodes);
    s.preset.cluster.gpus_per_node = 2;
    s.preset.cluster.cpu_threads = 16;
    s.preset.batch_size = 32;
    s.preset.epochs = 3;
    s.preset.seed = options.seed;
    const auto plan_start = Clock::now();
    s.planned = lobster::core::plan_training(s.preset, strategy);
    plan_times.push_back(seconds_since(plan_start));
    s.catalog = std::make_unique<data::SampleCatalog>(s.preset.dataset, s.preset.seed);
    data::SamplerConfig sc;
    sc.num_samples = s.catalog->size();
    sc.nodes = kNodes;
    sc.gpus_per_node = s.preset.cluster.gpus_per_node;
    sc.batch_size = s.preset.batch_size;
    sc.seed = s.preset.seed;
    s.sampler = std::make_unique<data::EpochSampler>(sc);
    // Residency directory seeded with each node's epoch-0 shard, the §4.4
    // global property: later epochs reshuffle, and a miss routes to the
    // epoch-0 owner. Evictions make it stale, which dm.serve_hit_ratio shows.
    s.directory = std::make_unique<lobster::cache::CacheDirectory>(kNodes);
    for (lobster::NodeId n = 0; n < kNodes; ++n) {
      for (std::uint32_t h = 0; h < s.sampler->iterations_per_epoch(); ++h) {
        for (const SampleId id : s.sampler->node_batch(0, h, n)) s.directory->add(id, n);
      }
    }
    s.bus = std::make_unique<lobster::comm::MessageBus>(kNodes);
    const auto* catalog = s.catalog.get();
    for (lobster::NodeId n = 0; n < kNodes; ++n) {
      const auto* slot = &s.serving[n];
      s.managers.push_back(std::make_unique<runtime::DistributionManager>(
          s.bus->endpoint(n),
          [slot, &timing, &lookups, &lookup_ns](SampleId id) {
            const runtime::PlanExecutor* executor = slot->load(std::memory_order_acquire);
            if (executor == nullptr) return false;
            if (!timing.load(std::memory_order_relaxed)) return executor->has_sample(id);
            const auto begin = Clock::now();
            const bool held = executor->has_sample(id);
            lookup_ns.fetch_add(static_cast<std::uint64_t>(
                                    std::chrono::nanoseconds(Clock::now() - begin).count()),
                                std::memory_order_relaxed);
            lookups.fetch_add(1, std::memory_order_relaxed);
            return held;
          },
          [catalog](SampleId id) { return catalog->sample_bytes(id); }));
      s.managers.back()->start();
    }
    expected = static_cast<std::uint64_t>(s.planned.plan.total_iterations()) * kNodes *
               s.preset.cluster.gpus_per_node * s.preset.batch_size;
    state = std::move(fresh);
  };

  const ArenaDelta arena;
  const double setup_s = run_timed(options.seconds, options.trace, setup, pass);

  const bool controls_ok = controls_trip(log.sample_reports, expected);
  bool ledger_ok = true;
  if (!options.trace) {
    emit_end_to_end(log.rate, log.iter_p50_ms, log.cpu_ms_per_ksample, kMultiThreadPercentile,
                    setup_s, result.metrics);
  } else {
    auto& m = result.metrics;
    const auto& s = *state;
    emit_executor_layers(log, result, ledger_ok);
    const double passes = static_cast<double>(log.tiers.size());
    const double traced_passes = static_cast<double>(std::max<std::size_t>(log.traced_rate.size(), 1));
    arena.emit(m, passes);
    const auto payload = probe_payload(*s.catalog);
    m.set("payload.materialize_ns_per_kb", payload.materialize_ns_per_kb, "ns/KiB");
    m.set("payload.verify_ns_per_kb", payload.verify_ns_per_kb, "ns/KiB");
    const auto n_lookups = lookups.load();
    m.set("dm.serve_lookups", static_cast<double>(n_lookups) / traced_passes, "count");
    m.set("dm.serve_lookup_ns",
          n_lookups == 0 ? 0.0 : static_cast<double>(lookup_ns.load()) / static_cast<double>(n_lookups),
          "ns");
    m.set("dm.serve_hit_ratio",
          dm_served + dm_failed == 0
              ? 0.0
              : static_cast<double>(dm_served) / static_cast<double>(dm_served + dm_failed),
          "ratio");
    m.set("dm.retries", static_cast<double>(dm_retries), "count");
    m.set("dm.timeouts", static_cast<double>(dm_timeouts), "count");
    m.set("comm.slow_path_sends", static_cast<double>(slow_sends) / traced_passes, "count");
    m.set("sampler.minibatch_us", probe_minibatch_us(*s.sampler), "us");
    m.set("directory.peer_holder_ns", probe_peer_holder_ns(*s.directory, s.catalog->size()), "ns");
    m.set("planner.plan_s", median(plan_times), "s");
    m.set("pipeline.construct_s", probe_construct_s(s.preset, strategy), "s");
    const auto& sim = s.planned.simulation;
    m.set("pipeline.hit_ratio", sim.metrics.hit_ratio(), "ratio");
    m.set("pipeline.imbalanced_fraction", sim.metrics.imbalanced_fraction(), "ratio");
    m.set("pipeline.virtual_samples_per_s", sim.samples_per_second, "1/s");
    std::printf("dm: %llu served, %llu not found over %zu traced passes\n",
                static_cast<unsigned long long>(dm_served),
                static_cast<unsigned long long>(dm_failed), log.traced_rate.size());
  }
  finish(log, controls_ok, ledger_ok, result);
}

}  // namespace perfbench
