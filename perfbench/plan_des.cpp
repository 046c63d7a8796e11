// plan_des: the offline planner run as the DES (discrete-event) simulator
// with the Lobster strategy on 8 nodes x 8 GPUs, recording a Plan. One
// thread, no payloads; it is the only workload through Algorithm 1, the
// cache policies and the fetch replay.
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "pipeline/simulator.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

namespace {

// ImageNet-1K / 160 (8K samples) with batch 8: 15 iterations per epoch, and
// passes of about 0.1 s, short enough to fall inside the quiet moments of a
// shared host (see kSingleThreadPercentile).
constexpr double kScale = 160.0;
constexpr std::uint32_t kBatch = 8;
constexpr std::uint16_t kNodes = 8;

/// The simulator's virtual-time outputs; a fixed seed must reproduce them
/// bit for bit.
struct VirtualOutputs {
  double hit_ratio = 0.0;
  double imbalanced_fraction = 0.0;
  double samples_per_second = 0.0;
  double total_time = 0.0;
  std::uint64_t plan_digest = 0;

  bool operator==(const VirtualOutputs& o) const noexcept {
    return std::bit_cast<std::uint64_t>(hit_ratio) == std::bit_cast<std::uint64_t>(o.hit_ratio) &&
           std::bit_cast<std::uint64_t>(imbalanced_fraction) ==
               std::bit_cast<std::uint64_t>(o.imbalanced_fraction) &&
           std::bit_cast<std::uint64_t>(samples_per_second) ==
               std::bit_cast<std::uint64_t>(o.samples_per_second) &&
           std::bit_cast<std::uint64_t>(total_time) == std::bit_cast<std::uint64_t>(o.total_time) &&
           plan_digest == o.plan_digest;
  }
};

/// FNV-1a over every decision the plan records.
std::uint64_t plan_digest(const lobster::runtime::Plan& plan) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  };
  for (const auto& iteration : plan.iterations) {
    mix(iteration.iter);
    for (const auto& node : iteration.nodes) {
      for (const auto threads : node.load_threads) mix(threads);
      mix(node.preproc_threads);
      for (const auto id : node.prefetches) mix(id);
      mix(~0ULL);
      for (const auto id : node.evictions) mix(id);
      mix(~1ULL);
    }
  }
  return hash;
}

struct PassOutput {
  VirtualOutputs outputs;
  double construct_s = 0.0;
  double run_s = 0.0;
  std::uint64_t iterations = 0;
  std::uint64_t samples = 0;
  std::unique_ptr<lobster::pipeline::TrainingSimulator> simulator;  ///< kept for the probes
};

PassOutput simulate_once(const lobster::pipeline::ExperimentPreset& preset) {
  PassOutput out;
  lobster::runtime::Plan plan;
  lobster::pipeline::SimulationConfig config;
  config.preset = preset;
  config.strategy = lobster::baselines::LoaderStrategy::lobster();
  config.des_loading = true;
  config.record_plan = &plan;
  const auto start = Clock::now();
  out.simulator = std::make_unique<lobster::pipeline::TrainingSimulator>(std::move(config));
  out.construct_s = seconds_since(start);
  const auto run_start = Clock::now();
  const auto result = out.simulator->run();
  out.run_s = seconds_since(run_start);
  out.outputs = {result.metrics.hit_ratio(), result.metrics.imbalanced_fraction(),
                 result.samples_per_second, result.metrics.total_time(), plan_digest(plan)};
  out.iterations = result.metrics.iterations();
  out.samples = out.iterations * preset.cluster.total_gpus() * preset.batch_size;
  return out;
}

}  // namespace

void run_plan_des(const Options& options, Result& result) {
  auto preset = lobster::pipeline::preset_imagenet1k_multi_node(kScale, kNodes);
  preset.epochs = 3;
  preset.batch_size = kBatch;
  preset.seed = options.seed;

  // Set-up: a reference simulation, whose virtual outputs every later
  // set-up and every timed pass must reproduce.
  std::optional<VirtualOutputs> reference;
  std::unique_ptr<lobster::pipeline::TrainingSimulator> probe_source;
  std::uint64_t attempted = 0, failed = 0;
  const auto check = [&](const PassOutput& out) {
    attempted += out.samples;
    if (!(out.outputs == *reference)) failed += out.samples;
  };
  const auto setup = [&] {
    auto out = simulate_once(preset);
    if (!reference) reference = out.outputs;
    check(out);
    probe_source = std::move(out.simulator);
  };

  // A traced pass keeps every span of one simulation in the ring.
  if (options.trace) lobster::telemetry::Tracer::instance().set_buffer_capacity(std::size_t{1} << 20);
  auto& events_fired = lobster::telemetry::MetricRegistry::instance().counter("sim.events_fired");
  const std::uint64_t events_before = events_fired.value();

  std::vector<double> rate, traced_rate, iter_ms, cpu_ms_per_ksample, construct_s, plan_s;
  std::uint64_t traced_iterations = 0, traced_node_iterations = 0;
  double traced_run_s = 0.0;
  SpanTotals spans;
  const double setup_s = run_timed(options.seconds, options.trace, setup, [&](bool traced) {
    set_tracing(traced);
    const double cpu0 = process_cpu_seconds();
    const auto out = simulate_once(preset);
    const double cpu = process_cpu_seconds() - cpu0;
    set_tracing(false);
    check(out);
    const double wall = out.construct_s + out.run_s;
    const double samples = static_cast<double>(out.samples);
    if (traced) {
      traced_rate.push_back(samples / wall);
      spans.collect_and_reset();
      traced_iterations += out.iterations;
      traced_node_iterations += out.iterations * kNodes;
      traced_run_s += out.run_s;
      return;
    }
    rate.push_back(samples / wall);
    iter_ms.push_back(wall * 1e3 / static_cast<double>(out.iterations));
    cpu_ms_per_ksample.push_back(cpu * 1e3 / (samples / 1e3));
    construct_s.push_back(out.construct_s);
    plan_s.push_back(wall);
  });

  // Negative control: one changed virtual output must fail the comparison.
  VirtualOutputs doctored = *reference;
  doctored.hit_ratio = std::nextafter(doctored.hit_ratio, 2.0);
  const bool controls_ok = !(doctored == *reference);

  auto& m = result.metrics;
  bool ledger_ok = true;
  if (!options.trace) {
    emit_end_to_end(rate, iter_ms, cpu_ms_per_ksample, kSingleThreadPercentile, setup_s, m);
  } else {
    const auto span_us = [&](const char* name) {
      const auto it = spans.us.find(name);
      return it == spans.us.end() ? 0.0 : it->second;
    };
    const double iterations = static_cast<double>(std::max<std::uint64_t>(traced_iterations, 1));
    const double simulate_us = span_us("simulate");
    const double replay_us = span_us("replay_node_iteration");
    m.set("sim.replay_us_per_iter", replay_us / iterations, "us");
    m.set("pipeline.other_us_per_iter", (simulate_us - replay_us) / iterations, "us");
    const double traced_passes = static_cast<double>(std::max<std::size_t>(traced_rate.size(), 1));
    m.set("sim.events_fired", static_cast<double>(events_fired.value() - events_before) / traced_passes,
          "count");
    m.set("planner.plan_s", median(plan_s), "s");
    m.set("pipeline.construct_s", median(construct_s), "s");
    m.set("pipeline.hit_ratio", reference->hit_ratio, "ratio");
    m.set("pipeline.imbalanced_fraction", reference->imbalanced_fraction, "ratio");
    m.set("pipeline.virtual_samples_per_s", reference->samples_per_second, "1/s");
    m.set("telemetry.trace_overhead_frac", 1.0 - median(traced_rate) / median(rate), "ratio");
    // Ledger: the simulate span against the benchmark's own clock around run().
    const double ledger = simulate_us * 1e-6 / std::max(traced_run_s, 1e-12);
    const auto replay_spans =
        spans.count.count("replay_node_iteration") ? spans.count.at("replay_node_iteration") : 0;
    ledger_ok = std::abs(ledger - 1.0) <= kLedgerTolerance && replay_spans == traced_node_iterations;
    m.set("telemetry.ledger_gap_frac", std::abs(ledger - 1.0), "ratio");
    const auto payload = probe_payload(probe_source->catalog());
    m.set("payload.materialize_ns_per_kb", payload.materialize_ns_per_kb, "ns/KiB");
    m.set("payload.verify_ns_per_kb", payload.verify_ns_per_kb, "ns/KiB");
    m.set("sampler.minibatch_us", probe_minibatch_us(probe_source->sampler()), "us");
    std::printf("passes: %zu untraced, %zu traced\n", rate.size(), traced_rate.size());
    std::printf("ledger: simulate spans %.0f us vs run() wall %.0f us (ratio %.4f, tolerance %.2f); "
                "%llu of %llu replay spans kept, %llu records dropped\n",
                simulate_us, traced_run_s * 1e6, ledger, kLedgerTolerance,
                static_cast<unsigned long long>(replay_spans),
                static_cast<unsigned long long>(traced_node_iterations),
                static_cast<unsigned long long>(spans.dropped));
  }
  std::printf("virtual outputs: hit_ratio=%.17g imbalanced_fraction=%.17g samples_per_s=%.17g "
              "total_time=%.17g plan_digest=%016llx\n",
              reference->hit_ratio, reference->imbalanced_fraction, reference->samples_per_second,
              reference->total_time, static_cast<unsigned long long>(reference->plan_digest));
  if (failed > 0) std::printf("check failed: virtual outputs differ from the reference pass\n");
  if (!controls_ok) std::printf("check failed: a doctored virtual output passed the check\n");
  if (!ledger_ok) std::printf("check failed: per-layer ledger does not add up\n");
  result.attempted = attempted;
  result.failed = failed;
  result.correct = failed == 0 && controls_ok && ledger_ok;
  m.set("check.failed_frac",
        static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
        "ratio");
}

}  // namespace perfbench
